"""Correctly rounded ``%.8e`` and ``%.2f`` text for whole float tables.

``table_blocks`` gives, byte for byte, what formatting each value with
CPython's ``"%.8e" % x`` or ``"%.2f" % x`` gives, but works on blocks of
rows in whole-array numpy instead of one value at a time.

Fast path.  ``%.8e`` scales ``|x|`` into the window ``[1e8, 1e9)`` with a
table of correctly rounded powers of ten, ``s = |x| * 10**(8 - e)`` where
``e = floor(log10|x|)``.  ``%.2f`` takes ``s = |x| * 100``.  The integer
nearest ``s`` holds the digits.  Table gathers turn the digits, the sign
and the exponent into the 4-byte words of a fixed-width slot per value,
which ends in the value's separator; the bytes a value does not use are
NUL, and each block is joined with its NULs deleted.

Slots.  A ``%.8e`` value takes four words: ``[sign] d . d``, four digits,
three digits and ``e``, then the exponent's sign and two digits with the
separator in the last byte.  The sign byte is NUL for a positive value.
A block in which a fast-path exponent has three digits gives every slot a
fifth word: the exponent word is full, and the fifth holds three NULs and
the separator.  A ``%.2f`` value takes three words: the sign and the high
digits of the integer part, its low four digits (no leading zeros), and
``.``, the cents and the separator.  A fallback text longer than the
fast-path words widens its block's slots in the same way.

One buffer per table.  ``table_blocks`` lays every block out in one
``bytearray``, resized to the block's slots and viewed by numpy, so each
gathered word goes straight into its slots.  The words past the gathered
ones (a fifth word, or more for a long text) are cleared in every block,
since the buffer still holds the previous block.  Each block is compacted
by one ``bytearray.translate`` that deletes the NULs, and
``table_blocks`` yields that new ``bytearray``, which the CSV and SVG
writers write as it is.

Why it is exact.  ``s`` comes from at most two correctly rounded float64
operations on a value below ``1e9``, so it lies within about ``2.3e-7``
of the exact product.  Rounding ``s`` to the nearest integer therefore
goes the same way as rounding the exact decimal expansion, unless ``s``
lies within ``_GUARD`` of a half-integer.  A rounded ``s`` of ``1e9``
carries into the next decade.  For ``%.2f`` such near-ties are settled
in numpy too: ``100`` is exact, so Dekker's product gives the exact error
of ``s = fl(|x| * 100)``, and the exact product is rounded on its side
of the half-integer, with exact ties to even as CPython rounds them.
``%.8e`` cannot do the same, because its scale ``10**(8 - e)`` is itself
rounded.

Exact fallback.  NaN, infinities and values outside the fast-path range
(``%.8e``: below ``1e-299``, so zeros and subnormals; ``%.2f``: from
``1e6``), and for ``%.8e`` values inside the guard band and values whose
``s`` left the window (``log10`` one off near a power of ten), are
formatted by CPython itself, once per distinct bit pattern in a block,
and written into their own slots; the rest of the block keeps the fast
path.  A broadcast column (stride 0) holds one value: it is formatted
once per table, and its text fills the column's slot in every block.
"""

from __future__ import annotations

import numpy as np

# rows formatted per block; bounds the slot buffer and the temporaries
_BLOCK_ROWS = 4096

# s this close to a half-integer may round either way
_GUARD = 1e-6

# fast-path magnitude ranges: %.8e keeps 10**(8 - e) a normal float for
# every finite |x| from _SCI_MIN, and %.2f keeps the integer part within
# the slot's seven digits
_SCI_MIN, _SCI_MAX = 1e-299, np.finfo(np.float64).max
_FIXED_MAX = 1e6

# correctly rounded 10**k (float() of a decimal literal rounds correctly),
# for the scales 10**(8 - e) of the fast path's exponents e = -300 ... 308
_POW10_MIN = -300
_POW10 = np.array([float(f"1e{k}") for k in range(_POW10_MIN, 309)])


def _words(texts) -> np.ndarray:
    """Four-character texts as little-endian words, so that one gather
    from the table writes four characters of a slot.  NUL is padding."""
    return np.frombuffer("".join(texts).encode("ascii"), "<u4")


def _nul_padded(text: str) -> str:
    return text.rjust(4, "\0")


_QUADS = _words(f"{i:04d}" for i in range(10000))

# %.8e: [sign][lead digit][.][first decimal] for the leading two digits +
# 100 * negative (a NUL sign when positive); the last three decimals and
# the [e]; and the exponent e - _EXP_MIN (e <= 309 after a carry) as
# [sign][digits], NUL-padded on the right where a two-digit exponent
# leaves room for the separator
_HEADS = _words(f"{sign}{q // 10}.{q % 10}" for sign in ("\0", "-") for q in range(100))
_TRIPLES = _words(f"{i:03d}e" for i in range(1000))
_EXP_MIN = -300
_EXPONENTS = _words(f"{k:+03d}".ljust(4, "\0") for k in range(_EXP_MIN, 310))

# %.2f: the integer part's high digits with the sign, for high + 101 *
# negative (high <= 100); its low four digits, for low + 10000 * (high == 0)
# (without leading zeros, but at least one digit); and the cents
_SIGNED_HIGHS = _words(_nul_padded(sign + (str(high) if high else ""))
                       for sign in ("", "-") for high in range(101))
_LOWS = _words([f"{i:04d}" for i in range(10000)] + [_nul_padded(str(i)) for i in range(10000)])
_CENTS = _words(f".{c:02d}\0" for c in range(100))


def _divmod(n: np.ndarray, d: int):
    """np.divmod of non-negative integers, in about half its time."""
    q = n // d
    return q, n - q * d


def _scientific(x: np.ndarray):
    """Slot words of '%.8e', as (table, index) gathers, and the mask of
    values they hold exactly.  A None word is all NUL: it follows the
    gathers when a value's exponent has three digits."""
    a = np.abs(x)
    fast = (a >= _SCI_MIN) & (a <= _SCI_MAX)  # False for NaN
    a[~fast] = 1.0  # placeholder; the fallback overwrites its slot
    e = np.floor(np.log10(a)).astype(np.int32)
    s = a * _POW10[8 - _POW10_MIN - e]
    m = np.rint(s)
    # near a power of ten log10 can put s just outside the window; such
    # values take the fallback, and the gathers clip their indices
    exact = fast & (np.abs(s - m) <= 0.5 - _GUARD) & (s >= 1e8) & (s < 1e9)
    carry = m == 1e9  # rounded up across a decade
    m[carry] = 1e8
    e += carry
    high, low = _divmod(m.astype(np.uint32), 1000)
    lead, mid = _divmod(high, 10_000)
    lead += (x < 0) * np.uint32(100)
    words = [(_HEADS, lead), (_QUADS, mid), (_TRIPLES, low), (_EXPONENTS, e - _EXP_MIN)]
    if e.size and (e.min() <= -100 or e.max() >= 100):
        words.append(None)
    return words, exact


def _fixed(x: np.ndarray):
    """Slot words of '%.2f', as (table, index) gathers, and the mask of
    values they hold exactly."""
    a = np.abs(x)
    exact = a < _FIXED_MAX  # False for NaN
    a[~exact] = 0.0
    s = a * 100.0
    m = np.rint(s)
    near = np.abs(s - m) > 0.5 - _GUARD
    if near.any():
        m[near] = _round_near_tie(a[near], s[near])
    whole, cents = _divmod(m.astype(np.uint32), 100)
    high, low = _divmod(whole, 10_000)
    # the sign of -0.0 and of small negatives that round to zero prints
    words = [(_SIGNED_HIGHS, high + np.signbit(x) * np.uint32(101)),
             (_LOWS, low + (high == 0) * np.uint32(10_000)), (_CENTS, cents)]
    return words, exact


def _round_near_tie(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The integer nearest the exact product a * 100, ties to even, where
    s = fl(a * 100) lies within _GUARD of the half-integer floor(s) + 0.5
    (so 0.004 < a < 1e6, far from underflow and overflow).  Dekker's
    product: a Veltkamp split a = ah + al into 26-bit halves makes
    ah * 100 and al * 100 exact, so err is exact and a * 100 = s + err.
    The sum d is rounded, but keeps the sign of the exact distance to the
    half-integer, and is zero only on a tie."""
    c = a * 134217729.0  # 2**27 + 1
    ah = c - (c - a)
    al = a - ah
    err = (ah * 100.0 - s) + al * 100.0
    low = np.floor(s)
    d = (s - (low + 0.5)) + err  # s - (low + 0.5) is exact (Sterbenz)
    return low + ((d > 0) | ((d == 0) & (low % 2 == 1)))


_CONVERSIONS = {"%.8e": _scientific, "%.2f": _fixed}


def _padded(texts, width: int) -> np.ndarray:
    """ASCII texts as the rows of a NUL-padded byte array."""
    padded = np.zeros((len(texts), width), np.uint8)
    for row, text in zip(padded, texts):
        row[:len(text)] = np.frombuffer(text, np.uint8)
    return padded


def _format_block(x: np.ndarray, separators: np.ndarray, conversion: str,
                  varying, constants: dict, buffer: bytearray) -> bytearray:
    """ASCII bytes of one block of rows, laid out in `buffer` (resized to
    the block's slots; no view of it may be alive).  `x` holds the block's
    values of the columns `varying` (an index or a slice); `constants`
    maps every other column to the text of its one value, which fills
    that column's slot on every row."""
    words, exact = _CONVERSIONS[conversion](x)
    fallback = ~exact
    texts = []
    if fallback.any():
        # one CPython call per distinct bit pattern
        bits, where = np.unique(x[fallback].view(np.uint64), return_inverse=True)
        texts = [(conversion % v).encode("ascii")
                 for v in bits.view(np.float64).tolist()]
    # a slot holds the fast-path words or a text, then the separator in its
    # last byte, which the fast-path words leave NUL
    n_words = max([len(words)] + [len(text) // 4 + 1
                                  for text in texts + list(constants.values())])
    size = separators.size * 4 * n_words
    del buffer[size:]
    buffer.extend(bytes(size - len(buffer)))
    chars = np.frombuffer(buffer, np.uint8).reshape(separators.shape + (4 * n_words,))
    slots = chars.view("<u4")
    gathers = [word for word in words if word is not None]
    for k, (table, index) in enumerate(gathers):
        slots[:, varying, k] = table.take(index, mode="clip")
    # the buffer holds the last block's bytes; clear the words no gather wrote
    slots[:, :, len(gathers):] = 0
    chars[..., -1] = separators
    if texts:
        written = np.zeros(separators.shape, bool)
        written[:, varying] = fallback
        chars[written, :-1] = _padded(texts, 4 * n_words - 1)[where.ravel()]
    for column, text in constants.items():
        chars[:, column, :-1] = _padded([text], 4 * n_words - 1)
    return buffer.translate(None, b"\0")


def table_blocks(columns, conversion: str, separators):
    """ASCII bytes of the table whose columns are `columns` (1-d, of one
    length), one block of `_BLOCK_ROWS` rows at a time: each value
    formatted as `conversion` and followed by its separator.  Only the
    rows of one block are gathered, so the columns may be strided or
    broadcast views; a broadcast column (stride 0, such as the NaN
    amplitude of a noisy spectrum) is formatted once for the whole table.
    `separators` is a string with one character per column, or an array
    of ASCII codes that broadcasts to the shape (rows, columns).  Every
    block is laid out in one slot buffer, and each is yielded as its own
    bytearray."""
    n_rows = len(columns[0])
    if isinstance(separators, str):
        separators = np.frombuffer(separators.encode("ascii"), np.uint8)
    separators = np.broadcast_to(separators, (n_rows, len(columns)))
    constants = {j: (conversion % float(column[0])).encode("ascii")
                 for j, column in enumerate(columns)
                 if n_rows and isinstance(column, np.ndarray) and column.strides == (0,)}
    varying = [j for j in range(len(columns)) if j not in constants]
    # without constant columns a slice keeps the slot writes plain views
    slots = varying if constants else slice(None)
    buffer = bytearray()
    for i in range(0, n_rows, _BLOCK_ROWS):
        rows = separators[i:i + _BLOCK_ROWS]
        block = np.empty((len(rows), len(varying)))
        for k, j in enumerate(varying):
            block[:, k] = columns[j][i:i + _BLOCK_ROWS]
        yield _format_block(block, rows, conversion, slots, constants, buffer)
