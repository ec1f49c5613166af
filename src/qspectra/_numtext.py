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
A ``%.2f`` value takes two words: the integer part, NUL-padded on the
left, then ``.``, the cents and the separator.  A fallback text longer
than the fast-path words widens its block's slots by as many words as
it needs.

One buffer per table.  ``table_blocks`` lays every block out in one
``bytearray``, resized to the block's slots and viewed by numpy, so each
gathered word goes straight into its slots.  The words past the gathered
ones (in a block widened by a long text) are cleared in every block,
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
(``%.8e``: ``1e-99 <= |x| < 1e99``, the two-digit exponents; ``%.2f``:
non-negative values, sign bit clear, that round below ``10000.00``), and
for ``%.8e`` values inside the guard band and values whose ``s`` left
the window (``log10`` one off near a power of ten), are formatted by
CPython itself, once per distinct bit pattern in a block, and written
into their own slots; the rest of the block keeps the fast path.  A
broadcast column (stride 0) holds one value: it is formatted once per
table, and its text fills the column's slot in every block.
"""

from __future__ import annotations

import numpy as np

# rows formatted per block; bounds the slot buffer and the temporaries
_BLOCK_ROWS = 4096

# s this close to a half-integer may round either way
_GUARD = 1e-6

# fast-path ranges: %.8e exponents of two digits (e <= 99 after a carry),
# and non-negative %.2f values whose integer part has at most four digits
_SCI_MIN, _SCI_MAX = 1e-99, 1e99
_FIXED_MAX = 1e4

# correctly rounded scales 10**(8 - e) (float() of a decimal literal rounds
# correctly) for e = floor(log10|x|) = -100 ... 99: log10 may put 1e-99 at
# e = -100, where s rounds up to 1e9 and carries
_E_MIN = -100
_SCALES = np.array([float(f"1e{8 - e}") for e in range(_E_MIN, 100)])


def _words(texts) -> np.ndarray:
    """Four-character texts as little-endian words, so that one gather
    from the table writes four characters of a slot.  NUL is padding."""
    return np.frombuffer("".join(texts).encode("ascii"), "<u4")


_QUADS = _words(f"{i:04d}" for i in range(10000))

# %.8e: [sign][lead digit][.][first decimal] for the leading two digits +
# 100 * negative (a NUL sign when positive); the last three decimals and
# the [e]; and the exponent, for e - _E_MIN, as [sign][two digits] and a
# NUL that the separator overwrites (the row of e = -100 repeats -99: only
# a fallback slot reaches it)
_HEADS = _words(f"{sign}{q // 10}.{q % 10}" for sign in ("\0", "-") for q in range(100))
_TRIPLES = _words(f"{i:03d}e" for i in range(1000))
_EXPONENTS = _words(f"{max(k, -99):+03d}\0" for k in range(_E_MIN, 100))

# %.2f: the integer part, NUL-padded on the left; and the cents
_WHOLES = _words(str(i).rjust(4, "\0") for i in range(10000))
_CENTS = _words(f".{c:02d}\0" for c in range(100))


def _divmod(n: np.ndarray, d: int):
    """np.divmod of non-negative integers, in about half its time."""
    q = n // d
    return q, n - q * d


def _scientific(x: np.ndarray):
    """Slot words of '%.8e', as (table, index) gathers, and the mask of
    values they hold exactly."""
    a = np.abs(x)
    fast = (a >= _SCI_MIN) & (a < _SCI_MAX)  # False for NaN
    a[~fast] = 1.0  # placeholder; the fallback overwrites its slot
    e = np.floor(np.log10(a)).astype(np.int32) - _E_MIN
    s = a * _SCALES[e]
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
    return [(_HEADS, lead), (_QUADS, mid), (_TRIPLES, low), (_EXPONENTS, e)], exact


def _fixed(x: np.ndarray):
    """Slot words of '%.2f', as (table, index) gathers, and the mask of
    values they hold exactly."""
    # the sign bit, not x >= 0: -0.0 prints its sign; NaN fails x < 1e4
    fast = (x < _FIXED_MAX) & ~np.signbit(x)
    a = np.where(fast, x, 0.0)
    s = a * 100.0
    m = np.rint(s)
    near = np.abs(s - m) > 0.5 - _GUARD
    if near.any():
        m[near] = _round_near_tie(a[near], s[near])
    whole, cents = _divmod(m.astype(np.uint32), 100)
    # 9999.995 rounds to 10000.00, past the four-digit words
    return [(_WHOLES, whole), (_CENTS, cents)], fast & (m < 100 * _FIXED_MAX)


def _round_near_tie(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The integer nearest the exact product a * 100, ties to even, where
    s = fl(a * 100) lies within _GUARD of the half-integer floor(s) + 0.5
    (so 0.004 < a < 1e4, far from underflow and overflow).  Dekker's
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
    for k, (table, index) in enumerate(words):
        slots[:, varying, k] = table.take(index, mode="clip")
    # the buffer holds the last block's bytes; clear the words no gather wrote
    slots[:, :, len(words):] = 0
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
