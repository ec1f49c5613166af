"""Correctly rounded ``%.8e`` and ``%.2f`` text for whole float tables.

``format_table`` gives, byte for byte, what formatting each value with
CPython's ``"%.8e" % x`` or ``"%.2f" % x`` gives, but works on blocks of
rows in whole-array numpy instead of one value at a time.

Fast path.  ``%.8e`` scales ``|x|`` into the window ``[1e8, 1e9)`` with a
table of correctly rounded powers of ten, ``s = |x| * 10**(8 - e)`` where
``e = floor(log10|x|)``.  ``%.2f`` takes ``s = |x| * 100``.  The integer
nearest ``s`` holds the digits.  Table lookups turn the digits, the sign
and the exponent into 4-byte words of a fixed-width slot per value, which
ends in the value's separator; the bytes a value does not use (the ``-``
sign, a third exponent digit, leading zeros) are NUL, and each block is
joined with its NULs deleted.  ``table_blocks`` yields those block bytes,
which the CSV writers write as they are; ``format_table`` decodes them.

Why it is exact.  ``s`` comes from at most two correctly rounded float64
operations on a value below ``1e9``, so it lies within about ``2.3e-7``
of the exact product.  Rounding ``s`` to the nearest integer therefore
goes the same way as rounding the exact decimal expansion, unless ``s``
lies within ``_GUARD`` of a half-integer.  A rounded ``s`` of ``1e9``
carries into the next decade.

Exact fallback.  Zeros (``%.8e``), NaN, infinities, values outside the
fast-path range, values inside the guard band and values whose ``s`` left
the window (``log10`` one off near a power of ten) are formatted by CPython
itself, once per distinct bit pattern in a block, and written into their
own slots; the rest of the block keeps the fast path.
"""

from __future__ import annotations

import numpy as np

# rows formatted per block; bounds the slot buffers and the temporaries
_BLOCK_ROWS = 4096

# s this close to a half-integer may round either way
_GUARD = 1e-6

# fast-path magnitude ranges: %.8e keeps 10**(8 - e) a normal float, and
# %.2f keeps the integer part within the slot's seven digits
_SCI_MIN, _SCI_MAX = 1e-280, 1e280
_FIXED_MAX = 1e6

# correctly rounded 10**k (float() of a decimal literal rounds correctly)
_POW10_MIN = -300
_POW10 = np.array([float(f"1e{k}") for k in range(_POW10_MIN, 301)])


def _words(texts) -> np.ndarray:
    """Four-character texts as little-endian words, so that one gather
    from the table writes four characters of a slot.  NUL is padding."""
    return np.frombuffer("".join(texts).encode("ascii"), "<u4")


def _nul_padded(text: str) -> str:
    return text.rjust(4, "\0")


def _exponent(k: int) -> str:
    """'e+05', 'e-123': the exponent as '%.8e' writes it, with a NUL in
    place of a missing hundreds digit."""
    text = f"e{k:+03d}"
    return text if len(text) == 5 else text[:2] + "\0" + text[2:]


_QUADS = _words(f"{i:04d}" for i in range(10000))

# %.8e: [-][lead digit][.] for lead + 10 * negative, and the exponent
# e + 999 as [e][sign][hundreds][tens] and [units]
_LEADS = _words(f"{sign}{d}.\0" for sign in ("\0", "-") for d in range(10))
_EXPONENTS = [_exponent(k) for k in range(-999, 1000)]
_EXP_HEADS = _words(text[:4] for text in _EXPONENTS)
_EXP_TAILS = _words(text[4] + "\0\0\0" for text in _EXPONENTS)

# %.2f: the integer part's high digits with the sign, for high + 101 *
# negative (high <= 100); its low four digits, for low + 10000 * (high == 0)
# (without leading zeros, but at least one digit); and the cents
_SIGNED_HIGHS = _words(_nul_padded(sign + (str(high) if high else ""))
                       for sign in ("", "-") for high in range(101))
_LOWS = _words([f"{i:04d}" for i in range(10000)] + [_nul_padded(str(i)) for i in range(10000)])
_CENTS = _words(f".{c:02d}\0" for c in range(100))


def _scientific(x: np.ndarray):
    """Slot words of '%.8e' and the mask of values they hold exactly."""
    a = np.abs(x)
    fast = (a >= _SCI_MIN) & (a <= _SCI_MAX)  # False for NaN
    a[~fast] = 1.0  # placeholder; the fallback overwrites its slot
    e = np.floor(np.log10(a)).astype(np.int64)
    s = a * _POW10[8 - _POW10_MIN - e]
    m = np.rint(s)
    # near a power of ten log10 can put s just outside the window; such
    # values take the fallback, so the lead below is one digit
    exact = fast & (np.abs(s - m) <= 0.5 - _GUARD) & (s >= 1e8) & (s < 1e9)
    carry = m == 1e9  # rounded up across a decade
    m[carry] = 1e8
    e += carry
    lead, rest = np.divmod(m.astype(np.int64), 100_000_000)
    high, low = np.divmod(rest, 10_000)
    lead += 10 * (x < 0)
    e += 999
    words = [_LEADS[lead], _QUADS[high], _QUADS[low], _EXP_HEADS[e], _EXP_TAILS[e]]
    return words, exact


def _fixed(x: np.ndarray):
    """Slot words of '%.2f' and the mask of values they hold exactly."""
    a = np.abs(x)
    fast = a < _FIXED_MAX  # False for NaN
    a[~fast] = 0.0
    s = a * 100.0
    m = np.rint(s)
    exact = fast & (np.abs(s - m) <= 0.5 - _GUARD)
    whole, cents = np.divmod(m.astype(np.int64), 100)
    high, low = np.divmod(whole, 10_000)
    # the sign of -0.0 and of small negatives that round to zero prints
    words = [_SIGNED_HIGHS[high + 101 * np.signbit(x)],
             _LOWS[low + 10_000 * (high == 0)], _CENTS[cents]]
    return words, exact


_CONVERSIONS = {"%.8e": _scientific, "%.2f": _fixed}


def _format_block(x: np.ndarray, separators: np.ndarray, conversion: str) -> bytes:
    words, exact = _CONVERSIONS[conversion](x)
    fallback = ~exact
    texts = []
    if fallback.any():
        # one CPython call per distinct bit pattern: noisy spectra carry a
        # NaN in two columns of every row
        bits, where = np.unique(x[fallback].view(np.uint64), return_inverse=True)
        texts = [(conversion % v).encode("ascii")
                 for v in bits.view(np.float64).tolist()]
    # a slot holds the fast-path words or a fallback text, then the
    # separator in its last byte, which the fast-path words leave NUL
    n_words = max([len(words)] + [len(text) // 4 + 1 for text in texts])
    slots = np.zeros(x.shape + (n_words,), "<u4")
    for k, word in enumerate(words):
        slots[..., k] = word
    chars = slots.view(np.uint8)
    chars[..., -1] = separators
    if texts:
        padded = np.zeros((len(texts), 4 * n_words - 1), np.uint8)
        for row, text in zip(padded, texts):
            row[:len(text)] = np.frombuffer(text, np.uint8)
        chars[fallback, :-1] = padded[where.ravel()]
    return chars.tobytes().translate(None, b"\0")


def table_blocks(columns, conversion: str, separators):
    """ASCII bytes of the table whose columns are `columns` (1-d, of one
    length), one block of `_BLOCK_ROWS` rows at a time: each value
    formatted as `conversion` and followed by its separator.  Only the
    rows of one block are gathered, so the columns may be strided or
    broadcast views.  `separators` is as in `format_table`."""
    n_rows = len(columns[0])
    if isinstance(separators, str):
        separators = np.frombuffer(separators.encode("ascii"), np.uint8)
    separators = np.broadcast_to(separators, (n_rows, len(columns)))
    for i in range(0, n_rows, _BLOCK_ROWS):
        block = np.stack([column[i:i + _BLOCK_ROWS] for column in columns], axis=1,
                         dtype=float)
        yield _format_block(block, separators[i:i + _BLOCK_ROWS], conversion)


def format_table(table, conversion: str, separators) -> str:
    """Text of a 2-d float table: each value formatted as `conversion`
    ("%.8e" or "%.2f") and followed by its separator.  `separators` is a
    string with one character per column, or an array of ASCII codes
    that broadcasts to the table's shape."""
    columns = np.asarray(table, dtype=float).T
    return b"".join(table_blocks(columns, conversion, separators)).decode("ascii")
