"""Correctly rounded ``%.8e`` and ``%.2f`` text for whole float tables,
and the exact parse of such ``%.8e`` text back into floats.

``table_blocks`` gives, byte for byte, what formatting each value with
CPython's ``"%.8e" % x`` or ``"%.2f" % x`` gives, but works on blocks of
rows in whole-array numpy instead of one value at a time.
``parse_scientific`` reads the ``%.8e`` tables it writes back, bit for
bit as ``numpy.loadtxt`` does, also in whole-array numpy.

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

One buffer per block.  Each block is laid out in a fresh zero-filled
``bytearray`` of the block's slots, viewed by numpy, so each gathered
word goes straight into its slots and the words no gather writes stay
NUL.  Each block is compacted by one ``bytearray.translate`` that deletes
the NULs, and ``table_blocks`` yields that new ``bytearray``, which the
CSV and SVG writers write as it is.

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

Parsing.  ``parse_scientific`` takes only the writer's own form: rows of
cells ``[-]d.dddddddde[+-]dd``, ``nan``, ``inf`` or ``-inf``, separated by
``,`` and ended by ``\\n``.  It cuts the text into blocks of whole rows,
finds every separator of a block in one pass, and checks that each row
has its cells and ends in a line end.  A cell's 14 bytes after its sign,
with the byte before them and the separator, are gathered as two
little-endian words; XOR with the form's own bytes and one add per word
check all of a word's bytes at once (SIMD within a register, SWAR), and
three multiply-shift steps fold the eight decimals into an integer.  The nine digits give an exact integer
``m < 1e9``.  With ``k = exponent - 8`` the value is ``m * 10**k`` or
``m / 10**-k``: for ``|k| <= 22`` both operands are exact doubles, so
the one IEEE operation is correctly rounded (Clinger's fast path), which
is what ``strtod`` and ``numpy.loadtxt`` give.  CPython's ``float()``
parses a cell with ``|k| > 22``, as CPython formats the values that the
writer's fast path leaves.  Any other text (another byte, a cell of
another width such as a three-digit exponent, a comment, a blank line,
a carriage return, an uppercase ``E``) gives None, and the caller parses
the rows another way.
"""

from __future__ import annotations

import numpy as np

# rows formatted per block; bounds the slot buffers and the temporaries
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
                  varying, constants: dict) -> bytearray:
    """ASCII bytes of one block of rows.  `x` holds the block's values of
    the columns `varying` (an index or a slice); `constants` maps every
    other column to the text of its one value, which fills that column's
    slot on every row."""
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
    buffer = bytearray(separators.size * 4 * n_words)
    chars = np.frombuffer(buffer, np.uint8).reshape(separators.shape + (4 * n_words,))
    slots = chars.view("<u4")
    for k, (table, index) in enumerate(words):
        slots[:, varying, k] = table.take(index, mode="clip")
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
    of ASCII codes that broadcasts to the shape (rows, columns).  Each
    block is yielded as its own bytearray."""
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
    for i in range(0, n_rows, _BLOCK_ROWS):
        rows = separators[i:i + _BLOCK_ROWS]
        block = np.empty((len(rows), len(varying)))
        for k, j in enumerate(varying):
            block[:, k] = columns[j][i:i + _BLOCK_ROWS]
        yield _format_block(block, rows, conversion, slots, constants)


# parse_scientific: rows parsed per block, about this many bytes cut at a
# line end; bounds the separator mask, the cell windows and the temporaries
_PARSE_BYTES = 1 << 18

_COMMA, _NEWLINE, _MINUS = ord(","), ord("\n"), ord("-")


def _ascii_word(text: str) -> int:
    """Eight ASCII characters as one little-endian word."""
    return int.from_bytes(text.encode("ascii"), "little")


# A cell 'd.dddddddde[+-]dd' (14 bytes after its sign) is read from the 16
# bytes that end with its separator: its '-' or the previous separator,
# the cell, its separator; as two words.  XOR with the form below leaves
# a '-' sign, '.' and 'e' 0, each digit 0-9 and the exponent sign 0 ('+')
# or 6 ('-'); adding the bound of each byte sets the byte's top bit
# exactly when it exceeds that maximum (0x76 + 9 = 0x7f).  The first
# byte (sign or separator) and the separator go unchecked here.
_LO_FORM, _HI_FORM = _ascii_word("-0.00000"), _ascii_word("000e+00\0")
_LO_BOUND, _HI_BOUND = _ascii_word("\0\x76\x7f\x76\x76\x76\x76\x76"), _ascii_word(
    "\x76\x76\x76\x7f\x79\x76\x76\0")
_TOP_BITS = 0x8080808080808080


def _exponent_scales():
    """The factors of a cell, x = m * numerator / denominator, indexed by
    the XORed exponent sign, tens and units and the cell's sign as
    ``units + 16 tens + 256 sign + 2048 negative``.  With k = exponent - 8
    one factor is 10**|k| and the other 1, both exact for |k| <= 22, so x
    is one correctly rounded operation on exact operands (Clinger's fast
    path).  The numerator is NaN for |k| > 22 and for an exponent sign
    byte of 1-5 (neither '+' nor '-')."""
    numerators = np.full(4096, np.nan)
    denominators = np.ones(4096)
    for sign_byte, sign in ((0, 1), (6, -1)):
        for exponent in range(100):
            k = sign * exponent - 8
            if abs(k) > 22:
                continue
            for negative in (0, 1):
                i = exponent % 10 + 16 * (exponent // 10) + 256 * sign_byte + 2048 * negative
                numerators[i] = (-1.0) ** negative * 10.0 ** max(k, 0)
                denominators[i] = 10.0 ** max(-k, 0)
    return numerators, denominators


_NUMERATORS, _DENOMINATORS = _exponent_scales()

# the three letters of a special cell, after its '-' or previous separator
_NAN_WORD, _INF_WORD = _ascii_word("nan\0\0\0\0\0"), _ascii_word("inf\0\0\0\0\0")


def parse_scientific(text: bytes, ncols: int, start: int):
    """The float64 table, of shape (rows, ncols), of the rows in
    ``text[start:]`` (`start` must follow a line end), or None
    unless they are in the exact form that
    ``table_blocks(..., "%.8e", ...)`` writes: each row `ncols` cells
    separated by ',' and ended by '\\n', each cell '[-]d.dddddddde[+-]dd',
    'nan', 'inf' or '-inf'.  The values are bit-identical to
    ``numpy.loadtxt``: see ``_exponent_scales``; a cell with |k| > 22 is
    parsed by CPython's float()."""
    bounds = [start]
    while bounds[-1] < len(text):
        bounds.append(text.find(b"\n", bounds[-1] + _PARSE_BYTES) + 1 or len(text))
    chars = np.frombuffer(text, np.uint8)
    counts = [np.count_nonzero(chars[a:b] == _NEWLINE) for a, b in zip(bounds, bounds[1:])]
    if not counts or 0 in counts:
        return None
    out = np.empty((sum(counts), ncols))
    row = 0
    for a, b, count in zip(bounds, bounds[1:], counts):
        if not _parse_rows(text, a, b, out[row:row + count]):
            return None
        row += count
    return out


def _parse_rows(text: bytes, a: int, b: int, out: np.ndarray) -> bool:
    """parse_scientific of the rows ``text[a:b]``, which follow a line end,
    into `out`, one row per line end."""
    ncols = out.shape[1]
    out = out.reshape(-1)
    chars = np.frombuffer(text, np.uint8)
    body = chars[a - 1:b]
    # the line end before the rows, then the end of every cell
    ends = np.flatnonzero((body == _COMMA) | (body == _NEWLINE))
    ends += a - 1
    if ends.size != out.size + 1 or ends[-1] != b - 1:
        return False
    width = ends[1:] - ends[:-1]  # a cell and its separator: 15, or 16 with a '-'
    ends = ends[1:]
    # every separator is ',' or '\n', and n_rows of them are line ends
    if not (chars[ends[ncols - 1::ncols]] == _NEWLINE).all():
        return False
    fixed = width >= 15
    if fixed.all():
        return _fixed_cells(text, ends, width, out)
    cells = np.flatnonzero(fixed)
    values = np.empty(cells.size)
    if not _fixed_cells(text, ends[cells], width[cells], values):
        return False
    out[cells] = values
    cells = np.flatnonzero(~fixed)
    return _special_cells(text, ends[cells], width[cells], out, cells)


def _fixed_cells(text: bytes, ends: np.ndarray, width: np.ndarray, out: np.ndarray) -> bool:
    """Parse the 'd.dddddddde[+-]dd' cells that end at `ends` into `out`;
    False if one is not in that form."""
    windows = np.ndarray((max(len(text) - 15, 0),), "V16", text, 0, (1,))
    lo, hi = windows[ends - 15].view("<u8").reshape(-1, 2).T.copy()
    lo ^= _LO_FORM
    hi ^= _HI_FORM
    negative = (lo & 0xFF) == 0
    if not (width - negative == 15).all():
        return False
    bad = lo + _LO_BOUND
    bad |= lo
    high = hi + _HI_BOUND
    high |= hi
    bad |= high
    bad &= _TOP_BITS
    if bad.any():
        return False
    # the eight decimals, first digit in the lowest byte, folded into one
    # integer in three steps of multiply-shift (SWAR), then the lead digit
    m = np.right_shift(lo, 24, out=bad)
    m |= np.left_shift(hi, 40, out=high)
    m *= 10 * 256 + 1
    m >>= 8
    m &= 0x00FF00FF00FF00FF
    m *= 100 * 65536 + 1
    m >>= 16
    m &= 0x0000FFFF0000FFFF
    m *= 10000 * 2**32 + 1
    m >>= 32
    lo >>= 8
    lo &= 0xFF
    lo *= 10**8
    m += lo
    # exponent sign, tens and units (bytes 4-6 of hi) to units + 16 tens +
    # 256 sign: one multiply puts the three at bits 16, 20 and 24
    hi >>= 32
    hi &= 0xFFFFFF
    hi *= 2**24 + 2**12 + 1
    hi >>= 16
    hi &= 0x7FF
    hi |= np.left_shift(negative, 11, dtype=np.uint64)
    out[...] = m
    scale = high.view(np.float64)
    out *= _NUMERATORS.take(hi, out=scale, mode="clip")
    out /= _DENOMINATORS.take(hi, out=scale, mode="clip")
    far = np.isnan(out)
    if far.any():
        for i in np.flatnonzero(far).tolist():
            end = int(ends[i])
            if text[end - 3] not in b"+-":
                return False
            # |k| > 22: CPython's correctly rounded parse of the cell
            out[i] = float(text[end - 14 - int(negative[i]):end])
    return True


def _special_cells(text: bytes, ends: np.ndarray, width: np.ndarray,
                   out: np.ndarray, cells: np.ndarray) -> bool:
    """Write the 'nan', 'inf' and '-inf' cells that end at `ends` to
    `out[cells]`; False if one is something else."""
    words = np.ndarray((max(len(text) - 3, 0),), "<u4", text, 0, (1,))[ends - 4]
    negative = (words & 0xFF) == _MINUS
    words >>= 8
    nan = (words == _NAN_WORD) & (width == 4)
    inf = (words == _INF_WORD) & (width - negative == 4)
    if not (nan | inf).all():
        return False
    out[cells] = np.nan
    out[cells[inf]] = np.where(negative[inf], -np.inf, np.inf)
    return True
