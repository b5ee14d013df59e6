"""The ``repr`` text of float64 arrays, computed a block of values at a time.

:func:`text` gives the rows ``lead[i] + repr(values[i]) + "\\n"`` of a path
CSV, byte for byte, without a Python step per value.  ``repr`` writes the
shortest decimal that reads back as the double and, of the shortest, the one
closest to it, the one with an even last digit on a tie (CPython's ``repr``
is David Gay's dtoa in mode 0).  Schubfach finds that decimal with
fixed-width integers (R. Giulietti, "The Schubfach way to render doubles",
2020; Java's ``Double.toString`` since JDK 19).  For v = c * 2**q, c the
53-bit significand, let k be the decimal exponent with
10**k <= 2**q < 10**(k + 1) (10**k <= 3/4 * 2**q when v is a power of two,
whose interval below is half as wide).  The products of 4c, 4c - 2 (4c - 1
for a power of two) and 4c + 2 with g, a 126-bit integer just above 10**-k
times a power of two, rounded to odd, give v and the two ends of its
rounding interval in units of 10**k / 4.  At most one multiple of
10**(k + 1) lies in the interval; if one does, it is the shortest decimal.
Otherwise the shortest are the multiples of 10**k in it, and the one closest
to v wins.  The decimal found, f * 10**k, keeps its trailing zeros, and f
always has 16 or 17 digits, so one comparison gives the digit count.  The
products are exact ``np.uint64`` arithmetic (:func:`_mulhilo`), the same
integers as Java's reference code.  Every constant is an ``np.uint64``, so
that numpy 1.x's value-based casting never turns a step into float64.

The text follows ``repr``'s layout.  With digits d1..dn and the point at
position dp (v = 0.d1..dn * 10**dp), a value takes the exponent form
``d1.d2..dne-XX`` (at least two exponent digits) iff dp <= -4 or dp > 16,
``0.`` and -dp zeros before the digits when dp <= 0, and otherwise the point
after dp digits, zeros and ``.0`` closing an integral value.  A value takes
four 8-byte words.  Word 0 is the sign, the ``0.000`` prefix and d1, taken
from a table by (dp, sign, d1).  Words 1-3 hold d2..d17, eight to a word
from a table of 4-digit groups whose trailing zeros are NUL, with the point
put in by one shift of the digits after it; a table by dp adds the point,
the zeros an integral value keeps, the exponent and the newline.  Dropped
characters are NUL, and ``bytes.translate`` deletes them.  ``repr`` itself
writes the rows of +-0.0, subnormals, inf, nan and values of at most 2
significant digits: Java's Schubfach has rules of its own for short
decimals, which this kernel leaves out.

A file's lead cells are laid out once (:func:`lead`): the all-NUL words of
each cell are left out, and each block's value words are scattered into the
slots between the cells, so ``translate`` scans the whole text once, 42
bytes a row on a 10,000-step grid on [0, 10].  The tables (617 two-word
powers of ten, the 4-digit groups, 360 kB in all) are built on the first
call, so importing germsim costs nothing.  A block holds ``BLOCK`` values,
which bounds the temporaries to about 1 MB.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

BLOCK = 4096

# Decimal exponents of the table of g: k with 10**k <= 2**q for every
# normal exponent q, and 10**k <= 3/4 * 2**q for the powers of two.
_K_MIN, _K_MAX = -324, 292
# Point positions dp = k + 16 and k + 17, for the two digit counts of f.
_DP_MIN, _DP_MAX = _K_MIN + 16, _K_MAX + 17
# Words a value takes in its row, after the lead cell.
_VALUE_WORDS = 4

_ONE, _TWO, _FOUR, _SEVEN = (np.uint64(i) for i in (1, 2, 4, 7))
_TEN, _FORTY = np.uint64(10), np.uint64(40)
_NOT3 = np.uint64(2**64 - 4)
# Bit i set for the values i of vb & 7 that round s up (see _shortest).
_NEARER_UP = np.uint64(1 << 3 | 1 << 6 | 1 << 7)
_E4, _E8, _E15, _E16 = (np.uint64(10**i) for i in (4, 8, 15, 16))
_EXP_SHIFT = np.uint64(52)
_EXP_MASK = np.uint64(0x7FF)
_FRAC_MASK = np.uint64(2**52 - 1)
_HIDDEN = np.uint64(2**52)
_SIGN_SHIFT = np.uint64(63)
_LOW63 = np.uint64(2**63 - 1)
_WORD_BITS = np.uint64(64)
_POW2_BIT = np.uint64(11)
# A stand-in for the rows repr writes, so that every table index stays in range.
_ONE_BITS = np.array(1.0).view(np.uint64)[()]
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_BYTE, _TOP_BYTE = np.uint64(8), np.uint64(56)
# Head words per point position: 2 signs times 10 first digits.
_HEADS_PER_DP = np.uint64(20)
# 4-digit groups: the offset of the table's second half.
_GROUPS = np.uint64(10_000)


# Giulietti's integer forms of three logarithms, for ints or int64 arrays;
# tests/test_repr.py checks them against exact arithmetic over every binary
# exponent of a double.
def _flog10pow2(e: int) -> int:
    """floor(log10(2**e))."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e: int) -> int:
    """floor(log10(3/4 * 2**e))."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e: int) -> int:
    """floor(log2(10**e))."""
    return (e * 913_124_641_741) >> 38


class _Tables(NamedTuple):
    g: np.ndarray       # rows g & (2**63 - 1), g >> 63; a column per k, _K_MIN.._K_MAX
    k: np.ndarray       # k - _K_MIN by biased exponent | power-of-two flag << 11
    shift: np.ndarray   # c << shift is 4c scaled to g's power of two
    quad: np.ndarray    # "dddd" of each 4-digit group; from 10**4 on, trailing zeros NUL
    head: np.ndarray    # word 0 by (dp, sign, d1)
    split: np.ndarray   # masks of the digits before the point: rows for words 1-2, by dp
    tail: np.ndarray    # point, an integral value's zeros, exponent, newline: words 1-3 by dp


def _layout(dp: int) -> tuple[bytes, int, bytes]:
    """Layout of a value of at least 3 digits with point position ``dp``:
    the prefix between the sign and d1; how many of d2..d17 precede the
    point, 16 when the prefix holds it; and the bytes OR-ed into words 1-3
    once the digits after the point have moved: the point, the zeros that
    an integral value keeps (d2..d(dp+1)), the exponent and the newline."""
    if dp <= -4 or dp > 16:
        return b"", 0, b"." + b"\0" * 16 + b"e%+03d\n" % (dp - 1)
    if dp <= 0:
        return b"0." + b"0" * -dp, 16, b"\0" * 16 + b"\n"
    return b"", dp - 1, b"0" * (dp - 1) + b".0" + b"\0" * (16 - dp) + b"\n"


@functools.cache
def _tables() -> _Tables:
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        # g = floor(10**-k * 2**(125 - r)) + 1 with r = floor(log2(10**-k)),
        # so 2**125 < g <= 2**126.
        shift = 125 - _flog2pow10(-k)
        num = 10**max(-k, 0) << max(shift, 0)
        den = 10**max(k, 0) << max(-shift, 0)
        g.append(num // den + 1)
    index = np.arange(4096)
    q = (index & 0x7FF) - 1075
    pow2 = (index >> 11 == 1) & (q > -1074)
    k_of = np.where(pow2, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    n = np.arange(10_000)
    quad = np.stack([n // unit % 10 + ord("0") for unit in (1000, 100, 10, 1)], axis=1)
    trimmed = np.where(np.cumsum((quad != ord("0"))[:, ::-1], axis=1)[:, ::-1] > 0, quad, 0)
    layouts = [_layout(dp) for dp in range(_DP_MIN, _DP_MAX + 1)]
    heads = b"".join((sign + prefix).rjust(7, b"\0") + b"0"
                     for prefix, _, _ in layouts for sign in (b"", b"-"))
    head = np.repeat(np.frombuffer(heads, dtype=np.uint8).reshape(-1, 2, 1, 8), 10, axis=2)
    head[..., 7] += np.arange(10, dtype=np.uint8)
    before = np.array([point for _, point, _ in layouts])
    split = np.where(np.arange(16) < before[:, None], 0xFF, 0).astype(np.uint8)
    tail = np.frombuffer(b"".join(end.ljust(24, b"\0") for _, _, end in layouts), dtype=np.uint8)
    return _Tables(
        g=np.array([[x & (2**63 - 1) for x in g], [x >> 63 for x in g]], dtype=np.uint64),
        k=(k_of - _K_MIN).astype(np.uint64),
        shift=(q + _flog2pow10(-k_of) + 4).astype(np.uint64),
        quad=np.concatenate([quad, trimmed]).astype(np.uint8).view(np.uint32).astype(np.uint64).ravel(),
        head=head.view(np.uint64).ravel(),
        split=np.ascontiguousarray(split.view(np.uint64).T),
        tail=np.ascontiguousarray(tail.view(np.uint64).reshape(-1, 3).T),
    )


def _mulhilo(a: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the 128-bit products ``a * m``."""
    a_lo, a_hi = a & _LO32, a >> _SHIFT32
    m_lo, m_hi = m & _LO32, m >> _SHIFT32
    cross = a_hi * m_lo + ((a_lo * m_lo) >> _SHIFT32)
    carry = a_lo * m_hi + (cross & _LO32)
    hi = a_hi * m_hi + (cross >> _SHIFT32) + (carry >> _SHIFT32)
    return hi, a * m


def _round_odd(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """floor(g * cp / 2**127), its lowest bit set when bits below remain,
    from the words of g_lo * cp (``hi[0]``) and g_hi * cp (``hi[1]``,
    ``lo[1]``), as Java's ``rop``."""
    z = (lo[1] >> _ONE) + hi[0]
    return (hi[1] + (z >> _SIGN_SHIFT)) | (((z & _LOW63) + _LOW63) >> _SIGN_SHIFT)


def _moved(hi: np.ndarray, lo: np.ndarray, g: np.ndarray, s: np.ndarray, sign: int):
    """The words of the products g * cp + sign * (g << s), for 0 < s < 64."""
    part = g << s
    top = g >> (_WORD_BITS - s)
    if sign > 0:
        new_lo = lo + part
        return hi + top + (new_lo < lo), new_lo
    new_lo = lo - part
    return hi - top - (new_lo > lo), new_lo


def _interval(c: np.ndarray, pow2: np.ndarray, g: np.ndarray, shift: np.ndarray):
    """v = c * 2**q and the ends of its rounding interval, in units of
    10**k / 4 and rounded to odd: (vb, vbl, vbr), the ends moved inward by
    one for an odd c, whose interval excludes them.  ``g`` holds g_lo and
    g_hi in its two rows; ``c << shift`` is 4c scaled to g's power of two."""
    hi, lo = _mulhilo(g, c << shift)
    vb = _round_odd(hi, lo)
    # 4c + 2 and 4c - 2 (4c - 1 below a power of two), scaled like 4c.
    up = shift - _ONE
    odd = c & _ONE
    vbr = _round_odd(*_moved(hi, lo, g, up, +1)) - odd
    vbl = _round_odd(*_moved(hi, lo, g, up - pow2, -1)) + odd
    return vb, vbl, vbr


def _shortest(bits: np.ndarray, t: _Tables) -> tuple[np.ndarray, np.ndarray]:
    """(f, k - _K_MIN) with f * 10**k the shortest decimal of each normal
    double, f of 16 or 17 digits."""
    idx = (bits >> _EXP_SHIFT) & _EXP_MASK
    c = bits & _FRAC_MASK
    pow2 = ((c == 0) & (idx > _ONE)).astype(np.uint64)
    c |= _HIDDEN
    idx |= pow2 << _POW2_BIT
    k = t.k.take(idx)
    vb, vbl, vbr = _interval(c, pow2, t.g.take(k, axis=1), t.shift.take(idx))
    s4 = vb & _NOT3                            # 4s, s = floor(v / 10**k)
    s = s4 >> _TWO
    # s + 1 if only it lies in the interval, or if both or neither do and v
    # is nearer to it: vb & 7 is 3, 6 or 7 (bit 2 is s's last digit's parity).
    us_in = vbl <= s4
    ws_in = s4 + _FOUR <= vbr
    f = s + np.where(us_in != ws_in, ws_in, (_NEARER_UP >> (vb & _SEVEN)) & _ONE)
    # A multiple of 10 wins if it is the only one of its two neighbours inside.
    sp = s // _TEN * _TEN
    sp4 = sp << _TWO
    u_in = vbl <= sp4
    w_in = sp4 + _FORTY <= vbr
    return np.where(u_in != w_in, sp + _TEN * w_in, f), k


def _fill(v: np.ndarray, x: np.ndarray, t: _Tables) -> None:
    """Write the words of ``repr(x[i]) + "\\n"`` into ``v[:, i]`` (4 rows of
    words), NUL where a word has no character."""
    bits = x.view(np.uint64)
    bq = (bits >> _EXP_SHIFT) & _EXP_MASK
    special = (bq == 0) | (bq == _EXP_MASK)    # zeros, subnormals, inf, nan
    f, dp = _shortest(np.where(special, _ONE_BITS, bits), t)
    big = f >= _E16                             # 17 digits, else 16
    dp += big                                   # now dp - _DP_MIN
    f = np.where(big, f, f * _TEN)              # 17 digits d1..d17
    top = f // _E8
    d1 = top // _E8
    eights = np.empty((2, len(x)), dtype=np.uint64)
    np.subtract(top, d1 * _E8, out=eights[0])   # d2..d9
    np.subtract(f, top * _E8, out=eights[1])    # d10..d17
    hi = eights // _E4                          # d2..d5, d10..d13
    lo = eights - hi * _E4                      # d6..d9, d14..d17
    # A 4-digit group followed by zero groups only is looked up in the
    # second half of the table, where its trailing zeros are NUL.
    tail_zero = eights[1] == 0
    zero = lo == 0
    zero[0] &= tail_zero
    hi += zero * _GROUPS
    lo[0] += tail_zero * _GROUPS
    lo[1] += _GROUPS
    digits = t.quad.take(hi)
    digits |= t.quad.take(lo) << _SHIFT32       # d2..d9, d10..d17
    # The digits after the point move one byte up to make room for it.
    before = digits & t.split.take(dp, axis=1)
    after = digits ^ before
    np.bitwise_or(before, after << _BYTE, out=v[1:3])
    v[2] |= after[0] >> _TOP_BYTE
    np.right_shift(after[1], _TOP_BYTE, out=v[3])
    v[1:] |= t.tail.take(dp, axis=1)
    sign = bits >> _SIGN_SHIFT
    t.head.take(dp * _HEADS_PER_DP + sign * _TEN + d1, out=v[0])
    for i in np.flatnonzero(special | (f % _E15 == 0)).tolist():   # at most 2 digits
        cell = (repr(float(x[i])) + "\n").encode()
        v[:, i] = np.frombuffer(cell.ljust(8 * _VALUE_WORDS, b"\0"), dtype=np.uint64)


class Lead(NamedTuple):
    """The words of a text with the values of its rows left out: the lead
    cells without their all-NUL words, and ``_VALUE_WORDS`` NUL words for
    each value, row i's from ``words[at[i]]`` on."""
    words: np.ndarray
    at: np.ndarray


def lead(cells: np.ndarray) -> Lead:
    """The :class:`Lead` of rows that open with ``cells``, a bytes array
    (``S`` dtype, an itemsize that is a multiple of 8) of NUL-padded ASCII
    cells, one per row."""
    width = cells.dtype.itemsize // 8
    cell_words = cells.view(np.uint64).reshape(len(cells), width)
    keep = np.ones((len(cells), width + _VALUE_WORDS), dtype=bool)
    keep[:, :width] = cell_words != 0
    place = np.cumsum(keep.ravel()).reshape(keep.shape) - 1
    words = np.zeros(place[-1, -1] + 1, dtype=np.uint64)
    words[place[:, :width][keep[:, :width]]] = cell_words[keep[:, :width]]
    at = place[:, width].copy()
    words.flags.writeable = at.flags.writeable = False   # a layout is cached and shared
    return Lead(words, at)


def text(lead: Lead, values: np.ndarray) -> bytes:
    """The rows ``cells[i] + repr(values[i]) + "\\n"`` of ``lead`` as ASCII
    bytes, for a float64 array ``values`` with one value per row."""
    t = _tables()
    raw = bytearray(lead.words)
    words = np.frombuffer(raw, dtype=np.uint64)
    v = np.empty((_VALUE_WORDS, min(BLOCK, len(values))), dtype=np.uint64)
    for start in range(0, len(values), BLOCK):
        block = values[start:start + BLOCK]
        at = lead.at[start:start + BLOCK]
        _fill(v[:, :len(block)], block, t)
        for j in range(_VALUE_WORDS):
            words[j:][at] = v[j, :len(block)]
    return raw.translate(None, b"\0")
