"""The ``repr`` text of float64 arrays, computed a block of values at a time.

:func:`rows` gives the rows ``lead[i] + repr(values[i]) + "\\n"`` of a path
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
to v wins.  The products are exact ``np.uint64`` arithmetic
(:func:`_mulhilo`), the same integers as Java's reference code.
Every constant is an ``np.uint64``, so that numpy 1.x's value-based casting
never turns a step into float64.

The text follows ``repr``'s layout.  With digits d1..dn and the point at
position dp (v = 0.d1..dn * 10**dp), a value takes the exponent form
``d1.d2..dne-XX`` (at least two exponent digits) iff dp <= -4 or dp > 16,
``0.`` and -dp zeros before the digits when dp <= 0, and otherwise the point
after dp digits, zeros and ``.0`` closing an integral value.  After its lead
cell a row takes six 8-byte words: the sign, the ``0.000`` prefix, d1 and a
point; four words of d2..d17, each digit followed by a point slot; the
exponent and the newline.  Which characters a word keeps depends only on
the sign, the digit count, d1 and dp, so each word is one gather from a
table.  Dropped characters are NUL, and ``bytes.translate`` deletes them.
``repr`` itself writes the rows of +-0.0, subnormals, inf, nan and values
of at most 2 significant digits: Java's Schubfach has rules of its own for
short decimals, which this kernel leaves out.

The tables (617 two-word powers of ten, a 4-digit table, 190 kB in all) are
built on the first call, so importing germsim costs nothing.  A block holds
``BLOCK`` values, which bounds the temporaries to about 1 MB.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

BLOCK = 4096

# Decimal exponents of the table of g: k with 10**k <= 2**q for every
# normal exponent q, and 10**k <= 3/4 * 2**q for the powers of two.
_K_MIN, _K_MAX = -324, 292
# Digits written per value: every double is exact to 17 significant digits.
_DIGITS = 17
# Words a value takes in its row, after the lead cell.
_VALUE_WORDS = 6

_ONE, _TWO = np.uint64(1), np.uint64(2)
_TEN = np.uint64(10)
_E4, _E8 = np.uint64(10**4), np.uint64(10**8)
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
    k: np.ndarray       # decimal exponent by biased exponent | power-of-two flag << 11
    shift: np.ndarray   # c << shift is 4c scaled to g's power of two
    pow10: np.ndarray   # 10**0 .. 10**17
    quad: np.ndarray    # "d.d.d.d." of each 4-digit group, one word
    quad_tz: np.ndarray  # trailing zeros of each 4-digit group, 4 for 0000
    head: np.ndarray    # word 0 by (shape, sign, first digit)
    keep: np.ndarray    # masks of words 1-4 by shape
    tail: np.ndarray    # word 5 by dp + 323


def _shape(dp: int, nsig: int) -> tuple[bytes, bool, int, int]:
    """Layout of a value with ``nsig`` digits and point position ``dp``:
    the prefix before d1, whether a point follows d1, how many digits are
    written, and the digit (2..16) a point follows, 0 for none."""
    if dp <= -4 or dp > 16:
        return b"", nsig > 1, nsig, 0
    if dp <= 0:
        return b"0." + b"0" * -dp, False, nsig, 0
    return b"", dp == 1, max(nsig, dp + 1), dp if dp >= 2 else 0


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
    shapes = [_shape(dpc - 4, nsig) for dpc in range(22) for nsig in range(_DIGITS + 1)]
    head = np.zeros((len(shapes), 2, 10, 8), dtype=np.uint8)
    for word, (prefix, point, _, _) in zip(head, shapes):
        word[..., 1:1 + len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
        word[..., 7] = ord(".") if point else 0
    head[:, 1, :, 0] = ord("-")
    head[..., 6] = np.arange(ord("0"), ord("9") + 1)
    digit = np.arange(2, _DIGITS + 1)
    written, after = (np.array([s[i] for s in shapes])[:, None] for i in (2, 3))
    keep = np.stack((digit <= written, digit == after), axis=2).astype(np.uint8) * 0xFF
    n = np.arange(10_000, dtype=np.int16)
    quad = np.full((n.size, 8), ord("."), dtype=np.uint8)
    for i, unit in enumerate((1000, 100, 10, 1)):
        quad[:, 2 * i] = n // unit % 10 + ord("0")
    tail = [b"e%+03d\n" % (dp - 1) if dp <= -4 or dp > 16 else b"\n" for dp in range(-323, 310)]
    return _Tables(
        g=np.array([[x & (2**63 - 1) for x in g], [x >> 63 for x in g]], dtype=np.uint64),
        k=k_of.astype(np.int16),
        shift=(q + _flog2pow10(-k_of) + 4).astype(np.uint8),
        pow10=np.array([10**i for i in range(_DIGITS + 1)], dtype=np.uint64),
        quad=quad.view(np.uint64).ravel(),
        quad_tz=sum((n % 10**i == 0).view(np.int8) for i in range(1, 5)),
        head=head.view(np.uint64).ravel(),
        keep=keep.reshape(len(shapes), 32).view(np.uint64),
        tail=np.frombuffer(b"".join(w.ljust(8, b"\0") for w in tail), dtype=np.uint64),
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
    """(f, k) with f * 10**k the shortest decimal of each normal double."""
    idx = (bits >> _EXP_SHIFT) & _EXP_MASK
    c = bits & _FRAC_MASK
    pow2 = ((c == 0) & (idx > _ONE)).astype(np.uint64)
    c |= _HIDDEN
    idx |= pow2 << _POW2_BIT
    k = t.k.take(idx)
    vb, vbl, vbr = _interval(c, pow2, t.g.take(k - _K_MIN, axis=1), t.shift.take(idx))
    s = vb >> _TWO
    sp = (s // _TEN) * _TEN
    tp = sp + _TEN
    u_in = vbl <= sp << _TWO
    w_in = (tp << _TWO) <= vbr
    s1 = s + _ONE
    us_in = vbl <= s << _TWO
    ws_in = (s1 << _TWO) <= vbr
    mid = (s << _TWO) + _TWO
    above = (vb > mid) | ((vb == mid) & (s & _ONE).astype(bool))
    f = np.where(us_in != ws_in, np.where(us_in, s, s1), np.where(above, s1, s))
    return np.where(u_in != w_in, np.where(u_in, sp, tp), f), k


def _fill(out: np.ndarray, x: np.ndarray, t: _Tables) -> None:
    """Write ``repr(x[i]) + "\\n"`` into row i of ``out`` (6 words a row),
    NUL where a row has no character."""
    bits = x.view(np.uint64)
    bq = (bits >> _EXP_SHIFT) & _EXP_MASK
    special = (bq == 0) | (bq == _EXP_MASK)    # zeros, subnormals, inf, nan
    f, k = _shortest(np.where(special, _ONE_BITS, bits), t)
    nd = np.searchsorted(t.pow10, f, side="right")
    f = f * t.pow10.take(_DIGITS - nd)          # 17 digits d1..d17
    dp = k + nd
    top = f // _E8
    d1 = top // _E8
    eights = np.empty((len(x), 2), dtype=np.uint64)
    eights[:, 0] = top - d1 * _E8               # d2..d9
    eights[:, 1] = f - top * _E8                # d10..d17
    quads = np.empty((len(x), 4), dtype=np.uint64)
    quads[:, 0::2] = eights // _E4
    quads[:, 1::2] = eights - quads[:, 0::2] * _E4
    tz = t.quad_tz.take(quads)
    q2, q3, q4 = quads[:, 1], quads[:, 2], quads[:, 3]
    tz = tz[:, 3] + (q4 == 0) * (tz[:, 2] + (q3 == 0) * (tz[:, 1] + (q2 == 0) * tz[:, 0]))
    nsig = _DIGITS - tz
    shape = (np.clip(dp, -4, 17) + 4) * (_DIGITS + 1) + nsig
    sign = (bits >> _SIGN_SHIFT).astype(np.intp)
    out[:, 0] = t.head.take(shape * 20 + sign * 10 + d1.astype(np.intp))
    out[:, 1:5] = t.quad.take(quads)
    out[:, 1:5] &= t.keep.take(shape, axis=0)
    out[:, 5] = t.tail.take(dp + 323)
    for i in np.flatnonzero(special | (nsig <= 2)).tolist():
        cell = (repr(float(x[i])) + "\n").encode()
        out[i] = np.frombuffer(cell.ljust(8 * _VALUE_WORDS, b"\0"), dtype=np.uint64)


def rows(lead: np.ndarray, values: np.ndarray):
    """Yield the text of the rows ``lead[i] + repr(values[i]) + "\\n"``, one
    string per block of ``BLOCK`` values.

    ``values`` is a float64 array; ``lead`` is a bytes array (``S`` dtype,
    an itemsize that is a multiple of 8) of NUL-padded ASCII cells, one per
    value.
    """
    t = _tables()
    width = lead.dtype.itemsize // 8
    lead = lead.view(np.uint64).reshape(len(lead), width)
    raw = bytearray(8 * (width + _VALUE_WORDS) * min(BLOCK, len(values)))
    row = np.frombuffer(raw, dtype=np.uint64).reshape(-1, width + _VALUE_WORDS)
    for start in range(0, len(values), BLOCK):
        n = min(BLOCK, len(values) - start)
        row[:n, :width] = lead[start:start + n]
        _fill(row[:n, width:], values[start:start + n], t)
        row[n:] = 0   # the rows a short last block leaves over write nothing
        yield raw.translate(None, b"\0").decode("ascii")
