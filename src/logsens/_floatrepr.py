"""``repr`` of float64 arrays, vectorized: the trace CSV's number spelling.

``fields(x)`` gives, for each double of ``x``, the bytes of
``repr(float(v))`` in a ``WIDTH``-byte field: its sign byte (``-`` or NUL)
first, NUL bytes after the last character.  Dropping every NUL gives the
``repr`` text, and dropping the field's first byte as well gives the
``repr`` of ``abs(v)``.

Digits.  Python's ``repr`` is the shortest decimal that reads back as the
same double, and of those the nearest, ties to even.  Ryu (Adams, "Ryu:
fast float-to-string conversion", PLDI 2018) finds it with integer
arithmetic only, so it runs on ``uint64`` arrays here.  Only its branch
for ``e2 < 0`` and ``q > 1`` is kept: it covers every ``0 < |x| < 2^50``.
The 125-bit ``5^i`` of Ryu's table are 28-bit limbs, so every limb
product and column sum fits a ``uint64``.  ``repr`` itself spells the rest,
one value at a time: ``|x| >= 2^50``, ``inf`` and ``nan``.  Zero is ``1.0``
spelled with a zero digit.

Spelling.  The digits, the exponent and the signs are written into a
32-byte source row per value.  A layout row per (digit count, decimal-point
position) lists the source byte of each field byte, in ``repr``'s fixed
form for decimal points from 10^-4 to 10^16 and its exponent form
elsewhere; gathering the source bytes by it lays the fields out.

All wrapping ``uint64`` arithmetic runs on arrays, never on numpy scalars,
which warn on overflow; no ``uint64`` meets an ``int64``, which would
promote both to float64.
"""

from __future__ import annotations

import numpy as np

__all__ = ["WIDTH", "fields"]

WIDTH = 24  # bytes of the longest repr of a double, "-1.2345678901234567e-308"

_LIMIT = 1073  # biased exponent of 2^50: Ryu below it, repr from it
_M28 = (1 << 28) - 1
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_SIGN = np.uint64(1 << 63)
_ONE = np.uint64(1023 << 52)  # the bits of 1.0


def _ryu_tables():
    """Per biased exponent E below ``_LIMIT``, Ryu's constants for the
    mantissa ``mv = 4 m2``, whose value is ``mv * 2^e2``: the 28-bit limbs
    of the 125-bit ``5^i``, the shift ``j`` less 112, the decimal exponent
    ``e10`` of ``vr``, the mask that tests ``2^q | mv``, the hidden bit, and
    the ``m2`` of a power of two whose lower neighbour is a half gap away."""
    E = np.arange(_LIMIT)
    e2 = np.maximum(E, 1) - 1077
    q = ((-e2 * 732923) >> 20) - 1  # Ryu's log10Pow5(-e2) - 1
    i = -e2 - q
    top, bits, p = [], [], 1
    for _ in range(int(i.max()) + 1):
        b = p.bit_length()
        top.append((p >> (b - 125) if b > 125 else p << (125 - b)).to_bytes(16, "little"))
        bits.append(b)
        p *= 5
    lo, hi = np.frombuffer(b"".join(top), dtype="<u8").reshape(-1, 2).T
    limbs = np.stack([lo, lo >> 28, lo >> 56 | hi << 8, hi >> 20, hi >> 48]) & _M28
    bits = np.array(bits)
    exact = np.where(q < 55, (1 << np.minimum(q, 62)) - 1, -1).astype(np.uint64)
    big = np.uint64(1 << 52)
    # j = q - k with k = bits(5^i) - 125, so j - 112 = q - bits(5^i) + 13
    return (limbs[:, i], (q - bits[i] + 13).astype(np.uint64), e2 + q, exact,
            np.where(E > 0, big, 0).astype(np.uint64), np.where(E > 1, big, 0).astype(np.uint64))


_LIMBS, _SHIFT, _E10, _EXACT, _HIDDEN, _POW2 = _ryu_tables()


def _shortest(ab):
    """Ryu's digits (a ``uint64``) and their decimal exponent for the
    doubles whose bits are ``ab``, each in ``0 < x < 2^50``."""
    E = ab >> 52
    m2 = ab & np.uint64((1 << 52) - 1) | _HIDDEN.take(E)
    m = np.empty((3, len(ab)), dtype=np.uint64)  # Ryu's mv, mp, mm
    mv = np.left_shift(m2, 2, out=m[0])
    np.add(mv, 2, out=m[1])
    np.subtract(mv, 2, out=m[2])
    m[2] += m2 == _POW2.take(E)
    # m 5^i >> j in 28-bit limbs: column sums stay below 2^58, and
    # 112 < j < 140 for every E, so the top two columns hold the result
    m0, m1 = m & _M28, m >> 28
    a = _LIMBS.take(E, axis=1)
    c = m0 * a[0]
    for k in range(1, 5):
        c >>= 28
        c += m0 * a[k]
        c += m1 * a[k - 1]
    top = m1 * a[4]
    top += c >> 28
    c &= _M28
    s = _SHIFT.take(E)
    c >>= s
    top <<= 28 - s
    c |= top  # vr, vp, vm
    # remove the most digits r with vp // 10^r > vm // 10^r, bit by bit;
    # vp - vm >= 29, so r >= 1
    vr = c[0].copy()
    r = np.zeros(len(ab), dtype=np.intp)
    for k in (16, 8, 4, 2, 1):
        cut = c // 10 ** k
        more = cut[1] > cut[2]
        np.copyto(c, cut, where=more)
        np.add(r, k, out=r, where=more)
    out = c[0]
    ten = _POW10.take(r)
    removed = vr - out * ten
    half = ten >> 1
    # round half up, but half to even where vr is exact (2^q divides mv)
    up = removed > half
    up |= (removed == half) & (((mv & _EXACT.take(E)) != 0) | ((out & 1) != 0))
    up |= out == c[2]
    out += up
    return out, _E10.take(E) + r


# A source row: 0-19 the digits, right-aligned; 20 ".", 21 "0", 22 "e",
# 23 the sign; 24 "-", 25-27 the exponent's three digits; 28-31 NUL.  Below
# 2^50 repr's exponent form has a negative exponent: e-05 to e-324.
_DOT, _ZERO, _E, _SGN, _NUL = 20, 21, 22, 23, 28
_DIG4 = np.ascontiguousarray(np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4,
                                                  indexing="ij"), axis=-1)).view("<u4").ravel()
_MARKS = np.array([int.from_bytes(b".0e" + s, "little") for s in (b"\0", b"-")], dtype=np.uint32)
_DECPT = np.arange(-323, 17)  # the decimal-point positions of 0 < |x| < 2^50
_EXP = (ord("-") + ((1 - _DECPT) // 100 + 48 << 8) + ((1 - _DECPT) // 10 % 10 + 48 << 16)
        + ((1 - _DECPT) % 10 + 48 << 24)).astype(np.uint64)


def _layouts():
    """The source byte of each field byte: one row per digit count 1-17
    and form (decimal point after digit -3..16 in fixed form, then exponent
    form with a two- and a three-digit exponent), then ``repr``'s own text."""
    rows = []
    for nd in range(1, 18):
        dig = list(range(20 - nd, 20))
        for p in range(-3, 17):
            if p <= 0:
                rows.append([_ZERO, _DOT] + [_ZERO] * -p + dig)
            elif p < nd:
                rows.append(dig[:p] + [_DOT] + dig[p:])
            else:
                rows.append(dig + [_ZERO] * (p - nd) + [_DOT, _ZERO])
        for exp in ([26, 27], [25, 26, 27]):
            rows.append(dig[:1] + ([_DOT] + dig[1:] if nd > 1 else []) + [_E, 24] + exp)
    rows = [[_SGN] + row for row in rows] + [[_SGN, *range(_SGN)]]
    return np.frombuffer(b"".join(bytes(row + [_NUL] * (WIDTH - len(row))) for row in rows),
                         dtype=np.uint8).reshape(-1, WIDTH).astype(np.intp)


_LAYOUT = _layouts()
_REPR = len(_LAYOUT) - 1
# the layout row of (digit count, decimal point); digit count 0 is 1
_KEY = (np.maximum(np.arange(18)[:, None] - 1, 0) * 22
        + np.where(_DECPT < -3, 20 + (_DECPT <= -99), _DECPT + 3)).ravel()


def fields(x):
    """``(len(x), WIDTH)`` uint8: each double of the 1-d float64 array
    ``x`` spelled as ``repr`` spells it, its sign byte first, NUL-padded."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = len(x)
    bits = x.view(np.uint64)
    ab = bits & ~_SIGN
    ryu = ab - 1 < np.uint64((_LIMIT << 52) - 1)  # 0 < |x| < 2^50
    digits, e10 = _shortest(np.where(ryu, ab, _ONE))
    nd = np.searchsorted(_POW10, digits, side="right")
    decpt = e10 + nd
    key = _KEY.take(nd * len(_DECPT) + decpt - _DECPT[0])
    digits *= ryu  # a zero is 1.0's layout with a 0 digit
    src = np.empty((n, 32), dtype=np.uint8)
    words = src.view(np.uint32)
    groups = np.empty((5, n), dtype=np.uint32)  # 4 digits each, lowest last
    for k in range(4, 0, -1):
        rest = digits // 10000
        groups[k] = digits - rest * 10000
        digits = rest
    groups[0] = digits
    words[:, :5] = _DIG4.take(groups).T
    words[:, 5] = _MARKS.take(bits >> 63)
    src.view(np.uint64)[:, 3] = _EXP.take(decpt - _DECPT[0])
    odd = np.flatnonzero(~ryu & (ab != 0))  # inf, nan, |x| >= 2^50
    src[odd] = np.frombuffer(b"".join(  # repr's text less its sign, then the sign
        (text.lstrip("-").ljust(_SGN, "\0") + "-" * (text[0] == "-")).encode().ljust(32, b"\0")
        for text in map(repr, x[odd].tolist())), dtype=np.uint8).reshape(-1, 32)
    key[odd] = _REPR
    out = np.empty((n, WIDTH), dtype=np.uint8)
    flat = src.reshape(-1)
    for lo in range(0, n, 256):  # 48 KiB index arrays; whole-block ones page-faulted
        idx = _LAYOUT.take(key[lo:lo + 256], axis=0)
        idx += 32 * np.arange(lo, lo + len(idx))[:, None]
        flat.take(idx, out=out[lo:lo + 256])
    return out
