"""Python ``repr`` text of float64 values, for a whole block at once.

:func:`rows_text` appends exactly ``",".join(map(repr, row)) + "\\n"`` for
each row of a 2-D float64 array, as ASCII bytes, to a ``bytearray``,
without calling ``repr`` per value and without a ``str`` of the text.

``repr`` prints the shortest decimal digits that read back to the same
double, the nearest such string when several have that length.  Here each
finite normal |x| = 10^k * y / 10^16 is scaled to y in [10^16, 10^17) by a
double-double power of ten with Dekker's exact product, so y is known as an
integer N plus a fraction f to about 1e-14.  The shortest digits are the
largest level j whose nearest multiple of 10^j lies inside x's rounding
interval, y +/- h with h the scaled half ulp (the idea behind Ryu; Adams,
PLDI 2018, which does the same in exact integer arithmetic).  Level 0 always
fits, because h >= 0.55; fitting is monotone in j.

Every decision is a comparison of two scaled quantities.  A lane whose
comparison lands within :data:`_MARGIN` of equality (a tie in rounding, a
candidate on the interval's edge), and every value outside the fast path
(non-finite, subnormal, a power of two, whose interval is not symmetric, or
a decimal exponent outside the table) goes to ``repr`` itself.  Zeros take
the fast path.

The text is assembled in a fixed-width field of four uint64 words per
value, unused bytes left 0, and one ``bytes.translate`` drops the padding.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["rows_text", "CELLS"]

#: values formatted per step; the temporaries of a step take about 150 bytes
#: per value
CELLS = 1 << 14

#: a comparison closer than this to equality, in units of the scaled value y
#: (so about 1e-9 of y's last digit), is decided by ``repr``; the scaled
#: values are accurate to about 1e-14
_MARGIN = 2.0**-30

#: decimal exponents k, x in [10^k, 10^(k+1)), that take the fast path; the
#: table covers one more on each side for the estimate's correction.  Above
#: 1e299, Veltkamp's split of x would overflow; below 1e-292, 10^(16 - k)
#: would.
_K_MIN, _K_MAX = -291, 298

#: one value's field is four little-endian uint64 words.  Word 0 holds the
#: sign, the "0.000" head, the first digit and the dot after it; words 1 and
#: 2 the other 16 digits (with the dot among them for 10 <= |x| < 1e16);
#: word 3 the digit pushed out by that dot, the "e+308" tail and the
#: separator.
_WORDS = 4

_FRAC_MASK = np.uint64((1 << 52) - 1)
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's constant for binary64
_POW10 = 10 ** np.arange(18, dtype=np.int64)


@functools.cache
def _tables():
    """Powers of ten and text words, built on first use.

    ``p_hi[i] + p_lo[i]`` is 10^(16 - k) for k = i + _K_MIN - 1 to about
    2^-106 relative, and ``p_hh + p_hl`` is Veltkamp's split of ``p_hi``,
    computed on a scaled copy so the split cannot overflow.
    """
    p_hi, p_lo = [], []
    for k in range(_K_MIN - 1, _K_MAX + 2):
        e = 16 - k
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        hi = num / den  # int true division is correctly rounded
        hi_num, hi_den = hi.as_integer_ratio()
        p_hi.append(hi)
        p_lo.append((num * hi_den - hi_num * den) / (den * hi_den))
    p_hi = np.array(p_hi)
    mant, expo = np.frexp(p_hi)
    t = _SPLIT * mant
    hh = t - (t - mant)
    powers = (p_hi, np.ldexp(hh, expo), np.ldexp(mant - hh, expo), np.array(p_lo))

    def words(texts):
        return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), dtype=np.uint64)

    # "0000".."9999" in the low four bytes
    quads = words(f"{i:04d}".encode() for i in range(10_000))
    # word 0 after the sign: nothing, then "0." and 1-3 more zeros
    heads = words(b"\0" + b"0.000"[:n] for n in (0, 2, 3, 4, 5))
    # word 3 for exponents -324..308 after the pushed-out digit; the last
    # entry is for fixed notation
    tails = words([b"\0" + f"e{e:+03d}".encode() for e in range(-324, 309)] + [b""])
    # for words 1-3 as one 24-byte string, row j column n: the bytes below n
    # that lie in word j, and a dot at byte n if it lies there
    low = np.array([
        words(b"\xff" * min(max(n - 8 * j, 0), 8) for n in range(25)) for j in range(3)
    ])
    dots = np.array([
        words(b"\0" * (n - 8 * j) + b"." if 0 <= n - 8 * j < 8 else b"" for n in range(25))
        for j in range(3)
    ])
    return powers, quads, heads, tails, low, dots


def rows_text(block: np.ndarray, out: bytearray) -> bytearray:
    """``",".join(map(repr, row)) + "\\n"`` for each row, concatenated, as
    ASCII bytes appended to ``out``; returns ``out``.

    ``block`` is a 2-D float64 array; it is formatted :data:`CELLS` values
    at a time.
    """
    cols = block.shape[1]
    flat = np.ascontiguousarray(block, dtype=np.float64).ravel()
    for start in range(0, flat.size, CELLS):
        fields = _fields(flat[start : start + CELLS])
        fields[:, 3] |= np.uint64(ord(",")) << np.uint64(48)
        # the first value of this slice that ends a row, then every cols-th
        last = (cols - 1 - start) % cols
        fields[last::cols, 3] ^= np.uint64(ord(",") ^ ord("\n")) << np.uint64(48)
        out += fields.tobytes().translate(None, b"\0")
    return out


def _fields(x: np.ndarray) -> np.ndarray:
    """One field of _WORDS words per value: its repr, 0-padded, without the
    separator."""
    digits, ndig, decpt, slow = _shortest(x)
    _, quads, heads, tails, low, dots = _tables()
    exp = (decpt <= -4) | (decpt > 16)
    fixed_small = (decpt <= 0) & ~exp
    # the digits: the first, a dot after it in exponent notation and for
    # 1 <= |x| < 10, the rest up to `end`; fixed notation has a digit after
    # the dot, a 0 when decpt >= ndig ("12.0"), and for |x| >= 10 the dot
    # goes into words 1-2 in front of digit `decpt`
    end = np.where(exp | fixed_small, ndig, np.maximum(ndig, decpt + 1))
    first_dot = np.where(exp, ndig > 1, decpt == 1)
    inside = np.flatnonzero(~exp & (decpt > 1))
    lead, words = _digit_words(digits, quads)
    words.append(np.zeros(x.size, dtype=np.uint64))
    split, carried = decpt[inside] - 1, np.uint64(0)
    for j, word in enumerate(words):
        # bytes from `split` on move up one, and the dot goes in between
        keep = low[j][split]
        moved = word[inside] & ~keep
        word[inside] = (word[inside] & keep) | (moved << np.uint64(8)) | carried | dots[j][split]
        carried = moved >> np.uint64(56)
    used = end - 1
    used[inside] += 1

    out = np.empty((x.size, _WORDS), dtype=np.uint64)
    out[:, 0] = heads[np.where(fixed_small, 1 - decpt, 0)]
    out[:, 0] |= (x.view(np.uint64) >> np.uint64(63)) * np.uint64(ord("-"))
    out[:, 0] |= (lead + np.uint64(ord("0"))) << np.uint64(48)
    out[:, 0] |= first_dot * np.uint64(ord(".") << 56)
    for j, word in enumerate(words):
        out[:, j + 1] = word & low[j][used]
    out[:, 3] |= tails[np.where(exp, decpt + 323, -1)]

    # repr text is at most 24 bytes; the separator goes in byte 30
    slow = np.flatnonzero(slow)
    if slow.size:
        text = b"".join(repr(v).encode().ljust(30, b"\0") for v in x[slow].tolist())
        out.view(np.uint8)[slow, :30] = np.frombuffer(text, dtype=np.uint8).reshape(-1, 30)
    return out


def _shortest(x: np.ndarray):
    """The shortest round-trip digits of each |x|: a 17-digit integer whose
    first ``ndig`` digits they are, and ``decpt`` with |x| = 0.d1d2... *
    10^decpt; and a mask of the values left to ``repr``."""
    (p_hi, p_hh, p_hl, p_lo), *_ = _tables()
    bits = x.view(np.uint64)
    biased = (bits >> np.uint64(52)).astype(np.int64) & 0x7FF
    zero = (bits << np.uint64(1)) == 0
    # finite and normal, and not a power of two (a zero fraction)
    fast = (biased > 0) & (biased < 2047) & ((bits & _FRAC_MASK) != 0)
    # the other lanes compute on 1.5, whose digits are not used
    a = np.abs(x)
    a[~fast] = 1.5
    k = np.floor(np.log10(a)).astype(np.int64)
    fast &= (k >= _K_MIN) & (k <= _K_MAX)
    a[~fast], k[~fast], biased[~fast] = 1.5, 0, 1023

    n, f = _scaled(a, k, p_hh, p_hl, p_lo)
    # log10 may land one off next to a power of ten: move y into [1e16, 1e17)
    off = np.flatnonzero((n < _POW10[16]) | (n >= _POW10[17]))
    if off.size:
        k[off] += np.where(n[off] < _POW10[16], -1, 1)
        n[off], f[off] = _scaled(a[off], k[off], p_hh, p_hl, p_lo)
    # the scaled half ulp: 2^(biased - 1076) * 10^(16 - k)
    h = np.ldexp(p_hi[k - (_K_MIN - 1)], biased - 1076)

    # levels 1 and 2 on every lane; few lanes fit level 2, and they go on
    gap1, gap2 = (_gap(n, f, h, _POW10[j]) for j in (1, 2))
    undecided = (np.abs(gap1) <= _MARGIN) | (np.abs(gap2) <= _MARGIN)
    level = (gap1 < 0.0).astype(np.int64) + (gap2 < 0.0)
    # the rest by bisection, as fitting is monotone: `lo` fits, `hi` does not
    more = np.flatnonzero(fast & (gap2 < 0.0))
    n_m, f_m, h_m = n[more], f[more], h[more]
    lo, hi = np.full(more.size, 2), np.full(more.size, 17)
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        gap = _gap(n_m, f_m, h_m, _POW10[mid])
        undecided[more[np.abs(gap) <= _MARGIN]] = True
        lo, hi = np.where(gap < 0.0, mid, lo), np.where(gap < 0.0, hi, mid)
    level[more] = lo

    s = _POW10[level]
    q = n // s
    r = n - q * s
    half = (2 * r - s) + 2.0 * f  # > 0: round up
    undecided |= np.abs(half) <= _MARGIN
    digits = (q + (half > 0.0)) * s
    carry = digits == _POW10[17]  # 9.99..e(k) rounded up to 1e(k+1)
    digits[carry] = _POW10[16]
    ndig = 17 - level
    decpt = k + 1 + carry
    digits[zero], ndig[zero], decpt[zero] = 0, 1, 1
    return digits, ndig, decpt, ~zero & (undecided | ~fast)


def _scaled(a, k, p_hh, p_hl, p_lo):
    """a * 10^(16 - k) as an int64 integer part and a fraction in [0, 1)."""
    i = k - (_K_MIN - 1)
    bh, bl = p_hh[i], p_hl[i]
    p = a * (bh + bl)
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    # Dekker's product: p + err is a * p_hi exactly
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    lo = err + a * p_lo[i]
    whole = np.floor(lo)
    return p.astype(np.int64) + whole.astype(np.int64), lo - whole


def _gap(n, f, h, s):
    """Distance from y = n + f to its nearest multiple of s, less h."""
    r = n - n // s * s
    return np.minimum(r + f, (s - r) - f) - h


def _digit_words(digits, quads):
    """The leading digit of each value below 10^17, and its other 16 digits,
    zero-padded, as two words of ASCII."""
    # floor division by a constant is much faster than divmod or %
    lead = digits // 10**16
    rest = digits - lead * 10**16
    top = rest // 10**8
    words = []
    for eight in (top.astype(np.uint32), (rest - top * 10**8).astype(np.uint32)):
        hi = eight // np.uint32(10**4)
        words.append(quads[hi] | (quads[eight - hi * np.uint32(10**4)] << np.uint64(32)))
    return lead.astype(np.uint64), words
