"""Kernels that match a reference bit for bit: grid kernels for 1-D
float64 samples (a second-order derivative on a uniform grid and trapezoid
quadrature, running and total) and the text of "%.17g".

Each grid kernel performs the floating-point operations of its numpy or
scipy counterpart in the same order, so its result is bit for bit the same:

- ``gradient(f, dx)``: numpy's ``gradient(f, dx, edge_order=2)``;
- ``cumtrapz(y, x)``: scipy's ``cumulative_trapezoid(y, x, initial=0)``;
- ``trapz(y, dx)``: numpy's ``trapezoid(y, dx=dx)``;
- ``trapz_inplace(y, x)``: numpy's ``trapezoid(y, x)``.

``g17_words(x, out, work)`` writes the text of ``"%.17g" % v`` for each
value, byte for byte (see its section below): ~0.15 us a value in blocks
of 4096, where the ``%`` operator takes ~1 us (2 shared cores, numpy 2.4).
``write_csv``, the package's one CSV writer, lays that text out in rows.

The quadratures over sample points ``x`` form their spacing here.
``trapz_inplace`` is the one total integral over sample points; it consumes
``y``: it writes the panels over ``y[:-1]``, ``_BLOCK`` at a time, so its
memory is its inputs plus O(``_BLOCK``) temporaries, where
``trapezoid(y, x)`` makes four arrays of ``y``'s size.  The counterparts
spend much of their time on argument handling: at n = 4000, on one core
with numpy 2.4 and scipy 1.17, scipy's cumulative trapezoid takes ~45 us
against cumtrapz's ~28 us, and numpy's gradient ~19 us against ~11 us.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["gradient", "cumtrapz", "trapz", "trapz_inplace", "g17_words",
           "write_csv"]

# panels per pass of trapz_inplace: its two temporaries of this many
# floats stay in cache
_BLOCK = 16384


def gradient(f: np.ndarray, dx: float) -> np.ndarray:
    """Central differences inside, one-sided second-order differences at
    both ends; needs at least 3 samples."""
    if f.shape[0] < 3:
        raise ValueError("gradient needs at least 3 samples")
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
    a, b, c = -1.5 / dx, 2.0 / dx, -0.5 / dx
    out[0] = a * f[0] + b * f[1] + c * f[2]
    a, b, c = 0.5 / dx, -2.0 / dx, 1.5 / dx
    out[-1] = a * f[-3] + b * f[-2] + c * f[-1]
    return out


def _panels(y, d):
    return d * (y[1:] + y[:-1]) / 2.0


def cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y at the points x from the first
    sample, where it is 0."""
    if y.shape[0] == 0:
        raise ValueError("cumtrapz needs at least one sample")
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(_panels(y, np.diff(x)), out=out[1:])
    return out


def trapz(y: np.ndarray, dx: float) -> float:
    """Trapezoid integral of y sampled dx apart."""
    return float(_panels(y, dx).sum())


def trapz_inplace(y: np.ndarray, x: np.ndarray) -> float:
    """Trapezoid integral of y at the points x; consumes y.

    Each panel (x[i+1] - x[i]) * (y[i+1] + y[i]) / 2 is written over
    y[i], block by block, and one sum over all of y[:-1] adds them, so
    the result is numpy's trapezoid(y, x) bit for bit.  Pass an array
    nothing else reads afterwards.
    """
    if y.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"trapz_inplace needs 1-D y and x of one shape, "
                         f"got {y.shape} and {x.shape}")
    m = y.shape[0] - 1
    for lo in range(0, m, _BLOCK):
        hi = min(lo + _BLOCK, m)
        p = x[lo + 1:hi + 1] - x[lo:hi]
        p *= y[lo + 1:hi + 1] + y[lo:hi]
        p /= 2.0
        y[lo:hi] = p
    return float(y[:-1].sum())


# --- "%.17g" text ----------------------------------------------------------
#
# g17_words rounds |x| to 17 significant digits, N * 10^(K-16) with
# 10^16 <= N < 10^17, as Python's correctly rounded dtoa does (Gay 1990),
# but in vectorized double-double arithmetic (Dekker 1971, Numer. Math.
# 18:224).  K = floor(log10|x|) comes from np.log10, corrected by exact
# comparisons against 10^K.  |x| * 10^(16-K) is Dekker's exact product
# of |x| with the head of 10^(16-K), plus |x| times its tail; its error is
# below 1e-14 in units of N, so N is the correctly rounded integer unless
# the product lies within _G17_TIE of a half-integer.  Those values, and
# those outside [_G17_MIN, _G17_MAX), go to "%.17g" % x itself, so the
# text is the same by construction.
#
# The text of a value is G17_WORDS little-endian uint64 words, with zero
# bytes as pads for write_csv to drop: word 0 holds the sign and a
# "0.000" prefix; words 1-3 the mantissa, the 17 digits with the point
# after digit P, stripped of trailing zeros; word 3, bytes 2-6, the
# exponent "e+XX".  Byte 7 of word 3 is always a pad, where write_csv
# puts the separator.

G17_WORDS = 4
# float64 scratch values g17_words needs per value
G17_WORK = 20
# values per block in write_csv: ~230 bytes each of input, kernel work
# and text (8 + 8 G17_WORK + 16 G17_WORDS), so ~1 MB of buffers at this
# size, allocated once per call and reused by every block
_CSV_VALUES = 4096
_G17_MIN, _G17_MAX = 1e-280, 1e280
_G17_TIE = 1e-6
_SPLIT = 134217729.0                 # 2^27 + 1, Dekker's splitter
_P0, _P1 = -281, 297                 # powers of ten in the table
_X0 = -300                           # origin of the tables indexed by K
_ZEROS = 0x3030303030303030          # '0' in every byte


def _pow10_tables():
    """Row p - _P0 of the first table: (hi, hi_head, hi_tail, lo) for 10^p,
    with hi + lo = 10^p to ~2^-107 relative and hi split into 26-bit
    halves; of the second: the least doubles >= 10^p and >= 10^(p+1).
    Integer arithmetic only: int -> float and int / int are correctly
    rounded."""
    rows = []
    for p in range(_P0, _P1 + 2):
        if p >= 0:
            hi = float(10 ** p)
            lo = float(10 ** p - int(hi))
        else:
            d = 10 ** -p
            hi = 1 / d
            num, den = hi.as_integer_ratio()
            lo = (den - num * d) / (den * d)
        c = hi * _SPLIT
        head = c - (c - hi)
        rows.append((hi, head, hi - head, lo,
                     math.nextafter(hi, math.inf) if lo > 0 else hi))
    t = np.array(rows)
    return t[:-1, :4].copy(), np.stack([t[:-1, 4], t[1:, 4]], axis=1)


def _words(value, count):
    """The int value as count little-endian uint64 words."""
    return [(value >> (64 * w)) & (2 ** 64 - 1) for w in range(count)]


def _span(first, last):
    """0xFF in bytes first..last-1."""
    return sum(0xFF << (8 * b) for b in range(first, last))


def _text(text, at):
    """text in bytes at..at+len."""
    return sum(b << (8 * (at + i)) for i, b in enumerate(text.encode()))


def _layout_tables():
    """The %g layout rules as tables.

    The mantissa is (S & L) | (S' & H) | P in each of its three words: S
    the 17 digit chars, S' the same shifted up a byte, L the digits before
    the point, H those after it and P the point.  Row cls * 18 + s holds
    (L, H, P): cls is the exponent X (after rounding) shifted to 0..20 for
    fixed notation, -4 <= X < 17, and 21 for exponent notation; s is the
    number of digits once trailing zeros are stripped (0 for zero).  Fixed
    notation prints the X + 1 integer digits, or after the "0.000" prefix
    the s digits; exponent notation prints one digit before the point.
    The point shows only if digits follow it.

    Row K - _X0 of the second table holds word 0 (the prefix, after a byte
    left for the sign) and the exponent in bytes 2-6 of word 3.
    """
    mantissa = np.zeros((22 * 18, 9), np.uint64)
    for cls in range(22):
        for s in range(18):
            before = 1 if cls == 21 else s if cls < 4 else cls - 3
            low = _span(0, before)
            high = dot = 0
            if s > before:
                high, dot = _span(before + 1, s + 1), 0x2E << (8 * before)
            mantissa[cls * 18 + s] = (_words(low, 3) + _words(high, 3)
                                      + _words(dot, 3))
    by_k = range(_X0, -_X0)
    row = np.array([(k + 4 if -4 <= k < 17 else 21) * 18 for k in by_k])
    ends = np.array([(_text("0." + "0" * (-k - 1), 1) if -4 <= k < 0 else 0,
                      0 if -4 <= k < 17 else _text("e%+03d" % k, 2))
                     for k in by_k], np.uint64)
    return mantissa, row, ends


@functools.cache
def _tables():
    """The tables, built on first use (~5 ms) rather than at import, and
    read-only since every call shares them."""
    tables = (*_pow10_tables(), *_layout_tables())
    for t in tables:
        t.setflags(write=False)
    return tables


def g17_words(x: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Write the text of "%.17g" % x[i] into the words out[:, i].

    x is 1-D float64 of n values; out is (G17_WORDS, n) '<u8', whose
    columns, read as bytes in C order, are the text with zero pads.  work
    is 1-D float64 scratch of at least G17_WORK * n values, reused across
    calls so that formatting in blocks touches no fresh memory.  Returns
    the indices of the values handed to "%.17g" itself.
    """
    n = x.shape[0]
    pow10, ceil10, mantissa, row_of_k, ends_of_k = _tables()
    # rows of work: 0-8 the numeric stage's floats, later the (n, 9)
    # mantissa masks; 9-10 the (n, 2) prefix and exponent words; 11-14
    # integers; 15-19 first the (n, 4) powers of ten, then the digits,
    # their lanes and digit 16
    w = work[:G17_WORK * n].reshape(G17_WORK, n)
    a, af, p, t, fl, ah, al, c, spare = w[:9]
    k, j, big, q = w[11:15].view(np.int64)

    np.abs(x, out=a)
    fast = a >= _G17_MIN
    fast &= a < _G17_MAX
    af[...] = 1.0
    np.copyto(af, a, where=fast)
    # K = floor(log10 af), exact: log10 is off by at most one near 10^K
    np.log10(af, out=p)
    np.floor(p, out=p)
    k[...] = p
    np.subtract(k, _P0, out=j)
    ceil = w[15:17].reshape(n, 2)
    np.take(ceil10, j, axis=0, out=ceil, mode="clip")
    k -= af < ceil[:, 0]
    k += af >= ceil[:, 1]
    # af * 10^(16-K) = p + t: Dekker's exact product with the head, in
    # his order, then the tail's term
    np.subtract(16 - _P0, k, out=j)
    hi, head, tail, lo = w[15:19].reshape(n, 4).T
    np.take(pow10, j, axis=0, out=w[15:19].reshape(n, 4), mode="clip")
    np.multiply(af, _SPLIT, out=c)
    np.subtract(c, af, out=ah)
    np.subtract(c, ah, out=ah)
    np.subtract(af, ah, out=al)
    np.multiply(af, hi, out=p)
    np.multiply(ah, head, out=t)
    t -= p
    np.multiply(al, head, out=fl)
    np.multiply(ah, tail, out=c)
    t += c
    t += fl
    np.multiply(al, tail, out=c)
    t += c
    np.multiply(af, lo, out=c)
    t += c
    # N = round(p + t); p >= 2^53 is an integer, so only t is rounded
    np.floor(t, out=fl)
    t -= fl
    np.subtract(t, 0.5, out=c)
    np.abs(c, out=c)
    back = c < _G17_TIE
    big[...] = p
    j[...] = fl
    big += j
    big += t > 0.5
    carry = big == 10 ** 17
    np.copyto(big, 10 ** 16, where=carry)
    k += carry
    slow = ~fast
    np.copyto(big, 0, where=slow)
    np.copyto(k, 0, where=slow)
    back |= slow & (a != 0)

    # N = 10^9 A + 10 B + d16, A and B of 8 digits each
    N = big.view(np.uint64)
    q = q.view(np.uint64)
    digits = w[15:17].view(np.uint64)
    lanes = w[17:19].view(np.uint64)
    d16 = w[19].view(np.uint64)
    np.floor_divide(N, 10 ** 9, out=digits[0])
    np.multiply(digits[0], 10 ** 9, out=q)
    np.subtract(N, q, out=q)
    np.floor_divide(q, 10, out=digits[1])
    np.multiply(digits[1], 10, out=d16)
    np.subtract(q, d16, out=d16)
    # A and B into 8 byte lanes each, most significant first (SWAR):
    # 4-digit halves into 32-bit lanes, then // 100, then // 10, each
    # division a multiply and shift exact on its range
    np.floor_divide(digits, 10000, out=lanes)
    digits <<= 32
    lanes *= (1 - (10000 << 32)) % 2 ** 64
    digits += lanes
    np.multiply(digits, 10486, out=lanes)      # x // 100 for x < 10^4
    lanes >>= 20
    lanes &= 0x0000007F0000007F
    digits <<= 16
    lanes *= (1 - (100 << 16)) % 2 ** 64
    digits += lanes
    np.multiply(digits, 103, out=lanes)        # x // 10 for x < 100
    lanes >>= 10
    lanes &= 0x000F000F000F000F
    digits <<= 8
    lanes *= (1 - (10 << 8)) % 2 ** 64
    digits += lanes
    # s: bit i of the mask is digit i nonzero; bit 7 of a nonzero digit's
    # byte, gathered 8 to a byte by the multiply
    np.add(digits, 0x7F7F7F7F7F7F7F7F, out=lanes)
    lanes &= 0x8080808080808080
    lanes >>= 7
    lanes *= 0x0102040810204080
    lanes >>= 56
    lanes[1] <<= 8
    lanes[0] |= lanes[1]
    np.minimum(d16, 1, out=lanes[1])
    lanes[1] <<= 16
    lanes[0] |= lanes[1]
    np.copyto(c, lanes[0])
    e = fl.view(np.int32)[:n]
    np.frexp(c, out=(spare, e))                # e = bit length = s
    np.subtract(k, _X0, out=j)
    row = q.view(np.int64)
    np.take(row_of_k, j, out=row, mode="clip")
    row += e
    # the rows of the numeric stage are free now
    masks = w[:9].reshape(n, 9).view(np.uint64)
    ends = w[9:11].reshape(n, 2).view(np.uint64)
    np.take(mantissa, row, axis=0, out=masks, mode="clip")
    np.take(ends_of_k, j, axis=0, out=ends, mode="clip")

    digits += _ZEROS
    d16 += 0x30
    shifted = lanes
    np.left_shift(digits, 8, out=shifted)
    np.right_shift(digits[0], 56, out=q)
    shifted[1] |= q
    np.right_shift(digits[1], 56, out=q)
    s2 = q
    np.left_shift(d16, 8, out=k.view(np.uint64))
    s2 |= k.view(np.uint64)
    # mantissa word = (S & L) | (S' & H) | P, see _layout_tables
    for word, (plain, moved) in enumerate(((digits[0], shifted[0]),
                                           (digits[1], shifted[1]),
                                           (d16, s2))):
        dst = out[word + 1]
        np.bitwise_and(plain, masks[:, word], out=dst)
        moved &= masks[:, word + 3]
        dst |= moved
        dst |= masks[:, word + 6]
    out[3] |= ends[:, 1]
    np.copyto(out[0], ends[:, 0])
    sign = j.view(np.uint64)
    np.right_shift(x.view(np.uint64), 63, out=sign)
    sign *= ord("-")
    out[0] |= sign
    back = np.flatnonzero(back)
    for i in back:
        text = ("%.17g" % x[i]).encode().ljust(8 * G17_WORDS, b"\0")
        out[:, i] = np.frombuffer(text, "<u8")
    return back


def write_csv(path, names, columns):
    """Header of names, then one row per index of the equal-length columns,
    each value as the text of "%.17g" % value (17 significant digits, so a
    float64 reads back exactly); columns of unequal length raise
    ValueError.  Blocks of _CSV_VALUES values are laid out by g17_words as
    (word, column, row) arrays, transposed to row order, and their pad
    bytes dropped in one pass.
    """
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    sizes = [c.size for c in columns]
    if len(set(sizes)) > 1:
        raise ValueError("write_csv columns differ in length: "
                         + ", ".join(f"{name} {size}"
                                     for name, size in zip(names, sizes)))
    m = len(columns)
    n = max(sizes, default=0)
    rows = max(1, min(n, _CSV_VALUES // max(m, 1)))
    x = np.empty(m * rows)
    words = np.empty(G17_WORDS * m * rows, "<u8")
    work = np.empty(G17_WORK * m * rows)
    text = bytearray(8 * G17_WORDS * m * rows)
    # the separator after each value, in the pad byte 7 of its last word
    sep = np.full((m, 1), ord(","), np.uint64)
    sep[-1:] = ord("\n")
    sep <<= 56
    with open(path, "wb") as f:
        f.write((",".join(names) + "\n").encode())
        for lo in range(0, n, rows):
            b = min(rows, n - lo)
            if b < rows:
                text = bytearray(8 * G17_WORDS * m * b)
            xb = x[:m * b].reshape(m, b)
            for c, col in enumerate(columns):
                xb[c] = col[lo:lo + b]
            wb = words[:G17_WORDS * m * b].reshape(G17_WORDS, m, b)
            g17_words(x[:m * b], wb.reshape(G17_WORDS, m * b), work)
            wb[-1] |= sep
            np.copyto(np.frombuffer(text, "<u8").reshape(b, m, G17_WORDS),
                      wb.transpose(2, 1, 0))
            f.write(text.translate(None, b"\0"))
