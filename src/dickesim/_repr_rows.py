"""CSV rows "n,P_n" in whole-array numpy arithmetic, each cell byte for byte Python's repr.

repr writes the shortest decimal that reads back to the same double, the
nearest one when several are that short.  Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020) finds those digits for a finite
double c 2^q from three high products of a 126-bit table constant g(k) with
c 2^h, so a chunk of cells costs a fixed number of ufunc calls instead of
one repr per cell.  JDK's Double.toString, built on it, pads a one-digit
subnormal to two digits (4.9E-324); repr does not and neither does this
module, so subnormals take the same path; only inf and nan go through repr.

The arithmetic is on uint64, and every constant in it is a numpy uint64
scalar: uint64 meeting an int64 array gives float64, and numpy 2 changed how
a Python int promotes (NEP 50).
"""

from __future__ import annotations

import numpy as np

__all__ = ["repr_rows"]

_U = np.uint64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
_K_MIN = -324  # k of the smallest subnormal; the largest double's is 292
_P10 = 10 ** np.arange(17, dtype=np.uint64)  # a significand has at most 17 digits


def _g_table() -> list[np.ndarray]:
    """g = floor(10^-k 2^(125 - floor(-k log2 10))) + 1 for k = -324..292, as the arrays
    g1, g1 >> 32, g1 & M32, g0 >> 32 and g0 & M32 of its halves g = g1 2^63 + g0."""
    rows = []
    for k in range(_K_MIN, 293):
        shift = 125 - ((-k * 913124641741) >> 38)
        if k > 0:
            g = (1 << shift) // 10**k + 1
        else:
            g = (10**-k << shift if shift >= 0 else 10**-k >> -shift) + 1
        g1, g0 = g >> 63, g & (2**63 - 1)
        rows.append((g1, g1 >> 32, g1 & (2**32 - 1), g0 >> 32, g0 & (2**32 - 1)))
    return list(np.array(rows, dtype=np.uint64).T.copy())


_G = _g_table()


def _mul_hi(a1, a0, x1, x0):
    """High 64 bits of (a1 2^32 + a0)(x1 2^32 + x0), every half below 2^32."""
    p00, p01, p10 = a0 * x0, a0 * x1, a1 * x0
    mid = (p00 >> _U(32)) + (p01 & _M32) + (p10 & _M32)
    return a1 * x1 + (p01 >> _U(32)) + (p10 >> _U(32)) + (mid >> _U(32))


def _rop(g, cp):
    """floor(g cp / 2^127), its lowest bit set when the remainder is not 0."""
    g1, g1_hi, g1_lo, g0_hi, g0_lo = g
    x1, x0 = cp >> _U(32), cp & _M32
    z = ((g1 * cp) >> _U(1)) + _mul_hi(g0_hi, g0_lo, x1, x0)  # g1 cp wraps to its low 64 bits
    return (_mul_hi(g1_hi, g1_lo, x1, x0) + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest(bits):
    """(f, k) with f 10^k the shortest decimal that reads back to each finite nonzero |double|."""
    be = (bits >> _U(52)) & _U(0x7FF)
    t = bits & _U(2**52 - 1)
    c = t | ((be != _U(0)).astype(np.uint64) << _U(52))
    q = np.maximum(be, _U(1)).astype(np.int64) - 1075
    # at a power of two the next double down is nearer than the next one up
    uneven = (t == _U(0)) & (be > _U(1))
    k = (q * 661971961083 - uneven * 274743187321) >> 41  # floor(log10 2^q), or of 3/4 2^q
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    g = [col.take(k - _K_MIN) for col in _G]
    cb = c << _U(2)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U(2) + uneven.astype(np.uint64)) << h)
    vbr = _rop(g, (cb + _U(2)) << h)
    out = c & _U(1)  # an odd c leaves out the ends of its rounding interval
    s = vb >> _U(2)
    # one digit fewer: the interval holds at most one multiple of 10^(k+1)
    sp10 = s // _U(10) * _U(10)
    tp10 = sp10 + _U(10)
    upin = vbl + out <= sp10 << _U(2)
    wpin = (tp10 << _U(2)) + out <= vbr
    # else s or s + 1: the one inside, or the nearer, or the even one on a tie
    uin = vbl + out <= s << _U(2)
    win = ((s + _U(1)) << _U(2)) + out <= vbr
    mid = (s << _U(2)) + _U(2)
    lower = (vb < mid) | ((vb == mid) & ((s & _U(1)) == _U(0)))
    f = np.where(upin != wpin, np.where(upin, sp10, tp10), s + ~np.where(uin != win, uin, lower))
    return f, k


def repr_rows(first: int, values: np.ndarray) -> str:
    """The text of the rows f"{n},{v!r}\\n" for n = first, first + 1, ... and v in values."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    m = values.size
    zero = values == 0.0
    f, k = _shortest(values.view(np.uint64))
    f[zero] = 0
    ndig = np.searchsorted(_P10, f, side="right")
    f *= _P10[np.minimum(17 - ndig, 16)]  # 17 digits, the first one nonzero
    # chars[1:18] are the digits, chars[18] a "0" after them and chars[0] a 0
    # byte before them, so that chars[:-1] is the digits moved one column on
    chars = np.empty((19, m), np.uint8)
    chars[0], chars[18] = 0, ord("0")
    for row in chars[17:0:-1]:
        q = f // _U(10)
        row[:] = f - q * _U(10)
        f = q
    # n digits up to the last nonzero one, the decimal point after decpt of them
    n = np.where(zero, 1, ((chars[1:18] != 0) * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0))
    decpt = np.where(zero, 1, k + ndig)
    chars[1:18] += ord("0")

    # repr's layout with every byte in a fixed column and a 0 byte where a row
    # has none: [n] , [-] [0.] [000] [digits, the point after a of them] [e±ddd] \n
    # The grid is stored column by column, so that each column is one contiguous write.
    width = len(str(first + m - 1))
    grid = np.zeros((width + 31, m), np.uint8)
    count = np.arange(first, first + m, dtype=np.uint64)
    for col in range(width - 1, -1, -1):
        q = count // _U(10)
        grid[col] = (count - q * _U(10) + _U(48)) * ((count > _U(0)) | (col == width - 1))
        count = q
    grid[width] = ord(",")
    text = grid[width + 1 : -1]
    text[0] = np.signbit(values) * np.uint8(ord("-"))
    fixed = (decpt > -4) & (decpt < 17)
    small = fixed & (decpt <= 0)
    text[1] = small * np.uint8(ord("0"))
    text[2] = small * np.uint8(ord("."))
    text[3:6] = (np.arange(3)[:, None] < np.where(small, -decpt, 0)) * np.uint8(ord("0"))
    a = np.where(fixed, np.maximum(decpt, 0), 1).astype(np.int8)
    end = np.where(fixed, np.maximum(n, a + 1), n).astype(np.int8)  # "d.0" when no fraction digit is left
    point = np.where(fixed, decpt > 0, n > 1) * np.uint8(ord("."))
    j = np.arange(18, dtype=np.int8)[:, None]
    # the three parts do not overlap, so a sum of products (np.where is slow on uint8)
    text[6:24] = chars[1:] * (j < a) + point * (j == a) + chars[:-1] * ((j > a) & (j <= end))
    e = np.abs(decpt - 1)
    text[24] = ord("e")
    text[25] = np.where(decpt < 1, ord("-"), ord("+"))
    text[26] = (e // 100 + 48) * (e >= 100)
    text[27] = e // 10 % 10 + 48
    text[28] = e % 10 + 48
    text[24:29, fixed] = 0
    grid[-1] = ord("\n")
    odd = np.flatnonzero(~np.isfinite(values))
    if odd.size:
        text[:, odd] = 0
        cells = np.array([repr(v).encode() for v in values[odd].tolist()], dtype="S4")
        text[:4, odd] = cells.view(np.uint8).reshape(-1, 4).T
    rows = grid.T.copy()
    return rows[rows != 0].tobytes().decode("ascii")
