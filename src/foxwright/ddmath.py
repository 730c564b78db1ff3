"""Head/tail double pairs: the double-double arithmetic of the term logs.

The error-free transforms (Knuth two-sum, Dekker two-product) and the pair
operations built on them, ln x as a pair with relative error below 1e-31
(``_dd_log``, reduced to a tabled grid j/64), and ln k of an integer as a
pair (``_log_int_dd``), each beside its array twin (``_dd_log_array``,
``_log_ints_dd``), which gives its bits element-wise.  ``series`` and
``batch`` assemble the term logs from them.
"""

from __future__ import annotations

import math

import numpy as np

# The error-free transforms below (Knuth two-sum, Dekker two-product) are the
# standard ones; arguments stay far below the 1e300 split overflow range.
# They take floats and float64 arrays alike: numpy rounds each element-wise
# operation as IEEE does and never fuses a multiply-add.

_SPLIT = 134217729.0  # 2**27 + 1


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    bh = _SPLIT * b
    bh -= bh - b
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    s, e = _two_sum(ah, bh)
    return _two_sum(s, e + al + bl)


def _dd_mul(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    p, e = _two_prod(ah, bh)
    return _two_sum(p, e + ah * bl + al * bh)


def _dd_div_d(ah: float, al: float, b: float) -> tuple[float, float]:
    q = ah / b
    p, e = _two_prod(q, b)
    return _two_sum(q, (((ah - p) - e) + al) / b)


_LN2_HI = 0.6931471805599453
_LN2_LO = 2.3190468138462996e-17
_SQRT_HALF = 0.7071067811865476


def _artanh2(num: float, m: float, c: float) -> tuple[float, float]:
    # ln(m/c) = 2 artanh(s) with s = (m-c)/(m+c); num = m - c must be exact,
    # m + c is carried as a pair so the quotient keeps ~32 digits.  The loop
    # runs _dd_mul, _dd_div_d and _dd_add written out, with x = s^2 split once
    dh, dl = _two_sum(c, m)
    q = num / dh
    p, pe = _two_prod(q, dh)
    sh, sl = _two_sum(q, (((num - p) - pe) - q * dl) / dh)
    x2h, x2l = _dd_mul(sh, sl, sh, sl)
    xh = _SPLIT * x2h
    xh -= xh - x2h
    xl = x2h - xh
    th, tl = ah, al = sh, sl
    n = 3.0
    while n < 99.0:
        p, uh = th * x2h, _SPLIT * th  # (th, tl) *= x
        uh -= uh - th
        ul = th - uh
        y = (((uh * xh - p) + uh * xl + ul * xh) + ul * xl) + th * x2l + tl * x2h
        th = p + y
        t = th - p
        tl = (p - (th - t)) + (y - t)
        q = th / n  # (ch, cl) = (th, tl) / n
        p, uh, nh = q * n, _SPLIT * q, _SPLIT * n
        uh, nh = uh - (uh - q), nh - (nh - n)
        ul, nl = q - uh, n - nh
        y = (((th - p) - (((uh * nh - p) + uh * nl + ul * nh) + ul * nl)) + tl) / n
        ch = q + y
        t = ch - q
        cl = (q - (ch - t)) + (y - t)
        s = ah + ch  # (ah, al) += (ch, cl)
        t = s - ah
        y = (ah - (s - t)) + (ch - t) + al + cl
        ah = s + y
        t = ah - s
        al = (s - (ah - t)) + (y - t)
        if abs(ch) < 1e-35:
            break
        n += 2.0
    return 2.0 * ah, 2.0 * al


# ln(j/64) as head/tail pairs at the grid points j = 45..91 that cover the
# reduced mantissa range [sqrt(1/2), sqrt(2)): _artanh2(j/64 - 1, j/64, 1),
# summed from 1 with |s| < 0.18, tabled here so that import does not spend
# 2 ms summing them (a test recomputes every pair)
_LN_GRID = (
    (-0.3522205935893521, -5.723331694918253e-18),  # j = 45
    (-0.33024168687057687, 1.0828321637483863e-17),  # j = 46
    (-0.3087354816496133, 1.6199186085148105e-17),  # j = 47
    (-0.2876820724517809, -2.6071606164425637e-17),  # j = 48
    (-0.26706278524904525, 7.328915327320166e-18),  # j = 49
    (-0.24686007793152578, -1.361743371748368e-17),  # j = 50
    (-0.22705745063534608, -9.551415762738488e-18),  # j = 51
    (-0.2076393647782445, -1.2053243216686129e-17),  # j = 52
    (-0.18859116980755003, 7.432164219196925e-18),  # j = 53
    (-0.16989903679539747, 4.8680087644390785e-19),  # j = 54
    (-0.15154989812720093, -5.166959368461559e-18),  # j = 55
    (-0.13353139262452263, 3.664457663660086e-18),  # j = 56
    (-0.1158318155251217, -4.3384843698080944e-18),  # j = 57
    (-0.09844007281325252, 4.439009633675135e-18),  # j = 58
    (-0.0813456394539524, -5.07707635593117e-18),  # j = 59
    (-0.06453852113757118, 6.470486661692933e-18),  # j = 60
    (-0.048009219186360606, -1.4390903347292203e-18),  # j = 61
    (-0.0317486983145803, -3.038226308468086e-18),  # j = 62
    (-0.015748356968139168, -1.0021578630528974e-18),  # j = 63
    (0.0, 0.0),  # j = 64
    (0.015504186535965254, -3.2783210228924296e-19),  # j = 65
    (0.030771658666753687, 1.043173202900597e-18),  # j = 66
    (0.0458095360312942, 1.902959866474258e-18),  # j = 67
    (0.06062462181643484, 2.6424025938726934e-18),  # j = 68
    (0.07522342123758753, -5.9306041962932415e-18),  # j = 69
    (0.08961215868968714, -5.426812933664713e-18),  # j = 70
    (0.10379679368164356, 5.477724157266589e-18),  # j = 71
    (0.11778303565638346, -1.1971685747593668e-18),  # j = 72
    (0.13157635778871926, 1.1123000879729586e-17),  # j = 73
    (0.1451820098444979, 8.242418783022474e-18),  # j = 74
    (0.15860503017663857, 1.125700387218259e-17),  # j = 75
    (0.17185025692665923, -6.022453821011367e-18),  # j = 76
    (0.184922338494012, 3.0236614153574037e-18),  # j = 77
    (0.19782574332991987, 1.2821194372980136e-17),  # j = 78
    (0.21056476910734964, -4.249405314729895e-18),  # j = 79
    (0.22314355131420976, -9.091270597324804e-18),  # j = 80
    (0.2355660713127669, -2.3943371495187335e-18),  # j = 81
    (0.24783616390458127, -1.243220957870253e-17),  # j = 82
    (0.25995752443692605, 2.0698069389789353e-17),  # j = 83
    (0.27193371548364176, 7.833196376974419e-19),  # j = 84
    (0.2837681731306446, -2.0326655811266558e-17),  # j = 85
    (0.2954642128938359, -2.16461086040599e-17),  # j = 86
    (0.3070250352949119, -1.2319916200101966e-17),  # j = 87
    (0.3184537311185346, 2.7114779367326233e-17),  # j = 88
    (0.329753286372468, 2.1220206161969468e-18),  # j = 89
    (0.3409265869705932, 1.746713644354474e-17),  # j = 90
    (0.3519764231571782, -1.295389303019196e-17),  # j = 91
)


def _dd_log(x: float) -> tuple[float, float]:
    """ln x as a head/tail pair with relative error below 1e-31; x > 0 finite.

    With x = m * 2^e, m in [sqrt(1/2), sqrt(2)), ln m = ln c + ln(m/c) for
    the grid point c = j/64 nearest m, whose pair is tabled: m - c is exact
    and |s| < 0.006, so the artanh series stops within 8 steps.  ln 1 is
    exactly (0.0, 0.0).
    """
    if x == 1.0:
        return 0.0, 0.0
    m, e = math.frexp(x)
    if m < _SQRT_HALF:
        m *= 2.0
        e -= 1
    j = round(m * 64.0)
    c = j / 64.0
    ah, al = _dd_add(*_LN_GRID[j - 45], *_artanh2(m - c, m, c))
    ph, pe = _two_prod(float(e), _LN2_HI)
    return _dd_add(ph, pe + e * _LN2_LO, ah, al)


_LN_GRID_H = np.array([h for h, _ in _LN_GRID])
_LN_GRID_L = np.array([l for _, l in _LN_GRID])


def _dd_log_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_dd_log element-wise over a float array of positive finite values,
    bit for bit.

    The same grid reduction and artanh series, run for the 8 steps the
    scalar loop never exceeds once |s| < 0.006 (s^17/17 < 1e-35).
    """
    m, e = np.frexp(x)
    low = m < _SQRT_HALF
    m = np.where(low, 2.0 * m, m)
    e = (e - low).astype(float)
    j = np.rint(m * 64.0)
    c = j / 64.0
    num = m - c
    dh, dl = _two_sum(c, m)
    q = num / dh
    p, pe = _two_prod(q, dh)
    sh, sl = _two_sum(q, (((num - p) - pe) - q * dl) / dh)
    x2h, x2l = _dd_mul(sh, sl, sh, sl)
    th, tl = ah, al = sh, sl
    for n in range(3, 19, 2):
        th, tl = _dd_mul(th, tl, x2h, x2l)
        ah, al = _dd_add(ah, al, *_dd_div_d(th, tl, float(n)))
    g = j.astype(int) - 45
    ah, al = _dd_add(_LN_GRID_H[g], _LN_GRID_L[g], 2.0 * ah, 2.0 * al)
    ph, pe = _two_prod(e, _LN2_HI)
    h, l = _dd_add(ph, pe + e * _LN2_LO, ah, al)
    one = x == 1.0
    return np.where(one, 0.0, h), np.where(one, 0.0, l)


def _log_int_dd(k: int) -> tuple[float, float]:
    """ln k as a head/tail pair, absolute error ~3e-17; cheap enough per term."""
    m, e = math.frexp(float(k))
    if m < _SQRT_HALF:
        m *= 2.0
        e -= 1
    ph, pe = _two_prod(float(e), _LN2_HI)
    return _dd_add(ph, pe + e * _LN2_LO, math.log(m), 0.0)


def _log_ints_dd(fk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise _log_int_dd over a float array of positive integers."""
    m, e = np.frexp(fk)
    low = m < _SQRT_HALF
    m[low] *= 2.0
    e = (e - low).astype(float)
    ph, pe = _two_prod(e, _LN2_HI)
    return _dd_add(ph, pe + e * _LN2_LO, np.log(m), 0.0)
