"""Scalar kernels for log-gamma, digamma, and gamma ratios.

Positive real arguments only; the series engine never needs the reflection
formula and refusing x <= 0 keeps pole handling out of every caller.  Both
kernels apply the Stirling asymptotic series from x = 8 on.  Below that,
digamma shifts the argument up with psi(x+1) = psi(x) + 1/x, and log_gamma
moves it into [0.5, 1.5) with Gamma(x+1) = x Gamma(x) and sums the Taylor
series of ln Gamma(1+t), whose signed coefficients are (-1)^k (zeta(k) - 1)/k.
Each of the three series is one straight-line Horner form that takes floats
and arrays alike.  The array kernels sit beside their scalar twins, one
kernel each: ``_log_gamma_array`` is log_gamma element-wise and
``_digamma_array`` digamma element-wise, in the same operations with
numpy's log and log1p in place of math's.  Where numpy dispatches to its
AVX2 or baseline kernels those logs are libm's bit for bit, and so are the
array kernels' results; numpy's AVX-512 logs may differ in the last bit,
which moves an array result by at most a few units in the last place.
"""

from __future__ import annotations

import math

import numpy as np

from .ddmath import _two_sum
from .errors import DomainError

__all__ = [
    "log_gamma",
    "digamma",
    "gamma_ratio",
]

# Below this the argument is shifted upward before the asymptotic series.
_SHIFT_THRESHOLD = 8.0

_HALF_LN_TWO_PI = 0.9189385332046727417803297  # ln(2*pi)/2

_ONE_MINUS_EULER_GAMMA = 0.4227843350984671393935  # 1 - gamma


def _zeta_sum(t):
    # sum (-1)^k (zeta(k) - 1)/k t^(k-2) for k = 2..30, the rapidly convergent
    # part of ln Gamma(1+t) = -log1p(t) + t(1-gamma) + t^2 * sum, by Horner's
    # rule written out; for a float or a float array
    s = 9.313274324196682e-10 / 30
    s = s * t - 1.862659723513049e-09 / 29
    s = s * t + 3.725334024788457e-09 / 28
    s = s * t - 7.45071178983543e-09 / 27
    s = s * t + 1.4901554828365043e-08 / 26
    s = s * t - 2.980350351465228e-08 / 25
    s = s * t + 5.960818905125948e-08 / 24
    s = s * t - 1.1921992596531106e-07 / 23
    s = s * t + 2.38450502727733e-07 / 22
    s = s * t - 4.769329867878064e-07 / 21
    s = s * t + 9.539620338727962e-07 / 20
    s = s * t - 1.908212716553939e-06 / 19
    s = s * t + 3.81729326499984e-06 / 18
    s = s * t - 7.637197637899763e-06 / 17
    s = s * t + 1.528225940865187e-05 / 16
    s = s * t - 3.058823630702049e-05 / 15
    s = s * t + 6.124813505870483e-05 / 14
    s = s * t - 0.00012271334757848915 / 13
    s = s * t + 0.0002460865533080483 / 12
    s = s * t - 0.0004941886041194645 / 11
    s = s * t + 0.0009945751278180853 / 10
    s = s * t - 0.0020083928260822143 / 9
    s = s * t + 0.00407735619794434 / 8
    s = s * t - 0.008349277381922827 / 7
    s = s * t + 0.01734306198444914 / 6
    s = s * t - 0.03692775514336993 / 5
    s = s * t + 0.08232323371113819 / 4
    s = s * t - 0.2020569031595943 / 3
    s = s * t + 0.6449340668482264 / 2
    return s


def _stirling_tail_sum(x):
    # the series part of the Stirling form, sum B_2n / (2n(2n-1)) x^(1-2n)
    # for n = 1..10, by Horner's rule in 1/x^2 written out; for a float or a
    # float array, valid for x >= _SHIFT_THRESHOLD
    r = 1.0 / (x * x)
    return (((((((((-174611.0 / 125400.0 * r + 43867.0 / 244188.0) * r
                  - 3617.0 / 122400.0) * r + 1.0 / 156.0) * r
                - 691.0 / 360360.0) * r + 1.0 / 1188.0) * r - 1.0 / 1680.0)
             * r + 1.0 / 1260.0) * r - 1.0 / 360.0) * r + 1.0 / 12.0) / x


def _psi_tail_sum(y):
    # the series part of psi's asymptotic form, sum B_2n / (2n) y^(-2n) for
    # n = 1..10, by Horner's rule in 1/y^2 written out; for a float or a
    # float array, valid for y >= _SHIFT_THRESHOLD
    r = 1.0 / (y * y)
    return (((((((((-174611.0 / 6600.0 * r + 43867.0 / 14364.0) * r
                  - 3617.0 / 8160.0) * r + 1.0 / 12.0) * r
                - 691.0 / 32760.0) * r + 1.0 / 132.0) * r - 1.0 / 240.0)
             * r + 1.0 / 252.0) * r - 1.0 / 120.0) * r + 1.0 / 12.0) * r


def _log_gamma_taylor(t: float) -> float:
    """ln Gamma(1 + t) for |t| <= 0.5 via the zeta series.

    Every intermediate stays O(|t|), so the result keeps full relative
    precision near the zeros of ln Gamma at 1 and 2.
    """
    return t * (_ONE_MINUS_EULER_GAMMA + t * _zeta_sum(t)) - math.log1p(t)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"log_gamma needs x > 0, got {x}")
    if x == 1.0 or x == 2.0:
        return 0.0  # exact zeros of ln Gamma
    if x >= _SHIFT_THRESHOLD:
        return (x - 0.5) * math.log(x) - x + _HALF_LN_TWO_PI + _stirling_tail_sum(x)
    if x < 0.5:
        # Gamma(x) = Gamma(x + 1) / x
        return _log_gamma_taylor(x) - math.log(x)
    if x < 1.5:
        return _log_gamma_taylor(x - 1.0)
    # Gamma(x) = (x-1)(x-2)...(x-m) Gamma(x-m) with x - m in [0.5, 1.5)
    m = int(x - 0.5)
    prod = 1.0
    for j in range(1, m + 1):
        prod *= x - j
    return _log_gamma_taylor(x - m - 1.0) + math.log(prod)


def _log_gamma_array(x: np.ndarray) -> np.ndarray:
    """log_gamma element-wise over a float array of positive values: the
    Stirling form from 8 on, below it the shift product and the Taylor
    table of ln Gamma(1 + t), with numpy's log and log1p."""
    out = np.empty_like(x)
    big = x >= _SHIFT_THRESHOLD
    if big.any():
        xb = x[big]
        out[big] = ((xb - 0.5) * np.log(xb) - xb + _HALF_LN_TWO_PI
                    + _stirling_tail_sum(xb))
    small = ~big
    if small.any():
        xs = x[small]
        m = np.floor(np.maximum(xs - 0.5, 0.0))  # int(x - 0.5), below 8
        prod = np.ones_like(xs)
        for j in range(1, int(m.max()) + 1):
            prod = np.where(m >= j, prod * (xs - j), prod)
        tiny = xs < 0.5
        t = np.where(tiny, xs, xs - m - 1.0)
        lg = t * (_ONE_MINUS_EULER_GAMMA + t * _zeta_sum(t)) - np.log1p(t)
        out[small] = lg + np.where(tiny, -np.log(xs), np.log(prod))
    return out


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"digamma needs x > 0, got {x}")
    shift = 0.0
    comp = 0.0
    y = x
    while y < _SHIFT_THRESHOLD:
        # sum 1/(x+j) with its rounding errors in comp (ddmath._two_sum
        # written out: a call a term costs); the shifted-sum error
        # otherwise dominates near the positive zero of psi
        t = 1.0 / y
        total = shift + t
        v = total - shift
        comp += (shift - (total - v)) + (t - v)
        shift = total
        y += 1.0
    return math.log(y) - 0.5 / y - _psi_tail_sum(y) - (shift + comp)


def _digamma_array(x: np.ndarray) -> np.ndarray:
    """digamma element-wise over a float array of positive values: the
    same compensated shift sum, masked to the elements still below the
    threshold, and the same Horner tail, with numpy's log."""
    shift = np.zeros_like(x)
    comp = np.zeros_like(x)
    y = x
    low = y < _SHIFT_THRESHOLD
    while low.any():
        total, e = _two_sum(shift, 1.0 / y)
        comp = np.where(low, comp + e, comp)
        shift = np.where(low, total, shift)
        y = np.where(low, y + 1.0, y)
        low = y < _SHIFT_THRESHOLD
    return np.log(y) - 0.5 / y - _psi_tail_sum(y) - (shift + comp)


def gamma_ratio(z: float, a: float) -> float:
    """Gamma(z + a) / Gamma(z) for z > 0, a >= 0, evaluated in log space."""
    if not z > 0.0:
        raise DomainError(f"gamma_ratio needs z > 0, got {z}")
    if a < 0.0:
        raise DomainError(f"gamma_ratio needs a >= 0, got {a}")
    if a == 0.0:
        return 1.0
    if z >= _SHIFT_THRESHOLD:
        # differencing two Stirling forms directly: the (x - 1/2) log x
        # pieces are ~z log z each and would wipe out half the mantissa
        delta = (a * math.log(z) + (z + a - 0.5) * math.log1p(a / z) - a
                 + _stirling_tail_sum(z + a) - _stirling_tail_sum(z))
        return math.exp(delta)
    return math.exp(log_gamma(z + a) - log_gamma(z))

