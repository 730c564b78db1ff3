"""High-precision reference oracle.

Every series here is recomputed from scratch in mpmath arbitrary-precision
arithmetic: terms are direct gamma products, accumulation is plain mpf
addition (no running-scale or compensation tricks), and the stop rule is a
geometric tail estimate against the requested digit count.  Nothing is
shared with the double-precision engine, so agreement between the two is
meaningful evidence.
"""

from __future__ import annotations

from typing import Sequence

import mpmath as mp

from .errors import (
    DivergentSeriesError,
    DomainError,
    NoConvergenceError,
)
from .series import FoxWrightParams

__all__ = [
    "hp_eval",
    "hp_pfq",
]

_MAX_TERMS = 100_000


def _check_digits(digits: int) -> int:
    digits = int(digits)
    if not 30 <= digits <= 200:
        raise DomainError(f"digits must lie in [30, 200], got {digits}")
    return digits


def _hp_series(params: FoxWrightParams, z, rel_stop, start: int = 0):
    """Sum the raw series in the active mp context.

    Returns (value, tail_estimate, terms_used).  Terms are formed directly:
    prod Gamma(alpha + k A) / prod Gamma(beta + k B) * z^k / k!.
    """
    z = mp.mpf(z)
    total = mp.mpf(0)
    prev = None
    tail = mp.mpf(0)
    streak = 0
    terms = 0
    for k in range(start, start + _MAX_TERMS):
        t = mp.power(z, k) / mp.factorial(k)
        # arguments formed in mpf arithmetic: a + k*w rounded to a double
        # would shift the term log by psi(x) * ulp, ~1e-12 for late terms
        for a, wa in params.upper:
            t *= mp.gamma(mp.mpf(a) + k * mp.mpf(wa))
        for b, wb in params.lower:
            t /= mp.gamma(mp.mpf(b) + k * mp.mpf(wb))
        total += t
        terms += 1
        if prev is None:
            ratio = mp.inf
        elif prev == 0:
            ratio = mp.inf if t != 0 else mp.mpf(0)
        else:
            ratio = abs(t) / abs(prev)
        prev = t
        if ratio < 1:
            tail = abs(t) * ratio / (1 - ratio)
            if tail <= rel_stop * abs(total):
                streak += 1
            else:
                streak = 0
            if streak >= 3:
                return total, tail, terms
        else:
            streak = 0
    raise NoConvergenceError(
        f"oracle stop rule did not fire within {_MAX_TERMS} terms "
        f"(start={start}, z={mp.nstr(z, 8)})")


def hp_eval(params: FoxWrightParams, z, digits: int = 30,
            start: int = 0) -> tuple[str, str]:
    """Evaluate the series to ``digits`` significant digits.

    Returns decimal strings (value, tail_estimate); the extra working
    precision (digits + 10) keeps the printed digits trustworthy.  ``start``
    sums the tail from that index onward instead of the whole series.
    """
    digits = _check_digits(digits)
    if params.epsilon() <= 0.0:
        raise DivergentSeriesError(
            f"divergent series: epsilon = {params.epsilon():.6g} <= 0")
    with mp.workdps(digits + 10):
        value, tail, _ = _hp_series(params, z, mp.mpf(10) ** (-digits), start)
        return mp.nstr(value, digits), mp.nstr(tail, 10)


def _hp_pfq_mpf(upper: Sequence[float], lower: Sequence[float], z):
    """pFq by Pochhammer recurrence in the active mp context.

    Accepts arbitrary real upper parameters (terminating series included).
    Returns (value, tail_estimate, terms_used).
    """
    z = mp.mpf(z)
    rel_stop = mp.mpf(10) ** (-(mp.mp.dps - 10))
    term = mp.mpf(1)
    total = mp.mpf(0)
    streak = 0
    for k in range(_MAX_TERMS):
        total += term
        num = mp.mpf(1)
        for a in upper:
            num *= mp.mpf(a) + k
        den = mp.mpf(k + 1)
        for b in lower:
            den *= mp.mpf(b) + k
        nxt = term * num / den * z
        ratio = abs(nxt) / abs(term) if term != 0 else mp.mpf(0)
        term = nxt
        if ratio < 1:
            tail = abs(term) * ratio / (1 - ratio) if ratio > 0 else abs(term)
            if tail <= rel_stop * abs(total) or term == 0:
                streak += 1
            else:
                streak = 0
            if streak >= 3:
                return total, tail, k + 1
        else:
            streak = 0
    raise NoConvergenceError(
        f"oracle pFq stop rule did not fire within {_MAX_TERMS} terms "
        f"(z={mp.nstr(z, 8)})")


def hp_pfq(upper: Sequence[float], lower: Sequence[float], z,
           digits: int = 30) -> tuple[str, str]:
    """High-precision pFq with arbitrary real upper parameters."""
    digits = _check_digits(digits)
    p, q = len(upper), len(lower)
    if p > q + 1:
        raise DivergentSeriesError(f"pFq with p={p} > q+1={q + 1} diverges")
    if p == q + 1 and abs(z) >= 1.0:
        raise DivergentSeriesError(f"pFq with p = q+1 needs |z| < 1, got z={z!r}")
    with mp.workdps(digits + 10):
        value, tail, _ = _hp_pfq_mpf(upper, lower, z)
        return mp.nstr(value, digits), mp.nstr(tail, 10)
