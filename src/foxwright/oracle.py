"""High-precision reference oracle.

Every series here is recomputed from scratch in mpmath arbitrary-precision
arithmetic: term k is z^k / k!, stepped as p_k = p_{k-1} z / k, times
Gamma factors from mp.gamma; a factor whose argument exceeds another's of
the same weight by an exact integer m <= 4 is taken from that one by
Gamma(x + 1) = x Gamma(x), and a zero-weight factor is formed once.
Accumulation is plain mpf addition (no running-scale or compensation
tricks), and the stop rule is a geometric tail estimate against the
requested digit count.  Series summed together share z^k / k! and each
Gamma factor per k, but keep their own totals and stop rules; a sum whose
terms cancel into its guard digits is re-run at a higher precision.
Nothing is shared with the double-precision engine, so agreement between
the two is meaningful evidence.
"""

from __future__ import annotations

import math
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
_GUARD = 10  # working digits kept beyond the requested ones
_MAX_DPS = 2000  # no cancellation re-run goes beyond this working precision


def _check_digits(digits: int) -> int:
    digits = int(digits)
    if not 30 <= digits <= 200:
        raise DomainError(f"digits must lie in [30, 200], got {digits}")
    return digits


def _settled(result, rerun):
    """(value, tail, terms) of ``result`` = (value, tail, terms, peak =
    max |t_k|), summed again by ``rerun()`` at a higher working precision
    while the digits lost, log10(peak / |value|) + 2 log10(terms), leave
    less than one guard digit: one log10(terms) for the additions, one for
    the k roundings in term k's stepped prefactor."""
    base = dps = mp.mp.dps
    while True:
        value, tail, terms, peak = result
        lost = (0.0 if peak == 0 else math.inf if value == 0 else
                float(mp.log10(peak / abs(value))) + 2 * math.log10(terms))
        if lost <= dps - base + _GUARD - 1:
            return value, tail, terms
        if base + lost > _MAX_DPS:
            raise NoConvergenceError(
                f"oracle sum lost {lost:.1f} digits to cancellation; a re-run "
                f"would pass the cap of {_MAX_DPS} working digits")
        dps = base + math.ceil(lost)
        with mp.workdps(dps):
            result = rerun()


def _lockstep(jobs, rel_stop):
    """Sum (params, z, start) jobs in lockstep over k in the active context.

    Returns one (value, tail_estimate, terms_used, peak) per job.  Term k is
    prod Gamma(alpha + k A) / prod Gamma(beta + k B) * z^k / k!, its factors
    formed once per k and shared by the jobs that use them.
    """
    jobs = [(params, mp.mpf(z), start) for params, z, start in jobs]
    # arguments formed in mpf arithmetic: a + k*w rounded to a double
    # would shift the term log by psi(x) * ulp, ~1e-12 for late terms
    args = {pair: (mp.mpf(pair[0]), mp.mpf(pair[1]))
            for params, _, _ in jobs for pair in params.upper + params.lower}
    fixed = {pair: mp.gamma(a) for pair, (a, w) in args.items() if w == 0}
    # (m, partner): a pair whose value exceeds a partner's of the same
    # weight by exactly m in 1..4 takes Gamma(x + m) = x (x+1) ... (x+m-1)
    # Gamma(x) from it; any other pair is its own partner at m = 0
    partner = {pair: min([(a - b, low) for low, (b, v) in args.items()
                          if v == w != 0 and a - b in (1, 2, 3, 4)],
                         default=(0, pair))
               for pair, (a, w) in args.items()}
    # small ints stand for each job's (params, z) and z: cheap dict keys
    seen = {}
    ids = [(seen.setdefault((p, z), len(seen)), seen.setdefault(z, len(seen)))
           for p, z, _ in jobs]
    # z^k / k! stepped from k = 0 for every z, whatever its jobs' starts
    powers = {zi: mp.mpf(1) for _, zi in ids}
    zs = {zi: z for (_, z, _), (_, zi) in zip(jobs, ids)}

    def gamma(pair):
        # Gamma(a + k w) of a pair at this k, formed once
        if pair not in gammas:
            m, low = partner[pair]
            x = args[low][0] + k * args[low][1]
            g = gamma(low) if m else mp.gamma(x)
            for i in range(int(m)):
                g *= x + i
            gammas[pair] = g
        return gammas[pair]

    # per job: [total, |previous term|, tail, streak, terms, peak]
    state = [[mp.mpf(0), None, mp.mpf(0), 0, 0, mp.mpf(0)] for _ in jobs]
    live, k = list(range(len(jobs))), 0
    while live:
        if k:
            for zi in {ids[j][1] for j in live}:
                powers[zi] = powers[zi] * zs[zi] / k
        gammas, terms = dict(fixed), {}
        for j in [j for j in live if jobs[j][2] <= k]:
            params, (pz, zi) = jobs[j][0], ids[j]
            if pz not in terms:
                t = powers[zi]
                for pair in params.upper:
                    t *= gamma(pair)
                for pair in params.lower:
                    t /= gamma(pair)
                terms[pz] = t, abs(t)
            t, at = terms[pz]
            s = state[j]
            s[0] += t
            s[4] += 1
            s[5] = max(s[5], at)
            prev, s[1] = s[1], at
            # the geometric tail test at r / (1 - r) <= rel |S|, r = at / prev,
            # without dividing: at < prev and at^2 <= rel |S| (prev - at)
            settling = prev is not None and (at < prev or at == 0) and (
                at * at <= rel_stop * abs(s[0]) * (prev - at))
            s[3] = s[3] + 1 if settling else 0
            if s[3] >= 3:
                s[2] = at * at / (prev - at) if at else mp.mpf(0)
            if s[3] >= 3 or s[4] >= _MAX_TERMS:
                live.remove(j)
        k += 1
    for (_, z, start), s in zip(jobs, state):
        if s[3] < 3:
            raise NoConvergenceError(
                f"oracle stop rule did not fire within {_MAX_TERMS} terms "
                f"(start={start}, z={mp.nstr(z, 8)})")
    return [(s[0], s[2], s[4], s[5]) for s in state]


def _hp_sums(jobs, rel_stop):
    """One (value, tail, terms) per (params, z, start) job, summed together
    from index start; a job that cancelled into its guard is re-run alone."""
    return [_settled(res, lambda job=job: _lockstep([job], rel_stop)[0])
            for job, res in zip(jobs, _lockstep(jobs, rel_stop))]


def hp_eval(params: FoxWrightParams, z, digits: int = 30,
            start: int = 0) -> tuple[str, str]:
    """Evaluate the series to ``digits`` significant digits.

    Returns decimal strings (value, tail_estimate).  Summing at digits + 10
    and again higher whenever cancellation uses more than 9 of those guard
    digits keeps the printed digits trustworthy (NoConvergenceError past
    2000 working digits).  ``start`` sums the tail from that index onward
    instead of the whole series.
    """
    digits = _check_digits(digits)
    if params.epsilon() <= 0.0:
        raise DivergentSeriesError(
            f"divergent series: epsilon = {params.epsilon():.6g} <= 0")
    with mp.workdps(digits + _GUARD):
        (value, tail, _), = _hp_sums([(params, z, start)],
                                     mp.mpf(10) ** (-digits))
        return mp.nstr(value, digits), mp.nstr(tail, 10)


def _pfq_sum(upper: Sequence[float], lower: Sequence[float], z, rel_stop):
    """pFq by Pochhammer recurrence in the active mp context.

    Accepts arbitrary real upper parameters (terminating series included).
    Returns (value, tail_estimate, terms_used, peak).
    """
    z = mp.mpf(z)
    upper, lower = [mp.mpf(a) for a in upper], [mp.mpf(b) for b in lower]
    term = mp.mpf(1)
    total = mp.mpf(0)
    peak = mp.mpf(0)
    streak = 0
    for k in range(_MAX_TERMS):
        total += term
        peak = max(peak, abs(term))
        num = mp.mpf(1)
        for a in upper:
            num *= a + k
        den = mp.mpf(k + 1)
        for b in lower:
            den *= b + k
        nxt = term * num / den * z
        ratio = abs(nxt) / abs(term) if term != 0 else mp.mpf(0)
        term = nxt
        if ratio < 1:
            # the terms from k + 1 on, while no later ratio exceeds this one
            tail = abs(term) / (1 - ratio)
            if tail <= rel_stop * abs(total) or term == 0:
                streak += 1
            else:
                streak = 0
            if streak >= 3:
                return total, tail, k + 1, peak
        else:
            streak = 0
    raise NoConvergenceError(
        f"oracle pFq stop rule did not fire within {_MAX_TERMS} terms "
        f"(z={mp.nstr(z, 8)})")


def _hp_pfq_mpf(upper: Sequence[float], lower: Sequence[float], z,
                rel_stop):
    """_pfq_sum re-run as _hp_sums does under cancellation."""
    def run():
        return _pfq_sum(upper, lower, z, rel_stop)
    return _settled(run(), run)


def hp_pfq(upper: Sequence[float], lower: Sequence[float], z,
           digits: int = 30) -> tuple[str, str]:
    """High-precision pFq with arbitrary real upper parameters."""
    digits = _check_digits(digits)
    p, q = len(upper), len(lower)
    if p > q + 1:
        raise DivergentSeriesError(f"pFq with p={p} > q+1={q + 1} diverges")
    if p == q + 1 and abs(z) >= 1.0:
        raise DivergentSeriesError(f"pFq with p = q+1 needs |z| < 1, got z={z!r}")
    with mp.workdps(digits + _GUARD):
        value, tail, _ = _hp_pfq_mpf(upper, lower, z,
                                     mp.mpf(10) ** (-digits))
        return mp.nstr(value, digits), mp.nstr(tail, 10)
