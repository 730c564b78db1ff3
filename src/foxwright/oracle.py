"""High-precision reference oracle.

Every series here is recomputed from scratch in mpmath arbitrary-precision
arithmetic: term k is z^k / k!, stepped as p_k = p_{k-1} z / k, times Gamma
factors from libmp's mpf_gamma; a factor whose argument exceeds another's
of the same weight by an exact integer m <= 4 is taken from that one by
Gamma(x + 1) = x Gamma(x), and a zero-weight factor is formed once.
Accumulation is plain addition (no running-scale or compensation tricks),
and the stop rule is a geometric tail estimate against the requested digit
count.  Both summation kernels work on raw libmp values: each step is the
libmp call that mpf arithmetic makes, at the context's precision and
rounding, so the bits are those of mpf arithmetic.  Series summed together
share z^k / k! and each Gamma factor per k, but keep their own totals and
stop rules; a sum whose terms cancel into its guard digits is re-run at a
higher precision.  Nothing is shared with the double-precision engine, so
agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import math
from typing import Sequence

import mpmath as mp
from mpmath.libmp import (fone, from_int, fzero, mpf_abs, mpf_add, mpf_div,
                          mpf_eq, mpf_gamma, mpf_gt, mpf_le, mpf_lt, mpf_mul,
                          mpf_mul_int, mpf_sub)

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
    (prec, rnd), rel_stop = mp.mp._prec_rounding, rel_stop._mpf_
    jobs = [(params, mp.mpf(z)._mpf_, start) for params, z, start in jobs]
    # arguments formed in mpf arithmetic: a + k*w rounded to a double
    # would shift the term log by psi(x) * ulp, ~1e-12 for late terms
    args = {pair: (mp.mpf(pair[0])._mpf_, mp.mpf(pair[1])._mpf_)
            for params, _, _ in jobs for pair in params.upper + params.lower}
    fixed = {pair: mpf_gamma(a, prec, rnd)
             for pair, (a, w) in args.items() if w == fzero}
    # (m, partner): a pair whose value exceeds a partner's of the same
    # weight by exactly m in 1..4 takes Gamma(x + m) = x (x+1) ... (x+m-1)
    # Gamma(x) from it; any other pair is its own partner at m = 0
    shift = {from_int(m): m for m in (1, 2, 3, 4)}.get
    partner = {pair: min([(m, low) for low, (b, v) in args.items()
                          if v == w != fzero
                          and (m := shift(mpf_sub(a, b, prec, rnd)))],
                         default=(0, pair))
               for pair, (a, w) in args.items()}
    # small ints stand for each job's (params, z) and z: cheap dict keys
    seen = {}
    ids = [(seen.setdefault((p, z), len(seen)), seen.setdefault(z, len(seen)))
           for p, z, _ in jobs]
    # z^k / k! stepped from k = 0 for every z, whatever its jobs' starts
    powers = {zi: fone for _, zi in ids}
    zs = {zi: z for (_, z, _), (_, zi) in zip(jobs, ids)}

    def gamma(pair):
        # Gamma(a + k w) of a pair at this k, formed once, as is x = a + k w
        if pair not in gammas:
            m, low = partner[pair]
            if low not in xs:
                a, w = args[low]
                xs[low] = mpf_add(a, mpf_mul_int(w, k, prec, rnd), prec, rnd)
            x = xs[low]
            g = gamma(low) if m else mpf_gamma(x, prec, rnd)
            for i in range(m):
                g = mpf_mul(g, mpf_add(x, from_int(i), prec, rnd), prec, rnd)
            gammas[pair] = g
        return gammas[pair]

    # per job: [total, |previous term|, tail, streak, terms, peak]
    state = [[fzero, None, fzero, 0, 0, fzero] for _ in jobs]
    live, k = list(range(len(jobs))), 0
    while live:
        if k:
            for zi in {ids[j][1] for j in live}:
                powers[zi] = mpf_div(mpf_mul(powers[zi], zs[zi], prec, rnd),
                                     from_int(k), prec, rnd)
        gammas, xs, terms = dict(fixed), {}, {}
        for j in [j for j in live if jobs[j][2] <= k]:
            params, (pz, zi) = jobs[j][0], ids[j]
            if pz not in terms:
                t = powers[zi]
                for pair in params.upper:
                    t = mpf_mul(t, gamma(pair), prec, rnd)
                for pair in params.lower:
                    t = mpf_div(t, gamma(pair), prec, rnd)
                terms[pz] = t, mpf_abs(t, prec, rnd)
            t, at = terms[pz]
            s = state[j]
            s[0] = mpf_add(s[0], t, prec, rnd)
            s[4] += 1
            s[5] = at if mpf_gt(at, s[5]) else s[5]
            prev, s[1] = s[1], at
            # the geometric tail test at r / (1 - r) <= rel |S|, r = at / prev,
            # without dividing: at < prev and at^2 <= rel |S| (prev - at)
            settling = prev is not None and (
                mpf_lt(at, prev) or mpf_eq(at, fzero)) and mpf_le(
                mpf_mul(at, at, prec, rnd),
                mpf_mul(mpf_mul(rel_stop, mpf_abs(s[0], prec, rnd), prec, rnd),
                        mpf_sub(prev, at, prec, rnd), prec, rnd))
            s[3] = s[3] + 1 if settling else 0
            if s[3] >= 3:
                s[2] = (mpf_div(mpf_mul(at, at, prec, rnd),
                                mpf_sub(prev, at, prec, rnd), prec, rnd)
                        if at != fzero else fzero)
            if s[3] >= 3 or s[4] >= _MAX_TERMS:
                live.remove(j)
        k += 1
    for (_, z, start), s in zip(jobs, state):
        if s[3] < 3:
            raise NoConvergenceError(
                f"oracle stop rule did not fire within {_MAX_TERMS} terms "
                f"(start={start}, z={mp.nstr(mp.make_mpf(z), 8)})")
    return [(mp.make_mpf(s[0]), mp.make_mpf(s[2]), s[4], mp.make_mpf(s[5]))
            for s in state]


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
    prec, rnd = mp.mp._prec_rounding
    rel_stop, z = rel_stop._mpf_, mp.mpf(z)._mpf_
    upper, lower = ([mp.mpf(v)._mpf_ for v in vs] for vs in (upper, lower))
    term, total, peak, streak = fone, fzero, fzero, 0
    for k in range(_MAX_TERMS):
        total = mpf_add(total, term, prec, rnd)
        at = mpf_abs(term, prec, rnd)
        peak = at if mpf_gt(at, peak) else peak
        num, den, ik = fone, from_int(k + 1), from_int(k)
        for a in upper:
            num = mpf_mul(num, mpf_add(a, ik, prec, rnd), prec, rnd)
        for b in lower:
            den = mpf_mul(den, mpf_add(b, ik, prec, rnd), prec, rnd)
        nxt = mpf_mul(mpf_div(mpf_mul(term, num, prec, rnd), den, prec, rnd),
                      z, prec, rnd)
        ratio = (mpf_div(mpf_abs(nxt, prec, rnd), at, prec, rnd)
                 if not mpf_eq(term, fzero) else fzero)
        term = nxt
        if mpf_lt(ratio, fone):
            # the terms from k + 1 on, while no later ratio exceeds this one
            tail = mpf_div(mpf_abs(term, prec, rnd),
                           mpf_sub(fone, ratio, prec, rnd), prec, rnd)
            if mpf_le(tail, mpf_mul(rel_stop, mpf_abs(total, prec, rnd),
                                    prec, rnd)) or mpf_eq(term, fzero):
                streak += 1
            else:
                streak = 0
            if streak >= 3:
                return (mp.make_mpf(total), mp.make_mpf(tail), k + 1,
                        mp.make_mpf(peak))
        else:
            streak = 0
    raise NoConvergenceError(
        f"oracle pFq stop rule did not fire within {_MAX_TERMS} terms "
        f"(z={mp.nstr(mp.make_mpf(z), 8)})")


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
