"""The oracle's libmp kernels against the mpf-object kernels they replace.

``oracle._lockstep`` and ``oracle._pfq_sum`` run on raw libmp values with
the context's precision and rounding, making the calls that mpf arithmetic
makes.  The mpf-object kernels below are the reference: every value,
tail, peak and term count must match theirs bit for bit.
"""

import mpmath as mp
import numpy as np
import pytest

from foxwright import FoxWrightParams, GridSpec, NoConvergenceError, run_suite
from foxwright import oracle
from foxwright.suites import _HP, SUITES, hp_margin

# --- the reference: the kernels in mpf-object arithmetic --------------------


def _lockstep_mpf(jobs, rel_stop):
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
            if s[3] >= 3 or s[4] >= oracle._MAX_TERMS:
                live.remove(j)
        k += 1
    for (_, z, start), s in zip(jobs, state):
        if s[3] < 3:
            raise NoConvergenceError(
                f"oracle stop rule did not fire within {oracle._MAX_TERMS} "
                f"terms "
                f"(start={start}, z={mp.nstr(z, 8)})")
    return [(s[0], s[2], s[4], s[5]) for s in state]


def _pfq_sum_mpf(upper, lower, z, rel_stop):
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
    for k in range(oracle._MAX_TERMS):
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
        f"oracle pFq stop rule did not fire within {oracle._MAX_TERMS} terms "
        f"(z={mp.nstr(z, 8)})")


# --- the kernels against it -------------------------------------------------

def _bits(results):
    return [(v._mpf_, t._mpf_, n, p._mpf_) for v, t, n, p in results]


def _job_sets(n):
    """(jobs, pFq case) pairs: one to four Fox-Wright jobs of one shape,
    with unit-shifted partners (exact, and inexact as 0.1 + 1.0 is), zero
    weights, starts > 0, z < 0 and several z in one call; and a pFq case,
    every fourth with a terminating upper parameter."""
    rng = np.random.default_rng(36)
    for i in range(n):
        p, q = int(rng.integers(1, 3)), int(rng.integers(0, 3))

        def pair(weight):
            w = 0.0 if rng.random() < 0.15 else float(rng.uniform(*weight))
            return float(rng.uniform(0.1, 4.0)), w

        upper = [pair((0.1, 0.6)) for _ in range(p)]
        params = FoxWrightParams(tuple(upper),
                                 tuple(pair((0.3, 1.5)) for _ in range(q)))
        if params.epsilon() < 0.4:  # a slow series: drop a pair
            params = FoxWrightParams(params.upper[:1], params.lower)
        zs = [float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 4.0))
              for _ in range(2)]
        # shifted copies of the first upper value, or of the first lower one,
        # from 0.1 in every third set, whose + 1.0 rounds
        side = "lower" if q and i % 2 else "upper"
        a = 0.1 if i % 3 == 0 else getattr(params, side)[0][0]
        put = getattr(params, f"with_{side}_value")
        jobs = [(put(0, a + m), zs[j % 2], int(rng.choice([0, 0, 3])))
                for j, m in enumerate([0.0, *rng.choice(
                    [1.0, 2.0, 3.0, 4.0], int(rng.integers(0, 4)))])]
        pu = [float(v) for v in rng.uniform(-3.0, 3.0, int(rng.integers(0, 3)))]
        if pu and i % 4 == 0:
            pu[0] = -float(rng.integers(0, 6))
        pl = [float(v) for v in rng.uniform(0.2, 3.0, len(pu) + int(
            rng.integers(0, 2)))]
        yield jobs, (pu, pl, zs[0])


# the working precision, and a re-run precision on every other set
@pytest.mark.parametrize("dps, every", [(40, 1), (84, 2)])
def test_kernels_keep_the_bits_of_mpf_arithmetic(dps, every):
    sets = list(_job_sets(100))[::every]
    with mp.workdps(dps):
        rs = mp.mpf(10) ** -30
        for jobs, (pu, pl, z) in sets:
            assert _bits(oracle._lockstep(jobs, rs)) == _bits(
                _lockstep_mpf(jobs, rs)), jobs
            assert _bits([oracle._pfq_sum(pu, pl, z, rs)]) == _bits(
                [_pfq_sum_mpf(pu, pl, z, rs)]), (pu, pl, z)


def test_hp_margin_keeps_its_bits_on_every_recipe(monkeypatch):
    # two rows of each of the twelve recipes
    rows = {}
    for suite_id in SUITES:
        for row in run_suite(suite_id, GridSpec(samples=6, seed=1)):
            if row.status == "ok":
                rows.setdefault(row.suite_id, []).append(row)
    assert set(rows) == set(_HP) and min(map(len, rows.values())) >= 2
    picked = [row for same in rows.values() for row in same[:2]]
    got = [float.hex(hp_margin(row, 30)) for row in picked]
    monkeypatch.setattr(oracle, "_lockstep", _lockstep_mpf)
    monkeypatch.setattr(oracle, "_pfq_sum", _pfq_sum_mpf)
    assert got == [float.hex(hp_margin(row, 30)) for row in picked]
