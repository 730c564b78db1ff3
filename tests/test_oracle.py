"""High-precision oracle."""

import dataclasses

import mpmath as mp
import pytest
from mpmath import libmp

from foxwright import (
    DivergentSeriesError,
    DomainError,
    FoxWrightParams,
    GridSpec,
    NoConvergenceError,
    evaluate,
    hp_eval,
    hp_pfq,
    oracle,
    run_suite,
)
from foxwright.suites import hp_margin

P1 = FoxWrightParams(upper=((1.3, 0.7), (2.1, 1.4)),
                     lower=((0.9, 1.1), (1.7, 0.8)))


def test_hp_eval_exp_digits():
    value, tail = hp_eval(FoxWrightParams(), 1.0)
    assert value.startswith("2.7182818284590452353602874713")
    assert float(tail) < 1e-29


def test_hp_eval_matches_independent_summation():
    value, _ = hp_eval(P1, 3.5, digits=40)
    assert abs(float(value) - 2268.331703814246509501) <= 1e-12 * 2268.0


def test_hp_eval_digit_bounds():
    with pytest.raises(DomainError):
        hp_eval(FoxWrightParams(), 1.0, digits=10)
    with pytest.raises(DomainError):
        hp_eval(FoxWrightParams(), 1.0, digits=500)


def test_hp_eval_agrees_with_fast_path():
    for z in (0.1, 1.0, 4.4, 9.7):
        fast = evaluate(P1, z)
        slow = float(hp_eval(P1, z)[0])
        assert abs(fast.value - slow) <= fast.tail_bound + 1e-13 * abs(slow)


def test_hp_eval_divergent():
    with pytest.raises(DivergentSeriesError):
        hp_eval(FoxWrightParams(upper=((1.0, 2.0),)), 1.0)


def test_hp_pfq_values_and_gates():
    ref = float(mp.hyper([0.7], [1.9, 2.4], 3.0))
    assert abs(float(hp_pfq((0.7,), (1.9, 2.4), 3.0)[0]) - ref) <= 1e-12 * ref
    with pytest.raises(DivergentSeriesError):
        hp_pfq((1.0, 1.0, 1.0), (2.0,), 0.5)
    with pytest.raises(DivergentSeriesError):
        hp_pfq((1.0, 1.0), (2.0,), 1.5)


# z < 0: the terms of this series reach about 2.4e69 while the sum is
# 1.16e-5, so about 74 digits cancel; summed at only 40 working digits it
# read 2.2165e27
P_CANCEL = FoxWrightParams(upper=((3.5024212894782467, 0.5830188472688517),))
Z_CANCEL = -15.59813889629372


def test_hp_eval_reruns_when_cancellation_eats_the_guard_digits():
    value, _ = hp_eval(P_CANCEL, Z_CANCEL, 30)
    ref = 1.1570301355724187e-05
    assert abs(float(value) - ref) <= 1e-13 * ref


def test_hp_pfq_reruns_when_cancellation_eats_the_guard_digits():
    # 1F1(1/2; 3/2; -80): terms near 2.5e33 sum to 0.099
    value, _ = hp_pfq((0.5,), (1.5,), -80.0, 30)
    with mp.workdps(100):
        ref = mp.hyp1f1(0.5, 1.5, -80)
        assert abs(mp.mpf(value) - ref) <= mp.mpf(10) ** -29 * abs(ref)


def test_cancellation_past_the_working_digit_cap_raises(monkeypatch):
    # the first re-run would need about 84 working digits
    monkeypatch.setattr(oracle, "_MAX_DPS", 60)
    with pytest.raises(NoConvergenceError, match="cancellation"):
        hp_eval(P_CANCEL, Z_CANCEL, 30)


def test_lockstep_jobs_match_the_same_jobs_summed_alone():
    n = 4
    jobs = [(P1, 9.7, n + 1), (P1, 9.7, n + 2), (P1, 9.7, n + 3),
            (P1, 0.9, n + 1), (P1, 0.9, n + 1), (P1.shifted(), 9.7, 0),
            (P1, 9.7, 40), (P1, 1e-7, 0)]
    with mp.workdps(40):
        rs = mp.mpf(10) ** -30
        together = oracle._hp_sums(jobs, rs)
        alone = [oracle._hp_sums([job], rs)[0] for job in jobs]
    assert together == alone
    # the small-z job stopped ten times earlier than the slowest one
    assert 10 * together[-1][2] <= max(terms for _, _, terms in together)


def test_lockstep_job_that_never_settles_raises(monkeypatch):
    # the other jobs settle within 200 terms; the error names the one that
    # did not
    monkeypatch.setattr(oracle, "_MAX_TERMS", 200)
    divergent = FoxWrightParams(upper=((1.0, 2.0),))
    with mp.workdps(40), pytest.raises(NoConvergenceError, match="start=7"):
        oracle._hp_sums([(P1, 1.0, 0), (divergent, 1.0, 7), (P1, 2.0, 3)],
                        mp.mpf(10) ** -30)


def test_turan_alpha_takes_unit_shifted_gammas_from_their_partner(
        monkeypatch):
    # shape (1, 1): three upper columns a1, a1 + 1, a1 + 2 and one shared
    # lower column
    row = run_suite("turan-alpha", GridSpec(samples=6, seed=2))[3]
    assert len(row.params_echo["upper"]) == len(row.params_echo["lower"]) == 1
    params = FoxWrightParams.from_json(row.params_echo)
    a1 = params.upper[0][0]
    # 0.1 + 1.0 rounds, so 1.1 keeps its own Gamma; 2.1 - 1.1 is exact
    inexact = dataclasses.replace(row, params_echo=dict(
        row.params_echo, upper=[[0.1, params.upper[0][1]]]))

    def count(report, a):
        jobs = [(params.with_upper_value(0, v), report.z, 0)
                for v in (a, a + 1.0, a + 2.0)]
        with mp.workdps(40):
            terms = [t for _, _, t in oracle._hp_sums(jobs, mp.mpf(10) ** -30)]
        # the libmp names of Gamma, the factorial and powers, counted where
        # the oracle would call them: as names of its own module
        calls = dict.fromkeys(("mpf_gamma", "mpf_factorial", "mpf_pow",
                               "mpf_pow_int"), 0)

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        with monkeypatch.context() as m:
            for name in calls:
                m.setattr(oracle, name, counted(name, getattr(libmp, name)),
                          raising=False)
            hp_margin(report, 30)
        return terms, calls

    # a1 + 1 and a1 + 2 are exact: per k one Gamma for a1, one for the
    # lower column, and neither a factorial nor a power
    terms, got = count(row, a1)
    assert got == {"mpf_gamma": 2 * max(terms), "mpf_factorial": 0,
                   "mpf_pow": 0, "mpf_pow_int": 0}
    assert got["mpf_gamma"] == 60
    # per k one Gamma for the lower column, one for 0.1 while its series
    # runs, and one for 1.1 while its series or that of 2.1 runs
    terms, got = count(inexact, 0.1)
    assert got == {"mpf_gamma": max(terms) + terms[0] + max(terms[1:]),
                   "mpf_factorial": 0, "mpf_pow": 0, "mpf_pow_int": 0}
    assert got["mpf_gamma"] == 88


def test_stepped_prefactor_keeps_thirty_digits_over_long_sums():
    # exp: about 1,700 stepped terms with no Gamma factor, and at z < 0 a
    # sum that cancels into its guard digits and is re-run
    for z in (600, -40):
        value, _ = hp_eval(FoxWrightParams(), float(z), 30)
        with mp.workdps(60):
            ref = mp.exp(z)
            assert abs(mp.mpf(value) - ref) <= mp.mpf(10) ** -29 * ref


def test_unit_shifted_factors_match_each_series_summed_alone():
    # a Turan triple in one call: its a + 1 and a + 2 factors come from the
    # partner a where the shift is exact (1.25), and from 1.1 where
    # 0.1 + 1.0 rounds
    for a in (1.25, 0.1):
        jobs = [(P1.with_upper_value(0, v), 6.3, 0)
                for v in (a, a + 1.0, a + 2.0)]
        with mp.workdps(40):
            together = oracle._hp_sums(jobs, mp.mpf(10) ** -30)
            for (params, z, _), (value, _, _) in zip(jobs, together):
                alone = mp.mpf(hp_eval(params, z, 30)[0])
                assert abs(value - alone) <= mp.mpf(10) ** -29 * abs(alone)
