"""Series engine: evaluation variants, tails, derivatives, error handling."""

import json
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foxwright import (
    DivergentSeriesError,
    DomainError,
    FoxWrightError,
    FoxWrightParams,
    MittagLefflerParams,
    NoConvergenceError,
    ParameterError,
    EvalResult,
    TailSpec,
    dbeta1,
    derivative,
    evaluate,
    evaluate_normalized,
    evaluate_tail,
    evaluate_tilde,
    hp_eval,
    kn_ratio,
    kn_value_and_bound,
    log_term,
    mittag_leffler,
    pfq_direct,
    tail_turan_check,
    turan_alpha_check,
    turan_beta_check,
    wright,
)
from foxwright import batch, ddmath, gammakit, series, window
from foxwright.series import PfqRequest

# generic reference instance; values from 40-digit summation of the
# defining gamma-product series
P1 = FoxWrightParams(upper=((1.3, 0.7), (2.1, 1.4)),
                     lower=((0.9, 1.1), (1.7, 0.8)))
P1_VALUE = 2268.331703814246509501
P1_TILDE = 2424.004364623122531515
P1_NORM = 2345.152055786311096090
P1_TAIL2 = 2225.456509495885624885
P1_DERIV_Z2 = 181.0398207072556463930
P1_DBETA1_Z2 = -127.5881215387268034194


def _rel(got, ref):
    return abs(got - ref) / max(1.0, abs(ref))


def test_empty_params_is_exp():
    res = evaluate(FoxWrightParams(), 1.0)
    assert _rel(res.value, math.e) <= 1e-14
    assert res.terms_used < 40
    assert res.tail_bound <= 1e-14
    assert res.sign == 1
    assert abs(res.log_magnitude - 1.0) <= 1e-12


def test_exp_negative_and_zero():
    assert evaluate(FoxWrightParams(), 0.0).value == 1.0
    res = evaluate(FoxWrightParams(), -5.0)
    assert _rel(res.value, math.exp(-5.0)) <= 1e-11
    # alternating series: cancellation must show up in the conditioning
    assert res.condition_estimate > 1e3


def test_one_one_over_one_one_is_exp():
    params = FoxWrightParams(upper=((1.0, 1.0),), lower=((1.0, 1.0),))
    for z in (0.3, 1.0, 4.2):
        assert _rel(evaluate(params, z).value, math.exp(z)) <= 1e-13


def test_generic_value():
    res = evaluate(P1, 3.5)
    assert _rel(res.value, P1_VALUE) <= 5e-13
    assert res.value == pytest.approx(P1_VALUE, rel=5e-13)
    assert abs(res.value - P1_VALUE) <= res.tail_bound + 1e-12 * P1_VALUE


def test_generic_tilde_and_normalized():
    assert _rel(evaluate_tilde(P1, 3.5).value, P1_TILDE) <= 5e-13
    assert _rel(evaluate_normalized(P1, 3.5).value, P1_NORM) <= 5e-13


def test_normalized_is_one_at_zero():
    assert evaluate_normalized(P1, 0.0).value == pytest.approx(1.0, abs=1e-15)


_P_ZERO = FoxWrightParams(((1.5, 0.7),), ((2.5, 1.2), (0.8, 0.4)))
_ONE = "0x1.0000000000000p+0"

# (call, terms_used, sign, float.hex of value, tail_bound,
# condition_estimate, log_magnitude) at z = 0
ZERO_GOLDEN = {
    "tilde": (lambda: evaluate_tilde(_P_ZERO, 0.0), 1, 1,
              ("0x1.85bdb9a94c848p-1", "0x0.0p+0", _ONE,
               "-0x1.1763df096506cp-2")),
    "derivative": (lambda: derivative(_P_ZERO, 0.0), 1, 1,
                   ("0x1.26a1554575f06p-2", "0x0.0p+0", _ONE,
                    "-0x1.3ee985bf908b8p+0")),
    # -psi(2.5) * t0 < 0 and -psi(1.2) * t0 > 0
    "dbeta1-negative": (lambda: dbeta1(_P_ZERO, 0.0), 1, -1,
                        ("-0x1.9c4eee357a551p-2", "0x0.0p+0", _ONE,
                         "-0x1.d1c43f93cdb61p-1")),
    "dbeta1-positive": (
        lambda: dbeta1(FoxWrightParams(((1.5, 0.7),), ((1.2, 1.2),)), 0.0),
        1, 1, ("0x1.1dae238c1a32dp-2", "0x0.0p+0", _ONE,
               "-0x1.46cf2c180a6d1p+0")),
    "tail-full": (lambda: evaluate_tail(_P_ZERO, TailSpec(-1), 0.0), 1, 1,
                  ("0x1.252f0fde865f7p-1", "0x0.0p+0", _ONE,
                   "-0x1.1d73e38985c2ap-1")),
    "tail-0": (lambda: evaluate_tail(_P_ZERO, TailSpec(0), 0.0), 0, 0,
               ("0x0.0p+0", "0x0.0p+0", _ONE, "-inf")),
    "tail-3": (lambda: evaluate_tail(_P_ZERO, TailSpec(3), 0.0), 0, 0,
               ("0x0.0p+0", "0x0.0p+0", _ONE, "-inf")),
    "log-mode": (
        lambda: series._sum_series(
            series.Request(FoxWrightParams(((200.0, 0.5),)), 0.0), True),
        1, 1, ("inf", "0x0.0p+0", _ONE, "0x1.acf7827e2ba8fp+9")),
}


@pytest.mark.parametrize("case", sorted(ZERO_GOLDEN))
def test_single_calls_at_zero_match_recorded_bits(case):
    call, terms, sign, fields = ZERO_GOLDEN[case]
    res = call()
    assert (res.terms_used, res.sign) == (terms, sign)
    got = (res.value, res.tail_bound, res.condition_estimate, res.log_magnitude)
    assert tuple(float.hex(x) for x in got) == fields


@pytest.mark.parametrize("call, lower, log_mag", [
    (evaluate, (), "857.934"),
    (derivative, (), "860.582"),
    (dbeta1, ((3.0, 1.0),), "857.16"),
])
def test_value_overflow_at_zero_names_its_log_magnitude(call, lower, log_mag):
    msg = (f"series value has log-magnitude {log_mag}, beyond double range; "
           "evaluate_batch returns its log-magnitude")
    with pytest.raises(OverflowError, match=f"^{re.escape(msg)}$"):
        call(FoxWrightParams(((200.0, 0.5),), lower), 0.0)


def _zero_test_params(rng):
    # a lower pair first (tilde and dbeta1 need one), values in [0.1, 5],
    # and upper weights that keep epsilon >= 0.3
    p, q = rng.integers(0, 3), rng.integers(1, 3)
    lower = tuple(zip(rng.uniform(0.1, 5.0, q).tolist(),
                      rng.uniform(0.0, 1.5, q).tolist()))
    room = (sum(w for _, w in lower) + 0.7) / max(p, 1)
    upper = tuple(zip(rng.uniform(0.1, 5.0, p).tolist(),
                      (room * rng.random(p)).tolist()))
    return FoxWrightParams(upper, lower)


@pytest.mark.parametrize("call", [evaluate, evaluate_normalized,
                                  evaluate_tilde, dbeta1, derivative])
def test_z_zero_gives_the_result_of_a_tiny_z(call):
    # at z = 1e-300 only term 0 reaches the sum, so z = 0 must give the
    # same value and log-magnitude bit for bit
    rng = np.random.default_rng(30)
    for _ in range(200):
        params = _zero_test_params(rng)
        zero, tiny = call(params, 0.0), call(params, 1e-300)
        assert (float.hex(zero.value), float.hex(zero.log_magnitude)) == (
            float.hex(tiny.value), float.hex(tiny.log_magnitude)), params
        if call is evaluate_normalized:
            assert zero.log_magnitude == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z", [2.0, 0.0, 30.0, 300.0])
def test_series_of_zero_terms_sums_to_zero(z):
    # psi is exactly 0 at 1.4616321449683622, so with B_1 = 0 every term of
    # dbeta1 is 0: the sum is zero, not a tiny number, also where a saddle
    # window drops back to the plain sum (at 30 with the upper pair, whose
    # window sums two terms before k0, and at 300 without it)
    zero = 1.4616321449683622
    assert gammakit.digamma(zero) == 0.0
    for upper in ((), ((0.3, 0.5),)):
        res = dbeta1(FoxWrightParams(upper, ((zero, 0.0),)), z)
        assert (res.value, res.log_magnitude, res.sign) == (0.0, -math.inf, 0)
    assert _win(FoxWrightParams(((0.3, 0.5),), ((zero, 0.0),)), 30.0, 0,
                (zero, 0.0))[0] == 2


@pytest.mark.parametrize("upper", [(1.0,), (1.0, 1.0)])
def test_pfq_of_positive_terms_has_condition_one(upper):
    # sum |t_k| is summed as sum t_k is, so with every term positive the
    # two sums are the same float
    assert pfq_direct(upper, (2.0,), 0.5).condition_estimate == 1.0


def test_tail_reference_value():
    res = evaluate_tail(P1, TailSpec(2), 3.5)
    assert _rel(res.value, P1_TAIL2) <= 5e-13


def test_tail_is_value_minus_head():
    # T_n == full sum minus the first n+1 terms
    z = 2.7
    full = evaluate(P1, z).value
    head = sum(math.exp(log_term(P1, z, k)) for k in range(4))
    tail = evaluate_tail(P1, TailSpec(3), z).value
    assert abs(full - (head + tail)) <= 1e-12 * abs(full)


def test_tail_minus_one_is_full_series():
    assert evaluate_tail(P1, TailSpec(-1), 3.5).value == evaluate(P1, 3.5).value
    with pytest.raises(ParameterError):
        TailSpec(-2)


def test_tail_index_must_be_an_integer():
    # a fractional index would sum from a fractional k
    p = FoxWrightParams((), ((0.9, 1.1),))
    calls = [lambda: kn_value_and_bound(p, 1.5, z=1.0),
             lambda: tail_turan_check(p, 1.5, 1.0),
             lambda: kn_ratio(p, 0.5, 1.0),
             lambda: evaluate_tail(p, TailSpec(2.5), 1.0),
             lambda: TailSpec(True), lambda: TailSpec("2")]
    for call in calls:
        with pytest.raises(ParameterError, match="tail index must be an integer"):
            call()
    n = TailSpec(np.int64(2)).n
    assert type(n) is int and n == 2
    assert repr(evaluate_tail(p, TailSpec(np.int64(2)), 1.0)) == repr(
        evaluate_tail(p, TailSpec(2), 1.0))


def test_epsilon_and_divergence():
    assert abs(P1.epsilon() - 0.8) <= 1e-12
    bad = FoxWrightParams(upper=((1.0, 1.5),), lower=((1.0, 0.0),))
    with pytest.raises(DivergentSeriesError, match="divergent series"):
        evaluate(bad, 1.0)
    with pytest.raises(DivergentSeriesError, match="epsilon"):
        evaluate(FoxWrightParams(upper=((2.0, 1.0),)), 0.5)


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
def test_non_finite_z_is_a_domain_error(z):
    # each request builder refuses it, so the checkers do too
    calls = [lambda: evaluate(P1, z), lambda: evaluate_normalized(P1, z),
             lambda: evaluate_tilde(P1, z), lambda: derivative(P1, z),
             lambda: evaluate_tail(P1, TailSpec(2), z),
             lambda: dbeta1(P1, z), lambda: evaluate(FoxWrightParams(), z),
             lambda: turan_beta_check(P1, z)]
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_parameter_validation():
    with pytest.raises(ParameterError):
        FoxWrightParams(upper=((-1.0, 1.0),))
    with pytest.raises(ParameterError):
        FoxWrightParams(lower=((1.0, -0.5),))
    with pytest.raises(ParameterError):
        FoxWrightParams(upper=((math.nan, 1.0),))


def test_overflow_and_log_mode():
    with pytest.raises(OverflowError):
        evaluate(FoxWrightParams(), 800.0)
    # ln(1e30^11 / 11!) = 742.35: the first term past the range is one of
    # the 32 summed one at a time
    msg = ("term k=11 has log-magnitude 742.351, beyond double range; "
           "evaluate_batch returns the series' log-magnitude")
    with pytest.raises(OverflowError, match=f"^{re.escape(msg)}$"):
        evaluate(FoxWrightParams(), 1e30)
    res = series._sum_series(series.Request(FoxWrightParams(), 800.0), True)
    assert math.isinf(res.value)
    assert abs(res.log_magnitude - 800.0) <= 1e-9
    assert res.sign == 1


def test_log_mode_beyond_double_range_in_blocks():
    # sum z^k/(k+1)! = (e^z - 1)/z, about e^793 here: the ~530 terms of its
    # section from k = 500, which has no saddle window (its left edge lies
    # fewer than 64 terms past the start; the terms below it are e^-68 of
    # the sum), and the ~1000 of its plain sum, run almost all in the block
    # phase
    params = FoxWrightParams(upper=((1.0, 1.0),), lower=((2.0, 1.0),))
    tail = lambda: series._sum_series(series.Request(params, 800.0, 500), True)
    full = lambda: series._sum_series(series.Request(params, 800.0), True)
    assert _win(params, 800.0, 500) is None
    for res, least in ((tail(), 400),
                       (_patched(full, _window=lambda *a: None), 900)):
        assert res.terms_used > least
        assert math.isinf(res.value) and res.sign == 1
        assert abs(res.log_magnitude - (800.0 - math.log(800.0))) <= 1e-12 * 800.0


def test_term_overflow_is_raised_at_the_first_term_past_the_range():
    # the first term of e^800 beyond the double range lies deep in a block
    k = next(k for k in range(1000)
             if k * math.log(800.0) - math.lgamma(k + 1.0) > 709.782712893384)
    assert k > 32 + 64
    with pytest.raises(OverflowError, match=f"term k={k} "):
        evaluate(FoxWrightParams(), 800.0)


def test_no_convergence_when_budget_too_small(monkeypatch):
    monkeypatch.setattr(series, "_MAX_TERMS", 8)
    with pytest.raises(NoConvergenceError):
        evaluate(FoxWrightParams(), 15.0)


def test_budget_that_cuts_a_block_short(monkeypatch):
    # 100 terms: 32 one at a time, a block of 64, then a block cut to 4;
    # e^37 needs 98 terms, e^39 needs 102
    monkeypatch.setattr(series, "_MAX_TERMS", 100)
    res = evaluate(FoxWrightParams(), 37.0)
    assert res.terms_used == 98
    assert _rel(res.value, math.exp(37.0)) <= 1e-15
    with pytest.raises(NoConvergenceError, match="within 100 terms"):
        evaluate(FoxWrightParams(), 39.0)


def test_log_term_matches_direct_product():
    z, k = 1.7, 5
    direct = (math.lgamma(1.3 + k * 0.7) + math.lgamma(2.1 + k * 1.4)
              - math.lgamma(0.9 + k * 1.1) - math.lgamma(1.7 + k * 0.8)
              + k * math.log(z) - math.lgamma(k + 1.0))
    assert abs(log_term(P1, z, k) - direct) <= 1e-11


def test_derivative_reference_value():
    res = derivative(P1, 2.0)
    assert _rel(res.value, P1_DERIV_Z2) <= 1e-11


def test_dbeta1_reference_value():
    res = dbeta1(P1, 2.0)
    assert abs(res.value - P1_DBETA1_Z2) <= 1e-10 * abs(P1_DBETA1_Z2)


# a factor (2.0, 0.2) reaching the Stirling threshold 12 at k = 50, inside
# the first block; the first factor to reach it is 1/k! at k = 11, so the
# one-term path runs with no factor expanded up to k = 10
P_CROSS = FoxWrightParams(upper=((2.0, 0.2), (1.3, 0.7)),
                          lower=((0.9, 0.35),))


# lower factors reaching the Stirling threshold at k = 550 and k = 1,180;
# -psi(0.2 + 0.01*k) changes sign at k = 127
P_SPLIT = FoxWrightParams(upper=((2.0, 0.9),), lower=((0.2, 0.01), (1.0, 0.02)))


@pytest.mark.parametrize("params,z", [(P1, 3.5), (P_CROSS, -7.25),
                                      (P_SPLIT, 4.0), (P_SPLIT, -4.0)])
def test_block_term_logs_match_one_term_logs(params, z):
    # the one-term logs run from k = 0, as in a summation; the array reads
    # of one run, block by block, span the first crossing of the threshold
    # (and both of P_SPLIT's), with and without a psi weight, whose sign
    # each term takes as the one-term path gives it
    for psi in (None, (0.2, 0.01)):
        one = series._TermLogs(params, z, psi)
        ref = [one.term(k) for k in range(1200)]
        if psi is None:
            assert abs(ref[0][0] - series._log_term_at_zero(params)) <= 1e-14
        blocks = series._TermLogs(params, z, psi)
        for k0, k1 in ((1, 20), (20, 84), (84, 400), (400, 1200)):
            heads, tails, signs = blocks.terms(np.arange(k0, k1))
            assert heads.shape == tails.shape == signs.shape == (k1 - k0,)
            for k, h, l, sg in zip(range(k0, k1), heads.tolist(),
                                   tails.tolist(), signs.tolist()):
                rh, rl, rs = ref[k]
                assert sg == rs, (psi, k)
                assert abs((h - rh) + (l - rl)) <= 1e-14, (psi, k)


@pytest.fixture
def term_reads(monkeypatch):
    # the span [k0, k1) of each array read of term logs
    reads = []
    terms = series._TermLogs.terms

    def recording(self, ks):
        reads.append((int(ks[0]), int(ks[-1]) + 1))
        return terms(self, ks)

    monkeypatch.setattr(series._TermLogs, "terms", recording)
    return reads


def test_long_alternating_series_reports_cancellation():
    # e^-6 sums 44 terms of size up to 6^6/6! = 65
    res = evaluate(FoxWrightParams(), -6.0)
    assert res.terms_used > 32
    assert res.condition_estimate > 1e5
    ref = math.exp(-6.0)
    assert abs(res.value - ref) <= 1e-15 * res.condition_estimate * ref
    # e^-40 has its largest terms near k = 40, in the first block; the sum
    # of their magnitudes, condition * |value|, is e^40
    res = evaluate(FoxWrightParams(), -40.0)
    assert res.condition_estimate > 1e10
    assert _rel(res.condition_estimate * abs(res.value), math.exp(40.0)) <= 1e-13


def test_tail_switches_to_blocks_after_32_terms(term_reads):
    n = 4
    res = evaluate_tail(P1, TailSpec(n), 9.0)
    assert term_reads[0] == (n + 1 + 32, n + 1 + 32 + 64)
    assert res.terms_used > 32
    full = evaluate(P1, 9.0)
    head = sum(math.exp(log_term(P1, 9.0, k)) for k in range(n + 1))
    assert abs(full.value - head - res.value) <= 1e-12 * full.value


# eps = 0.3 and z = 4 put the peak term near k = 500; dbeta1 below reads
# about 100 terms on the lattice of its saddle window from k = 274 (it sums
# 1,069 from k = 0), and derivative about 100 on its window from k = 276
P_LONG = FoxWrightParams(upper=((2.0, 1.2),), lower=((1.5, 0.5),))


def test_long_derivative_matches_oracle():
    res = derivative(P_LONG, 4.0)
    assert res.terms_used > 100
    ref = float(hp_eval(P_LONG.shifted(), 4.0)[0])
    assert abs(res.value - ref) <= res.tail_bound + 1e-13 * abs(ref)


def test_long_dbeta1_matches_oracle():
    res = dbeta1(P_LONG, 4.0)
    # summed on its window's lattice: the flank and tail parts of
    # tail_bound are proved, its edge and aliasing parts estimated
    assert _win(P_LONG, 4.0, 0, P_LONG.lower[0]) == (1, 274, 1165)
    assert res.terms_used == 103
    # central difference of 40-digit oracle values in beta_1; with
    # h = 2^-30 its truncation error is ~1e-18 relative
    h = 2.0 ** -30
    up = hp_eval(P_LONG.with_lower_value(0, 1.5 + h), 4.0, digits=40)[0]
    down = hp_eval(P_LONG.with_lower_value(0, 1.5 - h), 4.0, digits=40)[0]
    with mp.workdps(40):
        ref = float((mp.mpf(up) - mp.mpf(down)) / (2 * h))
    assert abs(res.value - ref) <= res.tail_bound + 1e-13 * abs(ref)


def test_shift_helpers():
    shifted = P1.with_lower_value(0, 2.9)
    assert shifted.lower[0] == (2.9, 1.1)
    assert shifted.upper == P1.upper
    up = P1.with_upper_value(1, 0.4)
    assert up.upper[1] == (0.4, 1.4)
    # weight layout untouched, so epsilon is invariant under value shifts
    assert abs(shifted.epsilon() - P1.epsilon()) <= 1e-15


def test_json_round_trip():
    blob = json.loads(json.dumps(P1.to_json()))
    again = FoxWrightParams.from_json(blob)
    assert again == P1
    # extra keys are echo metadata, not parameters
    blob["n"] = 3
    assert FoxWrightParams.from_json(blob) == P1


@pytest.mark.parametrize("blob", [{"upper": [[True, 0.5]]},
                                  {"upper": [[1.0, "0.5"]]},
                                  {"lower": [[1, False]]},
                                  {"lower": [["2", 1.0]]}])
def test_from_json_refuses_bools_and_strings(blob):
    with pytest.raises(ParameterError):
        FoxWrightParams.from_json(blob)
    # JSON ints and floats are read as floats
    assert (FoxWrightParams.from_json({"upper": [[1, 0.5]], "lower": [[2, 1]]})
            == FoxWrightParams(upper=((1.0, 0.5),), lower=((2.0, 1.0),)))


_pair = st.tuples(st.floats(min_value=0.2, max_value=4.0),
                  st.floats(min_value=0.0, max_value=2.0))


@given(st.lists(_pair, max_size=2), st.lists(_pair, min_size=1, max_size=2))
@settings(max_examples=60, deadline=None)
def test_normalized_anchors_at_one(upper, lower):
    params = FoxWrightParams(upper=tuple(upper), lower=tuple(lower))
    if params.epsilon() <= 0.05:
        return
    assert evaluate_normalized(params, 0.0).value == pytest.approx(1.0, abs=1e-14)
    # first-order consistency near zero: series is analytic with positive terms
    near = evaluate_normalized(params, 1e-8).value
    assert near >= 1.0 - 1e-12


@given(st.floats(min_value=0.0, max_value=12.0))
@settings(max_examples=60, deadline=None)
def test_value_within_own_tail_bound_of_oracle_free_anchor(z):
    # self-consistency: summing from k=0 and from k=3 must agree with the
    # head, well inside the reported tail bounds
    full = evaluate(P1, z)
    tail = evaluate_tail(P1, TailSpec(2), z)
    head = sum(math.exp(log_term(P1, z, k)) for k in range(3))
    gap = abs(full.value - head - tail.value)
    assert gap <= full.tail_bound + tail.tail_bound + 1e-11 * abs(full.value)


# Every EvalResult field of a fixed set of calls, as float.hex strings,
# recorded from the engine before the one-term path was sped up (the five
# above the last one before the block phase read its term logs ahead in
# chunks, and the last, psi P_SLOW, just before that read-ahead was taken
# out again): a speedup must leave each of them unchanged bit for bit.
# The six cases that sum their saddle windows were recorded again when the
# window came to be summed on a lattice.  The bits were recorded with
# numpy's AVX-512 kernels.  Its AVX2 kernels round some np.exp, np.log and
# np.log1p results differently in the last bit, so on a CPU without AVX-512
# four block-phase cases fail: P_CROSS -7.25, the P_LONG budget and tail,
# P_SLOW.
P_EXPM1 = FoxWrightParams(upper=((1.0, 1.0),), lower=((2.0, 1.0),))
P_FLAT = FoxWrightParams(upper=((2.5, 0.0), (0.4, 0.6)), lower=((3.2, 1.3),))
P_PSI_FLIP = FoxWrightParams(upper=((2.0, 1.2),), lower=((0.2, 0.01), (1.5, 0.5)))
P_LATE = FoxWrightParams(upper=((2.0, 1.2),), lower=((1.5, 0.5), (1.0, 0.02)))
P_SLOW = FoxWrightParams(upper=((1.0, 0.996),))  # alternating, 1,241 terms


def _patched(call, **values):
    # call() with the series module's names set to values, restored
    # afterwards
    saved = {name: getattr(series, name) for name in values}
    for name, value in values.items():
        setattr(series, name, value)
    try:
        return call()
    finally:
        for name, value in saved.items():
            setattr(series, name, value)


GOLDEN = {
    "evaluate P1 3.5": (
        lambda: evaluate(P1, 3.5), 46, 1,
        ("0x1.1b8a9d5151447p+11", "0x1.f8a5d1d6cd3eep-47",
         "0x1.0000000000000p+0", "0x1.ee83e3c2f11c1p+2")),
    "evaluate P1 -2.0": (
        lambda: evaluate(P1, -2.0), 39, -1,
        ("-0x1.a78c6df53fad6p-4", "0x1.eb5a2a6f7a03fp-64",
         "0x1.9594670cdb1b9p+9", "-0x1.2271cdbdcfaa1p+1")),
    "evaluate exp -6.0": (
        lambda: evaluate(FoxWrightParams(), -6.0), 44, 1,
        ("0x1.44e51f10c35eap-9", "0x1.24ca3ff6580a7p-67",
         "0x1.3de1654daf161p+17", "-0x1.800000001804ep+2")),
    "evaluate P_CROSS -7.25": (
        lambda: evaluate(P_CROSS, -7.25), 224, 1,
        ("0x1.171bd5117b560p-7", "0x1.5495ad194ad35p-59",
         "0x1.22db2c30928a4p+50", "-0x1.30ffb1ac45088p+2")),
    "evaluate P_FLAT -1.3": (
        lambda: evaluate(P_FLAT, -1.3), 13, 1,
        ("0x1.143b46096e44bp+0", "0x1.9b11e9a2c2f24p-72",
         "0x1.46ca56d5e980bp+0", "0x1.378cc27b171d5p-4")),
    # these three sum their saddle windows, from k = 274, 276 and 545
    "evaluate P_LONG 4.0": (
        lambda: evaluate(P_LONG, 4.0), 102, 1,
        ("0x1.57d79345b9f3fp+296", "0x1.29903d7c45f43p+229",
         "0x1.0000000000000p+0", "0x1.9aeee254a1080p+7")),
    "derivative P_LONG 4.0": (
        lambda: derivative(P_LONG, 4.0), 102, 1,
        ("0x1.c246b6fc8ea9ep+303", "0x1.82a36cde300e9p+236",
         "0x1.0000000000000p+0", "0x1.a52d32f89722cp+7")),
    "log_mode P_EXPM1 800.0": (
        lambda: series._sum_series(series.Request(P_EXPM1, 800.0), True),
        81, 1,
        ("inf", "inf", "0x1.0000000000000p+0", "0x1.8ca85ea4959aap+9")),
    "dbeta1 P1 2.0": (
        lambda: dbeta1(P1, 2.0), 36, -1,
        ("-0x1.fe5a3c885b9d7p+6", "0x1.0f651f537289bp-53",
         "0x1.02ee22e2feca8p+0", "0x1.3652dbbfe28d5p+2")),
    "dbeta1 P_LONG 4.0": (
        lambda: dbeta1(P_LONG, 4.0), 103, -1,
        ("-0x1.f3e431d32f650p+298", "0x1.a84b7254198f9p+231",
         "0x1.0000000000000p+0", "0x1.9e7442f082206p+7")),
    "evaluate_tail P1 4 9.0": (
        lambda: evaluate_tail(P1, TailSpec(4), 9.0), 76, 1,
        ("0x1.67811069f6e78p+30", "0x1.d06d2b788fe87p-25",
         "0x1.0000000000000p+0", "0x1.5224b72215f46p+4")),
    "evaluate_normalized P1 2.0": (
        lambda: evaluate_normalized(P1, 2.0), 35, 1,
        ("0x1.5ae02eacd9de9p+6", "0x1.e9e8f4c185532p-53",
         "0x1.0000000000000p+0", "0x1.1d9c6bc2cdc57p+2")),
    "evaluate_tilde P_CROSS -1.5": (
        lambda: evaluate_tilde(P_CROSS, -1.5), 43, 1,
        ("0x1.46a2b8ad1070dp-3", "0x1.50e709cad8ab6p-60",
         "0x1.66ff0cbc72c6ap+6", "-0x1.d5f5442b772b2p+0")),
    # a budget that cuts the plain sum's fifth block short, 2 terms past
    # the stop
    "evaluate P_LONG 4.0 budget 1070": (
        lambda: _patched(lambda: series._sum_series(
            series.Request(P_LONG, 4.0), False), _MAX_TERMS=1070,
            _window=lambda *a: None), 1068, 1,
        ("0x1.57d79345b9f28p+296", "0x1.deae51fbd301ap+248",
         "0x1.0000000000000p+0", "0x1.9aeee254a1080p+7")),
    # -psi(0.2 + 0.01*k) changes sign at k = 127, and the window reads
    # [0, 128) term by term before its lattice from k = 254
    "dbeta1 P_PSI_FLIP 4.0": (
        lambda: dbeta1(P_PSI_FLIP, 4.0), 226, -1,
        ("-0x1.727eaa4f78b33p+288", "0x1.49df19176982cp+220",
         "0x1.0000000000000p+0", "0x1.8ffdfa419df19p+7")),
    "evaluate_tail P_LONG 900 5.0": (
        lambda: evaluate_tail(P_LONG, TailSpec(900), 5.0), 1066, 1,
        ("0x1.6f2e15a75f559p+616", "0x1.90ea3b68425bep+569",
         "0x1.0000000000000p+0", "0x1.ab56dedb434c2p+8")),
    # the factor (1.0, 0.02) reaches the Stirling threshold at k = 550,
    # inside the saddle window
    "evaluate P_LATE 4.0": (
        lambda: evaluate(P_LATE, 4.0), 103, 1,
        ("0x1.341e7b20b6c9bp+266", "0x1.5417f6d39e7a9p+198",
         "0x1.0000000000000p+0", "0x1.711ffa9bf57d1p+7")),
    "evaluate P_SLOW -1.0": (
        lambda: evaluate(P_SLOW, -1.0), 1241, 1,
        ("0x1.ffb8fbe278e91p-2", "0x1.f2e50824a8ea8p-47",
         "0x1.cf700d628cff8p+6", "-0x1.632b38fa7174bp-1")),
    # a psi-weighted alternating plain sum through several blocks:
    # -psi(0.2 + 0.01*k) changes sign at k = 127 (the same bits on AVX2)
    "psi P_SLOW -1.0": (
        lambda: series._sum_series(series.Request(
            P_SLOW, -1.0, psi_weight=(0.2, 0.01)), False), 1217, 1,
        ("0x1.5aba32ed886f1p+1", "0x1.54821bbb4cf30p-44",
         "0x1.565b9e92fad43p+5", "0x1.fe365ac3c37b4p-1")),
}


# The block phase runs through numpy's SIMD kernels, whose last bits depend
# on the target numpy dispatches to: GOLDEN holds the AVX-512 (AVX512_SKX)
# bits, and these are the fields of the cases whose AVX2 bits differ.
GOLDEN_AVX2 = {
    "evaluate P_CROSS -7.25": (
        "0x1.170f5347f8f23p-7", "0x1.5495ad194ad35p-59",
        "0x1.22e835523b885p+50", "-0x1.31028fe946a24p+2"),
    "evaluate P_LONG 4.0 budget 1070": (
        "0x1.57d79345b9f25p+296", "0x1.deae51fbd301ap+248",
        "0x1.0000000000000p+0", "0x1.9aeee254a1080p+7"),
    "evaluate_tail P_LONG 900 5.0": (
        "0x1.6f2e15a75f55cp+616", "0x1.90ea3b68425bep+569",
        "0x1.0000000000000p+0", "0x1.ab56dedb434c2p+8"),
    "evaluate P_SLOW -1.0": (
        "0x1.ffb8fbe278e93p-2", "0x1.f2e50824a8ea8p-47",
        "0x1.cf700d628cff6p+6", "-0x1.632b38fa71749p-1"),
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_results_match_recorded_bits(case, simd_target):
    call, terms, sign, fields = GOLDEN[case]
    if simd_target == "AVX2":
        fields = GOLDEN_AVX2.get(case, fields)
    res = call()
    assert (res.terms_used, res.sign) == (terms, sign)
    got = (res.value, res.tail_bound, res.condition_estimate, res.log_magnitude)
    assert tuple(float.hex(x) for x in got) == fields



# Calls that stop within the 32-term head, which runs no numpy: these bits
# hold on every CPU.  H_EARLY's upper factor is expanded from k = 2 and its
# lower one from k = 6, H_FIRST's upper factor from k = 1 beside a constant
# lower factor, P1's four factors from k = 8, 11, 13 and 16, and 1/k! (the
# only factor of H_EXP) from k = 11; the small |z| stop below k = 11, and
# the tails from k = 56 cross the end of the per-k ln(k) table at k = 64.
H_EARLY = FoxWrightParams(upper=((11.5, 0.3),), lower=((0.4, 2.0),))
H_FIRST = FoxWrightParams(upper=((12.5, 0.6),), lower=((3.0, 0.0), (2.0, 1.2)))
_HEAD_PARAMS = {"P1": P1, "H_EARLY": H_EARLY, "H_FIRST": H_FIRST,
                "H_EXP": FoxWrightParams()}
_HEAD_CALLS = {
    "evaluate": evaluate, "evaluate_normalized": evaluate_normalized,
    "evaluate_tilde": evaluate_tilde, "dbeta1": dbeta1,
    "evaluate_tail 2": lambda p, z: evaluate_tail(p, TailSpec(2), z),
    "evaluate_tail 12": lambda p, z: evaluate_tail(p, TailSpec(12), z),
    "evaluate_tail 55": lambda p, z: evaluate_tail(p, TailSpec(55), z),
}
HEAD_GOLDEN = {
    ('evaluate', 'H_FIRST', 0.02): (
        10, 1, ('0x1.0ed31b6f2575ep+26', '0x1.eadd8fd792566p-62',
                '0x1.0000000000000p+0', '0x1.213ffb8faf721p+4')),
    ('evaluate', 'H_FIRST', -0.02): (
        10, 1, ('0x1.f6d044074ff54p+25', '0x1.eadd8fd792566p-62',
                '0x1.13c5cb695c2bfp+0', '0x1.200f3e3eceac2p+4')),
    ('evaluate', 'H_FIRST', 5.0): (
        22, 1, ('0x1.d0523820cba43p+32', '0x1.779bec9412f65p-33',
                '0x1.0000000000000p+0', '0x1.6c6af1152f23cp+4')),
    ('evaluate', 'H_FIRST', -5.0): (
        24, 1, ('0x1.2993512c28f2dp+23', '0x1.04c92e577c194p-43',
                '0x1.8f72f1bff5e43p+9', '0x1.017c6b0fc2140p+4')),
    ('evaluate', 'H_EXP', 3.0): (
        29, 1, ('0x1.415e5bf6fb107p+4', '0x1.4c3063a58b5a2p-57',
                '0x1.0000000000000p+0', '0x1.8000000000000p+1')),
    ('evaluate', 'H_EXP', -3.0): (
        32, 1, ('0x1.97db0ccceaf9fp-5', '0x1.300db309054ecp-67',
                '0x1.936dc5690c19cp+8', '-0x1.8000000000055p+1')),
    ('evaluate', 'H_EARLY', 6.0): (
        14, 1, ('0x1.b97c0558209ecp+27', '0x1.22e0d8fc65d01p-56',
                '0x1.0000000000000p+0', '0x1.3428b60d8283dp+4')),
    ('evaluate', 'P1', 1.5): (
        31, 1, ('0x1.c96dd75b240d6p+4', '0x1.49da2156802f1p-55',
                '0x1.0000000000000p+0', '0x1.ad30305717184p+1')),
    ('evaluate', 'P1', -0.05): (
        13, 1, ('0x1.b2932118610bep-1', '0x1.692c79eb3cd88p-74',
                '0x1.4b8bad6a3cc6ap+0', '-0x1.4fc88a471d885p-3')),
    ('evaluate_normalized', 'P1', 0.05): (
        13, 1, ('0x1.22f06f224720dp+0', '0x1.7567c8e49f9e2p-74',
                '0x1.0000000000000p+0', '0x1.0603c18cf6e15p-3')),
    ('evaluate_normalized', 'P1', -0.05): (
        13, 1, ('0x1.c14acf811140fp-1', '0x1.7567c8e49f9e2p-74',
                '0x1.4b8bad6a3cc6ap+0', '-0x1.0b92ce883fbfap-3')),
    ('evaluate_normalized', 'P1', 1.5): (
        31, 1, ('0x1.d8ebaa56e5425p+4', '0x1.5505e2c1d255dp-55',
                '0x1.0000000000000p+0', '0x1.b1738c1304f4dp+1')),
    ('evaluate_normalized', 'H_EARLY', 0.3): (
        10, 1, ('0x1.12d22fb8ca6abp+1', '0x1.de224b470abcdp-86',
                '0x1.0000000000000p+0', '0x1.8736c946247e4p-1')),
    ('evaluate_normalized', 'H_EARLY', -6.0): (
        14, -1, ('-0x1.bfb105debbfecp+2', '0x1.c6d993c1ea032p-79',
                '0x1.8ac299a02b6b7p+2', '0x1.f1fa05b0c0675p+0')),
    ('evaluate_normalized', 'H_FIRST', 5.0): (
        22, 1, ('0x1.c769832dcb6d9p+6', '0x1.7066f6b41c955p-59',
                '0x1.0000000000000p+0', '0x1.2f08bd9dc662cp+2')),
    ('evaluate_normalized', 'H_FIRST', -5.0): (
        24, 1, ('0x1.23dda6b971ad9p-3', '0x1.ff9071fbe3cf6p-70',
                '0x1.8f72f1bff5e43p+9', '-0x1.f2c569dfb7708p+0')),
    ('evaluate_tilde', 'P1', 1.5): (
        31, 1, ('0x1.e8d2637c378f6p+4', '0x1.607d48b60b08bp-55',
                '0x1.0000000000000p+0', '0x1.b5af3498894b2p+1')),
    ('evaluate_tilde', 'P1', -0.05): (
        13, 1, ('0x1.d066265f2f902p-1', '0x1.81f5eb31be367p-74',
                '0x1.4b8bad6a3cc6ap+0', '-0x1.8fb08c5ff4b58p-4')),
    ('evaluate_tilde', 'H_EARLY', 0.3): (
        10, 1, ('0x1.85d6f1f6cac1bp+24', '0x1.531f28d67566fp-62',
                '0x1.0000000000000p+0', '0x1.10e5befb45810p+4')),
    ('evaluate_tilde', 'H_EARLY', -0.3): (
        11, -1, ('-0x1.6c060883c6112p+19', '0x1.7400885602e9bp-75',
                '0x1.1227b99c306ccp+5', '0x1.b0b2e4c2d1316p+3')),
    ('evaluate_tilde', 'H_EARLY', 6.0): (
        14, 1, ('0x1.e9a4380e796c9p+28', '0x1.429b74c8e8a41p-55',
                '0x1.0000000000000p+0', '0x1.40e7e74aca28fp+4')),
    ('evaluate_tilde', 'H_EARLY', -6.0): (
        14, -1, ('-0x1.3d87b277da7d3p+26', '0x1.429b74c8e8a41p-55',
                '0x1.8ac299a02b6b7p+2', '0x1.23cba90c20638p+4')),
    ('evaluate_tilde', 'H_FIRST', 5.0): (
        22, 1, ('0x1.d0523820cba41p+33', '0x1.779bec9412f5bp-32',
                '0x1.0000000000000p+0', '0x1.77821294ac40cp+4')),
    ('evaluate_tilde', 'H_FIRST', -0.02): (
        10, 1, ('0x1.f6d044074ff52p+26', '0x1.eadd8fd792576p-61',
                '0x1.13c5cb695c2bfp+0', '0x1.2b265fbe4bc92p+4')),
    ('evaluate_tail 2', 'P1', 0.05): (
        12, 1, ('0x1.fed15408b0fdap-13', '0x1.933d315908a95p-88',
                '0x1.0000000000000p+0', '-0x1.0a3e144ccd7dbp+3')),
    ('evaluate_tail 2', 'P1', -0.05): (
        12, -1, ('-0x1.e49e1a194e4f4p-13', '0x1.933d315908a95p-88',
                '0x1.0dd71a52790dcp+0', '-0x1.0bed68ec13ad3p+3')),
    ('evaluate_tail 2', 'H_EXP', 0.1): (
        12, 1, ('0x1.6670f1724b0d1p-13', '0x1.0586e5290b574p-90',
                '0x1.0000000000000p+0', '-0x1.1594148d391fcp+3')),
    ('evaluate_tail 2', 'H_EXP', -0.1): (
        12, -1, ('-0x1.54f586fdbb428p-13', '0x1.0586e5290b574p-90',
                '0x1.0d203f004916dp+0', '-0x1.172db2853e89cp+3')),
    ('evaluate_tail 12', 'P1', 1.5): (
        23, 1, ('0x1.81cbfd00d95fep-10', '0x1.2418ced689112p-70',
                '0x1.0000000000000p+0', '-0x1.a15d9b9a68845p+2')),
    ('evaluate_tail 12', 'P1', -2.5): (
        29, -1, ('-0x1.2cc7fbab54d20p-1', '0x1.ff28063c6b0dbp-59',
                '0x1.388d8bbe50a46p+1', '-0x1.105aa5dafb452p-1')),
    ('evaluate_tail 12', 'H_EXP', 3.0): (
        21, 1, ('0x1.541e5849b06e8p-12', '0x1.3594ee251cad9p-74',
                '0x1.0000000000000p+0', '-0x1.0113a7f466e27p+3')),
    ('evaluate_tail 12', 'H_EXP', -3.0): (
        21, -1, ('-0x1.b93b0334dfcc1p-13', '0x1.3594ee251cad9p-74',
                '0x1.8aaba8f73d89ep+0', '-0x1.0eedc2596f6efp+3')),
    ('evaluate_tail 12', 'H_FIRST', 5.0): (
        14, 1, ('0x1.12f089ea4b168p+8', '0x1.5c8b0785114ccp-60',
                '0x1.0000000000000p+0', '0x1.6775943a01403p+2')),
    ('evaluate_tail 12', 'H_FIRST', -5.0): (
        14, -1, ('-0x1.df335dc2ac2d7p+7', '0x1.5c8b0785114ccp-60',
                '0x1.25c2138c7436cp+0', '0x1.5ea77b1ab6f8ep+2')),
    ('evaluate_tail 55', 'P1', 1.5): (
        17, 1, ('0x1.3b679c8f8f634p-138', '0x1.dbbb0754cf264p-203',
                '0x1.0000000000000p+0', '-0x1.7dc853abf1462p+6')),
    ('evaluate_tail 55', 'P1', -1.5): (
        17, 1, ('0x1.0c823aa5e8669p-138', '0x1.dbbb0754cf264p-203',
                '0x1.2cb619fa7c1fbp+0', '-0x1.7e6d29ddb0daep+6')),
    ('evaluate_tail 55', 'H_EXP', 3.0): (
        15, 1, ('0x1.22aeb7b239fcbp-160', '0x1.02506d83506b9p-226',
                '0x1.0000000000000p+0', '-0x1.bb1b217148dafp+6')),
    ('dbeta1', 'P1', 0.05): (
        13, 1, ('0x1.574ea9b7b1653p-1', '0x1.e746cdbc68374p-73',
                '0x1.2d9143309923dp+0', '-0x1.994a9f83e7312p-2')),
    ('dbeta1', 'P1', 1.5): (
        32, -1, ('-0x1.18c9b6d0ca4b5p+5', '0x1.2e5518f81b0b2p-56',
                '0x1.0aa6dab5a68bcp+0', '0x1.c771ba5aa6520p+1')),
    ('dbeta1', 'P1', -0.05): (
        13, 1, ('0x1.8dbe0f918d8fbp-1', '0x1.e746cdbc68374p-73',
                '0x1.044b7976d8c2dp+0', '-0x1.02949a8106e8bp-2')),
    ('dbeta1', 'H_EARLY', 0.3): (
        11, 1, ('0x1.23bf93eb3fe35p+23', '0x1.03ffd05fb343ap-74',
                '0x1.dfe6b6ce01827p+0', '0x1.012b6a3320544p+4')),
    ('dbeta1', 'H_EARLY', -0.3): (
        10, 1, ('0x1.0809aaa516af0p+24', '0x1.cbf316164b0abp-62',
                '0x1.09221e3bf3338p+0', '0x1.0aa9c457b33bdp+4')),
    ('dbeta1', 'H_EARLY', -6.0): (
        15, -1, ('-0x1.76699a40f0a6cp+22', '0x1.0f1f14353118bp-64',
                '0x1.3fc8b8a8aa4cfp+5', '0x1.f42432a798388p+3')),
    ('dbeta1', 'H_FIRST', 5.0): (
        22, -1, ('-0x1.ac77e295b1f53p+32', '0x1.5a9b2e367052ep-33',
                '0x1.0000000000000p+0', '0x1.6b21c9cce4945p+4')),
    ('dbeta1', 'H_FIRST', -5.0): (
        24, -1, ('-0x1.1299149906bb2p+23', '0x1.e14c5815a5a9cp-44',
                '0x1.8f72f1bff5dbap+9', '0x1.003343c77784fp+4')),
}


@pytest.mark.parametrize("case", list(HEAD_GOLDEN),
                         ids=[" ".join(map(str, c)) for c in HEAD_GOLDEN])
def test_head_only_calls_match_recorded_bits(case):
    call, params, z = case
    terms, sign, fields = HEAD_GOLDEN[case]
    res = _HEAD_CALLS[call](_HEAD_PARAMS[params], z)
    assert (res.terms_used, res.sign) == (terms, sign)
    got = (res.value, res.tail_bound, res.condition_estimate, res.log_magnitude)
    assert tuple(float.hex(x) for x in got) == fields


def test_head_tables_hold_the_bits_of_the_functions_they_replace():
    assert series._LOG_INTS == tuple(ddmath._log_int_dd(k) for k in range(1, 64))
    assert series._LOG_FACTORIALS == tuple(
        gammakit.log_gamma(k + 1.0) for k in range(11))
    # 1/k! waits below the Stirling threshold for exactly the tabled k
    assert len(series._LOG_FACTORIALS) == math.ceil(series._EXPAND_MIN - 1.0)
    waiting = series._TermLogs(FoxWrightParams(), 1.0)._waiting
    assert waiting == [(len(series._LOG_FACTORIALS), 1.0, 1.0, -1.0)]


def test_ln_k_table_holds_log_ints_dd_of_each_k():
    # each entry is what _log_ints_dd gives for its k alone, in an array of
    # one element; entry 0 holds ln 1 = 0 for k = 0
    table = series._LN_K
    assert table.shape == (2, 8192) and not table.flags.writeable
    for k, pair in enumerate(table.T.tolist()):
        one = ddmath._log_ints_dd(np.array([max(k, 1.0)]))
        assert pair == [float(x[0]) for x in one], k
    assert [math.copysign(1.0, x) for x in table[:, 0].tolist()] == [1.0, 1.0]
    assert table[:, 0].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("k0, k1", [(32, 1056), (7800, 8192), (8000, 8400),
                                    (8192, 8300)])
def test_ln_k_table_spans_match_the_spans_computed_directly(monkeypatch, k0, k1):
    # spans inside the ln k table, one that crosses its end at k = 8,192 and
    # one past it give the bits of the same span computed without the table
    def read(z, psi):
        gen = series._TermLogs(P_SPLIT, z, psi)
        return [a.tobytes() for a in gen.terms(np.arange(k0, k1))]

    cases = [(4.0, None), (-4.0, (0.2, 0.01))]
    tabled = [read(*c) for c in cases]
    monkeypatch.setattr(series, "_LN_K", series._LN_K[:, :0])
    assert [read(*c) for c in cases] == tabled


# Batch rows (from k = 0, where the ln k table holds ln 1 = 0, from k = 3,
# and from k = 8,180 across the table's end) and single-call tails whose
# block phase starts across the table's end or past it, recorded with
# float.hex from the engine before the table (batch P_LONG 4.0 since its
# saddle window is summed on a lattice, as its single call's), for numpy's
# AVX-512 kernels; LN_K_GOLDEN_AVX2 holds the cases whose AVX2 bits differ.
P_FLAT_EPS = FoxWrightParams(upper=((1.0, 0.95),))
LN_K_GOLDEN = {
    "batch P1 2.0": (35, 1, (
        "0x1.4f8358d1aa6dcp+6", "0x1.d9dca96d78015p-53",
        "0x1.0000000000000p+0", "0x1.1b7abde4d6d72p+2")),
    "batch P1 2.0 from 3": (32, 1, (
        "0x1.0c55f43716f3cp+6", "0x1.d9dca96d78015p-53",
        "0x1.0000000000000p+0", "0x1.0d2e328576f23p+2")),
    "batch exp 1.0": (21, 1, (
        "0x1.5bf0a8b145769p+1", "0x1.98a3fb2886d9ap-66",
        "0x1.0000000000000p+0", "0x1.0000000000000p+0")),
    "batch P_LONG 4.0": (102, 1, (
        "0x1.57d79345b9f3fp+296", "0x1.29903d7c45f43p+229",
        "0x1.0000000000000p+0", "0x1.9aeee254a1080p+7")),
    "batch exp 8000.0 from 8180": (560, 1, (
        "inf", "inf", "0x1.0000000000000p+0", "0x1.f3c36b83de91ep+12")),
    "evaluate_tail P_FLAT_EPS 8149 1.645": (3010, 1, (
        "0x1.3dff000d944dcp+581", "0x1.3830afe6a0906p+537",
        "0x1.0000000000000p+0", "0x1.92ef74a44b982p+8")),
    "evaluate_tail P_FLAT_EPS 8179 -1.645": (3351, 1, (
        "0x1.ba67e3bfbbb70p+571", "0x1.8956f2c73ea7ep+527",
        "0x1.5161e7c99d26ep+9", "0x1.8c5586f06df73p+8")),
}
LN_K_GOLDEN_AVX2 = {
    "evaluate_tail P_FLAT_EPS 8179 -1.645": (
        "0x1.ba67e3bfbbb3bp+571", "0x1.8956f2c73ea7ep+527",
        "0x1.5161e7c99d297p+9", "0x1.8c5586f06df73p+8"),
}


def test_ln_k_table_calls_match_recorded_bits(simd_target):
    exp = FoxWrightParams()
    rows = series.evaluate_batch([
        series.Request(P1, 2.0), series.Request(P1, 2.0, start=3),
        series.Request(exp, 1.0), series.Request(P_LONG, 4.0),
        series.Request(exp, 8000.0, start=8180)])
    got = dict(zip([c for c in LN_K_GOLDEN if c.startswith("batch")], rows))
    got["evaluate_tail P_FLAT_EPS 8149 1.645"] = evaluate_tail(
        P_FLAT_EPS, TailSpec(8149), 1.645)
    got["evaluate_tail P_FLAT_EPS 8179 -1.645"] = evaluate_tail(
        P_FLAT_EPS, TailSpec(8179), -1.645)
    avx2 = simd_target == "AVX2"
    for case, (terms, sign, fields) in LN_K_GOLDEN.items():
        if avx2:
            fields = LN_K_GOLDEN_AVX2.get(case, fields)
        res = got[case]
        assert (res.terms_used, res.sign) == (terms, sign), case
        values = (res.value, res.tail_bound, res.condition_estimate,
                  res.log_magnitude)
        assert tuple(float.hex(x) for x in values) == fields, case


def test_batch_rows_from_the_ln_k_table_match_the_logs_computed_directly(
        monkeypatch):
    # the tile indexes the table by k itself, so a row from k = 0 takes
    # ln 1 there; without the table it computes the same logs
    reqs = [series.Request(P1, 2.0), series.Request(FoxWrightParams(), 1.0),
            series.Request(P_LONG, 4.0, start=7)]
    tabled = series.evaluate_batch(reqs)
    monkeypatch.setattr(batch, "_LN_K", series._LN_K[:, :0])
    assert series.evaluate_batch(reqs) == tabled

def test_budget_that_cuts_the_last_block_keeps_its_error_text(
        term_reads, monkeypatch):
    monkeypatch.setattr(series, "_MAX_TERMS", 1000)
    monkeypatch.setattr(series, "_window", lambda *a: None)
    msg = "stop rule did not fire within 1000 terms (start=0, z=4.0)"
    with pytest.raises(NoConvergenceError, match=f"^{re.escape(msg)}$"):
        series._sum_series(series.Request(P_LONG, 4.0), False)
    # after the 32-term head each block reads its own terms, and the last
    # block read ends at the budget
    assert term_reads == [(32, 96), (96, 224), (224, 480), (480, 992),
                          (992, 1000)]


def _neumaier_error(a, b):
    # the reference step: Neumaier's branch on |a| >= |b| gives the exact
    # rounding error of fl(a + b), as _two_sum does without a branch
    s = a + b
    return (a - s) + b if abs(a) >= abs(b) else (b - s) + a


def _adversarial_pairs():
    # finite pairs whose sum stays finite: |a| < |b| and |a| >= |b|, exact
    # sums, ties to even, signed zeros, subnormals, exponent gaps near
    # 2^+-1000 and huge-tiny pairs, with each pair also swapped and negated
    tiny, least_normal, ulp = 5e-324, 2.2250738585072014e-308, 2.0 ** -52
    specials = (0.0, tiny, 3 * tiny, least_normal, least_normal - tiny, 1.0,
                1.0 + ulp, 3.0, 2.0 ** -1000, 2.0 ** 1000, 1.5 * 2.0 ** 1022)
    pairs = [(a, b) for a in specials for b in specials]
    pairs += [(1.0, ulp / 2), (1.0 + ulp, ulp / 2), (1.0, 3 * ulp / 4),
              (2.0 ** 1000, 2.0 ** 947), (2.0 ** 1000, 3 * 2.0 ** 946),
              (2.0 ** 1000, 2.0 ** 947 + 2.0 ** 900), (2.0 ** -1000, 2.0 ** -1053),
              (2.0 ** -1000, 3 * 2.0 ** -1054), (2.0 ** 1000, 2.0 ** -1000),
              (1.5 * 2.0 ** 1022, tiny), (1e308, -1e292), (3.0, -3.0),
              (0.1, 0.2), (least_normal, -tiny), (1.0, -1.0 - ulp)]
    rng = np.random.default_rng(11)
    mant = rng.uniform(1.0, 2.0, (4000, 2))
    expo = rng.integers(-1074, 1022, (4000, 2))
    expo[::2, 1] = expo[::2, 0] - rng.integers(-60, 60, 2000)
    drawn = np.ldexp(mant, np.clip(expo, -1074, 1021))
    pairs += [tuple(v) for v in drawn.tolist()]
    return [(sa * a, sb * b) for a, b in pairs for sa in (1.0, -1.0)
            for sb in (1.0, -1.0)] + [(b, a) for a, b in pairs]


def test_two_sum_error_is_neumaiers_bit_for_bit():
    # the one compensated step of every running sum: its error term is
    # the reference's, to the sign of a zero, on floats and on arrays
    pairs = _adversarial_pairs()
    a, b = (np.array(v) for v in zip(*pairs))
    s, e = ddmath._two_sum(a, b)
    want = np.where(np.abs(a) >= np.abs(b), (a - s) + b, (b - s) + a)
    assert np.isfinite(s).all()
    assert e.tobytes() == want.tobytes()
    got = [ddmath._two_sum(x, y) for x, y in pairs]
    assert [float.hex(v) for _, v in got] == [
        float.hex(_neumaier_error(x, y)) for x, y in pairs]
    assert [float.hex(v) for _, v in got] == [float.hex(v) for v in e.tolist()]
    assert [u for u, _ in got] == s.tolist()


def _dd_log_rel_err(x):
    h, l = ddmath._dd_log(x)
    with mp.workdps(50):
        ref = mp.log(mp.mpf(x))
        return float(abs((mp.mpf(h) + mp.mpf(l)) - ref) / abs(ref))


def test_ln_grid_is_the_artanh_sum():
    # the tabled grid pairs are exactly what _artanh2 sums from 1
    assert ddmath._LN_GRID == tuple(
        ddmath._artanh2(j / 64.0 - 1.0, j / 64.0, 1.0) for j in range(45, 92))


def test_dd_log_of_one_is_exact_zero():
    h, l = ddmath._dd_log(1.0)
    assert (h, l) == (0.0, 0.0)
    assert math.copysign(1.0, h) == math.copysign(1.0, l) == 1.0


def test_dd_log_against_mpmath_at_fixed_points():
    sqrt2 = math.sqrt(2.0)
    xs = [2.0 ** e for e in range(-1074, 1024) if e != 0]
    # every grid point of the mantissa reduction, with its neighbours
    for j in range(45, 92):
        if j != 64:
            c = j / 64.0
            xs += [c, math.nextafter(c, 0.0), math.nextafter(c, 2.0)]
    # both ends of the reduced range [sqrt(1/2), sqrt(2)), and next to 1
    xs += [ddmath._SQRT_HALF, math.nextafter(ddmath._SQRT_HALF, 0.0),
           math.nextafter(sqrt2, 0.0), sqrt2, math.nextafter(1.0, 0.0),
           math.nextafter(1.0, 2.0), 1e-300, 1e300]
    assert max(_dd_log_rel_err(x) for x in xs) <= 1e-31


@given(st.one_of(st.floats(min_value=1e-300, max_value=1e300),
                 st.floats(min_value=0.5, max_value=2.0)))
@settings(max_examples=300, deadline=None)
def test_dd_log_against_mpmath_everywhere(x):
    if x != 1.0:
        assert _dd_log_rel_err(x) <= 1e-31


# ---------------------------------------------------------------------------
# Batch evaluation


def _abs_err(res):
    # the checkers' error estimate: tail plus condition-scaled rounding
    mag = series._exp_or_inf(res.log_magnitude) if res.sign else 0.0
    return res.tail_bound + 1e-14 * res.condition_estimate * mag


_VARIANTS = {
    "plain": lambda p, z, n: series.Request(p, z),
    "normalized": lambda p, z, n: series._normalized(p, z),
    "tilde": lambda p, z, n: series._tilde(p, z),
    "tail": lambda p, z, n: series.Request(p, z, n + 1),
    "derivative": lambda p, z, n: series.Request(p.shifted(), z),
    "dbeta1": lambda p, z, n: series._dbeta1(p, z),
}

_batch_pair = st.tuples(st.floats(min_value=0.1, max_value=5.0),
                        st.floats(min_value=0.0, max_value=3.0))
_batch_case = st.tuples(
    st.lists(_batch_pair, max_size=2), st.lists(_batch_pair, min_size=1,
                                                max_size=2),
    st.floats(min_value=-3.0, max_value=1.3), st.booleans(),
    st.integers(min_value=0, max_value=6), st.sampled_from(sorted(_VARIANTS)))


def _outcome(req):
    # the single-call path in log mode, evaluate_batch's policy
    try:
        return series._sum_series(req, True)
    except NoConvergenceError as exc:
        return exc


@given(st.lists(_batch_case, min_size=1, max_size=6))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_batch_agrees_with_single_calls(cases):
    reqs, refs = [], []
    for upper, lower, lz, neg, n, variant in cases:
        params = FoxWrightParams(upper=tuple(upper), lower=tuple(lower))
        if params.epsilon() < 0.2:
            continue
        z = (-1.0 if neg else 1.0) * 10.0 ** lz
        reqs.append(_VARIANTS[variant](params, z, n))
        refs.append(_outcome(reqs[-1]))
    got = series.evaluate_batch(reqs)
    for req, ref, res in zip(reqs, refs, got):
        if isinstance(ref, Exception):
            assert type(res) is type(ref), (req, ref, res)
        elif math.isinf(ref.value):
            assert res.sign == ref.sign, (req, ref, res)
            assert abs(res.log_magnitude - ref.log_magnitude) <= 1e-12 * abs(
                ref.log_magnitude), (req, ref, res)
        else:
            assert abs(res.value - ref.value) <= (
                _abs_err(res) + _abs_err(ref)), (req, ref, res)


def test_batch_results_do_not_depend_on_the_batch(monkeypatch):
    # one tile of many rows against each row alone, bit for bit
    reqs = [series.Request(P1, z) for z in (0.5, -2.0, 3.5, 9.0)]
    reqs += [series.Request(P_CROSS, -7.25, n + 1) for n in (0, 3, 40)]
    reqs += [series._normalized(P_LONG, 4.0), series._dbeta1(P1, 2.0)]
    # a repeated request is a row of its own, summed as the first one is
    reqs += [series.Request(P1, 3.5), series.Request(P_CROSS, -7.25, 4)]
    together = series.evaluate_batch(reqs)
    alone = [series.evaluate_batch([r])[0] for r in reqs]
    assert repr(together) == repr(alone)
    assert repr(together[-2:]) == repr([together[2], together[5]])
    # windowed requests, with up to 7 terms below k0, and e^z and
    # E_{1/2}(x) peaking past a budget from k = 0: each is its single call
    # bit for bit, alone, in one batch with the rows above (tile rows among
    # them), and with every array pass cut to one row
    ml_half = FoxWrightParams(((1.0, 1.0),), ((1.0, 0.5),))
    wins = _window_series() + [series.Request(_EXP, 1e4),
                               series.Request(_EXP, 1e5),
                               series.Request(ml_half, 100.0)]
    one = [series._sum_series(r, True) for r in wins]
    assert repr([series.evaluate_batch([r])[0] for r in wins]) == repr(one)
    mixed = series.evaluate_batch(reqs + wins)
    assert repr(mixed) == repr(together + one)
    monkeypatch.setattr(batch, "_TILE_CAP", 1)
    assert repr(series.evaluate_batch(reqs + wins)) == repr(mixed)


def test_batch_failures_stay_in_their_request(monkeypatch):
    good = [series.Request(FoxWrightParams(upper=((2.5, 0.0),)), z)
            for z in (37.0, -2.0, 5.0)]
    # the edge model's curvature is about 3 times the true one here, so the
    # window does not hold, and the plain sum, which peaks near k = 20,000,
    # runs out of budget in its own place
    far = series.Request(FoxWrightParams(((1e5, 1.0),), ((1.0, 1.0),)), 3300.0)
    assert _win(*far[:3]) is not None
    got = series.evaluate_batch([good[0], far, good[2]])
    assert isinstance(got[1], NoConvergenceError)
    assert repr([got[0], got[2]]) == repr(series.evaluate_batch(good[::2]))

    # Gamma(a) e^z in one tile: e^39 needs 102 terms, beyond the budget
    # of 100, and Gamma(200) e lies past the double range, summed in log mode
    monkeypatch.setattr(series, "_MAX_TERMS", 100)
    got = series.evaluate_batch(
        [good[0], series.Request(FoxWrightParams(upper=((2.5, 0.0),)), 39.0),
         good[1], series.Request(FoxWrightParams(upper=((200.0, 0.0),)), 1.0),
         good[2]])
    assert isinstance(got[1], NoConvergenceError)
    assert "within 100 terms" in str(got[1])
    assert isinstance(got[3], EvalResult)
    assert got[3].value == math.inf and got[3].sign == 1
    assert got[3].log_magnitude == pytest.approx(math.lgamma(200.0) + 1.0,
                                                 rel=1e-14)
    assert repr([got[0], got[2], got[4]]) == repr(series.evaluate_batch(good))



def test_batch_refuses_hand_built_requests_as_the_single_calls_do(
        monkeypatch):
    # every series request is checked once, in batch.evaluate before its
    # route is chosen
    checked = []
    check = series._require_summable

    def counting(req):
        checked.append(req)
        return check(req)

    monkeypatch.setattr(series, "_require_summable", counting)
    monkeypatch.setattr(batch, "_require_summable", counting)
    exp, flat = FoxWrightParams(), FoxWrightParams(upper=((1.0, 1.0),))
    bad = [series.Request(exp, math.inf), series.Request(exp, math.nan),
           series.Request(FoxWrightParams(upper=((1.0, 2.0),)), 0.5),
           series.Request(flat, -0.5),
           series.Request(P1, -math.inf, psi_weight=P1.lower[0])]
    good = series.Request(exp, 1.0)
    got = series.evaluate_batch([bad[0], good, *bad[1:], bad[0], good])
    assert len(checked) == 8
    refused = got[:1] + got[2:6]
    assert [type(e) for e in refused] == [DomainError, DomainError,
                                          DivergentSeriesError,
                                          DivergentSeriesError, DomainError]
    for req, err in zip(bad, refused):
        with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
            evaluate(req.params, req.z)
    assert repr(got[6]) == repr(got[0])
    assert repr(got[1]) == repr(got[7]) == repr(series.evaluate_batch([good])[0])

    # a start that is no index >= 0, or a NaN offset, fails in its place,
    # on the tile path and the routed path alike
    p = FoxWrightParams(((1.5, 0.7),), ((2.5, 1.2),))
    bad = [series.Request(p, 2.0, start=2.5),
           series.Request(p, -2.0, start=2.5),
           series.Request(p, 2.0, start=-3),
           series.Request(p, 2.0, start=True),
           series.Request(p, 2.0, log_offset=math.nan)]
    checked.clear()
    got = series.evaluate_batch([*bad, good])
    assert len(checked) == 6
    assert [str(e) for e in got[:5]] == [
        "start must be an integer, got 2.5",
        "start must be an integer, got 2.5",
        "start must be >= 0, got -3",
        "start must be an integer, got True",
        "log_offset must not be NaN"]
    for req, err in zip(bad, got):
        assert type(err) is ParameterError
        with pytest.raises(ParameterError, match=f"^{re.escape(str(err))}$"):
            series._sum_series(req, True)
    assert repr(got[5]) == repr(series.evaluate_batch([good])[0])
    # a numpy integer is an index
    got = series.evaluate_batch([series.Request(p, 2.0, np.int64(3)),
                                 series.Request(p, 2.0, 3)])
    assert repr(got[0]) == repr(got[1])


def test_each_series_request_is_checked_once(monkeypatch):
    # the checker builds its requests unchecked; the batch checks each once
    calls = []
    eps = FoxWrightParams.epsilon

    def counting(self):
        calls.append(self)
        return eps(self)

    monkeypatch.setattr(FoxWrightParams, "epsilon", counting)
    rep = turan_alpha_check(FoxWrightParams(((1.5, 0.7),), ((2.5, 1.2),)), 0.5)
    assert rep.passed
    assert len(calls) == 3


def test_batch_refuses_hand_built_pfq_requests_as_pfq_direct_does():
    bad = [PfqRequest((1.0, 1.0, 1.0), (), 0.5),
           PfqRequest((), (-1.0,), 0.5),
           PfqRequest((1.0,), (1.0,), math.nan),
           PfqRequest((1.0, 1.0), (2.0,), 1.5),
           PfqRequest((1.0,), (0.0,), 0.5)]
    good = [PfqRequest((), (2.0,), 0.5), PfqRequest((1.0,), (1.5,), -0.5),
            PfqRequest((1.0, 1.0), (2.0,), -0.5)]
    got = series.evaluate_batch(bad[:3] + good + bad[3:])
    refused = got[:3] + got[-2:]
    assert [type(e) for e in refused] == [
        DivergentSeriesError, ParameterError, DomainError,
        DivergentSeriesError, ParameterError]
    for req, err in zip(bad, refused):
        with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
            pfq_direct(*req)
    assert repr(got[3:6]) == repr([series.evaluate_batch([r])[0] for r in good])

    # the batch and the single call agree on every kind of bad value, and a
    # refused row leaves the rows of its shape as they are alone
    rng = np.random.default_rng(5)
    values = (1.0, -2.5, 0.0, math.inf, -math.inf, math.nan)
    reqs = [PfqRequest(tuple(rng.choice(values, p).tolist()),
                       tuple(rng.choice(values, q).tolist()),
                       float(rng.choice((0.5, -0.5, 1.0, 1.5, math.inf,
                                         math.nan))))
            for p, q in rng.integers(0, 3, (240, 2)).tolist()]
    for req, res in zip(reqs, series.evaluate_batch(reqs)):
        try:
            one = pfq_direct(*req)
        except FoxWrightError as exc:
            one = exc
        assert (type(res), str(res)) == (type(one), str(one)), req


def test_malformed_request_fails_in_its_own_slot():
    # a z or a pFq number that is no number is refused in its place with a
    # package error, on every route; the well-formed request keeps its result
    p = FoxWrightParams(((1.5, 0.7),), ((2.5, 1.2),))
    for bad in (series.Request(p, "0.5"), series.Request(p, None),
                series._dbeta1(p, "0.5")):
        got = series.evaluate_batch([series.Request(p, 0.5), bad])
        assert repr(got[0]) == repr(
            series.evaluate_batch([series.Request(p, 0.5)])[0])
        assert type(got[1]) is ParameterError
        assert str(got[1]) == f"z must be a number, got z={bad.z!r}"
        with pytest.raises(ParameterError, match="^z must be a number"):
            series._sum_series(bad, False)
    good = PfqRequest((1.0,), (2.0,), 0.5)
    for bad in (PfqRequest(("a",), (2.0,), 0.5),
                PfqRequest((1.0,), ("2",), 0.5),
                PfqRequest((1.0,), (2.0,), "0.5")):
        got = series.evaluate_batch([good, bad])
        assert repr(got[0]) == repr(pfq_direct((1.0,), (2.0,), 0.5))
        assert type(got[1]) is ParameterError
        assert str(got[1]) == ("pFq parameters and z must be numbers, got "
                               f"{bad.upper!r}, {bad.lower!r}, z={bad.z!r}")
        with pytest.raises(ParameterError, match=f"^{re.escape(str(got[1]))}$"):
            pfq_direct(*bad)


@pytest.mark.parametrize("bad, msg", [
    (series.Request("P", 0.5), "params must be FoxWrightParams, got 'P'"),
    (series.Request(P1, 0.5, log_offset="0"),
     "log_offset must be a number, got '0'"),
    (series.Request(P1, 0.5, psi_weight="ab"),
     "psi_weight must be None or two numbers, got 'ab'"),
    (series.Request(P1, -0.5, psi_weight=(1.0,)),
     "psi_weight must be None or two numbers, got (1.0,)"),
    (PfqRequest(1.0, (2.0,), 0.5),
     "pFq parameters and z must be numbers, got 1.0, (2.0,), z=0.5"),
    (PfqRequest(("a",), (2.0,), 0.5),
     "pFq parameters and z must be numbers, got ('a',), (2.0,), z=0.5"),
    (series.Request(P1, 10**400), "z must lie in the double range"),
    (PfqRequest((10**400,), (1.0,), 0.5),
     "pFq parameters and z must lie in the double range"),
    (series.Request(P1, 0.5, log_offset=10**400),
     "log_offset must lie in the double range"),
    (series.Request(P1, 0.5, psi_weight=(10**400, 1.0)),
     "psi_weight must lie in the double range"),
    (series.Request(P1, 0.5, psi_weight=(1.5, 10**400)),
     "psi_weight must lie in the double range"),
    # psi(1e-309) lies past the double range, so term 0 of dbeta1 would be
    # NaN and drop out of the sum
    (series._dbeta1(FoxWrightParams(((1.0, 1.0),), ((1e-309, 1.0),)), 0.5),
     "psi_weight's b must have a finite reciprocal, got 1e-309"),
])
def test_malformed_field_fails_in_its_own_slot(bad, msg):
    # a hand-built request of any kind fails with a ParameterError in its
    # place, and the requests around it keep their results
    good = [series.Request(P1, 0.5), PfqRequest((1.0,), (2.0,), 0.5)]
    got = series.evaluate_batch([good[0], bad, good[1]])
    assert (type(got[1]), str(got[1])) == (ParameterError, msg)
    assert repr([got[0], got[2]]) == repr(series.evaluate_batch(good))
    with pytest.raises(ParameterError, match=f"^{re.escape(msg)}$"):
        if isinstance(bad, PfqRequest):
            pfq_direct(*bad)
        else:
            series._sum_series(bad, False)


def test_signed_and_weighted_requests_take_the_single_call_path():
    # z < 0 and dbeta1 rows are summed by the single call's sums, bit for
    # bit as one call, in the same batch as z > 0 rows
    routed = [
        (series.Request(P1, -2.5), lambda: evaluate(P1, -2.5)),
        (series.Request(P_CROSS, -7.25, 3 + 1),
         lambda: evaluate_tail(P_CROSS, TailSpec(3), -7.25)),
        (series._tilde(P_LONG, -4.0), lambda: evaluate_tilde(P_LONG, -4.0)),
        (series._dbeta1(P1, 2.0), lambda: dbeta1(P1, 2.0)),
        (series._dbeta1(P_LONG, -3.0), lambda: dbeta1(P_LONG, -3.0)),
        # these two sum their saddle windows
        (series._dbeta1(P_LONG, 4.0), lambda: dbeta1(P_LONG, 4.0)),
        (series._dbeta1(P_PSI_FLIP, 4.0), lambda: dbeta1(P_PSI_FLIP, 4.0)),
    ]
    positive = [series.Request(P1, 0.5), series._normalized(P_LONG, 4.0)]
    reqs = [positive[0]] + [r for r, _ in routed] + [positive[1]]
    got = series.evaluate_batch(reqs)
    assert [repr(r) for r in got[1:-1]] == [repr(one()) for _, one in routed]
    assert repr([got[0], got[-1]]) == repr(series.evaluate_batch(positive))


def test_routed_requests_that_outrun_the_budget_fail_in_place(monkeypatch):
    monkeypatch.setattr(series, "_MAX_TERMS", 20)
    p = FoxWrightParams(upper=((1.5, 0.5),), lower=((2.0, 1.0),))
    good = [series.Request(p, 0.5), series.Request(p, -0.5)]
    got = series.evaluate_batch(
        [good[0], series.Request(p, -30.0), series._dbeta1(p, 30.0), good[1]])
    for res in got[1:3]:
        assert isinstance(res, NoConvergenceError)
        assert "within 20 terms" in str(res)
    assert repr([got[0], got[3]]) == repr(series.evaluate_batch(good))


def test_batch_returns_values_past_the_double_range_in_log_mode():
    # Gamma(200)-sized series: a z < 0 row at +inf and a dbeta1 row at
    # -inf, each bit for bit its log-mode single-call sum, while a pFq row
    # whose second term leaves the range fails in place
    big = FoxWrightParams(((200.0, 0.5),))
    routed = [series.Request(big, -0.5),
              series._dbeta1(FoxWrightParams(big.upper, ((3.0, 1.0),)), 0.5)]
    pfq = PfqRequest((4.0,), (1.5,), -1e300)
    got = series.evaluate_batch([routed[0], pfq, routed[1]])
    assert [(r.value, r.sign) for r in (got[0], got[2])] == [
        (math.inf, 1), (-math.inf, -1)]
    assert all(math.isfinite(r.log_magnitude) for r in (got[0], got[2]))
    assert repr([got[0], got[2]]) == repr(
        [series._sum_series(r, True) for r in routed])
    assert isinstance(got[1], OverflowError)
    assert str(got[1]) == "pFq term at k=2 left the double range (z=-1e+300)"
    with pytest.raises(OverflowError, match="beyond double range"):
        evaluate(*routed[0][:2])


@pytest.mark.parametrize("z", [2.0, -2.0])  # a tile row, a signed row
def test_infinite_log_offset_gives_zero_or_infinity(z):
    p = FoxWrightParams(((1.5, 0.7),), ((2.5, 1.2),))
    low, high = (series.Request(p, z, log_offset=off)
                 for off in (-math.inf, math.inf))
    for res in (series.evaluate_batch([low])[0], series._sum_series(low, False)):
        assert (res.value, res.log_magnitude, res.tail_bound) == (
            0.0, -math.inf, 0.0)
    res = series.evaluate_batch([high])[0]
    assert (res.value, res.log_magnitude) == (res.sign * math.inf, math.inf)
    with pytest.raises(OverflowError, match="log-magnitude inf"):
        series._sum_series(high, False)


# _stops on hand-built blocks of width 4: (lh, ll, prev_h, prev_l, small,
# streak in) and the expected (terms used, stopped, d of the stop, streak
# out)
_D = series._D_STOP
_FALLING, _RISING = [-1.0, -2.0, -3.0, -4.0], [1.0, 2.0, 3.0, 4.0]
_T, _F = [True] * 4, [False] * 4
_STOP_BLOCKS = {
    "carried streak of 2 stops at index 0": (
        (_FALLING, [0.0] * 4, 0.0, 0.0, _T, 2), (1, True, -1.0, 6)),
    "carried streak of 1 stops at index 1": (
        (_FALLING, [0.0] * 4, 0.0, 0.0, [True, True, False, False], 1),
        (2, True, -1.0, 0)),
    "a rising term does not stop, the falling next one does": (
        ([1.0, 0.0, -1.0, -2.0], [0.0] * 4, 0.0, 0.0, _T, 2),
        (2, True, -1.0, 6)),
    "d at _D_STOP does not stop": (
        ([0.0] * 4, [_D, 2 * _D, 3 * _D, 4 * _D], 0.0, 0.0, _T, 3),
        (4, False, math.nan, 7)),
    "d in (_D_STOP, 0) does not stop": (
        ([0.0] * 4, [-2.0 ** -53 * k for k in (1, 2, 3, 4)], 0.0, 0.0, _T, 3),
        (4, False, math.nan, 7)),
    "d just below _D_STOP stops": (
        ([0.0] * 4, [math.nextafter(_D, -1.0)] * 4, 0.0, 0.0, _T, 3),
        (1, True, math.nextafter(_D, -1.0), 7)),
    "a zero term stops": (
        ([-math.inf, -1.0, -2.0, -3.0], [0.0] * 4, 0.0, 0.0, _T, 2),
        (1, True, -math.inf, 6)),
    "a term after a zero term does not stop": (
        (_FALLING, [0.0] * 4, -math.inf, 0.0, _T, 2), (2, True, -1.0, 6)),
    "the streak out counts the trailing small terms": (
        (_RISING, [0.0] * 4, 0.0, 0.0, [True, False, True, True], 5),
        (4, False, math.nan, 2)),
    "the streak out adds the streak carried in": (
        (_RISING, [0.0] * 4, 0.0, 0.0, _T, 1), (4, False, math.nan, 5)),
    "a stop at the last term uses the whole block": (
        (_FALLING, [0.0] * 4, 0.0, 0.0, [False, True, True, True], 0),
        (4, True, -1.0, 3)),
    "no small term": ((_FALLING, [0.0] * 4, 0.0, 0.0, _F, 2),
                      (4, False, math.nan, 0)),
}


def _stops_of(rows):
    lh, ll, ph, pl, small, streak = (np.array(c) for c in zip(*rows))
    return [tuple(v.tolist()) for v in series._stops(lh, ll, ph, pl, small,
                                                       streak)]


def test_block_stop_rule_on_hand_built_blocks():
    cases = list(_STOP_BLOCKS.values())
    for block, want in cases:
        got = tuple(v[0] for v in _stops_of([block]))
        assert repr(got) == repr(want), block
    # each row of one stacked call is that row alone
    stacked = list(zip(*_stops_of([block for block, _ in cases])))
    assert repr(stacked) == repr([want for _, want in cases])
    # below _D_STOP both exps stay below 1: the doubles next to it, and a
    # grid down to -1e-6
    below = _D - np.arange(1, 5001) * 2.0 ** -104
    assert below[0] == math.nextafter(_D, -1.0)
    grid = np.concatenate([below, np.linspace(_D, -1e-6, 20000)])
    assert (np.exp(grid) < 1.0).all()
    assert all(math.exp(d) < 1.0 for d in grid.tolist())


# the head on hand-built term logs (lh, ll) from k = 0, then terms that
# fall by e each, so every case stops by k = 4: the terms the head uses
_HEAD_LOGS = {
    "d at _D_STOP does not stop": ([(0.0, 0.0), (-40.0, 0.0), (-40.0, 0.0),
                                    (-40.0, _D)], 5),
    "d just below _D_STOP stops": ([(0.0, 0.0), (-40.0, 0.0), (-40.0, 0.0),
                                    (-40.0, math.nextafter(_D, -1.0))], 4),
    "d in (_D_STOP, 0) does not stop": ([(0.0, 0.0), (-40.0, 0.0),
                                         (-40.0, 0.0),
                                         (-40.0, -2.0 ** -53)], 5),
    "a zero term stops": ([(0.0, 0.0), (-40.0, 0.0), (-40.0, 0.0),
                           (-math.inf, 0.0)], 4),
    "a zero term after a zero term stops": ([(0.0, 0.0), (-math.inf, 0.0),
                                             (-math.inf, 0.0),
                                             (-math.inf, 0.0)], 4),
}


@pytest.mark.parametrize("case", list(_HEAD_LOGS))
def test_head_stops_where_the_block_rule_does(case, monkeypatch):
    logs, want = _HEAD_LOGS[case]
    logs = logs + [(-41.0 - j, 0.0) for j in range(series._SCALAR_TERMS)]
    monkeypatch.setattr(series._TermLogs, "term",
                        lambda self, k: (*logs[k], 1.0))
    res = series._sum_plain(series.Request(FoxWrightParams(), 1.0), False)
    assert res.terms_used == want
    assert (res.tail_bound > 0.0) == (logs[want - 1][0] > -math.inf)
    if "after a zero term" in case:
        return  # _stops' d is NaN there: no block or tile row meets one
    # _stops on the same logs as one row, every term past the first small
    lh, ll = np.array(logs[:want + 1]).T
    small = np.arange(want + 1) > 0
    used, hit, _, _ = _stops_of([(lh, ll, -math.inf, 0.0, small, 0)])
    assert (used, hit) == ((want,), (True,))


# the first block on hand-built term logs, after a head of 30 terms of
# log 0 and two of log -40 that carries a streak of 2 small terms and its
# last log into the block's _stops: the block's leading logs (the rest fall
# by 1 each, every one small against a partial sum near 30), and the index
# and d of its stop
_BLOCK_LOGS = {
    "the carried streak stops at index 0": ([(-41.0, 0.0)], 0, -1.0),
    "a stop at index 1": ([(-40.0, 0.0), (-41.0, 0.0)], 1, -1.0),
    "a stop at the block's last term": (
        [(-40.0, 0.0)] * (series._BLOCK_MIN - 1) + [(-41.0, 0.0)],
        series._BLOCK_MIN - 1, -1.0),
    "d at _D_STOP does not stop": ([(-40.0, _D), (-41.0, 0.0)], 1,
                                   -1.0 + 2.0 ** -52),
    "d just below _D_STOP stops": ([(-40.0, math.nextafter(_D, -1.0))], 0,
                                   math.nextafter(_D, -1.0)),
    "a zero term stops": ([(-math.inf, 0.0)], 0, -math.inf),
}


@pytest.mark.parametrize("case", list(_BLOCK_LOGS))
def test_first_block_stops_on_what_the_head_carries_in(case, monkeypatch):
    lead, at, d = _BLOCK_LOGS[case]
    head = [(0.0, 0.0)] * (series._SCALAR_TERMS - 2) + [(-40.0, 0.0)] * 2
    block = lead + [(-42.0 - j, 0.0)
                    for j in range(series._BLOCK_MIN - len(lead))]
    lh, ll = np.array(head + block).T
    monkeypatch.setattr(series._TermLogs, "term",
                        lambda self, k: (lh[k], ll[k], 1.0))
    monkeypatch.setattr(series._TermLogs, "terms",
                        lambda self, ks: (lh[ks], ll[ks], np.ones(ks.size)))
    res = series._sum_plain(series.Request(FoxWrightParams(), 1.0), False)
    assert res.terms_used == series._SCALAR_TERMS + at + 1
    last = float(lh[res.terms_used - 1])
    assert res.tail_bound == (series._geometric_tail(
        math.exp(last), math.exp(d)) if last > -math.inf else 0.0)


def _long_requests():
    # eval-long-style series: epsilon 0.15-0.6 at the z where the series
    # reaches about e^v, v in 150-400, as evaluate, derivative and a tail;
    # e^z at z = 200, from k = 0 and as a tail; and the tails of e^50 from
    # k = 0 to 23, some of which stop at the first or second term of a block
    # of one path or the other, where the streak carried in decides
    rng = np.random.default_rng(26)
    reqs = []
    for i in range(16):
        p, q = ((1, 1), (1, 2), (2, 1), (2, 2))[i % 4]
        eps = rng.uniform(0.15, 0.6)
        lower = tuple((rng.uniform(0.5, 5.0), rng.uniform(0.2, 2.0))
                      for _ in range(q))
        total = 1.0 + math.fsum(w for _, w in lower) - eps
        u = rng.uniform()
        upper = tuple((rng.uniform(0.5, 5.0), w)
                      for w in ((total,) if p == 1 else (u * total, (1 - u) * total)))
        v = rng.uniform(150.0, 400.0)
        z = math.exp(eps * math.log(v / eps)
                     + math.fsum(w * math.log(w) for _, w in lower)
                     - math.fsum(w * math.log(w) for _, w in upper))
        params = FoxWrightParams(upper, lower)
        reqs.append([series.Request(params, z),
                     series.Request(params.shifted(), z),
                     series.Request(params, z, 1 + i)][i % 3])
    e = FoxWrightParams(((1.0, 1.0),), ((1.0, 1.0),))
    return (reqs + [series.Request(e, 200.0, n) for n in (0, 9)]
            + [series.Request(e, 50.0, n) for n in range(24)])


def test_stop_rule_ends_single_calls_and_tile_rows_at_the_same_term():
    for req in _long_requests():
        one = series._sum_series(req, True)
        assert one.terms_used > series._SCALAR_TERMS, req  # past the head
        assert one.terms_used == series.evaluate_batch([req])[0].terms_used, req


_SQRT_PI = math.sqrt(math.pi)


# closed forms at z > 0, each with its derivative: e^z as 1Psi1 with upper
# (1, 1) and lower (1, 1), and Wright(1, 1/2; z) = cosh(2 sqrt z)/sqrt(pi),
# whose derivative Wright(1, 3/2; z) is sinh(2 sqrt z)/sqrt(pi z)
@pytest.mark.parametrize("params, z, exact, slope", [
    *[(FoxWrightParams(((1.0, 1.0),), ((1.0, 1.0),)), z, math.exp(z),
       math.exp(z)) for z in (20.0, 50.0, 200.0, 700.0)],
    *[(FoxWrightParams((), ((0.5, 1.0),)), z,
       math.cosh(2.0 * math.sqrt(z)) / _SQRT_PI,
       math.sinh(2.0 * math.sqrt(z)) / (_SQRT_PI * math.sqrt(z)))
      for z in (25.0, 100.0, 400.0, 2500.0)],
])
def test_closed_forms_at_positive_z_within_the_stated_bound(params, z, exact, slope):
    # the tail bound plus a rounding charge of (1e-14 + u*n) * sum|t|, with
    # sum|t| the value at z > 0
    tile = series.evaluate_batch([series.Request(params, z),
                                  series.Request(params.shifted(), z)])
    for res, want in ((evaluate(params, z), exact),
                      (derivative(params, z), slope),
                      (tile[0], exact), (tile[1], slope)):
        rel = res.tail_bound / want + 1e-14 + 2.0 ** -53 * res.terms_used
        assert abs(res.value - want) <= rel * want, (res, want)
        assert abs(res.log_magnitude - math.log(want)) <= rel, (res, want)


# closed forms at z < 0, with exact values from math alone: the
# Mittag-Leffler E_{1/2}(-x) = e^(x^2) erfc(x), E_1(-x) = e^-x and
# E_2(-x^2) = cos x, and Wright(1, 1/2; -x) = cos(2 sqrt x)/sqrt(pi)
_AT_NEGATIVE_Z = {
    "E_1/2": (lambda x: mittag_leffler(MittagLefflerParams(((0.5, 1.0),)), -x),
              lambda x: math.exp(x * x) * math.erfc(x)),
    "E_1": (lambda x: mittag_leffler(MittagLefflerParams(((1.0, 1.0),)), -x),
            lambda x: math.exp(-x)),
    "E_2": (lambda x: mittag_leffler(MittagLefflerParams(((2.0, 1.0),)),
                                     -x * x),
            math.cos),
    "wright": (lambda x: wright(1.0, 0.5, -x),
               lambda x: math.cos(2.0 * math.sqrt(x)) / _SQRT_PI),
}
# where the alternating sum cancels every digit of the value
_NO_DIGIT_LEFT = pytest.mark.xfail(
    strict=True, reason="ROADMAP 1(b): the sum at z < 0 loses every digit, "
    "and nothing refuses the call")


@pytest.mark.parametrize("form, x", [
    *[("E_1/2", x) for x in (1.0, 3.0, 5.0)],
    pytest.param("E_1/2", 6.0, marks=_NO_DIGIT_LEFT),
    ("E_1", 5.0), ("E_1", 10.0),
    pytest.param("E_1", 20.0, marks=_NO_DIGIT_LEFT),
    ("E_2", 3.0), ("E_2", 10.0),
    pytest.param("E_2", 40.0, marks=_NO_DIGIT_LEFT),
    ("wright", 4.0), ("wright", 25.0),
    pytest.param("wright", 400.0, marks=_NO_DIGIT_LEFT),
])
def test_closed_forms_at_negative_z_within_the_stated_bound(form, x):
    # refused, or within the tail bound plus a rounding charge of
    # (1e-14 + u*n) * sum|t|, with sum|t| = condition * |value|; and with
    # a digit of the value right: -log10(err/|exact|) >= 1, as the
    # benchmark counts digits
    call, closed = _AT_NEGATIVE_Z[form]
    exact = closed(x)
    try:
        res = call(x)
    except FoxWrightError:
        return
    rounding = 1e-14 + 2.0 ** -53 * res.terms_used
    err = abs(res.value - exact)
    assert err <= res.tail_bound + rounding * res.condition_estimate * abs(
        res.value), (res, exact)
    assert err <= 0.1 * abs(exact), (res, exact)


_EXP = FoxWrightParams(((1.0, 1.0),), ((1.0, 1.0),))
_WRIGHT_HALF = FoxWrightParams((), ((0.5, 1.0),))


def _head_of_exp(z, n):
    # sum_{k <= n} z^k/k!, by its term logs
    return math.fsum(math.exp(k * math.log(z) - math.lgamma(k + 1.0))
                     for k in range(n + 1))


# closed forms whose calls sum their saddle windows: e^z, its derivative
# and its tail past k = 9, and Wright(1, 1/2; z) with its derivative
# Wright(1, 3/2; z) = sinh(2 sqrt z)/sqrt(pi z) and its tail past k = 4
@pytest.mark.parametrize("params, z, exact, slope, n, head", [
    *[(_EXP, z, math.exp(z), math.exp(z), 9, _head_of_exp(z, 9))
      for z in (200.0, 300.0, 700.0)],
    *[(_WRIGHT_HALF, z, math.cosh(2.0 * math.sqrt(z)) / _SQRT_PI,
       math.sinh(2.0 * math.sqrt(z)) / (_SQRT_PI * math.sqrt(z)), 4,
       math.fsum(z ** k / (math.factorial(k) * math.gamma(0.5 + k))
                 for k in range(5)))
      for z in (2e4, 4e4, 9e4)],
])
def test_closed_forms_over_the_saddle_window(params, z, exact, slope, n, head):
    reqs = [series.Request(params, z), series.Request(params.shifted(), z),
            series.Request(params, z, n + 1)]
    assert all(_win(*r[:3]) is not None for r in reqs)
    wants = (exact, slope, exact - head)
    results = [evaluate(params, z), derivative(params, z),
               evaluate_tail(params, TailSpec(n), z)]
    for res, want in zip(results + series.evaluate_batch(reqs), wants * 2):
        rel = res.tail_bound / want + 1e-14 + 2.0 ** -53 * res.terms_used
        assert abs(res.value - want) <= rel * want, (res, want)


def test_window_reaches_log_magnitudes_past_the_old_budget():
    # e^z peaks at k = z, and E_{1/2}(x) = e^(x^2) erfc(-x) at k = 2 x^2:
    # from k = 0 the 10,000-term budget ran out past z ~ 9,000 and x ~ 60;
    # so did dbeta1 of e^z/Gamma(2.5), -psi(2.5) e^z/Gamma(2.5), at 1e4
    ml_half = FoxWrightParams(((1.0, 1.0),), ((1.0, 0.5),))
    got = series.evaluate_batch([
        series.Request(_EXP, 1e4), series.Request(_EXP, 1e5),
        series.Request(ml_half, 100.0),
        series._dbeta1(FoxWrightParams((), ((2.5, 0.0),)), 1e4),
        series.Request(_EXP, 1e6)])
    with mp.workdps(30):
        psi_exp = float(1e4 + mp.log(mp.digamma(2.5)) - mp.loggamma(2.5))
    for res, sign, want in zip(got, (1, 1, 1, -1, 1),
                               (1e4, 1e5, 1e4 + math.log(2.0), psi_exp, 1e6)):
        assert res.sign == sign and res.value == sign * math.inf
        assert abs(res.log_magnitude - want) <= 1e-12 * want, (res, want)
    assert got[3].terms_used == 69
    # the window of e^(10^6) holds about 18,000 terms, more than the
    # budget, and its lattice reads 68 of them; its stated error is at most
    # _REL_TOL of the sum, so its log-magnitude is off by that and the
    # rounding of the log
    assert got[4].terms_used == 68
    assert (abs(got[4].log_magnitude - 1e6)
            <= series._REL_TOL + 4 * math.ulp(1e6)), got[4]
    assert _win(_EXP, 1e6, 0)[2] - _win(_EXP, 1e6, 0)[1] > 10000


def test_ratio_bound_past_a_budget_leaves_no_window():
    # eps = 1e-7 puts the peak near e^29 and the lemma's K = C/eps near
    # 3e7: its bounds are not evaluated, and the plain sum runs out of budget
    params, z = FoxWrightParams(((1.0, 0.9999999),)), 1.000003
    assert window._monotone_from(params, 0, params.epsilon()) is None
    assert _win(params, z, 0) is None
    with pytest.raises(NoConvergenceError):
        evaluate(params, z)
    assert isinstance(series.evaluate_batch([series.Request(params, z)])[0],
                      NoConvergenceError)


def test_window_whose_read_passes_the_budget_is_summed_plainly(
        monkeypatch):
    # dbeta1 of 1/Gamma(0.2 + kB) at z = 12,000: -psi(0.2 + kB) changes
    # sign near k = 1.2617/B, so k0_psi lies near 9,930 and the window
    # reads [0, k0_psi) term by term before its 68 terms from k_lo = 10,975.
    # A read of 10,000 terms is summed on the lattice, and agrees with the
    # plain sum under a larger budget; one of 10,001 is summed plainly,
    # whose stop lies past the budget
    reqs = [series._dbeta1(FoxWrightParams((), ((0.2, b),)), 12000.0)
            for b in (1.2705e-4, 1.2704e-4)]
    for req, size in zip(reqs, (10000, 10001)):
        eps = req.params.epsilon()
        k0, k_lo, k_hi = window._window(req, eps)
        h = window._stride(eps, k_lo, k_hi)
        assert k0 + -(-(k_hi - k_lo) // h) + 3 == size
    got = series.evaluate_batch(reqs)
    assert got[0].terms_used == 10000
    assert isinstance(got[1], NoConvergenceError)
    assert "within 10000 terms" in str(got[1])
    monkeypatch.setattr(series, "_MAX_TERMS", 20000)
    ref = series._sum_plain(reqs[0], True)
    assert got[0].sign == ref.sign == -1
    assert (abs(got[0].log_magnitude - ref.log_magnitude)
            <= series._REL_TOL + 4 * math.ulp(12000.0)), (got[0], ref)


def test_model_that_does_not_fall_away_leaves_no_window():
    # a lower gamma factor at 658 bends the quadratic model's slope at the
    # left edge's first Newton step the wrong way: no window, and the plain
    # sum from k = 0 gives the oracle's log-magnitude
    params = FoxWrightParams(
        ((4.6430573100325505, 0.440377154715784),),
        ((658.2062089886349, 1.0247968366909117),
         (5.022437018578169, 1.2594162314299868)))
    z = 91363355.57652849
    assert _win(params, z, 0) is None
    value, _ = hp_eval(params, z, 30)
    assert value == "6.67537330980296569642729113394e-1275"
    with mp.workdps(30):
        want = float(mp.log(mp.mpf(value)))
    assert evaluate(params, z).log_magnitude == want == -2933.8975684381235


def _win(params, z, start, psi=None):
    # the window rule as the engines call it, with the epsilon of the check
    return series._window(series.Request(params, z, start, psi),
                          params.epsilon())


def _window_series():
    # e^z, P_LONG and its derivative, and the eval-long-style windowed
    # requests of _long_requests, some with k0 > 0
    return ([series.Request(_EXP, 700.0), series.Request(P_LONG, 4.0),
             series.Request(P_LONG.shifted(), 4.0)]
            + [r for r in _long_requests() if _win(*r[:3])])


def test_window_flank_bound_covers_the_skipped_terms():
    for req in _window_series():
        params, z, start = req[:3]
        k0, k_lo, _ = _win(params, z, start)
        gen = series._TermLogs(params, z)
        h, l, _ = gen.terms(np.array([k_lo - 1, k_lo]))
        rho = math.exp(-((h[1] - h[0]) + (l[1] - l[0])))
        skipped = math.fsum(math.exp(series.log_term(params, z, k) - h[1])
                            for k in range(k0, k_lo))
        assert rho < 1.0 and skipped <= rho / (1.0 - rho), req


def test_window_that_does_not_hold_is_summed_from_the_start(monkeypatch):
    # a left edge 5 below the peak leaves a flank bound far above 1e-15 of
    # the sum, and one past the peak a ratio into k_lo below 1: both
    # engines drop such a window and return the plain sum
    reqs = [series.Request(_EXP, 700.0), series.Request(P_LONG, 4.0)]
    plain = _patched(lambda: [series._sum_series(r, True) for r in reqs],
                     _window=lambda *a: None)
    monkeypatch.setattr(window, "_WINDOW_DROP", 5.0)
    assert all(_win(*r[:3]) for r in reqs)
    assert [series._sum_series(r, True) for r in reqs] == plain
    assert series.evaluate_batch(reqs) == plain
    monkeypatch.setattr(window, "_WINDOW_DROP", 45.0)
    past = {700.0: (0, 800, 1200), 4.0: (0, 700, 1200)}
    for mod in (series, batch):
        monkeypatch.setattr(mod, "_window", lambda req, e: past[req.z])
    assert [series._sum_series(r, True) for r in reqs] == plain
    assert series.evaluate_batch(reqs) == plain


def _lattice_cases():
    # 15 seeded windows with epsilon from 0.05 to 1.5 (log-spaced), one or
    # two factors a side, a psi weight on every third and a start > 0 on
    # every fourth; z puts the peak near k_c, with eps k_c from about 120
    # at the smallest epsilon (wide windows) to 400 at the largest (a left
    # edge past k = 64)
    rng = np.random.default_rng(38)
    cases = []
    for i, eps in enumerate(np.geomspace(0.05, 1.5, 15).tolist()):
        p, q = 1 + i % 2, 1 + i // 2 % 2
        rest = 0.0
        while rest < 0.1:  # the upper weights share 1 + sum(B) - eps
            lower = tuple((rng.uniform(0.5, 4.0), rng.uniform(0.3, 1.0))
                          for _ in range(q))
            rest = 1.0 + sum(w for _, w in lower) - eps
        upper = tuple((rng.uniform(0.5, 4.0), rest / p) for _ in range(p))
        params = FoxWrightParams(upper, lower)
        eps = params.epsilon()
        z = ((rng.uniform(115.0, 135.0) + 170.0 * eps) / eps) ** eps
        for a, w in upper:
            z /= w ** w
        for b, w in lower:
            z *= w ** w
        cases.append(series.Request(
            params, z, int(rng.integers(1, 40)) if i % 4 == 1 else 0,
            lower[0] if i % 3 == 1 else None))
    return cases


def test_lattice_sums_its_window_within_the_stated_error():
    # h times the sum of the 40-digit terms on the lattice matches the sum
    # of every term of the window within the stated edge and aliasing
    # terms; and the engine's value lies within its tail bound and rounding
    # of the 40-digit sum of the series: every term of [start, k0) and of
    # the window, and those either side of the window down to 1e-30 of its
    # sum (past them the terms keep falling, by the window's lemma)
    for req in _lattice_cases():
        params, z, start, psi, _ = req
        eps = params.epsilon()
        k0, k_lo, k_hi = series._window(req, eps)
        h = window._stride(eps, k_lo, k_hi)
        k_end = k_lo + -(-(k_hi - k_lo) // h) * h
        res = series._sum_series(req, False)
        assert res.terms_used == k0 - start + (k_end - k_lo) // h + 3, req
        with mp.workdps(40):
            lz = mp.log(z)

            def term(k):
                lt = k * lz - mp.loggamma(k + 1)
                for a, w in params.upper:
                    lt += mp.loggamma(mp.mpf(a) + k * mp.mpf(w))
                for b, w in params.lower:
                    lt -= mp.loggamma(mp.mpf(b) + k * mp.mpf(w))
                t = mp.exp(lt)
                return t if psi is None else -t * mp.digamma(
                    mp.mpf(psi[0]) + k * mp.mpf(psi[1]))

            t = [term(k) for k in range(k_lo, k_end + 1)]
            window_sum = mp.fsum(t)
            lattice = h * mp.fsum(t[::h])
            alias = window._aliasing(h, eps, k_lo) * abs(window_sum)
            assert abs(lattice - window_sum) <= (
                h * (abs(t[0]) + abs(t[-1])) + alias), req
            small = abs(window_sum) * mp.mpf(10) ** -30
            for k, step in ((k_lo - 1, -1), (k_end + 1, 1)):
                while k >= k0:
                    t.append(term(k))
                    if abs(t[-1]) <= small:
                        break
                    k += step
            t += [term(k) for k in range(start, k0)]
            ref = mp.fsum(t)
            assert abs(res.value - ref) <= (
                res.tail_bound
                + 1e-14 * res.condition_estimate * abs(res.value)), req


def test_window_ratios_do_not_increase_from_k0():
    # the lemma of window._monotone_from, checked on 40-digit term logs:
    # r(m + 1) <= r(m) for r(m) = ln t_{m+1} - ln t_m, from k0 on
    def log_t(params, k):
        with mp.workdps(40):
            return (sum(mp.loggamma(a + k * w) for a, w in params.upper)
                    - sum(mp.loggamma(b + k * w) for b, w in params.lower)
                    - mp.loggamma(k + 1))
    for req in _window_series():
        params = req.params
        k0 = _win(*req[:3])[0]
        t = [log_t(params, k) for k in range(k0, k0 + 120)]
        r = [b - a for a, b in zip(t, t[1:])]
        assert all(b <= a for a, b in zip(r, r[1:])), req


def _psi_window_sets(n):
    # n seeded (params, z) whose terms peak near e^v, v in 120-300, with
    # epsilon 0.2-1.0 (1 + sum B with no upper pair) and the psi pair
    # (b, B) = lower[0]: B = 0 in a third of them, b < 1.46 with B > 0 (a
    # sign flip at k_psi > 0) in another third
    rng = np.random.default_rng(32)
    sets = []
    for i in range(n):
        p, q = int(rng.integers(0, 3)), int(rng.integers(1, 3))
        lower = [(rng.uniform(0.1, 5.0), rng.uniform(0.0, 2.0))
                 for _ in range(q)]
        if i % 3 == 0:
            lower[0] = (lower[0][0], 0.0)
        elif i % 3 == 1:
            lower[0] = (rng.uniform(0.1, 1.4), rng.uniform(0.005, 0.5))
        total = 1.0 + math.fsum(w for _, w in lower) - rng.uniform(0.2, 1.0)
        u = rng.uniform(0.1, 0.9)
        upper = [(rng.uniform(0.3, 5.0), w)
                 for w in ((), (total,), (u * total, (1 - u) * total))[p]]
        params = FoxWrightParams(tuple(upper), tuple(lower))
        eps = params.epsilon()
        lz = (eps * math.log(rng.uniform(120.0, 300.0) / eps)
              + math.fsum(w * math.log(w) for _, w in lower if w > 0.0)
              - math.fsum(w * math.log(w) for _, w in upper if w > 0.0))
        sets.append((params, math.exp(lz)))
    return sets


def test_psi_weighted_window_ratios_do_not_increase_from_k0_psi():
    # the corollary in window._monotone_from, on 60-digit weighted term
    # logs: second differences <= 0 from the k0_psi that _window returns,
    # and the windowed dbeta1 within its error estimates of the plain sum
    def log_u(params, z, k):
        (b, w), low = params.lower[0], params.lower
        return (k * mp.log(z) - mp.loggamma(k + 1)
                + sum(mp.loggamma(a + k * v) for a, v in params.upper)
                - sum(mp.loggamma(a + k * v) for a, v in low)
                + mp.log(abs(mp.digamma(b + k * w))))
    kinds, windows = set(), 0
    for params, z in _psi_window_sets(200):
        req = series._dbeta1(params, z)
        win = _win(params, z, 0, req.psi_weight)
        if win is None:
            continue
        b, w = req.psi_weight
        kinds.add("B = 0" if w == 0.0 else "flip" if b < 1.46 else "B > 0")
        windows += 1
        with mp.workdps(60):
            logs = [log_u(params, z, k) for k in range(win[0], win[0] + 14)]
            assert all(w == 0.0 or mp.digamma(b + k * w) > 0
                       for k in (win[0], win[0] + 13))
        assert all(x - 2 * y + t <= 0
                   for x, y, t in zip(logs, logs[1:], logs[2:])), (params, z)
        res = series._sum_series(req, False)
        plain = series._sum_plain(req, False)
        assert res.terms_used < plain.terms_used, (params, z)
        assert abs(res.value - plain.value) <= (
            res.tail_bound + plain.tail_bound
            + 1e-14 * res.condition_estimate * abs(res.value)), (params, z)
    assert kinds == {"B = 0", "flip", "B > 0"} and windows >= 120


@pytest.mark.parametrize("b", [0.7, 1.2, 2.5])
@pytest.mark.parametrize("z", [300.0, 400.0, 700.0])
def test_dbeta1_closed_form_over_the_saddle_window(b, z):
    # dbeta1 of the series sum z^k/(k! Gamma(b)) = e^z/Gamma(b), B = 0:
    # -psi(b) e^z/Gamma(b), summed over its window
    params = FoxWrightParams((), ((b, 0.0),))
    res = dbeta1(params, z)
    plain = _patched(lambda: dbeta1(params, z), _window=lambda *a: None)
    assert _win(params, z, 0, (b, 0.0)) is not None
    assert res.terms_used < plain.terms_used
    with mp.workdps(30):
        want = float(-mp.digamma(b) * mp.exp(z) / mp.gamma(b))
    rel = abs(res.tail_bound / want) + 1e-14 + 2.0 ** -53 * res.terms_used
    assert abs(res.value - want) <= rel * abs(want), (res, want)


# Calls whose window would skip fewer than 64 terms (k_lo - start = 63)
# sum from their start: these bits are the engine's before the window, for
# numpy's AVX-512 kernels and, where they differ, its AVX2 kernels
_NO_WINDOW = {
    "evaluate exp 173.0": (
        lambda: evaluate(_EXP, 173.0), 290,
        ("0x1.80573a499f826p+249", "0x1.80573a499f824p+249"),
        "0x1.1d37e1cf52915p+198", "0x1.5a00000000000p+7"),
    "evaluate_tail P_LONG 210 4.0": (
        lambda: evaluate_tail(P_LONG, TailSpec(210), 4.0), 857,
        ("0x1.57d79345b9f28p+296", "0x1.57d79345b9f25p+296"),
        "0x1.deae51fbd301ap+248", "0x1.9aeee254a1080p+7"),
    "batch exp 173.0": (
        lambda: series.evaluate_batch([series.Request(_EXP, 173.0)])[0], 290,
        ("0x1.80573a499f822p+249", "0x1.80573a499f824p+249"),
        "0x1.1d37e1cf52915p+198", "0x1.5a00000000000p+7"),
    "batch P_LONG 4.0 from 211": (
        lambda: series.evaluate_batch([series.Request(P_LONG, 4.0, 211)])[0],
        857, ("0x1.57d79345b9f28p+296", "0x1.57d79345b9f25p+296"),
        "0x1.deae51fbd301ap+248", "0x1.9aeee254a1080p+7"),
}


@pytest.mark.parametrize("case", list(_NO_WINDOW))
def test_call_short_of_a_window_keeps_its_bits(case, simd_target):
    call, terms, values, tail, log_mag = _NO_WINDOW[case]
    res = call()
    value = values[simd_target == "AVX2"]
    assert res.terms_used == terms and res.sign == 1
    got = (res.value, res.tail_bound, res.condition_estimate, res.log_magnitude)
    assert tuple(float.hex(x) for x in got) == (value, tail, _ONE, log_mag)


# (window (k0, k_lo, k_hi), terms of the single call, terms of the tile
# row): scalar math decides the window, and the block stop rule the stop,
# so these hold under every set of numpy kernels
_WINDOW_STOPS = {
    "exp 700.0": (series.Request(_EXP, 700.0), (0, 463, 966), 75, 75),
    "exp 1e5": (series.Request(_EXP, 1e5), (0, 97014, 103015), 68, 68),
    "P_LONG 4.0": (series.Request(P_LONG, 4.0), (0, 274, 1165), 102, 102),
    "P_LATE 4.0": (series.Request(P_LATE, 4.0), (0, 217, 1012), 103, 103),
    "wright 4e4 derivative": (series.Request(_WRIGHT_HALF.shifted(), 4e4),
                              (0, 112, 302), 98, 98),
}


def test_window_edges_and_stops_match_recorded_values():
    for case, (req, win, one, tile) in _WINDOW_STOPS.items():
        assert _win(*req[:3]) == win, case
        assert series._sum_series(req, True).terms_used == one, case
        assert series.evaluate_batch([req])[0].terms_used == tile, case
    # one term more or one start less, and the windows of _NO_WINDOW's
    # calls would skip 64 terms
    assert _win(_EXP, 173.0, 0) is None
    assert _win(_EXP, 174.0, 0) == (0, 64, 313)
    assert _win(P_LONG, 4.0, 211) is None
    assert _win(P_LONG, 4.0, 210) == (210, 274, 1165)
    # one of _long_requests reads every term below k0 = 15
    direct = [r for r in _long_requests() if _win(*r[:3])][14]
    assert _win(*direct[:3]) == (15, 107, 599)
    assert series._sum_series(direct, True).terms_used == 126
    assert series.evaluate_batch([direct])[0].terms_used == 126


def test_dd_log_array_matches_scalar():
    xs = [2.0 ** e for e in range(-1074, 1024, 7)]
    xs += [j / 64.0 for j in range(45, 92)] + [1.0, 1e-300, 1e300,
                                                 math.nextafter(1.0, 2.0)]
    xs += np.random.default_rng(5).uniform(0.01, 50.0, 500).tolist()
    xs += np.exp(np.random.default_rng(6).uniform(-700.0, 700.0, 5000)).tolist()
    h, l = ddmath._dd_log_array(np.array(xs))
    # bit for bit the scalar pair, so the batch and single paths share
    # ln|z| and every ln w
    assert list(zip(h.tolist(), l.tolist())) == [ddmath._dd_log(x) for x in xs]
    for x, hh, ll in zip(xs[:-5000], h.tolist(), l.tolist()):
        if x == 1.0:
            assert (hh, ll) == (0.0, 0.0)
            continue
        with mp.workdps(50):
            ref = mp.log(mp.mpf(x))
            assert abs((mp.mpf(hh) + mp.mpf(ll)) - ref) <= 1e-31 * abs(ref), x


def _pfq_loop(upper, lower, z):
    # the one-row loop the pFq request kind replaced: the reference
    p, q = len(upper), len(lower)
    term, total, comp, ratio, streak = 1.0, 0.0, 0.0, math.inf, 0
    total_abs, comp_abs = 0.0, 0.0
    for k in range(series._MAX_TERMS):
        x = term
        s = total + x
        if abs(total) >= abs(x):
            comp += (total - s) + x
        else:
            comp += (x - s) + total
        total = s
        s = total_abs + abs(x)
        if total_abs >= abs(x):
            comp_abs += (total_abs - s) + abs(x)
        else:
            comp_abs += (abs(x) - s) + total_abs
        total_abs = s
        num = 1.0
        for a in upper:
            num *= a + k
        den = float(k + 1)
        for b in lower:
            den *= b + k
        nxt = term * (num / den) * z
        ratio = abs(nxt / term) if term != 0.0 else 0.0
        term = nxt
        partial = abs(total + comp)
        if k > 0 and abs(term) <= 1e-15 * partial:
            streak += 1
        else:
            streak = 0
        if streak >= 3 and ratio < 1.0:
            break
    r_eff = max(ratio, abs(z)) if p == q + 1 else ratio
    tail = abs(x) * r_eff / (1.0 - r_eff)
    grand = total + comp
    return (grand, k + 1, tail, (total_abs + comp_abs) / abs(grand),
            math.log(abs(grand)), 1 if grand > 0.0 else -1)


def test_pfq_rows_match_the_one_row_loop_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(11)
    reqs = []
    for i in range(300):
        b1, b2 = rng.uniform(0.1, 5.0, 2)
        a1 = b2 + 0.05 + 3.0 * rng.random() if i % 2 else rng.uniform(0.05, 5)
        f = b2 * (1.0 + a1 - b1) / (a1 - b2)
        if f > 0.0:
            reqs.append(PfqRequest((b1 - a1 - 1.0, f + 1.0), (b1, f),
                                   -6.0 * rng.random() - 1e-3))
    reqs += [PfqRequest((0.5,), (), 0.7), PfqRequest((1.5, 2.5), (3.5,), -0.9),
             PfqRequest((), (1.3,), 4.0)]
    got = series.evaluate_batch(reqs)
    for req, res in zip(reqs, got):
        ref = _pfq_loop(*req)
        assert tuple(float.hex(float(v)) for v in (
            res.value, res.terms_used, res.tail_bound, res.condition_estimate,
            res.log_magnitude, res.sign)) == tuple(
            float.hex(float(v)) for v in ref)

    # one batch of one shape, so one recurrence, with three kinds of rows:
    # rows that stop at very different k (so ended rows run on masked, then
    # are dropped), a row whose third term leaves the double range, and a
    # row that hits the term budget; each equals its one-row call
    monkeypatch.setattr(series, "_MAX_TERMS", 60)
    mixed = [PfqRequest((0.5,), (1.5,), -0.01 * 2.0 ** i) for i in range(10)]
    mixed[3] = PfqRequest((4.0,), (1.5,), -1e300)
    mixed[6] = PfqRequest((0.5,), (1.5,), 200.0)
    mixed.append(PfqRequest((1.2,), (2.2,), 0.3))
    got = series.evaluate_batch(mixed)
    kinds = [type(r).__name__ for r in got]
    assert kinds.count("OverflowError") == 1 and kinds[3] == "OverflowError"
    assert kinds.count("NoConvergenceError") == 1
    assert kinds[6] == "NoConvergenceError"
    assert len({r.terms_used for r in got if isinstance(r, EvalResult)}) >= 5
    for req, res in zip(mixed, got):
        one = series.evaluate_batch([req])[0]
        if isinstance(res, Exception):
            assert type(one) is type(res) and str(one) == str(res)
        else:
            assert repr(one) == repr(res)
            ref = _pfq_loop(*req)
            assert tuple(float.hex(float(v)) for v in (
                res.value, res.terms_used, res.tail_bound,
                res.condition_estimate, res.log_magnitude,
                res.sign)) == tuple(float.hex(float(v)) for v in ref)


@pytest.mark.parametrize("upper, lower, z", [
    ((1.0,), (2.0,), 1.0), ((1.0,), (2.0,), 0.5),
    ((0.5, 1.0), (1.5,), 0.3), ((1.0, 1.0), (2.0,), 0.9),
    ((-2.5, 1.3), (0.7, 2.0), -1.5), ((0.5,), (1.5,), -3.0),
    ((2.0, 3.0), (1.5, 2.5), -4.0)])
def test_pfq_tail_bound_covers_the_remainder(upper, lower, z):
    # the terms from terms_used on, summed in 60 digits over 3,000 more
    # terms, within the stated tail bound
    res = pfq_direct(upper, lower, z)
    with mp.workdps(60):
        term, rest = mp.mpf(1), mp.mpf(0)
        for k in range(res.terms_used + 3000):
            if k >= res.terms_used:
                rest += term
            for a in upper:
                term *= a + k
            for b in lower:
                term /= b + k
            term *= mp.mpf(z) / (k + 1)
        assert res.tail_bound >= abs(rest)


@pytest.mark.xfail(strict=True, reason="cancellation at z < 0 returns a value "
                   "with no correct digit, and no error bound or refusal "
                   "says so")
def test_cancellation_at_negative_z_is_refused_or_accurate():
    params = FoxWrightParams(upper=((3.5024212894782467, 0.5830188472688517),))
    z = -15.59813889629372
    try:
        res = evaluate(params, z)
    except FoxWrightError:
        return
    ref = float(hp_eval(params, z)[0])
    assert abs(res.value - ref) <= res.tail_bound + 1e-13 * abs(ref)
