"""Series engine: evaluation variants, tails, derivatives, error handling."""

import json
import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foxwright import (
    DivergentSeriesError,
    EvalConfig,
    FoxWrightParams,
    NoConvergenceError,
    ParameterError,
    TailSpec,
    dbeta1,
    derivative,
    epsilon,
    evaluate,
    evaluate_normalized,
    evaluate_tail,
    evaluate_tilde,
    hp_eval,
    log_term,
)
from foxwright import series

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


def test_epsilon_and_divergence():
    assert abs(epsilon(P1) - 0.8) <= 1e-12
    bad = FoxWrightParams(upper=((1.0, 1.5),), lower=((1.0, 0.0),))
    with pytest.raises(DivergentSeriesError, match="divergent series"):
        evaluate(bad, 1.0)
    with pytest.raises(DivergentSeriesError, match="epsilon"):
        evaluate(FoxWrightParams(upper=((2.0, 1.0),)), 0.5)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        FoxWrightParams(upper=((-1.0, 1.0),))
    with pytest.raises(ParameterError):
        FoxWrightParams(lower=((1.0, -0.5),))
    with pytest.raises(ParameterError):
        FoxWrightParams(upper=((math.nan, 1.0),))
    with pytest.raises(ParameterError):
        EvalConfig(max_terms=5)


def test_overflow_and_log_mode():
    with pytest.raises(OverflowError):
        evaluate(FoxWrightParams(), 800.0)
    res = evaluate(FoxWrightParams(), 800.0, EvalConfig(log_mode=True))
    assert math.isinf(res.value)
    assert abs(res.log_magnitude - 800.0) <= 1e-9
    assert res.sign == 1


def test_log_mode_beyond_double_range_in_blocks():
    # sum z^k/(k+1)! = (e^z - 1)/z, about e^793 here: its ~1000 terms run
    # almost all in the block phase
    params = FoxWrightParams(upper=((1.0, 1.0),), lower=((2.0, 1.0),))
    res = evaluate(params, 800.0, EvalConfig(log_mode=True))
    assert res.terms_used > 900
    assert math.isinf(res.value) and res.sign == 1
    assert abs(res.log_magnitude - (800.0 - math.log(800.0))) <= 1e-12 * 800.0


def test_term_overflow_is_raised_at_the_first_term_past_the_range():
    # the first term of e^800 beyond the double range lies deep in a block
    k = next(k for k in range(1000)
             if k * math.log(800.0) - math.lgamma(k + 1.0) > 709.782712893384)
    assert k > 32 + 64
    with pytest.raises(OverflowError, match=f"term k={k} "):
        evaluate(FoxWrightParams(), 800.0)


def test_no_convergence_when_budget_too_small():
    with pytest.raises(NoConvergenceError):
        evaluate(FoxWrightParams(), 15.0, EvalConfig(max_terms=8))


def test_budget_that_cuts_a_block_short():
    # 100 terms: 32 one at a time, a block of 64, then a block cut to 4;
    # e^37 needs 98 terms, e^39 needs 102
    cfg = EvalConfig(max_terms=100)
    res = evaluate(FoxWrightParams(), 37.0, cfg)
    assert res.terms_used == 98
    assert _rel(res.value, math.exp(37.0)) <= 1e-15
    with pytest.raises(NoConvergenceError, match="within 100 terms"):
        evaluate(FoxWrightParams(), 39.0, cfg)


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
# the first block, next to factors expanded from the start
P_CROSS = FoxWrightParams(upper=((2.0, 0.2), (1.3, 0.7)),
                          lower=((0.9, 0.35),))


@pytest.mark.parametrize("params,z", [(P1, 3.5), (P_CROSS, -7.25)])
def test_block_term_logs_match_one_term_logs(params, z):
    one = series._TermLogs(params, z)
    ref = [one.at(k) for k in range(1, 400)]
    blocks = series._TermLogs(params, z)
    for k0, k1 in ((1, 20), (20, 84), (84, 400)):
        heads, tails = blocks.block(k0, k1)
        assert heads.shape == tails.shape == (k1 - k0,)
        for k, h, l in zip(range(k0, k1), heads.tolist(), tails.tolist()):
            rh, rl = ref[k - 1]
            assert abs((h - rh) + (l - rl)) <= 1e-14, k


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


def test_tail_switches_to_blocks_after_32_terms(monkeypatch):
    spans = []
    block = series._TermLogs.block

    def recording(self, k0, k1):
        spans.append((k0, k1))
        return block(self, k0, k1)

    monkeypatch.setattr(series._TermLogs, "block", recording)
    n = 4
    res = evaluate_tail(P1, TailSpec(n), 9.0)
    assert spans[0] == (n + 1 + 32, n + 1 + 32 + 64)
    assert res.terms_used > 32
    full = evaluate(P1, 9.0)
    head = sum(math.exp(log_term(P1, 9.0, k)) for k in range(n + 1))
    assert abs(full.value - head - res.value) <= 1e-12 * full.value


# eps = 0.3 and z = 4 put the peak term near k = 500; both calls below sum
# about 1,070 terms, nearly all of them in blocks
P_LONG = FoxWrightParams(upper=((2.0, 1.2),), lower=((1.5, 0.5),))


def test_long_derivative_matches_oracle():
    res = derivative(P_LONG, 4.0)
    assert res.terms_used > 1000
    ref = float(hp_eval(P_LONG.shifted(), 4.0)[0])
    assert abs(res.value - ref) <= res.tail_bound + 1e-13 * abs(ref)


def test_long_dbeta1_matches_oracle():
    res = dbeta1(P_LONG, 4.0)
    assert res.terms_used > 1000
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
    assert abs(epsilon(shifted) - epsilon(P1)) <= 1e-15


def test_json_round_trip():
    blob = json.loads(json.dumps(P1.to_json()))
    again = FoxWrightParams.from_json(blob)
    assert again == P1
    # extra keys are echo metadata, not parameters
    blob["n"] = 3
    assert FoxWrightParams.from_json(blob) == P1


_pair = st.tuples(st.floats(min_value=0.2, max_value=4.0),
                  st.floats(min_value=0.0, max_value=2.0))


@given(st.lists(_pair, max_size=2), st.lists(_pair, min_size=1, max_size=2))
@settings(max_examples=60, deadline=None)
def test_normalized_anchors_at_one(upper, lower):
    params = FoxWrightParams(upper=tuple(upper), lower=tuple(lower))
    if epsilon(params) <= 0.05:
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
