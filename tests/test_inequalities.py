"""Inequality checkers: margins, domains, anchors, oracle agreement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foxwright import (
    DomainError,
    EvalResult,
    FoxWrightParams,
    GridError,
    ParameterError,
    chi_check,
    corollary3_2f2_check,
    kn_ratio,
    kn_value_and_bound,
    lazarevic_check,
    logconcavity_check,
    ratio_monotonicity_check,
    tail_turan_check,
    turan_alpha_check,
    turan_beta_check,
    wilker_check,
    xi_prime,
)
from foxwright import gammakit, inequalities
from foxwright.gammakit import digamma, log_gamma
from foxwright.inequalities import _omega
from foxwright.series import _exp_or_inf
from foxwright.suites import hp_margin

P1 = FoxWrightParams(upper=((1.3, 0.7), (2.1, 1.4)),
                     lower=((0.9, 1.1), (1.7, 0.8)))
Q1 = FoxWrightParams(upper=(), lower=((1.0, 1.0),))

# I0(2)*I2(2) - I1(2)^2/2, from 40-digit Bessel values
TURAN_BETA_Q1_Z1 = 0.3054539537760246
# hyperbolic margins at z = 1, from 40-digit values:
# sinh^{3/2} - cosh^{1/2} and sinh^2 + tanh - 2
LAZ_HYPERBOLIC_Z1 = 0.03178882853887486
WIL_HYPERBOLIC_Z1 = 0.1426920014975806


def _hp_agrees(rep, digits=30, loose=1.0):
    hp = hp_margin(rep, digits=digits)
    if math.isinf(rep.margin) or math.isinf(hp):
        return rep.margin == hp
    scale = max(abs(rep.lhs), abs(rep.rhs), 1e-300)
    tol = loose * max(1e-8 * scale, 50.0 * rep.err_estimate, 1e-12)
    return abs(hp - rep.margin) <= tol


def test_turan_alpha_basic():
    rep = turan_alpha_check(P1, 2.0)
    assert rep.passed and rep.margin >= 0.0
    assert rep.suite_id == "turan-alpha"
    assert _hp_agrees(rep)


def test_turan_beta_basic_and_oracle():
    rep = turan_beta_check(P1, 2.0)
    assert rep.passed and rep.margin >= 0.0
    assert _hp_agrees(rep)


def test_turan_beta_frozen_bessel_margin():
    rep = turan_beta_check(Q1, 1.0)
    assert abs(rep.margin - TURAN_BETA_Q1_Z1) <= 1e-12


def test_turan_beta_margin_vanishes_at_zero():
    # the beta1/(beta1+1) constant is exactly the z -> 0 equality case
    for params in (P1, Q1, FoxWrightParams(upper=((2.0, 1.0),),
                                           lower=((1.5, 1.0), (0.7, 2.0)))):
        assert abs(turan_beta_check(params, 0.0).margin) <= 1e-14
        if params.upper:
            rep = turan_alpha_check(params, 0.0)
            assert rep.passed and rep.margin >= 0.0


def test_turan_rejects_negative_z():
    with pytest.raises(DomainError):
        turan_beta_check(P1, -0.5)
    with pytest.raises(DomainError):
        turan_alpha_check(P1, -0.5)


def test_corollary3_passes_and_agrees():
    rep = corollary3_2f2_check(3.0, 1.8, 1.1, -2.0)
    assert rep.passed
    assert rep.suite_id == "corollary3-2f2"
    assert set(rep.params_echo) == {"alpha1", "beta1", "beta2"}
    assert _hp_agrees(rep)
    with pytest.raises(DomainError):
        corollary3_2f2_check(3.0, 1.8, 1.1, 0.5)


def test_corollary3_flags_lost_digits_as_a_numerical_failure():
    # the alternating 2F2 sums lose digits as |z| grows: condition 1.8e8
    # at z = -30 is past the 1e6 limit, 3.6e4 at z = -20 is not
    bad = corollary3_2f2_check(3.0, 1.5, 1.0, -30.0)
    assert bad.aux["condition"] > 1e6
    assert bad.status == "numerical-failure" and bad.passed is False
    ok = corollary3_2f2_check(3.0, 1.5, 1.0, -20.0)
    assert 1e4 < ok.aux["condition"] <= 1e6
    assert ok.status == "ok" and ok.passed


def test_ratio_monotonicity_check():
    grid = [0.5 * (k + 1) for k in range(10)]
    rep = ratio_monotonicity_check(P1, "beta", 1.1, 2.3, grid)
    assert rep.passed
    assert rep.aux["n_comparisons"] >= len(grid)
    assert rep.aux["ratio_first"] >= rep.aux["ratio_last"]
    assert _hp_agrees(rep)
    rep2 = ratio_monotonicity_check(P1, "alpha", 0.9, 1.7, grid)
    assert rep2.passed
    with pytest.raises(ParameterError):
        ratio_monotonicity_check(P1, "gamma", 1.0, 2.0, grid)
    with pytest.raises(GridError):
        ratio_monotonicity_check(P1, "beta", 1.0, 2.0, [1.0])


def test_tail_turan_closed_form_exp():
    # empty parameters, n = 0, z = 1: the tails are e-1, e-2, e-2.5
    rep = tail_turan_check(FoxWrightParams(), 0, 1.0)
    closed = (math.e - 2.0) ** 2 - (math.e - 1.0) * (math.e - 2.5)
    assert abs(rep.margin - closed) <= 1e-14
    assert rep.passed


def test_tail_turan_large_z_stays_stable():
    # margins here are astronomically large; the log-space identity must
    # not produce a spurious sign flip
    rep = tail_turan_check(FoxWrightParams(), 0, 800.0)
    assert rep.passed and rep.margin > 0.0
    rep2 = tail_turan_check(FoxWrightParams(upper=(), lower=((1.4, 0.6),)),
                            3, 500.0)
    assert rep2.passed and rep2.margin > 0.0


def test_tail_turan_oracle_agreement():
    rep = tail_turan_check(FoxWrightParams(upper=((1.2, 0.0),),
                                           lower=((0.8, 1.0),)), 2, 3.0)
    assert rep.passed
    assert _hp_agrees(rep)


def test_tail_turan_rejects_varying_upper():
    with pytest.raises(ParameterError):
        tail_turan_check(P1, 0, 1.0)


def test_kn_sharp_constant():
    assert abs(kn_ratio(Q1, 0, 1e-6) - 4.0 / 9.0) <= 1e-4


def test_kn_value_and_bound_grid():
    grid = [10.0 * (i + 1) / 50 for i in range(50)]
    rep = kn_value_and_bound(Q1, 0, z_grid=grid)
    assert rep.passed
    assert abs(rep.aux["bound"] - 4.0 / 9.0) <= 1e-12
    ks = rep.aux["k_values"]
    assert len(ks) == 50
    for a, b in zip(ks, ks[1:]):
        assert b >= a - (1e-12 + 1e-9 * abs(a))
    assert _hp_agrees(rep)


def test_kn_large_z_limit():
    # K_n -> 1 from below as z grows; the two-regime evaluation must keep
    # the value finite and monotone through the crossover
    ks = [kn_ratio(Q1, 0, z) for z in (1.0, 10.0, 100.0, 1000.0, 2000.0)]
    for a, b in zip(ks, ks[1:]):
        assert b >= a - 1e-11
    assert ks[-1] <= 1.0 + 1e-9


def test_kn_requires_constant_upper():
    with pytest.raises(ParameterError):
        kn_value_and_bound(FoxWrightParams(((1.0, 0.5),), ((1.0, 1.0),)), 0, z=1.0)
    # exploratory ratio has no such gate
    assert kn_ratio(FoxWrightParams(((1.0, 0.5),), ((1.0, 1.0),)), 0, 1.0) > 0.0
    with pytest.raises(DomainError):
        kn_ratio(Q1, 0, 0.0)
    with pytest.raises(ParameterError):
        kn_ratio(Q1, -1, 1.0)


def test_chi_check_fields_and_oracle():
    grid = [1.0 + 0.15 * k for k in range(12)]
    rep = chi_check(2.4, 0.8, 1.3, grid, 2.0)
    assert rep.passed
    assert len(rep.aux["chi_values"]) == 12
    assert len(rep.aux["omega_values"]) == 12
    assert all(w >= -1e-12 for w in rep.aux["omega_values"])
    assert _hp_agrees(rep)
    with pytest.raises(GridError):
        chi_check(2.4, 0.8, 1.3, [1.0], 2.0)


def test_lazarevic_margin_and_tightness():
    rep = lazarevic_check(2.5, 1.3, 0.9, 1.2, 2.0)
    assert rep.passed and rep.margin >= 0.0
    assert _hp_agrees(rep)
    # tight at z -> 0
    assert abs(lazarevic_check(2.5, 1.3, 0.9, 1.2, 1e-8).margin) <= 1e-6
    with pytest.raises(DomainError):
        lazarevic_check(0.5, 1.3, 2.0, 1.2, 1.0)


def test_lazarevic_bessel_hyperbolic_anchor():
    # a1 = b2, B1 = 1, b1 = nu + 1 at z^2/4 is the normalized Bessel form
    # I[nu+1]^{nu+2} >= I[nu]^{nu+1}; nu = -1/2, z = 1 reduces it to
    # (sinh 1)^{3/2} >= (cosh 1)^{1/2}, whatever a1 = b2
    for a in (0.7, 1.0, 3.2):
        rep = lazarevic_check(a, 0.5, a, 1.0, 0.25)
        assert abs(rep.margin - LAZ_HYPERBOLIC_Z1) <= 1e-9
        assert rep.passed
        assert _hp_agrees(rep)
    assert lazarevic_check(1.0, 1.5, 1.0, 1.0, 0.25).passed


def test_wilker_margin_and_tightness():
    rep = wilker_check(2.5, 1.3, 0.9, 1.2, 2.0)
    assert rep.passed and rep.margin >= 0.0
    assert _hp_agrees(rep)
    assert abs(wilker_check(2.5, 1.3, 0.9, 1.2, 1e-8).margin) <= 1e-6


def test_wilker_bessel_hyperbolic_anchor():
    # the Bessel form I[nu+1]/I[nu] + I[nu+1]^{1/(nu+1)} >= 2; nu = -1/2,
    # z = 1 reduces it to tanh 1 + (sinh 1)^2 >= 2
    for a in (0.7, 1.0, 3.2):
        rep = wilker_check(a, 0.5, a, 1.0, 0.25)
        assert abs(rep.margin - WIL_HYPERBOLIC_Z1) <= 1e-9
        assert rep.passed
        assert _hp_agrees(rep)
    assert wilker_check(1.0, 2.5, 1.0, 1.0, 1.0).passed


def test_wilker_wright():
    # a1 = b2 = 1 cancels their gamma factors: the normalized Wright
    # function W[B1, b1]
    rep = wilker_check(1.0, 2.1, 1.0, 1.4, 3.0)
    assert rep.passed and rep.margin >= 0.0
    assert _hp_agrees(rep)


def test_logconcavity_triple():
    params = FoxWrightParams(upper=((1.6, 1.0),),
                             lower=((1.2, 1.3), (0.9, 1.0)))
    reps = logconcavity_check(params, 0.8, 2.4)
    assert [r.suite_id for r in reps] == [
        "logconcave:midpoint", "logconcave:expbound", "logconcave:deriv"]
    for r in reps:
        assert r.passed, (r.suite_id, r.margin)
        assert _hp_agrees(r)
    assert reps[0].aux["z1"] == 0.8 and reps[0].aux["z2"] == 2.4


@pytest.mark.parametrize("upper, lower, z1, z2", [
    (((3.0944458072644014, 1.0), (5.723187952088285, 1.0)),
     ((1.6720274882363606, 0.2876418519104492), (0.11475260832557499, 1.0),
      (3.9247047427103983, 1.0)), 1.3822664436085597, 12.024550772037937),
    (((5.807395370152804, 1.0), (4.171100166884749, 1.0)),
     ((0.22628054051858815, 2.182874530759663), (3.06517297063776, 1.0),
      (1.9452704711284565, 1.0)), 0.16651123657825728, 18.671717312327555),
])
def test_expbound_error_covers_the_amplified_exponent(upper, lower, z1, z2):
    # exp(c zm) turns the absolute error of its computed exponent c zm (about
    # 240 and 120 here) into its relative error; charging only rounding of
    # the result left these rows 11.4x and 1.3x outside err_estimate
    _, exb, _ = logconcavity_check(FoxWrightParams(upper, lower), z1, z2)
    assert exb.suite_id == "logconcave:expbound"
    assert abs(exb.margin - hp_margin(exb, 30)) <= exb.err_estimate


def test_logconcavity_shape_guards():
    with pytest.raises(ParameterError):
        # upper weight must be 1
        logconcavity_check(FoxWrightParams(((1.6, 0.5),),
                                           ((1.2, 1.3), (0.9, 1.0))), 0.5, 1.5)
    # equal points degenerate to the equality case of the midpoint bound
    mid, exb, der = logconcavity_check(
        FoxWrightParams(((1.6, 1.0),), ((1.2, 1.3), (0.9, 1.0))), 2.0, 2.0)
    assert mid.passed and abs(mid.margin) <= 1e-14 * abs(mid.lhs)
    with pytest.raises(DomainError):
        logconcavity_check(FoxWrightParams(((1.6, 1.0),),
                                           ((1.2, 1.3), (0.9, 1.0))), -1.0, 2.0)


def test_xi_prime_nonnegative_on_proven_shape():
    # one upper pair, one lower pair, unit weights, alpha1 >= beta2
    vals = [xi_prime(FoxWrightParams(((2.0, 1.0),), ((1.2, 1.0),)), z)
            for z in (0.2, 1.5, 4.0)]
    assert all(v >= -1e-12 for v in vals)


@given(st.floats(min_value=0.3, max_value=4.0),
       st.floats(min_value=0.3, max_value=4.0),
       st.floats(min_value=0.0, max_value=6.0))
@settings(max_examples=60, deadline=None)
def test_turan_beta_property(beta1, beta2, z):
    params = FoxWrightParams(upper=(), lower=((beta1, 1.0), (beta2, 0.7)))
    rep = turan_beta_check(params, z)
    assert rep.passed, (beta1, beta2, z, rep.margin)


@given(st.floats(min_value=0.5, max_value=3.5),
       st.floats(min_value=0.5, max_value=3.0),
       st.floats(min_value=0.1, max_value=2.5),
       st.floats(min_value=0.0, max_value=5.0))
@settings(max_examples=40, deadline=None)
def test_lazarevic_property(alpha1, beta1, b1, z):
    beta2 = min(alpha1, 0.9)  # keep alpha1 >= beta2
    rep = lazarevic_check(alpha1, beta1, beta2, b1, z)
    assert rep.passed, (alpha1, beta1, beta2, b1, z, rep.margin)


def _omega_loop(alpha1, beta1, beta2, B1, z, k_max):
    # the direct double loop the vectorized witness replaced: the reference
    if B1 == 0.0 or alpha1 == beta2:
        return 0.0, 0.0
    c = beta1 + B1
    lnz = math.log(z)
    lg_a = [log_gamma(alpha1 + i) for i in range(k_max + 1)]
    lg_f = [0.0] * (k_max + 1)
    for i in range(2, k_max + 1):
        lg_f[i] = lg_f[i - 1] + math.log(i)
    lg_c = [log_gamma(c + i * B1) for i in range(k_max + 1)]
    lg_b = [log_gamma(beta2 + i) for i in range(k_max + 1)]
    psi_c = [digamma(c + i * B1) for i in range(k_max + 1)]
    total = 0.0
    last_block = 0.0
    for k in range(1, k_max + 1):
        block = 0.0
        for j in range(0, (k - 1) // 2 + 1):
            e = (lg_a[j] + lg_a[k - j] - lg_f[j] - lg_f[k - j]
                 - lg_c[j] - lg_c[k - j] - lg_b[j] - lg_b[k - j]
                 + k * lnz)
            block += (_exp_or_inf(e) * (k - 2 * j) * (alpha1 - beta2)
                      * (psi_c[k - j] - psi_c[j])
                      / ((beta2 + k - j) * (beta2 + j)))
        total += block
        last_block = block
    return total, last_block


def _close(got, ref, rel):
    if math.isinf(ref) or ref == 0.0:
        return got == ref
    return abs(got - ref) <= rel * abs(ref)


@given(st.floats(min_value=0.1, max_value=5.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=3.0),
       st.lists(st.tuples(st.floats(min_value=0.1, max_value=5.1),
                          st.integers(min_value=11, max_value=80)),
                min_size=1, max_size=4),
       st.floats(min_value=1e-3, max_value=20.0))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_omega_matches_direct_loop(alpha1, frac, B1, grid, z):
    beta2 = 0.1 + frac * (alpha1 - 0.1)
    beta1, k_max = [b for b, _ in grid], [k for _, k in grid]
    values, lasts = _omega(alpha1, beta1, beta2, B1, z, k_max)
    for b1, k, got in zip(beta1, k_max, zip(values, lasts)):
        ref = _omega_loop(alpha1, b1, beta2, B1, z, k)
        assert (_close(got[0], ref[0], 1e-14)
                and _close(got[1], ref[1], 1e-14)), (got, ref)
        assert got[0] >= 0.0


def _omega_hex(*args):
    return [[float.hex(v) for v in out] for out in _omega(*args)]


def test_omega_grid_is_the_one_point_form_bit_for_bit(monkeypatch):
    # the points of one grid, each summed to its own k_max, give the bits
    # of each point alone, whose (k, j) array is the smallest that holds it,
    # and so do chunks of one point each
    alpha1, beta2, B1, z = 2.7, 0.8, 1.3, 9.5
    beta1 = [0.3 + 0.25 * i for i in range(20)]
    k_max = [11 + (37 * i) % 60 for i in range(20)]
    grid = _omega_hex(alpha1, beta1, beta2, B1, z, k_max)
    alone = [_omega_hex(alpha1, [b], beta2, B1, z, [k])
             for b, k in zip(beta1, k_max)]
    assert grid == [[a[0][0] for a in alone], [a[1][0] for a in alone]]
    assert len(set(grid[0])) == 20
    monkeypatch.setattr(inequalities, "_OMEGA_CAP", 1)
    assert _omega_hex(alpha1, beta1, beta2, B1, z, k_max) == grid


def test_omega_lngamma_columns_are_log_gamma(monkeypatch, simd_target):
    # the one array pass over the lnGamma columns gives each entry within
    # 1e-15 relative of one scalar log_gamma call, and its bits where
    # numpy's logs are libm's (AVX2); with numpy's AVX-512 logs two of these
    # eight values move in the last bits
    args = (1.9, [1.1, 0.55, 2.3, 0.2], 0.4, 0.7, 14.0, [81, 40, 60, 23])
    values = _omega(*args)
    columns = []

    def scalar(x):
        columns.append(x)
        return np.array([log_gamma(v) for v in x.tolist()])

    monkeypatch.setattr(inequalities, "_log_gamma_array", scalar)
    ref = _omega(*args)
    (x,) = columns
    lg, lg_ref = gammakit._log_gamma_array(x), scalar(x)
    assert np.all(np.abs(lg - lg_ref) <= 1e-15 * np.maximum(1.0,
                                                            np.abs(lg_ref)))
    for got, want in zip(values, ref):
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)
    if simd_target == "AVX2":
        assert [[float.hex(v) for v in out] for out in values] == [
            [float.hex(v) for v in out] for out in ref]


def test_omega_longer_shared_columns_change_no_bit():
    # a longer point beside it lengthens the shared columns and the (k, j)
    # array; the shorter point keeps every bit
    alpha1, beta2, B1, z, b1 = 1.9, 0.4, 0.7, 14.0, 1.1
    alone = _omega_hex(alpha1, [b1], beta2, B1, z, [23])
    for longer in (24, 30, 81):
        both = _omega_hex(alpha1, [b1, b1], beta2, B1, z, [23, longer])
        assert [both[0][0], both[1][0]] == [alone[0][0], alone[1][0]]


def test_omega_is_zero_without_b1_or_with_a1_equal_to_b2():
    assert _omega(1.5, [0.5, 2.0], 0.9, 0.0, 3.0, [15, 30]) == (
        [0.0, 0.0], [0.0, 0.0])
    assert _omega(1.5, [0.5, 2.0, 3.0], 1.5, 0.6, 3.0, [15, 30, 12]) == (
        [0.0] * 3, [0.0] * 3)


def test_tail_turan_resolves_inf_minus_inf_as_diff_does(monkeypatch):
    # T_{n+1} t_{n+2} and T_{n+1} t_{n+1} both overflow and their logs tie:
    # the margin inf - inf is resolved by _diff's rule, which gives 0
    monkeypatch.setattr(inequalities, "log_term", lambda params, z, k: 300.0)
    gen = inequalities._tail_turan(Q1, 0, 1.0)
    next(gen)
    with pytest.raises(StopIteration) as stop:
        gen.send([EvalResult(math.inf, 10, 0.0, 1.0, 500.0, 1)])
    rep = stop.value.value
    tie = inequalities._diff(inequalities._Q(800.0), inequalities._Q(800.0))
    assert math.isinf(rep.lhs) and rep.margin == tie["margin"] == 0.0


def test_logconcavity_takes_its_points_in_either_order():
    params = FoxWrightParams(((2.0, 1.0),), ((1.5, 0.5), (1.0, 1.0)))
    assert (repr(logconcavity_check(params, 2.5, 0.5))
            == repr(logconcavity_check(params, 0.5, 2.5)))
