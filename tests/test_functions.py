"""Named reductions: pFq, Mittag-Leffler, Wright, normalized Bessel, 2F2 pair."""

import math
import re

import mpmath as mp
import pytest

from foxwright import (
    DivergentSeriesError,
    DomainError,
    EvalResult,
    FoxWrightParams,
    HypergeometricParams,
    MittagLefflerParams,
    NoConvergenceError,
    ParameterError,
    SingularTransformError,
    bessel_norm,
    kummer_2f2_pair,
    mittag_leffler,
    ml_derivative_identity_check,
    pFq,
    pfq_direct,
    wright,
)
from foxwright import functions

# 40-digit references for the generic instances below
ML4_Z25 = 6.421328074302353333740     # pairs ((0.8, 1.2), (1.1, 0.7)), z = 2.5
WRIGHT_REF = 3.500299824253758056216  # B1 = 0.75, beta1 = 1.25, z = 1.5
KUMMER_REF = 0.4914126293707725       # a, b, c, z = 0.7, 1.9, 1.4, -1.3


def _rel(got, ref):
    return abs(got - ref) / max(1e-300, abs(ref))


def test_pfq_0f0_is_exp():
    assert _rel(pFq(HypergeometricParams(), 2.0).value, math.exp(2.0)) <= 1e-13


def test_pfq_1f1_closed_form():
    # 1F1(1; 2; z) = (e^z - 1)/z
    res = pFq(HypergeometricParams((1.0,), (2.0,)), 1.0)
    assert _rel(res.value, math.e - 1.0) <= 1e-13


def test_pfq_2f1_log_case():
    # 2F1(1, 1; 2; z) = -log(1-z)/z
    res = pFq(HypergeometricParams((1.0, 1.0), (2.0,)), 0.5)
    assert _rel(res.value, 2.0 * math.log(2.0)) <= 1e-12


@pytest.mark.parametrize("upper,lower,z", [
    ((0.7,), (1.9, 2.4), 3.0),
    ((1.2, 0.5), (2.2, 0.8), -1.5),
    ((2.0, 1.1, 0.4), (3.0, 1.3, 0.9), 0.9),
])
def test_pfq_against_mpmath(upper, lower, z):
    ref = float(mp.hyper(list(upper), list(lower), z))
    assert _rel(pFq(HypergeometricParams(upper, lower), z).value, ref) <= 1e-12


def test_pfq_convergence_gates():
    with pytest.raises(DivergentSeriesError):
        pFq(HypergeometricParams((1.0, 1.0, 1.0), (2.0,)), 0.5)
    with pytest.raises(DivergentSeriesError):
        pFq(HypergeometricParams((1.0, 1.0), (2.0,)), 1.0)
    with pytest.raises(DivergentSeriesError):
        pfq_direct((1.0, 1.0), (2.0,), -1.0)


def test_pfq_past_the_term_budget_is_no_convergence():
    # 2F1(1, 1; 2; z) converges at |z| < 1, but at z = 0.9999 its terms
    # fall below the stop rule's tolerance only after some 3e5 terms: the
    # sum runs out of its term budget as a series does, with
    # NoConvergenceError, which the suites turn into a failure row
    with pytest.raises(NoConvergenceError, match=re.escape(
            "pFq stop rule did not fire within 10000 terms (z=0.9999)")):
        pfq_direct((1.0, 1.0), (2.0,), 0.9999)


def test_pfq_direct_negative_upper_terminates():
    # upper -2 makes the series a polynomial
    ref = float(mp.hyper([-2, 1.0], [1.0, 1.0], 3.0))
    res = pfq_direct((-2.0, 1.0), (1.0, 1.0), 3.0)
    assert _rel(res.value, ref) <= 1e-13
    # 1F1(-1; 1; 1) = 1 - 1: a zero value has no sign or log, and its
    # relative condition is unbounded
    res = pfq_direct((-1.0,), (1.0,), 1.0)
    assert (res.value, res.sign) == (0.0, 0)
    assert res.log_magnitude == -math.inf
    assert res.condition_estimate == math.inf


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
def test_non_finite_z_is_a_domain_error(z):
    for call in (lambda: pfq_direct((0.5,), (1.0,), z),
                 lambda: pFq(HypergeometricParams((1.0, 1.0), (2.0,)), z),
                 lambda: pFq(HypergeometricParams((0.5,), (2.0,)), z),
                 lambda: mittag_leffler(MittagLefflerParams(((0.8, 1.2),)), z),
                 lambda: wright(0.75, 1.25, z),
                 lambda: bessel_norm(0.5, z),
                 lambda: kummer_2f2_pair(0.7, 1.9, 1.4, z)):
        # the message names the z that was passed, not a transformed one
        with pytest.raises(DomainError,
                           match=re.escape(f"z must be finite, got z={z!r}")):
            call()


@pytest.mark.parametrize("z", [1e200, -1e200, 1.5e154, -2.7e154])
def test_bessel_norm_argument_past_the_double_range_is_a_domain_error(z):
    # a finite z whose z*z/4 overflows: the message names this z and the
    # overflow, not "z must be finite, got z=inf"
    with pytest.raises(DomainError, match=re.escape(
            f"z*z/4 overflows the double range at z={z!r}")):
        bessel_norm(0.5, z)


@pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
def test_pfq_rejects_non_finite_upper(a):
    with pytest.raises(ParameterError, match="upper parameters must be finite"):
        pfq_direct((a,), (1.0,), 0.5)


def test_pfq_rejects_nonpositive_lower():
    with pytest.raises(ParameterError):
        pfq_direct((1.0,), (0.0,), 0.5)
    with pytest.raises(ParameterError):
        HypergeometricParams((1.0,), (-2.0,))


def test_mittag_leffler_hyperbolic_cases():
    cosh1 = mittag_leffler(MittagLefflerParams(((2.0, 1.0),)), 1.0)
    sinh1 = mittag_leffler(MittagLefflerParams(((2.0, 2.0),)), 1.0)
    assert _rel(cosh1.value, math.cosh(1.0)) <= 1e-13
    assert _rel(sinh1.value, math.sinh(1.0)) <= 1e-13


def test_mittag_leffler_four_parameter():
    mlp = MittagLefflerParams(((0.8, 1.2), (1.1, 0.7)))
    assert _rel(mittag_leffler(mlp, 2.5).value, ML4_Z25) <= 5e-13


def test_mittag_leffler_validation():
    with pytest.raises(ParameterError):
        MittagLefflerParams(())
    with pytest.raises(ParameterError):
        MittagLefflerParams(((0.0, 1.0),))  # every B zero
    with pytest.raises(ParameterError):
        MittagLefflerParams(((1.0, -0.5),))


def test_wright_reference_and_normalization():
    assert _rel(wright(0.75, 1.25, 1.5).value, WRIGHT_REF) <= 5e-13
    assert wright(0.75, 1.25, 0.0, normalized=True).value == pytest.approx(1.0, abs=1e-15)
    # B1 = 0 collapses to exp(z)/Gamma(beta1)
    assert _rel(wright(0.0, 2.0, 1.3).value, math.exp(1.3)) <= 1e-13


def test_bessel_norm_closed_forms():
    # nu = 1/2 and -1/2 are the hyperbolic cases
    for z in (0.4, 1.0, 2.3):
        assert _rel(bessel_norm(0.5, z).value, math.sinh(z) / z) <= 1e-12
        assert _rel(bessel_norm(-0.5, z).value, math.cosh(z)) <= 1e-12
    i0 = float(mp.besseli(0, 2))
    assert _rel(bessel_norm(0.0, 2.0).value, i0) <= 1e-12


def test_bessel_norm_is_even_and_one_at_zero():
    assert bessel_norm(1.7, 0.0).value == pytest.approx(1.0, abs=1e-15)
    assert bessel_norm(1.7, -3.0).value == bessel_norm(1.7, 3.0).value


def test_bessel_norm_domain():
    with pytest.raises(DomainError):
        bessel_norm(-1.0, 1.0)


def test_kummer_pair_closed_case():
    lhs, rhs = kummer_2f2_pair(1.0, 3.0, 2.0, 1.0)
    assert _rel(lhs.value, math.e - 1.0) <= 1e-12
    assert _rel(rhs.value, math.e - 1.0) <= 1e-12


def test_kummer_pair_generic_agreement():
    lhs, rhs = kummer_2f2_pair(0.7, 1.9, 1.4, -1.3)
    assert _rel(lhs.value, KUMMER_REF) <= 1e-12
    assert _rel(lhs.value, rhs.value) <= 1e-12


def test_kummer_pair_guards():
    with pytest.raises(SingularTransformError):
        kummer_2f2_pair(1.5, 2.0, 1.5, 0.5)
    with pytest.raises(ParameterError):
        kummer_2f2_pair(2.0, 1.0, 3.0, 0.5)  # f1 < 0
    with pytest.raises(ParameterError):
        kummer_2f2_pair(1.0, -1.0, 2.0, 0.5)


def test_ml_derivative_identity():
    for B, beta, z in [(1.0, 2.0, 0.7), (0.6, 1.4, -1.1), (2.2, 3.1, 2.0)]:
        rep = ml_derivative_identity_check(B, beta, z)
        assert rep.passed, (B, beta, z, rep.margin)
        assert rep.suite_id == "ml-derivative-identity"


def test_ml_derivative_identity_overflow_raises():
    # the derivative is finite, but the right side's E_{0.5,1} lies past
    # the double range, and the single calls behind the identity raise
    msg = ("series value has log-magnitude 712.081, beyond double range; "
           "evaluate_batch returns its log-magnitude")
    with pytest.raises(OverflowError, match=f"^{re.escape(msg)}$"):
        ml_derivative_identity_check(0.5, 2.0, 26.671862787236662)


def test_scaled_overflow_names_evaluate_batch():
    res = EvalResult(1.0, 1, 0.0, 1.0, 0.0, 1)
    msg = ("scaled value has log-magnitude 710, beyond double range; "
           "evaluate_batch returns the log-magnitude of the pFq before scaling")
    with pytest.raises(OverflowError, match=f"^{re.escape(msg)}$"):
        functions._scale_result(res, 710.0)


def test_ml_derivative_identity_domain():
    with pytest.raises(DomainError):
        ml_derivative_identity_check(1.0, 0.9, 1.0)
    with pytest.raises(DomainError):
        ml_derivative_identity_check(1.0, 2.0, 0.0)
    with pytest.raises(ParameterError):
        ml_derivative_identity_check(0.0, 2.0, 1.0)


def test_fox_wright_generalizes_pfq():
    # same function through the generic engine and the pFq front end
    hp = HypergeometricParams((1.4,), (2.6, 0.9))
    from foxwright import evaluate_normalized
    params = FoxWrightParams(upper=((1.4, 1.0),), lower=((2.6, 1.0), (0.9, 1.0)))
    a = pFq(hp, 1.8).value
    b = evaluate_normalized(params, 1.8).value
    assert _rel(a, b) <= 1e-14
