"""Named reductions: pFq, Mittag-Leffler, Wright, normalized Bessel, 2F2 pair."""

import math
import re

import mpmath as mp
import numpy as np
import pytest

from foxwright import (
    DivergentSeriesError,
    DomainError,
    EvalResult,
    FoxWrightError,
    FoxWrightParams,
    HypergeometricParams,
    MittagLefflerParams,
    NoConvergenceError,
    ParameterError,
    SingularTransformError,
    bessel_norm,
    evaluate_normalized,
    evaluate_tilde,
    kummer_2f2_pair,
    mittag_leffler,
    ml_derivative_identity_check,
    pFq,
    pfq_direct,
    wright,
)
from foxwright import functions, series
from foxwright.series import PfqRequest

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


# --- the scalar pFq sum: the twin of a batch row ---------------------------

def _fields(res):
    # every field of a result as exact hex, or an error's type and text
    if isinstance(res, Exception):
        return type(res), str(res)
    return tuple(float.hex(float(v)) for v in (
        res.value, res.terms_used, res.tail_bound, res.condition_estimate,
        res.log_magnitude, res.sign))


def _pfq_direct_or_error(req):
    try:
        return pfq_direct(*req)
    except (FoxWrightError, OverflowError) as exc:
        return exc


def _seeded_pfq_requests():
    # p <= q + 1, both signs of z, terminating negative-integer uppers,
    # z = 0, refusals, and sums whose term or partial sum leaves the range
    rng = np.random.default_rng(34)
    shapes = ((0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 2))
    reqs = []
    for i in range(330):
        p, q = shapes[i % len(shapes)]
        upper = rng.uniform(-6.0, 6.0, p)
        if p and i % 5 == 0:
            upper[0] = -float(rng.integers(0, 8))
        lower = rng.uniform(0.05, 6.0, q)
        z = (rng.uniform(-0.99, 0.99) if p == q + 1
             else (-1.0) ** i * 10.0 ** rng.uniform(-3.0, 1.5))
        if i % 37 == 0:
            z = 0.0
        reqs.append(PfqRequest(tuple(upper.tolist()), tuple(lower.tolist()),
                               float(z)))
    return reqs + [PfqRequest((1.0,), (1.0,), 710.0),
                   PfqRequest((1.0,), (1.0,), -710.0),
                   PfqRequest((4.0,), (1.5,), -1e300),
                   PfqRequest((1.0, 1.0, 1.0), (2.0,), 0.5),
                   PfqRequest((1.0, 1.0), (2.0,), -1.0),
                   PfqRequest((1.0, 1.0), (2.0,), 0.9999),
                   PfqRequest((1.0,), (1e-200, 1e-200), 0.5),
                   PfqRequest((), (1e-170, 1e-170), -0.5)]


@pytest.mark.parametrize("max_terms", [10000, 40])
def test_pfq_direct_is_its_batch_row_bit_for_bit(monkeypatch, max_terms):
    monkeypatch.setattr(series, "_MAX_TERMS", max_terms)
    reqs = _seeded_pfq_requests()
    rows = series.evaluate_batch(reqs)
    kinds = {type(r).__name__ for r in rows}
    assert {"EvalResult", "OverflowError", "DivergentSeriesError",
            "NoConvergenceError"} <= kinds
    for req, row in zip(reqs, rows):
        one = _pfq_direct_or_error(req)
        assert _fields(one) == _fields(row) == _fields(
            series.evaluate_batch([req])[0]), req


def test_pfq_sum_past_the_double_range_fails_at_once():
    # e^710: every term is finite, the partial sum is not; the sum stops
    # there instead of running out its term budget on a NaN compensation
    msg = "pFq partial sum at k=733 left the double range (z=710.0)"
    with pytest.raises(OverflowError, match=f"^{re.escape(msg)}$"):
        pfq_direct((1.0,), (1.0,), 710.0)
    got = series.evaluate_batch([PfqRequest((1.0,), (2.0,), 0.5),
                                 PfqRequest((1.0,), (1.0,), 710.0)])
    assert type(got[1]) is OverflowError and str(got[1]) == msg
    assert repr(got[0]) == repr(pfq_direct((1.0,), (2.0,), 0.5))
    # pFq sums e^710 over its saddle window, which names the value
    with pytest.raises(OverflowError, match="^series value has log-magnitude"):
        pFq(HypergeometricParams((1.0,), (1.0,)), 710.0)
    # e^-710: the partial sums stay finite, the sum of |t_k| does not, so
    # the condition would be NaN; pFq sums z < 0 by the recurrence too
    msg = "pFq sum of |t_k| at k=733 left the double range (z=-710.0)"
    got = series.evaluate_batch([PfqRequest((1.0,), (1.0,), -710.0)])
    assert type(got[0]) is OverflowError and str(got[0]) == msg
    for call in (lambda: pfq_direct((1.0,), (1.0,), -710.0),
                 lambda: pFq(HypergeometricParams((1.0,), (1.0,)), -710.0)):
        with pytest.raises(OverflowError, match=f"^{re.escape(msg)}$"):
            call()
    # lower parameters whose product underflows to 0: term 1 is about
    # 5e399, or -5e339, as the batch row says, not a division by zero
    for low, z in (((1e-200, 1e-200), 0.5), ((1e-170, 1e-170), -0.5)):
        upper = (1.0,) if z > 0.0 else ()
        msg = f"pFq term at k=1 left the double range (z={z})"
        got = series.evaluate_batch([PfqRequest(upper, low, z)])
        assert type(got[0]) is OverflowError and str(got[0]) == msg
        with pytest.raises(OverflowError, match=f"^{re.escape(msg)}$"):
            pfq_direct(upper, low, z)
    with pytest.raises(OverflowError, match=r"^pFq term at k=1 left"):
        pFq(HypergeometricParams((1.0,), (1e-200, 1e-200)), 0.5)


def _pfq_cases():
    rng = np.random.default_rng(7)
    shapes = ((0, 1), (1, 1), (1, 2), (2, 2), (0, 2), (2, 3))
    return [(tuple(rng.uniform(0.1, 5.0, p).tolist()),
             tuple(rng.uniform(0.1, 5.0, q).tolist()),
             (-1.0) ** i * float(rng.uniform(0.01, 6.0)))
            for i, (p, q) in enumerate(shapes * 10)]


def _within(res, ref):
    # the stated tail bound, plus the recurrence's rounding on sum |t_k|
    err = abs(mp.mpf(res.value) - ref)
    return err <= res.tail_bound + 1e-14 * res.condition_estimate * abs(
        res.value)


def test_pfq_and_bessel_norm_against_mpmath():
    with mp.workdps(40):
        for upper, lower, z in _pfq_cases():
            res = pFq(HypergeometricParams(upper, lower), z)
            assert _within(res, mp.hyper(list(upper), list(lower), z)), (
                upper, lower, z, res)
        rng = np.random.default_rng(8)
        for i in range(60):
            nu = float(rng.uniform(-0.9, 5.0))
            z = (-1.0) ** i * float(rng.uniform(0.01, 12.0))
            res = bessel_norm(nu, z)
            ref = mp.gamma(nu + 1) * (abs(z) / 2) ** (-nu) * mp.besseli(
                nu, abs(z))
            assert _within(res, ref), (nu, z, res)


# a pFq or bessel_norm call with a saddle window sums the window, as the
# Fox-Wright series with unit weights: the bits it has since the window is
# summed on a lattice, for numpy's AVX-512 and, where they differ, its AVX2
# kernels
_WINDOWED = {
    "1F1(0.1; 5; 730)": (
        lambda: pFq(HypergeometricParams((0.1,), (5.0,)), 730.0),
        lambda: evaluate_normalized(
            FoxWrightParams(((0.1, 1.0),), ((5.0, 1.0),)), 730.0),
        80, "0x1.dee261cf9fcf7p+1007",
        ("0x1.f1ad6ac88dddbp+939",) * 2,
        "0x1.5d501022a924ap+9"),
    "bessel_norm(2.5, 300)": (
        lambda: bessel_norm(2.5, 300.0),
        lambda: evaluate_tilde(FoxWrightParams((), ((3.5, 1.0),)), 22500.0),
        86, "0x1.0295ce7fc7a04p+411",
        ("0x1.04a31cbc26278p+342",) * 2, "0x1.1ce4bef7a2db2p+8"),
}


@pytest.mark.parametrize("case", list(_WINDOWED))
def test_windowed_pfq_keeps_its_bits(case, simd_target):
    call, fox_wright, terms, value, tails, log_mag = _WINDOWED[case]
    res = call()
    assert repr(res) == repr(fox_wright())
    assert res.terms_used == terms and res.sign == 1
    assert tuple(float.hex(x) for x in (
        res.value, res.tail_bound, res.condition_estimate,
        res.log_magnitude)) == (value, tails[simd_target == "AVX2"],
                                "0x1.0000000000000p+0", log_mag)


def test_pfq_calls_that_cannot_have_a_window_never_test_for_one(monkeypatch):
    # the window's first test needs ln(z)/eps >= ln 64: pFq and bessel_norm
    # calls below it sum their recurrence without building the Fox-Wright
    # params or calling _window, and the windowed cases above still call it
    tested = []
    window = functions._window
    monkeypatch.setattr(functions, "_window",
                        lambda *a: tested.append(a) or window(*a))
    pFq(HypergeometricParams((1.3, 2.2), (0.7, 3.1)), 2.1)
    pFq(HypergeometricParams((0.1,), (5.0,)), 60.0)
    bessel_norm(2.5, 15.0)  # 0F1 at z^2/4 = 56.25, eps = 2
    assert tested == []
    for call, *_ in _WINDOWED.values():
        call()
    assert len(tested) == len(_WINDOWED)


def test_term_overflow_counts_the_log_offset():
    # term 0 of the unnormalized series is Gamma(200) = e^857.9, past the
    # double range, but the normalized terms are not: the head and the
    # block phase compare the term log plus the offset
    p = FoxWrightParams(((200.0, 0.5),), ())
    with mp.workdps(40):
        for z, terms in ((0.1, 23), (15.0, 439)):
            res = evaluate_normalized(p, z)
            ref = mp.nsum(lambda k: mp.exp(mp.loggamma(200 + k / 2)
                                           - mp.loggamma(200))
                          * mp.mpf(z) ** k / mp.factorial(k), [0, mp.inf])
            assert res.terms_used == terms
            assert abs(res.value - ref) <= 1e-13 * ref
            row = series.evaluate_batch([series._normalized(p, z)])[0]
            assert _rel(row.value, res.value) <= 1e-14
        # and so does the window's fallback test: 1F1(200; 1; 300) keeps
        # its window (69 terms, where the plain sum takes 592)
        res = pFq(HypergeometricParams((200.0,), (1.0,)), 300.0)
        assert res.terms_used == 69
        assert abs(res.value - mp.hyper([200], [1], 300)) <= 1e-13 * res.value
        # 1F1(400; 1; 100) drops its window: its offset lnGamma(400) = 1993
        # costs a few more ulps of its term logs
        res = pFq(HypergeometricParams((400.0,), (1.0,)), 100.0)
        ref = mp.hyper([400], [1], 100)
        assert abs(res.value - ref) <= 1e-12 * ref
        # 1F1(1e4; 1; 10), whose unit-weight term 0 is Gamma(1e4)
        res = pFq(HypergeometricParams((1e4,), (1.0,)), 10.0)
        ref = mp.hyper([10000], [1], 10)
        assert abs(res.value - ref) <= 1e-12 * ref
