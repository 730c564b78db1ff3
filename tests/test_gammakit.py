"""Gamma toolbox: log-gamma, digamma, stable ratios."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foxwright import (
    DomainError,
    digamma,
    gamma_ratio,
    log_gamma,
)
from foxwright.gammakit import _digamma_array, _log_gamma_array
from foxwright.report import margin_passes

# Euler-Mascheroni constant
_GAMMA = 0.5772156649015329


def test_log_gamma_exact_zeros():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(2.0) == 0.0


@pytest.mark.parametrize("x", [1e-3, 0.1, 0.37, 0.5, 1.5, 2.5, 3.7, 8.0,
                               12.5, 47.0, 100.0, 1e4, 1e8, 1e12])
def test_log_gamma_against_lgamma(x):
    ref = math.lgamma(x)
    assert abs(log_gamma(x) - ref) <= 5e-14 * max(1.0, abs(ref))


def test_log_gamma_rejects_nonpositive():
    for x in (0.0, -1.0, -0.5, math.nan):
        with pytest.raises(DomainError):
            log_gamma(x)


@given(st.floats(min_value=1e-3, max_value=1e6))
@settings(max_examples=80, deadline=None)
def test_log_gamma_matches_lgamma_everywhere(x):
    ref = math.lgamma(x)
    assert abs(log_gamma(x) - ref) <= 1e-13 * max(1.0, abs(ref))


def test_log_gamma_against_mpmath():
    # every branch below the Stirling form, where the zeta-series table
    # carries the result, and past it to 12; near the zeros at 1 and 2 the
    # bound is absolute
    xs = [1e-3 * 12e3 ** (i / 2000) for i in range(2001)]
    xs += [0.5 + i / 800 for i in range(2001)]
    for b in (0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.0):
        xs += [math.nextafter(b, 0.0), b, math.nextafter(b, 12.0)]
    with mp.workdps(30):
        for x in xs:
            ref = mp.loggamma(x)
            err = float(abs(log_gamma(x) - ref))
            assert err <= 4 * 2.0 ** -52 * max(1.0, abs(float(ref))), x


def test_digamma_known_values():
    assert abs(digamma(1.0) + _GAMMA) <= 1e-13
    assert abs(digamma(2.0) - (1.0 - _GAMMA)) <= 1e-13
    assert abs(digamma(0.5) + _GAMMA + 2.0 * math.log(2.0)) <= 1e-13


def test_digamma_refuses_an_argument_whose_reciprocal_overflows():
    # psi(x) = -1/x - gamma + O(x): below about 5.6e-309 that lies past the
    # double range, and the shifted sum would return NaN
    with pytest.raises(DomainError, match=r"^digamma needs 1/x finite, "
                                          r"got 1e-310$"):
        digamma(1e-310)
    with pytest.raises(DomainError, match="1/x finite"):
        digamma(5e-324)
    assert digamma(1e-308) == -1e308
    assert digamma(5.6e-309) == -1.7857142857142864e308


@given(st.floats(min_value=0.01, max_value=1e5))
@settings(max_examples=80, deadline=None)
def test_digamma_recurrence(x):
    # psi(x+1) = psi(x) + 1/x
    lhs = digamma(x + 1.0)
    rhs = digamma(x) + 1.0 / x
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_digamma_increasing():
    xs = [0.1, 0.5, 1.0, 2.0, 5.0, 20.0]
    vals = [digamma(x) for x in xs]
    assert vals == sorted(vals)


def _assert_scalar_twin(got, x, scalar, simd_target):
    # an array kernel against its scalar twin: within 1e-15 relative on
    # every target, and bit for bit where numpy's logs are libm's (AVX2)
    assert got.shape == x.shape
    ref = np.array([scalar(v) for v in x.ravel().tolist()]).reshape(x.shape)
    assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))
    if simd_target == "AVX2":
        assert [v.hex() for v in got.ravel().tolist()] == [
            v.hex() for v in ref.ravel().tolist()]


def test_digamma_array_is_digamma(simd_target):
    # a grid across the zero of psi near 1.4616 and the shift threshold 8,
    # the neighbours of both, and the dbeta1 form b + k*B as a 2-d array
    zero = 1.4616321449683622
    pts = [zero, 8.0, 7.0, 1.0, 2.0, 1e-3, 1e6]
    pts += [math.nextafter(x, d) for x in (zero, 8.0, 7.0) for d in (0, 20)]
    x = np.concatenate([np.linspace(0.01, 12.0, 4001), pts])
    k = np.arange(64.0)
    bk = np.array([[0.3], [1.2], [1.4616], [7.9]]) + k * np.array(
        [[0.05], [0.0], [0.25], [1.5]])
    for arr in (x, bk):
        _assert_scalar_twin(_digamma_array(arr), arr, digamma, simd_target)


def test_log_gamma_array_is_log_gamma(simd_target):
    # every branch of log_gamma: x < 0.5, [0.5, 1.5), [1.5, 8) with each
    # shift count, and the Stirling form from 8 on; the branch edges and
    # their neighbours, and the exact zeros 1 and 2
    rng = np.random.default_rng(7)
    edges = [0.5, 1.5, 2.5, 7.5, 8.0]
    pts = [1.0, 2.0, 30.0, 1e3, 1e-300, 5e-324, 1e12, 1e150]
    pts += [math.nextafter(x, d) for x in edges + [1.0, 2.0]
            for d in (0, 20)]
    # Stirling arguments whose np.log differs from math.log in the last
    # bit under numpy's AVX-512 kernels, and so does their lnGamma
    pts += [float.fromhex(h) for h in ("0x1.cc0e3cee7f042p+4",
                                       "0x1.083efdab8fe58p+6",
                                       "0x1.1b5a6dab439f5p+7")]
    x = np.concatenate([rng.uniform(1e-3, 0.5, 2000),
                        rng.uniform(0.5, 1.5, 2000),
                        rng.uniform(1.5, 8.0, 4000),
                        rng.uniform(8.0, 200.0, 2000),
                        edges, pts])
    got = _log_gamma_array(x)
    assert got[x == 1.0][0] == 0.0 and got[x == 2.0][0] == 0.0
    _assert_scalar_twin(got, x, log_gamma, simd_target)


def test_gamma_ratio_matches_lgamma_form():
    for z, a in [(0.3, 1.7), (1.0, 0.0), (2.5, 0.75), (10.0, 3.0), (0.7, 2.2)]:
        ref = math.exp(math.lgamma(z + a) - math.lgamma(z))
        assert abs(gamma_ratio(z, a) - ref) <= 1e-12 * ref


def test_gamma_ratio_large_argument():
    # Gamma(z+a)/Gamma(z) ~ z^a for large z; the naive quotient of two
    # gamma values would overflow long before z = 1e8
    got = gamma_ratio(1e8, 0.5)
    assert abs(got - 1e4) <= 1e-3


@given(st.floats(min_value=0.05, max_value=50.0),
       st.floats(min_value=0.0, max_value=4.0),
       st.floats(min_value=0.0, max_value=4.0))
@settings(max_examples=100, deadline=None)
def test_gamma_ratio_shift_monotone(z, a, b):
    # z -> Gamma(z+a)/Gamma(z) is nondecreasing, so shifting z by b >= 0
    # can only grow the ratio; b = a gives Gamma(z) Gamma(z+2a) >= Gamma(z+a)^2
    lhs, rhs = gamma_ratio(z + b, a), gamma_ratio(z, a)
    assert margin_passes(lhs - rhs, lhs, rhs)


def test_gamma_ratio_rejects_bad_domain():
    with pytest.raises(DomainError):
        gamma_ratio(0.0, 1.0)
    with pytest.raises(DomainError):
        gamma_ratio(-1.0, 1.0)
    with pytest.raises(DomainError):
        gamma_ratio(1.0, -0.1)
