"""Named special functions of the family.

Generalized hypergeometric pFq, the 2n-parameter Mittag-Leffler function,
the Wright function (plain and normalized), and the normalized Bessel
function, all as thin reductions over the series engine; plus the Kummer
2F2 transform pair and the Mittag-Leffler derivative identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DomainError,
    ParameterError,
    SingularTransformError,
)
from .report import InequalityReport, value_report
from .series import (
    EvalResult,
    FoxWrightParams,
    PfqRequest,
    Request,
    _LOG_DOUBLE_MAX,
    _exp_or_inf,
    _normalized,
    _single,
    _tilde,
    derivative,
    evaluate,
    evaluate_tilde,
)

__all__ = [
    "HypergeometricParams",
    "MittagLefflerParams",
    "pFq",
    "pfq_direct",
    "mittag_leffler",
    "wright",
    "bessel_norm",
    "kummer_2f2_pair",
    "ml_derivative_identity_check",
]


@dataclass(frozen=True)
class HypergeometricParams:
    """Plain pFq parameters: all entries positive, weights implicitly 1."""

    upper: tuple[float, ...] = ()
    lower: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        up = tuple(float(a) for a in self.upper)
        low = tuple(float(b) for b in self.lower)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "lower", low)
        for v in up + low:
            if not (v > 0.0 and math.isfinite(v)):
                raise ParameterError(f"pFq parameters must be positive, got {v}")


@dataclass(frozen=True)
class MittagLefflerParams:
    """(B_j, beta_j) pairs of the 2n-parameter Mittag-Leffler function.

    All beta_j > 0, all B_j >= 0, and at least one B_j nonzero (otherwise
    every term repeats the same gamma product and the series diverges).
    """

    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        pairs = tuple((float(w), float(b)) for w, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise ParameterError("need at least one (B, beta) pair")
        for w, b in pairs:
            if not (b > 0.0 and math.isfinite(b)):
                raise ParameterError(f"beta must be positive, got {b}")
            if not (w >= 0.0 and math.isfinite(w)):
                raise ParameterError(f"B must be >= 0, got {w}")
        if not any(w > 0.0 for w, _ in pairs):
            raise ParameterError("at least one B_j must be nonzero")

    def as_foxwright(self) -> FoxWrightParams:
        return FoxWrightParams(
            upper=((1.0, 1.0),),
            lower=tuple((b, w) for w, b in self.pairs),
        )


def pfq_direct(upper: tuple[float, ...], lower: tuple[float, ...],
               z: float) -> EvalResult:
    """Direct pFq summation via the Pochhammer term recurrence.

    Unlike the Fox-Wright route this accepts arbitrary real upper
    parameters (negative values make the series terminate or alternate),
    which the transformed 2F2 family requires.  Lower parameters must be
    positive.  Convergence gate: p <= q, or p = q + 1 with |z| < 1.  The
    sum is the one-row case of the pFq request kind of
    ``series.evaluate_batch``, which refuses what the gate does not admit.
    """
    return _single(PfqRequest(tuple(float(a) for a in upper),
                              tuple(float(b) for b in lower), z))


def _hyper_request(hp: HypergeometricParams, z: float) -> Request | PfqRequest:
    if len(hp.upper) > len(hp.lower):  # p = q + 1, or the divergent p > q + 1
        return PfqRequest(hp.upper, hp.lower, z)
    return _normalized(FoxWrightParams(
        upper=tuple((a, 1.0) for a in hp.upper),
        lower=tuple((b, 1.0) for b in hp.lower),
    ), z)


def pFq(hp: HypergeometricParams, z: float) -> EvalResult:
    """Generalized hypergeometric series sum_k [prod (a)_k / prod (b)_k] z^k/k!.

    For p <= q this routes through the Fox-Wright engine with all weights 1
    (the ratio of the two definitions is prod Gamma(b) / prod Gamma(a), i.e.
    the normalized evaluation); the boundary case p = q + 1 converges only
    for |z| < 1 and is summed directly.
    """
    return _single(_hyper_request(hp, z))


def mittag_leffler(mlp: MittagLefflerParams, z: float) -> EvalResult:
    """2n-parameter Mittag-Leffler sum_k z^k / prod_j Gamma(beta_j + k*B_j)."""
    return evaluate(mlp.as_foxwright(), z)


def wright(B1: float, beta1: float, z: float,
           normalized: bool = False) -> EvalResult:
    """Wright function sum_k z^k / (k! Gamma(beta1 + k*B1)).

    With ``normalized`` the result is scaled by Gamma(beta1) so it equals 1
    at z = 0.
    """
    params = FoxWrightParams(upper=(), lower=((beta1, B1),))
    if normalized:
        return evaluate_tilde(params, z)
    return evaluate(params, z)


def bessel_norm(nu: float, z: float) -> EvalResult:
    """Normalized Bessel function Gamma(nu+1) sum_k (z^2/4)^k / (k! Gamma(nu+1+k)).

    Reduces to cosh z at nu = -1/2 and sinh(z)/z at nu = 1/2; equals 1 at
    z = 0 for every nu.
    """
    if not nu > -1.0:
        raise DomainError(f"normalized Bessel needs nu > -1, got {nu}")
    if not math.isfinite(z):  # before squaring, so the message names this z
        raise DomainError(f"z must be finite, got z={z!r}")
    w = z * z / 4.0
    if not math.isfinite(w):
        raise DomainError(f"z*z/4 overflows the double range at z={z!r}")
    return _single(_tilde(FoxWrightParams(upper=(), lower=((nu + 1.0, 1.0),)),
                          w))


def _scale_result(res: EvalResult, log_factor: float) -> EvalResult:
    """Multiply an evaluation by exp(log_factor), staying in log space."""
    if res.sign == 0:
        return res
    log_mag = res.log_magnitude + log_factor
    if log_mag > _LOG_DOUBLE_MAX:
        raise OverflowError(
            f"scaled value has log-magnitude {log_mag:.6g}, beyond double "
            "range; evaluate_batch returns the log-magnitude of the pFq "
            "before scaling")
    return EvalResult(
        value=res.sign * _exp_or_inf(log_mag),
        terms_used=res.terms_used,
        tail_bound=res.tail_bound * _exp_or_inf(log_factor),
        condition_estimate=res.condition_estimate,
        log_magnitude=log_mag,
        sign=res.sign,
    )


def kummer_2f2_pair(a: float, b: float, c: float,
                    z: float) -> tuple[EvalResult, EvalResult]:
    """The 2F2 transform pair: both components evaluate the same function.

    Returns (2F2(a, c+1; b, c; z),  e^z * 2F2(b-a-1, f1+1; b, f1; -z)) with
    f1 = c(1 + a - b)/(a - c).  The two must agree wherever the transform
    is defined; disagreement signals an engine bug, which is what the tests
    use it for.
    """
    if a == c:
        raise SingularTransformError(
            "transform pivot a - c vanishes; the pair is undefined at a = c")
    if not (b > 0.0 and c > 0.0):
        raise ParameterError(f"lower parameters must be positive, got b={b}, c={c}")
    f1 = c * (1.0 + a - b) / (a - c)
    if not f1 > 0.0:
        raise ParameterError(
            f"transformed lower parameter f1 = c(1+a-b)/(a-c) = {f1:.6g} "
            "must be positive")
    lhs = pfq_direct((a, c + 1.0), (b, c), z)
    rhs = pfq_direct((b - a - 1.0, f1 + 1.0), (b, f1), -z)
    return lhs, _scale_result(rhs, z)


def ml_derivative_identity_check(B: float, beta: float,
                                 z: float) -> InequalityReport:
    """Check d/dz E_{B,beta}(z) = (E_{B,beta-1}(z) - (beta-1) E_{B,beta}(z)) / (B z).

    The left side goes through the parameter-shift derivative, the right
    side re-expresses it through the contiguous function, so the two sides
    exercise different code paths.
    """
    if not beta > 1.0:
        raise DomainError(f"identity needs beta > 1, got {beta}")
    if z == 0.0:
        raise DomainError("identity divides by z; z = 0 rejected")
    if not B > 0.0:
        raise ParameterError(f"identity needs B > 0, got {B}")
    params = FoxWrightParams(upper=((1.0, 1.0),), lower=((beta, B),))
    lhs_res = derivative(params, z)
    e_here = evaluate(params, z)
    e_down = evaluate(params.with_lower_value(0, beta - 1.0), z)
    rhs = (e_down.value - (beta - 1.0) * e_here.value) / (B * z)
    lhs = lhs_res.value
    err = lhs_res.tail_bound + (e_down.tail_bound
                                + abs(beta - 1.0) * e_here.tail_bound) / abs(B * z)
    # the sides of an identity agree: the margin is minus their distance
    return value_report("ml-derivative-identity", {"B": B, "beta": beta}, z,
                        lhs, rhs, -abs(lhs - rhs), err)
