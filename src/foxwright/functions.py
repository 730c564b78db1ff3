"""Named special functions of the family.

Generalized hypergeometric pFq, the 2n-parameter Mittag-Leffler function,
the Wright function (plain and normalized), and the normalized Bessel
function (0F1), with the Kummer 2F2 transform pair and the Mittag-Leffler
derivative identity.  pFq and 0F1 sum by their Pochhammer recurrence in
scalar floats (``_pfq_sum``, bit for bit a pFq row of ``evaluate_batch``),
or at z > 0 over a saddle window as unit-weight Fox-Wright series; the
others reduce to the series engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import series
from .errors import (
    DivergentSeriesError,
    DomainError,
    NoConvergenceError,
    ParameterError,
    SingularTransformError,
)
from .report import InequalityReport, value_report
from .series import (
    _LOG_DOUBLE_MAX,
    _REL_TOL,
    EvalResult,
    FoxWrightParams,
    Request,
    _exp_or_inf,
    _geometric_tail,
    _normalized,
    _sum_window,
    derivative,
    evaluate,
    evaluate_tilde,
)
from .window import _peak_in_reach, _window

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


def _require_convergent_pfq(upper, lower, z) -> None:
    # the one check of a pFq sum, single call or batch row
    try:
        p, q = len(upper), len(lower)
        if not math.isfinite(z):
            raise DomainError(f"z must be finite, got z={z!r}")
        for a in upper:
            if not math.isfinite(a):
                raise ParameterError(
                    f"pFq upper parameters must be finite, got {a}")
        for b in lower:
            if not (b > 0.0 and math.isfinite(b)):
                raise ParameterError(
                    f"pFq lower parameters must be positive, got {b}")
    except TypeError:  # a value that is no number, or no tuple of them
        raise ParameterError(f"pFq parameters and z must be numbers, got "
                             f"{upper!r}, {lower!r}, z={z!r}") from None
    except OverflowError:  # an int past the double range
        raise ParameterError(
            "pFq parameters and z must lie in the double range") from None
    if p > q + 1:
        raise DivergentSeriesError(f"pFq with p={p} > q+1={q + 1} diverges")
    if p == q + 1 and abs(z) >= 1.0:
        raise DivergentSeriesError(
            f"pFq with p = q+1 needs |z| < 1, got z={z!r}")


def _pfq_sum(upper, lower, z) -> EvalResult:
    # the recurrence of a checked pFq: the scalar twin of a batch._pfq_rows
    # row, its +, -, *, / in the same order, so its bits, error or result
    up, low, x_z = [float(a) for a in upper], [float(b) for b in lower], float(z)
    p, q, rest = len(up), len(low), up[1:]
    term, total, comp, total_abs, comp_abs, streak = 1.0, 0.0, 0.0, 0.0, 0.0, 0
    for k in range(series._MAX_TERMS):
        # ddmath._two_sum written out (a call a term costs), on x and |x|
        x, ax = term, abs(term)
        s, t = total + x, total_abs + ax
        v, w = s - total, t - total_abs
        comp += (total - (s - v)) + (x - v)
        comp_abs += (total_abs - (t - w)) + (ax - w)
        total, total_abs = s, t
        if not math.isfinite(total_abs):  # as is total: |total| <= total_abs
            raise _pfq_overflow(k, total, total_abs, z)
        num = up[0] + k if p else 1.0
        for a in rest:
            num = num * (a + k)
        den = float(k + 1)
        for b in low:
            den = den * (b + k)
        # a den that underflows to 0 makes numpy's num / den inf or NaN
        nxt = term * (num / den) * x_z if den != 0.0 else math.inf
        if not math.isfinite(nxt):
            raise _pfq_overflow(k, total, total_abs, z)
        ratio = abs(nxt / term) if term != 0.0 else 0.0
        term = nxt
        streak = (streak + 1 if k > 0 and abs(term) <= _REL_TOL * abs(
            total + comp) else 0)
        if streak >= 3 and ratio < 1.0:
            return _pfq_result(total + comp, total_abs + comp_abs, x, ratio,
                               x_z, k + 1, p == q + 1)
    raise _pfq_no_stop(z)


def _pfq_overflow(k: int, total: float, total_abs: float, z) -> OverflowError:
    # the partial sum to term k, else its sum of |t_k| (whose overflow would
    # make the condition NaN), else term k + 1 left the double range
    what = (f"term at k={k + 1}" if math.isfinite(total_abs) else
            f"partial sum at k={k}" if not math.isfinite(total) else
            f"sum of |t_k| at k={k}")
    return OverflowError(f"pFq {what} left the double range (z={z!r})")


def _pfq_no_stop(z) -> NoConvergenceError:
    return NoConvergenceError(f"pFq stop rule did not fire within "
                              f"{series._MAX_TERMS} terms (z={z!r})")


def _pfq_result(grand: float, total_abs: float, last: float, ratio: float,
                z: float, terms: int, boundary: bool) -> EvalResult:
    # the tail from the last term summed and the ratio of the next one to
    # it; for p = q+1 the term ratio tends to |z| from below/above, so take
    # the more conservative of that ratio and |z|, which is below 1 there
    r = max(ratio, abs(z)) if boundary else ratio
    tail = _geometric_tail(abs(last), r)
    if grand == 0.0:
        cond = 1.0 if total_abs == 0.0 else math.inf
        return EvalResult(0.0, terms, tail, cond, -math.inf, 0)
    return EvalResult(grand, terms, tail, total_abs / abs(grand),
                      math.log(abs(grand)), 1 if grand > 0.0 else -1)


def pfq_direct(upper: tuple[float, ...], lower: tuple[float, ...],
               z: float) -> EvalResult:
    """Direct pFq summation via the Pochhammer term recurrence.

    Unlike ``pFq`` this accepts arbitrary real upper parameters (negative
    values make the series terminate or alternate), which the transformed
    2F2 family requires.  Lower parameters must be positive.  Convergence
    gate: p <= q, or p = q + 1 with |z| < 1.  Summed in scalar floats, bit
    for bit a ``series.PfqRequest`` row of ``series.evaluate_batch``, which
    fails where this raises, at a term or a sum of t_k or |t_k| past the
    double range.
    """
    _require_convergent_pfq(upper, lower, z)
    return _pfq_sum(upper, lower, z)


def _unit_weight_sum(upper, lower, z) -> EvalResult:
    # pFq by the recurrence, or over the saddle window of its unit-weight
    # series normalized to 1 at z = 0, where its rounding does not grow with k
    _require_convergent_pfq(upper, lower, z)
    eps = 1.0 + len(lower) - len(upper)  # epsilon() of unit weights
    # with unit weights the window's first test reads ln z / eps exactly:
    # the params are built only for a call that passes it
    if (z > 0.0 and len(upper) <= len(lower)
            and _peak_in_reach(math.log(z) / eps, 0, eps)):
        params = FoxWrightParams(tuple((a, 1.0) for a in upper),
                                 tuple((b, 1.0) for b in lower))
        win = _window(Request(params, z), eps)
        if win is not None:
            return _sum_window(_normalized(params, z), win, eps, False)
    return _pfq_sum(upper, lower, z)


def pFq(hp: HypergeometricParams, z: float) -> EvalResult:
    """Generalized hypergeometric series sum_k [prod (a)_k / prod (b)_k] z^k/k!.

    Summed as ``pfq_direct`` sums it (p <= q, or p = q + 1 and |z| < 1),
    unless at z > 0 its terms peak far from k = 0: then over its saddle
    window, as the Fox-Wright series with all weights 1 normalized to 1 at
    z = 0 (their ratio is prod Gamma(b) / prod Gamma(a)).
    """
    return _unit_weight_sum(hp.upper, hp.lower, z)


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

    That is 0F1(; nu+1; z^2/4) (DLMF 10.25.2), summed as ``pFq`` sums it.
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
    return _unit_weight_sum((), (nu + 1.0,), w)


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
