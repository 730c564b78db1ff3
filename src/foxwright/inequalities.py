"""Checkers for the functional inequalities of the Fox-Wright family.

Each checker evaluates both sides of one inequality at concrete parameters
and returns an InequalityReport carrying the margin (lhs - rhs, oriented so
nonnegative means the inequality holds), an error estimate for the computed
margin, and enough echo data to reproduce the comparison.  Products and
powers are formed in log space so an overflowing side yields an honest
+-inf margin instead of an exception, and every error estimate is carried
by one value type, _Q.

Every row is built by one of two helpers, so the pass rule and its fixed
tolerances live in one place (report.margin_passes): report.value_report
for one comparison (sides given as _Q values go through _diff first), and
report.worst_report for the checkers that judge a set of comparisons
(ratio-monotone, kn-bound, chi) and report the one with the smallest margin.

Each checker is a generator: it yields the list of series evaluations it
needs (``series.Request`` and ``series.PfqRequest`` items), is sent their
results, may yield again, and returns its report.  ``_run_rounds`` advances
many of them in lockstep with one ``series.evaluate_batch`` call a round;
the suite runner drives a whole suite that way.  Each public checker is
its generator wrapped by ``_public``, which drives that one generator
through ``_run_rounds`` and returns its report, so a direct call and the
matching suite row are the same computation; the generator carries the
checker's signature and docstring, and the public names are bound in one
block at the end of the module.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Generator, Sequence

import numpy as np

from .errors import (
    DomainError,
    GridError,
    ParameterError,
    SingularTransformError,
)
from .gammakit import (
    _digamma_array,
    _log_gamma_array,
    gamma_ratio,
    log_gamma,
)
from .report import (STATUS_NUMERICAL_FAILURE, _is_index, value_report,
                     worst_report)
from .series import (
    _LOG_DOUBLE_MAX,
    _exp_or_inf,
    _normalized,
    _tilde,
    EvalResult,
    FoxWrightParams,
    PfqRequest,
    Request,
    evaluate_batch,
    log_term,
)

__all__ = [
    "turan_alpha_check",
    "turan_beta_check",
    "corollary3_2f2_check",
    "ratio_monotonicity_check",
    "tail_turan_check",
    "kn_ratio",
    "kn_value_and_bound",
    "chi_check",
    "lazarevic_check",
    "wilker_check",
    "logconcavity_check",
    "xi_prime",
]

# the rounding unit: the relative error charged per unit of a series'
# condition number, and the absolute error charged per unit of |x| to a log
# x formed from rounded scalars
_U = 1e-14

_CONDITION_LIMIT = 1e6


# what a checker generator is: it yields request lists, is sent their
# results, and returns its report (or reports)
Rounds = Generator[list, list, object]


def _run_rounds(gens: list[Rounds], absorb: tuple = ()) -> list:
    """Advance checker generators in lockstep to their return values.

    One evaluate_batch call serves every generator still running in a
    round, in log mode.  A request that fails is thrown into its own
    generator only.  Returns each generator's return value, or the
    exception of a type in ``absorb`` that ended it; any other exception
    propagates.
    """
    out: list = [None] * len(gens)
    waiting: dict[int, list] = {}

    def advance(i: int, results: list | None = None,
                exc: Exception | None = None) -> None:
        try:
            if exc is None:
                waiting[i] = gens[i].send(results)
            else:
                waiting[i] = gens[i].throw(exc)
        except StopIteration as stop:
            out[i] = stop.value
        except absorb as err:
            out[i] = err

    for i in range(len(gens)):
        advance(i)
    while waiting:
        batch = list(waiting.items())
        waiting.clear()
        results = evaluate_batch([r for _, reqs in batch for r in reqs])
        at = 0
        for i, reqs in batch:
            mine = results[at:at + len(reqs)]
            at += len(reqs)
            failed = [r for r in mine if isinstance(r, Exception)]
            advance(i, mine, failed[0] if failed else None)
    return out


def _public(rounds: Callable[..., Rounds]) -> Callable:
    """The public checker of a generator: it drives one generator alone
    through _run_rounds, the suite runner's path, and returns its report."""
    @functools.wraps(rounds)
    def check(*args, **kwargs):
        return _run_rounds([rounds(*args, **kwargs)])[0]
    return check


class _Q:
    """A magnitude exp(log) whose log has absolute error err, which is the
    magnitude's relative error to first order (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 3).  A product or
    quotient adds relative errors and a power e scales it by |e|; computed
    adds u|log| to a log formed from rounded scalars (a computed exponent
    times a log, lnGamma values, or the argument of exp).  Each rule forms
    its log by the float expression a checker would write by hand."""

    __slots__ = ("log", "err")

    def __init__(self, log: float, err: float = 0.0) -> None:
        self.log, self.err = log, err

    def __mul__(self, other: "_Q") -> "_Q":
        return _Q(self.log + other.log, self.err + other.err)

    def __truediv__(self, other: "_Q") -> "_Q":
        return _Q(self.log - other.log, self.err + other.err)

    def __pow__(self, e: float) -> "_Q":
        return _Q(e * self.log, abs(e) * self.err)

    def computed(self) -> "_Q":
        return _Q(self.log, self.err + _U * abs(self.log))

    @property
    def value(self) -> float:
        return _exp_or_inf(self.log)


def _of(res: EvalResult) -> _Q:
    """A series evaluation's magnitude, with its relative truncation
    estimate plus u per unit of condition number as its error."""
    log_tail = math.log(res.tail_bound) if res.tail_bound > 0.0 else -math.inf
    return _Q(res.log_magnitude, _exp_or_inf(log_tail - res.log_magnitude)
              + _U * res.condition_estimate)


def _err(*terms: _Q) -> float:
    """Absolute error of a sum or difference of the magnitudes, the sum of
    theirs; NaN (inf * 0) reads as inf."""
    err = sum([t.value * t.err for t in terms])
    return math.inf if math.isnan(err) else err


def _margin(lhs: float, rhs: float, lhs_log: float, rhs_log: float) -> float:
    """lhs - rhs, with inf - inf resolved by comparing the sides' logs."""
    if not math.isnan(lhs - rhs):
        return lhs - rhs
    return (math.inf if lhs_log > rhs_log
            else -math.inf if lhs_log < rhs_log else 0.0)


def _diff(a: _Q, b: _Q) -> dict:
    """The comparison a >= b: its lhs, rhs, margin and err."""
    lhs, rhs = a.value, b.value
    return {"lhs": lhs, "rhs": rhs, "margin": _margin(lhs, rhs, a.log, b.log),
            "err": _err(a, b)}


def _check_grid(values: Sequence[float], what: str) -> None:
    if len(values) < 2:
        raise GridError(f"{what} needs at least 2 points, got {len(values)}")
    for a, b in zip(values, values[1:]):
        if not b > a:
            raise GridError(f"{what} must be strictly increasing, got {a!r} >= {b!r}")
    for v in values:
        if not math.isfinite(v):
            raise GridError(f"{what} contains a non-finite value {v!r}")


# ---------------------------------------------------------------------------
# Turan inequalities in the parameters.  Slot "alpha" varies the first upper
# value, slot "beta" the first lower value.


def _slot(params: FoxWrightParams, slot: str) -> tuple[str, tuple, Callable]:
    """The side a slot varies ("upper" for "alpha", "lower" for "beta"), its
    pairs, and the map from a value to params with its first value replaced."""
    if slot == "alpha":
        return ("upper", params.upper,
                functools.partial(params.with_upper_value, 0))
    return "lower", params.lower, functools.partial(params.with_lower_value, 0)


def _turan(params: FoxWrightParams, z: float, slot: str) -> Rounds:
    # margin = Psi[v] Psi[v+2] - c Psi[v+1]^2 in the slot's first value v,
    # with c = 1 in slot "alpha" and v/(v+1) in slot "beta"
    side, pairs, put = _slot(params, slot)
    if not pairs:
        raise ParameterError(f"needs at least one {side} parameter pair")
    if z < 0.0:
        raise DomainError(f"defined for z >= 0, got z={z!r}")
    v = pairs[0][0]
    c = 1.0 if slot == "alpha" else v / (v + 1.0)
    r0, r1, r2 = yield [Request(params, z), Request(put(v + 1.0), z),
                        Request(put(v + 2.0), z)]
    return value_report(f"turan-{slot}", params.to_json(), z,
                        **_diff(_of(r0) * _of(r2),
                                _Q(math.log(c)).computed() * _of(r1) ** 2))


def _turan_alpha(params: FoxWrightParams, z: float) -> Rounds:
    """Turan inequality in the first upper parameter.

    margin = Psi[a1] * Psi[a1+2] - Psi[a1+1]^2 >= 0 at fixed z >= 0, where
    Psi[v] denotes the series with the first upper value replaced by v.
    """
    return (yield from _turan(params, z, "alpha"))


def _turan_beta(params: FoxWrightParams, z: float) -> Rounds:
    """Turan inequality in the first lower parameter.

    margin = Psi[b1] * Psi[b1+2] - b1/(b1+1) * Psi[b1+1]^2 >= 0 at z >= 0,
    with equality at z = 0.
    """
    return (yield from _turan(params, z, "beta"))


# ---------------------------------------------------------------------------
# Transformed 2F2 Turan product at negative argument


def _corollary3_2f2(alpha1: float, beta1: float, beta2: float,
                    z: float) -> Rounds:
    """Turan-type product inequality for the transformed 2F2 family at z < 0.

    With f = b2(1+a1-b1)/(a1-b2), g = b2(a1-b1-1)/(a1-b2), and
    h = b2(a1-b1)/(a1-b2), all required positive:

        F(b1-a1-1, f+1; b1, f; z) * F(b1-a1+1, g+1; b1+2, g; z)
            >= F(b1-a1, h+1; b1+1, h; z)^2.

    The alternating sums lose accuracy as |z| grows; when the worst
    condition estimate exceeds 1e6 the report is marked numerical-failure
    instead of pass/fail.
    """
    if not (beta1 > 0.0 and beta2 > 0.0):
        raise ParameterError(
            f"beta1 and beta2 must be positive, got {beta1!r}, {beta2!r}")
    if alpha1 == beta2:
        raise SingularTransformError(
            "transform pivot alpha1 - beta2 vanishes; parameters undefined")
    if not z < 0.0:
        raise DomainError(f"defined for z < 0, got z={z!r}")
    piv = alpha1 - beta2
    f = beta2 * (1.0 + alpha1 - beta1) / piv
    g = beta2 * (alpha1 - beta1 - 1.0) / piv
    h = beta2 * (alpha1 - beta1) / piv
    bad = [(n, v) for n, v in (("f", f), ("g", g), ("h", h)) if not v > 0.0]
    if bad:
        raise ParameterError(
            "derived lower parameters must be positive: "
            + ", ".join(f"{n} = {v:.6g}" for n, v in bad))
    args = (((beta1 - alpha1 - 1.0, f + 1.0), (beta1, f)),
            ((beta1 - alpha1 + 1.0, g + 1.0), (beta1 + 2.0, g)),
            ((beta1 - alpha1, h + 1.0), (beta1 + 1.0, h)))
    F1, F2, F3 = yield [PfqRequest(up, low, z) for up, low in args]
    cond = max(F1.condition_estimate, F2.condition_estimate,
               F3.condition_estimate)
    lhs = F1.value * F2.value
    rhs = F3.value ** 2
    report = value_report(
        "corollary3-2f2",
        {"alpha1": alpha1, "beta1": beta1, "beta2": beta2},
        z, lhs, rhs, lhs - rhs, _err(_of(F1) * _of(F2), _of(F3) ** 2),
        {"f": f, "g": g, "h": h, "condition": cond})
    if cond > _CONDITION_LIMIT:
        report.status = STATUS_NUMERICAL_FAILURE
        report.passed = False
    return report


# ---------------------------------------------------------------------------
# Ratio monotonicity in z between two parameter values


def _ratio_monotonicity(params: FoxWrightParams, slot: str, v1: float,
                        v2: float, z_grid: Sequence[float]) -> Rounds:
    """Monotone decay of the ratio between two members of the family.

    ``slot`` picks which first parameter value varies: "beta" compares
    R(z) = Psi[v_big] / Psi[v_small] (nonincreasing in z), "alpha" compares
    R(z) = Psi[v_small] / Psi[v_big].  Both the discrete steps along the
    grid and the derivative cross-product at every grid point are checked;
    the report carries the worst comparison.
    """
    if slot not in ("alpha", "beta"):
        raise ParameterError(f"slot must be 'alpha' or 'beta', got {slot!r}")
    if v1 == v2:
        raise ParameterError("the two parameter values must differ")
    side, pairs, put = _slot(params, slot)
    if not pairs:
        raise ParameterError(f"slot {slot!r} needs at least one {side} pair")
    _check_grid(z_grid, "z grid")
    if z_grid[0] < 0.0:
        raise DomainError(f"defined for z >= 0, got z={z_grid[0]!r}")

    vs, vb = sorted((v1, v2))
    # R = Psi[num] / Psi[den] is the ratio claimed nonincreasing
    p_num, p_den = (put(vb), put(vs)) if slot == "beta" else (put(vs), put(vb))

    n = len(z_grid)
    res = yield [Request(p, z)
                 for p in (p_num, p_den, p_num.shifted(), p_den.shifted())
                 for z in z_grid]
    en, ed, dn, dd = (res[i * n:(i + 1) * n] for i in range(4))

    r = [_of(a) / _of(b) for a, b in zip(en, ed)]
    ratios = [q.value for q in r]

    comparisons = []
    for i in range(len(z_grid) - 1):
        comparisons.append({
            "kind": "ratio-step",
            "z": float(z_grid[i + 1]),
            "z_prev": float(z_grid[i]),
            **_diff(r[i], r[i + 1]),
        })
    for i, z in enumerate(z_grid):
        # R' <= 0 is dd * en >= dn * ed
        comparisons.append({
            "kind": "cross",
            "z": float(z),
            **_diff(_of(dd[i]) * _of(en[i]), _of(dn[i]) * _of(ed[i])),
        })

    return worst_report(
        "ratio-monotone",
        {**params.to_json(), "slot": slot, "v_small": vs, "v_big": vb},
        comparisons,
        lambda w: {"worst_kind": w["kind"], "worst_z_prev": w.get("z_prev"),
                   "ratio_first": ratios[0], "ratio_last": ratios[-1],
                   "n_comparisons": len(comparisons)})


# ---------------------------------------------------------------------------
# Tail Turan and the K_n lower bound


def _require_constant_upper(params: FoxWrightParams, what: str) -> None:
    if any(w != 0.0 for _, w in params.upper):
        raise ParameterError(
            f"{what} requires every upper weight to be 0 "
            "(constant gamma factors); got "
            + repr([w for _, w in params.upper]))


def _tail_index(n: int) -> int:
    # a checker's tail index: an integer, as TailSpec takes it, and >= 0
    if not _is_index(n):
        raise ParameterError(f"tail index must be an integer, got {n!r}")
    n = int(n)
    if n < 0:
        raise ParameterError(f"tail index must be >= 0, got {n}")
    return n


def _tail_instance(params: FoxWrightParams, n: int,
                   zs: Sequence[float]) -> Rounds:
    # the tail instance of tail-turan and kn-bound: checks n and each z > 0,
    # and returns n and, per z, T_{n+1} (summed from k = n + 2), t_{n+1} and
    # t_{n+2} as _Q values
    n = _tail_index(n)
    for z in zs:
        if not z > 0.0:
            raise DomainError(f"defined for z > 0, got z={z!r}")
    res = yield [Request(params, z, n + 2) for z in zs]
    return n, [(_of(t), *(_Q(log_term(params, z, k)).computed()
                          for k in (n + 1, n + 2)))
               for z, t in zip(zs, res)]


def _tail_turan(params: FoxWrightParams, n: int, z: float) -> Rounds:
    """Turan inequality for series tails: T_{n+1}^2 >= T_n * T_{n+2}.

    T_m is the tail summed from index m+1 on.  Only shapes whose upper
    weights are all zero are in scope.
    """
    _require_constant_upper(params, "tail Turan")
    n, ((big, s1, s2),) = yield from _tail_instance(params, n, [z])
    # T_n = T_{n+1} + t_{n+1} and T_{n+2} = T_{n+1} - t_{n+2}, so the
    # squared-minus-product margin collapses to
    #     T_{n+1} t_{n+2} - T_{n+1} t_{n+1} + t_{n+1} t_{n+2},
    # which never cancels the dominant T^2 scale.
    a, b, c = big * s2, big * s1, s1 * s2
    margin = _margin(a.value + c.value, b.value, max(a.log, c.log), b.log)
    lhs = (big ** 2).value
    rhs = lhs - margin
    if math.isnan(rhs):
        rhs = lhs
    return value_report("tail-turan", {**params.to_json(), "n": n}, z,
                        lhs, rhs, margin, _err(a, b, c))


def _kn_values(params: FoxWrightParams, n: int,
               zs: Sequence[float]) -> Rounds:
    # K_n = (T_n / T_{n+1}) (T_{n+2} / T_{n+1}) = (1 + a)(1 - b) with
    # a = t_{n+1}/T_{n+1} and b = t_{n+2}/T_{n+1}.  For b near 1 the
    # complement 1 - b is formed from a direct T_{n+2} evaluation instead,
    # in a second round.  Returns the lists of K_n and of its error.
    n, tails = yield from _tail_instance(params, n, zs)
    ab = [(s1 / t1, s2 / t1) for t1, s1, s2 in tails]
    again = [i for i, (_, b) in enumerate(ab) if b.value > 0.5]
    t2s = {}
    if again:
        t2s = dict(zip(again, (yield [Request(params, zs[i], n + 3)
                                      for i in again])))
    kvals, kerrs = [], []
    for i, ((t1, _, _), (a, b)) in enumerate(zip(tails, ab)):
        # 1 + a and 1 - b carry the absolute errors of a and b
        if i in t2s:
            f = _of(t2s[i]) / t1
            factor, rel = f.value, f.err
        else:
            factor = 1.0 - b.value
            rel = _err(b) / factor
        k = (1.0 + a.value) * factor
        kvals.append(k)
        kerrs.append(k * (_err(a) / (1.0 + a.value) + rel))
    return kvals, kerrs


def kn_ratio(params: FoxWrightParams, n: int, z: float) -> float:
    """Tail ratio K_n = T_n * T_{n+2} / T_{n+1}^2 without any shape gate.

    Exploratory helper: unlike kn_value_and_bound it accepts nonzero upper
    weights, where no proven bound is available.
    """
    kvals, _ = _run_rounds([_kn_values(params, n, [z])])[0]
    return kvals[0]


def _kn_value_and_bound(params: FoxWrightParams, n: int,
                        z: float | None = None,
                        z_grid: Sequence[float] | None = None) -> Rounds:
    """Lower bound and monotonicity of the tail ratio K_n.

    K_n(z) = T_n T_{n+2} / T_{n+1}^2 is nondecreasing in z > 0 and bounded
    below by its z -> 0 limit

        C = (n+2)/(n+3) * prod_j G(b_j+(n+2)B_j)^2
                          / (G(b_j+(n+1)B_j) G(b_j+(n+3)B_j)).

    Pass a single z to check K_n(z) >= C, or a strictly increasing z_grid
    to additionally check the steps; exactly one of the two.
    """
    _require_constant_upper(params, "the K_n bound")
    n = _tail_index(n)
    if (z is None) == (z_grid is None):
        raise ParameterError("pass exactly one of z or z_grid")

    log_c = math.log((n + 2.0) / (n + 3.0))
    for b, w in params.lower:
        log_c += (2.0 * log_gamma(b + (n + 2) * w)
                  - log_gamma(b + (n + 1) * w)
                  - log_gamma(b + (n + 3) * w))
    c_bound = math.exp(log_c)
    c_err = _err(_Q(log_c).computed())

    zs = [float(z)] if z_grid is None else [float(v) for v in z_grid]
    if z_grid is not None:
        _check_grid(zs, "z grid")
    kvals, kerrs = yield from _kn_values(params, n, zs)

    comparisons = [{
        "kind": "bound",
        "z": v,
        "lhs": kvals[i],
        "rhs": c_bound,
        "margin": kvals[i] - c_bound,
        "err": kerrs[i] + c_err,
    } for i, v in enumerate(zs)]
    for i in range(len(zs) - 1):
        comparisons.append({
            "kind": "step",
            "z": zs[i + 1],
            "z_prev": zs[i],
            "lhs": kvals[i + 1],
            "rhs": kvals[i],
            "margin": kvals[i + 1] - kvals[i],
            "err": kerrs[i] + kerrs[i + 1],
        })

    aux = {"bound": c_bound}
    if z_grid is not None:
        aux["k_values"] = kvals
    return worst_report(
        "kn-bound", {**params.to_json(), "n": n}, comparisons,
        lambda w: {**aux, "worst_kind": w["kind"],
                   "worst_z_prev": w.get("z_prev")})


# ---------------------------------------------------------------------------
# The chi ratio: monotonicity in the first lower parameter


def _powered(alpha1: float, beta1: float, beta2: float, B1: float,
             z: float) -> Request:
    """Normalized series with upper pair (alpha1, 1) and lower pairs
    (beta1, B1), (beta2, 1): the shape of chi, Lazarevic and Wilker."""
    return _tilde(FoxWrightParams(upper=((alpha1, 1.0),),
                                  lower=((beta1, B1), (beta2, 1.0))), z)


def _check_powered_params(alpha1: float, beta2: float, B1: float,
                          beta1: float | None = None) -> None:
    if not (beta2 > 0.0 and alpha1 >= beta2):
        raise DomainError(
            f"needs alpha1 >= beta2 > 0, got alpha1={alpha1!r}, beta2={beta2!r}")
    if beta1 is not None and not beta1 > 0.0:
        raise ParameterError(f"beta1 must be positive, got {beta1!r}")
    if B1 < 0.0:
        raise ParameterError(f"B1 must be >= 0, got {B1!r}")


# _omega sums a beta1 grid in chunks of points whose (point, k, j)
# temporaries hold at most this many elements (1 MiB)
_OMEGA_CAP = 131072


def _omega(alpha1: float, beta1: Sequence[float], beta2: float, B1: float,
           z: float, k_max: Sequence[int]) -> tuple[list, list]:
    """Positivity witness for the chi derivative in beta1, at each point of
    a beta1 grid, summed to that point's own k_max.

    Every summand is nonnegative when alpha1 >= beta2 and B1 >= 0, so a
    nonnegative truncated sum certifies nothing by accident: a negative
    value can only come from an implementation bug.  Returns the values
    and the truncation estimates from the last index block.  The summands
    of index block k pair j with k - j for j <= (k - 1)/2; they are formed
    as one masked (point, k, j) array, each in the operations of the direct
    double loop, and summed in its order: the masked elements add exact
    zeros, so a point's sums do not depend on the rest of the grid.
    """
    if B1 == 0.0 or alpha1 == beta2:
        return [0.0] * len(beta1), [0.0] * len(beta1)
    top = max(k_max)
    lnz = math.log(z)
    n = np.arange(top + 1)
    lg_f = np.cumsum(np.log(np.maximum(n, 1)))  # ln i!
    # the beta1 columns at c + i*B1, c = beta1 + B1: psi, and lnGamma up to
    # each k_max
    x = (np.array(beta1, dtype=float) + B1)[:, None] + n * B1
    psi_c = _digamma_array(x)
    valid = n <= np.array(k_max)[:, None]
    # every lnGamma in one array pass
    lg = _log_gamma_array(np.concatenate((alpha1 + n, beta2 + n, x[valid])))
    lg_a, lg_b = lg[:top + 1], lg[top + 1:2 * top + 2]
    lg_c = np.zeros_like(x)
    lg_c[valid] = lg[2 * top + 2:]

    values: list = []
    lasts: list = []
    step = max(1, _OMEGA_CAP // (top * ((top + 1) // 2)))
    for first in range(0, len(k_max), step):
        kg = np.array(k_max[first:first + step])
        k = np.arange(1, kg.max() + 1)[None, :, None]
        j = np.arange((kg.max() - 1) // 2 + 1)[None, None, :]
        inside = (2 * j < k) & (k <= kg[:, None, None])
        m = np.where(2 * j < k, k - j, 0)
        at = np.arange(first, first + kg.size)[:, None, None]
        e = (lg_a[j] + lg_a[m] - lg_f[j] - lg_f[m] - lg_c[at, j]
             - lg_c[at, m] - lg_b[j] - lg_b[m] + k * lnz)
        with np.errstate(over="ignore", invalid="ignore"):
            grow = np.where(e < _LOG_DOUBLE_MAX, np.exp(e), math.inf)
            terms = (grow * (k - 2 * j) * (alpha1 - beta2)
                     * (psi_c[at, m] - psi_c[at, j])
                     / ((beta2 + k - j) * (beta2 + j)))
        blocks = np.cumsum(np.where(inside, terms, 0.0), axis=2)[:, :, -1]
        values += np.cumsum(blocks, axis=1)[:, -1].tolist()
        lasts += blocks[np.arange(kg.size), kg - 1].tolist()
    return values, lasts


def _chi(alpha1: float, beta2: float, B1: float, beta1_grid: Sequence[float],
         z: float) -> Rounds:
    """Monotonicity of the chi ratio in beta1, with its series witness.

    chi(b1) is the ratio of the shifted to the unshifted normalized series;
    it must be nondecreasing along beta1_grid, and the double-series
    witness Omega(b1) for the sign of the derivative must be nonnegative
    at every grid point.  Requires alpha1 >= beta2 > 0 and z > 0.
    """
    _check_powered_params(alpha1, beta2, B1)
    if not z > 0.0:
        raise DomainError(f"defined for z > 0, got z={z!r}")
    _check_grid(beta1_grid, "beta1 grid")
    if not beta1_grid[0] > 0.0:
        raise GridError(f"beta1 grid must be positive, got {beta1_grid[0]!r}")

    # (denominator, numerator) of chi at each grid point
    res = yield [r for b1 in beta1_grid for r in (
        _powered(alpha1, b1, beta2, B1, z),
        _powered(alpha1 + 1.0, b1 + B1, beta2 + 1.0, B1, z))]
    chi = [_of(num) / _of(den) for den, num in zip(res[::2], res[1::2])]
    chi_vals = [q.value for q in chi]
    omega_vals, om_last = _omega(alpha1, beta1_grid, beta2, B1, z,
                                 [den.terms_used + 10 for den in res[::2]])
    # Omega sums nonnegative terms (condition 1) in value space: its last
    # block plus u|Omega|, the rule _of applies to a series
    omega_errs = [e + _U * abs(om) for om, e in zip(omega_vals, om_last)]

    comparisons = []
    for i in range(len(beta1_grid) - 1):
        comparisons.append({
            "kind": "chi-step",
            "z": z,
            "where": float(beta1_grid[i + 1]),
            "where_prev": float(beta1_grid[i]),
            **_diff(chi[i + 1], chi[i]),
        })
    for i, b1 in enumerate(beta1_grid):
        comparisons.append({
            "kind": "omega",
            "z": z,
            "where": float(b1),
            "lhs": omega_vals[i],
            "rhs": 0.0,
            "margin": omega_vals[i],
            "err": omega_errs[i],
        })

    return worst_report(
        "chi",
        {"alpha1": alpha1, "beta2": beta2, "B1": B1,
         "beta1_grid": [float(v) for v in beta1_grid]},
        comparisons,
        lambda w: {"worst_kind": w["kind"], "worst_beta1": w["where"],
                   "worst_beta1_prev": w.get("where_prev"),
                   "chi_values": chi_vals, "omega_values": omega_vals})


# ---------------------------------------------------------------------------
# Lazarevic and Wilker inequalities.  The normalized Bessel form is the case
# a1 = b2, B1 = 1, b1 = nu + 1 at argument z^2/4; the Wright form is the
# case a1 = b2 = 1.


def _u_and_v(alpha1: float, beta1: float, beta2: float, B1: float,
             z: float) -> Rounds:
    # checks the arguments of the Lazarevic and Wilker checkers and returns
    # their U and V: the normalized series at first lower value b1+1 and b1
    _check_powered_params(alpha1, beta2, B1, beta1)
    if z < 0.0:
        raise DomainError(f"defined for z >= 0, got z={z!r}")
    return (yield [_powered(alpha1, beta1 + 1.0, beta2, B1, z),
                   _powered(alpha1, beta1, beta2, B1, z)])


def _lazarevic(alpha1: float, beta1: float, beta2: float, B1: float,
               z: float) -> Rounds:
    """Lazarevic-type power inequality, tight at z = 0.

    margin = U^{e2} - [(G(a1)/G(b2))^{B1/b1} V]^{e1} with U, V the
    normalized series at first lower value b1+1 and b1, e1 =
    G(b1+B1)/G(b1), e2 = e1 (b1+B1)/b1.  Requires a1 >= b2 > 0, z >= 0.
    """
    u, v = yield from _u_and_v(alpha1, beta1, beta2, B1, z)
    e1 = gamma_ratio(beta1, B1)
    e2 = e1 * (beta1 + B1) / beta1
    scale = _Q((B1 / beta1) * (log_gamma(alpha1) - log_gamma(beta2)))
    return value_report(
        "lazarevic",
        {"alpha1": alpha1, "beta1": beta1, "beta2": beta2, "B1": B1},
        z, aux={"e1": e1, "e2": e2},
        **_diff((_of(u) ** e2).computed(),
                ((scale.computed() * _of(v)) ** e1).computed()))


def _wilker(alpha1: float, beta1: float, beta2: float, B1: float,
            z: float) -> Rounds:
    """Wilker-type inequality, tight at z = 0.

    margin = U/V + [(G(b2)/G(a1)) U]^{B1/b1} - 2 >= 0 with U, V as in the
    Lazarevic checker.  Requires a1 >= b2 > 0, z >= 0.
    """
    u, v = yield from _u_and_v(alpha1, beta1, beta2, B1, z)
    ratio = _of(u) / _of(v)
    power = ((_Q(log_gamma(beta2) - log_gamma(alpha1)).computed() * _of(u))
             ** (B1 / beta1)).computed()
    t1, t2 = ratio.value, power.value
    return value_report(
        "wilker",
        {"alpha1": alpha1, "beta1": beta1, "beta2": beta2, "B1": B1},
        z, t1 + t2, 2.0, (t1 + t2) - 2.0, _err(ratio, power),
        {"ratio_term": t1, "power_term": t2})


# ---------------------------------------------------------------------------
# Log-concavity in z


def _logconcavity(params: FoxWrightParams, z1: float, z2: float) -> Rounds:
    """Three log-concavity consequences for one (z1, z2) pair.

    Shape: one more lower pair than upper pairs, all upper weights 1, all
    lower weights after the first equal 1, and each upper value at least
    the matching later lower value.  With f the normalized series, zm the
    midpoint, and c = f'(0):

      midpoint:  f(zm) >= sqrt(f(z1) f(z2))
      expbound:  exp(c zm) >= f(zm)
      deriv:     c Psi(zm) >= Psi'(zm)   (unnormalized)
    """
    p, q = len(params.upper), len(params.lower)
    if q != p + 1 or p < 1:
        raise ParameterError(
            f"shape must have one more lower pair than upper pairs "
            f"(p >= 1), got p={p}, q={q}")
    for a, w in params.upper:
        if w != 1.0:
            raise ParameterError(f"upper weights must all be 1, got {w!r}")
    for b, w in params.lower[1:]:
        if w != 1.0:
            raise ParameterError(
                f"lower weights after the first must be 1, got {w!r}")
    for i, (a, _) in enumerate(params.upper):
        b = params.lower[i + 1][0]
        if a < b:
            raise DomainError(
                f"needs upper value {a!r} >= paired lower value {b!r}")
    if z1 < 0.0 or z2 < 0.0:
        raise DomainError(
            f"defined for z >= 0, got z1={z1!r}, z2={z2!r}")
    if z2 < z1:
        # the midpoint comparison is symmetric; equal points degenerate
        # to the equality case rather than an error
        z1, z2 = z2, z1

    zm = 0.5 * (z1 + z2)
    # one series at zm: psi_m is fm without the normalization's log offset
    at_zm = _normalized(params, zm)
    f1, f2, fm, dpsi_m = yield [
        _normalized(params, z1), _normalized(params, z2), at_zm,
        Request(params.shifted(), zm)]
    psi_m = _of(fm) * _Q(-at_zm.log_offset)

    b1, w1 = params.lower[0]
    log_c = log_gamma(b1) - log_gamma(b1 + w1)
    for i, (a, _) in enumerate(params.upper):
        log_c += math.log(a / params.lower[i + 1][0])
    c = math.exp(log_c)
    echo = params.to_json()
    aux = {"z1": float(z1), "z2": float(z2), "c": c}

    return tuple(
        value_report(f"logconcave:{kind}", echo, zm, aux=aux, **_diff(a, b))
        for kind, a, b in (
            ("midpoint", _of(fm), (_of(f1) * _of(f2)) ** 0.5),
            ("expbound", _Q(c * zm).computed(), _of(fm)),
            ("deriv", _Q(log_c).computed() * psi_m, _of(dpsi_m))))


# ---------------------------------------------------------------------------
# Exploratory probe for the open chi-difference question


def _xi_prime(params: FoxWrightParams, z: float) -> Rounds:
    """Derivative of the chi-difference functional in the first lower value.

    Computes (G(b1)/G(b1+B1)) * (chi(b1+1) - chi(b1)) for the general
    shape, where chi(v) is the ratio of the fully shifted normalized
    series to the unshifted one at first lower value v.  No sign is
    guaranteed outside the proven two-lower family; this is the probe the
    explore command samples.
    """
    if not params.lower:
        raise ParameterError("needs at least one lower parameter pair")
    if not z > 0.0:
        raise DomainError(f"defined for z > 0, got z={z!r}")
    b1, w1 = params.lower[0]
    rest = params.lower[1:]
    up_shift = tuple((a + wa, wa) for a, wa in params.upper)
    rest_shift = tuple((b + wb, wb) for b, wb in rest)
    res = yield [req for v in (b1 + 1.0, b1) for req in (
        _tilde(FoxWrightParams(up_shift, ((v + w1, w1),) + rest_shift), z),
        _tilde(FoxWrightParams(params.upper, ((v, w1),) + rest), z))]
    chi = [_exp_or_inf(num.log_magnitude - den.log_magnitude)
           for num, den in (res[:2], res[2:])]
    return math.exp(log_gamma(b1) - log_gamma(b1 + w1)) * (chi[0] - chi[1])


# ---------------------------------------------------------------------------
# The public checkers


turan_alpha_check = _public(_turan_alpha)
turan_beta_check = _public(_turan_beta)
corollary3_2f2_check = _public(_corollary3_2f2)
ratio_monotonicity_check = _public(_ratio_monotonicity)
tail_turan_check = _public(_tail_turan)
kn_value_and_bound = _public(_kn_value_and_bound)
chi_check = _public(_chi)
lazarevic_check = _public(_lazarevic)
wilker_check = _public(_wilker)
logconcavity_check = _public(_logconcavity)
xi_prime = _public(_xi_prime)
