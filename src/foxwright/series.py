"""Core evaluation engine for the Fox-Wright series.

The central object is

    sum_{k>=0} [prod_l Gamma(alpha_l + k*A_l) / prod_j Gamma(beta_j + k*B_j)] * z^k / k!

together with its normalized, tilde-normalized, tail, derivative, and
d/d(beta_1) variants.  Terms are generated independently in log space (no
term-to-term recurrence: non-integer weights would need gamma ratios anyway),
then summed under a running scale with Neumaier compensation so that
cancellation for z < 0 stays observable through ``condition_estimate``.

A plain sum of log-gamma values loses absolute precision once the arguments
grow: for weights near 3 the individual log-gammas reach 1e4 while the term
log stays O(100), and the cancelled digits come back as ~1e-12 noise in the
term magnitudes.  The engine therefore assembles each term log from the
Stirling form expanded around k*weight, where the k*log(k) pieces of the
gamma factors and of 1/k! combine exactly into -epsilon*k*log(k); that
coefficient, the k-linear one, and log(k) itself are carried as head/tail
double pairs, keeping the absolute error of a term log near 1e-14 no matter
how large the cancelled log-gammas were.

Summation runs in two phases over one table of those coefficients.  The
first 32 terms of a call (counted from its start index) are generated and
summed one at a time, so the many calls that stop within a few dozen terms
pay no array overhead.  A series still running after that continues in
numpy blocks of 64, 128, 256 and then 512 terms: the same head/tail
arithmetic applied element-wise (the error-free transforms are exact on IEEE
float64 arrays), each block summed with ``math.fsum`` and tested against the
same stop rule, so a block ends the series at the same term as the one-term
loop would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergentSeriesError,
    NoConvergenceError,
    ParameterError,
)
from .gammakit import _HALF_LN_TWO_PI, _LNGAMMA_TAIL, digamma, log_gamma

__all__ = [
    "FoxWrightParams",
    "EvalConfig",
    "EvalResult",
    "TailSpec",
    "epsilon",
    "log_term",
    "evaluate",
    "evaluate_normalized",
    "evaluate_tilde",
    "evaluate_tail",
    "derivative",
    "dbeta1",
]

# ln(largest double); a term or sum whose log-magnitude exceeds this cannot
# be represented in value space
_LOG_DOUBLE_MAX = 709.782712893384


def _exp_or_inf(x: float) -> float:
    return math.exp(x) if x < _LOG_DOUBLE_MAX else math.inf


@dataclass(frozen=True)
class FoxWrightParams:
    """Parameter tuple (alpha_l, A_l; beta_j, B_j) of the series.

    ``upper`` holds the (alpha_l, A_l) pairs, ``lower`` the (beta_j, B_j)
    pairs.  Every alpha and beta must be positive, every weight non-negative.
    Empty tuples are allowed on either side (empty products are 1, so the
    parameter-free series is exp).
    """

    upper: tuple[tuple[float, float], ...] = ()
    lower: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        up = tuple((float(a), float(wa)) for a, wa in self.upper)
        low = tuple((float(b), float(wb)) for b, wb in self.lower)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "lower", low)
        for a, wa in up:
            if not (a > 0.0 and math.isfinite(a)):
                raise ParameterError(f"upper parameter must be positive, got {a}")
            if not (wa >= 0.0 and math.isfinite(wa)):
                raise ParameterError(f"upper weight must be >= 0, got {wa}")
        for b, wb in low:
            if not (b > 0.0 and math.isfinite(b)):
                raise ParameterError(f"lower parameter must be positive, got {b}")
            if not (wb >= 0.0 and math.isfinite(wb)):
                raise ParameterError(f"lower weight must be >= 0, got {wb}")

    def epsilon(self) -> float:
        """Convergence parameter 1 + sum(B_j) - sum(A_l)."""
        return 1.0 + math.fsum(w for _, w in self.lower) - math.fsum(
            w for _, w in self.upper)

    def shifted(self) -> "FoxWrightParams":
        """Parameters of the z-derivative: every slot advanced by its weight."""
        return FoxWrightParams(
            upper=tuple((a + wa, wa) for a, wa in self.upper),
            lower=tuple((b + wb, wb) for b, wb in self.lower),
        )

    def with_upper_value(self, index: int, value: float) -> "FoxWrightParams":
        up = list(self.upper)
        up[index] = (float(value), up[index][1])
        return FoxWrightParams(upper=tuple(up), lower=self.lower)

    def with_lower_value(self, index: int, value: float) -> "FoxWrightParams":
        low = list(self.lower)
        low[index] = (float(value), low[index][1])
        return FoxWrightParams(upper=self.upper, lower=tuple(low))

    def to_json(self) -> dict:
        return {
            "upper": [[a, wa] for a, wa in self.upper],
            "lower": [[b, wb] for b, wb in self.lower],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FoxWrightParams":
        if not isinstance(obj, dict):
            raise ParameterError("parameter JSON must be an object")
        try:
            upper = tuple((float(a), float(wa)) for a, wa in obj.get("upper", []))
            lower = tuple((float(b), float(wb)) for b, wb in obj.get("lower", []))
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"malformed parameter JSON: {exc}") from exc
        return cls(upper=upper, lower=lower)


def epsilon(params: FoxWrightParams) -> float:
    """Convergence parameter 1 + sum(B_j) - sum(A_l) of the series."""
    return params.epsilon()


@dataclass(frozen=True)
class EvalConfig:
    """Summation controls.

    rel_tol is the target relative truncation error, max_terms caps the
    number of generated terms, and log_mode returns log-magnitude + sign
    for results whose value would overflow a double.
    """

    rel_tol: float = 1e-15
    max_terms: int = 10000
    log_mode: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < 1.0:
            raise ParameterError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.max_terms < 8:
            raise ParameterError(f"max_terms must be >= 8, got {self.max_terms}")


_DEFAULT_CFG = EvalConfig()


@dataclass(frozen=True)
class EvalResult:
    """One series evaluation.

    value is sign * exp(log_magnitude) when that is representable (and +-inf
    past the double range in log_mode).  tail_bound is the certified
    geometric bound on the truncation error, in value space.
    condition_estimate = sum|term| / |sum term| is exactly 1.0 for z >= 0.
    """

    value: float
    terms_used: int
    tail_bound: float
    condition_estimate: float
    log_magnitude: float
    sign: int


@dataclass(frozen=True)
class TailSpec:
    """Section index n: the tail series starts at k = n + 1 (n = -1 is full)."""

    n: int = -1

    def __post_init__(self) -> None:
        if self.n < -1:
            raise ParameterError(f"tail index must be >= -1, got {self.n}")


def log_term(params: FoxWrightParams, z: float, k: int) -> float:
    """Log-magnitude of term k of the series at argument z."""
    if z == 0.0:
        return _log_term_at_zero(params) if k == 0 else -math.inf
    total = k * math.log(abs(z)) - log_gamma(k + 1.0)
    for a, wa in params.upper:
        total += log_gamma(a + k * wa)
    for b, wb in params.lower:
        total -= log_gamma(b + k * wb)
    return total


def _log_term_at_zero(params: FoxWrightParams) -> float:
    total = 0.0
    for a, _ in params.upper:
        total += log_gamma(a)
    for b, _ in params.lower:
        total -= log_gamma(b)
    return total


# ---------------------------------------------------------------------------
# head/tail double pairs
#
# The error-free transforms below (Knuth two-sum, Dekker two-product) are the
# standard ones; arguments stay far below the 1e300 split overflow range.
# They take floats and float64 arrays alike: numpy rounds each element-wise
# operation as IEEE does and never fuses a multiply-add.

_SPLIT = 134217729.0  # 2**27 + 1


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    bh = _SPLIT * b
    bh -= bh - b
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    s, e = _two_sum(ah, bh)
    return _two_sum(s, e + al + bl)


def _dd_mul(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    p, e = _two_prod(ah, bh)
    return _two_sum(p, e + ah * bl + al * bh)


def _dd_div_d(ah: float, al: float, b: float) -> tuple[float, float]:
    q = ah / b
    p, e = _two_prod(q, b)
    return _two_sum(q, (((ah - p) - e) + al) / b)


_LN2_HI = 0.6931471805599453
_LN2_LO = 2.3190468138462996e-17
_SQRT_HALF = 0.7071067811865476


def _dd_log(x: float) -> tuple[float, float]:
    """ln x as a head/tail pair, essentially exact; x > 0 finite."""
    m, e = math.frexp(x)
    if m < _SQRT_HALF:
        m *= 2.0
        e -= 1
    # ln m = 2 artanh(s) with s = (m-1)/(m+1); m - 1 is exact, m + 1 is
    # carried as a pair so the quotient keeps ~32 digits
    num = m - 1.0
    dh, dl = _two_sum(1.0, m)
    q = num / dh
    p, pe = _two_prod(q, dh)
    sh, sl = _two_sum(q, (((num - p) - pe) - q * dl) / dh)
    x2h, x2l = _dd_mul(sh, sl, sh, sl)
    th, tl = sh, sl
    ah, al = sh, sl
    n = 3
    while n < 99:
        th, tl = _dd_mul(th, tl, x2h, x2l)
        ch, cl = _dd_div_d(th, tl, float(n))
        ah, al = _dd_add(ah, al, ch, cl)
        if abs(ch) < 1e-35:
            break
        n += 2
    ph, pe = _two_prod(float(e), _LN2_HI)
    return _dd_add(ph, pe + e * _LN2_LO, 2.0 * ah, 2.0 * al)


def _log_int_dd(k: int) -> tuple[float, float]:
    """ln k as a head/tail pair, absolute error ~3e-17; cheap enough per term."""
    m, e = math.frexp(float(k))
    if m < _SQRT_HALF:
        m *= 2.0
        e -= 1
    ph, pe = _two_prod(float(e), _LN2_HI)
    return _dd_add(ph, pe + e * _LN2_LO, math.log(m), 0.0)


def _log_ints_dd(fk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise _log_int_dd over a float array of positive integers."""
    m, e = np.frexp(fk)
    low = m < _SQRT_HALF
    m[low] *= 2.0
    e = (e - low).astype(float)
    ph, pe = _two_prod(e, _LN2_HI)
    return _dd_add(ph, pe + e * _LN2_LO, np.log(m), 0.0)


# Stirling domain: from x = 12 on, the first nine coefficients of the
# lnGamma table leave the truncated series accurate to ~1e-19 absolute.
_EXPAND_MIN = 12.0


def _stirling_tail(x):
    # valid for x >= _EXPAND_MIN; x is a float or a float array
    r = 1.0 / (x * x)
    s = _LNGAMMA_TAIL[8]
    for c in reversed(_LNGAMMA_TAIL[:8]):
        s = s * r + c
    return s / x


class _TermLogs:
    """Stabilized per-term log magnitudes for one summation run.

    ``at(k)`` returns log|term k| as a head/tail pair, ``block(k0, k1)`` the
    same for k0 <= k < k1 as head/tail arrays.  Factors whose argument
    a + w*k has reached _EXPAND_MIN contribute through the Stirling form
    expanded around w*k.  Summed over those factors (1/k! included as a
    lower factor with a = w = 1) the pieces collapse into one coefficient
    table that ``_advance`` keeps: sum sigma*w (the k*ln(k) coefficient,
    -epsilon of the participating subset), the k-linear coefficient
    ln|z| + sum sigma*w*(ln(w) - 1), the ln(k) coefficient sum sigma*(a - 1/2),
    all as exact pairs, and a k-independent constant.  What is left per factor is
    O(a) and goes through one fsum.  Factors still below the threshold
    contribute their log-gamma directly, which is harmless precisely because
    those values are small.  Calls must come with nondecreasing k (the factor
    partition only ever grows), and k = 0 only as the first call.
    """

    def __init__(self, params: FoxWrightParams, z: float) -> None:
        self._consts: list[float] = []  # k-independent pieces of the term log
        waiting = []
        for sg, pairs in ((1.0, params.upper), (-1.0, params.lower + ((1.0, 1.0),))):
            for a, w in pairs:
                if w == 0.0:
                    self._consts.append(sg * log_gamma(a))
                    continue
                cross = (_EXPAND_MIN - a) / w
                if not cross < 1e9:  # never within any max_terms budget
                    cross = math.inf
                waiting.append((max(1, math.ceil(cross)) if cross < math.inf
                                else math.inf, a, w, sg))
        self._base = math.fsum(self._consts)
        self._waiting = sorted(waiting, key=lambda rec: rec[0])
        self._expanded: list[tuple[float, float, float]] = []  # (a, w, sigma)
        self._sh = self._sl = 0.0  # sum of sigma*w over expanded factors
        self._ch, self._cl = _dd_log(abs(z))  # k-linear log coefficient
        self._mh = self._ml = 0.0  # sum of sigma*(a - 1/2): ln(k) coefficient

    def _advance(self, k: int) -> None:
        while self._waiting and self._waiting[0][0] <= k:
            _, a, w, sg = self._waiting.pop(0)
            lwh, lwl = _dd_log(w)
            am = a - 0.5
            self._expanded.append((a, w, sg))
            self._sh, self._sl = _dd_add(self._sh, self._sl, sg * w, 0.0)
            ph, pe = _two_prod(w, lwh)
            self._ch, self._cl = _dd_add(self._ch, self._cl,
                                         sg * ph, sg * (pe + w * lwl))
            self._ch, self._cl = _dd_add(self._ch, self._cl, -sg * w, 0.0)
            self._mh, self._ml = _dd_add(self._mh, self._ml, sg * am, 0.0)
            ph, pe = _two_prod(am, lwh)
            self._consts += [sg * ph, sg * (pe + am * lwl), -sg * a,
                             sg * _HALF_LN_TWO_PI]
        self._base = math.fsum(self._consts)

    def _collapsed(self, fk, lkh, lkl):
        # k*(ln|z| + sum sigma*w*(ln w - 1))
        # + (k*sum(sigma*w) + sum(sigma*(a - 1/2)))*ln k,
        # for a float k or a float array of k
        ph, pe = _two_prod(self._ch, fk)
        h, l = _two_sum(ph, pe + self._cl * fk)
        bh, be = _two_prod(self._sh, fk)
        bh, bl = _dd_add(bh, be + self._sl * fk, self._mh, self._ml)
        ph, pe = _two_prod(bh, lkh)
        return _dd_add(h, l, ph, pe + bh * lkl + bl * lkh)

    def at(self, k: int) -> tuple[float, float]:
        if k == 0:
            base = self._base
            for rec in self._waiting:
                base += rec[3] * log_gamma(rec[1])
            return base, 0.0
        if self._waiting and self._waiting[0][0] <= k:
            self._advance(k)
        fk = float(k)
        items = [self._base]
        for _, a, w, sg in self._waiting:
            items.append(sg * log_gamma(a + w * fk))
        for a, w, sg in self._expanded:
            wk = w * fk
            items.append(sg * ((wk + (a - 0.5)) * math.log1p(a / wk)
                               + _stirling_tail(a + wk)))
        h, l = self._collapsed(fk, *_log_int_dd(k))
        return _dd_add(h, l, math.fsum(items), 0.0)

    def block(self, k0: int, k1: int) -> tuple[np.ndarray, np.ndarray]:
        # split where a factor crosses _EXPAND_MIN, so that the coefficient
        # table is fixed within each span
        spans = []
        while k0 < k1:
            if self._waiting and self._waiting[0][0] <= k0:
                self._advance(k0)
            hi = min(k1, self._waiting[0][0]) if self._waiting else k1
            spans.append(self._span(k0, hi))
            k0 = hi
        if len(spans) == 1:
            return spans[0]
        return (np.concatenate([h for h, _ in spans]),
                np.concatenate([l for _, l in spans]))

    def _span(self, k0: int, k1: int) -> tuple[np.ndarray, np.ndarray]:
        fk = np.arange(k0, k1, dtype=float)
        h, l = self._collapsed(fk, *_log_ints_dd(fk))
        parts = [sg * np.array([log_gamma(x) for x in (a + w * fk).tolist()])
                 for _, a, w, sg in self._waiting]
        if self._expanded:
            a, w, sg = np.array(self._expanded).T[:, :, None]
            wk = w * fk
            parts.append((sg * ((wk + (a - 0.5)) * np.log1p(a / wk)
                                + _stirling_tail(a + wk))).sum(axis=0))
        rh, rl = self._base, 0.0
        for p in parts:
            rh, e = _two_sum(rh, p)
            rl = rl + e
        return _dd_add(h, l, rh, rl)


def _require_convergent(params: FoxWrightParams) -> None:
    eps = params.epsilon()
    if not eps > 0.0:
        raise DivergentSeriesError(
            f"divergent series: epsilon = 1 + sum(B) - sum(A) = {eps:.6g} <= 0")


def _assemble(scale_h: float, scale_l: float, total: float, total_abs: float,
              terms: int, tail: float, log_offset: float,
              log_mode: bool) -> EvalResult:
    if total == 0.0:
        cond = 1.0 if total_abs == 0.0 else math.inf
        return EvalResult(0.0, terms, tail, cond, -math.inf, 0)
    cond = total_abs / abs(total)
    # exact-sum the three log contributions so exp sees a faithful argument
    h, e1 = _two_sum(scale_h, math.log(abs(total)))
    h, e2 = _two_sum(h, log_offset)
    resid = e1 + e2 + scale_l
    log_mag = h + resid
    sgn = 1 if total > 0.0 else -1
    if log_mag > _LOG_DOUBLE_MAX and not log_mode:
        raise OverflowError(
            f"series value has log-magnitude {log_mag:.6g}, beyond double "
            "range; re-run with log_mode")
    if h < _LOG_DOUBLE_MAX:
        value = sgn * math.exp(h) * (1.0 + resid)
    else:
        value = sgn * math.inf
    return EvalResult(value, terms, tail, cond, log_mag, sgn)


# Terms summed one at a time from a call's start index before the engine
# switches to numpy blocks, whose sizes double from _BLOCK_MIN to _BLOCK_MAX.
# A block costs a few hundred microseconds of array-call overhead, about as
# much as 20 one-term steps, while most calls stop within 10-30 terms.
_SCALAR_TERMS = 32
_BLOCK_MIN = 64
_BLOCK_MAX = 512


def _term_overflow(k: int, lh: float) -> OverflowError:
    return OverflowError(
        f"term k={k} has log-magnitude {lh:.6g}, beyond double "
        "range; re-run with log_mode")


def _neumaier(total: float, comp: float, x: float) -> tuple[float, float]:
    s = total + x
    if abs(total) >= abs(x):
        return s, comp + ((total - s) + x)
    return s, comp + ((x - s) + total)


def _ratio(prev_h: float, prev_l: float, lh: float, ll: float) -> float:
    # magnitude ratio of a term to the one before it, from their log pairs
    if lh == -math.inf:
        return 0.0
    if prev_h == -math.inf:
        return math.inf
    d = (lh - prev_h) + (ll - prev_l)
    return math.exp(d) if d < _LOG_DOUBLE_MAX else math.inf


def _sum_series(params: FoxWrightParams, z: float, cfg: EvalConfig,
                start: int = 0, weight=None, log_offset: float = 0.0) -> EvalResult:
    """Scaled compensated summation of the series from term index ``start``.

    ``weight``, if given, multiplies term k by weight(k) (used by dbeta1).
    ``log_offset`` shifts the final log-magnitude (normalization prefactors).
    """
    if z == 0.0:
        if start > 0:
            return EvalResult(0.0, 0, 0.0, 1.0, -math.inf, 0)
        lt = _log_term_at_zero(params)
        w = 1.0 if weight is None else weight(0)
        if w == 0.0:
            return EvalResult(0.0, 1, 0.0, 1.0, -math.inf, 0)
        log_mag = lt + math.log(abs(w)) + log_offset
        sgn = 1 if w > 0.0 else -1
        if log_mag > _LOG_DOUBLE_MAX and not cfg.log_mode:
            raise OverflowError(
                f"series value has log-magnitude {log_mag:.6g}, beyond double "
                "range; re-run with log_mode")
        return EvalResult(sgn * _exp_or_inf(log_mag), 1, 0.0, 1.0, log_mag, sgn)

    neg = z < 0.0
    gen = _TermLogs(params, z)
    scale_h = -math.inf  # running log scale of the accumulators, head/tail
    scale_l = 0.0
    total = 0.0
    comp = 0.0          # Neumaier compensation for total
    total_abs = 0.0
    comp_abs = 0.0
    prev_h = None
    prev_l = 0.0
    ratio = math.inf
    last_h = -math.inf
    streak = 0
    terms = 0
    stopped = False
    end = start + cfg.max_terms

    for k in range(start, min(start + _SCALAR_TERMS, end)):
        lh, ll = gen.at(k)
        sign = -1.0 if (neg and k % 2 == 1) else 1.0
        if weight is not None:
            w = weight(k)
            if w == 0.0:
                lh, ll = -math.inf, 0.0
            else:
                if w < 0.0:
                    sign = -sign
                lh, ll = _dd_add(lh, ll, math.log(abs(w)), 0.0)
        terms += 1
        if lh > _LOG_DOUBLE_MAX and not cfg.log_mode:
            raise _term_overflow(k, lh)

        if lh > scale_h:
            if scale_h > -math.inf:
                f = math.exp(scale_h - lh) * (1.0 + (scale_l - ll))
                total *= f
                comp *= f
                total_abs *= f
                comp_abs *= f
            scale_h, scale_l = lh, ll
        if lh > -math.inf:
            t = math.exp(lh - scale_h) * (1.0 + (ll - scale_l))
        else:
            t = 0.0
        total, comp = _neumaier(total, comp, sign * t)
        total_abs, comp_abs = _neumaier(total_abs, comp_abs, t)

        ratio = math.inf if prev_h is None else _ratio(prev_h, prev_l, lh, ll)
        prev_h, prev_l = lh, ll
        last_h = lh

        # stop rule: three consecutive relatively small terms, and the last
        # ratio below 1 so the geometric tail bound is meaningful
        partial = abs(total + comp)
        if lh == -math.inf or (k > start and t <= cfg.rel_tol * partial):
            streak += 1
        else:
            streak = 0
        if streak >= 3 and ratio < 1.0:
            stopped = True
            break

    k = start + _SCALAR_TERMS
    size = _BLOCK_MIN
    while not stopped and k < end:
        n = min(size, end - k)
        lh, ll = gen.block(k, k + n)
        sign = np.ones(n)
        if neg:
            sign[(k + 1) % 2::2] = -1.0
        if weight is not None:
            w = np.array([weight(j) for j in range(k, k + n)])
            sign[w < 0.0] *= -1.0
            with np.errstate(divide="ignore", invalid="ignore"):
                lh, ll = _dd_add(lh, ll, np.log(np.abs(w)), 0.0)
            lh[w == 0.0] = -math.inf
            ll[w == 0.0] = 0.0

        top = int(np.argmax(lh))
        top_h, top_l = float(lh[top]), float(ll[top])
        if top_h > scale_h:
            if scale_h > -math.inf:
                f = math.exp(scale_h - top_h) * (1.0 + (scale_l - top_l))
                total *= f
                comp *= f
                total_abs *= f
                comp_abs *= f
            scale_h, scale_l = top_h, top_l
        if scale_h > -math.inf:
            t = np.exp(lh - scale_h) * (1.0 + (ll - scale_l))
        else:
            t = np.zeros(n)
        x = sign * t

        # the stop rule of the one-term loop, tested on cumsum partial sums;
        # the terms up to the stop are then added with fsum
        partial = np.abs((total + comp) + np.cumsum(x))
        small = (lh == -math.inf) | (t <= cfg.rel_tol * partial)
        run = np.concatenate(([streak >= 2, streak >= 1], small))
        used = n
        for i in np.flatnonzero(run[2:] & run[1:-1] & run[:-2]).tolist():
            ph, pl = (prev_h, prev_l) if i == 0 else (lh[i - 1], ll[i - 1])
            ratio = _ratio(float(ph), float(pl), float(lh[i]), float(ll[i]))
            if ratio < 1.0:
                used = i + 1
                stopped = True
                break
        if not cfg.log_mode:
            over = np.flatnonzero(lh[:used] > _LOG_DOUBLE_MAX)
            if over.size:
                raise _term_overflow(k + int(over[0]), float(lh[over[0]]))

        total, comp = _neumaier(total, comp, math.fsum(x[:used].tolist()))
        total_abs, comp_abs = _neumaier(total_abs, comp_abs,
                                        math.fsum(t[:used].tolist()))
        terms += used
        prev_h, prev_l = float(lh[used - 1]), float(ll[used - 1])
        last_h = prev_h
        large = np.flatnonzero(~small)
        streak = streak + n if large.size == 0 else n - 1 - int(large[-1])
        k += n
        size = min(2 * size, _BLOCK_MAX)

    if not stopped:
        raise NoConvergenceError(
            f"stop rule did not fire within {cfg.max_terms} terms "
            f"(start={start}, z={z!r})")

    if last_h > -math.inf and ratio < 1.0:
        tail = _exp_or_inf(last_h + log_offset) * ratio / (1.0 - ratio)
    else:
        tail = 0.0
    return _assemble(scale_h, scale_l, total + comp, total_abs + comp_abs,
                     terms, tail, log_offset, cfg.log_mode)


def evaluate(params: FoxWrightParams, z: float,
             cfg: EvalConfig = _DEFAULT_CFG) -> EvalResult:
    """Evaluate the series at z."""
    _require_convergent(params)
    return _sum_series(params, z, cfg)


def evaluate_normalized(params: FoxWrightParams, z: float,
                        cfg: EvalConfig = _DEFAULT_CFG) -> EvalResult:
    """Evaluate scaled by prod Gamma(beta) / prod Gamma(alpha); equals 1 at z = 0."""
    _require_convergent(params)
    offset = -_log_term_at_zero(params)
    return _sum_series(params, z, cfg, log_offset=offset)


def evaluate_tilde(params: FoxWrightParams, z: float,
                   cfg: EvalConfig = _DEFAULT_CFG) -> EvalResult:
    """Evaluate scaled by Gamma(beta_1) alone (first-lower-slot normalization)."""
    if not params.lower:
        raise ParameterError("tilde normalization needs at least one lower pair")
    _require_convergent(params)
    return _sum_series(params, z, cfg, log_offset=log_gamma(params.lower[0][0]))


def evaluate_tail(params: FoxWrightParams, tail: TailSpec, z: float,
                  cfg: EvalConfig = _DEFAULT_CFG) -> EvalResult:
    """Evaluate the section starting at k = tail.n + 1 (summed directly,
    never by subtracting a head partial sum from the full series)."""
    _require_convergent(params)
    return _sum_series(params, z, cfg, start=tail.n + 1)


def derivative(params: FoxWrightParams, z: float,
               cfg: EvalConfig = _DEFAULT_CFG) -> EvalResult:
    """d/dz of the series: every parameter advanced by its weight."""
    return evaluate(params.shifted(), z, cfg)


def dbeta1(params: FoxWrightParams, z: float,
           cfg: EvalConfig = _DEFAULT_CFG) -> EvalResult:
    """d/d(beta_1) of the series: term k weighted by -psi(beta_1 + k*B_1)."""
    if not params.lower:
        raise ParameterError("dbeta1 needs at least one lower pair")
    _require_convergent(params)
    b1, w1 = params.lower[0]
    return _sum_series(params, z, cfg,
                       weight=lambda k: -digamma(b1 + k * w1))
