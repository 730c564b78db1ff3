"""Core evaluation engine for the Fox-Wright series.

The central object is

    sum_{k>=0} [prod_l Gamma(alpha_l + k*A_l) / prod_j Gamma(beta_j + k*B_j)] * z^k / k!

together with its normalized, tilde-normalized, tail, derivative, and
d/d(beta_1) variants.  Terms are generated independently in log space (no
term-to-term recurrence: non-integer weights would need gamma ratios anyway),
then summed under a running scale, each step's rounding error kept by
``ddmath._two_sum`` (the package's one compensated step), so that
cancellation for z < 0 stays observable through ``condition_estimate``.

A plain sum of log-gamma values loses absolute precision once the arguments
grow: for weights near 3 the individual log-gammas reach 1e4 while the term
log stays O(100), and the cancelled digits come back as ~1e-12 noise in the
term magnitudes.  The engine therefore assembles each term log from the
Stirling form expanded around k*weight, where the k*log(k) pieces of the
gamma factors and of 1/k! combine exactly into -epsilon*k*log(k); that
coefficient, the k-linear one, and log(k) itself are carried as head/tail
double pairs, keeping the absolute error of a term log near 1e-14 no matter
how large the cancelled log-gammas were.  The pair arithmetic lives in
``ddmath``; the ln|z| and ln(weight) pairs come from its ``_dd_log``
(relative error below 1e-31, reduced to a tabled grid j/64), and a term
skips ln(k) while no factor is expanded: its coefficients are zero.

The single-call entry points (``evaluate`` and its variants) sum in two
phases over one table of those coefficients.  The first 32 terms of a call
(counted from its start index) are generated and summed one at a time, so
the many calls that stop within a few dozen terms pay no array overhead;
they take ln(k) for k < 64, and lnGamma(k+1) while 1/k! waits (k <= 10),
from per-k tables that ``_log_int_dd`` and ``log_gamma`` fill at import.  A
series still running after that continues in numpy blocks of 64, 128, 256
and then 512 terms: the same head/tail arithmetic applied element-wise (the
error-free transforms are exact on IEEE float64 arrays), each block summed
with ``math.fsum`` and ended by ``_stops``, the stop rule of both block
engines and of the head, which decides the ratio on its log.  The blocks'
term logs are read ahead: the first read covers, in whole blocks, what the
head says the series still needs, up to 2,048 terms, and later reads 1,024.
They take ln(k) from ``_LN_K``, which ``_log_ints_dd`` fills at import for
k < 8,192 and computes past it.

A request at z > 0, with or without a psi weight, whose terms peak far
from its start sums its saddle window instead (``window._window``,
``_sum_window``): the terms of [start, k0) one at a time with their signs,
none of [k0, k_lo), and the block phase from k_lo with no scalar head, its
first read sized to the window's right edge.  k_lo is where log t lies 45
below the peak, and k0 is the index of ``window._monotone_from``'s lemma,
from which no term ratio increases (past the zero of a psi weight too, by
its corollary); so |t_{k_lo}| rho/(1 - rho), with rho = |t_{k_lo-1}/
t_{k_lo}| from the term logs the block phase computed, bounds the skipped
flank, which ``_sum_window`` adds to the tail bound.  A window is taken
when it skips at least 64 terms and k0 lies at most 10,000 terms past the
start, and is dropped again (the request summed from its start) where
that bound exceeds 1e-15 of the sum; its term budget counts from k_lo.

Every series generates at most ``_MAX_TERMS`` terms before its stop rule
must fire.  A single call raises OverflowError on a term (scaled by its
``log_offset``) or a value past the double range; ``evaluate_batch`` sums
its series requests in log mode instead, returning +-inf with the finite
log-magnitude, which is what the inequality checkers read.

``evaluate_batch`` sums many series at once, for the inequality checkers;
its tile engine lives in ``batch.py``, and each array kernel it uses sits
beside its scalar twin: ``_dd_log_array`` and ``_log_ints_dd`` in
``ddmath``, ``_log_gamma_array`` in ``gammakit``, and ``_fold``,
``_collapsed`` and ``_expanded_rest`` take floats and arrays alike.  Its
series requests at z > 0 with no psi weight and no saddle window, whose
terms are all positive, become the rows of (series x k) tiles, the rows of
shorter shapes padded with factors that add exact zeros.  Each row keeps
the coefficient table of every stage of its expansion (set up for all rows
together, with ``_dd_log_array``), the factors still below the Stirling
threshold go through ``_log_gamma_array``, and each block of k runs
``_stops`` row by row on ``cumsum`` partials, so a row's result never
depends on the other rows of its tile.  Blocks start at 16 terms and
double up to 512; a block call holds at most ``batch._TILE_CAP`` (row, k,
factor) elements an array, and rows that have stopped drop out.  A row
agrees with its single call within their error estimates but not bit for
bit: a block is added with a pairwise sum instead of ``math.fsum``, and
numpy's logarithms and exponentials may differ from ``math``'s in the last
bit.  A series request with a saddle window takes ``_sum_window``, the one
sum over a window, and one at z <= 0 or with a psi weight and no window
``_sum_plain``, the one engine for signed terms from the start: both bit
for bit the single call.  A series request is checked against its rules
once, by ``_require_summable``: at the top of ``_sum_series``, and in
``batch.evaluate`` before its route is chosen, which hands the epsilon
that check returns to ``window._window``.
The pFq request kind runs the Pochhammer recurrence element-wise across
rows, bit for bit the scalar sum of ``functions.pfq_direct``; its rows
keep their own stop rule, which tests the next term before adding it,
and fail at a term or a sum of t_k or |t_k| past the double range.  At z = 0
the one nonzero term (its log is ``_log_term_at_zero``, as in ``_TermLogs``)
goes through ``_finish`` as every sum does, so z = 0 and z = 1e-300 agree.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .ddmath import (
    _SPLIT,
    _dd_add,
    _dd_log,
    _log_int_dd,
    _log_ints_dd,
    _two_prod,
    _two_sum,
)
from .errors import (
    DivergentSeriesError,
    DomainError,
    NoConvergenceError,
    ParameterError,
)
from .gammakit import (
    _HALF_LN_TWO_PI,
    _digamma_array,
    _log_gamma_array,
    _stirling_tail_sum,
    digamma,
    log_gamma,
)
from .report import _is_index, _is_number
from .window import _window

__all__ = [
    "FoxWrightParams",
    "EvalResult",
    "TailSpec",
    "log_term",
    "evaluate",
    "evaluate_normalized",
    "evaluate_tilde",
    "evaluate_tail",
    "derivative",
    "dbeta1",
    "Request",
    "PfqRequest",
    "evaluate_batch",
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
            upper = tuple((a, wa) for a, wa in obj.get("upper", []))
            lower = tuple((b, wb) for b, wb in obj.get("lower", []))
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"malformed parameter JSON: {exc}") from exc
        for pair in upper + lower:
            if not all(_is_number(v) for v in pair):
                raise ParameterError(f"malformed parameter JSON: {list(pair)!r}"
                                     " is not a pair of numbers")
        return cls(upper=tuple((float(a), float(wa)) for a, wa in upper),
                   lower=tuple((float(b), float(wb)) for b, wb in lower))


# the number of terms a series may generate before its stop rule fires;
# _sum_series and the batch engine read it at each call
_MAX_TERMS = 10000

# the stop rule's relative term size: a term counts as small at or below
# _REL_TOL * |partial sum|
_REL_TOL = 1e-15


@dataclass(frozen=True, slots=True)
class EvalResult:
    """One series evaluation.

    value is sign * exp(log_magnitude) when that is representable, and +-inf
    past the double range (only evaluate_batch returns such a result).
    tail_bound is ``_geometric_tail`` of the last term and the ratio of the
    stop (``_stops``' test), plus, for a call summed over its saddle window,
    that of the skipped left flank [k0, k_lo) from |t_{k_lo}| and the ratio
    into it, which ``_sum_window`` adds; a pFq sum's is that of its last
    term summed and the next ratio (at p = q + 1 at least |z|).
    For a windowed call (dbeta1's too) both rest on the lemma of
    ``window._monotone_from`` and its psi corollary (no ratio of |t_k|
    increases past k0 < k_lo), up to the rounding of the term logs; for
    any other call later ratios are not bounded, so its tail bound is an
    estimate, not a proof.
    condition_estimate = sum|term| / |sum term| is 1.0 for a sum of nonnegative terms.
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
        if not _is_index(self.n):
            raise ParameterError(f"tail index must be an integer, got {self.n!r}")
        object.__setattr__(self, "n", operator.index(self.n))
        if self.n < -1:
            raise ParameterError(f"tail index must be >= -1, got {self.n}")


class Request(NamedTuple):
    """One series evaluation: the series of ``params`` at ``z`` summed from
    term index ``start``, term k multiplied by -psi(b + k*B) when
    ``psi_weight`` is the pair (b, B) (dbeta1's weight), and the
    log-magnitude of the result shifted by ``log_offset`` (a normalization
    prefactor).  Its rules: z finite (else DomainError), epsilon > 0 (else
    DivergentSeriesError); else ParameterError: ``params`` FoxWrightParams,
    z a number, ``start`` an integer >= 0, ``psi_weight`` None or a tuple
    of two numbers, and ``log_offset`` a number, not NaN (it may be inf)."""

    params: FoxWrightParams
    z: float
    start: int = 0
    psi_weight: tuple[float, float] | None = None
    log_offset: float = 0.0


class PfqRequest(NamedTuple):
    """One pFq series summed by its Pochhammer recurrence (see
    ``functions.pfq_direct``), which ``evaluate_batch`` checks with
    ``functions._require_convergent_pfq``, the single call's one check."""

    upper: tuple[float, ...]
    lower: tuple[float, ...]
    z: float


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
    # term 0 is the same at every z
    return log_term(params, 1.0, 0)


# A factor is expanded once its argument a + w*k reaches 12, well inside
# the domain of gammakit's Stirling series.
_EXPAND_MIN = 12.0

# the head's per-k tables (see the module docstring); 1/k! waits for k <= 10
_LOG_INTS = tuple(_log_int_dd(k) for k in range(1, 64))
_LOG_FACTORIALS = tuple(log_gamma(k + 1.0) for k in range(11))


# ln max(k, 1) for k < 8,192 as head/tail rows (128 KB), from _log_ints_dd:
# the block phase slices or indexes it by k instead of recomputing it
_LN_K = np.array(_log_ints_dd(np.maximum(np.arange(8192.0), 1.0)))
_LN_K.flags.writeable = False


def _collapsed(ch, cl, sh, sl, mh, ml, fk, lkh, lkl):
    # k*(ln|z| + sum sigma*w*(ln w - 1))
    # + (k*sum(sigma*w) + sum(sigma*(a - 1/2)))*ln k, from the coefficient
    # pairs (c, s, m); floats or float arrays that broadcast against k
    ph, pe = _two_prod(ch, fk)
    h, l = _two_sum(ph, pe + cl * fk)
    bh, be = _two_prod(sh, fk)
    bh, bl = _dd_add(bh, be + sl * fk, mh, ml)
    ph, pe = _two_prod(bh, lkh)
    return _dd_add(h, l, ph, pe + bh * lkl + bl * lkh)


def _fold(coef, a, w, sg, lwh, lwl):
    # one expanded factor (a, w, sigma) added to the coefficient pairs
    # coef = (c, s, m) as (ch, cl, sh, sl, mh, ml), with (lwh, lwl) = ln w;
    # returns the new pairs and the four pieces the factor adds to the
    # k-independent constant.  Floats or float arrays.
    ch, cl, sh, sl, mh, ml = coef
    am = a - 0.5
    sh, sl = _dd_add(sh, sl, sg * w, 0.0)
    ph, pe = _two_prod(w, lwh)
    ch, cl = _dd_add(ch, cl, sg * ph, sg * (pe + w * lwl))
    ch, cl = _dd_add(ch, cl, -sg * w, 0.0)
    mh, ml = _dd_add(mh, ml, sg * am, 0.0)
    ph, pe = _two_prod(am, lwh)
    return ((ch, cl, sh, sl, mh, ml),
            (sg * ph, sg * (pe + am * lwl), -sg * a, sg * _HALF_LN_TWO_PI))


def _expanded_rest(a, wk):
    # what is left of lnGamma(a + wk) once the collapsed pieces are taken
    # out, for float arrays: O(a), so one double carries it
    return (wk + (a - 0.5)) * np.log1p(a / wk) + _stirling_tail_sum(a + wk)


class _TermLogs:
    """Stabilized per-term log magnitudes for one summation run.

    ``at(k)`` returns log|term k| as a head/tail pair, ``term(k)`` the same
    times the psi weight -psi(b + k*B) and the sign of the weighted term,
    ``block(k0, k1)`` and ``signs(k0, k1)`` those for k0 <= k < k1 as arrays.
    Factors whose argument a + w*k has reached _EXPAND_MIN contribute through
    the Stirling form expanded around w*k.  Summed over those factors (1/k!
    included as a lower factor with a = w = 1) the pieces collapse into one
    coefficient table that ``_advance`` keeps with ``_fold``: sum sigma*w (the
    k*ln(k) coefficient, -epsilon of the participating subset), the k-linear
    coefficient ln|z| + sum sigma*w*(ln(w) - 1), the ln(k) coefficient sum
    sigma*(a - 1/2), all as exact pairs, and a k-independent constant.  What is
    left per factor is O(a) and goes through one fsum.  Factors still below the
    threshold contribute their log-gamma directly, which is harmless precisely
    because those values are small.  Calls must come with nondecreasing k (the
    factor partition only ever grows), and k = 0 only as the first call.
    Blocks are slices of a read-ahead of ``ahead`` terms (set by _sum_plain
    and _sum_window for the first read, up to _FIRST_READ; 2 * _BLOCK_MAX after
    it; at least the block, never past ``end``), each element the one a read
    of its block alone computes.  An unsigned series (z > 0, no psi weight)
    keeps no signs: ``signs`` gives ones.
    """

    def __init__(self, params: FoxWrightParams, z: float,
                 psi_weight: tuple | None = None, end: float = math.inf) -> None:
        self._neg, self._psi, self._end = z < 0.0, psi_weight, end
        self._params = params
        self.ahead = 2 * _BLOCK_MAX
        # the read-ahead: (log heads, log tails, signs) of k0 <= k < k1
        self._k0, self._k1, self._buf = 0, 0, (np.empty(0),) * 3
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
        self._expanded: list[tuple] = []  # (a, w, sigma, a - 1/2)
        # the pairs (c, s, m): the k-linear coefficient, sum sigma*w over
        # the expanded factors, and their ln(k) coefficient sum sigma*(a - 1/2)
        self._coef = (*_dd_log(abs(z)), 0.0, 0.0, 0.0, 0.0)

    def _advance(self, k: int) -> None:
        while self._waiting and self._waiting[0][0] <= k:
            _, a, w, sg = self._waiting.pop(0)
            self._expanded.append((a, w, sg, a - 0.5))
            self._coef, pieces = _fold(self._coef, a, w, sg, *_dd_log(w))
            self._consts += pieces
        self._base = math.fsum(self._consts)

    def at(self, k: int) -> tuple[float, float]:
        if k == 0:
            return _log_term_at_zero(self._params), 0.0
        if self._waiting and self._waiting[0][0] <= k:
            self._advance(k)
        fk = float(k)
        items = [self._base]
        for _, a, w, sg in self._waiting:
            items.append(sg * (_LOG_FACTORIALS[k] if a == w == 1.0
                               else log_gamma(a + w * fk)))
        for a, w, sg, am in self._expanded:
            wk = w * fk
            items.append(sg * ((wk + am) * math.log1p(a / wk)
                               + _stirling_tail_sum(a + wk)))
        # _collapsed and _dd_add written out: (h, l) = k*c, plus (k*s + m)*ln(k)
        # once a factor is expanded, plus the fsum of the items
        ch, cl, sh, sl, mh, ml = self._coef
        fh, uh = _SPLIT * fk, _SPLIT * ch
        fh, uh = fh - (fh - fk), uh - (uh - ch)
        fl, ul, p = fk - fh, ch - uh, ch * fk
        y = (((uh * fh - p) + uh * fl + ul * fh) + ul * fl) + cl * fk
        h = p + y
        t = h - p
        l = (p - (h - t)) + (y - t)
        if self._expanded:
            lkh, lkl = _LOG_INTS[k - 1] if k < 64 else _log_int_dd(k)
            p, uh = sh * fk, _SPLIT * sh  # (bh, bl) = k*s + m
            uh -= uh - sh
            ul = sh - uh
            x = (((uh * fh - p) + uh * fl + ul * fh) + ul * fl) + sl * fk
            s = p + mh
            t = s - p
            y = (p - (s - t)) + (mh - t) + x + ml
            bh = s + y
            t = bh - s
            bl = (s - (bh - t)) + (y - t)
            p, uh, vh = bh * lkh, _SPLIT * bh, _SPLIT * lkh  # (h, l) += b*ln(k)
            uh, vh = uh - (uh - bh), vh - (vh - lkh)
            ul, vl = bh - uh, lkh - vh
            x = (((uh * vh - p) + uh * vl + ul * vh) + ul * vl) + bh * lkl + bl * lkh
            s = h + p
            t = s - h
            y = (h - (s - t)) + (p - t) + l + x
            h = s + y
            t = h - s
            l = (s - (h - t)) + (y - t)
        s, y = _two_sum(h, math.fsum(items))
        return _two_sum(s, y + l + 0.0)

    def term(self, k: int) -> tuple[float, float, float]:
        h, l = self.at(k)
        sign = -1.0 if (self._neg and k % 2 == 1) else 1.0
        if self._psi is None:
            return h, l, sign
        w = -digamma(self._psi[0] + k * self._psi[1])
        if w == 0.0:
            return -math.inf, 0.0, sign
        return *_dd_add(h, l, math.log(abs(w)), 0.0), (sign if w > 0.0 else -sign)

    def block(self, k0: int, k1: int) -> tuple[np.ndarray, np.ndarray]:
        if k1 > self._k1:
            self._read(k0, k1)
        i, j = k0 - self._k0, k1 - self._k0
        return self._buf[0][i:j], self._buf[1][i:j]

    def signs(self, k0: int, k1: int) -> np.ndarray:
        if len(self._buf) == 2:
            return np.ones(k1 - k0)
        return self._buf[2][k0 - self._k0:k1 - self._k0]

    def _read(self, k0: int, k1: int) -> None:
        # the next read, joined to what is left of the last one; split where
        # a factor crosses _EXPAND_MIN, so each span has one coefficient table
        lo = k = max(k0, self._k1)
        hi = min(max(k1, lo + self.ahead), self._end)
        self.ahead = 2 * _BLOCK_MAX
        spans = []
        while k < hi:
            if self._waiting and self._waiting[0][0] <= k:
                self._advance(k)
            top = min(hi, self._waiting[0][0]) if self._waiting else hi
            spans.append(self._span(k, top))
            k = top
        h, l = (np.concatenate(p) for p in zip(*spans))
        cols = (h, l)
        if self._neg or self._psi is not None:  # an unsigned series keeps no signs
            sign = np.ones(hi - lo)
            sign[(lo + 1) % 2::2] = -1.0 if self._neg else 1.0
            if self._psi is not None:
                w = -_digamma_array(self._psi[0] + np.arange(lo, hi) * self._psi[1])
                sign[w < 0.0] *= -1.0
                with np.errstate(divide="ignore", invalid="ignore"):
                    h, l = _dd_add(h, l, np.log(np.abs(w)), 0.0)
                h, l = np.where(w == 0.0, -math.inf, h), np.where(w == 0.0, 0.0, l)
            cols = (h, l, sign)
        i = k0 - self._k0
        self._buf = tuple(np.concatenate((old[i:], new))
                          for old, new in zip(self._buf, cols))
        self._k0, self._k1 = k0, hi

    def _span(self, k0: int, k1: int) -> tuple[np.ndarray, np.ndarray]:
        fk = np.arange(k0, k1, dtype=float)
        lk = _LN_K[:, k0:k1] if k1 <= _LN_K.shape[1] else _log_ints_dd(fk)
        h, l = _collapsed(*self._coef, fk, *lk)
        parts = [sg * _log_gamma_array(a + w * fk)
                 for _, a, w, sg in self._waiting]
        if self._expanded:
            a, w, sg, _ = np.array(self._expanded).T[:, :, None]
            parts.append((sg * _expanded_rest(a, w * fk)).sum(axis=0))
        rh, rl = self._base, 0.0
        for p in parts:
            rh, e = _two_sum(rh, p)
            rl = rl + e
        return _dd_add(h, l, rh, rl)


def _require_summable(req: Request) -> float:
    # the rules of a series Request (see its docstring); returns its epsilon
    if not isinstance(req.params, FoxWrightParams):
        raise ParameterError(f"params must be FoxWrightParams, got {req.params!r}")
    try:
        finite = math.isfinite(req.z)
    except TypeError:
        raise ParameterError(f"z must be a number, got z={req.z!r}") from None
    except OverflowError:  # an int past the double range
        raise ParameterError("z must lie in the double range") from None
    if not finite:
        raise DomainError(f"z must be finite, got z={req.z!r}")
    eps = req.params.epsilon()
    if not eps > 0.0:
        raise DivergentSeriesError(
            f"divergent series: epsilon = 1 + sum(B) - sum(A) = {eps:.6g} <= 0")
    if not _is_index(req.start):
        raise ParameterError(f"start must be an integer, got {req.start!r}")
    if req.start < 0:
        raise ParameterError(f"start must be >= 0, got {req.start}")
    try:
        if math.isnan(req.log_offset):
            raise ParameterError("log_offset must not be NaN")
    except TypeError:
        raise ParameterError(f"log_offset must be a number, got "
                             f"{req.log_offset!r}") from None
    except OverflowError:  # an int past the double range
        raise ParameterError("log_offset must lie in the double range") from None
    psi = req.psi_weight
    if psi is not None and not (isinstance(psi, tuple) and len(psi) == 2 and all(
            isinstance(v, numbers.Real) for v in psi)):
        raise ParameterError(f"psi_weight must be None or two numbers, got {psi!r}")
    try:
        tuple(map(float, psi or ()))
    except OverflowError:  # an int past the double range
        raise ParameterError("psi_weight must lie in the double range") from None
    return eps


def _geometric_tail(t: float, r: float) -> float:
    # the terms after one of size t whose ratios stay at most r < 1: the
    # one geometric bound, of a stop, of a window's flank and of a pFq row
    return t * r / (1.0 - r)


def _finish(scale_h: float, scale_l: float, total: float, total_abs: float,
            terms: int, last_h: float, ratio: float, log_offset: float,
            log_mode: bool) -> EvalResult:
    # the result of a stopped summation: its tail bound from the last term
    # and the ratio of the stop, and its log-magnitude shifted by log_offset
    tail = (_geometric_tail(_exp_or_inf(last_h + log_offset), ratio)
            if last_h > -math.inf else 0.0)
    if total == 0.0:
        cond = 1.0 if total_abs == 0.0 else math.inf
        return EvalResult(0.0, terms, tail, cond, -math.inf, 0)
    cond = total_abs / abs(total)
    # exact-sum the three log contributions so exp sees a faithful argument
    h, e1 = _two_sum(scale_h, math.log(abs(total)))
    h, e2 = _two_sum(h, log_offset)
    resid = e1 + e2 + scale_l if math.isfinite(h) else 0.0  # e2 NaN at h = +-inf
    log_mag = h + resid
    sgn = 1 if total > 0.0 else -1
    if log_mag > _LOG_DOUBLE_MAX and not log_mode:
        raise _value_overflow(log_mag)
    if h < _LOG_DOUBLE_MAX:
        value = sgn * math.exp(h) * (1.0 + resid)
    else:
        value = sgn * math.inf
    return EvalResult(value, terms, tail, cond, log_mag, sgn)


# Terms summed one at a time from a call's start index before the engine
# switches to numpy blocks, whose sizes double from _BLOCK_MIN to _BLOCK_MAX.
# An array read of term logs costs a few hundred microseconds, as much as
# 20 one-term steps, while most calls stop within 10-30 terms; so the first
# read spans the whole blocks the head's growth or decay leaves, up to
# _FIRST_READ, and later reads 2 * _BLOCK_MAX.
_SCALAR_TERMS = 32
_BLOCK_MIN = 64
_BLOCK_MAX = 512
_FIRST_READ = 4 * _BLOCK_MAX


def _whole_blocks(n: float) -> int:
    # the fewest terms in whole blocks of the block phase that reach n
    ahead = size = _BLOCK_MIN
    while ahead < n:
        size = min(2 * size, _BLOCK_MAX)
        ahead += size
    return ahead


def _term_overflow(k: int, lh: float) -> OverflowError:
    return OverflowError(
        f"term k={k} has log-magnitude {lh:.6g}, beyond double "
        "range; evaluate_batch returns the series' log-magnitude")


def _value_overflow(log_mag: float) -> OverflowError:
    return OverflowError(
        f"series value has log-magnitude {log_mag:.6g}, beyond double "
        "range; evaluate_batch returns its log-magnitude")


def _no_stop(req: Request) -> NoConvergenceError:
    return NoConvergenceError(
        f"stop rule did not fire within {_MAX_TERMS} terms "
        f"(start={req.start}, z={req.z!r})")


# the stop rule decides the ratio of a term to the one before on its log
# d: d < _D_STOP is the same test on every CPU, and any faithful exp(d)
# stays below 1 there, so a stop's geometric tail bound stays positive
_D_STOP = -2.0 ** -52


def _stops(lh, ll, prev_h, prev_l, small, streak):
    """The stop rule of both block engines, over (row, k) arrays, and of the
    head, one term at a time: a row stops at its first term that ends three
    small terms in a row (the ``streak`` carried in counts) and whose d =
    (lh - prev_h) + (ll - prev_l) is below _D_STOP, as a zero term's -inf
    is (the head's after a zero term too: an all-zero series).  Returns
    per row the terms used, whether it stopped, the d of its stop (NaN if
    it did not), and the streak of small terms it carries out."""
    rows, n = lh.shape
    if not small.any():  # no row can stop, and none carries a streak out
        return (np.full(rows, n), np.zeros(rows, dtype=bool),
                np.full(rows, np.nan), np.zeros(rows, dtype=int))
    # the small terms in a row that end at each term, the streak counting
    k = np.arange(n)
    run = k - np.maximum.accumulate(np.where(small, (-1 - streak)[:, None], k),
                                    axis=1)
    # d as np.diff with the previous term prepended forms it, without
    # np.diff's per-call checks
    h = np.concatenate((prev_h[:, None], lh), axis=1)
    l = np.concatenate((prev_l[:, None], ll), axis=1)
    d = (h[:, 1:] - h[:, :-1]) + (l[:, 1:] - l[:, :-1])
    stop = (run >= 3) & (d < _D_STOP)
    at, first = np.arange(rows), stop.argmax(axis=1)
    hit = stop[at, first]
    return (np.where(hit, first + 1, n), hit,
            np.where(hit, d[at, first], np.nan), run[:, -1])


def _blocks(gen: _TermLogs, k: int, end: int, acc: list, prev_h: float,
            prev_l: float, streak: int, signed: bool, offset: float | None):
    """The block phase of a summation from term k: blocks of _BLOCK_MIN
    terms, doubling to _BLOCK_MAX, each ended by ``_stops`` on its one row,
    until a stop or ``end``.  ``acc`` holds the scaled sums [scale_h,
    scale_l, total, comp, total_abs, comp_abs] and is updated in place; a
    term whose log plus ``offset`` (None in log mode) passes the double
    range raises OverflowError.
    Returns the terms summed, whether the rule stopped, the ratio of the
    stop and the last term's log."""
    scale_h, scale_l, total, comp, total_abs, comp_abs = acc
    terms, stopped, ratio = 0, False, math.nan
    size = _BLOCK_MIN
    while not stopped and k < end:
        n = min(size, end - k)
        lh, ll = gen.block(k, k + n)

        # rescale to the block's largest term; a window's first block
        # starts from scale_h = -inf and zero sums
        top = int(lh.argmax())
        top_h, top_l = float(lh[top]), float(ll[top])
        if top_h > scale_h:
            f = math.exp(scale_h - top_h) * (1.0 + (scale_l - top_l))
            total *= f
            comp *= f
            total_abs *= f
            comp_abs *= f
            scale_h, scale_l = top_h, top_l
        t = np.exp(lh - scale_h) * (1.0 + (ll - scale_l))

        # _stops on this one row, over cumsum partial sums; the terms up to the
        # stop are then added with fsum.  Unsigned terms are positive: their
        # partials need no abs, and a zero term is small by its size alone
        if signed:
            x = gen.signs(k, k + n) * t
            partial = np.abs((total + comp) + x.cumsum())
            small = (lh == -math.inf) | (t <= _REL_TOL * partial)
        else:
            x = t
            small = t <= _REL_TOL * ((total + comp) + t.cumsum())
        used, stopped, d, streak = (v.item() for v in _stops(
            lh[None], ll[None], np.array([prev_h]), np.array([prev_l]),
            small[None], np.array([streak])))
        ratio = math.exp(d)  # below 1 at a stop, else NaN
        if offset is not None and top_h + offset > _LOG_DOUBLE_MAX:
            over = np.flatnonzero(lh[:used] + offset > _LOG_DOUBLE_MAX)
            if over.size:
                raise _term_overflow(k + int(over[0]), lh[over[0]] + offset)

        # fsum over a memoryview: the floats of tolist(), without the list
        total, e = _two_sum(total, math.fsum(memoryview(x[:used])))
        comp += e
        if signed:
            total_abs, e = _two_sum(total_abs, math.fsum(memoryview(t[:used])))
            comp_abs += e
        terms += used
        prev_h, prev_l = float(lh[used - 1]), float(ll[used - 1])
        k += n
        size = min(2 * size, _BLOCK_MAX)
    acc[:] = scale_h, scale_l, total, comp, total_abs, comp_abs
    return terms, stopped, ratio, prev_h


def _sum_window(req: Request, win: tuple, eps: float, log_mode: bool):
    """_sum_series of a request at z > 0 of epsilon ``eps`` over its saddle
    window (k0, k_lo, k_hi) (see ``_window``): the terms of [start, k0) one
    by one with their signs, then the block phase from k_lo with no scalar
    head, its first read sized to k_hi and its budget of _MAX_TERMS counted
    from k_lo, and the flank bound |t_{k_lo}| rho/(1 - rho) of [k0, k_lo),
    with rho = |t_{k_lo-1}/t_{k_lo}| from the term logs, added to the tail
    bound.  The plain sum from the start where the window does not hold
    (rho not below 1 by more than -_D_STOP in its log, a zero sum, or a
    flank bound above _REL_TOL of the sum), or where a term passes the
    double range outside log mode, so that it names the first such term."""
    params, z, start, psi, log_offset = req
    k0, k_lo, k_hi = win
    end = k_lo + _MAX_TERMS
    gen = _TermLogs(params, z, psi, end)
    acc = [-math.inf, 0.0, 0.0, 0.0, 0.0, 0.0]
    if k0 > start:
        lh, ll, sign = np.array([gen.term(k) for k in range(start, k0)]).T
        top = int(lh.argmax())
        acc[0], acc[1] = float(lh[top]), float(ll[top])
        with np.errstate(invalid="ignore"):  # all terms 0: NaN, plain sum
            t = np.exp(lh - acc[0]) * (1.0 + (ll - acc[1]))
        acc[2], acc[4] = (math.fsum(memoryview(x)) for x in (sign * t, t))
    # the first read: the term before k_lo, for the flank's ratio, and
    # whole blocks up to k_hi
    gen.ahead = 1 + _whole_blocks(k_hi - k_lo + 3)
    (ph, lo_h), (pl, lo_l) = (v.tolist() for v in gen.block(k_lo - 1, k_lo + 1))
    d = (lo_h - ph) + (lo_l - pl)  # ln(1/rho)
    if not -d < _D_STOP:
        return _sum_plain(req, eps, log_mode)
    used, stopped, ratio, last_h = _blocks(gen, k_lo, end, acc, ph, pl, 0,
                                           psi is not None, None)
    if not stopped:
        raise _no_stop(req)
    scale_h, scale_l, total, comp, total_abs, comp_abs = acc
    total += comp
    rho = math.exp(-d)
    if (not abs(total) > 0.0
            or rho > 0.0 and lo_h + math.log(rho / (1.0 - rho)) > (
                math.log(_REL_TOL) + scale_h + math.log(abs(total)))
            or scale_h + log_offset > _LOG_DOUBLE_MAX and not log_mode):
        return _sum_plain(req, eps, log_mode)
    res = _finish(scale_h, scale_l, total,
                  total_abs + comp_abs if psi is not None else total,
                  k0 - start + used, last_h, ratio, log_offset, log_mode)
    return replace(res, tail_bound=res.tail_bound + _geometric_tail(
        _exp_or_inf(lo_h + log_offset), rho))


def _sum_series(req: Request, log_mode: bool) -> EvalResult:
    """Scaled compensated summation of one request: over its saddle window
    (``_sum_window``) where a request at z > 0 has one, else from its
    start (``_sum_plain``).  Past the double range a term or the value
    raises OverflowError, unless log_mode: then the result is +-inf with
    its log-magnitude (evaluate_batch's policy)."""
    eps = _require_summable(req)
    win = _window(req, eps) if req.z > 0.0 else None
    if win is not None:
        return _sum_window(req, win, eps, log_mode)
    return _sum_plain(req, eps, log_mode)


def _sum_plain(req: Request, eps: float, log_mode: bool) -> EvalResult:
    """_sum_series of a request of epsilon ``eps`` from its start: one term
    at a time, then in blocks."""
    params, z, start, psi_weight, log_offset = req
    if z == 0.0:
        # only term 0 is nonzero (the same term at every z), and a tail from
        # k >= 1 sums no term
        h, l, sign = _TermLogs(params, 1.0, psi_weight).term(0)
        t = sign if h > -math.inf and start == 0 else 0.0
        return _finish(h, l, t, abs(t), int(start == 0), -math.inf, 0.0,
                       log_offset, log_mode)
    # at z > 0 with no psi weight every term is positive: sum|t_k| = sum t_k
    signed = z < 0.0 or psi_weight is not None
    end = start + _MAX_TERMS
    gen = _TermLogs(params, z, psi_weight, end)
    scale_h = -math.inf  # running log scale of the accumulators, head/tail
    scale_l = 0.0
    total = 0.0
    comp = 0.0          # the rounding errors of total, by _two_sum
    total_abs = 0.0
    comp_abs = 0.0
    prev_h = -math.inf
    prev_l = 0.0
    streak = 0
    terms = 0
    stopped = False

    for k in range(start, min(start + _SCALAR_TERMS, end)):
        lh, ll, sign = gen.term(k)
        terms += 1
        if lh + log_offset > _LOG_DOUBLE_MAX and not log_mode:
            raise _term_overflow(k, lh + log_offset)

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
        total, e = _two_sum(total, sign * t)
        comp += e
        if signed:
            total_abs, e = _two_sum(total_abs, t)
            comp_abs += e

        d = (lh - prev_h) + (ll - prev_l) if lh > -math.inf else -math.inf
        prev_h, prev_l = lh, ll

        # _stops' rule on one term: three consecutive relatively small
        # terms, and the last d below _D_STOP
        partial = abs(total + comp)
        if lh == -math.inf or (k > start and t <= _REL_TOL * partial):
            streak += 1
        else:
            streak = 0
        if streak >= 3 and d < _D_STOP:
            stopped = True
            break

    # read ahead as many whole blocks as the head says the series still
    # needs, up to _FIRST_READ: to the peak near k * ratio^(1/epsilon), as
    # ratios fall like k^-epsilon, and twice the width of a Gaussian fall
    # past it; or by the last ratio, if sooner
    ratio = _exp_or_inf(d)
    need = 2.0 * _BLOCK_MAX
    if not stopped and 0.0 < ratio < math.inf:
        peak = k * math.exp(min(math.log(ratio) / eps, 7.0))
        need = peak - k + 2.0 * math.sqrt(-2.0 * math.log(_REL_TOL) * peak / eps)
        if ratio < 1.0 and t > 0.0 and partial > 0.0:
            need = min(need, (math.log(_REL_TOL) + math.log(partial) - math.log(t))
                       / math.log(ratio))
    gen.ahead = min(_whole_blocks(min(need + 3.0, _FIRST_READ)), _FIRST_READ)
    acc = [scale_h, scale_l, total, comp, total_abs, comp_abs]
    if not stopped:
        used, stopped, ratio, prev_h = _blocks(
            gen, start + _SCALAR_TERMS, end, acc, prev_h, prev_l, streak,
            signed, None if log_mode else log_offset)
        terms += used
    if not stopped:
        raise _no_stop(req)

    scale_h, scale_l, total, comp, total_abs, comp_abs = acc
    if not signed:
        total_abs, comp_abs = total, comp
    return _finish(scale_h, scale_l, total + comp, total_abs + comp_abs,
                   terms, prev_h, ratio, log_offset, log_mode)


def _normalized(params: FoxWrightParams, z: float) -> Request:
    return Request(params, z, log_offset=-_log_term_at_zero(params))


def _tilde(params: FoxWrightParams, z: float) -> Request:
    if not params.lower:
        raise ParameterError("tilde normalization needs at least one lower pair")
    return Request(params, z, log_offset=log_gamma(params.lower[0][0]))


def _dbeta1(params: FoxWrightParams, z: float) -> Request:
    if not params.lower:
        raise ParameterError("dbeta1 needs at least one lower pair")
    return Request(params, z, psi_weight=params.lower[0])


def evaluate(params: FoxWrightParams, z: float) -> EvalResult:
    """Evaluate the series at z."""
    return _sum_series(Request(params, z), False)


def evaluate_normalized(params: FoxWrightParams, z: float) -> EvalResult:
    """Evaluate scaled by prod Gamma(beta) / prod Gamma(alpha); equals 1 at z = 0."""
    return _sum_series(_normalized(params, z), False)


def evaluate_tilde(params: FoxWrightParams, z: float) -> EvalResult:
    """Evaluate scaled by Gamma(beta_1) alone (first-lower-slot normalization)."""
    return _sum_series(_tilde(params, z), False)


def evaluate_tail(params: FoxWrightParams, tail: TailSpec,
                  z: float) -> EvalResult:
    """Evaluate the section starting at k = tail.n + 1 (summed directly,
    never by subtracting a head partial sum from the full series)."""
    return _sum_series(Request(params, z, tail.n + 1), False)


def derivative(params: FoxWrightParams, z: float) -> EvalResult:
    """d/dz of the series: every parameter advanced by its weight."""
    return evaluate(params.shifted(), z)


def dbeta1(params: FoxWrightParams, z: float) -> EvalResult:
    """d/d(beta_1) of the series: term k weighted by -psi(beta_1 + k*B_1)."""
    return _sum_series(_dbeta1(params, z), False)


def evaluate_batch(requests: list) -> list:
    """Evaluate many Request and PfqRequest items at once.

    Returns one EvalResult per request, in order, or the exception the
    request fails with in its place: the DomainError, ParameterError or
    DivergentSeriesError of a request that breaks the rules of Request or
    PfqRequest (as the single calls refuse it), NoConvergenceError, or
    OverflowError.  Series requests are summed in log mode: one past the
    double range returns +-inf with its finite log_magnitude, while a pFq
    row whose term or sum of t_k or |t_k| leaves it fails with OverflowError.
    Series requests at z > 0 with no psi_weight and no saddle window are
    the rows of one tile, the others (a windowed one among them) take the
    single-call path bit for bit, and pFq requests of one (p, q) shape are
    the rows of one recurrence.
    Every result is independent of the other requests in the batch.
    """
    # the batch module is imported on first use: importing the package
    # for single calls does not pay for it
    from .batch import evaluate
    return evaluate(requests)
