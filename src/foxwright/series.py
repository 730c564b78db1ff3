"""Core evaluation engine for the Fox-Wright series.

The central object is

    sum_{k>=0} [prod_l Gamma(alpha_l + k*A_l) / prod_j Gamma(beta_j + k*B_j)] * z^k / k!

together with its normalized, tilde-normalized, tail, derivative, and
d/d(beta_1) variants.  Terms are generated independently in log space (no
term-to-term recurrence: non-integer weights would need gamma ratios anyway),
then summed under a running scale, each step's rounding error kept by
``ddmath._two_sum`` (the package's one compensated step).  Every sum
carries sum |t_k| beside sum t_k, every read of term logs returns their
signs (+1.0 for each term at z > 0 with no psi weight, whose two sums are
then the same float), and cancellation for z < 0 stays observable through
``condition_estimate``.

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

The single-call entry points (``evaluate`` and its variants) sum a series
from its start in one function, ``_sum_plain``, over one table of those
coefficients, one term at a time from ``_TermLogs.term``.  That path calls
``math`` and no numpy, so a plain sum has the same bits on every CPU; it
takes ln(k) for k < 64, and lnGamma(k+1) while 1/k! waits (k <= 10), from
per-k tables that ``_log_int_dd`` and ``log_gamma`` fill at import.  It
stops at the first term that ends three small terms in a row and whose log
d of its ratio to the term before is below ``_D_STOP``; ``batch._stops``
is the same rule over the arrays of a tile.

A request at z > 0, with or without a psi weight, whose terms peak far
from its start sums its saddle window instead (``window._window``,
``_sum_window``), from one array read of term logs, ``_TermLogs.terms``
(``term``'s arithmetic element-wise, exact on IEEE float64 arrays, with
ln(k) from ``_LN_K`` for k < 8,192): every term of [start, k0) with its
sign, none of [k0, k_lo), and the window on the lattice k_lo + j*h, j =
0..n (n the fewest strides of h = ``window._stride`` that reach k_hi),
whose terms times h sum it by the trapezoid rule, far below double
rounding (see ``window``).  k_lo is where
log t lies 45 below the peak, and k0 is the index of
``window._monotone_from``'s lemma, from which no term ratio increases
(past the zero of a psi weight too, by its corollary); so |t_{k_lo}|
rho/(1 - rho), with rho = |t_{k_lo-1}/t_{k_lo}|, bounds the skipped flank,
and |t_end| q/(1 - q), with q = |t_{k_end+1}/t_{k_end}| at the lattice's
last point, the tail past it.  The tail bound adds those two, h (|t_{k_lo}|
+ |t_end|) for the lattice's edges and the aliasing estimate.  A window is
taken when it skips at least 64 terms and k0 lies at most 10,000 terms
past the start, and is dropped again (the request summed from its start)
where that bound exceeds 1e-15 of the sum; the terms it reads count
against the budget.

Every series generates at most ``_MAX_TERMS`` terms before its stop rule
must fire (a window reads at most that many).  A single call raises
OverflowError on a term (scaled by its ``log_offset``) or a value past the
double range; ``evaluate_batch`` sums
its series requests in log mode instead, returning +-inf with the finite
log-magnitude, which is what the inequality checkers read.

``evaluate_batch`` sums many series at once, for the inequality checkers;
its tile engine lives in ``batch.py``, and each array kernel it uses sits
beside its scalar twin: ``_dd_log_array`` and ``_log_ints_dd`` in
``ddmath``, ``_log_gamma_array`` in ``gammakit``, and ``_fold``,
``_collapsed`` and ``_expanded_rest`` take floats and arrays alike.  Its
series requests at z > 0 with no psi weight and no saddle window, whose
terms are all positive, become the rows of (series x k) tiles, summed by
``batch._sum_tile``, the rows of shorter shapes padded with factors that
add exact zeros; a row's sum of t_k is its sum of |t_k|.  Each row keeps
the coefficient table of every stage of its expansion (set up for all rows
together, with ``_dd_log_array``), the factors still below the Stirling
threshold go through ``_log_gamma_array``, and each block of k runs
``batch._stops`` row by row on ``cumsum`` partials, so a row's result never
depends on the other rows of its tile.  Blocks start at 16 terms and
double up to 512; a block call holds at most ``batch._TILE_CAP`` (row, k,
factor) elements an array, and rows that have stopped drop out.  A row
agrees with its single call within their error estimates but not bit for
bit: a block is added with a pairwise sum, not term by term, and
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
from .window import _aliasing, _stride, _window

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
    tail_bound is ``_geometric_tail`` of the last term and exp(d) of the
    stop; a pFq sum's is that of its last term summed and the next ratio
    (at p = q + 1 at least |z|).  For a call summed over
    its saddle window (dbeta1's too) it is the sum of four terms
    (``_sum_window``): the geometric bounds of the skipped left flank [k0,
    k_lo) and of the tail past the lattice, which rest on the lemma of
    ``window._monotone_from`` and its psi corollary (no ratio of |t_k|
    increases past k0 < k_lo) and so are proved, up to the rounding of the
    term logs; and h (|t_{k_lo}| + |t_end|) for the lattice's edges and
    the saddle-point aliasing estimate of ``window``, which are estimates.
    For any other call later ratios are not bounded, so its tail bound is
    an estimate, not a proof.
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
    z a number, ``start`` an integer from 0 to 2**53 - _MAX_TERMS,
    ``psi_weight`` None or a tuple of two numbers, and ``log_offset`` a
    number, not NaN (it may be inf)."""

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

# _TermLogs.term's per-k tables (see the module docstring); 1/k! waits for
# k <= 10
_LOG_INTS = tuple(_log_int_dd(k) for k in range(1, 64))
_LOG_FACTORIALS = tuple(log_gamma(k + 1.0) for k in range(11))


# ln max(k, 1) for k < 8,192 as head/tail rows (128 KB), from _log_ints_dd:
# array reads index it by k instead of recomputing it
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

    ``term(k)`` returns log|term k| times the psi weight -psi(b + k*B) as a
    head/tail pair, with the sign of the weighted term (``_sum_plain``'s
    read), and ``terms(ks)`` those at an increasing array of k, in one read
    (``_sum_window``'s).
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
    """

    def __init__(self, params: FoxWrightParams, z: float,
                 psi_weight: tuple | None = None) -> None:
        self._neg, self._psi = z < 0.0, psi_weight
        self._params = params
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

    def term(self, k: int) -> tuple[float, float, float]:
        sign = -1.0 if (self._neg and k % 2 == 1) else 1.0
        if k == 0:
            h, l = _log_term_at_zero(self._params), 0.0
        else:
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
            # _collapsed and _dd_add written out: (h, l) = k*c, plus
            # (k*s + m)*ln(k) once a factor is expanded, plus the fsum of
            # the items
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
                # (h, l) += b*ln(k)
                p, uh, vh = bh * lkh, _SPLIT * bh, _SPLIT * lkh
                uh, vh = uh - (uh - bh), vh - (vh - lkh)
                ul, vl = bh - uh, lkh - vh
                x = (((uh * vh - p) + uh * vl + ul * vh) + ul * vl
                     + bh * lkl + bl * lkh)
                s = h + p
                t = s - h
                y = (h - (s - t)) + (p - t) + l + x
                h = s + y
                t = h - s
                l = (s - (h - t)) + (y - t)
            s, y = _two_sum(h, math.fsum(items))
            h, l = _two_sum(s, y + l + 0.0)
        if self._psi is None:
            return h, l, sign
        w = -digamma(self._psi[0] + k * self._psi[1])
        if w == 0.0:
            return -math.inf, 0.0, sign
        return *_dd_add(h, l, math.log(abs(w)), 0.0), (sign if w > 0.0 else -sign)

    def terms(self, ks: np.ndarray) -> tuple:
        """(log heads, log tails, signs) of the terms at the increasing
        integer array ``ks``, by ``_logs``, the kernel of every read: each
        log with its psi weight, each sign that of the weighted term, +1.0
        for every term of a series at z > 0 with no psi weight."""
        fk = ks.astype(float)
        lk = (_LN_K.take(ks, axis=1) if ks[-1] < _LN_K.shape[1]
              else _log_ints_dd(np.maximum(fk, 1.0)))
        h, l = self._logs(ks, fk, lk)
        sign = np.ones(ks.size)
        if self._neg:
            sign[ks % 2 == 1] = -1.0
        if self._psi is not None:
            w = -_digamma_array(self._psi[0] + ks * self._psi[1])
            sign[w < 0.0] *= -1.0
            with np.errstate(divide="ignore", invalid="ignore"):
                h, l = _dd_add(h, l, np.log(np.abs(w)), 0.0)
            h, l = np.where(w == 0.0, -math.inf, h), np.where(w == 0.0, 0.0, l)
        return h, l, sign

    def _logs(self, ks, fk, lk) -> tuple[np.ndarray, np.ndarray]:
        # the term logs at the increasing ints ks (fk as floats, lk = ln k
        # as head/tail rows), each under the coefficient table of its k, as
        # the table advances at each factor's crossing.  A factor waits on
        # a prefix of ks and is expanded on the rest; the lnGamma of every
        # waiting (factor, k) comes from one array call, and so does the
        # rest of every expanded one, and each k adds its pieces in the
        # factor order of its table: the bits of a read of its stretch
        # between crossings alone.
        n = ks.size
        rows = [(-math.inf, a, w, sg) for a, w, sg, _ in self._expanded]
        rows += self._waiting  # (crossing, a, w, sigma), in crossing order
        at, tables = [0], [(*self._coef, self._base)]
        while self._waiting and self._waiting[0][0] <= ks[-1]:
            i = int(np.searchsorted(ks, self._waiting[0][0]))
            self._advance(int(ks[i]))
            at.append(i)
            tables.append((*self._coef, self._base))
        sizes = np.diff(at + [n])
        *coef, base = (tables[0] if len(at) == 1 else
                       [np.repeat(c, sizes) for c in zip(*tables)])
        h, l = _collapsed(*coef, fk, *lk)
        rh, rl = base + np.zeros(n), np.zeros(n)
        # each factor waits on ks[:c] and is expanded on ks[c:]
        cut = np.searchsorted(ks, [r[0] for r in rows]).tolist()
        if cut[-1]:
            lg, i = _log_gamma_array(np.concatenate(
                [a + w * fk[:c] for (_, a, w, _), c in zip(rows, cut)])), 0
            for (*_, sg), c in zip(rows, cut):
                if c:
                    rh[:c], e = _two_sum(rh[:c], sg * lg[i:i + c])
                    rl[:c] += e
                    i += c
        if cut[0] < n:
            a = np.repeat([r[1] for r in rows], [n - c for c in cut])
            rest, i = _expanded_rest(a, np.concatenate(
                [w * fk[c:] for (_, _, w, _), c in zip(rows, cut)])), 0
            total = np.zeros(n)
            for (*_, sg), c in zip(rows, cut):
                total[c:] += sg * rest[i:i + n - c]
                i += n - c
            rh[cut[0]:], e = _two_sum(rh[cut[0]:], total[cut[0]:])
            rl[cut[0]:] += e
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
    if req.start > 2**53 - _MAX_TERMS:  # a double k must count every term
        raise ParameterError(f"start must be at most 2**53 - {_MAX_TERMS}, "
                             f"got {req.start}")
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
        b, _ = map(float, psi or (1.0, 0.0))
    except OverflowError:  # an int past the double range
        raise ParameterError("psi_weight must lie in the double range") from None
    if 0.0 < b and not 1.0 / b < math.inf:  # digamma(b) refuses it
        raise ParameterError(f"psi_weight's b must have a finite reciprocal, "
                             f"got {b!r}")
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


def _sum_window(req: Request, win: tuple, eps: float, log_mode: bool):
    """_sum_series of a request at z > 0 of epsilon ``eps`` over its saddle
    window (k0, k_lo, k_hi) (see ``_window``), from one read of term logs:
    every term of [start, k0) with its sign, and the terms at k_lo + j*h,
    j = 0..n, on the lattice of stride h = ``_stride`` whose last point
    k_end is the first at or past k_hi, summed as h times their sum; with
    the unit-spaced pairs (k_lo - 1, k_lo) and (k_end, k_end + 1) for the
    ratios rho = |t_{k_lo-1}/t_{k_lo}| and q = |t_{k_end+1}/t_{k_end}|.
    Its tail bound is the flank bound |t_{k_lo}| rho/(1 - rho) of [k0,
    k_lo), the tail bound |t_end| q/(1 - q) past k_end (both proved by
    ``_monotone_from``'s lemma), h (|t_{k_lo}| + |t_end|) for the lattice's
    edges and the aliasing estimate A(h) of the window's sum.  The plain
    sum from the start where the window does not hold (rho or q not below
    1 by more than -_D_STOP in its log, every term zero, or a tail bound
    above _REL_TOL of the sum), or where a term passes the double range
    outside log mode, so that it names the first such term.  Every term
    read counts against _MAX_TERMS: a window whose read would pass it is
    summed plainly too, which refuses where its stop lies past the
    budget."""
    params, z, start, psi, log_offset = req
    k0, k_lo, k_hi = win
    h = _stride(eps, k_lo, k_hi)
    k_end = k_lo + -(-(k_hi - k_lo) // h) * h
    ks = np.concatenate((np.arange(start, k0), [k_lo - 1],
                         np.arange(k_lo, k_end + 1, h), [k_end + 1]))
    if ks.size > _MAX_TERMS:
        return _sum_plain(req, log_mode)
    lh, ll, sign = _TermLogs(params, z, psi).terms(ks)
    top = int(lh.argmax())
    top_h, top_l = float(lh[top]), float(ll[top])
    if top_h == -math.inf:  # every term zero
        return _sum_plain(req, log_mode)
    p = k0 - start  # the prefix [start, k0), then the lattice from p + 1
    d_lo = (lh[p + 1] - lh[p]) + (ll[p + 1] - ll[p])  # ln(1/rho)
    d_hi = (lh[-1] - lh[-2]) + (ll[-1] - ll[-2])  # ln q
    if not (-d_lo < _D_STOP and d_hi < _D_STOP):
        return _sum_plain(req, log_mode)
    t = np.exp(lh - top_h) * (1.0 + (ll - top_l))
    x = sign * t
    lattice = math.fsum(memoryview(t[p + 1:-1]))
    total = math.fsum(memoryview(x[:p])) + h * math.fsum(memoryview(x[p + 1:-1]))
    total_abs = math.fsum(memoryview(t[:p])) + h * lattice
    t_lo, t_end = float(t[p + 1]), float(t[-2])
    bound = (_geometric_tail(t_lo, math.exp(-d_lo))
             + _geometric_tail(t_end, math.exp(d_hi)) + h * (t_lo + t_end)
             + _aliasing(h, eps, k_lo) * h * lattice)
    if (not (abs(total) > 0.0 and bound <= _REL_TOL * abs(total))
            or top_h + log_offset > _LOG_DOUBLE_MAX and not log_mode):
        return _sum_plain(req, log_mode)
    res = _finish(top_h, top_l, total, total_abs, ks.size, -math.inf, 0.0,
                  log_offset, log_mode)
    return replace(res, tail_bound=_exp_or_inf(
        top_h + log_offset + math.log(bound)) if bound > 0.0 else 0.0)


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
    return _sum_plain(req, log_mode)


def _sum_plain(req: Request, log_mode: bool) -> EvalResult:
    """_sum_series of a request from its start, one term at a time."""
    params, z, start, psi_weight, log_offset = req
    if z == 0.0:
        # only term 0 is nonzero (the same term at every z), and a tail from
        # k >= 1 sums no term
        h, l, sign = _TermLogs(params, 1.0, psi_weight).term(0)
        t = sign if h > -math.inf and start == 0 else 0.0
        return _finish(h, l, t, abs(t), int(start == 0), -math.inf, 0.0,
                       log_offset, log_mode)
    gen = _TermLogs(params, z, psi_weight)
    scale_h = -math.inf  # running log scale of the accumulators, head/tail
    scale_l = 0.0
    total = 0.0
    comp = 0.0          # the rounding errors of total, by _two_sum
    total_abs = 0.0
    comp_abs = 0.0
    prev_h = -math.inf
    prev_l = 0.0
    streak = 0

    for k in range(start, start + _MAX_TERMS):
        lh, ll, sign = gen.term(k)
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
        total_abs, e = _two_sum(total_abs, t)
        comp_abs += e

        d = (lh - prev_h) + (ll - prev_l) if lh > -math.inf else -math.inf
        prev_h, prev_l = lh, ll

        # the stop rule: three consecutive relatively small terms, and the
        # last d below _D_STOP
        partial = abs(total + comp)
        if lh == -math.inf or (k > start and t <= _REL_TOL * partial):
            streak += 1
        else:
            streak = 0
        if streak >= 3 and d < _D_STOP:
            return _finish(scale_h, scale_l, total + comp,
                           total_abs + comp_abs, k - start + 1, lh,
                           _exp_or_inf(d), log_offset, log_mode)
    raise _no_stop(req)


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
