"""The tile engine and the pFq rows of ``series.evaluate_batch``.

Series requests at z > 0 with no psi weight and no saddle window
(``window._window``) are summed as the rows of (series x k) tiles by
``_sum_tile``, so every term is positive; a request with a window,
psi-weighted or not, goes to the single call's ``_sum_window``, and the
others to ``_sum_plain``, which owns signed terms and cancellation and
sums one term at a time.  Each block of a tile ends its rows by
``_stops``, the stop rule of ``_sum_plain`` over arrays.  pFq requests run
their recurrence element-wise across rows, each checked by
``functions._require_convergent_pfq`` and bit for bit its single call,
``functions._pfq_sum``.  The ``series`` module docstring says more, and
names the array kernels the tiles use.
``series.evaluate_batch`` imports this module on its first call, so
importing the package for single calls does not load it.
"""

from __future__ import annotations

import math

import numpy as np

from . import series
from .ddmath import _dd_add, _dd_log_array, _log_ints_dd, _two_sum
from .errors import (
    DivergentSeriesError,
    DomainError,
    NoConvergenceError,
    ParameterError,
)
from .functions import (
    _pfq_no_stop,
    _pfq_overflow,
    _pfq_result,
    _require_convergent_pfq,
)
from .gammakit import _log_gamma_array
from .series import (
    _D_STOP,
    _EXPAND_MIN,
    _LN_K,
    _REL_TOL,
    PfqRequest,
    Request,
    _collapsed,
    _expanded_rest,
    _finish,
    _fold,
    _no_stop,
    _require_summable,
    _sum_plain,
    _sum_window,
)
from .window import _window


class _TermTable:
    """_TermLogs for the rows of a tile.

    Factor f of a row (its upper pairs, its lower pairs, then 1/k! as a
    lower pair (1, 1)) is expanded from k = cross[f] on.  Ordered by that
    index, every prefix of a row's factors is one stage of _TermLogs'
    coefficient table; ``stages`` holds the table of every stage, as the
    head/tail pairs (c, s, m) and the k-independent constant, built with
    the ``_fold`` that _TermLogs._advance calls.  ``logs`` picks each
    element's stage by counting the factors it has crossed.  Rows of fewer
    pairs are padded with (1, 0) pairs up to the widest shape: a zero-weight
    factor is a constant, lnGamma(1) = 0, so it adds exact zeros and never
    crosses, and a padded row keeps every bit.
    """

    def __init__(self, reqs: list[Request]) -> None:
        n_up = max(len(r.params.upper) for r in reqs)
        n_low = max(len(r.params.lower) for r in reqs)
        pad = (1.0, 0.0)
        pairs = np.array([
            r.params.upper + (pad,) * (n_up - len(r.params.upper))
            + r.params.lower + (pad,) * (n_low - len(r.params.lower))
            + ((1.0, 1.0),) for r in reqs], dtype=float)
        self.a, self.w = pairs[:, :, 0], pairs[:, :, 1]
        rows, nf = self.a.shape
        self.sg = np.array([1.0] * n_up + [-1.0] * (nf - n_up))
        live = self.w > 0.0
        c = (_EXPAND_MIN - self.a) / np.where(live, self.w, 1.0)
        self.cross = np.where(live & (c < 1e9), np.maximum(1.0, np.ceil(c)),
                              np.inf)
        self.live = live

        # the logs of |z| and of every weight, each distinct value once
        z = np.array([abs(r.z) for r in reqs])
        x, inv = np.unique(np.concatenate(
            [z, np.where(live, self.w, 1.0).ravel()]), return_inverse=True)
        lh, ll = (v[inv] for v in _dd_log_array(x))
        lwh, lwl = lh[rows:].reshape(rows, nf), ll[rows:].reshape(rows, nf)

        # stage 0: the zero-weight factors are constants
        bh = bl = np.zeros(rows)
        if not live.all():
            lg0 = np.zeros_like(self.a)
            lg0[~live] = _log_gamma_array(self.a[~live])
            for f in range(nf):
                bh, e = _two_sum(bh, self.sg[f] * lg0[:, f])
                bl = bl + e
        coef = (lh[:rows], ll[:rows], *np.zeros((4, rows)))
        stages = [(*coef, bh, bl)]
        order = np.argsort(self.cross, axis=1, kind="stable")
        at = np.arange(rows)
        for i in range(nf):
            f = order[:, i]
            coef, pieces = _fold(coef, self.a[at, f], self.w[at, f],
                                 self.sg[f], lwh[at, f], lwl[at, f])
            for v in pieces:
                bh, e = _two_sum(bh, v)
                bl = bl + e
            stages.append((*coef, bh, bl))
        # per coefficient, a (row, stage) array
        self.stages = [np.stack(col, axis=1) for col in zip(*stages)]
        # a factor of zero weight in every row (a constant, or padding)
        # adds only zeros term by term: leave it out of the (row, k, factor)
        # arrays; the 1/k! factor always stays
        used = live.any(axis=0)
        self.a, self.w, self.cross, self.live, self.sg = (
            self.a[:, used], self.w[:, used], self.cross[:, used],
            live[:, used], self.sg[used])

    def logs(self, ix: np.ndarray, fk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log|term k| as head/tail arrays for rows ix at the k of fk."""
        cross = self.cross[ix, None, :]
        expanded = fk[:, :, None] >= cross  # (row, k, factor)
        at = ix[:, None] * self.stages[0].shape[1] + expanded.sum(axis=2)
        ch, cl, sh, sl, mh, ml, rh, rl = (col.take(at) for col in self.stages)
        lk = (_LN_K.take(fk.astype(np.intp), axis=1) if fk.max() < _LN_K.shape[1]
              else _log_ints_dd(np.maximum(fk, 1.0)))
        h, l = _collapsed(ch, cl, sh, sl, mh, ml, fk, *lk)
        # what each factor adds besides the collapsed coefficients: its
        # lnGamma below the threshold, the Stirling rest above it
        a = np.broadcast_to(self.a[ix, None, :], expanded.shape)
        wk = self.w[ix, None, :] * fk[:, :, None]
        direct = self.live[ix, None, :] & ~expanded
        v = np.zeros(expanded.shape)
        if direct.any():
            v[direct] = _log_gamma_array((a + wk)[direct])
        if expanded.any():
            v[expanded] = _expanded_rest(a[expanded], wk[expanded])
        v *= self.sg
        for f in range(v.shape[2]):
            rh, e = _two_sum(rh, v[:, :, f])
            rl = rl + e
        return _dd_add(h, l, rh, rl)


# Tile sizing of the batch path: the first block of every row covers 16
# terms (most checker series stop within 10-30), blocks then double up to
# _BLOCK_MAX, and a block of width n over rows of f factors runs at most
# _TILE_CAP // (n * f) rows at a time, which bounds every (row, k, factor)
# temporary at _TILE_CAP elements (128 KiB).
_BATCH_FIRST = 16
_BLOCK_MAX = 512
_TILE_CAP = 16384


def _stops(lh, ll, prev_h, prev_l, small, streak):
    """The stop rule of ``series._sum_plain`` over the (row, k) arrays of a
    tile block: a row stops at its first term that ends three small terms
    in a row (the ``streak`` carried in counts) and whose d = (lh - prev_h)
    + (ll - prev_l) is below _D_STOP, as a zero term's -inf is.  Returns
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


def _sum_tile(reqs: list[Request]) -> list:
    """The results of the rows of a tile, each unweighted at z > 0 with no
    saddle window: its terms are all positive, so it is summed from its
    start and its sum of t_k is its sum of |t_k|.  The summation state of
    every row is an array indexed by row; each block sums the next n terms
    of up to a _TILE_CAP share of the running rows."""
    rows = len(reqs)
    table = _TermTable(reqs)
    start = np.array([r.start for r in reqs], dtype=float)
    end = start + series._MAX_TERMS
    k0 = start.copy()
    scale_h = np.full(rows, -math.inf)
    prev_h = np.full(rows, -math.inf)
    scale_l, total, comp, prev_l = np.zeros((4, rows))
    streak = np.zeros(rows, dtype=int)
    terms = np.zeros(rows, dtype=int)
    out: list = [None] * rows
    live, n = np.arange(rows), _BATCH_FIRST
    while live.size:
        step = max(1, _TILE_CAP // (n * table.a.shape[1]))
        going = []
        for ix in (live[i:i + step] for i in range(0, live.size, step)):
            fk = k0[ix, None] + np.arange(n)
            valid = fk < end[ix, None]
            lh, ll = table.logs(ix, fk)
            lh = np.where(valid, lh, -math.inf)
            ll = np.where(valid, ll, 0.0)

            # rescale to the block's largest term
            at = np.arange(len(ix))
            top = np.argmax(lh, axis=1)
            top_h, top_l = lh[at, top], ll[at, top]
            sh, sl = scale_h[ix], scale_l[ix]
            up = top_h > sh
            f = np.where(up & (sh > -math.inf),
                         np.exp(sh - top_h) * (1.0 + (sl - top_l)), 1.0)
            tot, cmp = total[ix] * f, comp[ix] * f
            sh, sl = np.where(up, top_h, sh), np.where(up, top_l, sl)
            t = np.exp(lh - sh[:, None]) * (1.0 + (ll - sl[:, None]))

            # _stops on cumsum partials; as in _sum_plain, a start term is
            # never small
            partial = (tot + cmp)[:, None] + np.cumsum(t, axis=1)
            small = valid & (fk > start[ix, None]) & (t <= _REL_TOL * partial)
            used, hit, d, streak[ix] = _stops(
                lh, ll, prev_h[ix], prev_l[ix], small, streak[ix])
            keep = np.arange(n) < used[:, None]

            tot, e = _two_sum(tot, np.where(keep, t, 0.0).sum(axis=1))
            cmp = cmp + e
            scale_h[ix], scale_l[ix] = sh, sl
            total[ix], comp[ix] = tot, cmp
            terms[ix] += used
            prev_h[ix], prev_l[ix] = lh[at, used - 1], ll[at, used - 1]
            k0[ix] += n

            # a stopped row's result in log mode, from the stop's ratio
            ratio = np.exp(d)
            for r in np.flatnonzero(hit).tolist():
                i, s = ix[r], float(tot[r] + cmp[r])
                out[i] = _finish(float(sh[r]), float(sl[r]), s, s,
                                 int(terms[i]), float(prev_h[i]),
                                 float(ratio[r]), reqs[i].log_offset, True)
            for r in np.flatnonzero(~hit & ~valid[:, -1]).tolist():
                out[ix[r]] = _no_stop(reqs[ix[r]])
            going.append(ix[~hit & valid[:, -1]])
        live = np.concatenate(going)
        n = min(2 * n, _BLOCK_MAX)
    return out


def _pfq_rows(reqs: list[PfqRequest]) -> list:
    """pFq sums by the Pochhammer recurrence, element-wise across checked
    rows of one (p, q) shape; each row runs the operations of its single
    call, ``functions._pfq_sum``, in the same order, so its result or error
    does not depend on the other rows."""
    p, q = len(reqs[0].upper), len(reqs[0].lower)
    out: list = [None] * len(reqs)
    up = np.array([r.upper for r in reqs], dtype=float).reshape(len(reqs), p)
    low = np.array([r.lower for r in reqs], dtype=float).reshape(len(reqs), q)
    z = np.array([r.z for r in reqs], dtype=float)
    idx = np.arange(len(reqs))
    live = np.ones(len(reqs), dtype=bool)
    term = np.ones(len(reqs))
    total, comp, total_abs, comp_abs = np.zeros((4, len(reqs)))
    streak = np.zeros(len(reqs), dtype=int)
    for k in range(series._MAX_TERMS):
        x = term
        total, e = _two_sum(total, x)
        comp = comp + e
        total_abs, e = _two_sum(total_abs, np.abs(x))
        comp_abs = comp_abs + e

        # each product starts from its first factor: 1.0 * v is v
        num = up[:, 0] + k if p else np.ones(idx.size)
        for i in range(1, p):
            num = num * (up[:, i] + k)
        den = np.full(idx.size, float(k + 1))
        for j in range(q):
            den = den * (low[:, j] + k)
        nxt = term * (num / den) * z
        bad = live & ~(np.isfinite(total_abs) & np.isfinite(nxt))
        ratio = np.abs(nxt / np.where(term != 0.0, term, 1.0))
        ratio = np.where(term != 0.0, ratio, 0.0)
        term = nxt

        partial = np.abs(total + comp)
        small = (k > 0) & (np.abs(term) <= _REL_TOL * partial)
        streak = np.where(small, streak + 1, 0)
        done = live & ~bad & (streak >= 3) & (ratio < 1.0)
        for r in np.flatnonzero(bad).tolist():
            out[idx[r]] = _pfq_overflow(k, float(total[r]),
                                        float(total_abs[r]), reqs[idx[r]].z)
        for r in np.flatnonzero(done).tolist():
            out[idx[r]] = _pfq_result(
                float(total[r] + comp[r]), float(total_abs[r] + comp_abs[r]),
                float(x[r]), float(ratio[r]), float(z[r]), k + 1,
                p == q + 1)
        live &= ~(bad | done)
        # ended rows run on, masked, until they are a quarter of the rows
        if 4 * (live.size - np.count_nonzero(live)) >= live.size:
            (idx, term, total, comp, total_abs, comp_abs, streak, up, low, z,
             live) = (v[live] for v in (idx, term, total, comp, total_abs,
                                        comp_abs, streak, up, low, z, live))
            if not idx.size:
                break
    for i in idx[live].tolist():
        out[i] = _pfq_no_stop(reqs[i].z)
    return out


# what one request may raise; evaluate_batch returns it in that request's place
_REQUEST_ERRORS = (DomainError, ParameterError, DivergentSeriesError,
                   NoConvergenceError)


def evaluate(requests: list) -> list:
    """series.evaluate_batch: every series request in log mode."""
    out: list = [None] * len(requests)
    tiled: list[int] = []
    pfq: dict = {}
    for i, req in enumerate(requests):
        try:
            if isinstance(req, PfqRequest):
                _require_convergent_pfq(*req)
                pfq.setdefault((len(req.upper), len(req.lower)), []).append(i)
                continue
            # _sum_series' route, and a tile row for a series of positive terms
            eps = _require_summable(req)
            win = _window(req, eps) if req.z > 0.0 else None
            if win is not None:
                out[i] = _sum_window(req, win, eps, True)
            elif req.z > 0.0 and req.psi_weight is None:
                tiled.append(i)
            else:
                out[i] = _sum_plain(req, True)
        except _REQUEST_ERRORS as exc:
            out[i] = exc
    with np.errstate(all="ignore"):
        for at in pfq.values():
            for i, res in zip(at, _pfq_rows([requests[i] for i in at])):
                out[i] = res
        if tiled:
            rows = [requests[i] for i in tiled]
            for i, res in zip(tiled, _sum_tile(rows)):
                out[i] = res
    return out
