"""The saddle window of a series at z > 0, and the lemma that bounds what
it skips.

A series at z > 0 has positive terms that rise to one peak near k_c = (z
prod A^A / prod B^B)^(1/epsilon) (Wright, J. London Math. Soc. 10, 1935)
and fall past it, and a psi weight changes their sign at most once.  Far
left of the peak they lie below double resolution: ``_window`` finds the
left edge k_lo where log t has fallen _WINDOW_DROP below the peak, and
``_monotone_from`` the index k0 from which no ratio of |t_k| increases,
so that a sum may skip [k0, k_lo) and bound it by a geometric series from
t_{k_lo}.  Both run in scalar ``math`` and in correctly rounded array
arithmetic only, so a window is the same on every CPU.
``series._sum_window`` is the one sum over it, for single calls and for
the batch's requests that have a window alike.
"""

from __future__ import annotations

import math

import numpy as np

from .gammakit import digamma

# The sum starts at k_lo, where log t has fallen _WINDOW_DROP below the
# peak, when that skips at least _WINDOW_SKIP terms; the right edge,
# _WINDOW_DROP past the peak, sizes the first read.  A peak index past
# e^_LOG_PEAK_MAX is not windowed, nor a series whose ratio bound K
# (``_monotone_from``) lies more than _MONOTONE_SPAN past its start: a
# window sums [start, k0) outside the term budget, so those terms are at
# most one budget (series._MAX_TERMS) long, and so are the bound's arrays.
_WINDOW_DROP = 45.0
_WINDOW_SKIP = 64
_LOG_PEAK_MAX = 34.0
_MONOTONE_SPAN = 10000

_PSI_POSITIVE = 1.4617  # just above 1.4616321449..., psi's zero on (0, inf)


def _factors(params) -> tuple[list, list]:
    # the (value, weight) pairs of weight > 0, upper and lower, with 1/k!
    # as the lower pair (1, 1); a zero weight adds nothing to any ratio
    return ([(a, w) for a, w in params.upper if w > 0.0],
            [(b, w) for b, w in params.lower if w > 0.0] + [(1.0, 1.0)])


def _window(req, eps: float):
    """The saddle window (k0, k_lo, k_hi) of the series request ``req`` (a
    series.Request at z > 0 whose params have epsilon ``eps``), or None
    where it does not pay: the sum takes the terms of [start, k0) one by
    one, skips [k0, k_lo), and runs its block phase from k_lo, its first
    read sized to k_hi.  With a psi weight k0 is k0_psi (``_monotone_from``),
    and the edges are the unweighted series': ln psi moves them little.

    The peak k^ is where g(k) = d/dk ln t_k = ln z + sum A psi(a + kA) -
    sum B psi(b + kB) vanishes: Newton steps in ln k from k_c, where g's
    slope is about -epsilon.  With c = sum (a - 1/2) - sum (b - 1/2) (1/k!
    included), g(s) = eps ln(k^/s) + c (1/s - 1/k^) to O(1/s^2), so log t
    lies D(x) = eps k^ (1 - x + x ln x) + c (x - 1 - ln x) below the peak at
    s = x k^; k_lo and k_hi solve D = _WINDOW_DROP by Newton steps from
    the Gaussian reach either side.  The edges need not be exact:
    ``series._sum_window`` bounds the skipped flank from the term logs it
    computes, and drops the window where that bound is not negligible.
    """
    params, z, start, psi = req[:4]
    lz = lk = math.log(z)
    for _, w in params.upper:
        if w > 0.0:
            lk += w * math.log(w)
    for _, w in params.lower:
        if w > 0.0:
            lk -= w * math.log(w)
    lk /= eps
    if not (max(math.log(start + _WINDOW_SKIP),
                math.log(2.0 * _WINDOW_DROP / eps)) <= lk <= _LOG_PEAK_MAX):
        return None
    up, low = _factors(params)
    k = math.exp(lk)
    for _ in range(8):
        g = (lz + math.fsum([w * digamma(a + k * w) for a, w in up])
             - math.fsum([w * digamma(b + k * w) for b, w in low]))
        step = max(-1.0, min(1.0, g / eps))
        k *= math.exp(step)
        if abs(step) * k < 0.1:
            break
    c = math.fsum([a - 0.5 for a, _ in up] + [0.5 - b for b, _ in low])
    reach = math.sqrt(2.0 * _WINDOW_DROP / (eps * k))
    if not reach < 0.9:
        return None
    edges = []
    for x in (1.0 - reach, 1.0 + reach):
        for _ in range(8):
            lx = math.log(x)
            slope = eps * k * lx + c * (1.0 - 1.0 / x)
            if not (x - 1.0) * slope > 0.0:  # the model does not fall away
                return None
            step = (eps * k * (1.0 - x + x * lx) + c * (x - 1.0 - lx)
                    - _WINDOW_DROP) / slope
            x = max(0.5 * x, x - step)
            if not math.isfinite(x):
                return None
            if abs(step) * k < 0.5:
                break
        edges.append(x * k)
    k_lo, k_hi = math.floor(edges[0]), math.ceil(edges[1])
    if k_lo - start < _WINDOW_SKIP:
        return None
    k0 = _monotone_from(params, start, eps)
    if k0 is not None and psi is not None and psi[1] != 0.0:
        # the corollary's k0_psi, with k_psi = ceil(shift); no window for
        # B < 0, nor where k_psi lies more than _MONOTONE_SPAN past start
        shift = (_PSI_POSITIVE - psi[0]) / psi[1]
        k0 = (max(k0, math.ceil(shift) + 1)
              if psi[1] > 0.0 and shift < start + _MONOTONE_SPAN else None)
    if k0 is None or k_lo - k0 < _WINDOW_SKIP:
        return None
    return k0, k_lo, k_hi


def _monotone_from(params, start: int, eps: float) -> int | None:
    """The first k0 >= start from which the term ratios of an unsigned
    series of epsilon ``eps`` do not increase: t_{k+1}/t_k <= t_k/t_{k-1}
    for all k > k0.

    Lemma.  Let r(k) = ln t_{k+1} - ln t_k.  Then r(k+1) - r(k) =
    sum_l D(a_l + k A_l, A_l) - sum_j D(b_j + k B_j, B_j), 1/k! counted as
    the lower pair (1, 1), with D(x, w) = lnGamma(x + 2w) - 2 lnGamma(x + w)
    + lnGamma(x) = int_0^w int_0^w psi'(x + u + v) du dv.  For t > 0,
    1/t + 1/(2t^2) < psi'(t) < 1/t + 1/t^2 (psi'(t) = sum_n 1/(t + n)^2,
    against its integral and its trapezoid sum), and both bounds are
    convex in t, so the chord over u + v in [0, 2w] and Jensen at u + v = w
    give
        D(x, w) < rise(x, w) = (w^2/2) (1/x + 1/x^2 + 1/x2 + 1/x2^2),
        D(y, w) > fall(y, w) = w^2 (1/(y + w) + 1/(2 (y + w)^2)),
    with x2 = x + 2w.  So r(m+1) <= r(m) wherever sum_l rise <= sum_j fall.
    For m >= 1, rise < A/m + 1/m^2 (as x > mA) and fall > B/m - (b + B)/m^2,
    so r(m+1) - r(m) < (C - eps m)/m^2 with C = p + sum_j (b_j + B_j), p the
    number of upper pairs: no ratio increases past K = C/eps.  Below K the
    bounds are evaluated at every m >= start, in +, -, * and / only
    (correctly rounded on every CPU), with a 2^-40 relative margin, and k0
    is one past the last m at which they do not show a fall.  Where K lies
    more than _MONOTONE_SPAN past start the bounds are not evaluated, and
    the result is None.

    Corollary (the flank bound).  If k0 < k_lo and rho = t_{k_lo-1}/t_{k_lo}
    < 1, then t_k <= t_{k_lo} rho^(k_lo - k) for k0 <= k < k_lo, so the
    terms of [k0, k_lo) sum to less than t_{k_lo} rho/(1 - rho); and past
    a stop at k > k0 with t_k/t_{k-1} = q < 1 the rest of the series sums
    to less than t_k q/(1 - q).

    Corollary (psi weights).  Weight term k by -psi(b + kB), B > 0.  As
    psi'' < 0, psi is concave, and so is ln psi where psi > 0, past its zero
    x0 = 1.46163: from k_psi, the first k with b + kB >= _PSI_POSITIVE
    (found in +, -, * and / only), every weighted term is negative, and
    adding ln psi(b + kB) to r keeps r(m+1) <= r(m) for m >= k0_psi =
    max(k0, k_psi + 1), so the flank bound holds for the weighted terms.
    A weight of B = 0 moves no ratio: k0_psi = k0.
    """
    up, low = _factors(params)
    top = math.ceil(math.fsum([len(up)] + [b + w for b, w in low])
                    / eps)
    if top <= start:
        return start
    if top - start > _MONOTONE_SPAN:
        return None
    # rise and fall as sums of pieces c (1/s + e/s^2), s = a + m w: two
    # pieces per upper pair (s = x, x2) and one per lower pair (s = y + w),
    # one row each, summed over the rows in order
    a, w, c, e = np.array([(a, w, 0.5 * w * w, 1.0) for a, w in up]
                          + [(a + 2.0 * w, w, 0.5 * w * w, 1.0) for a, w in up]
                          + [(b + w, w, w * w, 0.5) for b, w in low]).T[:, :, None]
    inv = 1.0 / (a + np.arange(start, top, dtype=float) * w)
    piece = c * (inv + e * (inv * inv))
    rise, fall = sum(piece[:2 * len(up)], 0.0), sum(piece[2 * len(up):])
    rising = np.flatnonzero(rise >= fall * (1.0 - 2.0 ** -40))
    return start + int(rising[-1]) + 1 if rising.size else start
