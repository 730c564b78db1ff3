"""Sampled verification suites over parameter grids.

Each suite owns a deterministic sampler: a GridSpec (ranges, sample count,
seed, point-set mode) is expanded into unit-cube rows, every row is mapped
onto one admissible parameter instance, and the matching checker from
inequalities.py produces the report rows.  Samplers keep instances inside
the region where double precision can actually resolve the margins: the
convergence index eps is drawn directly and the last lower weight solved
from it, the argument is capped where the series magnitude would pass
exp(v_target), and the powered inequalities additionally cap their
exponents.  hp_margin() recomputes any report's margin with the mpmath
oracle for spot checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import mpmath as mp
import numpy as np

from .errors import GridError, NoConvergenceError, ParameterError
from .gammakit import _SHIFT_THRESHOLD, gamma_ratio, log_gamma
from .inequalities import (
    _chi,
    _corollary3_2f2,
    _kn_value_and_bound,
    _kn_values,
    _lazarevic,
    _logconcavity,
    _ratio_monotonicity,
    _run_rounds,
    _tail_turan,
    _turan_alpha,
    _turan_beta,
    _wilker,
    _xi_prime,
)
from .oracle import _GUARD, _check_digits, _hp_pfq_mpf, _hp_sums
from .report import GridSpec, InequalityReport, STATUS_NUMERICAL_FAILURE
from .series import FoxWrightParams

__all__ = [
    "SuiteDef",
    "SUITES",
    "EXPLORERS",
    "run_suite",
    "run_explore",
    "hp_margin",
    "suite_ids",
    "explorer_ids",
]

_EPS_MIN = 0.05
_V_TARGET = 400.0
_V_MIN = 5.0
_GRID_POINTS = 20
_PQ_CYCLE = ((1, 1), (1, 2), (2, 2))
_TAIL_SHAPES = ((0, 1), (1, 1), (0, 2), (1, 2))


# ---------------------------------------------------------------------------
# Unit-cube point sets and range plumbing


def _unit_matrix(spec: GridSpec, dims: int, n: int) -> np.ndarray:
    if spec.mode == "random":
        return np.random.default_rng(spec.seed).random((n, dims))
    # Rank-1 lattice along the generalized golden-ratio direction, with a
    # seed-dependent rotation so different seeds give distinct point sets.
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = np.array([phi ** -(d + 1) for d in range(dims)])
    rot = np.mod((spec.seed + 1) * 9973 * alpha, 1.0)
    idx = np.arange(1, n + 1, dtype=float).reshape(-1, 1)
    return np.mod(rot + idx * alpha, 1.0)


def _hi_open(u: float, rng: tuple[float, float]) -> float:
    """Map u in [0,1) onto (lo, hi], keeping clear of the low endpoint."""
    lo, hi = rng
    return hi - u * (hi - lo)


def _lo_closed(u: float, rng: tuple[float, float]) -> float:
    """Map u in [0,1) onto [lo, hi)."""
    lo, hi = rng
    return lo + u * (hi - lo)


def _resolve_ranges(sd: "SuiteDef", spec: GridSpec) -> dict:
    ranges = dict(sd.defaults)
    for name, pair in spec.param_ranges.items():
        if name not in sd.defaults:
            raise GridError(
                f"suite {sd.suite_id!r} has no range named {name!r}; "
                f"known: {sorted(sd.defaults)}")
        ranges[name] = (float(pair[0]), float(pair[1]))
    return ranges


# ---------------------------------------------------------------------------
# Admissible-instance draws


def _solve_weights(c: Iterator[float], p: int, q: int,
                   wrange: tuple[float, float]) -> tuple[list, list, float]:
    """Weights for p upper and q lower pairs with eps kept >= 0.05.

    eps = 1 + sum(B) - sum(A) is drawn directly and the last lower weight
    solved from it; when even the largest admissible value cannot reach
    eps = 0.05 the upper weights are scaled down first.
    """
    wlo, whi = wrange
    aw = [_lo_closed(next(c), wrange) for _ in range(p)]
    bw = [_lo_closed(next(c), wrange) for _ in range(q - 1)]
    u_eps = next(c)
    sum_a, sum_b = math.fsum(aw), math.fsum(bw)
    hi_eps = 1.0 + sum_b + whi - sum_a
    if hi_eps < _EPS_MIN:
        scale = (1.0 + sum_b + whi - _EPS_MIN) / sum_a
        aw = [a * scale for a in aw]
        sum_a = math.fsum(aw)
        hi_eps = _EPS_MIN
    lo_eps = max(_EPS_MIN, 1.0 + sum_b + wlo - sum_a)
    eps = lo_eps + u_eps * max(hi_eps - lo_eps, 0.0)
    bw.append(max(eps - 1.0 + sum_a - sum_b, 0.0))
    return aw, bw, 1.0 + math.fsum(bw) - sum_a


def _z_cap(params: FoxWrightParams, eps: float, v_target: float) -> float:
    """Argument at which the series magnitude reaches about exp(v_target).

    Saddle-point estimate: log of the series grows like eps * k(z) with
    peak index k(z) = (z prod A^A / prod B^B)^(1/eps).
    """
    s = eps * math.log(v_target / eps)
    for _, w in params.lower:
        if w > 0.0:
            s += w * math.log(w)
    for _, w in params.upper:
        if w > 0.0:
            s -= w * math.log(w)
    return math.exp(min(s, 700.0))


def _z_top(zrange: tuple[float, float], params: FoxWrightParams, eps: float,
           v_target: float = _V_TARGET) -> float:
    """Upper end of the drawn z range: hi capped by _z_cap, unless the cap
    falls at or below lo."""
    lo, hi = zrange
    eff = min(hi, _z_cap(params, eps, v_target))
    return hi if eff <= lo else eff


def _draw_z(u: float, zrange: tuple[float, float], params: FoxWrightParams,
            eps: float, v_target: float = _V_TARGET) -> float:
    return _hi_open(u, (zrange[0], _z_top(zrange, params, eps, v_target)))


def _draw_n(u: float, nrange: tuple[float, float]) -> int:
    """Map u in [0,1) onto the integers of [lo, hi], each equally likely."""
    lo, hi = math.ceil(nrange[0]), math.floor(nrange[1])
    return min(int(lo + u * (hi - lo + 1.0)), hi)


def _sample_series(c: Iterator[float], shape: tuple[int, int], ranges: dict
                   ) -> tuple[FoxWrightParams, float]:
    """General instance with p upper and q lower pairs, shape = (p, q)."""
    p, q = shape
    avals = [_hi_open(next(c), ranges["alpha"]) for _ in range(p)]
    bvals = [_hi_open(next(c), ranges["beta"]) for _ in range(q)]
    aw, bw, eps = _solve_weights(c, p, q, ranges["weight"])
    params = FoxWrightParams(tuple(zip(avals, aw)), tuple(zip(bvals, bw)))
    return params, _draw_z(next(c), ranges["z"], params, eps)


def _sample_tail_series(c: Iterator[float], i: int, ranges: dict
                        ) -> tuple[FoxWrightParams, int, float]:
    """Instance with all upper weights 0, plus a tail index n."""
    p, q = _TAIL_SHAPES[i % 4]
    ups = tuple((_hi_open(next(c), ranges["alpha"]), 0.0) for _ in range(p))
    lows = []
    for _ in range(q):
        b = _hi_open(next(c), ranges["beta"])
        lows.append((b, _lo_closed(next(c), ranges["weight"])))
    params = FoxWrightParams(ups, tuple(lows))
    n = _draw_n(next(c), ranges["n"])
    z = _draw_z(next(c), ranges["z"], params, params.epsilon())
    return params, n, z


def _ordered_pair(c: Iterator[float], arange: tuple[float, float],
                  brange: tuple[float, float]) -> tuple[float, float]:
    """Draw a from arange and b from brange with a >= b."""
    ua, ub = next(c), next(c)
    blo, bhi = brange
    a = _hi_open(ua, arange)
    if a < blo:
        a = _hi_open(ua, (blo, arange[1]))
    return a, _hi_open(ub, (blo, min(bhi, a)))


def _sub_grid(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * (j + 1) / _GRID_POINTS
            for j in range(_GRID_POINTS)]


# ---------------------------------------------------------------------------
# Per-suite builders: each draws one instance, taking its unit draws in
# order with next(c), and returns the generator of its checker (see
# inequalities._run_rounds); the probes are generators themselves


def _build_turan(check, c, i, ranges):
    params, z = _sample_series(c, _PQ_CYCLE[i % 3], ranges)
    return check(params, z)


def _build_corollary3(c, i, ranges):
    b1 = _hi_open(next(c), ranges["beta1"])
    b2 = _hi_open(next(c), ranges["beta2"])
    ug, uz = next(c), next(c)
    # two admissible families: a1 above both b2 and b1+1, or below both
    # b2 and b1-1 (keeping a1 > 0); fall back to the first when the
    # second has no room
    top = min(b2, b1 - 1.0)
    if i % 2 == 1 and top > 0.2:
        a1 = 0.05 + ug * (top - 0.15)
    else:
        a1 = max(b2, b1 + 1.0) + 0.05 + ug * 3.0
    z = _lo_closed(uz, ranges["z"])
    return _corollary3_2f2(a1, b1, b2, z)


def _build_ratio(c, i, ranges):
    params, zmax = _sample_series(c, _PQ_CYCLE[i % 3], ranges)
    slot = "beta" if i % 2 == 0 else "alpha"
    v1 = params.lower[0][0] if slot == "beta" else params.upper[0][0]
    v2 = v1 + 0.1 + 2.0 * next(c)
    grid = _sub_grid(ranges["z"][0], zmax)
    return _ratio_monotonicity(params, slot, v1, v2, grid)


def _build_tail_turan(c, i, ranges):
    params, n, z = _sample_tail_series(c, i, ranges)
    return _tail_turan(params, n, z)


def _build_kn(c, i, ranges):
    params, n, z = _sample_tail_series(c, i, ranges)
    if i % 5 == 0:
        grid = _sub_grid(ranges["z"][0], z)
        return _kn_value_and_bound(params, n, z_grid=grid)
    return _kn_value_and_bound(params, n, z=z)


def _build_chi(c, i, ranges):
    a1, b2 = _ordered_pair(c, ranges["alpha1"], ranges["beta2"])
    B1 = _lo_closed(next(c), ranges["B1"])
    g1 = _hi_open(next(c), ranges["beta1"])
    g2 = _hi_open(next(c), ranges["beta1"])
    lo_b, hi_b = min(g1, g2), max(g1, g2)
    if hi_b - lo_b < 0.1:
        hi_b = lo_b + 0.1
    grid = [lo_b + (hi_b - lo_b) * j / (_GRID_POINTS - 1.0)
            for j in range(_GRID_POINTS)]
    params = FoxWrightParams(((a1, 1.0),), ((lo_b, B1), (b2, 1.0)))
    z = _draw_z(next(c), ranges["z"], params, 1.0 + B1)
    return _chi(a1, b2, B1, grid, z)


def _powered_b1_cap(beta1: float, off: float, whi: float) -> float:
    """Largest B1 <= whi keeping the Lazarevic exponents within budget."""
    # gamma_ratio(beta1, b) with lnGamma(beta1) taken once: below the
    # Stirling threshold it is exp(lnGamma(beta1 + b) - lnGamma(beta1)),
    # and exp(0) = 1 is its value at b = 0
    lg = log_gamma(beta1) if 0.0 < beta1 < _SHIFT_THRESHOLD else None

    def load(b: float) -> float:
        e1 = (gamma_ratio(beta1, b) if lg is None
              else math.exp(log_gamma(beta1 + b) - lg))
        e2 = e1 * (beta1 + b) / beta1
        return max(e1, e2, 1.0) * ((1.0 + b / beta1) * off + _V_MIN)

    if load(whi) <= 600.0:
        return whi
    lo, hi = 0.0, whi
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if load(mid) <= 600.0:
            lo = mid
        else:
            hi = mid
    return lo


def _build_lazarevic(c, i, ranges):
    a1, b2 = _ordered_pair(c, ranges["alpha1"], ranges["beta2"])
    b1 = _hi_open(next(c), ranges["beta1"])
    off = abs(log_gamma(a1) - log_gamma(b2))
    wlo, whi = ranges["B1"]
    cap_b = _powered_b1_cap(b1, off, whi)
    B1 = _lo_closed(next(c), (min(wlo, cap_b), cap_b))
    e1 = gamma_ratio(b1, B1)
    e2 = e1 * (b1 + B1) / b1
    v_t = 600.0 / max(e1, e2, 1.0) - (1.0 + B1 / b1) * off
    v_t = max(min(_V_TARGET, v_t), _V_MIN)
    params = FoxWrightParams(((a1, 1.0),), ((b1, B1), (b2, 1.0)))
    z = _draw_z(next(c), ranges["z"], params, 1.0 + B1, v_t)
    return _lazarevic(a1, b1, b2, B1, z)


def _build_wilker(c, i, ranges):
    a1, b2 = _ordered_pair(c, ranges["alpha1"], ranges["beta2"])
    b1 = _hi_open(next(c), ranges["beta1"])
    wlo, whi = ranges["B1"]
    cap_b = min(whi, b1 * 600.0 / (_V_MIN + 20.0))
    B1 = _lo_closed(next(c), (min(wlo, cap_b), cap_b))
    v_t = max(_V_MIN, min(_V_TARGET, 600.0 / max(B1 / b1, 1.0) - 20.0))
    params = FoxWrightParams(((a1, 1.0),), ((b1, B1), (b2, 1.0)))
    z = _draw_z(next(c), ranges["z"], params, 1.0 + B1, v_t)
    return _wilker(a1, b1, b2, B1, z)


def _build_logconcave(c, i, ranges):
    variant = i % 4
    p = 2 if variant == 2 else 1
    b1 = _hi_open(next(c), ranges["beta"])
    B1 = 1.0 if variant == 1 else _lo_closed(next(c), ranges["B1"])
    ups, lows = [], [(b1, B1)]
    for _ in range(p):
        if variant == 3 and ranges["beta"][0] < 1.0:
            b = _hi_open(next(c), (ranges["beta"][0],
                                    min(ranges["beta"][1], 1.0)))
            a = 1.0
        else:
            b = _hi_open(next(c), ranges["beta"])
            a = b + _lo_closed(next(c), ranges["gap"])
        ups.append((a, 1.0))
        lows.append((b, 1.0))
    params = FoxWrightParams(tuple(ups), tuple(lows))
    lo = ranges["z"][0]
    eff = _z_top(ranges["z"], params, 1.0 + B1)
    za = _lo_closed(next(c), (lo, eff))
    zb = _lo_closed(next(c), (lo, eff))
    z1, z2 = min(za, zb), max(za, zb)
    if z2 - z1 < 1e-3:
        z2 = z1 + max(1e-3 * (eff - lo), 1e-6)
    return _logconcavity(params, z1, z2)


# ---------------------------------------------------------------------------
# Exploratory probes for the two open questions


def _direction(values: Sequence[float]) -> tuple[str, float]:
    """Direction of a sequence under a relative step tolerance."""
    ups = downs = 0
    for a, b in zip(values, values[1:]):
        tol = 1e-9 * max(abs(a), abs(b), 1.0)
        if b - a > tol:
            ups += 1
        elif a - b > tol:
            downs += 1
    if ups and downs:
        direction = "mixed"
    elif ups:
        direction = "nondecreasing"
    elif downs:
        direction = "nonincreasing"
    else:
        direction = "constant"
    return direction, min(b - a for a, b in zip(values, values[1:]))


def _build_explore_kn(c, i, ranges):
    if i % 2 == 0:
        params, n, z = _sample_tail_series(c, i // 2, ranges)
    else:
        params, z = _sample_series(c, _PQ_CYCLE[i % 3], ranges)
        n = _draw_n(next(c), ranges["n"])
    proven = all(w == 0.0 for _, w in params.upper)
    grid = _sub_grid(ranges["z"][0], z)
    ks, kerrs = yield from _kn_values(params, n, grid)
    direction, worst_step = _direction(ks)
    return InequalityReport(
        suite_id="problem1-kn",
        params_echo={**params.to_json(), "n": n, "direction": direction},
        z=grid[-1],
        lhs=ks[0],
        rhs=ks[-1],
        margin=worst_step,
        passed=True,
        # twice the largest K error bounds the error of every step
        err_estimate=2.0 * max(kerrs),
        aux={"k_values": ks, "proven_shape": proven},
    )


def _build_explore_xi(c, i, ranges):
    variant = i % 3
    if variant == 0:
        a1, b2 = _ordered_pair(c, ranges["alpha"], ranges["beta"])
        b1 = _hi_open(next(c), ranges["beta"])
        B1 = _lo_closed(next(c), ranges["weight"])
        params = FoxWrightParams(((a1, 1.0),), ((b1, B1), (b2, 1.0)))
        z = _draw_z(next(c), ranges["z"], params, 1.0 + B1)
    else:
        params, z = _sample_series(c, (variant, variant), ranges)
    val = yield from _xi_prime(params, z)
    return InequalityReport(
        suite_id="problem2-xi",
        params_echo=params.to_json(),
        z=z,
        lhs=val,
        rhs=0.0,
        margin=val,
        passed=True,
        err_estimate=abs(val) * 1e-10 + 1e-12,
        aux={"proven_shape": variant == 0},
    )


# ---------------------------------------------------------------------------
# Range validation: a range's name says its rule.  z has the sign of the
# suite's default z range, the tail index n must hold an integer, and alpha1
# must be able to reach beta2.

_POSITIVE = ("alpha", "beta", "alpha1", "beta1", "beta2")
_NONNEG = ("weight", "n", "B1", "gap")


def _validate(sd: "SuiteDef", ranges: dict) -> None:
    for name in (n for n in _POSITIVE if n in ranges):
        lo, hi = ranges[name]
        if lo < 0.0 or not hi > 0.0:
            raise GridError(f"range {name!r} must lie within (0, inf), "
                            f"got ({lo!r}, {hi!r})")
    for name in (n for n in _NONNEG if n in ranges):
        lo, _ = ranges[name]
        if lo < 0.0:
            raise GridError(f"range {name!r} must be >= 0, got lo={lo!r}")
    if "n" in ranges and math.ceil(ranges["n"][0]) > ranges["n"][1]:
        raise GridError(f"range 'n' holds no integer, got {ranges['n']!r}")
    zlo, zhi = ranges["z"]
    if sd.defaults["z"][0] < 0.0:
        if zlo >= 0.0 or zhi > 0.0:
            raise GridError(f"this suite needs z < 0, got ({zlo!r}, {zhi!r})")
    elif zlo < 0.0:
        raise GridError(f"this suite needs z >= 0, got ({zlo!r}, {zhi!r})")
    if "alpha1" in ranges and ranges["alpha1"][1] < ranges["beta2"][0]:
        raise GridError(
            "no draw can satisfy alpha1 >= beta2: alpha1 range "
            f"{ranges['alpha1']!r} lies entirely below beta2 range "
            f"{ranges['beta2']!r}")


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class SuiteDef:
    """One named suite: sampling dimensions, default ranges, builder."""

    suite_id: str
    dims: int
    rows_per_instance: int
    defaults: dict
    build: Callable


_SERIES_RANGES = {"alpha": (0.1, 5.0), "beta": (0.1, 5.0),
                  "weight": (0.0, 3.0), "z": (0.0, 20.0)}
_TAIL_RANGES = {**_SERIES_RANGES, "n": (0.0, 6.0)}
_POWERED_RANGES = {"alpha1": (0.1, 5.0), "beta1": (0.1, 5.0),
                   "beta2": (0.1, 5.0), "B1": (0.0, 3.0), "z": (0.0, 20.0)}

SUITES = {sd.suite_id: sd for sd in (
    SuiteDef("turan-alpha", 9, 1, _SERIES_RANGES,
             functools.partial(_build_turan, _turan_alpha)),
    SuiteDef("turan-beta", 9, 1, _SERIES_RANGES,
             functools.partial(_build_turan, _turan_beta)),
    SuiteDef("corollary3-2f2", 4, 1,
             {"beta1": (0.1, 5.0), "beta2": (0.1, 5.0), "z": (-6.0, 0.0)},
             _build_corollary3),
    SuiteDef("ratio-monotone", 10, 1, _SERIES_RANGES, _build_ratio),
    SuiteDef("tail-turan", 7, 1, _TAIL_RANGES, _build_tail_turan),
    SuiteDef("kn-bound", 7, 1, _TAIL_RANGES, _build_kn),
    SuiteDef("chi", 6, 1, _POWERED_RANGES, _build_chi),
    SuiteDef("lazarevic", 5, 1, _POWERED_RANGES, _build_lazarevic),
    SuiteDef("wilker", 5, 1, _POWERED_RANGES, _build_wilker),
    SuiteDef("logconcave", 8, 3,
             {"beta": (0.1, 5.0), "B1": (0.0, 3.0), "gap": (0.0, 3.0),
              "z": (0.0, 20.0)},
             _build_logconcave),
)}

EXPLORERS = {sd.suite_id: sd for sd in (
    SuiteDef("problem1-kn", 10, 1, _TAIL_RANGES, _build_explore_kn),
    SuiteDef("problem2-xi", 9, 1, _SERIES_RANGES, _build_explore_xi),
)}


def suite_ids() -> list[str]:
    return sorted(SUITES)


def explorer_ids() -> list[str]:
    return sorted(EXPLORERS)


def _failure_row(suite_id: str, kind: str, msg: str,
                 instance: int) -> InequalityReport:
    # the suite, the grid (seed and samples) and the index reproduce the row
    nan = float("nan")
    return InequalityReport(
        suite_id=suite_id,
        params_echo={"error": kind, "instance": instance},
        z=nan, lhs=nan, rhs=nan, margin=nan,
        passed=False,
        err_estimate=nan,
        status=STATUS_NUMERICAL_FAILURE,
        aux={"message": msg},
    )


# Instances advanced in lockstep at a time: their generators, requests and
# results are all alive until the group finishes, so the group size bounds
# that memory (about 2 KB an instance, 2 MiB a group; the tiles are capped
# in batch._TILE_CAP); a row's bits do not depend on it.
_LOCKSTEP = 1024


def _run(registry: dict, kind: str, suite_id: str,
         spec: GridSpec | None) -> list[InequalityReport]:
    sd = registry.get(suite_id)
    if sd is None:
        raise ParameterError(f"unknown {kind} {suite_id!r}; known: "
                             + ", ".join(sorted(registry)))
    spec = spec if spec is not None else GridSpec()
    ranges = _resolve_ranges(sd, spec)
    _validate(sd, ranges)
    n_inst = -(-spec.samples // sd.rows_per_instance)
    u = _unit_matrix(spec, sd.dims, n_inst)
    out: list[InequalityReport] = []
    for first in range(0, n_inst, _LOCKSTEP):
        gens = [sd.build(iter(u[i].tolist()), i, ranges)
                for i in range(first, min(first + _LOCKSTEP, n_inst))]
        results = _run_rounds(gens, absorb=(NoConvergenceError, OverflowError))
        for i, res in enumerate(results, first):
            if isinstance(res, Exception):
                out.append(_failure_row(sd.suite_id, type(res).__name__,
                                        str(res), i))
            else:
                out.extend(res if isinstance(res, tuple) else [res])
    del out[spec.samples:]
    return out


def run_suite(suite_id: str,
              spec: GridSpec | None = None) -> list[InequalityReport]:
    """Run one verification suite; deterministic in the GridSpec."""
    return _run(SUITES, "suite", suite_id, spec)


def run_explore(suite_id: str,
                spec: GridSpec | None = None) -> list[InequalityReport]:
    """Run one exploratory probe; rows report findings, never failures."""
    return _run(EXPLORERS, "probe", suite_id, spec)


# ---------------------------------------------------------------------------
# Oracle spot checks: recompute a report's margin in high precision


def _hp_values(rs, *jobs):
    """The values of (params, z, start) jobs, summed together."""
    return [value for value, _, _ in _hp_sums(jobs, rs)]


def _hp_slot(echo: dict, slot: str):
    """The first upper value of echoed params (slot "alpha") or their first
    lower value ("beta"), and the map from a value to the params with it in
    that place."""
    side = "upper" if slot == "alpha" else "lower"
    (v, w), *rest = echo[side]
    return v, lambda u: FoxWrightParams.from_json(
        {**echo, side: [[u, w], *rest]})


def _hp_turan(slot: str, report: InequalityReport, rs):
    v, put = _hp_slot(report.params_echo, slot)
    s0, s1, s2 = _hp_values(rs, *((put(u), report.z, 0)
                                  for u in (v, v + 1.0, v + 2.0)))
    c = 1 if slot == "alpha" else mp.mpf(v) / (v + 1.0)
    return s0 * s2 - c * s1 ** 2


def _hp_corollary3(report: InequalityReport, rs):
    e = report.params_echo
    a1, b1, b2 = mp.mpf(e["alpha1"]), mp.mpf(e["beta1"]), mp.mpf(e["beta2"])
    z = report.z
    f = b2 * (1 + a1 - b1) / (a1 - b2)
    g = b2 * (a1 - b1 - 1) / (a1 - b2)
    h = b2 * (a1 - b1) / (a1 - b2)

    def pfq(u1, u2, l1, l2):
        return _hp_pfq_mpf((u1, u2), (l1, l2), z, rs)[0]

    return (pfq(b1 - a1 - 1, f + 1, b1, f)
            * pfq(b1 - a1 + 1, g + 1, b1 + 2, g)
            - pfq(b1 - a1, h + 1, b1 + 1, h) ** 2)


def _hp_ratio(report: InequalityReport, rs):
    e = report.params_echo
    slot, vs, vb = e["slot"], e["v_small"], e["v_big"]
    _, put = _hp_slot(e, slot)
    # R = Psi[num] / Psi[den] is the ratio claimed nonincreasing
    num, den = (put(vb), put(vs)) if slot == "beta" else (put(vs), put(vb))
    z = report.z
    if report.aux["worst_kind"] == "ratio-step":
        z0 = report.aux["worst_z_prev"]
        n0, d0, n1, d1 = _hp_values(rs, (num, z0, 0), (den, z0, 0),
                                    (num, z, 0), (den, z, 0))
        return n0 / d0 - n1 / d1
    dn, dd, en, ed = _hp_values(rs, (num.shifted(), z, 0),
                                (den.shifted(), z, 0), (num, z, 0), (den, z, 0))
    return dd * en - dn * ed


def _hp_tail_turan(report: InequalityReport, rs):
    params = FoxWrightParams.from_json(report.params_echo)
    n = report.params_echo["n"]
    t0, t1, t2 = _hp_values(rs, *((params, report.z, n + i)
                                  for i in (1, 2, 3)))
    return t1 ** 2 - t0 * t2


def _hp_kn(report: InequalityReport, rs):
    params = FoxWrightParams.from_json(report.params_echo)
    n = report.params_echo["n"]
    step = report.aux["worst_kind"] == "step"
    zs = (report.z, report.aux["worst_z_prev"]) if step else (report.z,)
    t = _hp_values(rs, *((params, z, n + i) for z in zs for i in (1, 2, 3)))

    def k(t0, t1, t2):
        return t0 * t2 / t1 ** 2

    if step:
        return k(*t[:3]) - k(*t[3:])
    # the Gamma arguments are formed in mpf, so the oracle checks the
    # engine's rounding of them instead of repeating it
    c = mp.mpf(n + 2) / (n + 3)
    for b, w in params.lower:
        b, w = mp.mpf(b), mp.mpf(w)
        c *= mp.gamma(b + (n + 2) * w) ** 2 / (
            mp.gamma(b + (n + 1) * w) * mp.gamma(b + (n + 3) * w))
    return k(*t) - c


def _hp_omega(a1, b2, B1, v, z, rs):
    a1, b2, B1, v, z = map(mp.mpf, (a1, b2, B1, v, z))
    c = v + B1
    # each argument recurs across (k, j): O(k) distinct ones per call
    gamma, digamma, fact = map(functools.cache,
                               (mp.gamma, mp.digamma, mp.factorial))
    total = mp.mpf(0)
    streak = 0
    for k in range(1, 3001):
        zk = mp.power(z, k)
        block = mp.mpf(0)
        for j in range((k - 1) // 2 + 1):
            term = (gamma(a1 + j) * gamma(a1 + k - j)
                    / (fact(j) * fact(k - j)
                       * gamma(c + j * B1) * gamma(c + (k - j) * B1)
                       * gamma(b2 + j) * gamma(b2 + k - j)))
            term *= ((k - 2 * j) * (a1 - b2)
                     * (digamma(c + (k - j) * B1) - digamma(c + j * B1))
                     / ((b2 + k - j) * (b2 + j)))
            block += term * zk
        total += block
        if abs(block) <= rs * (abs(total) + mp.mpf("1e-300")):
            streak += 1
            if streak >= 3:
                return total
        else:
            streak = 0
    raise NoConvergenceError("high-precision omega did not settle")


def _hp_chi(report: InequalityReport, rs):
    e, aux = report.params_echo, report.aux
    a1, b2, B1 = e["alpha1"], e["beta2"], e["B1"]
    z = report.z
    if aux["worst_kind"] != "chi-step":
        return _hp_omega(a1, b2, B1, aux["worst_beta1"], z, rs)
    vs = (aux["worst_beta1"], aux["worst_beta1_prev"])
    sums = _hp_values(rs, *((p, z, 0) for v in vs for p in (
        FoxWrightParams(((a1 + 1.0, 1.0),), ((v + B1, B1), (b2 + 1.0, 1.0))),
        FoxWrightParams(((a1, 1.0),), ((v, B1), (b2, 1.0))))))
    chi0, chi1 = (mp.gamma(v + B1) * num / (mp.gamma(v) * den)
                  for v, num, den in zip(vs, sums[::2], sums[1::2]))
    return chi0 - chi1


def _hp_tilde_pair(a1, b1, b2, B1, z, rs):
    u_params = FoxWrightParams(((a1, 1.0),), ((b1 + 1.0, B1), (b2, 1.0)))
    v_params = FoxWrightParams(((a1, 1.0),), ((b1, B1), (b2, 1.0)))
    su, sv = _hp_values(rs, (u_params, z, 0), (v_params, z, 0))
    return mp.gamma(b1 + 1.0) * su, mp.gamma(b1) * sv


def _hp_lazarevic(report: InequalityReport, rs):
    e = report.params_echo
    a1, b1, b2, B1 = e["alpha1"], e["beta1"], e["beta2"], e["B1"]
    u, v = _hp_tilde_pair(a1, b1, b2, B1, report.z, rs)
    e1 = mp.gamma(mp.mpf(b1) + B1) / mp.gamma(b1)
    e2 = e1 * (mp.mpf(b1) + B1) / b1
    scale = (mp.gamma(a1) / mp.gamma(b2)) ** (mp.mpf(B1) / b1)
    return u ** e2 - (scale * v) ** e1


def _hp_wilker(report: InequalityReport, rs):
    e = report.params_echo
    a1, b1, b2, B1 = e["alpha1"], e["beta1"], e["beta2"], e["B1"]
    u, v = _hp_tilde_pair(a1, b1, b2, B1, report.z, rs)
    power = (mp.gamma(b2) / mp.gamma(a1) * u) ** (mp.mpf(B1) / b1)
    return u / v + power - 2


def _hp_logconcave_t0(params: FoxWrightParams):
    """The k = 0 term, which normalizes the series to 1 at z = 0."""
    t0 = mp.mpf(1)
    for a, _ in params.upper:
        t0 *= mp.gamma(a)
    for b, _ in params.lower:
        t0 /= mp.gamma(b)
    return t0


def _hp_logconcave_c(params: FoxWrightParams):
    b1, w1 = params.lower[0]
    c = mp.gamma(b1) / mp.gamma(mp.mpf(b1) + w1)
    for i, (a, _) in enumerate(params.upper):
        c *= mp.mpf(a) / params.lower[i + 1][0]
    return c


def _hp_logconcave_mid(report: InequalityReport, rs):
    params = FoxWrightParams.from_json(report.params_echo)
    z1, z2 = report.aux["z1"], report.aux["z2"]
    zm = (mp.mpf(z1) + z2) / 2
    t0 = _hp_logconcave_t0(params)
    fm, f1, f2 = (v / t0 for v in _hp_values(
        rs, (params, zm, 0), (params, z1, 0), (params, z2, 0)))
    return fm - mp.sqrt(f1 * f2)


def _hp_logconcave_exp(report: InequalityReport, rs):
    params = FoxWrightParams.from_json(report.params_echo)
    zm = (mp.mpf(report.aux["z1"]) + report.aux["z2"]) / 2
    fm, = _hp_values(rs, (params, zm, 0))
    return (mp.exp(_hp_logconcave_c(params) * zm)
            - fm / _hp_logconcave_t0(params))


def _hp_logconcave_deriv(report: InequalityReport, rs):
    params = FoxWrightParams.from_json(report.params_echo)
    zm = (mp.mpf(report.aux["z1"]) + report.aux["z2"]) / 2
    s, d = _hp_values(rs, (params, zm, 0), (params.shifted(), zm, 0))
    return _hp_logconcave_c(params) * s - d


_HP = {
    "turan-alpha": functools.partial(_hp_turan, "alpha"),
    "turan-beta": functools.partial(_hp_turan, "beta"),
    "corollary3-2f2": _hp_corollary3,
    "ratio-monotone": _hp_ratio,
    "tail-turan": _hp_tail_turan,
    "kn-bound": _hp_kn,
    "chi": _hp_chi,
    "lazarevic": _hp_lazarevic,
    "wilker": _hp_wilker,
    "logconcave:midpoint": _hp_logconcave_mid,
    "logconcave:expbound": _hp_logconcave_exp,
    "logconcave:deriv": _hp_logconcave_deriv,
}


def hp_margin(report: InequalityReport, digits: int = 30) -> float:
    """Recompute a report's margin with the independent oracle.

    Worst-comparison suites (ratio-monotone, kn-bound, chi) are recomputed
    at the comparison the report singled out, using the echoed grid
    neighbors.  Raises ParameterError for rows with no oracle recipe
    (exploratory probes, failure rows), and DomainError for digits outside
    [30, 200], as hp_eval does.
    """
    if report.status != "ok":
        raise ParameterError("cannot oracle-check a failure row")
    fn = _HP.get(report.suite_id)
    if fn is None:
        raise ParameterError(
            f"no oracle margin recipe for suite {report.suite_id!r}")
    digits = _check_digits(digits)
    with mp.workdps(digits + _GUARD):
        return float(fn(report, mp.mpf(10) ** (-digits)))
