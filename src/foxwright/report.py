"""Report records shared by the inequality checkers and the CLI."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import GridError

__all__ = [
    "TOL_ABS",
    "TOL_REL",
    "margin_passes",
    "InequalityReport",
    "GridSpec",
    "grid_from_json",
]

# The pass rule's tolerance, fixed: a margin passes when it is not more
# negative than TOL_ABS + TOL_REL * scale, with scale = max(|lhs|, |rhs|).
# It only absorbs rounding, since every inequality claims margin >= 0.
TOL_ABS = 1e-12
TOL_REL = 1e-10

STATUS_OK = "ok"
STATUS_NUMERICAL_FAILURE = "numerical-failure"

# the encoder json.dumps(obj, sort_keys=True, separators=(",", ":")) would
# build afresh for every row of a CSV report
_PARAMS_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def margin_passes(margin: float, lhs: float, rhs: float) -> bool:
    """The pass rule of every checker; it reads TOL_ABS and TOL_REL when
    called."""
    if margin != margin:  # NaN never passes
        return False
    scale = max(abs(lhs), abs(rhs))
    if scale != scale or scale == float("inf"):
        scale = 0.0
    return margin >= -(TOL_ABS + TOL_REL * scale)


def value_report(suite_id: str, params_echo: dict[str, Any], z: float,
                 lhs: float, rhs: float, margin: float, err: float,
                 aux: dict[str, Any] | None = None) -> "InequalityReport":
    """One verdict row, judged by margin_passes on its own sides."""
    return InequalityReport(suite_id, params_echo, float(z), lhs, rhs, margin,
                            margin_passes(margin, lhs, rhs),
                            err, aux=aux)


def worst_report(suite_id: str, params_echo: dict[str, Any],
                 comparisons: list[dict[str, Any]],
                 aux: Callable[[dict], dict] | None = None) -> "InequalityReport":
    """One verdict row for comparisons given as dicts of z, lhs, rhs, margin, err.

    The row shows the comparison with the smallest margin (a NaN margin
    counts as the smallest) and passes only when every comparison passes on
    its own sides.  aux, if given, maps that worst comparison to the row's aux.
    """
    w = min(comparisons, key=lambda c: (
        -math.inf if math.isnan(c["margin"]) else c["margin"]))
    passed = all(margin_passes(c["margin"], c["lhs"], c["rhs"])
                 for c in comparisons)
    return InequalityReport(suite_id, params_echo, float(w["z"]), w["lhs"],
                            w["rhs"], w["margin"], passed, w["err"],
                            aux=None if aux is None else aux(w))


@dataclass
class InequalityReport:
    """One verified inequality instance.

    margin is oriented so that the claimed inequality holds iff margin >= 0
    (up to tolerance).  err_estimate estimates the margin's numerical error:
    the sum of the sides' absolute errors, each carried by first-order rules
    from its series' truncation estimates and condition-scaled rounding
    (inequalities._Q); the verdict does not read it.  status flips to
    "numerical-failure" when the evaluation was too ill-conditioned to trust,
    in which case passed is meaningless and recorded as False.
    """

    suite_id: str
    params_echo: dict[str, Any]
    z: float | str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    err_estimate: float
    status: str = STATUS_OK
    aux: dict[str, float] | None = None

    def params_json(self) -> str:
        return _PARAMS_ENCODER.encode(self.params_echo)


@dataclass(frozen=True)
class GridSpec:
    """Sampling plan for a parameter sweep.

    param_ranges maps a range name, z included, to an inclusive (lo, hi)
    interval with finite bounds.  mode is "random" (uniform draws from a
    seeded PRNG) or "lattice" (evenly spaced values, index-aligned across
    parameters).  samples is an integer >= 1 and seed an integer >= 0.
    """

    param_ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    samples: int = 100
    seed: int = 0
    mode: str = "random"

    def __post_init__(self) -> None:
        for name, least in (("samples", 1), ("seed", 0)):
            v = getattr(self, name)
            if not _is_index(v):
                raise GridError(f"{name} must be an integer, got {v!r}")
            if v < least:
                raise GridError(f"{name} must be >= {least}, got {v}")
            object.__setattr__(self, name, int(v))
        if self.mode not in ("random", "lattice"):
            raise GridError(f"mode must be 'random' or 'lattice', got {self.mode!r}")
        for name, (lo, hi) in self.param_ranges.items():
            if not (lo <= hi):
                raise GridError(f"range for {name!r} is empty: ({lo}, {hi})")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise GridError(f"range for {name!r} must have finite bounds, "
                                f"got ({lo}, {hi})")


def _is_number(v: object) -> bool:
    """v is a JSON int or float; a JSON bool also passes isinstance(v, int)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_index(v: object) -> bool:
    """v is an integer (an int or a numpy integer), not a bool."""
    return hasattr(type(v), "__index__") and not isinstance(v, bool)


def grid_from_json(obj: dict[str, Any]) -> GridSpec:
    """Build a GridSpec from a plain dict (parsed grid file).

    Recognized keys: "samples", "seed", "mode", and any other name, "z"
    included, mapped to a two-element [lo, hi] range.
    """
    if not isinstance(obj, dict):
        raise GridError("grid file must contain a JSON object")
    samples, seed = obj.get("samples", 100), obj.get("seed", 0)
    if not (_is_number(samples) and _is_number(seed)):
        raise GridError(f"samples and seed must be numbers, got samples="
                        f"{samples!r}, seed={seed!r}")
    # a JSON number such as 12.0 is read as the integer it holds
    samples, seed = (int(v) if isinstance(v, float) and v.is_integer() else v
                     for v in (samples, seed))
    mode = str(obj.get("mode", "random"))
    ranges: dict[str, tuple[float, float]] = {}
    for key, val in obj.items():
        if key in ("samples", "seed", "mode"):
            continue
        if (not isinstance(val, (list, tuple)) or len(val) != 2
                or not all(_is_number(v) for v in val)):
            raise GridError(f"range for {key!r} must be a [lo, hi] pair")
        ranges[key] = (float(val[0]), float(val[1]))
    return GridSpec(param_ranges=ranges, samples=samples, seed=seed, mode=mode)
