"""Per-layer accounting for the traced run.

``Tracer.install`` wraps every public function of each layer at the name
each consumer module binds it under: the package namespace (the
benchmark's own calls), and every ``foxwright`` module that imports it from
another layer.  So ``foxwright.series.log_gamma`` (the engine's lnGamma
calls), ``foxwright.inequalities.evaluate`` (the checkers' series calls)
and ``foxwright.cli.run_suite`` are each wrapped, while a module's calls
into its own functions stay inside the caller's span.  A span's self time
is its duration minus that of the spans it encloses; the time the
benchmark's loop spends outside every span is reported as ``bench.self_s``,
so the self times add up to the traced wall time.  Nothing in the package
is changed on disk.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

# provider module -> layer name; the oracle's summation entry points are
# private names, so they are listed by hand
LAYERS = ("gammakit", "series", "functions", "inequalities", "suites",
          "oracle", "cli")
_EXTRA = {"oracle": ("_hp_series", "_hp_pfq_mpf"), "cli": ("main",)}
_TIME_UNITS = {"s", "ms", "us"}
_SUMMATION = {"evaluate", "evaluate_normalized", "evaluate_tilde",
              "evaluate_tail", "derivative", "dbeta1"}

# (name, unit, better) of every per-layer metric, in print order
METRICS = (
    ("gammakit.log_gamma.calls", "count", "lower"),
    ("gammakit.log_gamma.us_per_call", "us", "lower"),
    ("gammakit.digamma.calls", "count", "lower"),
    ("gammakit.digamma.us_per_call", "us", "lower"),
    ("gammakit.gamma_ratio.calls", "count", "lower"),
    ("gammakit.self_s", "s", "lower"),
    ("series.calls", "count", "lower"),
    ("series.terms", "count", "lower"),
    ("series.self_s", "s", "lower"),
    ("series.us_per_term", "us", "lower"),
    ("series.us_per_call", "us", "lower"),
    ("series.log_term.calls", "count", "lower"),
    ("functions.calls", "count", "lower"),
    ("functions.self_s", "s", "lower"),
    ("inequalities.calls", "count", "lower"),
    ("inequalities.self_s", "s", "lower"),
    ("inequalities.series_calls_per_row", "calls/row", "lower"),
    ("inequalities.terms_per_row", "terms/row", "lower"),
    ("suites.rows", "count", "higher"),
    ("suites.self_s", "s", "lower"),
    ("suites.run_suite.self_s", "s", "lower"),
    ("suites.hp_margin.calls", "count", "lower"),
    ("suites.hp_margin.ms_per_call", "ms", "lower"),
    ("oracle.series_calls", "count", "lower"),
    ("oracle.terms", "count", "lower"),
    ("oracle.self_s", "s", "lower"),
    ("oracle.us_per_term", "us", "lower"),
    ("cli.self_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _public_functions(module, layer: str) -> list[str]:
    names = [n for n in getattr(module, "__all__", ())
             if inspect.isfunction(getattr(module, n, None))]
    return names + [n for n in _EXTRA.get(layer, ()) if hasattr(module, n)]


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


class Tracer:
    """Spans aggregated per wrapped function, kept in memory."""

    def __init__(self) -> None:
        self._stack = [[0.0]]       # child time of each open span; [0] = bench
        self._open = defaultdict(int)  # open spans per layer
        self.calls = defaultdict(int)   # (layer, function) -> calls
        self.incl = defaultdict(float)  # (layer, function) -> inclusive s
        self.self_s = defaultdict(float)  # (layer, function) -> self s
        self.terms = defaultdict(int)   # layer -> terms summed
        self.rows = defaultdict(int)    # layer -> report rows returned
        self.ineq_series_calls = 0
        self.ineq_terms = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, fw) -> None:
        """Wrap every cross-layer binding in the loaded foxwright modules."""
        modules = {layer: getattr(fw, layer) for layer in LAYERS
                   if hasattr(fw, layer)}
        owner = {}
        for layer, mod in modules.items():
            for name in _public_functions(mod, layer):
                owner[id(getattr(mod, name))] = (layer, name)
        consumers = [("package", fw)] + list(modules.items())
        wrapped = {}
        for where, mod in consumers:
            for attr, obj in list(vars(mod).items()):
                key = owner.get(id(obj))
                if key is None or (key[0] == where and attr != "main"):
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(key[0], key[1], obj)
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    def _wrap(self, layer: str, name: str, fn):
        stack, is_open = self._stack, self._open
        key = (layer, name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            is_open[layer] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                is_open[layer] -= 1
                stack.pop()
                stack[-1][0] += dur
                self.calls[key] += 1
                self.incl[key] += dur
                self.self_s[key] += dur - frame[0]
            self._count(layer, name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, layer: str, name: str, result) -> None:
        if layer == "series" and name in _SUMMATION:
            self.terms[layer] += result.terms_used
            if self._open["inequalities"]:
                self.ineq_series_calls += 1
                self.ineq_terms += result.terms_used
        elif layer == "inequalities":
            if isinstance(result, tuple):
                self.rows[layer] += len(result)
            elif hasattr(result, "margin"):
                self.rows[layer] += 1
        elif layer == "suites" and name == "run_suite":
            self.rows[layer] += len(result)
        elif layer == "oracle" and name in _EXTRA["oracle"]:
            self.terms[layer] += result[2]

    # -- results -----------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(v for (lay, _), v in self.self_s.items() if lay == layer)

    def _calls(self, layer: str, names=None) -> int:
        return sum(v for (lay, n), v in self.calls.items()
                   if lay == layer and (names is None or n in names))

    def metrics(self, traced_wall: float, speed: float,
                untraced_scaled_wall: float) -> dict:
        """Per-layer metrics; times are scaled by ``speed`` (see run.py)."""
        series_calls = self._calls("series", _SUMMATION)
        ineq_rows = self.rows["inequalities"]
        hp_calls = self.calls[("suites", "hp_margin")]
        values = {
            "gammakit.log_gamma.calls": self.calls[("gammakit", "log_gamma")],
            "gammakit.log_gamma.us_per_call": _ratio(
                self.incl[("gammakit", "log_gamma")],
                self.calls[("gammakit", "log_gamma")], 1e6),
            "gammakit.digamma.calls": self.calls[("gammakit", "digamma")],
            "gammakit.digamma.us_per_call": _ratio(
                self.incl[("gammakit", "digamma")],
                self.calls[("gammakit", "digamma")], 1e6),
            "gammakit.gamma_ratio.calls": self.calls[("gammakit",
                                                      "gamma_ratio")],
            "gammakit.self_s": self.layer_self("gammakit"),
            "series.calls": series_calls,
            "series.terms": self.terms["series"],
            "series.self_s": self.layer_self("series"),
            "series.us_per_term": _ratio(self.layer_self("series"),
                                         self.terms["series"], 1e6),
            "series.us_per_call": _ratio(self.layer_self("series"),
                                         series_calls, 1e6),
            "series.log_term.calls": self.calls[("series", "log_term")],
            "functions.calls": self._calls("functions"),
            "functions.self_s": self.layer_self("functions"),
            "inequalities.calls": self._calls("inequalities"),
            "inequalities.self_s": self.layer_self("inequalities"),
            "inequalities.series_calls_per_row": _ratio(
                self.ineq_series_calls, ineq_rows),
            "inequalities.terms_per_row": _ratio(self.ineq_terms, ineq_rows),
            "suites.rows": self.rows["suites"],
            "suites.self_s": self.layer_self("suites"),
            "suites.run_suite.self_s": self.self_s[("suites", "run_suite")],
            "suites.hp_margin.calls": hp_calls,
            "suites.hp_margin.ms_per_call": _ratio(
                self.incl[("suites", "hp_margin")], hp_calls, 1e3),
            "oracle.series_calls": self._calls("oracle", _EXTRA["oracle"]),
            "oracle.terms": self.terms["oracle"],
            "oracle.self_s": self.layer_self("oracle"),
            "oracle.us_per_term": _ratio(self.layer_self("oracle"),
                                         self.terms["oracle"], 1e6),
            "cli.self_s": self.layer_self("cli"),
            "bench.self_s": traced_wall - sum(self.self_s.values()),
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_scaled_wall / speed,
        }
        return {name: {"value": (values[name] * speed if unit in _TIME_UNITS
                                 else values[name]), "unit": unit}
                for name, unit, _ in METRICS}

    def table(self) -> list[dict]:
        """Per-function aggregates, for the trace file."""
        return [{"layer": lay, "function": n, "calls": self.calls[(lay, n)],
                 "inclusive_s": self.incl[(lay, n)],
                 "self_s": self.self_s[(lay, n)]}
                for lay, n in sorted(self.calls)]
