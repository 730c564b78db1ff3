"""Benchmark of foxwright: four workloads, each a fixed list of operations.

    python3 bench/run.py --workload eval-short --seed 1 --seconds 12 --trace 0

Workloads: eval-short, eval-long, check, oracle (see README.md).  A run
repeats whole rounds of the workload's operations; --seconds sets the
number of rounds from the round time measured on the reference machine,
so every run of one workload and --seconds times the same operations.
Times are scaled to the machine's usual speed (see _probe).  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced pass with --trace 1.  The package is
imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import mpmath as mp

import reference
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# set-ups per run (the median is setup_s); the oracle's includes producing
# its rows with the engine, about 1.7 s
SETUP_REPS = {"eval-short": 7, "eval-long": 7, "check": 7, "oracle": 3}
MIN_OPS = 100  # so op_p90_ms has at least ten operations beyond it
# seconds one round takes on the reference machine (README.md)
ROUND_S = {"eval-short": 0.2, "eval-long": 2.0, "check": 12.0, "oracle": 5.0}

# Machine-speed scaling.  The reference machine runs the same work up to
# 1.7x slower at some times than at others, for tens of seconds, and
# process CPU time slows with it.  A fixed float loop that runs no package
# code and allocates no containers slows by about the same factor, so
# every time is multiplied by CAL_REF_S / (probe time around it): the time
# the work would take at the machine's usual speed.  A probe is the
# fastest of three loops, so that a single preemption of the process
# cannot inflate it.
CAL_ITERS = 3000
CAL_REF_S = 0.0007  # about the median _probe() on the reference machine
CAL_EVERY_S = 0.25  # probe between stretches of ops this long


def _cal_step(x: float) -> float:
    return x * 1.0000001 + 1e-9


def _probe() -> float:
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        s, x = 0.0, 0.5
        for _ in range(CAL_ITERS):
            x = _cal_step(x)
            s += math.log1p(x) - math.floor(x) * 0.5
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# Set-up: import, inputs, warm-up


def _fresh_import(with_cli: bool):
    for name in [m for m in sys.modules
                 if m == "foxwright" or m.startswith("foxwright.")]:
        del sys.modules[name]
    fw = importlib.import_module("foxwright")
    if with_cli:
        importlib.import_module("foxwright.cli")
    return fw


def _setup(workload: str, seed: int):
    """Import the package, build the round's operations and warm up.

    Returns (fw, inputs, ops) with ops a list of (function, args).  Every
    op looks its entry point up on ``fw`` when it runs, so the traced pass
    goes through the wrapped bindings.
    """
    fw = _fresh_import(with_cli=workload == "check")
    if workload == "eval-short":
        inputs = wl.short_inputs(seed)
        ops = [(wl.run_short, (fw, inp)) for inp in inputs]
        warm = [(wl.run_short, (fw, inp)) for inp in wl.SHORT_WARM]
    elif workload == "eval-long":
        inputs = wl.long_inputs(seed)
        ops = [(wl.run_long, (fw, call, inp))
               for inp in inputs for call in wl.LONG_CALLS]
        warm = [(wl.run_long, (fw, call, wl.LONG_WARM))
                for call in wl.LONG_CALLS]
    elif workload == "check":
        inputs = wl.check_commands(seed)
        ops = [(wl.run_check, (fw, cmd)) for cmd in inputs]
        warm = [(wl.run_check, (fw, ("tail-turan", 20, 0)))]
    else:
        inputs = wl.oracle_rows(fw, seed)
        ops = [(wl.run_oracle, (fw, row)) for row in inputs]
        warm = ops[-1:]
    for fn, args in warm:
        fn(*args)
    return fw, inputs, ops


def _timed_setup(workload: str, seed: int):
    """Set up several times; the median scaled time is setup_s, the last
    set-up is kept."""
    times = []
    before = _probe()
    for _ in range(SETUP_REPS[workload]):
        t0 = time.perf_counter()
        state = _setup(workload, seed)
        elapsed = time.perf_counter() - t0
        after = _probe()
        times.append(elapsed * CAL_REF_S / (0.5 * (before + after)))
        before = after
    return statistics.median(times), state


# ---------------------------------------------------------------------------
# Timed rounds


def _rounds(workload: str, seconds: int, n_ops: int) -> int:
    return max(math.ceil(MIN_OPS / n_ops), round(seconds / ROUND_S[workload]))


def _run_rounds(ops, rounds: int):
    """Run the ops `rounds` times.

    Returns (wall s, scaled wall s, scaled latencies s, outputs).  Ops run
    in stretches of CAL_EVERY_S with a probe between two stretches; a
    stretch's times are scaled by the mean of the probes around it.  Only
    the first and the last round's outputs are kept, so memory does not
    grow with the number of rounds.
    """
    lat, outs = [], []
    clock = time.perf_counter
    wall = scaled_wall = 0.0
    probe = _probe()
    start, first = clock(), 0

    def close_stretch():
        nonlocal wall, scaled_wall, probe, start, first
        stretch = clock() - start
        after = _probe()
        f = CAL_REF_S / (0.5 * (probe + after))
        lat[first:] = [t * f for t in lat[first:]]
        wall += stretch
        scaled_wall += stretch * f
        probe, start, first = after, clock(), len(lat)

    for r in range(rounds):
        keep = r == 0 or r == rounds - 1
        for fn, args in ops:
            t0 = clock()
            try:
                out = fn(*args)
            except Exception as exc:  # a failed operation, counted below
                out = exc
            t1 = clock()
            lat.append(t1 - t0)
            if keep:
                outs.append(out)
            if t1 - start >= CAL_EVERY_S:
                close_stretch()
    if first < len(lat):
        close_stretch()
    return wall, scaled_wall, lat, outs


def _fingerprint(out) -> str:
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    if hasattr(out, "terms_used"):
        return repr((out.value, out.terms_used, out.tail_bound,
                     out.condition_estimate))
    return repr(out)


def _deterministic(outs, n_ops: int) -> bool:
    first = [_fingerprint(o) for o in outs[:n_ops]]
    return all(_fingerprint(o) == first[i % n_ops]
               for i, o in enumerate(outs))


# ---------------------------------------------------------------------------
# Output checks: (per-op pass flags, per-op digits) for the first round


def _verify_eval(outs, refs):
    ok, dig = [], []
    for out, ref in zip(outs, refs):
        if isinstance(out, Exception):
            ok.append(False)
            dig.append(0.0)
            continue
        ok.append(wl.eval_ok(out.value, out.tail_bound,
                             out.condition_estimate, ref))
        with mp.workdps(reference.DPS):
            dig.append(wl.digits(abs(mp.mpf(out.value) - ref), ref))
    return ok, dig


def _verify(workload: str, fw, inputs, outs):
    if workload == "eval-short":
        return _verify_eval(outs, [reference.short_ref(i) for i in inputs])
    if workload == "eval-long":
        return _verify_eval(outs, [r for inp in inputs
                                   for r in reference.long_refs(*inp)])
    if workload == "check":
        ok, dig = [], []
        for cmd, out in zip(inputs, outs):
            good = not isinstance(out, Exception) and wl.check_output_ok(
                cmd, *out)
            ok.append(good)
            if isinstance(out, Exception) or out[0] != 0:
                dig.append(0.0)
                continue
            # one spot check per command: the middle clean row, rebuilt
            # from the JSON the command printed
            rows = [r for r in json.loads(out[1])["rows"]
                    if r["status"] == "ok"]
            row = _report(fw, rows[len(rows) // 2])
            hp = wl.run_oracle(fw, row)
            dig.append(wl.margin_digits(row.margin, hp, row.lhs, row.rhs))
        return ok, dig
    ok = [not isinstance(hp, Exception) and wl.oracle_ok(fw, row, hp)
          for row, hp in zip(inputs, outs)]
    dig = [0.0 if isinstance(hp, Exception)
           else wl.margin_digits(row.margin, hp, row.lhs, row.rhs)
           for row, hp in zip(inputs, outs)]
    return ok, dig


def _report(fw, row: dict):
    return fw.InequalityReport(
        suite_id=row["suite_id"], params_echo=row["params"], z=row["z"],
        lhs=row["lhs"], rhs=row["rhs"], margin=row["margin"],
        passed=row["pass"], err_estimate=row["err_estimate"],
        status=row["status"], aux=row["aux"])


# ---------------------------------------------------------------------------


def _p90(lat: list[float]) -> float:
    """Nearest-rank 90th percentile; n >= MIN_OPS leaves ten ops beyond."""
    s = sorted(lat)
    return s[math.ceil(0.9 * len(s)) - 1]


def run(workload: str, seed: int, seconds: int, trace: bool):
    """One run; returns (result line, unscaled figures for the out file)."""
    setup_s, (fw, inputs, ops) = _timed_setup(workload, seed)
    n = len(ops)
    rounds = _rounds(workload, seconds, n)
    if trace:
        # an untraced and a traced pass of half the rounds each
        rounds = max(1, rounds // 2)
    wall, scaled, lat, outs = _run_rounds(ops, rounds)
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(lat)
    unscaled = {"wall_s": wall, "scaled_wall_s": scaled,
                "ops_per_s": len(lat) / wall}
    if trace:
        tracer = tracing.Tracer()
        tracer.install(fw)
        t_wall, t_scaled, t_lat, t_outs = _run_rounds(ops, rounds)
        tracer.uninstall()
        _write(f"trace-{workload}-seed{seed}.json", tracer.table())
        attempted += len(t_lat)
        outs += t_outs
        unscaled.update(traced_wall_s=t_wall, traced_scaled_wall_s=t_scaled)
    ok, dig = _verify(workload, fw, inputs, outs[:n])
    if trace:
        metrics = tracer.metrics(t_wall, t_scaled / t_wall, scaled)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(lat) / scaled, "unit": "ops/s"},
            "op_p50_ms": {"value": statistics.median(lat) * 1e3,
                          "unit": "ms"},
            "op_p90_ms": {"value": _p90(lat) * 1e3, "unit": "ms"},
            "maxrss_mb": {"value": maxrss_mb, "unit": "MiB"},
            "digits_p50": {"value": statistics.median(dig),
                           "unit": "digits"},
        }
    result = {
        "correct": _deterministic(outs, n),
        "attempted": attempted,
        "failed": ok.count(False) * (attempted // n),
        "metrics": metrics,
    }
    return result, unscaled


def _write(name: str, payload) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "foxwright" / "__init__.py").is_file():
        print(f"error: no foxwright package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, unscaled = run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    _write(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
           {**result, "unscaled": unscaled})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
