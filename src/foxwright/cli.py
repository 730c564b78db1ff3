"""Command-line front end.

Subcommands:

* ``eval``     evaluate one series at one point and print the result,
* ``check``    run a verification suite over a parameter grid and fail the
  exit code on any violation,
* ``sweep``    same row collection as ``check`` but margins are data, not
  verdicts: the run succeeds as long as the numerics held together,
* ``explore``  sample one of the open-question probes; observations are
  recorded, never judged, so the exit code ignores them.

Exit codes are exhaustive and mutually exclusive: 0 all rows passed, 1 at
least one genuine violation, 2 usage error (unknown suite, malformed file,
invalid grid), 3 numerical failure (divergence, overflow, no convergence,
or an oracle spot-check mismatch).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import re
import sys
from typing import Callable, Sequence

from .errors import (
    DivergentSeriesError,
    FoxWrightError,
    NoConvergenceError,
    ParameterError,
)
from .report import STATUS_OK, GridSpec, grid_from_json
from .report import InequalityReport
from .series import FoxWrightParams, evaluate

__all__ = ["main"]

_CSV_COLUMNS = ("suite_id", "params_json", "z", "lhs", "rhs", "margin",
                "err_estimate", "pass")


class _IdsHelp(argparse.HelpFormatter):
    """Formats --suite's help, which names the suites module function that
    lists its ids: the verification layer (``suites``, with mpmath) is
    imported only when that help is printed, so ``eval`` never loads it."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        if action.dest != "suite":
            return action.help
        from . import suites
        return "one of: " + ", ".join(getattr(suites, action.help)())


@functools.cache  # parse_args leaves the parser as it was: build it once
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foxwright",
        description="Evaluate Fox-Wright type series and verify the "
                    "functional inequalities they satisfy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", help="evaluate one series at one point")
    p_eval.add_argument(
        "--params", required=True, metavar="FILE",
        help='JSON file holding {"upper": [[a, A], ...], '
             '"lower": [[b, B], ...]}')
    p_eval.add_argument("--z", required=True, type=float,
                        help="evaluation point")

    specs = (
        ("check", "run one verification suite over a grid", "suite_ids"),
        ("sweep", "collect margin rows without judging them", "suite_ids"),
        ("explore", "sample an open-question probe", "explorer_ids"),
    )
    for name, blurb, ids in specs:
        q = sub.add_parser(name, help=blurb, formatter_class=_IdsHelp)
        q.add_argument("--suite", required=True, metavar="ID", help=ids)
        q.add_argument("--grid", metavar="FILE",
                       help="JSON file with named [lo, hi] ranges, plus "
                            "optional samples/seed/mode")
        q.add_argument("--samples", type=int, help="instances to draw")
        q.add_argument("--seed", type=int, help="RNG seed")
        q.add_argument("--out", metavar="FILE",
                       help="report path (default: stdout)")
        q.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "check":
            q.add_argument("--digits", type=int, metavar="N",
                           help="recompute up to 10 rows with an N-digit "
                                "oracle and require agreement")
    return parser


def _load_grid(args: argparse.Namespace) -> GridSpec:
    if args.grid:
        with open(args.grid, "r", encoding="utf-8") as fh:
            spec = grid_from_json(json.load(fh))
    else:
        spec = GridSpec()
    kw = {}
    if args.samples is not None:
        kw["samples"] = args.samples
    if args.seed is not None:
        kw["seed"] = args.seed
    return dataclasses.replace(spec, **kw) if kw else spec


def _cell(x: object) -> str:
    if isinstance(x, str):
        return x
    return repr(float(x))


def _pass_cell(row: InequalityReport) -> str:
    if row.status != STATUS_OK:
        return "error"
    return "true" if row.passed else "false"


def _render_csv(rows: Sequence[InequalityReport], seed: int) -> str:
    buf = io.StringIO()
    buf.write(f"# seed={seed}\n")
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for r in rows:
        writer.writerow((r.suite_id, r.params_json(), _cell(r.z),
                         _cell(r.lhs), _cell(r.rhs), _cell(r.margin),
                         _cell(r.err_estimate), _pass_cell(r)))
    return buf.getvalue()


def _render_json(rows: Sequence[InequalityReport], seed: int) -> str:
    return json.dumps({"rows": [{
        "aux": r.aux, "err_estimate": r.err_estimate, "lhs": r.lhs,
        "margin": r.margin, "params": r.params_echo,
        "pass": "error" if r.status != STATUS_OK else bool(r.passed),
        "rhs": r.rhs, "status": r.status, "suite_id": r.suite_id, "z": r.z,
    } for r in rows], "seed": seed}, sort_keys=True) + "\n"


def _render(rows: Sequence[InequalityReport], seed: int, fmt: str) -> str:
    if fmt == "json":
        return _render_json(rows, seed)
    return _render_csv(rows, seed)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _notify(msg: str, rows_went_to_file: bool) -> None:
    # keep stdout parseable when the report itself is streaming there
    print(msg, file=sys.stdout if rows_went_to_file else sys.stderr)


def _summarize(rows: Sequence[InequalityReport]):
    n_failed = sum(1 for r in rows if r.status != STATUS_OK)
    n_pass = sum(1 for r in rows if r.status == STATUS_OK and r.passed)
    margins = [r.margin for r in rows
               if r.status == STATUS_OK and not math.isnan(r.margin)]
    worst = min(margins) if margins else math.nan
    return len(rows), n_pass, n_failed, worst


def _spot_check(rows: Sequence[InequalityReport], digits: int,
                notify: Callable[[str], None]) -> bool:
    """Recompute a stratified handful of rows with the slow oracle."""
    from .suites import hp_margin
    clean = [r for r in rows if r.status == STATUS_OK]
    if not clean:
        return True
    k = min(10, len(clean))
    stride = len(clean) / k
    ok = True
    for j in range(k):
        row = clean[int(j * stride)]
        hp = hp_margin(row, digits=digits)
        m = row.margin
        if math.isinf(m) or math.isinf(hp):
            agree = m == hp
        else:
            tol = max(1e-6 * max(abs(hp), abs(m)), 1e-12,
                      10.0 * row.err_estimate)
            agree = abs(hp - m) <= tol
        if not agree:
            notify(f"oracle mismatch in {row.suite_id} at z={row.z!r}: "
                   f"margin {m!r} vs oracle {hp!r}")
            ok = False
    return ok


def _run_eval(args: argparse.Namespace) -> int:
    with open(args.params, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    # from_json skips other keys, so a misspelled side would read as empty
    for key in obj if isinstance(obj, dict) else ():
        if key not in ("upper", "lower"):
            raise ParameterError(f"unknown key {key!r} in --params; "
                                 "expected only 'upper' and 'lower'")
    params = FoxWrightParams.from_json(obj)
    res = evaluate(params, args.z)
    print(f"value {res.value!r}")
    print(f"terms_used {res.terms_used}")
    print(f"tail_bound {res.tail_bound!r}")
    print(f"condition_estimate {res.condition_estimate!r}")
    print(f"log_magnitude {res.log_magnitude!r}")
    print(f"sign {res.sign}")
    return 0


def _run_check_or_sweep(args: argparse.Namespace) -> int:
    """check and sweep: the same rows, judged by check, only counted by sweep."""
    from .oracle import _check_digits
    from .suites import run_suite
    spec = _load_grid(args)
    if args.command == "check" and args.digits is not None:
        _check_digits(args.digits)  # refuse before the suite runs
    rows = run_suite(args.suite, spec)
    _emit(_render(rows, spec.seed, args.format), args.out)
    to_file = bool(args.out)
    n, n_pass, n_failed, worst = _summarize(rows)
    if args.command == "sweep":
        _notify(f"suite {args.suite}: wrote {n} rows, "
                f"{n - n_pass - n_failed} below tolerance, "
                f"worst margin {worst!r}", to_file)
        return 3 if n_failed else 0
    _notify(f"suite {args.suite}: {n_pass}/{n} passed, {n_failed} numerical "
            f"failures, worst margin {worst!r}", to_file)
    oracle_ok = True
    if args.digits is not None:
        oracle_ok = _spot_check(rows, args.digits,
                                lambda msg: _notify(msg, to_file))
    if n_failed or not oracle_ok:
        return 3
    return 0 if n_pass == n else 1


def _run_explore(args: argparse.Namespace) -> int:
    from .suites import run_explore
    spec = _load_grid(args)
    rows = run_explore(args.suite, spec)
    _emit(_render(rows, spec.seed, args.format), args.out)
    to_file = bool(args.out)
    clean = [r for r in rows if r.status == STATUS_OK]
    n_failed = len(rows) - len(clean)
    if args.suite == "problem1-kn":
        counts: dict[str, int] = {}
        for r in clean:
            d = str(r.params_echo.get("direction"))
            counts[d] = counts.get(d, 0) + 1
        body = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        _notify(f"directions: {body or 'none'}", to_file)
    else:
        vals = [r.margin for r in clean]
        neg = [v for v in vals if v < 0.0]
        if vals:
            _notify(f"xi-prime sign: {len(vals) - len(neg)} nonnegative, "
                    f"{len(neg)} negative, min {min(vals)!r}", to_file)
        else:
            _notify("no rows", to_file)
    if n_failed:
        _notify(f"{n_failed} numerical failures", to_file)
        return 3
    return 0


_COMMANDS = {
    "eval": _run_eval,
    "check": _run_check_or_sweep,
    "sweep": _run_check_or_sweep,
    "explore": _run_explore,
}


# argparse takes a separate "-1e-3" for an option string, never for the
# value of a float option; glued into "--z=-1e-3" it is read as one
_FLOAT_OPTIONS = ("--z",)
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def _glue_negative_floats(argv: Sequence[str]) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _FLOAT_OPTIONS and _NEGATIVE_NUMBER.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    argv = _glue_negative_floats(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage, 0 on --help
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except (DivergentSeriesError, NoConvergenceError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FoxWrightError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
