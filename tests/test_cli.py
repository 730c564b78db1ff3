"""Command-line interface: exit codes, report formats, determinism."""

import csv
import enum
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foxwright.report
from foxwright import FoxWrightParams, GridSpec, evaluate, suites
from foxwright.cli import _render_json, main
from foxwright.report import STATUS_OK, InequalityReport
from foxwright.suites import (
    _failure_row,
    explorer_ids,
    run_explore,
    run_suite,
    suite_ids,
)

EXP_PARAMS = {"upper": [[1.0, 1.0]], "lower": [[1.0, 1.0]]}


@pytest.fixture
def params_file(tmp_path):
    def write(obj, name="params.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)
    return write


def test_eval_prints_value(params_file, capsys):
    code = main(["eval", "--params", params_file(EXP_PARAMS), "--z", "1.0"])
    out = capsys.readouterr().out
    assert code == 0
    lines = dict(line.split(maxsplit=1) for line in out.strip().splitlines())
    assert abs(float(lines["value"]) - math.e) <= 1e-14
    assert int(lines["terms_used"]) > 0
    assert float(lines["tail_bound"]) < 1e-12


def test_eval_sums_a_saddle_window_on_its_lattice(params_file, capsys):
    # e^z at z = 700 reads its window's lattice, not the 456 terms of the
    # window one by one, and lands within its stated error of exp(700)
    code = main(["eval", "--params", params_file(EXP_PARAMS), "--z", "700"])
    lines = dict(line.split(maxsplit=1)
                 for line in capsys.readouterr().out.strip().splitlines())
    value, bound = float(lines["value"]), float(lines["tail_bound"])
    assert code == 0
    assert int(lines["terms_used"]) < 100
    assert abs(value - math.exp(700)) <= bound + 1e-14 * value


def test_eval_divergent_exits_3(params_file, capsys):
    bad = {"upper": [[1.0, 1.5]], "lower": [[1.0, 0.0]]}
    code = main(["eval", "--params", params_file(bad), "--z", "1.0"])
    err = capsys.readouterr().err
    assert code == 3
    assert "divergent series" in err


def test_eval_unknown_params_key_exits_2(params_file, capsys):
    # a misspelled "upper" must not leave a lower-only series to evaluate
    bad = {"uper": [[1.5, 0.5]], "lower": [[2.0, 1.0]]}
    code = main(["eval", "--params", params_file(bad), "--z", "1.0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unknown key 'uper'" in captured.err
    # the two known keys alone are read as before
    assert main(["eval", "--params", params_file(EXP_PARAMS), "--z",
                 "1.0"]) == 0


def test_eval_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("not json", encoding="utf-8")
    assert main(["eval", "--params", str(path), "--z", "1.0"]) == 2
    assert main(["eval", "--params", str(tmp_path / "absent.json"),
                 "--z", "1.0"]) == 2


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["eval", "--z", "1.0"]) == 2          # missing --params
    assert main(["check"]) == 2                        # missing --suite
    assert main(["check", "--suite", "nope"]) == 2     # unknown suite
    assert main(["check", "--suite", "turan-beta", "--format", "xml"]) == 2


def test_check_writes_csv_report(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["check", "--suite", "turan-beta", "--seed", "42",
                 "--samples", "20", "--out", str(out)])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "# seed=42"
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    assert rows[0] == ["suite_id", "params_json", "z", "lhs", "rhs",
                       "margin", "err_estimate", "pass"]
    assert len(rows) == 21
    for row in rows[1:]:
        assert row[0] == "turan-beta"
        json.loads(row[1])
        float(row[2]), float(row[5])
        assert row[7] == "true"
    summary = capsys.readouterr().out
    assert "20/20 passed" in summary


def test_check_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["check", "--suite", "turan-beta", "--seed", "42",
                     "--samples", "30", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_stdout_report_and_stderr_summary(capsys):
    code = main(["check", "--suite", "chi", "--seed", "2", "--samples", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("# seed=2")
    assert "3/3 passed" in captured.err


def test_check_violation_exits_1(tmp_path, monkeypatch):
    # an impossible tolerance turns honest small margins into failures
    monkeypatch.setattr(foxwright.report, "TOL_ABS", -1e6)
    code = main(["check", "--suite", "turan-beta", "--seed", "42",
                 "--samples", "10", "--out", str(tmp_path / "v.csv")])
    assert code == 1


def test_check_kn_limit_summary(tmp_path, params_file, capsys):
    grid = params_file({"beta": [1.0, 1.0], "weight": [1.0, 1.0],
                        "n": [0, 0], "z": [1e-8, 1e-5]}, "grid.json")
    report = tmp_path / "kn.json"
    code = main(["check", "--suite", "kn-bound", "--grid", grid,
                 "--samples", "4", "--seed", "1", "--format", "json",
                 "--out", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "4/4 passed" in out
    assert "kn lower limit" not in out
    # each instance has its own lower limit, in its row's aux
    rows = json.loads(report.read_text(encoding="utf-8"))["rows"]
    bounds = sorted({r["aux"]["bound"] for r in rows})
    assert bounds == pytest.approx([8 / 27, 4 / 9], rel=1e-15)


def test_check_oracle_spot_check(tmp_path):
    code = main(["check", "--suite", "lazarevic", "--seed", "6",
                 "--samples", "8", "--digits", "30",
                 "--out", str(tmp_path / "lz.csv")])
    assert code == 0


def test_check_oracle_mismatch_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(suites, "hp_margin", lambda row, digits: 1e6)
    code = main(["check", "--suite", "lazarevic", "--seed", "6",
                 "--samples", "8", "--digits", "30",
                 "--out", str(tmp_path / "lz.csv")])
    assert code == 3
    assert "oracle mismatch" in capsys.readouterr().out


def test_check_help_lists_every_suite(capsys):
    # --suite's help imports the suites module only when it is printed
    assert main(["check", "--help"]) == 0
    text = capsys.readouterr().out.split("one of:")[1].split("--grid")[0]
    assert "".join(text.split()).split(",") == list(suite_ids())


def test_check_numerical_failure_exits_3(params_file, tmp_path):
    # corollary3's alternating sums at z near -30 exceed its condition limit
    grid = params_file({"z": [-30, -29]}, "grid.json")
    report = tmp_path / "c3.json"
    code = main(["check", "--suite", "corollary3-2f2", "--grid", grid,
                 "--samples", "20", "--seed", "1", "--format", "json",
                 "--out", str(report)])
    assert code == 3
    rows = json.loads(report.read_text(encoding="utf-8"))["rows"]
    assert "numerical-failure" in {r["status"] for r in rows}


def test_check_invalid_grid_exits_2(params_file, tmp_path, capsys):
    grid = params_file({"alpha1": [0.2, 0.8], "beta2": [2.0, 4.0]},
                       "bad.json")
    assert main(["check", "--suite", "lazarevic", "--grid", grid,
                 "--samples", "4", "--out", str(tmp_path / "x.csv")]) == 2
    junk = tmp_path / "junk.json"
    junk.write_text("{", encoding="utf-8")
    assert main(["check", "--suite", "lazarevic", "--grid", str(junk)]) == 2
    capsys.readouterr()
    assert main(["check", "--suite", "chi", "--samples", "2",
                 "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("name, pair", [
    ("n", [0, math.inf]), ("alpha", [0.1, math.inf]), ("z", [0, math.inf]),
    ("beta", [-math.inf, 2.0]),
])
def test_non_finite_range_bounds_exit_2(params_file, tmp_path, capsys,
                                        name, pair):
    # json.dumps writes inf as Infinity, as a hand-written grid file may
    grid = params_file({name: pair}, "grid.json")
    assert main(["check", "--suite", "kn-bound", "--samples", "3",
                 "--grid", grid, "--out", str(tmp_path / "kn.csv")]) == 2
    assert not (tmp_path / "kn.csv").exists()
    lo, hi = (float(v) for v in pair)
    assert capsys.readouterr().err == (
        f"error: range for {name!r} must have finite bounds, "
        f"got ({lo}, {hi})\n")


def test_bools_and_strings_in_input_files_exit_2(params_file, tmp_path,
                                                 capsys):
    params = params_file({"upper": [[True, "0.5"]]})
    assert main(["eval", "--params", params, "--z", "1.0"]) == 2
    grid = params_file({"samples": True, "z": [False, True]}, "grid.json")
    assert main(["check", "--suite", "turan-beta", "--grid", grid,
                 "--out", str(tmp_path / "tb.csv")]) == 2
    assert not (tmp_path / "tb.csv").exists()
    assert capsys.readouterr().err.count("error: ") == 2


def test_json_format(tmp_path):
    out = tmp_path / "report.json"
    code = main(["check", "--suite", "wilker", "--seed", "5",
                 "--samples", "6", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["seed"] == 5
    assert len(payload["rows"]) == 6
    row = payload["rows"][0]
    assert row["suite_id"] == "wilker"
    assert row["pass"] is True
    assert row["status"] == "ok"
    assert "ratio_term" in row["aux"]


def test_sweep_ignores_violations(tmp_path, monkeypatch):
    # same impossible tolerance as the check test, but sweep still exits 0
    monkeypatch.setattr(foxwright.report, "TOL_ABS", -1e6)
    out = tmp_path / "s.csv"
    code = main(["sweep", "--suite", "turan-beta", "--seed", "42",
                 "--samples", "10", "--out", str(out)])
    assert code == 0
    assert "false" in out.read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["check", "sweep"])
def test_negative_exponent_tolerance_as_separate_argument(tmp_path, monkeypatch,
                                                          command):
    # the tolerances are constants of report.py: set there, "-1e-3" and
    # "-1e-2" turn rows into failures, while neither CLI spelling of the
    # old options is taken any more
    base = [command, "--suite", "turan-beta", "--seed", "42", "--samples", "10"]
    for tol in (["--tol-abs=-1e-3", "--tol-rel=-1e-2"],
                ["--tol-abs", "-1e-3", "--tol-rel", "-1E-2"]):
        out = tmp_path / "refused.csv"
        assert main(base + tol + ["--out", str(out)]) == 2
        assert not out.exists()
    monkeypatch.setattr(foxwright.report, "TOL_ABS", -1e-3)
    monkeypatch.setattr(foxwright.report, "TOL_REL", -1e-2)
    out = tmp_path / "report.csv"
    assert main(base + ["--out", str(out)]) == (1 if command == "check" else 0)
    assert "false" in out.read_text(encoding="utf-8")


def test_option_string_after_z_is_not_its_value(params_file, capsys):
    # only a number is glued to the --z before it, so the first --z here
    # is left without a value
    code = main(["eval", "--params", params_file(EXP_PARAMS),
                 "--z", "--z", "-1e-3"])
    assert code == 2
    assert "argument --z: expected one argument" in capsys.readouterr().err


def test_eval_negative_exponent_z(params_file, capsys):
    code = main(["eval", "--params", params_file(EXP_PARAMS), "--z", "-1e-1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = dict(line.split(maxsplit=1) for line in out.strip().splitlines())
    assert abs(float(lines["value"]) - math.exp(-0.1)) <= 1e-15


@pytest.mark.parametrize("z_args", [["--z", "inf"], ["--z=-inf"],
                                    ["--z", "nan"]])
def test_eval_non_finite_z_exits_2(params_file, capsys, z_args):
    code = main(["eval", "--params", params_file(EXP_PARAMS)] + z_args)
    assert code == 2
    assert "z must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("digits", ["--digits=5", "--digits=-3",
                                    "--digits=201"])
def test_check_digits_out_of_oracle_range_exits_2(tmp_path, capsys, digits):
    out = tmp_path / "tb.csv"
    code = main(["check", "--suite", "turan-beta", "--samples", "20",
                 "--seed", "2", digits, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "digits must lie in [30, 200]" in captured.err
    assert "oracle mismatch" not in captured.out + captured.err
    # refused before the suite runs: no report is written
    assert not out.exists()


def test_explore_both_probes(tmp_path, capsys):
    code = main(["explore", "--suite", "problem1-kn", "--seed", "9",
                 "--samples", "6", "--out", str(tmp_path / "p1.csv")])
    assert code == 0
    assert "directions:" in capsys.readouterr().out
    code = main(["explore", "--suite", "problem2-xi", "--seed", "9",
                 "--samples", "6", "--out", str(tmp_path / "p2.csv")])
    assert code == 0
    assert "xi-prime sign:" in capsys.readouterr().out
    assert main(["explore", "--suite", "turan-beta"]) == 2


def test_eval_prints_condition_log_magnitude_and_sign(params_file, capsys):
    # e^-2 by its alternating series: condition e^4, log-magnitude -2
    code = main(["eval", "--params", params_file(EXP_PARAMS), "--z", "-2"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [line.split(maxsplit=1) for line in out.strip().splitlines()]
    assert [k for k, _ in lines] == ["value", "terms_used", "tail_bound",
                                     "condition_estimate", "log_magnitude",
                                     "sign"]
    res = evaluate(FoxWrightParams(**EXP_PARAMS), -2.0)
    fields = dict(lines)
    assert float(fields["condition_estimate"]) == res.condition_estimate
    assert abs(res.condition_estimate - math.exp(4.0)) <= 1e-12 * math.exp(4.0)
    assert float(fields["log_magnitude"]) == res.log_magnitude
    assert abs(res.log_magnitude + 2.0) <= 1e-14
    assert fields["sign"] == "1"


# The JSON writer against json.dumps of the payload dicts with
# sort_keys=True.

def _reference_json(rows, seed):
    payload = {
        "seed": seed,
        "rows": [
            {
                "suite_id": r.suite_id,
                "params": r.params_echo,
                "z": r.z,
                "lhs": r.lhs,
                "rhs": r.rhs,
                "margin": r.margin,
                "err_estimate": r.err_estimate,
                "pass": "error" if r.status != STATUS_OK else bool(r.passed),
                "status": r.status,
                "aux": r.aux,
            }
            for r in rows
        ],
    }
    return json.dumps(payload, sort_keys=True) + "\n"


class _SubFloat(float):
    # json writes a float subclass through float.__repr__, not this
    def __repr__(self):
        return "subfloat"


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


_leaves = st.one_of(
    st.text(max_size=6), st.none(), st.booleans(), st.integers(),
    st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.floats().map(_SubFloat), st.sampled_from(list(_Level)))
_trees = st.recursive(_leaves, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=5), kids, max_size=4)), max_leaves=24)


@given(st.lists(st.tuples(_trees, _trees, _leaves, st.floats()), max_size=4),
       st.integers())
@settings(max_examples=50, deadline=None, derandomize=True)
def test_json_report_matches_json_dumps_for_any_row_values(cells, seed):
    rows = [InequalityReport("sé", {"p": p}, z, x, -x, x, x % 2 == 0,
                             abs(x), aux={"a": aux})
            for p, aux, z, x in cells]
    assert _render_json(rows, seed) == _reference_json(rows, seed)


@pytest.mark.parametrize("suite", suite_ids() + explorer_ids())
def test_json_report_matches_json_dumps_for_every_suite(suite):
    spec = GridSpec(samples=8, seed=3)
    run = run_explore if suite in explorer_ids() else run_suite
    rows = run(suite, spec)
    assert _render_json(rows, 3) == _reference_json(rows, 3)
    for r in rows:  # and the params cell of the CSV report
        assert r.params_json() == json.dumps(r.params_echo, sort_keys=True,
                                             separators=(",", ":"))


def test_json_report_matches_json_dumps_for_failure_infinite_and_empty():
    failure = _failure_row("turan-beta", "NoConvergenceError",
                           "stop rule did not fire", 4)
    assert _render_json([failure], 1) == _reference_json([failure], 1)
    # seed 5: rows with lhs = rhs = margin = err = inf
    rows = run_suite("turan-alpha", GridSpec(samples=300, seed=5))
    inf_rows = [r for r in rows if math.isinf(r.lhs) and math.isinf(r.rhs)]
    assert inf_rows
    assert _render_json(inf_rows, 5) == _reference_json(inf_rows, 5)
    assert _render_json([], 0) == _reference_json([], 0)
    assert _render_json([], 0) == '{"rows": [], "seed": 0}\n'


def _same(got, want):
    """got, read back from JSON, holds the value want: a tuple reads back
    as a list and NaN as NaN."""
    if isinstance(want, dict):
        return (got.keys() == want.keys()
                and all(_same(got[k], want[k]) for k in want))
    if isinstance(want, (list, tuple)):
        return len(got) == len(want) and all(map(_same, got, want))
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return got == want


@pytest.mark.parametrize("suite", suite_ids() + explorer_ids())
def test_json_report_parses_back_to_the_report_fields(suite, capsys):
    command = "explore" if suite in explorer_ids() else "check"
    main([command, "--suite", suite, "--samples", "8", "--seed", "3",
          "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    run = run_explore if suite in explorer_ids() else run_suite
    rows = run(suite, GridSpec(samples=8, seed=3))
    assert payload["seed"] == 3
    assert len(payload["rows"]) == len(rows)
    for got, r in zip(payload["rows"], rows):
        assert _same(got, {
            "suite_id": r.suite_id, "params": r.params_echo, "z": r.z,
            "lhs": r.lhs, "rhs": r.rhs, "margin": r.margin,
            "err_estimate": r.err_estimate, "status": r.status,
            "pass": "error" if r.status != STATUS_OK else r.passed,
            "aux": r.aux})
