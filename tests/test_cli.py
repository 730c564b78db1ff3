"""Command-line interface: exit codes, report formats, determinism."""

import csv
import io
import json
import math

import pytest

from foxwright.cli import main

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


def test_eval_divergent_exits_3(params_file, capsys):
    bad = {"upper": [[1.0, 1.5]], "lower": [[1.0, 0.0]]}
    code = main(["eval", "--params", params_file(bad), "--z", "1.0"])
    err = capsys.readouterr().err
    assert code == 3
    assert "divergent series" in err


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


def test_check_violation_exits_1(tmp_path):
    # an impossible tolerance turns honest small margins into failures
    code = main(["check", "--suite", "turan-beta", "--seed", "42",
                 "--samples", "10", "--tol-abs=-1e6",
                 "--out", str(tmp_path / "v.csv")])
    assert code == 1


def test_check_kn_limit_summary(tmp_path, params_file, capsys):
    grid = params_file({"beta": [1.0, 1.0], "weight": [1.0, 1.0],
                        "n": [0, 0], "z": [1e-8, 1e-5]}, "grid.json")
    code = main(["check", "--suite", "kn-bound", "--grid", grid,
                 "--samples", "4", "--seed", "1",
                 "--out", str(tmp_path / "kn.csv")])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.444444" in out


def test_check_oracle_spot_check(tmp_path):
    code = main(["check", "--suite", "lazarevic", "--seed", "6",
                 "--samples", "8", "--digits", "30",
                 "--out", str(tmp_path / "lz.csv")])
    assert code == 0


def test_check_invalid_grid_exits_2(params_file, tmp_path):
    grid = params_file({"alpha1": [0.2, 0.8], "beta2": [2.0, 4.0]},
                       "bad.json")
    assert main(["check", "--suite", "lazarevic", "--grid", grid,
                 "--samples", "4", "--out", str(tmp_path / "x.csv")]) == 2
    junk = tmp_path / "junk.json"
    junk.write_text("{", encoding="utf-8")
    assert main(["check", "--suite", "lazarevic", "--grid", str(junk)]) == 2


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


def test_sweep_ignores_violations(tmp_path):
    # same impossible tolerance as the check test, but sweep still exits 0
    code = main(["sweep", "--suite", "turan-beta", "--seed", "42",
                 "--samples", "10", "--tol-abs=-1e6",
                 "--out", str(tmp_path / "s.csv")])
    assert code == 0


@pytest.mark.parametrize("command", ["check", "sweep"])
def test_negative_exponent_tolerance_as_separate_argument(tmp_path, command):
    # "-1e-3" given apart from its option must read as a value, and give the
    # same report as the "--tol-abs=-1e-3" spelling
    base = [command, "--suite", "turan-beta", "--seed", "42", "--samples", "10"]
    reports = []
    for tol in (["--tol-abs=-1e-3", "--tol-rel=-1e-2"],
                ["--tol-abs", "-1e-3", "--tol-rel", "-1E-2"]):
        out = tmp_path / f"{len(reports)}.csv"
        code = main(base + tol + ["--out", str(out)])
        assert code == (1 if command == "check" else 0)
        reports.append(out.read_text(encoding="utf-8"))
    assert reports[0] == reports[1]
    assert "false" in reports[0]
    # an option string still is not taken for a value
    assert main(base + ["--tol-abs", "--tol-rel", "-1e-3"]) == 2


def test_eval_negative_exponent_z(params_file, capsys):
    code = main(["eval", "--params", params_file(EXP_PARAMS), "--z", "-1e-1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = dict(line.split(maxsplit=1) for line in out.strip().splitlines())
    assert abs(float(lines["value"]) - math.exp(-0.1)) <= 1e-15


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
