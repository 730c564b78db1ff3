"""Suite runner: sampling, determinism, validation, oracle recomputation."""

import dataclasses
import inspect
import json
import math
import re

import mpmath as mp
import numpy as np
import pytest

from foxwright import (
    FoxWrightParams,
    GridError,
    GridSpec,
    ParameterError,
    grid_from_json,
    hp_eval,
    margin_passes,
)
from foxwright import batch, inequalities, report, suites
from foxwright.gammakit import gamma_ratio, log_gamma
from foxwright.report import STATUS_NUMERICAL_FAILURE, STATUS_OK, worst_report
from foxwright.suites import (
    EXPLORERS,
    SUITES,
    explorer_ids,
    hp_margin,
    run_explore,
    run_suite,
    suite_ids,
)

ALL_SUITES = suite_ids()


def test_registry_contents():
    assert ALL_SUITES == sorted(SUITES)
    assert set(ALL_SUITES) == {
        "turan-alpha", "turan-beta", "corollary3-2f2", "ratio-monotone",
        "tail-turan", "kn-bound", "chi", "lazarevic", "wilker", "logconcave",
    }
    assert explorer_ids() == sorted(EXPLORERS) == ["problem1-kn", "problem2-xi"]


@pytest.mark.parametrize("suite", ALL_SUITES)
def test_small_run_all_pass(suite):
    rows = run_suite(suite, GridSpec(samples=8, seed=11))
    assert len(rows) == 8
    for r in rows:
        assert r.status == STATUS_OK
        assert r.passed, (suite, r.z, r.margin)
        assert r.suite_id.startswith(suite)
        json.loads(r.params_json())  # echo must serialize cleanly


def test_logconcave_emits_subsuite_ids():
    rows = run_suite("logconcave", GridSpec(samples=9, seed=4))
    ids = {r.suite_id for r in rows}
    assert ids == {"logconcave:midpoint", "logconcave:expbound",
                   "logconcave:deriv"}


def test_determinism_and_seed_sensitivity():
    a = run_suite("turan-alpha", GridSpec(samples=12, seed=7))
    b = run_suite("turan-alpha", GridSpec(samples=12, seed=7))
    assert [(r.params_json(), r.z, r.margin) for r in a] == \
           [(r.params_json(), r.z, r.margin) for r in b]
    c = run_suite("turan-alpha", GridSpec(samples=12, seed=8))
    assert [(r.params_json(), r.z) for r in a] != \
           [(r.params_json(), r.z) for r in c]


def test_lattice_mode_runs_deterministically():
    spec = GridSpec(samples=6, seed=3, mode="lattice")
    a = run_suite("wilker", spec)
    b = run_suite("wilker", spec)
    assert all(x.margin == y.margin for x, y in zip(a, b))
    assert all(r.passed for r in a)


def test_unknown_suite_and_explorer():
    with pytest.raises(ParameterError):
        run_suite("no-such-suite", GridSpec(samples=2))
    with pytest.raises(ParameterError):
        run_explore("no-such-probe", GridSpec(samples=2))


def test_unknown_range_name_rejected():
    spec = GridSpec(param_ranges={"bogus": (0.1, 1.0)}, samples=3)
    with pytest.raises(GridError):
        run_suite("turan-beta", spec)


def test_impossible_lazarevic_ranges_rejected():
    spec = GridSpec(param_ranges={"alpha1": (0.2, 0.8),
                                  "beta2": (2.0, 4.0)}, samples=3)
    # every suite with both ranges takes the ordered rule
    for suite in ("chi", "lazarevic", "wilker"):
        with pytest.raises(GridError, match=r"^no draw can satisfy alpha1 >= "
                           r"beta2: alpha1 range \(0.2, 0.8\) lies entirely "
                           r"below beta2 range \(2.0, 4.0\)$"):
            run_suite(suite, spec)


def test_sign_constrained_z_ranges():
    with pytest.raises(GridError, match=r"^this suite needs z >= 0, "
                       r"got \(-2.0, 1.0\)$"):
        run_suite("turan-beta", GridSpec(param_ranges={"z": (-2.0, 1.0)},
                                         samples=3))
    for z in ((1.0, 2.0), (-1.0, 0.5)):
        # this family lives at z < 0
        with pytest.raises(GridError, match=r"^this suite needs z < 0"):
            run_suite("corollary3-2f2", GridSpec(param_ranges={"z": z},
                                                 samples=3))
    # the z rule follows the sign of the default z range
    assert [s for s in ALL_SUITES if SUITES[s].defaults["z"][0] < 0.0] == [
        "corollary3-2f2"]


def test_every_range_name_has_exactly_one_rule():
    # a range name the validator does not know would go unchecked
    rules = [set(suites._POSITIVE), set(suites._NONNEG), {"z"}]
    for sd in list(SUITES.values()) + list(EXPLORERS.values()):
        for name in sd.defaults:
            assert sum(name in r for r in rules) == 1, (sd.suite_id, name)


@pytest.mark.parametrize("suite,name,pair,message", [
    ("turan-alpha", "alpha", (-0.5, 2.0),
     r"^range 'alpha' must lie within \(0, inf\), got \(-0.5, 2.0\)$"),
    ("corollary3-2f2", "beta2", (0.0, 0.0),
     r"^range 'beta2' must lie within \(0, inf\), got \(0.0, 0.0\)$"),
    ("kn-bound", "n", (-1.0, 3.0), r"^range 'n' must be >= 0, got lo=-1.0$"),
    ("logconcave", "gap", (-0.1, 1.0),
     r"^range 'gap' must be >= 0, got lo=-0.1$"),
    ("chi", "B1", (-2.0, 1.0), r"^range 'B1' must be >= 0, got lo=-2.0$"),
])
def test_each_range_rule_raises_its_message(suite, name, pair, message):
    with pytest.raises(GridError, match=message):
        run_suite(suite, GridSpec(param_ranges={name: pair}, samples=3))


def test_range_rules_keep_their_order():
    # positive names first, then the >= 0 ones, then z, then alpha1/beta2
    spec = GridSpec(param_ranges={"z": (-1.0, 1.0), "n": (-1.0, 2.0),
                                  "beta": (-1.0, 2.0)}, samples=3)
    with pytest.raises(GridError, match="^range 'beta'"):
        run_suite("tail-turan", spec)
    spec = GridSpec(param_ranges={"z": (-1.0, 1.0), "n": (-1.0, 2.0)},
                    samples=3)
    with pytest.raises(GridError, match="^range 'n'"):
        run_suite("tail-turan", spec)
    spec = GridSpec(param_ranges={"z": (-1.0, 1.0), "alpha1": (0.2, 0.8),
                                  "beta2": (2.0, 4.0)}, samples=3)
    with pytest.raises(GridError, match="^this suite needs z >= 0"):
        run_suite("wilker", spec)


def test_empty_z_range_reads_like_any_other():
    for name in ("z", "beta"):
        with pytest.raises(GridError,
                           match=rf"^range for '{name}' is empty: \(2.0, 1.0\)$"):
            GridSpec(param_ranges={name: (2.0, 1.0)})


def test_grid_from_json():
    spec = grid_from_json({"alpha1": [0.5, 2.0], "z": [0.1, 3.0],
                           "samples": 17, "seed": 5, "mode": "lattice"})
    assert spec.samples == 17 and spec.seed == 5 and spec.mode == "lattice"
    assert spec.param_ranges["alpha1"] == (0.5, 2.0)
    assert spec.param_ranges["z"] == (0.1, 3.0)
    with pytest.raises(GridError):
        grid_from_json({"alpha1": [2.0]})
    with pytest.raises(GridError):
        grid_from_json({"samples": "many"})


@pytest.mark.parametrize("blob", [{"samples": True}, {"seed": "3"},
                                  {"samples": "30"}, {"seed": False},
                                  {"z": [False, True]}, {"beta": [0.5, "2"]},
                                  {"samples": math.inf}])
def test_grid_from_json_refuses_bools_strings_and_inf(blob):
    with pytest.raises(GridError):
        grid_from_json(blob)
    # JSON ints and floats are read as before
    spec = grid_from_json({"samples": 12.0, "seed": 4, "z": [0, 1.5]})
    assert (spec.samples, spec.seed, spec.param_ranges["z"]) == (
        12, 4, (0.0, 1.5))


def test_grid_samples_and_seed_must_be_integers():
    # a fractional count or seed is refused, not truncated, and a negative
    # seed in either mode, as the random mode's generator cannot take one
    for blob in ({"samples": 2.5}, {"seed": 1.7}, {"seed": -1},
                 {"seed": -1, "mode": "lattice"}):
        with pytest.raises(GridError):
            grid_from_json(blob)
    for kw in ({"samples": 3.5}, {"seed": 1.7}, {"seed": -1},
               {"seed": -2, "mode": "lattice"}, {"samples": np.float64(3.0)}):
        with pytest.raises(GridError):
            GridSpec(**kw)
    # integral JSON floats and numpy integers are integers
    spec = grid_from_json({"samples": 2.0, "seed": 3.0})
    assert (spec.samples, spec.seed) == (2, 3)
    spec = GridSpec(samples=np.int64(2), seed=np.uint8(3))
    assert (type(spec.samples), type(spec.seed)) == (int, int)
    assert run_suite("chi", spec) == run_suite("chi",
                                               GridSpec(samples=2, seed=3))


def test_a_fractional_n_range_draws_only_its_integers():
    spec = GridSpec(param_ranges={"n": (2.5, 3.2)}, samples=40, seed=1)
    assert {r.params_echo["n"] for r in run_suite("kn-bound", spec)} == {3}
    spec = GridSpec(param_ranges={"n": (0.5, 4.5)}, samples=40, seed=1)
    assert {r.params_echo["n"] for r in run_explore("problem1-kn", spec)} == {
        1, 2, 3, 4}
    # integer bounds keep every draw: both ends are reached
    spec = GridSpec(param_ranges={"n": (1.0, 4.0)}, samples=40, seed=1)
    assert {r.params_echo["n"] for r in run_suite("tail-turan", spec)} == {
        1, 2, 3, 4}


@pytest.mark.parametrize("pair", [(2.5, 2.7), (0.1, 0.9)])
def test_an_n_range_without_an_integer_is_refused(pair):
    msg = f"range 'n' holds no integer, got {pair!r}"
    with pytest.raises(GridError, match=f"^{re.escape(msg)}$"):
        run_suite("kn-bound", GridSpec(param_ranges={"n": pair}, samples=3))


def test_custom_ranges_are_respected():
    spec = GridSpec(param_ranges={"beta": (1.0, 1.0), "weight": (1.0, 1.0),
                                  "n": (0.0, 0.0), "z": (1e-8, 1e-5)},
                    samples=5, seed=3)
    rows = run_suite("kn-bound", spec)
    for r in rows:
        assert r.params_echo["n"] == 0
        for b, w in r.params_echo["lower"]:
            assert b == 1.0 and w == 1.0
    # with q = 1, beta = B = 1, n = 0 the sharp bound is 4/9
    assert abs(rows[0].aux["bound"] - 4.0 / 9.0) <= 1e-12


@pytest.mark.parametrize("suite", ALL_SUITES)
def test_hp_margin_agrees(suite):
    rows = run_suite(suite, GridSpec(samples=3, seed=23))
    for r in rows:
        hp = hp_margin(r, digits=30)
        if math.isinf(r.margin) or math.isinf(hp):
            assert r.margin == hp
            continue
        assert abs(hp - r.margin) <= r.err_estimate, (
            suite, r.z, r.margin, hp, r.err_estimate)


def test_hp_margin_rejects_unknown_rows():
    rows = run_explore("problem1-kn", GridSpec(samples=1, seed=1))
    with pytest.raises(ParameterError):
        hp_margin(rows[0])


def test_explore_problem1():
    rows = run_explore("problem1-kn", GridSpec(samples=10, seed=9))
    assert len(rows) == 10
    for i, r in enumerate(rows):
        assert r.passed  # observations never fail
        assert len(r.aux["k_values"]) == 20
        assert r.params_echo["direction"] in (
            "nondecreasing", "nonincreasing", "constant", "mixed")
        if r.aux["proven_shape"]:
            # zero upper weights: the ratio is proven monotone there, so
            # the grid must come out nondecreasing
            assert r.params_echo["direction"] == "nondecreasing"


@pytest.mark.parametrize("values, direction, worst", [
    ([1.0, 2.0, 2.0], "nondecreasing", 0.0),
    ([3.0, 2.0, 1.5], "nonincreasing", -1.0),
    ([1.0, 1.0 + 1e-12, 1.0], "constant", -1e-12),
    ([1.0, 2.0, 1.0], "mixed", -1.0),
])
def test_direction_under_the_step_tolerance(values, direction, worst):
    # steps within 1e-9 relative count as flat; the worst step is the
    # smallest difference, whatever the direction
    got, step = suites._direction(values)
    assert got == direction
    assert step == pytest.approx(worst, abs=1e-15)


def test_explore_problem1_err_bounds_the_worst_step():
    # the row's error is twice the largest error _kn_values gives for its K
    # grid, and holds the worst step against the oracle
    spec = GridSpec(samples=4, seed=9)
    rows = run_explore("problem1-kn", spec)
    sd = EXPLORERS["problem1-kn"]
    ranges = suites._resolve_ranges(sd, spec)
    u = suites._unit_matrix(spec, sd.dims, spec.samples)
    for i, r in enumerate(rows):
        gen = sd.build(iter(u[i].tolist()), i, ranges)
        next(gen)
        drawn = inspect.getgeneratorlocals(gen)
        gen.close()
        params, n, grid = drawn["params"], drawn["n"], drawn["grid"]
        ks, kerrs = inequalities._run_rounds(
            [inequalities._kn_values(params, n, grid)])[0]
        assert ks == r.aux["k_values"]
        assert r.err_estimate == 2.0 * max(kerrs)
        j = min(range(len(ks) - 1), key=lambda j: ks[j + 1] - ks[j])
        assert ks[j + 1] - ks[j] == r.margin
        hp = []
        for z in (grid[j], grid[j + 1]):
            t0, t1, t2 = (mp.mpf(hp_eval(params, z, 30, start)[0])
                          for start in (n + 1, n + 2, n + 3))
            hp.append(t0 * t2 / t1 ** 2)
        assert abs(r.margin - float(hp[1] - hp[0])) <= r.err_estimate, (
            i, r.margin, hp, r.err_estimate)


def test_explore_problem2():
    rows = run_explore("problem2-xi", GridSpec(samples=9, seed=5))
    for r in rows:
        assert r.passed
        assert r.rhs == 0.0
        if r.aux["proven_shape"]:
            assert r.margin >= -1e-12


def test_margin_passes_scale_logic(monkeypatch):
    assert (report.TOL_ABS, report.TOL_REL) == (1e-12, 1e-10)
    assert margin_passes(-1e-13, 1.0, 1.0)
    assert not margin_passes(-1e-6, 1.0, 1.0)
    # huge scale buys proportional slack
    assert margin_passes(-0.5, 1e12, 1e12)
    assert not margin_passes(math.nan, 1.0, 1.0)
    assert not margin_passes(-1.0, math.inf, 1.0)
    # a finite side against an infinite one: margin -inf
    assert not margin_passes(-math.inf, 1.0, math.inf)
    # the rule reads its constants when called
    monkeypatch.setattr(report, "TOL_REL", 0.0)
    assert not margin_passes(-0.5, 1e12, 1e12)


@pytest.mark.parametrize("suite", ALL_SUITES)
def test_tolerance_reaches_every_suite(suite, monkeypatch):
    # a tolerance no finite margin can meet must fail every clean row, so a
    # row judged by anything but margin_passes shows up as a passing row
    monkeypatch.setattr(report, "TOL_ABS", -1e300)
    rows = run_suite(suite, GridSpec(samples=3, seed=23))
    judged = [r for r in rows
              if r.status == STATUS_OK and math.isfinite(r.margin)]
    assert judged
    for r in judged:
        assert r.passed is False, (suite, r.margin)


def _comparison(z, lhs, rhs, margin, err):
    return {"z": z, "lhs": lhs, "rhs": rhs, "margin": margin, "err": err}


def test_worst_report_picks_smallest_margin():
    # a NaN margin is the worst and fails the row
    rep = worst_report("s", {}, [_comparison(1.0, 2.0, 1.0, 1.0, 0.1),
                                 _comparison(2.0, 1.0, 1.0, math.nan, 0.2)],
                       lambda w: {"worst_z": w["z"]})
    assert rep.z == 2.0 and math.isnan(rep.margin) and rep.err_estimate == 0.2
    assert rep.aux == {"worst_z": 2.0}
    assert rep.passed is False

    # the worst margin passes on its huge scale, but a larger margin on a
    # unit scale misses its own tolerance: the row fails and still shows
    # the smallest-margin comparison
    rep = worst_report("s", {}, [_comparison(3.0, 1.0, 1.0, -1e-6, 0.3),
                                 _comparison(4.0, 1e12, 1e12, -0.5, 0.4)])
    assert (rep.z, rep.lhs, rep.rhs, rep.margin, rep.err_estimate) == (
        4.0, 1e12, 1e12, -0.5, 0.4)
    assert rep.aux is None
    assert rep.passed is False

    rep = worst_report("s", {"k": 1}, [_comparison(5.0, 1.0, 1.0, 0.0, 0.0),
                                       _comparison(6.0, 2.0, 1.0, 1.0, 0.0)])
    assert (rep.suite_id, rep.params_echo, rep.z, rep.margin) == (
        "s", {"k": 1}, 5.0, 0.0)
    assert rep.passed is True


# the generator of each suite's checker -> the public checker that drives it
_PUBLIC = {
    "_turan_alpha": inequalities.turan_alpha_check,
    "_turan_beta": inequalities.turan_beta_check,
    "_corollary3_2f2": inequalities.corollary3_2f2_check,
    "_ratio_monotonicity": inequalities.ratio_monotonicity_check,
    "_tail_turan": inequalities.tail_turan_check,
    "_kn_value_and_bound": inequalities.kn_value_and_bound,
    "_chi": inequalities.chi_check,
    "_lazarevic": inequalities.lazarevic_check,
    "_wilker": inequalities.wilker_check,
    "_logconcavity": inequalities.logconcavity_check,
}


def _instances(suite, spec):
    # every instance's checker generator, as run_suite builds them
    sd = SUITES[suite]
    ranges = suites._resolve_ranges(sd, spec)
    n_inst = -(-spec.samples // sd.rows_per_instance)
    u = suites._unit_matrix(spec, sd.dims, n_inst)
    return [sd.build(iter(u[i].tolist()), i, ranges)
            for i in range(n_inst)]


@pytest.mark.parametrize("suite", ALL_SUITES)
def test_public_checker_gives_the_suite_row_bits(suite):
    # the public checker, called with the arguments the suite drew, returns
    # the suite's row bit for bit: one batch of many instances gives each
    # the same bits as its own batch
    spec = GridSpec(samples=12, seed=3)
    rows = run_suite(suite, spec)
    direct = []
    for gen in _instances(suite, spec):
        args = inspect.getgeneratorlocals(gen)
        res = _PUBLIC[gen.gi_code.co_name](**args)
        gen.close()
        direct.extend(res if isinstance(res, tuple) else [res])
    assert repr(direct[:spec.samples]) == repr(rows)


def test_every_row_has_an_oracle_recipe_and_every_checker_a_suite():
    # the suite ids run_suite emits are exactly the ones hp_margin knows
    spec = GridSpec(samples=3, seed=1)
    emitted = {r.suite_id for s in ALL_SUITES for r in run_suite(s, spec)}
    assert emitted == set(suites._HP)
    # every report checker drives the rows of some suite; kn_ratio and
    # xi_prime are reached through run_explore instead
    backed = {gen.gi_code for s in ALL_SUITES for gen in _instances(s, spec)}
    for name in inequalities.__all__:
        if name not in ("kn_ratio", "xi_prime"):
            checker = getattr(inequalities, name)
            assert checker.__wrapped__.__code__ in backed, name


@pytest.mark.parametrize("suite,bad,kind", [
    # eps = 0.04 at z = 20: the stop rule cannot fire within 10000 terms
    ("turan-beta", lambda: inequalities._turan_beta(
        FoxWrightParams(((1.0, 0.96),), ((1.0, 0.0),)), 20.0),
     "NoConvergenceError"),
    # the second pFq term at z = -1e300 leaves the double range
    ("corollary3-2f2", lambda: inequalities._corollary3_2f2(
        4.0, 1.5, 2.0, -1e300), "OverflowError"),
])
def test_failing_instance_yields_one_failure_row(monkeypatch, suite, bad, kind):
    spec = GridSpec(samples=9, seed=2)
    clean = run_suite(suite, spec)
    sd = SUITES[suite]

    def build(c, i, ranges):
        return bad() if i == 4 else sd.build(c, i, ranges)

    monkeypatch.setitem(SUITES, suite, dataclasses.replace(sd, build=build))
    rows = run_suite(suite, spec)
    assert rows[4].status == STATUS_NUMERICAL_FAILURE
    assert rows[4].params_echo == {"error": kind, "instance": 4}
    assert repr(rows[:4] + rows[5:]) == repr(clean[:4] + clean[5:])


def test_failure_row_index_counts_across_lockstep_groups(monkeypatch):
    # instance 7 runs in the third group of three; its row names index 7
    sd = SUITES["turan-beta"]
    bad = FoxWrightParams(((1.0, 0.96),), ((1.0, 0.0),))

    def build(c, i, ranges):
        if i == 7:
            return inequalities._turan_beta(bad, 20.0)
        return sd.build(c, i, ranges)

    monkeypatch.setattr(suites, "_LOCKSTEP", 3)
    monkeypatch.setitem(SUITES, "turan-beta", dataclasses.replace(sd, build=build))
    rows = run_suite("turan-beta", GridSpec(samples=9, seed=2))
    failed = [i for i, r in enumerate(rows)
              if r.status == STATUS_NUMERICAL_FAILURE]
    assert failed == [7]
    assert rows[7].params_echo == {"error": "NoConvergenceError", "instance": 7}


@pytest.mark.parametrize("suite", ALL_SUITES)
def test_rows_do_not_depend_on_group_or_tile_size(monkeypatch, suite):
    # one lockstep group and full tiles, or one instance a group and one
    # row a block call: every row keeps its bits
    spec = GridSpec(samples=5, seed=17)
    rows = run_suite(suite, spec)
    monkeypatch.setattr(suites, "_LOCKSTEP", 1)
    monkeypatch.setattr(batch, "_TILE_CAP", 1)
    assert repr(run_suite(suite, spec)) == repr(rows)


def _b1_cap_bisection(beta1, off, whi):
    # the sampler's cap as it was first written, on gamma_ratio at every
    # step: the reference for suites._powered_b1_cap
    def load(b):
        e1 = gamma_ratio(beta1, b)
        e2 = e1 * (beta1 + b) / beta1
        return max(e1, e2, 1.0) * ((1.0 + b / beta1) * off + suites._V_MIN)

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


def test_b1_cap_is_the_bisection_on_gamma_ratio_bit_for_bit():
    rng = np.random.default_rng(29)
    early = bisected = 0
    for i in range(2400):
        # beta1 over the default range, near its 0.1 floor, and from 8 on
        # (custom ranges), where gamma_ratio takes its Stirling branch
        beta1 = (rng.uniform(0.1, 5.0), rng.uniform(0.1, 0.11),
                 rng.uniform(8.0, 40.0), 8.0)[i % 4]
        a1, b2 = sorted(rng.uniform(0.1, 5.0, 2))[::-1]
        off = abs(log_gamma(a1) - log_gamma(b2)) * rng.uniform(0.0, 3.0)
        whi = rng.uniform(0.0, 3.0) * (1.0 + 9.0 * (i % 3 == 0))
        ref = _b1_cap_bisection(beta1, off, whi)
        got = suites._powered_b1_cap(beta1, off, whi)
        assert float.hex(got) == float.hex(ref), (beta1, off, whi)
        early += ref == whi
        bisected += ref != whi
    assert early >= 200 and bisected >= 200


@pytest.mark.xfail(strict=True, reason="both sides overflow, inf - inf is "
                   "decided by comparing their logs, and the row passes")
@pytest.mark.parametrize("suite", ["turan-alpha", "turan-beta"])
def test_overflowing_turan_rows_do_not_pass_on_infinite_sides(suite):
    rows = run_suite(suite, GridSpec(samples=300, seed=5))
    for i in (12, 22, 48, 82, 128):
        r = rows[i]
        assert not (r.passed and math.isinf(r.margin)
                    and math.isinf(r.lhs) and math.isinf(r.rhs)), i


# float.hex(hp_margin(row, 30)) of one row per oracle recipe and branch,
# recorded before the recipes summed their series in lockstep (kn-bound:bound
# again once _hp_kn formed its Gamma arguments in mpf):
# (suite, seed, row index in run_suite(suite, GridSpec(samples=6, seed)))
_HP_BITS = {
    "turan-alpha": ("turan-alpha", 2, 4, "0x1.37a1f1d0f5c1bp+3"),
    "turan-beta": ("turan-beta", 4, 1, "0x1.50323d726a84bp-3"),
    "corollary3-2f2": ("corollary3-2f2", 1, 5, "0x1.ab6f13c9bac46p-9"),
    "ratio-monotone:ratio-step": ("ratio-monotone", 3, 1,
                                  "0x1.036248ad528b1p-10"),
    "ratio-monotone:cross": ("ratio-monotone", 1, 5, "0x1.e4e12c5831adep-15"),
    "tail-turan": ("tail-turan", 3, 2, "0x1.82a11e086f20dp-151"),
    "kn-bound:step": ("kn-bound", 1, 0, "0x1.5129f3db33de3p-18"),
    "kn-bound:bound": ("kn-bound", 1, 4, "0x1.0c94711e70c6dp-13"),
    "chi:chi-step": ("chi", 2, 5, "0x1.5eafe4e875455p-6"),
    "chi:omega": ("chi", 4, 2, "0x1.416fccb84926ep-20"),
    "lazarevic": ("lazarevic", 1, 4, "0x1.095c692bd6560p-21"),
    "wilker": ("wilker", 1, 4, "0x1.65701ebad7a7dp-12"),
    "logconcave:midpoint": ("logconcave", 1, 0, "0x1.305dc965b755ep-10"),
    "logconcave:expbound": ("logconcave", 1, 1, "0x1.3e6c454649ba7p-4"),
    "logconcave:deriv": ("logconcave", 1, 2, "0x1.81b5ec7a9dfd6p+0"),
}


def test_hp_margin_keeps_recorded_bits():
    recipes = set()
    for branch, (suite, seed, i, bits) in _HP_BITS.items():
        row = run_suite(suite, GridSpec(samples=6, seed=seed))[i]
        kind = (row.aux or {}).get("worst_kind")
        assert branch in (row.suite_id, f"{row.suite_id}:{kind}")
        assert float.hex(hp_margin(row, 30)) == bits, branch
        recipes.add(row.suite_id)
    assert recipes == set(suites._HP)
