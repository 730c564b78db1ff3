"""Acceptance gate: the ten shipping criteria, one test each.

Every test enforces its stated tolerance and runtime budget and prints a
single [criterion N] PASS line on success, so a captured log reads as a
checklist.  Reference targets are either recomputed on the spot through an
independent route (the high-precision oracle, libm closed forms) or are
well-known decimal anchors quoted to the asserted accuracy.
"""

import math
import time

import numpy as np

from foxwright import (
    FoxWrightParams,
    GridSpec,
    HypergeometricParams,
    MittagLefflerParams,
    dbeta1,
    derivative,
    evaluate,
    hp_eval,
    kn_ratio,
    kn_value_and_bound,
    kummer_2f2_pair,
    lazarevic_check,
    mittag_leffler,
    ml_derivative_identity_check,
    pFq,
    run_suite,
    turan_beta_check,
    wilker_check,
    wright,
)
from foxwright.cli import main as cli_main
from foxwright.report import STATUS_OK

SEED = 20260819


def _ok(n, t0):
    print(f"[criterion {n}] PASS ({time.monotonic() - t0:.1f}s)")


def _rel(got, ref):
    return abs(got - ref) / max(1e-300, abs(ref))


def test_criterion_01_closed_form_reductions():
    t0 = time.monotonic()
    cases = []

    hp_e = float(hp_eval(FoxWrightParams(), 1.0, digits=30)[0])
    cases.append(("e", evaluate(FoxWrightParams(), 1.0).value, hp_e))

    cosh1 = mittag_leffler(MittagLefflerParams(((2.0, 1.0),)), 1.0).value
    cases.append(("cosh 1", cosh1, math.cosh(1.0)))
    assert f"{cosh1:.10f}".startswith("1.5430806348")

    sinh1 = mittag_leffler(MittagLefflerParams(((2.0, 2.0),)), 1.0).value
    cases.append(("sinh 1", sinh1, math.sinh(1.0)))
    assert f"{sinh1:.10f}".startswith("1.1752011936")

    # 2F1(1, 1; 2; 1/2) = -log(1/2)/(1/2) = 2 log 2
    log2x2 = pFq(HypergeometricParams((1.0, 1.0), (2.0,)), 0.5).value
    cases.append(("2 ln 2", log2x2, 2.0 * math.log(2.0)))
    assert f"{log2x2:.10f}".startswith("1.3862943611")

    hp_i0 = float(hp_eval(FoxWrightParams((), ((1.0, 1.0),)), 1.0, 30)[0])
    i0 = wright(1.0, 1.0, 1.0).value
    cases.append(("I0(2)", i0, hp_i0))
    assert f"{i0:.10f}".startswith("2.2795853023")

    hp_i1 = float(hp_eval(FoxWrightParams((), ((2.0, 1.0),)), 1.0, 30)[0])
    i1 = wright(1.0, 2.0, 1.0).value
    cases.append(("I1(2)", i1, hp_i1))
    assert f"{i1:.10f}".startswith("1.5906368546")

    for name, got, ref in cases:
        assert _rel(got, ref) <= 1e-12, (name, got, ref)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _ok(1, t0)


def _draw_params(rng):
    """One random admissible parameter set: p, q <= 3, values in (0.1, 5],
    weights in [0, 3], epsilon > 0, and a term count small enough that the
    stop rule can fire inside the default budget."""
    while True:
        p = int(rng.integers(0, 4))
        q = int(rng.integers(0, 4))
        upper = tuple((5.0 - 4.9 * rng.random(), 3.0 * rng.random())
                      for _ in range(p))
        lower = tuple((5.0 - 4.9 * rng.random(), 3.0 * rng.random())
                      for _ in range(q))
        params = FoxWrightParams(upper=upper, lower=lower)
        eps = params.epsilon()
        if eps <= 0.05:
            continue
        z = 10.0 * (1.0 - rng.random())
        # peak-term location of the series; beyond ~2000 the default
        # 10000-term budget cannot certify the tail, and the value's
        # log-magnitude (about eps * peak) must stay inside the double range
        log_ratio = (math.log(z)
                     + sum(w * math.log(w) for _, w in upper if w > 0.0)
                     - sum(w * math.log(w) for _, w in lower if w > 0.0))
        if log_ratio / eps > math.log(2000.0):
            continue
        if eps * math.exp(max(log_ratio, 0.0) / eps) > 600.0:
            continue
        return params, z


def test_criterion_02_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        params, z = _draw_params(rng)
        fast = evaluate(params, z)
        slow = float(hp_eval(params, z, digits=30)[0])
        assert abs(fast.value - slow) <= fast.tail_bound + 1e-13 * abs(slow), \
            (params, z, fast.value, slow)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _ok(2, t0)


def test_criterion_03_inequality_suites():
    t0 = time.monotonic()
    suites = ("turan-alpha", "turan-beta", "tail-turan", "kn-bound",
              "lazarevic", "wilker", "logconcave")
    for suite in suites:
        rows = run_suite(suite, GridSpec(samples=1000, seed=SEED))
        assert len(rows) == 1000
        bad = [r for r in rows if r.status != STATUS_OK or not r.passed]
        assert not bad, (suite, bad[:3])
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _ok(3, t0)


def test_criterion_04_monotonicity_suites():
    t0 = time.monotonic()
    for suite in ("ratio-monotone", "chi"):
        rows = run_suite(suite, GridSpec(samples=200, seed=SEED))
        assert len(rows) == 200
        for r in rows:
            assert r.status == STATUS_OK and r.passed, (suite, r.z, r.margin)

    # every fifth kn-bound instance carries a 20-point grid; 1000 samples
    # yield exactly 200 gridded instances
    rows = run_suite("kn-bound", GridSpec(samples=1000, seed=SEED + 1))
    gridded = [r for r in rows if r.aux and "k_values" in r.aux]
    assert len(gridded) == 200
    for r in gridded:
        assert r.status == STATUS_OK and r.passed
        ks = r.aux["k_values"]
        assert len(ks) == 20
        for a, b in zip(ks, ks[1:]):
            assert b >= a - (1e-12 + 1e-9 * abs(a)), (r.params_echo, ks)
    elapsed = time.monotonic() - t0
    assert elapsed < 180.0
    _ok(4, t0)


def test_criterion_05_sharp_constant():
    t0 = time.monotonic()
    q1 = FoxWrightParams(upper=(), lower=((1.0, 1.0),))
    assert abs(kn_ratio(q1, 0, 1e-6) - 4.0 / 9.0) <= 1e-4
    grid = [10.0 * (i + 1) / 50 for i in range(50)]
    rep = kn_value_and_bound(q1, 0, z_grid=grid)
    assert rep.passed
    ks = rep.aux["k_values"]
    for a, b in zip(ks, ks[1:]):
        assert b >= a - (1e-12 + 1e-9 * abs(a))
    _ok(5, t0)


def test_criterion_06_derivative_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 2)

    def draw_shape():
        while True:
            p = int(rng.integers(0, 3))
            q = int(rng.integers(1, 3))
            upper = tuple((0.5 + 3.0 * rng.random(), 0.2 + 1.3 * rng.random())
                          for _ in range(p))
            lower = tuple((0.5 + 3.0 * rng.random(), 0.2 + 1.3 * rng.random())
                          for _ in range(q))
            params = FoxWrightParams(upper=upper, lower=lower)
            if params.epsilon() > 0.3:
                return params

    def finite_difference(f, x, h):
        # central difference (f(x+h) - f(x-h)) / (2h)
        return (f(x + h) - f(x - h)) / (2 * h)

    for _ in range(100):
        params = draw_shape()
        z = float(rng.uniform(-3.0, 3.0))
        if abs(z) < 0.1:
            z = 0.5
        h = 1e-4 * max(1.0, abs(z))
        d = derivative(params, z).value
        fd = finite_difference(lambda t: evaluate(params, t).value, z, h)
        assert abs(d - fd) <= 1e-6 * max(abs(d), abs(fd), 1.0), (params, z)

    for _ in range(100):
        params = draw_shape()
        z = float(rng.uniform(0.2, 2.5))
        b1 = params.lower[0][0]
        h = 1e-4 * max(1.0, b1)
        d = dbeta1(params, z).value
        fd = finite_difference(
            lambda v: evaluate(params.with_lower_value(0, v), z).value, b1, h)
        assert abs(d - fd) <= 1e-6 * max(abs(d), abs(fd), 1.0), (params, z)

    for _ in range(100):
        B = 0.3 + 2.2 * float(rng.random())
        beta = 1.2 + 2.3 * float(rng.random())
        z = float(rng.uniform(-2.0, 2.0))
        if abs(z) < 0.05:
            z = 1.0
        rep = ml_derivative_identity_check(B, beta, z)
        assert rep.passed, (B, beta, z, rep.margin)
    _ok(6, t0)


def test_criterion_07_kummer_transform():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 3)
    done = 0
    while done < 100:
        a = 0.1 + 2.9 * float(rng.random())
        b = 0.1 + 2.9 * float(rng.random())
        c = 0.1 + 2.9 * float(rng.random())
        z = -2.0 * (1.0 - float(rng.random()))
        if abs(a - c) < 0.05 or z == 0.0:
            continue
        f1 = c * (1.0 + a - b) / (a - c)
        if f1 < 0.05:
            continue
        lhs, rhs = kummer_2f2_pair(a, b, c, z)
        assert _rel(lhs.value, rhs.value) <= 1e-10, (a, b, c, z)
        done += 1

    lhs, rhs = kummer_2f2_pair(1.0, 3.0, 2.0, 1.0)
    for side in (lhs.value, rhs.value):
        assert _rel(side, math.e - 1.0) <= 1e-10
        assert f"{side:.10f}".startswith("1.7182818285")
    _ok(7, t0)


def test_criterion_08_tightness_witnesses():
    t0 = time.monotonic()
    shapes = (
        FoxWrightParams(upper=(), lower=((1.0, 1.0),)),
        FoxWrightParams(upper=((1.3, 0.7),), lower=((0.9, 1.1), (1.7, 0.8))),
        FoxWrightParams(upper=((2.0, 1.0),), lower=((1.5, 2.0),)),
    )
    for params in shapes:
        assert abs(turan_beta_check(params, 0.0).margin) <= 1e-14
    for a1, b1, b2, w in ((2.5, 1.3, 0.9, 1.2), (1.1, 0.7, 1.1, 0.4),
                          (4.0, 2.2, 2.0, 2.0)):
        assert abs(lazarevic_check(a1, b1, b2, w, 1e-8).margin) <= 1e-6
        assert abs(wilker_check(a1, b1, b2, w, 1e-8).margin) <= 1e-6
    _ok(8, t0)


def test_criterion_09_hyperbolic_anchors():
    t0 = time.monotonic()
    cosh1 = mittag_leffler(MittagLefflerParams(((2.0, 1.0),)), 1.0).value
    sinh1 = mittag_leffler(MittagLefflerParams(((2.0, 2.0),)), 1.0).value
    tanh1 = sinh1 / cosh1

    # recompute both decimal targets from the hyperbolic series (libm)
    # before asserting, per the criterion's own instruction; the margins
    # are then required to sit within 1e-6 of those recomputed targets
    target_lazarevic = math.sinh(1.0) ** 3 - math.cosh(1.0)
    target_wilker = math.sinh(1.0) ** 2 + math.tanh(1.0) - 2.0

    margin_lazarevic = sinh1 ** 3 - cosh1
    margin_wilker = sinh1 ** 2 + tanh1 - 2.0

    assert margin_lazarevic >= 0.0  # cosh 1 <= (sinh 1)^3
    assert abs(margin_lazarevic - target_lazarevic) <= 1e-6
    assert abs(margin_wilker - target_wilker) <= 1e-6
    assert abs(target_wilker - 0.1426920) <= 1e-6
    _ok(9, t0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.monotonic()
    a, b = tmp_path / "run1.csv", tmp_path / "run2.csv"
    for path in (a, b):
        code = cli_main(["check", "--suite", "turan-beta", "--seed", "42",
                         "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    _ok(10, t0)
