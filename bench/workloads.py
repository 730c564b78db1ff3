"""Inputs, operations and output checks of the benchmark workloads.

Every generator is a pure function of the workload seed and returns plain
Python data (floats, tuples, strings), so the references in ``reference.py``
can be computed from the same inputs without importing the package.  The
package itself is passed to the operations as ``fw`` (the imported
``foxwright`` module), which lets the traced pass run the same operations
through wrapped entry points.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

WORKLOADS = ("eval-short", "eval-long", "check", "oracle")

# ---------------------------------------------------------------------------
# Shared draws


def _lhs(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """Latin-hypercube unit draws: each column puts one point in each of n
    equal strata, which keeps the spread of a round's cost across seeds
    far below that of plain uniform draws."""
    strata = np.stack([rng.permutation(n) for _ in range(dims)], axis=1)
    return (strata + rng.random((n, dims))) / n


def _span(u: float, lo: float, hi: float) -> float:
    return lo + float(u) * (hi - lo)


def _solve_upper_weights(lower_w: list[float], p: int, eps: float,
                         u: float) -> list[float]:
    """Upper weights giving 1 + sum(B) - sum(A) = eps, split by fraction u."""
    total = 1.0 + math.fsum(lower_w) - eps
    if p == 1:
        return [total]
    return [u * total, (1.0 - u) * total]


def saddle_z(upper: tuple, lower: tuple, eps: float, v: float) -> float:
    """Argument at which the series has log-magnitude about v.

    The log of the series grows like eps * k(z) with peak index
    k(z) = (z prod A^A / prod B^B)^(1/eps).
    """
    s = eps * math.log(v / eps)
    s += math.fsum(w * math.log(w) for _, w in lower if w > 0.0)
    s -= math.fsum(w * math.log(w) for _, w in upper if w > 0.0)
    return math.exp(s)


# ---------------------------------------------------------------------------
# eval-short: single library calls at |z| <= 3, both signs

SHORT_PER_KIND = 100
SHORT_KINDS = ("evaluate", "pFq", "mittag_leffler", "wright", "bessel_norm")
_SHORT_SHAPES = ((0, 1), (1, 1), (1, 2), (2, 1), (2, 2), (0, 2))
_PFQ_SHAPES = ((0, 1), (1, 1), (1, 2), (2, 2), (0, 2))
# log-magnitude the series may reach at the drawn |z|: keeps every term
# and value far inside the double range
_SHORT_V = 40.0


def _signed_z(u: float, i: int, cap: float = 3.0) -> float:
    mag = min(3.0, cap) * _span(u, 0.01 / 3.0, 1.0)
    return -mag if i % 2 else mag


def _short_evaluate(u: np.ndarray, i: int) -> tuple:
    p, q = _SHORT_SHAPES[i % len(_SHORT_SHAPES)]
    lower_w = [_span(u[2 + j], 0.0, 1.5) for j in range(q)]
    eps = _span(u[0], 0.3, 2.0)
    if p == 0:
        upper_w = []
    else:
        eps = min(eps, 1.0 + math.fsum(lower_w))
        upper_w = _solve_upper_weights(lower_w, p, eps, u[1])
    upper = tuple((_span(u[4 + j], 0.1, 5.0), upper_w[j]) for j in range(p))
    lower = tuple((_span(u[6 + j], 0.1, 5.0), lower_w[j]) for j in range(q))
    cap = saddle_z(upper, lower, eps, _SHORT_V)
    return ("evaluate", upper, lower, _signed_z(u[9], i, cap))


def _short_pfq(u: np.ndarray, i: int) -> tuple:
    p, q = _PFQ_SHAPES[i % len(_PFQ_SHAPES)]
    a = tuple(_span(u[j], 0.1, 5.0) for j in range(p))
    b = tuple(_span(u[2 + j], 0.1, 5.0) for j in range(q))
    return ("pFq", a, b, _signed_z(u[9], i))


def _short_ml(u: np.ndarray, i: int) -> tuple:
    pairs = tuple((_span(u[j], 0.1, 2.0), _span(u[2 + j], 0.1, 5.0))
                  for j in range(1 + (i // 2) % 2))
    eps = math.fsum(w for w, _ in pairs)
    cap = saddle_z(((1.0, 1.0),), tuple((b, w) for w, b in pairs), eps,
                   _SHORT_V)
    return ("mittag_leffler", pairs, _signed_z(u[9], i, cap))


def _short_wright(u: np.ndarray, i: int) -> tuple:
    return ("wright", _span(u[0], 0.05, 2.0), _span(u[1], 0.1, 5.0),
            _signed_z(u[9], i), (i // 2) % 2 == 0)


def _short_bessel(u: np.ndarray, i: int) -> tuple:
    return ("bessel_norm", _span(u[0], -0.9, 5.0), _signed_z(u[9], i))


_SHORT_DRAW = {
    "evaluate": _short_evaluate,
    "pFq": _short_pfq,
    "mittag_leffler": _short_ml,
    "wright": _short_wright,
    "bessel_norm": _short_bessel,
}


# warm-up inputs, fixed so that setup_s does not depend on the seed
SHORT_WARM = (("evaluate", ((1.3, 0.7),), ((0.9, 1.1),), 2.5),
              ("pFq", (1.0,), (2.0,), 1.0),
              ("mittag_leffler", ((0.8, 1.2),), -1.5),
              ("wright", 0.75, 1.25, 1.5, True),
              ("bessel_norm", -0.5, 1.0))


def short_inputs(seed: int) -> list[tuple]:
    rng = np.random.default_rng([seed, 1])
    draws = {kind: _lhs(rng, SHORT_PER_KIND, 10) for kind in SHORT_KINDS}
    return [_SHORT_DRAW[kind](draws[kind][i], i)
            for i in range(SHORT_PER_KIND) for kind in SHORT_KINDS]


def run_short(fw, inp: tuple):
    kind = inp[0]
    if kind == "evaluate":
        return fw.evaluate(fw.FoxWrightParams(inp[1], inp[2]), inp[3])
    if kind == "pFq":
        return fw.pFq(fw.HypergeometricParams(inp[1], inp[2]), inp[3])
    if kind == "mittag_leffler":
        return fw.mittag_leffler(fw.MittagLefflerParams(inp[1]), inp[2])
    if kind == "wright":
        return fw.wright(inp[1], inp[2], inp[3], normalized=inp[4])
    return fw.bessel_norm(inp[1], inp[2])


# ---------------------------------------------------------------------------
# eval-long: z >= 0 near the saddle-point cap, small eps, 200-2000+ terms

LONG_INPUTS = 24
LONG_CALLS = ("evaluate", "derivative", "dbeta1", "evaluate_tail")
_LONG_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2))


# warm-up input (about 370 terms), fixed so that setup_s does not depend
# on the seed
LONG_WARM = (((1.5, 1.2),), ((2.0, 0.9),),
             saddle_z(((1.5, 1.2),), ((2.0, 0.9),), 0.7, 150.0), 5)


def long_inputs(seed: int) -> list[tuple]:
    """(upper, lower, z, n) tuples; n is the section index of the tail call."""
    rng = np.random.default_rng([seed, 2])
    u = _lhs(rng, LONG_INPUTS, 10)
    # the term count grows like V / eps: pair the eps and V strata in a
    # fixed order (7 is prime to 24), so that the spread of term counts,
    # and with it op_p50_ms and op_p90_ms, does not hang on the seed
    jitter = rng.random((LONG_INPUTS, 2))
    strata = np.arange(LONG_INPUTS)
    u[:, 0] = (strata + jitter[:, 0]) / LONG_INPUTS
    u[:, 8] = ((7 * strata) % LONG_INPUTS + jitter[:, 1]) / LONG_INPUTS
    out = []
    for i in range(LONG_INPUTS):
        p, q = _LONG_SHAPES[i % len(_LONG_SHAPES)]
        lower_w = [_span(u[i, 2 + j], 0.2, 2.0) for j in range(q)]
        eps = _span(u[i, 0], 0.15, 0.6)
        upper_w = _solve_upper_weights(lower_w, p, eps, u[i, 1])
        upper = tuple((_span(u[i, 4 + j], 0.5, 5.0), upper_w[j])
                      for j in range(p))
        lower = tuple((_span(u[i, 6 + j], 0.5, 5.0), lower_w[j])
                      for j in range(q))
        v = _span(u[i, 8], 150.0, 400.0)
        n = int(u[i, 9] * 31)
        out.append((upper, lower, saddle_z(upper, lower, eps, v), n))
    return out


def run_long(fw, call: str, inp: tuple):
    upper, lower, z, n = inp
    params = fw.FoxWrightParams(upper, lower)
    if call == "evaluate":
        return fw.evaluate(params, z)
    if call == "derivative":
        return fw.derivative(params, z)
    if call == "dbeta1":
        return fw.dbeta1(params, z)
    return fw.evaluate_tail(params, fw.TailSpec(n), z)


# ---------------------------------------------------------------------------
# Checks of eval outputs against the independent references

DIGITS_CAP = 17.0


def stated_error(value: float, tail_bound: float, condition: float,
                 ref) -> float:
    """The error an eval output may carry: the package's own charge (tail
    bound plus condition-scaled rounding) plus 1e-13 relative."""
    return (tail_bound + 1e-14 * condition * abs(value)
            + 1e-13 * abs(float(ref)))


def eval_ok(value: float, tail_bound: float, condition: float, ref) -> bool:
    if not math.isfinite(value):
        return False
    return abs(value - ref) <= stated_error(value, tail_bound, condition, ref)


def digits(err, scale) -> float:
    """-log10(err / scale), capped at DIGITS_CAP."""
    if err == 0:
        return DIGITS_CAP
    if scale == 0 or not math.isfinite(float(scale)):
        return 0.0
    return min(DIGITS_CAP, -math.log10(float(abs(err) / abs(scale))))


# ---------------------------------------------------------------------------
# check: in-process `foxwright check` commands

# Suites whose row cost is steady enough to draw every command from the
# workload seed: (suite, samples) sized to 60-95 ms a command, so each
# suite takes a similar share of a round and op_p50_ms sits inside one
# cluster of command times rather than between two.
CHECK_DRAWN = (("kn-bound", 44), ("lazarevic", 70), ("wilker", 70),
               ("logconcave", 96), ("tail-turan", 280),
               ("corollary3-2f2", 650))
CHECK_DRAWN_COMMANDS = 16
# Suites run at pinned seeds: one ratio-monotone or chi row costs from
# 20 ms to over a second depending on the draw, so commands drawn from the
# workload seed would spread a round's time by 25-50% between seeds.
# These nine commands and the two fault commands are the eleven slowest
# ops, each over 150 ms, so op_p90_ms (the eleventh largest of 107) is the
# time of one fixed command rather than of whichever drawn one is slowest.
CHECK_PINNED = tuple([("ratio-monotone", 6, s) for s in (1, 2, 3)]
                     + [("chi", 8, s) for s in (1, 2, 3, 4, 5, 6)])
# The two commands that carry the known fault: at seed 5 rows 12, 22, 48,
# 82 and 128 of both Turan suites have lhs = rhs = margin = inf.
CHECK_FAULT = (("turan-alpha", 150, 5), ("turan-beta", 150, 5))


def check_commands(seed: int) -> list[tuple[str, int, int]]:
    rng = np.random.default_rng([seed, 3])
    drawn = [(suite, n, int(s))
             for suite, n in CHECK_DRAWN
             for s in rng.integers(0, 2**31 - 1, CHECK_DRAWN_COMMANDS)]
    return list(CHECK_FAULT) + list(CHECK_PINNED) + drawn


def check_argv(cmd: tuple[str, int, int]) -> list[str]:
    suite, n, s = cmd
    return ["check", "--suite", suite, "--samples", str(n), "--seed", str(s),
            "--format", "json"]


def run_check(fw, cmd: tuple[str, int, int]) -> tuple[int, str]:
    """One `foxwright check` command; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fw.cli.main(check_argv(cmd))
    return code, out.getvalue()


def row_ok(row: dict) -> bool:
    """A clean, passing row whose margin is a number.

    An infinite margin is accepted only when at least one side is finite:
    then it is the overflowed value of a real difference.  With both sides
    infinite the checker decided inf - inf by a bare log comparison, which
    is the known fault.
    """
    if row["status"] != "ok" or row["pass"] is not True:
        return False
    m = row["margin"]
    if math.isnan(m):
        return False
    return not (math.isinf(m) and math.isinf(row["lhs"])
                and math.isinf(row["rhs"]))


def check_output_ok(cmd: tuple[str, int, int], code: int, text: str) -> bool:
    if code != 0:
        return False
    rows = json.loads(text)["rows"]
    return len(rows) == cmd[1] and all(row_ok(r) for r in rows)


# ---------------------------------------------------------------------------
# oracle: hp_margin on rows picked as `foxwright check --digits` picks them

ORACLE_DIGITS = 30
# (suite, samples, seed or None for a seed drawn from the workload seed)
ORACLE_SOURCES = ((("turan-alpha", 20, 5), ("turan-beta", 20, 5),
                   ("ratio-monotone", 10, 1), ("chi", 10, 1))
                  + tuple((suite, n, None) for suite, n in CHECK_DRAWN))


def oracle_sources(seed: int) -> list[tuple[str, int, int, int]]:
    """(suite, samples, seed, rows to pick).  Twenty rows are picked from a
    drawn source, so op_p50_ms rests on many drawn rows; ten from a pinned
    one."""
    rng = np.random.default_rng([seed, 4])
    drawn = rng.integers(0, 2**31 - 1, len(ORACLE_SOURCES))
    return [(suite, n, s, 10) if s is not None else (suite, n, int(d), 20)
            for (suite, n, s), d in zip(ORACLE_SOURCES, drawn)]


def spot_rows(rows: list, k: int) -> list:
    """Up to k clean rows at an even stride, as the CLI spot check picks
    its ten."""
    clean = [r for r in rows if r.status == "ok"]
    if not clean:
        return []
    k = min(k, len(clean))
    stride = len(clean) / k
    return [clean[int(j * stride)] for j in range(k)]


def oracle_rows(fw, seed: int) -> list:
    out = []
    for suite, n, s, k in oracle_sources(seed):
        out.extend(spot_rows(fw.run_suite(suite, fw.GridSpec(samples=n,
                                                             seed=s)), k))
    return out


def run_oracle(fw, row) -> float:
    return fw.hp_margin(row, ORACLE_DIGITS)


def oracle_ok(fw, row, hp: float) -> bool:
    """Agreement within the CLI spot-check tolerance, and a margin the
    paper's theorems allow: hp >= -(TOL_ABS + TOL_REL * scale)."""
    m = row.margin
    if math.isinf(m) or math.isinf(hp):
        agree = m == hp
    else:
        tol = max(1e-6 * max(abs(hp), abs(m)), 1e-12, 10.0 * row.err_estimate)
        agree = abs(hp - m) <= tol
    scale = max(abs(row.lhs), abs(row.rhs))
    if not math.isfinite(scale):
        scale = 0.0
    return agree and hp >= -(fw.TOL_ABS + fw.TOL_REL * scale)


def margin_digits(margin: float, hp: float, lhs: float, rhs: float) -> float:
    """Digits of a margin against the oracle, relative to the larger of
    the compared sides."""
    if margin == hp:
        return DIGITS_CAP
    if not (math.isfinite(margin) and math.isfinite(hp)):
        return 0.0
    scale = max(abs(hp), abs(lhs) if math.isfinite(lhs) else 0.0,
                abs(rhs) if math.isfinite(rhs) else 0.0)
    return digits(abs(margin - hp), scale)
