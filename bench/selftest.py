"""Tests of the benchmark's own code.

    python3 bench/selftest.py

Kept out of the package's pytest run (the file name does not match
test_*.py): these check the references, the input generators, the output
checks and the trace accounting, not the package.
"""

from __future__ import annotations

import json
import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import mpmath as mp  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _close(ref, expected: float) -> bool:
    return abs(float(ref) - expected) <= 2e-16 * abs(expected)


class ReferenceTest(unittest.TestCase):

    def test_closed_forms_from_libm(self):
        # sum z^k / k! at z = 1
        self.assertTrue(_close(reference.series_sum((), (), 1.0), math.e))
        # Gamma(1/2) sum (1/4)^k / (k! Gamma(k + 1/2)) = sum 1/(2k)!
        self.assertTrue(_close(reference.short_ref(
            ("wright", 1.0, 0.5, 0.25, True)), math.cosh(1.0)))
        self.assertTrue(_close(reference.short_ref(
            ("bessel_norm", -0.5, 1.0)), math.cosh(1.0)))
        # sum Gamma(1+k)^2 / Gamma(2+k) z^k / k! = -ln(1 - z) / z
        self.assertTrue(_close(reference.series_sum(
            ((1.0, 1.0), (1.0, 1.0)), ((2.0, 1.0),), 0.5), 2 * math.log(2)))

    def test_bessel_anchor(self):
        # sum 1/(k!)^2 = I0(2), by summation and by mpmath's besseli
        summed = reference.series_sum((), ((1.0, 1.0),), 1.0)
        self.assertTrue(mp.nstr(summed, 11).startswith("2.2795853023"))
        with mp.workdps(reference.DPS):
            besseli = reference.short_ref(("bessel_norm", 0.0, 2.0))
            self.assertLess(abs(summed - besseli), mp.mpf(10) ** -45)

    def test_long_refs_of_exp(self):
        # lower pair (1, 0) leaves sum z^k / k! = e^z: d/dz = e^z,
        # d/d(beta_1) = -psi(1) e^z = euler * e^z, tail past k = 3
        z = 2.0
        value, deriv, dbeta, tail = reference.long_refs((), ((1.0, 0.0),),
                                                        z, 3)
        with mp.workdps(reference.DPS):
            ez = mp.exp(z)
            head = sum(mp.mpf(z) ** k / mp.factorial(k) for k in range(4))
            for got, want in ((value, ez), (deriv, ez),
                              (dbeta, mp.euler * ez), (tail, ez - head)):
                self.assertLess(abs(got - want), mp.mpf(10) ** -40 * want)


class GeneratorTest(unittest.TestCase):

    def test_same_seed_same_inputs(self):
        for gen in (wl.short_inputs, wl.long_inputs, wl.check_commands,
                    wl.oracle_sources):
            self.assertEqual(gen(7), gen(7), gen.__name__)
            self.assertNotEqual(gen(7), gen(8), gen.__name__)

    def test_long_inputs_are_long(self):
        import foxwright as fw
        terms = [fw.evaluate(fw.FoxWrightParams(u, l), z).terms_used
                 for u, l, z, _ in wl.long_inputs(1)[:4]]
        self.assertGreaterEqual(min(terms), 150)


class OutputCheckTest(unittest.TestCase):

    def test_eval_output_outside_stated_error_fails(self):
        import foxwright as fw
        inp = ("evaluate", ((1.3, 0.7),), ((0.9, 1.1),), 2.5)
        res = wl.run_short(fw, inp)
        ref = reference.short_ref(inp)
        self.assertTrue(wl.eval_ok(res.value, res.tail_bound,
                                   res.condition_estimate, ref))
        off = 4.0 * wl.stated_error(res.value, res.tail_bound,
                                    res.condition_estimate, ref)
        pushed = fw.EvalResult(res.value + off, res.terms_used,
                               res.tail_bound, res.condition_estimate,
                               res.log_magnitude, res.sign)
        ok, _ = run._verify_eval([res, pushed], [ref, ref])
        self.assertEqual(ok, [True, False])

    def test_infinite_margin_row_fails(self):
        good = {"status": "ok", "pass": True, "lhs": 2.0, "rhs": 1.0,
                "margin": 1.0}
        both_inf = dict(good, lhs=math.inf, rhs=math.inf, margin=math.inf)
        nan = dict(good, margin=math.nan)
        overflowed = dict(good, lhs=math.inf, margin=math.inf)
        self.assertTrue(wl.row_ok(good))
        self.assertTrue(wl.row_ok(overflowed))
        self.assertFalse(wl.row_ok(both_inf))
        self.assertFalse(wl.row_ok(nan))
        cmd = ("turan-alpha", 2, 5)
        text = json.dumps({"seed": 5, "rows": [good, both_inf]})
        self.assertFalse(wl.check_output_ok(cmd, 0, text))
        self.assertTrue(wl.check_output_ok(
            cmd, 0, json.dumps({"seed": 5, "rows": [good, good]})))
        self.assertFalse(wl.check_output_ok(
            cmd, 1, json.dumps({"seed": 5, "rows": [good, good]})))

    def test_known_fault_command_fails(self):
        import foxwright as fw
        import foxwright.cli  # noqa: F401
        cmd = ("turan-alpha", 13, 5)
        self.assertFalse(wl.check_output_ok(cmd, *wl.run_check(fw, cmd)))


class TraceTest(unittest.TestCase):

    def test_self_times_add_up(self):
        import foxwright as fw
        ops = [(wl.run_short, (fw, inp)) for inp in wl.short_inputs(3)[:20]]
        tracer = tracing.Tracer()
        tracer.install(fw)
        try:
            wall, _, _, _ = run._run_rounds(ops, 1)
        finally:
            tracer.uninstall()
        m = {k: v["value"]
             for k, v in tracer.metrics(wall, 1.0, wall).items()}
        layers = sum(tracer.layer_self(lay) for lay in tracing.LAYERS)
        self.assertAlmostEqual(layers + m["bench.self_s"], wall, places=9)
        self.assertGreater(m["series.terms"], 0)
        self.assertGreater(m["gammakit.log_gamma.calls"], 0)
        self.assertIs(fw.series.log_gamma, fw.gammakit.log_gamma)


if __name__ == "__main__":
    unittest.main()
