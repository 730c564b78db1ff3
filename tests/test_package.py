"""The package surface: one export list; an import that loads the
evaluation layer alone, with the verification layer (and mpmath) bound in
full on the first access to any other name, and the batch kernels and the
command line only when used; an oracle that shares no code with the
engine; and the argument errors of the public calls."""

import ast
import dataclasses
import inspect
import math
import os
import re
import subprocess
import sys

import pytest

import foxwright
from foxwright import (
    errors,
    functions,
    gammakit,
    inequalities,
    oracle,
    report,
    series,
    suites,
)

MODULES = (errors, gammakit, series, functions, inequalities, oracle, report,
           suites)


# what a plain import leaves out; the first four load with the verification
# layer, the last two only when used
DEFERRED = ("mpmath", "foxwright.inequalities", "foxwright.oracle",
            "foxwright.suites", "foxwright.batch", "foxwright.cli")


def _fresh(code):
    """stdout of code run in a fresh interpreter, which imports foxwright
    from where this process found it, not from an installed copy."""
    src = os.path.dirname(os.path.dirname(foxwright.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env).stdout


def test_import_leaves_batch_and_cli_unloaded():
    code = ("import sys, foxwright; "
            f"print(sorted(m for m in {DEFERRED!r} if m in sys.modules))")
    assert _fresh(code).strip() == "[]"


def test_single_pfq_and_bessel_calls_leave_batch_unloaded():
    # they sum by the scalar recurrence, or over a saddle window
    code = ("import sys; from foxwright import HypergeometricParams as H, "
            "bessel_norm, pFq, pfq_direct; "
            "pFq(H((1.3, 2.2), (0.7, 3.1)), -2.1); pFq(H((0.1,), (5.0,)), 730.0); "
            "pFq(H((0.5, 1.0), (1.5,)), 0.3); bessel_norm(0.5, 2.0); "
            "bessel_norm(2.5, 300.0); pfq_direct((-2.0, 1.0), (1.0,), 0.5); "
            "print('foxwright.batch' in sys.modules)")
    assert _fresh(code).strip() == "False"


def test_cli_eval_leaves_the_verification_layer_unloaded(tmp_path):
    # eval sums one series; check, sweep, explore and --suite's help load
    # the verification layer when they run
    params = tmp_path / "params.json"
    params.write_text('{"upper": [[1.5, 0.7]], "lower": [[2.5, 1.2]]}')
    code = ("import sys; from foxwright.cli import main; "
            f"main(['eval', '--params', {str(params)!r}, '--z', '2.0']); "
            f"print(sorted(m for m in {DEFERRED[:4]!r} if m in sys.modules))")
    assert _fresh(code).splitlines()[-1] == "[]"


# a first access in a fresh interpreter: it finds the verification layer
# unloaded and leaves every export bound in the package namespace as its
# module's own object and listed by dir(), with cli and batch neither bound
# nor loaded
_FIRST_ACCESS = """
import importlib, sys
import foxwright
print(sorted(m for m in {deferred!r} if m in sys.modules))
{access}
bad = [n for n in foxwright.__all__
       if n not in vars(foxwright) or n not in dir(foxwright)]
for name in {modules!r}:
    mod = importlib.import_module("foxwright." + name)
    bad += [n for n in mod.__all__
            if vars(foxwright).get(n) is not getattr(mod, n)]
print(bad, hasattr(foxwright, "cli"), hasattr(foxwright, "batch"))
print(sorted(m for m in {deferred!r} if m in sys.modules))
"""


@pytest.mark.parametrize("access", [
    "foxwright.run_suite",
    "from foxwright import *",
    "dir(foxwright)",
    "foxwright.__all__",
])
def test_first_access_binds_every_export(access):
    code = _FIRST_ACCESS.format(
        access=access, deferred=DEFERRED,
        modules=[m.__name__.split(".")[1] for m in MODULES])
    assert _fresh(code).splitlines() == [
        "[]",
        "[] False False",
        "['foxwright.inequalities', 'foxwright.oracle', 'foxwright.suites', "
        "'mpmath']",
    ], access


def test_all_is_the_union_of_the_module_lists():
    names = foxwright.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(foxwright, name), name
    union = {"__version__"}
    for mod in MODULES:
        assert len(mod.__all__) == len(set(mod.__all__)), mod.__name__
        for name in mod.__all__:
            assert getattr(foxwright, name) is getattr(mod, name), name
        union.update(mod.__all__)
    assert set(names) == union
    assert {"Request", "PfqRequest", "evaluate_batch"} <= union


def test_no_public_call_takes_a_summation_config():
    # single calls raise past the double range and evaluate_batch sums in
    # log mode, each with the fixed term budget: nothing to configure
    assert "EvalConfig" not in foxwright.__all__
    assert not hasattr(foxwright, "EvalConfig")
    for name in foxwright.__all__:
        obj = getattr(foxwright, name)
        # the error classes have no signature
        if not callable(obj) or isinstance(obj, type) and issubclass(
                obj, Exception):
            continue
        assert "cfg" not in inspect.signature(obj).parameters, name


def test_public_checkers_have_their_generators_signature_and_doc():
    for name in inequalities.__all__:
        fn = getattr(inequalities, name)
        params = inspect.signature(fn).parameters
        assert "cfg" not in params, name
        assert fn.__doc__ and fn.__doc__.strip(), name
    sig = inspect.signature(foxwright.turan_beta_check)
    assert list(sig.parameters) == ["params", "z"]


def _imports(module):
    """(module, name) for each import in a package module's source, with
    relative modules made absolute and name None for a plain import."""
    path = os.path.join(os.path.dirname(foxwright.__file__), module + ".py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.name, None) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(["foxwright"] + ([base] if base else []))
            for a in node.names:
                # "from . import oracle" imports the module foxwright.oracle
                if node.module is None:
                    out.append((f"{base}.{a.name}", None))
                else:
                    out.append((base, a.name))
    return out


def test_engine_and_oracle_share_no_code():
    # the oracle checks the engine only while neither is built on the other,
    # and a margin recipe checks a checker only while it borrows none of it
    for module in ("series", "batch", "gammakit", "ddmath", "window"):
        for mod, name in _imports(module):
            assert mod.split(".")[0] != "mpmath", (module, mod)
            assert mod != "foxwright.oracle", (module, mod, name)
    for mod, name in _imports("oracle"):
        if mod.split(".")[0] == "foxwright" and mod != "foxwright.errors":
            assert (mod, name) == ("foxwright.series", "FoxWrightParams"), (
                mod, name)
    checker = {name for mod, name in _imports("suites")
               if mod == "foxwright.inequalities"}
    with open(suites.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    recipes = [f for f in tree.body if isinstance(f, ast.FunctionDef)
               and f.name.startswith("_hp_")]
    assert checker and {"_hp_turan", "_hp_ratio"} <= {f.name for f in recipes}
    for fn in recipes:
        used = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
        assert not used & checker, (fn.name, sorted(used & checker))


_P = foxwright.FoxWrightParams(((1.5, 0.7),), ((2.5, 1.2),))
_NO_LOWER = foxwright.FoxWrightParams(((1.5, 0.0),), ())
_ONE_LOWER = foxwright.FoxWrightParams((), ((1.0, 1.0),))
_LOGCONCAVE = foxwright.FoxWrightParams(((1.0, 1.0),), ((1.0, 1.0), (2.0, 1.0)))


def _failure_row():
    return dataclasses.replace(foxwright.turan_alpha_check(_P, 0.5),
                               status=report.STATUS_NUMERICAL_FAILURE)


# (call, error type name, message) for argument checks that no other test
# reaches
ARGUMENT_ERRORS = {
    "grid-not-increasing": (
        lambda fw: fw.ratio_monotonicity_check(_P, "beta", 1.0, 2.0,
                                               [1.0, 0.5]),
        "GridError", "z grid must be strictly increasing, got 1.0 >= 0.5"),
    "grid-non-finite": (
        lambda fw: fw.ratio_monotonicity_check(_P, "beta", 1.0, 2.0,
                                               [0.5, math.inf]),
        "GridError", "z grid contains a non-finite value inf"),
    "turan-alpha-no-upper": (
        lambda fw: fw.turan_alpha_check(_ONE_LOWER, 1.0),
        "ParameterError", "needs at least one upper parameter pair"),
    "corollary3-beta": (
        lambda fw: fw.corollary3_2f2_check(1.0, 0.0, 1.0, -1.0),
        "ParameterError", "beta1 and beta2 must be positive, got 0.0, 1.0"),
    "corollary3-pivot": (
        lambda fw: fw.corollary3_2f2_check(1.0, 2.0, 1.0, -1.0),
        "SingularTransformError",
        "transform pivot alpha1 - beta2 vanishes; parameters undefined"),
    "corollary3-derived": (
        lambda fw: fw.corollary3_2f2_check(2.0, 5.0, 1.0, -1.0),
        "ParameterError",
        "derived lower parameters must be positive: f = -2, g = -4, h = -3"),
    "ratio-equal-values": (
        lambda fw: fw.ratio_monotonicity_check(_P, "beta", 1.0, 1.0,
                                               [0.5, 1.0]),
        "ParameterError", "the two parameter values must differ"),
    "ratio-empty-slot": (
        lambda fw: fw.ratio_monotonicity_check(_NO_LOWER, "beta", 1.0, 2.0,
                                               [0.5, 1.0]),
        "ParameterError", "slot 'beta' needs at least one lower pair"),
    "ratio-negative-grid": (
        lambda fw: fw.ratio_monotonicity_check(_P, "beta", 1.0, 2.0,
                                               [-0.5, 1.0]),
        "DomainError", "defined for z >= 0, got z=-0.5"),
    "kn-both-z": (
        lambda fw: fw.kn_value_and_bound(_ONE_LOWER, 0, z=1.0,
                                         z_grid=[1.0, 2.0]),
        "ParameterError", "pass exactly one of z or z_grid"),
    "kn-neither-z": (
        lambda fw: fw.kn_value_and_bound(_ONE_LOWER, 0),
        "ParameterError", "pass exactly one of z or z_grid"),
    "lazarevic-beta1": (
        lambda fw: fw.lazarevic_check(1.0, 0.0, 1.0, 1.0, 1.0),
        "ParameterError", "beta1 must be positive, got 0.0"),
    "lazarevic-B1": (
        lambda fw: fw.lazarevic_check(1.0, 1.0, 1.0, -1.0, 1.0),
        "ParameterError", "B1 must be >= 0, got -1.0"),
    "lazarevic-z": (
        lambda fw: fw.lazarevic_check(1.0, 1.0, 1.0, 1.0, -1.0),
        "DomainError", "defined for z >= 0, got z=-1.0"),
    "wilker-beta1": (
        lambda fw: fw.wilker_check(1.0, 0.0, 1.0, 1.0, 1.0),
        "ParameterError", "beta1 must be positive, got 0.0"),
    "wilker-B1": (
        lambda fw: fw.wilker_check(1.0, 1.0, 1.0, -1.0, 1.0),
        "ParameterError", "B1 must be >= 0, got -1.0"),
    "wilker-z": (
        lambda fw: fw.wilker_check(1.0, 1.0, 1.0, 1.0, -1.0),
        "DomainError", "defined for z >= 0, got z=-1.0"),
    "chi-z": (
        lambda fw: fw.chi_check(1.0, 1.0, 1.0, [0.5, 1.0], 0.0),
        "DomainError", "defined for z > 0, got z=0.0"),
    "chi-grid": (
        lambda fw: fw.chi_check(1.0, 1.0, 1.0, [0.0, 1.0], 1.0),
        "GridError", "beta1 grid must be positive, got 0.0"),
    "tail-turan-z": (
        lambda fw: fw.tail_turan_check(_ONE_LOWER, 0, 0.0),
        "DomainError", "defined for z > 0, got z=0.0"),
    "logconcave-shape": (
        lambda fw: fw.logconcavity_check(_ONE_LOWER, 0.5, 1.0),
        "ParameterError", "shape must have one more lower pair than upper "
                          "pairs (p >= 1), got p=0, q=1"),
    "logconcave-lower-weight": (
        lambda fw: fw.logconcavity_check(fw.FoxWrightParams(
            ((2.0, 1.0),), ((1.0, 1.0), (1.0, 2.0))), 0.5, 1.0),
        "ParameterError", "lower weights after the first must be 1, got 2.0"),
    "logconcave-pair": (
        lambda fw: fw.logconcavity_check(_LOGCONCAVE, 0.5, 1.0),
        "DomainError", "needs upper value 1.0 >= paired lower value 2.0"),
    "xi-prime-no-lower": (
        lambda fw: fw.xi_prime(_NO_LOWER, 1.0),
        "ParameterError", "needs at least one lower parameter pair"),
    "xi-prime-z": (
        lambda fw: fw.xi_prime(_P, 0.0),
        "DomainError", "defined for z > 0, got z=0.0"),
    "params-upper-weight": (
        lambda fw: fw.FoxWrightParams(((1.0, -1.0),), ()),
        "ParameterError", "upper weight must be >= 0, got -1.0"),
    "params-lower-value": (
        lambda fw: fw.FoxWrightParams((), ((0.0, 1.0),)),
        "ParameterError", "lower parameter must be positive, got 0.0"),
    "params-json-not-object": (
        lambda fw: fw.FoxWrightParams.from_json([]),
        "ParameterError", "parameter JSON must be an object"),
    "params-json-short-pair": (
        lambda fw: fw.FoxWrightParams.from_json({"upper": [[1.0]]}),
        "ParameterError", "malformed parameter JSON: not enough values to "
                          "unpack (expected 2, got 1)"),
    "tilde-no-lower": (
        lambda fw: fw.evaluate_tilde(_NO_LOWER, 1.0),
        "ParameterError", "tilde normalization needs at least one lower pair"),
    "dbeta1-no-lower": (
        lambda fw: fw.dbeta1(_NO_LOWER, 1.0),
        "ParameterError", "dbeta1 needs at least one lower pair"),
    "mittag-leffler-B": (
        lambda fw: fw.MittagLefflerParams(((-1.0, 1.0),)),
        "ParameterError", "B must be >= 0, got -1.0"),
    "digamma-zero": (
        lambda fw: gammakit.digamma(0.0),
        "DomainError", "digamma needs x > 0, got 0.0"),
    "grid-mode": (
        lambda fw: fw.GridSpec(mode="x"),
        "GridError", "mode must be 'random' or 'lattice', got 'x'"),
    "grid-json-not-object": (
        lambda fw: fw.grid_from_json([]),
        "GridError", "grid file must contain a JSON object"),
    "hp-margin-failure-row": (
        lambda fw: fw.hp_margin(_failure_row(), 30),
        "ParameterError", "cannot oracle-check a failure row"),
}


@pytest.mark.parametrize("case", list(ARGUMENT_ERRORS))
def test_argument_errors(case):
    call, kind, msg = ARGUMENT_ERRORS[case]
    with pytest.raises(getattr(errors, kind),
                       match=f"^{re.escape(msg)}$") as exc:
        call(foxwright)
    assert type(exc.value).__name__ == kind
