"""The package surface: one export list; an import that loads the
evaluation layer alone, with the verification layer (and mpmath) bound in
full on the first access to any other name, and the batch kernels and the
command line only when used; and an oracle that shares no code with the
engine."""

import ast
import inspect
import os
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
