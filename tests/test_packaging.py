"""Packaging metadata: every declared entry point and export must resolve,
the package imports only public numpy and scipy modules, and a process that
only simulates never loads scipy."""

import ast
import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import issynth

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_scripts_resolve():
    meta = tomllib.loads(PYPROJECT.read_text())
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name} -> {target} is not callable"


def test_all_exports_resolve():
    for name in issynth.__all__:
        assert hasattr(issynth, name), name


def test_no_private_numpy_or_scipy_imports():
    # a module with a leading underscore anywhere in its dotted name, such as
    # scipy.sparse._sparsetools, can change or vanish in any release
    src = PYPROJECT.parent / "src" / "issynth"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            for name in names:
                head, *rest = name.split(".")
                if head in ("numpy", "scipy") and any(p.startswith("_") for p in rest):
                    found.append(f"{path.name}:{node.lineno} imports {name}")
    assert not found, found


# in a fresh process: this test session has scipy loaded already
SIMULATE_THEN_SOLVE = textwrap.dedent("""
    import sys
    import numpy as np
    import issynth, issynth.consistency
    from issynth import simulate, sos, synthesis, verify
    from issynth.poly import parse_poly, variables

    khalil = simulate.khalil_system()
    k = parse_poly("-x1^3 - 8*x2", khalil.bases.vars)
    r2 = parse_poly("r^2", variables(["r"]))
    simulate.event_triggered_run(khalil, [k], r2, r2, 0.9, x0=[2.0, -2.0], horizon=0.2)
    simulate.integrate(khalil, lambda x: np.array([k.eval(x)]), [2.0, -2.0], 0.2, 1e-3)
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))

    # min G00 + G11 subject to G01 = 1: the first solve loads scipy itself
    p = issynth.SdpProblem()
    g = p.add_block(2)
    p.add_row(psd_entries=[(g, 0, 1, 1.0)], rhs=1.0)
    p.set_objective_entry(g, 0, 0, 1.0)
    p.set_objective_entry(g, 1, 1, 1.0)
    print(issynth.solve_sdp(p).status)
""")


def test_simulation_never_loads_scipy_and_the_first_solve_does():
    env = {**os.environ, "PYTHONPATH": str(PYPROJECT.parent / "src")}
    run = subprocess.run([sys.executable, "-c", SIMULATE_THEN_SOLVE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]", "optimal"], run.stdout


def _is_record_class(node: ast.ClassDef) -> bool:
    def name(expr):
        expr = expr.func if isinstance(expr, ast.Call) else expr
        return getattr(expr, "id", getattr(expr, "attr", None))
    return (any(name(d) == "dataclass" for d in node.decorator_list)
            or any(name(b) == "NamedTuple" for b in node.bases))


def test_settable_option_count():
    # defaulted parameters plus dataclass and NamedTuple fields in the
    # package: pinned, so a new option (or a removed one) shows in review
    src = PYPROJECT.parent / "src" / "issynth"
    per_file = {}
    for path in sorted(src.glob("*.py")):
        count = 0
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_record_class(node):
                count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
        per_file[path.name] = count
    assert sum(per_file.values()) == 110, per_file
