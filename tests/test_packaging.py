"""Packaging metadata: every declared entry point and export must resolve,
and the package imports only public numpy and scipy modules."""

import ast
import importlib
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
    assert sum(per_file.values()) == 111, per_file
