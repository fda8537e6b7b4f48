"""Package-level properties."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import alpha_descent
from alpha_descent.descent import StepDiagnostics
from alpha_descent.gradient import MixtureGradient, MixtureState
from alpha_descent.model import GaussianKernel


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests as a
    # reference and must stay out of the import a user pays for.
    src = str(Path(alpha_descent.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, alpha_descent; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


MODULES = sorted(m.name for m in pkgutil.iter_modules(alpha_descent.__path__))

# Names deleted from the package; none may come back through an import.
DELETED = (
    "FIXED_POINT_TOL",
    "ParticleSet",
    "gradient_monte_carlo",
    "mixture_logpdf",
    "power_transform",
    "vr_bound_estimate",
)


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_resolves(module_name):
    module = importlib.import_module(f"alpha_descent.{module_name}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
    assert [name for name in DELETED if hasattr(module, name)] == []


def test_package_imports_resolve():
    # every name the package's __init__ imports is bound on the package
    tree = ast.parse(Path(alpha_descent.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if not hasattr(alpha_descent, name)] == []
    assert [name for name in DELETED if hasattr(alpha_descent, name)] == []


def test_deleted_fields_and_methods_are_gone():
    assert [f.name for f in fields(StepDiagnostics)] == ["guard_min"]
    assert [f.name for f in fields(MixtureGradient)] == ["values", "alpha", "log_base"]
    assert [f.name for f in fields(MixtureState)] == ["weights", "points", "kernel"]
    assert not hasattr(GaussianKernel, "sample")
    assert not hasattr(GaussianKernel, "logpdf")


def test_perfbench_patch_points_resolve():
    # The benchmark's tracer wraps these names in place; a rename or
    # deletion here would silently drop its span, so it fails the suite.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attr_path, *_ in tracing.PATCH_POINTS:
        owner = importlib.import_module(module_name)
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{attr_path}")
    assert missing == []
