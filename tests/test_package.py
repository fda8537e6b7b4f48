"""Package-level properties."""

import ast
import importlib
import importlib.util
import inspect
import math
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import alpha_descent
from alpha_descent.check import run_checks
from alpha_descent.descent import (
    RateConstants,
    StepDiagnostics,
    kl_step,
    rate_bound,
    run_descent,
)
from alpha_descent.divergence import DescentParams, divergence_exact
from alpha_descent.explore import explore_mean_update
from alpha_descent.fixtures import perfect_fit_problem, random_problem
from alpha_descent.gradient import (
    MixtureGradient,
    MixtureState,
    gradient_exact,
    gradient_monte_carlo_from_logs,
    sample_mixture,
)
from alpha_descent.harness import ExperimentConfig, write_trace
from alpha_descent.model import (
    GaussianKernel,
    GaussianMixtureTarget,
    SampleBatch,
    Target,
    bandwidth_rule,
    gaussian_kernel_logpdf,
    sample_logs,
)


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


def test_monte_carlo_run_loads_no_module():
    # a Monte Carlo run and a mean update import nothing that the package's
    # import did not: np.median, for one, loads numpy's masked arrays,
    # which cost the workload process 1.3 MB of peak memory at figure 1
    src = str(Path(alpha_descent.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, numpy as np, alpha_descent as a; rng = np.random.default_rng(0); "
        "before = set(sys.modules); "
        "s = a.MixtureState(np.full(4, 0.25), np.eye(4)[:, :2], a.GaussianKernel(0.8, 2)); "
        "t = a.GaussianMixtureTarget([[0.0, 0.0]]); "
        "a.run_descent(s, a.DescentParams(0.5, 0.3), 'power', 3, target=t, "
        "sample_count=16, rng=rng); a.explore_mean_update(s, t, 16, 0.5, rng); "
        "print(sorted(set(sys.modules) - before))"
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
    "_LSE_BLOCK",
    "_check_order",
    "_gradient_values",
    "_log_base",
    "_weighted",
    "gradient_monte_carlo",
    "kernel_exp",
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
    # the batch answers its readers' questions; its layout stays in model
    assert not hasattr(SampleBatch, "tilt")
    assert not hasattr(SampleBatch, "tilted_sums")
    # the batch's kernel comes in the form sample_logs returned it
    assert "exp_kernel" not in inspect.signature(gradient_monte_carlo_from_logs).parameters
    # every arm reads the one batch that sample_logs forms
    assert "exp_kernel" not in inspect.signature(sample_logs).parameters
    # a mixture target's log p comes from the one product its batch rows share
    assert not hasattr(GaussianMixtureTarget, "_from_rows")
    assert "num_components" not in inspect.signature(rate_bound).parameters
    # the algorithm name alone picks the update
    assert "unweighted_denominator" not in inspect.signature(run_descent).parameters
    assert "renyi_unweighted_denominator" not in {f.name for f in fields(ExperimentConfig)}
    # the exact loop hands its log-mixture over privately; a public call
    # checks the weights
    for fn in (gradient_exact, divergence_exact):
        params = inspect.signature(fn).parameters
        assert "log_mixture" not in params
        assert [p for p in params if not p.startswith("_")] == ["problem", "weights", "alpha"]
    # one formula per generator, on log u
    assert not hasattr(alpha_descent.divergence, "_amari_alpha")
    # every caller of write_trace passes its config
    assert inspect.signature(write_trace).parameters["config"].default is inspect.Parameter.empty


def test_every_errstate_in_src_says_why():
    # A RuntimeWarning fails the suite: an overflow or invalid value means a
    # ratio left the log domain.  A local np.errstate that silences one must
    # say on its own line why the value it guards is safe or unread.
    src = Path(alpha_descent.__file__).resolve().parent
    bare = [
        f"{path.relative_to(src)}:{number}: {line.strip()}"
        for path in sorted(src.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "np.errstate(" in line and not re.search(r"np\.errstate\(.*#\s*\S", line)
    ]
    assert bare == []


def test_no_target_type_switch_in_src():
    # A target gives the batch its rows and log p through one method, so no
    # code outside it asks which kind of target it holds.
    src = Path(alpha_descent.__file__).resolve().parent
    switches = [
        f"{path.relative_to(src)}:{node.lineno}: {ast.unparse(node)}"
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and "GaussianMixtureTarget" in {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node.args[1])
            if isinstance(n, (ast.Name, ast.Attribute))
        }
    ]
    assert switches == []


def test_one_params_rule_and_no_unset_knobs():
    # divergence decides the alpha, shift and step size every caller accepts,
    # so the harness borrows no private name from descent
    assert alpha_descent.divergence._check_params.__module__ == "alpha_descent.divergence"
    src = Path(alpha_descent.__file__).resolve().parent
    borrowed = [
        alias.name
        for node in ast.walk(ast.parse((src / "harness.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "descent" and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert borrowed == []
    # no caller sets the fixture's spread or the battery's verbosity
    assert list(inspect.signature(random_problem).parameters) == [
        "rng", "num_components", "support_size"
    ]
    assert list(inspect.signature(run_checks).parameters) == []
    assert list(inspect.signature(perfect_fit_problem).parameters) == ["rng", "weights"]


def _shift_product(node):
    """Whether ``node`` is an ``(alpha - 1) * shift`` product, either way round."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    sides = [ast.unparse(node.left), ast.unparse(node.right)]
    return any("alpha" in side for side in sides) and any(
        re.fullmatch(r"(\w+\.)?shift", side) for side in sides
    )


def test_shift_enters_the_log_domain_in_one_place():
    # log((alpha-1) shift) is written once, in divergence._lift, which tests
    # the product and not the shift; a name bound to the product counts
    src = Path(alpha_descent.__file__).resolve().parent
    copies = []
    for path in sorted(src.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "_lift":
                continue
            products = {
                target.id
                for node in ast.walk(fn)
                if isinstance(node, ast.Assign) and _shift_product(node.value)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            copies += [
                f"{path.relative_to(src)}:{node.lineno}: {ast.unparse(node)}"
                for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and ast.unparse(node.func) in ("np.log", "math.log")
                and node.args
                and (
                    _shift_product(node.args[0])
                    or isinstance(node.args[0], ast.Name) and node.args[0].id in products
                )
            ]
    assert copies == []
    lift = ast.parse(inspect.getsource(alpha_descent.divergence._lift))
    assert any(_shift_product(node) for node in ast.walk(lift))


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


def test_range_checks_live_in_the_two_model_helpers():
    # A count or a positive real is checked by one call to
    # model._check_integer or model._check_float, which carry the range; a
    # raise that states a range anywhere else is a second copy of the rule.
    src = Path(alpha_descent.__file__).resolve().parent
    helpers = {"_check_integer", "_check_float"}
    inline = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name in helpers
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and id(node) not in allowed:
                text = ast.unparse(node)
                if "must be >=" in text or "must be positive" in text:
                    inline.append(f"{path.relative_to(src)}:{node.lineno}: {text}")
    assert inline == []


_PARAMS = DescentParams(2.0, 0.1, shift=0.5)
_CONSTANTS = RateConstants.from_grad_bound(1.0, _PARAMS, 10)
_STATE = MixtureState(
    np.full(2, 0.5), np.array([[1.0, 0.0], [-1.0, 0.0]]), GaussianKernel(1.0, 2)
)
_TARGET = GaussianMixtureTarget([[0.0, 0.0]])
_CONFIG = dict(
    algorithm="emd", alpha=0.5, step_size_base=0.3, num_components=4,
    sample_count=(8,), num_steps=2, num_phases=2, dim=2, replicates=1, seed=3,
)


def _config(key, x):
    if key == "sample_count":
        x = [x]
    return ExperimentConfig(**{**_CONFIG, key: x})


# (site, argument as the message names it, least value, call with it set to
# x).  A call that draws samples takes the generator ``rng``.
COUNTS = [
    ("bandwidth_rule", "num_components", 1, lambda x, rng: bandwidth_rule(x, 2)),
    ("bandwidth_rule", "dim", 1, lambda x, rng: bandwidth_rule(16, x)),
    ("GaussianKernel", "dim", 1, lambda x, rng: GaussianKernel(1.0, x)),
    (
        "run_descent", "num_steps", 0,
        lambda x, rng: run_descent(
            _STATE, DescentParams(0.5, 0.5), "emd", x, target=_TARGET,
            sample_count=8, rng=rng,
        ),
    ),
    (
        "run_descent", "sample_count", 1,
        lambda x, rng: run_descent(
            _STATE, DescentParams(0.5, 0.5), "emd", 2, target=_TARGET,
            sample_count=x, rng=rng,
        ),
    ),
    (
        "RateConstants.from_grad_bound", "num_components", 1,
        lambda x, rng: RateConstants.from_grad_bound(1.0, _PARAMS, x),
    ),
    ("rate_bound", "num_steps", 1, lambda x, rng: rate_bound(_CONSTANTS, x, _PARAMS)),
    (
        "sample_mixture", "size", 1,
        lambda x, rng: sample_mixture(
            _STATE.weights, _STATE.points, _STATE.kernel, x, rng
        ),
    ),
    (
        "explore_mean_update", "sample_count", 1,
        lambda x, rng: explore_mean_update(_STATE, _TARGET, x, 0.5, rng),
    ),
    *[
        ("ExperimentConfig", name, least, lambda x, rng, key=key: _config(key, x))
        for key, name, least in (
            ("num_components", "num_components", 1),
            ("num_steps", "num_steps", 0),
            ("num_phases", "num_phases", 1),
            ("dim", "dim", 1),
            ("replicates", "replicates", 0),
            ("seed", "seed", 0),
            ("sample_count", "sample_count entry", 1),
        )
    ],
]

POSITIVE_REALS = [
    (
        "gaussian_kernel_logpdf", "bandwidth",
        lambda x: gaussian_kernel_logpdf([0.0], [0.0], x),
    ),
    ("bandwidth_rule", "coeff", lambda x: bandwidth_rule(16, 2, coeff=x)),
    ("GaussianKernel", "bandwidth", lambda x: GaussianKernel(x, 2)),
    ("Target", "normalisation_hint", lambda x: Target(np.sum, normalisation_hint=x)),
    ("GaussianMixtureTarget", "scale", lambda x: GaussianMixtureTarget([[0.0]], scale=x)),
    ("kl_step", "step_size", lambda x: kl_step([0.5, 0.5], np.zeros(2), x)),
    (
        "RateConstants.from_grad_bound", "grad_bound",
        lambda x: RateConstants.from_grad_bound(x, _PARAMS, 10),
    ),
    ("DescentParams", "step_size", lambda x: DescentParams(0.5, x)),
    *[
        ("ExperimentConfig", key, lambda x, key=key: _config(key, x))
        for key in ("step_size_base", "target_scale", "init_cov_scale", "bandwidth_coeff")
    ],
]

REFUSED = [
    pytest.param(name, call, x, id=f"{site}-{name}-{x!r}")
    for site, name, least, call in COUNTS
    for x in (True, "1", math.nan, math.inf, least - 1, 2.5)
] + [
    pytest.param(name, lambda x, rng, call=call: call(x), x, id=f"{site}-{name}-{x!r}")
    for site, name, call in POSITIVE_REALS
    for x in (True, "1", math.nan, math.inf, 0.0)
]


@pytest.mark.parametrize("name, call, value", REFUSED)
def test_refused_input_names_its_argument(name, call, value):
    # True, strings, NaN and infinities are refused as a bad input, not
    # run as 1.0, left to fail inside numpy or read as a guard verdict;
    # a call that samples refuses before its generator draws
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(value, rng)
    assert rng.bit_generator.state == before


ACCEPTED = [
    pytest.param(call, np.int64(16), id=f"{site}-{name}")
    for site, name, _, call in COUNTS
] + [
    pytest.param(lambda x, rng, call=call: call(x), np.float32(0.5), id=f"{site}-{name}")
    for site, name, call in POSITIVE_REALS
]


@pytest.mark.parametrize("call, value", ACCEPTED)
def test_numpy_scalars_accepted(call, value):
    call(value, np.random.default_rng(0))
