"""Exact-oracle invariant battery behind ``alpha-descent check``.

Each check recomputes a contract from scratch on random finite-support
problems and raises on the first violation.  The battery overlaps the test
suite on purpose: it needs no test runner, so it can gate an installation.
"""

from __future__ import annotations

import math

import numpy as np

from .descent import emd_step, kl_step, power_step, renyi_step
from .divergence import (
    DescentParams,
    amari_alpha,
    amari_alpha_deriv,
    divergence_exact,
    renyi_objective_exact,
    vr_bound_exact,
)
from .fixtures import random_problem, random_weights
from .gradient import gradient_exact
from .model import bandwidth_rule, gaussian_kernel_logpdf

ALPHA_GRID = (-0.5, 0.0, 0.5, 0.99, 2.0)


def _ensure(ok, message):
    # An explicit raise, not ``assert``: the battery must also fail under
    # ``python -O``, which strips assert statements.
    if not ok:
        raise AssertionError(message)


def _ensure_not_above(after, before, what):
    _ensure(
        after <= before + 1e-10 * (1.0 + abs(before)),
        f"{what} rose from {before!r} to {after!r}",
    )


def _power_factor(v, params):
    # weight ratio after one power step from [1/2, 1/2] with gradient [v, 0]:
    # the factor [(alpha-1)v + 1]^(step/(1-alpha)) of the first component
    new, _ = power_step([0.5, 0.5], np.array([v, 0.0]), params)
    return new[0] / new[1]


def _check_hand_values():
    half_log_2pi = 0.5 * math.log(2 * math.pi)
    for what, got, want in (
        ("log k(0, 0)", gaussian_kernel_logpdf([0.0], [0.0], 1.0), -half_log_2pi),
        ("log k(0, 2)", gaussian_kernel_logpdf([0.0], [2.0], 1.0), -2.0 - half_log_2pi),
        ("bandwidth_rule(100, 16)", bandwidth_rule(100, 16), 100.0 ** (-1.0 / 20.0)),
        ("f_0.5(4)", amari_alpha(4.0, 0.5), 2.0),
        ("f_1(e)", amari_alpha(math.e, 1.0), 1.0),
        ("f'_0.5(4)", amari_alpha_deriv(4.0, 0.5), 1.0),
        ("power factor(-1), step 0.5", _power_factor(-1.0, DescentParams(0.5, 0.5)), 1.5),
        ("power factor(1), step 1", _power_factor(1.0, DescentParams(0.5, 1.0)), 0.25),
    ):
        _ensure(math.isclose(got, want), f"{what} = {float(got)!r}, want {want!r}")
    p = DescentParams(alpha=0.5, step_size=1.0)
    new, _ = power_step([0.5, 0.5], np.array([0.0, -1.0]), p)
    _ensure(
        np.allclose(new, [4.0 / 13.0, 9.0 / 13.0], rtol=0, atol=1e-15),
        f"power step hand case gave {new.tolist()}, want [4/13, 9/13]",
    )


def _check_derivative():
    rng = np.random.default_rng(11)
    eps = 1e-5
    for alpha in ALPHA_GRID:
        for u in rng.uniform(0.2, 5.0, 20):
            fd = (amari_alpha(u + eps, alpha) - amari_alpha(u - eps, alpha)) / (2 * eps)
            deriv = amari_alpha_deriv(u, alpha)
            _ensure(
                abs(fd - deriv) < 1e-6,
                f"f' at u={u}, alpha={alpha}: {deriv} against finite difference {fd}",
            )


def _check_power_monotone():
    rng = np.random.default_rng(23)
    for _ in range(25):
        problem = random_problem(rng)
        j = problem.num_components
        for alpha in ALPHA_GRID:
            params = DescentParams(alpha=alpha, step_size=rng.uniform(0.1, 1.0))
            w = random_weights(rng, j)
            value = divergence_exact(problem, w, alpha)
            for _ in range(20):
                w, _ = power_step(w, gradient_exact(problem, w, alpha), params)
                after = divergence_exact(problem, w, alpha)
                _ensure_not_above(after, value, f"power objective at alpha={alpha}")
                value = after


def _check_renyi_monotone():
    rng = np.random.default_rng(29)
    for _ in range(15):
        problem = random_problem(rng)
        j = problem.num_components
        params = DescentParams(alpha=0.5, step_size=0.2, shift=-5.0)
        w = random_weights(rng, j)
        value = divergence_exact(problem, w, params.alpha)
        for _ in range(20):
            grad = gradient_exact(problem, w, params.alpha)
            w, diag = renyi_step(w, grad, params)
            _ensure(diag.guard_min >= 0, f"renyi guard margin {diag.guard_min} < 0")
            after = divergence_exact(problem, w, params.alpha)
            _ensure_not_above(after, value, "renyi objective")
            value = after


def _check_simplex_and_support():
    rng = np.random.default_rng(31)
    params = DescentParams(alpha=0.5, step_size=0.7)
    for _ in range(50):
        j = int(rng.integers(2, 8))
        w = random_weights(rng, j)
        w[rng.integers(j)] = 0.0
        w = w / w.sum()
        b = rng.normal(0.0, 0.5, j)
        for name, step in (
            ("power", lambda: power_step(w, b, params)),
            ("emd", lambda: emd_step(w, b, params)),
            ("kl", lambda: kl_step(w, b, 0.7)),
            ("renyi", lambda: renyi_step(w, b, params)),
        ):
            new, _ = step()
            _ensure(
                abs(new.sum() - 1.0) <= 1e-12,
                f"{name} step weights sum to {float(new.sum())!r}",
            )
            _ensure(
                np.all(new[w == 0] == 0),
                f"{name} step moved mass onto a zero-weight component",
            )


def _check_scale_invariance():
    rng = np.random.default_rng(37)
    for _ in range(10):
        problem = random_problem(rng)
        doubled = problem.with_target(2.0 * problem.p_values)
        j = problem.num_components
        params = DescentParams(alpha=0.5, step_size=0.5)
        w1 = w2 = random_weights(rng, j)
        for _ in range(20):
            w1, _ = power_step(w1, gradient_exact(problem, w1, 0.5), params)
            w2, _ = power_step(w2, gradient_exact(doubled, w2, 0.5), params)
            gap = np.abs(w1 - w2).max()
            _ensure(gap < 1e-10, f"weights moved by {gap} under target rescaling")


def _check_bound_identity():
    rng = np.random.default_rng(41)
    for alpha in (0.5, 2.0):
        problem = random_problem(rng)
        w = random_weights(rng, problem.num_components)
        params = DescentParams(alpha=alpha, step_size=0.5)
        lhs = renyi_objective_exact(problem, w, params)
        rhs = -vr_bound_exact(problem, w, alpha) / alpha
        _ensure(
            abs(lhs - rhs) < 1e-12,
            f"alpha={alpha}: log objective {lhs} against -bound/alpha {rhs}",
        )


def _check_gradient_vs_finite_difference():
    rng = np.random.default_rng(43)
    problem = random_problem(rng, 4, 8)
    w = random_weights(rng, 4)
    eps = 1e-6
    for alpha in ALPHA_GRID:
        grad = gradient_exact(problem, w, alpha).values
        for j in range(4):
            e = np.zeros(4)
            e[j] = eps
            fd = (
                np.sum(
                    problem.nu_weights
                    * problem.p_values
                    * amari_alpha(((w + e) @ problem.kernel_matrix) / problem.p_values, alpha)
                )
                - np.sum(
                    problem.nu_weights
                    * problem.p_values
                    * amari_alpha(((w - e) @ problem.kernel_matrix) / problem.p_values, alpha)
                )
            ) / (2 * eps)
            _ensure(
                abs(fd - grad[j]) < 1e-5,
                f"alpha={alpha}, component {j}: gradient {grad[j]} against "
                f"finite difference {fd}",
            )


CHECKS = [
    ("hand-computed values", _check_hand_values),
    ("generator derivative vs finite differences", _check_derivative),
    ("power update monotone on random problems", _check_power_monotone),
    ("renyi update monotone, guard recorded", _check_renyi_monotone),
    ("simplex and support preserved by all updates", _check_simplex_and_support),
    ("update invariant under target rescaling", _check_scale_invariance),
    ("log objective matches the sampled bound identity", _check_bound_identity),
    ("exact gradient vs finite differences", _check_gradient_vs_finite_difference),
]


def run_checks():
    """Run the battery, printing a line per check; returns the failure count."""
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # report and keep going
            failures += 1
            print(f"FAIL  {name}: {exc}")
        else:
            print(f"ok    {name}")
    if failures:
        print(f"{failures} of {len(CHECKS)} checks failed")
    return failures
