"""Acceptance battery: one test per release criterion.

Each test prints a single summary line (criterion number, verdict, the
measured quantities and the tolerance it was held to) and then asserts, so
the pytest -v report carries one pass/fail line per criterion and the
captured output of a failing criterion states exactly what was measured.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from alpha_descent.descent import (
    RateConstants,
    kl_step,
    power_step,
    rate_bound,
    renyi_step,
    run_descent,
)
from alpha_descent.divergence import (
    DescentParams,
    divergence_exact,
    renyi_objective_exact,
    vr_bound_exact,
)
from alpha_descent.fixtures import random_problem, random_weights
from alpha_descent.gradient import gradient_exact, gradient_monte_carlo_from_logs
from alpha_descent.harness import ExperimentConfig, run_experiment


def _report(number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {number}: {verdict} - {detail}"
    print(line)
    return line


def _simplex_grid(num_components, step):
    """All simplex vectors on a barycentric grid of the given step."""
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    if num_components == 2:
        first = ticks
        grid = np.column_stack([first, 1.0 - first])
    elif num_components == 3:
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        a, b = a.ravel(), b.ravel()
        keep = a + b <= 1.0 + 1e-12
        grid = np.column_stack([a[keep], b[keep], 1.0 - a[keep] - b[keep]])
        grid[np.abs(grid) < 1e-15] = 0.0
    else:
        raise ValueError(f"grid oracle supports 2 or 3 components, not {num_components}")
    # drop rows with any exactly-zero mass only when the objective needs the
    # interior; callers filter themselves
    return grid


def _grid_objective(problem, grid, alpha):
    mix = grid @ problem.kernel_matrix
    u = mix / problem.p_values
    if alpha in (0.0, 1.0):
        raise ValueError("grid oracle is used away from the limit orders")
    f = (u**alpha - 1.0 - alpha * (u - 1.0)) / (alpha * (alpha - 1.0))
    return f @ (problem.nu_weights * problem.p_values)


def _simplex_minimum(problem, alpha, step=1e-3):
    """Grid search plus a constrained polish; returns (weights, value)."""
    j = problem.num_components
    grid = _simplex_grid(j, step)
    grid = grid[np.all(grid > 0, axis=1)]
    values = _grid_objective(problem, grid, alpha)
    best = grid[int(np.argmin(values))]
    with warnings.catch_warnings():
        # SLSQP clips iterates to the bounds itself and warns about it
        warnings.simplefilter("ignore", RuntimeWarning)
        res = minimize(
            lambda x: divergence_exact(problem, x / x.sum(), alpha),
            best,
            method="SLSQP",
            bounds=[(1e-12, 1.0)] * j,
            constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0}],
            options={"ftol": 1e-16, "maxiter": 500},
        )
    candidates = [(float(np.min(values)), best)]
    if res.success and np.all(res.x > 0):
        x = res.x / res.x.sum()
        candidates.append((divergence_exact(problem, x, alpha), x))
    value, weights = min(candidates, key=lambda pair: pair[0])
    return weights, float(value)


def _sup_gradient_bound(problem, alpha):
    """Upper bound on sup over the simplex of |b_j + 1/(alpha-1)|.

    At every atom the mixture value lies between the smallest and largest
    kernel entry of its column, and u^(alpha-1) is monotone in u, so the
    column-wise extreme bounds the integrand for every weight vector.
    """
    ratios = problem.kernel_matrix / problem.p_values
    lo = ratios.min(axis=0) ** (alpha - 1.0)
    hi = ratios.max(axis=0) ** (alpha - 1.0)
    per_atom = np.maximum(lo, hi)
    rows = problem.kernel_matrix @ (problem.nu_weights * per_atom)
    return float(rows.max() / abs(alpha - 1.0))


def test_criterion_1_power_descent_monotone():
    # >= 200 random problems, every (alpha, eta) combination, 50 exact
    # steps, objective nonincreasing to 1e-10 relative, under a minute.
    start = time.perf_counter()
    rng = np.random.default_rng(2001)
    alphas = (-0.5, 0.0, 0.5, 0.99)
    etas = (0.1, 0.5, 1.0)
    num_problems = 200
    worst = -np.inf
    runs = 0
    for _ in range(num_problems):
        problem = random_problem(rng)
        uniform = np.full(problem.num_components, 1.0 / problem.num_components)
        for alpha in alphas:
            for eta in etas:
                trace = run_descent(
                    uniform, DescentParams(alpha, eta), "power", 50, problem=problem
                )
                objs = np.array([r.objective for r in trace.records])
                rises = np.diff(objs) / np.maximum(np.abs(objs[:-1]), 1.0)
                worst = max(worst, float(rises.max()))
                runs += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    line = _report(
        1,
        ok,
        f"{num_problems} problems x {len(alphas) * len(etas)} (alpha, eta) combos "
        f"({runs} runs of 50 steps), worst relative increase {worst:.3e} "
        f"(tolerance 1e-10), runtime {elapsed:.1f}s (limit 60s)",
    )
    assert ok, line


def test_criterion_2_renyi_descent_monotone_with_rate():
    # (alpha-1)*shift > 0, step-admissibility guard holds pointwise, the
    # objective is nonincreasing, and N * gap stays under the constant from
    # the rate bound for N = 1..100 with grid-search oracles for the
    # optimum and the gradient sup.
    rng = np.random.default_rng(2002)
    eta = 0.1
    worst_rise = -np.inf
    worst_margin = np.inf
    worst_slack = np.inf  # min over (fixture, N) of bound - gap
    fixtures = 0
    for alpha in (0.5, 2.0):
        for _ in range(8):
            j = int(rng.integers(2, 4))
            problem = random_problem(rng, num_components=j, support_size=6)
            bound_b = _sup_gradient_bound(problem, alpha)
            # grid cross-check: the sampled sup never exceeds the bound
            grid = _simplex_grid(j, 0.05)
            grid = grid[np.all(grid > 0, axis=1)]
            sampled = max(
                float(
                    np.abs(
                        gradient_exact(problem, w, alpha).values + 1.0 / (alpha - 1.0)
                    ).max()
                )
                for w in grid
            )
            assert sampled <= bound_b * (1 + 1e-12)
            shift = math.copysign(2.0 * eta * bound_b, alpha - 1.0)
            params = DescentParams(alpha, eta, shift=shift)
            trace = run_descent(
                np.full(j, 1.0 / j), params, "renyi", 100, problem=problem
            )
            margins = np.array([r.guard_min for r in trace.records[1:]])
            worst_margin = min(worst_margin, float(margins.min()))
            objs = np.array([r.objective for r in trace.records])
            rises = np.diff(objs) / np.maximum(np.abs(objs[:-1]), 1.0)
            worst_rise = max(worst_rise, float(rises.max()))
            _, best_value = _simplex_minimum(problem, alpha)
            consts = RateConstants.from_grad_bound(bound_b, params, j)
            for n in range(1, 101):
                gap = objs[n] - best_value
                slack = rate_bound(consts, n, params) - gap
                worst_slack = min(worst_slack, float(slack))
            fixtures += 1
    ok = worst_rise <= 1e-10 and worst_margin >= 0.0 and worst_slack >= 0.0
    line = _report(
        2,
        ok,
        f"{fixtures} fixtures x 100 steps: worst relative increase "
        f"{worst_rise:.3e} (tolerance 1e-10), min guard margin "
        f"{worst_margin:.3f} (needs >= 0), min rate-bound slack "
        f"{worst_slack:.3e} (needs >= 0)",
    )
    assert ok, line


def test_criterion_3_power_descent_reaches_simplex_optimum():
    # three-component fixtures with independent kernel rows: descend to a
    # fixed point, compare against a 1e-3 simplex grid, re-apply the step.
    rng = np.random.default_rng(2003)
    worst_excess = -np.inf
    worst_move = -np.inf
    fixtures = 0
    for alpha in (0.5, 2.0):
        for _ in range(4):
            problem = random_problem(rng, num_components=3, support_size=8)
            assert np.linalg.matrix_rank(problem.kernel_matrix) == 3
            params = DescentParams(alpha, 1.0)
            trace = run_descent(
                np.full(3, 1.0 / 3.0),
                params,
                "power",
                50000,
                problem=problem,
                fixed_point_tol=1e-13,
            )
            assert trace.status.startswith("fixed_point"), trace.status
            final = trace.final_weights
            grid = _simplex_grid(3, 1e-3)
            grid = grid[np.all(grid > 0, axis=1)]
            grid_min = float(np.min(_grid_objective(problem, grid, alpha)))
            excess = divergence_exact(problem, final, alpha) - grid_min
            worst_excess = max(worst_excess, float(excess))
            again, _ = power_step(final, gradient_exact(problem, final, alpha), params)
            move = float(np.abs(again - final).sum())
            worst_move = max(worst_move, move)
            fixtures += 1
    ok = worst_excess <= 1e-3 and worst_move < 1e-12
    line = _report(
        3,
        ok,
        f"{fixtures} fixtures: worst objective excess over the 1e-3 grid "
        f"minimum {worst_excess:.3e} (tolerance 1e-3), worst re-applied step "
        f"moved {worst_move:.3e} (tolerance 1e-12)",
    )
    assert ok, line


def test_criterion_4_power_renyi_first_order_agreement():
    # the l1 distance between the two updates must shrink by a factor in
    # [3, 5] per step-size halving across eta in {1e-2, 5e-3, 2.5e-3}
    rng = np.random.default_rng(2004)
    etas = (1e-2, 5e-3, 2.5e-3)
    alpha, shift = 0.5, -1.0
    ratios = []
    for _ in range(50):
        size = int(rng.integers(2, 8))
        w = random_weights(rng, size, floor=0.02)
        b = rng.uniform(-0.8, 0.8, size=size)
        gaps = []
        for eta in etas:
            params = DescentParams(alpha, eta, shift=shift)
            gap = np.abs(
                power_step(w, b, params)[0] - renyi_step(w, b, params)[0]
            ).sum()
            gaps.append(float(gap))
        ratios.append(gaps[0] / gaps[1])
        ratios.append(gaps[1] / gaps[2])
    ratios = np.array(ratios)
    ok = bool(np.all((ratios >= 3.0) & (ratios <= 5.0)))
    line = _report(
        4,
        ok,
        f"50 fixtures, halving ratios min {ratios.min():.3f} / mean "
        f"{ratios.mean():.3f} / max {ratios.max():.3f}, required [3, 5]",
    )
    assert ok, line


def test_criterion_5_power_step_limits_to_kl_step():
    # distance to the kl step is first order in delta = |alpha - 1|: each
    # delta-halving shrinks it by a factor in [1.7, 2.3], on both sides
    rng = np.random.default_rng(2005)
    deltas = (1e-2, 5e-3, 2.5e-3)
    eta = 0.5
    ratios = []
    for _ in range(50):
        size = int(rng.integers(2, 8))
        w = random_weights(rng, size, floor=0.02)
        b = rng.uniform(-1.0, 1.0, size=size)
        kl_new, _ = kl_step(w, b, eta)
        for sign in (+1.0, -1.0):
            gaps = []
            for delta in deltas:
                params = DescentParams(1.0 + sign * delta, eta)
                gaps.append(
                    float(np.abs(power_step(w, b, params)[0] - kl_new).sum())
                )
            ratios.append(gaps[0] / gaps[1])
            ratios.append(gaps[1] / gaps[2])
    ratios = np.array(ratios)
    ok = bool(np.all((ratios >= 1.7) & (ratios <= 2.3)))
    line = _report(
        5,
        ok,
        f"50 fixtures x both approach sides, halving ratios min "
        f"{ratios.min():.3f} / mean {ratios.mean():.3f} / max {ratios.max():.3f}, "
        f"required [1.7, 2.3]",
    )
    assert ok, line


def test_criterion_6_updates_invariant_under_target_scale():
    # with no shift, doubling the target must leave power and renyi
    # trajectories identical to 1e-10 at every one of 50 steps
    rng = np.random.default_rng(2006)
    worst = -np.inf
    runs = 0
    for alpha in (0.5, 2.0):
        for _ in range(10):
            problem = random_problem(rng)
            doubled = problem.with_target(2.0 * problem.p_values)
            uniform = np.full(problem.num_components, 1.0 / problem.num_components)
            params = DescentParams(alpha, 0.5)
            for algorithm in ("power", "renyi"):
                a = run_descent(uniform, params, algorithm, 50, problem=problem)
                b = run_descent(uniform, params, algorithm, 50, problem=doubled)
                for ra, rb in zip(a.records, b.records):
                    worst = max(worst, float(np.abs(ra.weights - rb.weights).max()))
                runs += 1
    ok = worst <= 1e-10
    line = _report(
        6,
        ok,
        f"{runs} trajectory pairs x 50 steps: worst per-iteration weight "
        f"difference {worst:.3e} (tolerance 1e-10)",
    )
    assert ok, line


def test_criterion_7_monte_carlo_gradient_unbiased():
    # finite-support analogue: atoms drawn with the mixture's own
    # probabilities; 200 batches of M=1000 put the batch mean within 4
    # standard errors of the exact gradient, componentwise
    rng = np.random.default_rng(2007)
    batches, draws = 200, 1000
    worst_sigma = -np.inf
    checked = 0
    for alpha in (0.5, 2.0):
        problem = random_problem(rng, num_components=4, support_size=10)
        w = random_weights(rng, 4)
        exact = gradient_exact(problem, w, alpha).values
        probs = problem.atom_probs(w)
        estimates = np.empty((batches, 4))
        for b in range(batches):
            idx = rng.choice(problem.support_size, size=draws, p=probs)
            grad = gradient_monte_carlo_from_logs(problem.sample_batch(w, idx), alpha)
            estimates[b] = grad.values
        se = estimates.std(axis=0, ddof=1) / math.sqrt(batches)
        sigmas = np.abs(estimates.mean(axis=0) - exact) / se
        worst_sigma = max(worst_sigma, float(sigmas.max()))
        checked += 1
    ok = worst_sigma <= 4.0
    line = _report(
        7,
        ok,
        f"{checked} problems x {batches} batches of M={draws}: worst "
        f"batch-mean deviation {worst_sigma:.2f} standard errors (limit 4)",
    )
    assert ok, line


def test_criterion_8_log_objective_recovers_vr_bound():
    # at zero shift the log-transformed objective is exactly -VR/alpha
    rng = np.random.default_rng(2008)
    worst = -np.inf
    checked = 0
    for _ in range(50):
        problem = random_problem(rng)
        w = random_weights(rng, problem.num_components)
        for alpha in (0.5, 2.0):
            lhs = renyi_objective_exact(problem, w, DescentParams(alpha, 0.5))
            rhs = -vr_bound_exact(problem, w, alpha) / alpha
            err = abs(lhs - rhs) / max(abs(rhs), 1e-300)
            worst = max(worst, err)
            checked += 1
    ok = worst <= 1e-12
    line = _report(
        8,
        ok,
        f"{checked} (problem, alpha) pairs: worst relative identity error "
        f"{worst:.3e} (tolerance 1e-12)",
    )
    assert ok, line


def _phase_end_bounds(traces, phase, step):
    """Per-replicate VR bound at iteration (phase, step); None when absent."""
    out = []
    for trace in traces:
        rec = next(
            (r for r in trace.records if r.phase == phase and r.step == step), None
        )
        out.append(None if rec is None else rec.vr_bound)
    return out


def test_criterion_9_benchmark_reproduction():
    # the 16-dimensional benchmark at desk scale: J=20, T=10 phases of
    # N=20 steps, 20 replicates, both sample counts.  (a) power and renyi
    # mean bounds improve from the end of phase 1 to the end of phase T;
    # (b) at M=1000 their final means agree within one cross-replicate
    # standard deviation; (c) emd finishes below power.
    start = time.perf_counter()
    num_phases, num_steps, replicates = 10, 20, 20
    finals = {}
    checks = []
    for count in (100, 1000):
        for algorithm in ("power", "renyi", "emd"):
            config = ExperimentConfig(
                algorithm=algorithm,
                alpha=0.5,
                step_size_base=0.3,
                num_components=20,
                sample_count=(count,),
                num_steps=num_steps,
                num_phases=num_phases,
                dim=16,
                replicates=replicates,
                seed=20260801,
            )
            traces = run_experiment(config)
            completed = sum(
                1 for t in traces if t.status.startswith("completed")
            )
            early = [
                v
                for v in _phase_end_bounds(traces, 1, num_steps)
                if v is not None and np.isfinite(v)
            ]
            late = [
                v
                for v in _phase_end_bounds(traces, num_phases, num_steps)
                if v is not None and np.isfinite(v)
            ]
            finals[(algorithm, count)] = late
            if algorithm in ("power", "renyi"):
                if early and late:
                    improved = float(np.mean(late)) > float(np.mean(early))
                    detail = (
                        f"mean bound {np.mean(early):.2f} -> {np.mean(late):.2f} "
                        f"({len(late)}/{replicates} replicates finished, "
                        f"{completed} completed)"
                    )
                else:
                    improved = False
                    detail = (
                        f"no usable trajectories ({completed}/{replicates} "
                        f"replicates completed)"
                    )
                checks.append(
                    (f"(a) {algorithm} improves at M={count}", improved, detail)
                )
    for count in (100, 1000):
        power_final = finals[("power", count)]
        renyi_final = finals[("renyi", count)]
        emd_final = finals[("emd", count)]
        if count == 1000:
            if power_final and renyi_final:
                gap = abs(float(np.mean(power_final)) - float(np.mean(renyi_final)))
                spread = max(
                    float(np.std(power_final)), float(np.std(renyi_final))
                )
                ok_b = gap <= spread
                detail = f"|mean gap| {gap:.3f} vs std {spread:.3f}"
            else:
                ok_b = False
                detail = (
                    f"power finished {len(power_final)}, renyi finished "
                    f"{len(renyi_final)} of {replicates} replicates"
                )
            checks.append(("(b) power and renyi agree at M=1000", ok_b, detail))
        if power_final and emd_final:
            ok_c = float(np.mean(emd_final)) < float(np.mean(power_final))
            detail = (
                f"emd mean {np.mean(emd_final):.2f} vs power mean "
                f"{np.mean(power_final):.2f}"
            )
        else:
            ok_c = False
            detail = (
                f"power finished {len(power_final)}, emd finished "
                f"{len(emd_final)} of {replicates} replicates"
            )
        checks.append((f"(c) emd below power at M={count}", ok_c, detail))
    elapsed = time.perf_counter() - start
    checks.append(
        ("runtime under 10 minutes", elapsed < 600.0, f"{elapsed:.0f}s")
    )
    ok = all(passed for _, passed, _ in checks)
    summary = "; ".join(
        f"{name}: {'ok' if passed else 'FAILED'} ({detail})"
        for name, passed, detail in checks
    )
    line = _report(9, ok, summary)
    assert ok, line
