"""Fixed descent runs whose records ``record_grid.npz`` holds, so that a
refactor can show what it did to them:

    PYTHONPATH=src python tests/record_grid.py compare   # the package against the file
    PYTHONPATH=src python tests/record_grid.py write     # rewrite the file

``compare`` prints each group's largest absolute and relative difference of
the weights and of the rest, and exits 1 unless all are 0.  The tolerances
that ``test_record_grid.py`` applies are kept in the file.
"""

import itertools
import math
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np

import alpha_descent.descent as descent
from alpha_descent import (DescentParams, ExperimentConfig, GaussianKernel, GaussianMixtureTarget,
                           MixtureGradient, MixtureState, bandwidth_rule, parse_config,
                           run_experiment)
from alpha_descent.fixtures import random_problem

PATH = Path(__file__).with_name("record_grid.npz")
BLOCKS = ("small", "desk", "fig1", "smoke", "zero_weight", "exact")
SHAPES = {
    "small": dict(num_components=4, sample_count=(32,), num_steps=2, num_phases=2, dim=2,
                  replicates=2, seed=3, target_separation=1.0, init_cov_scale=1.0),
    "desk": dict(num_components=20, sample_count=(100,), num_steps=5, num_phases=3, dim=16,
                 replicates=2, seed=5),
}


def grid(block):
    """The block's groups as ``(name, every, traces)``; ``traces()`` runs one."""
    if block in SHAPES:  # every setting the config accepts
        for alg, alpha, shift in itertools.product(
                descent.ALGORITHMS, (0.5, 1.0, 2.0), (-0.3, 0.0, 0.3)):
            try:
                config = ExperimentConfig(alg, alpha, 0.3, shift=shift, **SHAPES[block])
            except ValueError:
                continue
            yield (f"{block}/{alg} alpha={alpha} shift={shift}", 5 if block == "desk" else 1,
                   lambda c=config: run_experiment(c))
    elif block == "fig1":  # two phases of one configs/figure1.json replicate at M=2000
        fig1 = parse_config(Path(__file__).parents[1] / "configs" / "figure1.json")
        arms = [(a, x, {}) for a in descent.ALGORITHMS if a != "kl" for x in (0.5, 2.0)]
        spread = [(a, 0.5, {"init_cov_scale": 50.0}) for a in ("power", "renyi")]
        moved = [(a, 0.5, {"init_cov_scale": 50.0, "exploration": "mean_update", "num_phases": 3})
                 for a in ("power", "renyi")]
        for alg, alpha, keys in arms + [("kl", 1.0, {})] + spread + moved:
            config = replace(fig1, **{"algorithm": alg, "alpha": alpha, "sample_count": (2000,),
                                      "num_phases": 2, "replicates": 1, **keys})
            name = " ".join([f"fig1/{alg} alpha={alpha}", *(f"{k}={v}" for k, v in keys.items())])
            yield name, 5, lambda c=config: run_experiment(c)
    elif block == "smoke":  # configs/smoke.json with the mean-update exploration
        smoke = parse_config(Path(__file__).parents[1] / "configs" / "smoke.json")
        yield "smoke/power alpha=0.5 exploration=mean_update", 1, lambda: run_experiment(
            replace(smoke, exploration="mean_update"))
    elif block == "zero_weight":  # no weight on rows 0 (on a weighted particle), 5 and 11
        rng = np.random.default_rng(94)
        points = math.sqrt(5.0) * rng.standard_normal((20, 16))
        points[0] = points[1]
        points[5] += 60.0  # far from every sample
        weights = np.full(20, 1.0 / 17)
        weights[[0, 5, 11]] = 0.0
        state = MixtureState(weights, points, GaussianKernel(bandwidth_rule(20, 16), 16))
        target = GaussianMixtureTarget([-2.0 * np.ones(16), 2.0 * np.ones(16)], scale=2.0)
        for alg in ("power", "renyi", "emd"):
            yield f"zero_weight/{alg}", 1, lambda a=alg: [descent.run_descent(
                state, DescentParams(0.5, 0.067), a, 20, target=target, sample_count=500,
                rng=np.random.default_rng(95))]
    else:  # 50 exact steps from the uniform start
        rng = np.random.default_rng(2024)
        for i, p in enumerate(random_problem(rng) for _ in range(3)):
            for alg in descent.ALGORITHMS:
                alphas = (1.0,) if alg == "kl" else (-0.5, 0.0, 0.5, 0.99)
                yield f"exact/problem {i} {alg}", 10, lambda a=alg, p=p, alphas=alphas: [
                    descent.run_descent(np.full(p.num_components, 1.0 / p.num_components),
                                        DescentParams(x, eta), a, 50, problem=p)
                    for x, eta in itertools.product(alphas, (0.1, 0.5, 1.0))]


def traces(name):
    """The traces of the group ``name``."""
    return next(run for group, _, run in grid(name.split("/")[0]) if group == name)()


def records(traces, every):
    """``[(status, scalars, weights)]``: each record's bound, objective and guard margin, and
    the weights of each record whose step is a multiple of ``every``, and the last's."""
    return [(t.status, np.array([(r.vr_bound, r.objective, r.guard_min) for r in t.records]),
             np.concatenate([r.weights for i, r in enumerate(t.records)
                             if r.step % every == 0 or i == len(t.records) - 1]))
            for t in traces]


def run(block):
    """``{name: records(traces, every)}`` for each group of the block."""
    return {name: records(traces(), every) for name, every, traces in grid(block)}


def load():
    """The stored runs, as :func:`run` gives them, and their tolerances."""
    with np.load(PATH) as f:
        rows = list(zip(map(str, f["group"]), map(str, f["status"]),
                        np.split(f["scalars"], np.cumsum(f["records"])[:-1]),
                        np.split(f["weights"], np.cumsum(f["kept"])[:-1]), f["tolerance"]))
    runs = itertools.groupby(rows, key=lambda row: row[0])
    return {name: [row[1:4] for row in group] for name, group in runs}, {r[0]: r[4] for r in rows}


def _gaps(got, want):
    """Largest absolute and relative difference; NaN matches NaN."""
    equal = (got == want) | (np.isnan(got) & np.isnan(want))
    finite = ~equal & np.isfinite(got) & np.isfinite(want)
    gap = np.where(equal, 0.0, np.inf)
    gap[finite] = np.abs(got[finite] - want[finite])
    rel = np.divide(gap, np.abs(want), out=np.where(gap > 0, np.inf, 0.0),
                    where=np.isfinite(want) & (want != 0))
    return gap.max(initial=0.0), rel.max(initial=0.0)


def difference(got, want):
    """Largest absolute and relative difference of two groups' weights (row 0) and of
    the rest with a status's guard value (row 1); inf if a text or a count differs."""
    worst = np.full((2, 2), 0.0 if len(got) == len(want) else np.inf)
    for (gs, gv, gw), (ws, wv, ww) in zip(got, want):
        (gt, _, gg), (wt, _, wg) = (s.rpartition(" = ") if s.startswith("guard_violation")
                                    and " = " in s else (s, "", "nan") for s in (gs, ws))
        if gt != wt or gv.shape != wv.shape or gw.shape != ww.shape:
            return np.full((2, 2), np.inf)
        rest = _gaps(np.append(gv, float(gg)), np.append(wv, float(wg)))
        worst = np.maximum(worst, [_gaps(gw, ww), rest])
    return worst


def _nudged(batch, alpha, *, log_base=False, real=descent.gradient_monte_carlo_from_logs):
    """The gradient with its values or ``log A_j`` moved by 4 ulps, up or down."""
    grad = real(batch, alpha, log_base=log_base)
    array = grad.values if grad.log_base is None else grad.log_base
    signs = np.where(np.random.default_rng(0).random(array.size) < 0.5, -1.0, 1.0)
    array = array * (1.0 + 4.0 * np.finfo(float).eps * signs)
    return MixtureGradient(None, alpha, log_base=array) if log_base else MixtureGradient(array, alpha)


def main(command):
    got = {name: runs for block in BLOCKS for name, runs in run(block).items()}
    if command == "compare":
        (stored, tolerance), same = load(), True
        print(f"{'group':48s} runs  weights abs / rel   rest abs / rel")
        for name in [*got, *(name for name in stored if name not in got)]:
            gaps = difference(got.get(name, []), stored.get(name, [])).ravel()
            same &= not gaps.any()
            print(f"{name:48s} {len(got.get(name, [])):4d}", *(f"{x:9.2e}" for x in gaps),
                  "" if (gaps[[0, 1, 3]] <= tolerance.get(name, 0.0)).all() else "out of tolerance")
        return 0 if same else 1
    # 1e-12 relative, but 10 times what a 4-ulp nudge of every gradient moves the kl
    # and renyi groups of small, desk and fig1, the weights absolute, the rest relative
    tolerance = dict.fromkeys(got, (math.inf, 1e-12, 1e-12))
    with mock.patch.object(descent, "gradient_monte_carlo_from_logs", _nudged):
        for name, runs in [item for block in BLOCKS[:3] for item in run(block).items()]:
            if name.split("/")[1].split()[0] in ("kl", "renyi"):
                weights, rest = difference(runs, got[name]).diagonal()
                tolerance[name] = (10.0 * weights, math.inf, 10.0 * rest)
                print(f"{name:48s} a 4-ulp nudge moves the weights {weights:.2e}, the rest {rest:.2e}")
    rows = [(name, *r) for name, runs in got.items() for r in runs]
    np.savez_compressed(
        PATH, group=[r[0] for r in rows], status=[r[1] for r in rows],
        records=[len(r[2]) for r in rows], scalars=np.concatenate([r[2] for r in rows]),
        kept=[r[3].size for r in rows], weights=np.concatenate([r[3] for r in rows]),
        tolerance=[tolerance[r[0]] for r in rows])
    print(f"wrote {PATH}, {PATH.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]) if sys.argv[1:] in (["write"], ["compare"]) else __doc__)
