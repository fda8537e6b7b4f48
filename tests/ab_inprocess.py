"""In-process A/B timing of two checkouts of alpha_descent.

Loads ``src/alpha_descent`` of each checkout under its own module name, so
both copies share one interpreter, one numpy and one BLAS.  It then runs
alternating rounds of one shape on the two copies, A then B, then B then A,
so that a drift of the host's speed falls on both sides alike.  The first
round's records of the two sides are compared as ``record_grid.py``
compares them (``record_grid.difference``), so that a change that moves
them at rounding level by design can be timed too: the script prints the
largest gap and stops only if a relative gap exceeds 1e-12.  It prints each
side's median and quartiles of the round time and the ratio of the
medians, A over B, so a ratio above 1 means that B is faster.

Shapes:

- ``exact``: the exact benchmark combos, 50-step ``run_descent`` calls of kl
  at alpha 1 and of power, renyi and emd over four alphas and three step
  sizes, on four ``fixtures.random_problem`` problems;
- ``desk``: one round of the benchmark's desk workload: the power, renyi
  and emd arms of the criterion 9 shape (J=20, d=16, M=100, 4 replicates of
  10 phases of 20 steps), each followed by ``write_trace`` into a temporary
  directory;
- ``fig1``: one replicate of ``configs/figure1.json`` at M=2000, on the emd
  arm, as the benchmark's fig1 workload runs it.

Run it from the root of a checkout, for example against a copy of the
parent commit (``record_grid`` imports the package from ``src``):

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/ab_inprocess.py ../parent . --shape exact

Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import record_grid

ROOT = Path(__file__).resolve().parent.parent
EXACT_ALPHAS = (-0.5, 0.0, 0.5, 0.99)
EXACT_ETAS = (0.1, 0.5, 1.0)
EXACT_COMBOS = tuple(("kl", 1.0, eta) for eta in EXACT_ETAS) + tuple(
    (algorithm, alpha, eta)
    for algorithm in ("power", "renyi", "emd")
    for alpha in EXACT_ALPHAS
    for eta in EXACT_ETAS
)


def load(checkout, name):
    """The package under ``checkout/src/alpha_descent``, imported as ``name``."""
    src = Path(checkout).resolve() / "src" / "alpha_descent"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.fixtures")  # the one module __init__ leaves out
    return package


# the largest relative gap between the two sides' records that still counts
# as rounding
MAX_RELATIVE_GAP = 1e-12


def exact_round(package):
    """The exact combos on four problems; returns their traces."""
    rng = np.random.default_rng(2106)
    traces = []
    for _ in range(4):
        problem = package.fixtures.random_problem(rng)
        uniform = np.full(problem.num_components, 1.0 / problem.num_components)
        for algorithm, alpha, eta in EXACT_COMBOS:
            params = package.divergence.DescentParams(alpha, eta)
            traces.append(
                package.descent.run_descent(uniform, params, algorithm, 50, problem=problem)
            )
    return traces


def desk_round(package):
    traces = []
    for algorithm in ("power", "renyi", "emd"):
        config = package.harness.ExperimentConfig(
            algorithm=algorithm, alpha=0.5, step_size_base=0.3, num_components=20,
            sample_count=(100,), num_steps=20, num_phases=10, dim=16, replicates=4,
            seed=20260801,
        )
        arm = package.harness.run_experiment(config)
        with tempfile.TemporaryDirectory() as out_dir:
            package.harness.write_trace(arm, out_dir, config)
        traces.extend(arm)
    return traces


def fig1_round(package):
    config = package.harness.parse_config(ROOT / "configs" / "figure1.json")
    config = dataclasses.replace(config, algorithm="emd", sample_count=(2000,), replicates=1)
    return [package.harness.run_replicate(config, 0)]


ROUNDS = {"exact": exact_round, "desk": desk_round, "fig1": fig1_round}


def timed(package, shape):
    tick = time.perf_counter()
    traces = ROUNDS[shape](package)
    return time.perf_counter() - tick, traces


def summary(times):
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return median, q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="checkout A, the baseline")
    parser.add_argument("b", help="checkout B, the change")
    parser.add_argument("--shape", choices=tuple(ROUNDS), default="exact")
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for the quartiles")

    sides = {"A": load(args.a, "alpha_descent_a"), "B": load(args.b, "alpha_descent_b")}
    times = {"A": [], "B": []}
    for i in range(args.rounds):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        runs = {}
        for side in order:
            seconds, traces = timed(sides[side], args.shape)
            times[side].append(seconds)
            if i == 0:
                runs[side] = record_grid.records(traces, 1)
        if i == 0:
            gaps = record_grid.difference(runs["B"], runs["A"])
            print(f"first round's records, B against A: weights {gaps[0, 0]:.2e} abs / "
                  f"{gaps[0, 1]:.2e} rel, the rest {gaps[1, 0]:.2e} abs / {gaps[1, 1]:.2e} rel")
            if gaps[:, 1].max() > MAX_RELATIVE_GAP:
                sys.exit(f"the first round's records differ by more than {MAX_RELATIVE_GAP} "
                         "relative between A and B")
    print(f"shape {args.shape}, {args.rounds} alternating rounds")
    for side, checkout in (("A", args.a), ("B", args.b)):
        median, q1, q3 = summary(times[side])
        print(f"{side} {checkout}: median {median * 1e3:.2f} ms, "
              f"quartiles {q1 * 1e3:.2f}-{q3 * 1e3:.2f} ms")
    ratio = statistics.median(times["A"]) / statistics.median(times["B"])
    print(f"A/B ratio of medians {ratio:.3f}")


if __name__ == "__main__":
    main()
