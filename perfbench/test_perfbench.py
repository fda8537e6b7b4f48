"""Tests of the benchmark's tracing.  Run with ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from alpha_descent import descent, harness  # noqa: E402
from alpha_descent.divergence import DescentParams  # noqa: E402
from alpha_descent.fixtures import random_problem  # noqa: E402
from alpha_descent.harness import ExperimentConfig  # noqa: E402


def _originals():
    return [
        vars(owner)[attr]
        for owner, attr in (tracing._resolve(m, p) for m, p, *_ in tracing.PATCH_POINTS)
    ]


def test_restore_puts_back_every_patched_name():
    before = _originals()
    handle = tracing.install(tracing.Recorder())
    try:
        assert handle.missing == []
        during = _originals()
        assert all(a is not b for a, b in zip(before, during))
    finally:
        handle.restore()
    assert all(a is b for a, b in zip(before, _originals()))


def test_missing_patch_point_is_reported_and_the_rest_restored():
    before = _originals()
    points = tracing.PATCH_POINTS + (
        ("alpha_descent.descent", "no_such_name", "descent.gone", None, False),
        ("alpha_descent.model", "NoSuchClass.method", "model.gone", None, False),
        ("alpha_descent.no_such_module", "name", "gone", None, False),
    )
    handle = tracing.install(tracing.Recorder(), points)
    handle.restore()
    assert handle.missing == [
        "alpha_descent.descent.no_such_name",
        "alpha_descent.model.NoSuchClass.method",
        "alpha_descent.no_such_module.name",
    ]
    assert all(a is b for a, b in zip(before, _originals()))


def _small_config(algorithm):
    return ExperimentConfig(
        algorithm=algorithm, alpha=0.5, step_size_base=0.3, num_components=5,
        sample_count=(50,), num_steps=3, num_phases=2, dim=2, replicates=2, seed=11,
    )


def _traced(fn):
    recorder = tracing.Recorder()
    handle = tracing.install(recorder)
    try:
        out = fn()
    finally:
        handle.restore()
    return out, recorder.take()


@pytest.mark.parametrize("algorithm", ["power", "renyi", "emd"])
def test_traced_replicates_match_untraced(algorithm):
    config = _small_config(algorithm)
    plain = harness.run_experiment(config)
    traced, spans = _traced(lambda: harness.run_experiment(config))
    assert workloads.traces_key(traced) == workloads.traces_key(plain)
    totals = tracing.aggregate(spans)
    attempted, refused = workloads.mc_steps(plain)
    assert totals["descent.update"]["calls"] == attempted
    assert totals["descent.update"]["errors"].get("GuardViolation", 0) == refused
    assert totals["harness.replicate"]["calls"] == config.replicates


def test_traced_exact_runs_match_untraced():
    problem = random_problem(np.random.default_rng(5))
    uniform = np.full(problem.num_components, 1.0 / problem.num_components)
    for algorithm, alpha, eta in workloads.EXACT_COMBOS:
        params = DescentParams(alpha, eta)
        plain = descent.run_descent(uniform, params, algorithm, 10, problem=problem)
        traced, spans = _traced(
            lambda: descent.run_descent(uniform, params, algorithm, 10, problem=problem)
        )
        assert workloads.record_key(traced.records) == workloads.record_key(plain.records)
        totals = tracing.aggregate(spans)
        assert totals["descent.run"]["calls"] == 1
        assert totals["descent.update"]["calls"] == 10


def test_self_time_and_coverage_on_nested_spans():
    span = tracing.Span
    spans = [
        span(2, 1, "child", 1, 1.0, 2.0, None, None, 0),
        span(3, 1, "child", 1, 3.0, 3.5, None, None, 0),
        span(1, None, "descent.run", 1, 0.0, 4.0, 3.0, None, 0),
        span(4, None, "harness.replicate", 2, 3.25, 6.0, 2.0, None, 0),
    ]
    totals = tracing.aggregate(spans)
    assert totals["descent.run"]["self_s"] == pytest.approx(2.5)
    assert totals["descent.run"]["wait_s"] == pytest.approx(1.0)
    assert totals["child"]["calls"] == 2
    assert tracing.covered_seconds(spans) == pytest.approx(6.0)
    assert tracing.covered_seconds(spans, exclude=tracing.CONTAINERS) == pytest.approx(1.5)


def test_reference_helper_answers_and_ends():
    with reference.Reference(3, 5, 2, 4) as ref:
        times = [ref.seconds() for _ in range(3)]
    assert all(t > 0 for t in times)
    assert ref.proc.returncode == 0
