"""One workload of the alpha-descent benchmark, run in a fresh process.

    python3 perfbench/workloads.py --workload fig1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/workloads.py --workload fig1 --seed 1 --probe

``perfbench/run.py`` starts this script with ``src`` on ``PYTHONPATH``.  The
module imports numpy, scipy and the package at the top, so the time from
process start to the "ready" stamp is the set-up a user pays.  ``--probe``
stops at that stamp.  Otherwise the script runs timed calls until
``--seconds`` have passed, checks every output, and prints one JSON object
as its last line of output.

Every call is timed between two runs of a fixed reference loop
(``reference.py``) that uses numpy alone; a call's time over the mean of
the two reference times is its time relative to the host's current speed.

With ``--trace 1`` each call runs twice on the same inputs, untraced and
then traced; the records of the two must be identical, and the ratio of
their wall times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

import alpha_descent
from alpha_descent import descent as descent_mod
from alpha_descent import harness as harness_mod
from alpha_descent.divergence import DescentParams
from alpha_descent.fixtures import random_problem
from alpha_descent.harness import ExperimentConfig
from alpha_descent.model import as_simplex

import tracing
from reference import Reference

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

# Relative tolerance of the criterion 1 monotonicity rule.
MONOTONE_TOL = 1e-10

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Raw spans kept for the span file; the rest are only folded into totals.
SPAN_FILE_LIMIT = 50_000

# Runs of the reference loop before timing starts, to fill caches.
WARMUP_REFERENCES = 3


def derive_seed(*words):
    """A 32-bit config seed from the workload seed and a call index."""
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def mc_steps(traces):
    """(attempted, refused) descent steps of Monte Carlo replicate traces.

    Every accepted step leaves one record with ``step >= 1``; a replicate
    stopped by a guard attempted one more step, which was refused.
    """
    attempted = refused = 0
    for trace in traces:
        attempted += sum(1 for r in trace.records if r.step >= 1)
        if trace.status.startswith("guard_violation"):
            attempted += 1
            refused += 1
    return attempted, refused


def record_key(records):
    """Everything a record holds except its wall time, for equality checks."""
    return [
        (r.phase, r.step, r.weights.tobytes(), repr(r.vr_bound), repr(r.objective), repr(r.guard_min))
        for r in records
    ]


def traces_key(traces):
    return [(t.replicate, t.status, record_key(t.records)) for t in traces]


def check_simplex(records, where):
    for r in records:
        try:
            as_simplex(r.weights)
        except ValueError as exc:
            return [f"{where}: phase {r.phase} step {r.step} weights off the simplex ({exc})"]
    return []


class Replicates:
    """Shared part of the Monte Carlo workloads, whose calls return traces.

    The first ``quality_calls`` calls are fixed by the seed; the final VR
    bounds of their completed replicates give ``vr_final``.
    """

    block = 1
    quality_calls = 1

    def __init__(self, seed):
        self.seed = seed
        self.finals = []

    def fixed_work(self, spec):
        return True

    def release(self, spec):
        return 0

    def key(self, traces):
        return traces_key(traces)

    def check_traces(self, i, traces, where):
        problems = []
        for t in traces:
            problems += check_simplex(t.records, where)
            if t.status.startswith("completed"):
                final = t.records[-1].vr_bound
                if not math.isfinite(final):
                    problems.append(f"{where}: final VR bound {final!r} is not finite")
                elif i < self.quality_calls:
                    self.finals.append(final)
        return problems

    def quality(self):
        note = f"mean final VR bound of the {len(self.finals)} completed replicates of the first {self.quality_calls} calls"
        return {"vr_final": (statistics.fmean(self.finals), "nats", note)}


class Fig1(Replicates):
    """configs/figure1.json shape on the emd arm, one replicate per call.

    The config's own power arm refuses its first step in every replicate
    at d=16, so it would time nothing; emd always runs all 200 steps.
    """

    name = "fig1"
    min_calls = 3
    quality_calls = 3
    # The program faults in about 3,400 fresh pages a step for its
    # temporaries; with fresh_pages the reference loop faults in about
    # 3,000 a repetition.
    reference = dict(components=100, points=2000, dim=16, reps=8, fresh_pages=True)
    base = ExperimentConfig(
        algorithm="emd",
        alpha=0.5,
        step_size_base=0.3,
        num_components=100,
        sample_count=(2000,),
        num_steps=20,
        num_phases=10,
        dim=16,
        replicates=1,
        seed=0,
        shift=0.0,
        target_separation=2.0,
        target_scale=2.0,
        init_cov_scale=5.0,
        bandwidth_coeff=1.0,
        exploration="resample",
    )

    def spec(self, i):
        return replace(self.base, seed=derive_seed(self.seed, i))

    def execute(self, config):
        return harness_mod.run_experiment(config)

    def steps(self, config, traces):
        return {"emd": mc_steps(traces)}

    def check(self, i, config, traces):
        return self.check_traces(i, traces, f"fig1 call {i}")


class Desk(Replicates):
    """Criterion 9 shape at M=100: power, renyi and emd, 4 replicates each.

    One call is one arm: ``run_experiment`` with the default worker count,
    then ``write_trace`` into a fresh directory, as ``alpha-descent run``
    does.  A round is the three arms on one config seed.  The arms of
    round 0 are repeated with ``max_workers=1`` and must give identical
    records.  Only the emd arm is a fixed amount of work (power and renyi
    stop where a guard fires), so only its calls enter ``run_time_rel``.
    """

    name = "desk"
    arms = ("power", "renyi", "emd")
    reference = dict(components=20, points=100, dim=16, reps=400)
    block = len(arms)
    min_calls = len(arms)
    quality_calls = len(arms)

    def spec(self, i):
        rnd, arm = divmod(i, len(self.arms))
        config = ExperimentConfig(
            algorithm=self.arms[arm],
            alpha=0.5,
            step_size_base=0.3,
            num_components=20,
            sample_count=(100,),
            num_steps=20,
            num_phases=10,
            dim=16,
            replicates=4,
            seed=derive_seed(20260801, self.seed, rnd),
        )
        OUT_DIR.mkdir(exist_ok=True)
        return config, tempfile.mkdtemp(prefix="desk-", dir=OUT_DIR)

    def execute(self, spec):
        config, out_dir = spec
        traces = harness_mod.run_experiment(config)
        harness_mod.write_trace(traces, out_dir, config)
        return traces

    def release(self, spec):
        """Remove the call's output directory; returns the bytes it held."""
        with os.scandir(spec[1]) as entries:
            written = sum(e.stat().st_size for e in entries if e.is_file())
        shutil.rmtree(spec[1])
        return written

    def fixed_work(self, spec):
        return spec[0].algorithm == "emd"

    def steps(self, spec, traces):
        return {spec[0].algorithm: mc_steps(traces)}

    def check(self, i, spec, traces):
        config = spec[0]
        where = f"desk call {i} ({config.algorithm})"
        problems = self.check_traces(i, traces, where)
        if i < len(self.arms):
            serial = harness_mod.run_experiment(config, max_workers=1)
            if traces_key(serial) != traces_key(traces):
                problems.append(
                    f"{where}: records differ between the default worker count and max_workers=1"
                )
        return problems


EXACT_ALPHAS = (-0.5, 0.0, 0.5, 0.99)
EXACT_ETAS = (0.1, 0.5, 1.0)
EXACT_COMBOS = tuple(("kl", 1.0, eta) for eta in EXACT_ETAS) + tuple(
    (alg, a, eta) for alg in ("power", "renyi", "emd") for a in EXACT_ALPHAS for eta in EXACT_ETAS
)


class Exact:
    """Criterion 1 shape on the exact path: 50-step ``run_descent`` calls.

    Problems come from ``fixtures.random_problem`` (J in 2-8, S in 4-20);
    each is run from the uniform start under kl at alpha=1 and under
    power, renyi and emd over every (alpha, eta) pair below.
    """

    name = "exact"
    combos = EXACT_COMBOS
    reference = dict(components=6, points=12, dim=1, reps=80)
    block = len(EXACT_COMBOS)
    num_steps = 50
    min_calls = 10 * len(combos)
    quality_calls = 10 * len(combos)

    def __init__(self, seed):
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self.problem, self.problem_index = None, -1
        self.finals = []
        self.worst_rise = -math.inf

    def spec(self, i):
        index, combo = divmod(i, len(self.combos))
        while self.problem_index < index:
            self.problem = random_problem(self.rng)
            self.problem_index += 1
        algorithm, alpha, eta = self.combos[combo]
        j = self.problem.num_components
        return algorithm, DescentParams(alpha, eta), np.full(j, 1.0 / j), self.problem

    def execute(self, spec):
        algorithm, params, uniform, problem = spec
        return descent_mod.run_descent(uniform, params, algorithm, self.num_steps, problem=problem)

    def fixed_work(self, spec):
        return True

    def release(self, spec):
        return 0

    def steps(self, spec, trace):
        return {spec[0]: (len(trace.records) - 1, 0)}

    def key(self, trace):
        return [(trace.status, record_key(trace.records))]

    def check(self, i, spec, trace):
        algorithm = spec[0]
        problems = check_simplex(trace.records, f"exact call {i} ({algorithm})")
        objs = np.array([r.objective for r in trace.records])
        if len(trace.records) != self.num_steps + 1 or not np.all(np.isfinite(objs)):
            problems.append(f"exact call {i} ({algorithm}): {len(trace.records)} records, objective finite: {bool(np.all(np.isfinite(objs)))}")
            return problems
        if algorithm == "power":
            rises = np.diff(objs) / np.maximum(np.abs(objs[:-1]), 1.0)
            worst = float(rises.max())
            self.worst_rise = max(self.worst_rise, worst)
            if worst > MONOTONE_TOL:
                problems.append(f"exact call {i}: power objective rose by {worst:.3e} relative (tolerance {MONOTONE_TOL})")
        if i < self.quality_calls:
            self.finals.append(float(objs[-1]))
        return problems

    def quality(self):
        return {
            "objective_final": (statistics.fmean(self.finals), "1", f"mean final exact objective of the first {len(self.finals)} runs"),
            "power_worst_rise": (self.worst_rise, "relative", f"largest objective rise of a power run (tolerance {MONOTONE_TOL})"),
        }


WORKLOADS = {w.name: w for w in (Fig1, Desk, Exact)}


class TracedCalls:
    """Re-runs calls under tracing and folds their spans into per-layer totals."""

    def __init__(self):
        self.recorder = tracing.Recorder()
        self.layers = {}
        self.kept_spans = []
        self.missing = set()
        self.traced_s = self.untraced_s = self.covered_s = self.leaf_covered_s = 0.0

    def run(self, workload, i, out, untraced_s):
        """Run call ``i`` again, traced; returns the problems found."""
        spec = workload.spec(i)
        handle = tracing.install(self.recorder)
        try:
            t0 = time.perf_counter()
            traced = workload.execute(spec)
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # reported as a failed call
            return [f"call {i} raised {type(exc).__name__} when traced: {exc}"]
        finally:
            handle.restore()
            workload.release(spec)
            spans = self.recorder.take()
        self.missing.update(handle.missing)
        tracing.aggregate(spans, self.layers)
        self.covered_s += tracing.covered_seconds(spans)
        self.leaf_covered_s += tracing.covered_seconds(spans, exclude=tracing.CONTAINERS)
        self.kept_spans.extend(spans[: max(0, SPAN_FILE_LIMIT - len(self.kept_spans))])
        self.traced_s += elapsed
        self.untraced_s += untraced_s
        problems = []
        if workload.key(traced) != workload.key(out):
            problems.append(f"call {i}: traced records differ from untraced records")
        updates = [s for s in spans if s.name == "descent.update"]
        counted = (len(updates), sum(1 for s in updates if s.error == "GuardViolation"))
        derived = tuple(map(sum, zip(*workload.steps(spec, traced).values())))
        if not handle.missing and counted != derived:
            problems.append(
                f"call {i}: traced update calls and refusals {counted} differ "
                f"from the steps read off the records {derived}"
            )
        return problems

    def result(self):
        return {
            "layers": self.layers,
            "missing_patch_points": sorted(self.missing),
            "traced_s": self.traced_s,
            "untraced_s": self.untraced_s,
            "covered_s": self.covered_s,
            "leaf_covered_s": self.leaf_covered_s,
        }


def run(workload, seconds, trace):
    """Timed calls until ``seconds`` pass; returns the measured figures."""
    traced = TracedCalls() if trace else None
    call_s, call_rel, call_steps, fixed_s, fixed_rel, ref_s = [], [], [], [], [], []
    per_arm = {}
    problems = []
    calls = failed = written = minor_faults = 0
    user_s = sys_s = 0.0
    with Reference(**workload.reference) as reference:
        for _ in range(WARMUP_REFERENCES):
            reference.seconds()
        # The reference run after a call is also the one before the next.
        ref_s.append(reference.seconds())
        start = time.perf_counter()
        while (
            calls < workload.min_calls
            or calls % workload.block
            or time.perf_counter() - start < seconds
        ):
            i, calls = calls, calls + 1
            spec = workload.spec(i)
            out = None
            try:
                r0 = resource.getrusage(resource.RUSAGE_SELF)
                t0 = time.perf_counter()
                out = workload.execute(spec)
                elapsed = time.perf_counter() - t0
                r1 = resource.getrusage(resource.RUSAGE_SELF)
            except Exception as exc:  # a failed call is counted and reported, the run goes on
                failed += 1
                problems.append(f"call {i} raised {type(exc).__name__}: {exc}")
            finally:
                written += workload.release(spec)
            ref_s.append(reference.seconds())
            if out is None:
                continue
            call_s.append(elapsed)
            call_rel.append(elapsed / (0.5 * (ref_s[-2] + ref_s[-1])))
            user_s += r1.ru_utime - r0.ru_utime
            sys_s += r1.ru_stime - r0.ru_stime
            minor_faults += r1.ru_minflt - r0.ru_minflt
            if workload.fixed_work(spec):
                fixed_s.append(elapsed)
                fixed_rel.append(call_rel[-1])
            steps = workload.steps(spec, out)
            call_steps.append(sum(att for att, _ in steps.values()))
            for arm, (att, ref) in steps.items():
                tally = per_arm.setdefault(arm, [0, 0])
                tally[0] += att
                tally[1] += ref
            call_problems = traced.run(workload, i, out, elapsed) if trace else []
            call_problems += workload.check(i, spec, out)
            if call_problems:
                failed += 1
                problems += call_problems
    # Step rate of each whole block of calls, in wall seconds and in
    # reference runs.
    b = workload.block
    blocks = range(0, len(call_s) - b + 1, b)
    result = {
        "calls": calls,
        "failed": failed,
        "problems": problems,
        "call_s": call_s,
        "fixed_s": fixed_s,
        "fixed_rel": fixed_rel,
        "ref_s": ref_s,
        "block_rates": [sum(call_steps[k:k + b]) / sum(call_s[k:k + b]) for k in blocks],
        "block_rel_rates": [sum(call_steps[k:k + b]) / sum(call_rel[k:k + b]) for k in blocks],
        "per_arm": per_arm,
        "steps_attempted": sum(a for a, _ in per_arm.values()),
        "steps_refused": sum(r for _, r in per_arm.values()),
        "timed_s": sum(call_s),
        "trace_bytes_written": written,
        "user_s": user_s,
        "sys_s": sys_s,
        "minor_faults": minor_faults,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if problems or not call_s:
        return result
    result["quality"] = workload.quality()
    if trace:
        result.update(traced.result())
        result["kept_spans"] = traced.kept_spans
    return result


def _blas_name(module):
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, AttributeError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, asked, never set."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def stamp(args):
    """The machine and the run settings every output carries."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_name(np),
        "scipy_blas": _blas_name(scipy),
        "blas_threads": _openblas_threads(),
        **{var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    src = (ROOT / "src").resolve()
    if Path(alpha_descent.__file__).resolve().parent.parent != src:
        print(f"alpha_descent was imported from {alpha_descent.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0
    result = run(workload, args.seconds, args.trace)
    result["ready"] = ready
    result["stamp"] = stamp(args)
    kept = result.pop("kept_spans", None)
    if kept is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"stamp": result["stamp"], "fields": tracing.Span._fields}) + "\n")
            for span in kept:
                fh.write(json.dumps(span) + "\n")
        result["span_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
