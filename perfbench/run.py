"""Benchmark command of alpha-descent.

    python3 perfbench/run.py --workload {fig1,desk,exact} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed.  The workload runs in a fresh process
(``perfbench/workloads.py``).  With ``--trace 0`` the command also starts
the workload's set-up alone a few more times and reports the median as
``setup_s``.  It prints a report, one metric a line with its unit, then as
its last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The full
report, stamped with the machine and the run settings, is also written to
``.perfbench-out/``.  The exit status is nonzero when a correctness check
fails or the workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_SCRIPT = ROOT / "perfbench" / "workloads.py"
OUT_DIR = ROOT / ".perfbench-out"

# Set-up is timed in this many extra processes besides the workload's own.
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60
# Slack on top of --seconds: the last call overruns, then checks and the
# span file follow.
RUN_SLACK_S = 90
MAX_PRINTED_PROBLEMS = 20

# Spans each workload is expected to fire; one that stays silent is
# reported as missing, one outside the list as not on the workload's path.
MC_SPANS = (
    "model.kernel_matrix", "model.target", "model.as_simplex", "gradient.sample",
    "gradient.mc", "divergence.vr_bound", "descent.update", "descent.monitor_logmix",
    "descent.run", "explore.resample", "harness.replicate",
)
EXPECTED_SPANS = {
    "fig1": MC_SPANS,
    "desk": MC_SPANS + ("harness.write_trace",),
    "exact": (
        "model.as_simplex", "gradient.exact", "divergence.objective_exact",
        "descent.update", "descent.run",
    ),
}

# Per-layer metrics: (name, span, aggregate field, unit).  Each is printed
# as a run total and per attempted descent step.
LAYER_METRICS = (
    ("model.kernel_matrix.ms", "model.kernel_matrix", "incl_s", "ms"),
    ("model.kernel_matrix.calls", "model.kernel_matrix", "calls", "count"),
    ("model.kernel_matrix.mb_computed", "model.kernel_matrix", "extra", "MB"),
    ("model.target.ms", "model.target", "incl_s", "ms"),
    ("model.as_simplex.calls", "model.as_simplex", "calls", "count"),
    ("model.as_simplex.ms", "model.as_simplex", "incl_s", "ms"),
    ("gradient.sample.ms", "gradient.sample", "incl_s", "ms"),
    ("gradient.mc.ms", "gradient.mc", "incl_s", "ms"),
    ("gradient.exact.ms", "gradient.exact", "incl_s", "ms"),
    ("divergence.vr_bound.ms", "divergence.vr_bound", "incl_s", "ms"),
    ("divergence.objective_exact.ms", "divergence.objective_exact", "incl_s", "ms"),
    ("descent.update.ms", "descent.update", "incl_s", "ms"),
    ("descent.monitor_logmix.ms", "descent.monitor_logmix", "incl_s", "ms"),
    ("descent.run.self_ms", "descent.run", "self_s", "ms"),
    ("descent.steps.attempted", "descent.update", "calls", "count"),
    ("descent.steps.refused", "descent.update", "refused", "count"),
    ("explore.resample.ms", "explore.resample", "incl_s", "ms"),
    ("explore.mean_update.ms", "explore.mean_update", "incl_s", "ms"),
    ("harness.replicate.self_ms", "harness.replicate", "self_s", "ms"),
    ("harness.replicate.wait_ms", "harness.replicate", "wait_s", "ms"),
    ("harness.write_trace.ms", "harness.write_trace", "incl_s", "ms"),
    ("harness.write_trace.bytes", "harness.write_trace", "extra", "B"),
)


def layer_value(agg, field, unit):
    """A per-layer run total in the metric's unit; 0 when the span never fired."""
    if agg is None:
        return 0
    if field == "refused":
        return agg["errors"].get("GuardViolation", 0)
    if unit == "ms":
        return agg[field] * 1000.0
    if unit == "MB":
        return agg[field] / 1e6
    return agg[field]


def quantile(values, q):
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(result, setup):
    """The gated metrics: defined on every workload, never zero.

    The host's speed drifts by a third within seconds, so the timings are
    read against the reference loop run just before and after each call:
    ``run_time_rel`` is a fixed-work call's wall time over the mean of those
    two reference times, and ``steps_per_ref`` a block's attempted steps over
    the sum of its calls' relative times.  Both are medians over the run.
    """
    return {
        "setup_s": (statistics.median(setup), "s"),
        "run_time_rel": (statistics.median(result["fixed_rel"]), "ratio"),
        "steps_per_ref": (statistics.median(result["block_rel_rates"]), "1/ref"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def report_lines(workload, result, setup):
    """Every end-to-end figure of the workload, by name and unit."""
    calls_s = result["call_s"]
    fixed_ms = [1000.0 * c for c in result["fixed_s"]]
    fixed = f"of {len(fixed_ms)} fixed-work calls"
    attempted, refused = result["steps_attempted"], result["steps_refused"]
    blocks = f"of {len(result['block_rates'])} blocks"
    lines = []
    if setup:
        lines.append(("setup_s", statistics.median(setup), "s", f"median of {len(setup)} process starts"))
    lines += [
        ("run_time_rel", statistics.median(result["fixed_rel"]), "ratio", f"median {fixed}, over the reference time beside each"),
        ("steps_per_ref", statistics.median(result["block_rel_rates"]), "1/ref", f"median {blocks}, steps per reference time"),
        ("ref_ms", 1000.0 * statistics.median(result["ref_s"]), "ms", f"median of {len(result['ref_s'])} reference runs: the host's speed"),
        ("steps_per_s", attempted / result["timed_s"], "1/s", f"{attempted} steps attempted in {result['timed_s']:.3f} s of timed calls"),
        ("steps_per_s_p50", statistics.median(result["block_rates"]), "1/s", blocks),
        ("run_ms_p50", statistics.median(fixed_ms), "ms", fixed),
    ]
    if workload == "fig1":
        lines.append(("replicate_s", statistics.median(calls_s), "s", f"median of {len(calls_s)} replicates"))
    if workload == "exact":
        lines.append(("run_ms_p90", quantile(fixed_ms, 90), "ms", f"of {len(fixed_ms)} runs of 50 steps"))
    if workload in ("fig1", "desk"):
        lines.append(("failed_share", refused / attempted, "share", f"{refused} of {attempted} steps refused by a guard"))
    for name, (value, unit, note) in result["quality"].items():
        lines.append((name, value, unit, note))
    lines.append(("peak_rss_mb", result["peak_rss_mb"], "MB", "peak resident memory of the workload process"))
    cpu_s = result["user_s"] + result["sys_s"]
    lines.append(("sys_share", result["sys_s"] / cpu_s if cpu_s else 0.0, "share", "kernel share of the CPU time of the timed calls"))
    lines.append(("minor_faults_per_step", result["minor_faults"] / attempted, "count", f"{result['minor_faults']} minor page faults in the timed calls"))
    for arm, (att, ref) in sorted(result["per_arm"].items()):
        lines.append((f"steps.{arm}.attempted", att, "count", ""))
        lines.append((f"steps.{arm}.refused", ref, "count", ""))
    if workload == "desk":
        lines.append(("trace_bytes_written", result["trace_bytes_written"], "B", "write_trace output of the untraced calls"))
    return lines


def per_layer(workload, result):
    """Per-layer metrics of a traced run, plus which spans did not fire."""
    layers = result["layers"]
    steps = result["steps_attempted"]
    metrics = {}
    for name, span, field, unit in LAYER_METRICS:
        total = layer_value(layers.get(span), field, unit)
        metrics[f"{name}.total"] = (total, unit)
        if name != "descent.steps.attempted":
            metrics[f"{name}.per_step"] = (total / steps, f"{unit}/step")
    expected = EXPECTED_SPANS[workload]
    missing = [s for s in expected if s not in layers]
    untraced = steps / result["untraced_s"]
    traced = steps / result["traced_s"]
    metrics.update({
        "trace.steps_per_s.untraced": (untraced, "1/s"),
        "trace.steps_per_s.traced": (traced, "1/s"),
        "trace.overhead_pct": (100.0 * (untraced / traced - 1.0), "%"),
        "trace.span_cover_pct": (100.0 * result["covered_s"] / result["traced_s"], "%"),
        "trace.leaf_cover_pct": (100.0 * result["leaf_covered_s"] / result["traced_s"], "%"),
        "trace.spans_missing": (len(missing), "count"),
    })
    notes = {
        "missing": missing,
        "not_on_path": [s for s in sorted({m[1] for m in LAYER_METRICS}) if s not in expected and s not in layers],
        "unexpected": [s for s in layers if s not in expected],
        "missing_patch_points": result["missing_patch_points"],
        "span_file": result.get("span_file"),
    }
    return metrics, notes


def spawn(args, timeout):
    """Run the workload script; returns (monotonic start, parsed last line)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKLOAD_SCRIPT), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description="alpha-descent benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(EXPECTED_SPANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "alpha_descent" / "__init__.py").is_file():
        print(f"perfbench: no alpha_descent sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = []
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                t0, probe = spawn(common + ["--probe"], PROBE_TIMEOUT_S)
                setup.append(probe["ready"] - t0)
        t0, result = spawn(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            args.seconds + RUN_SLACK_S,
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setup.append(result["ready"] - t0)

    stamp = result["stamp"]
    print("# " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    problems = result["problems"]
    for problem in problems[:MAX_PRINTED_PROBLEMS]:
        print(f"CHECK FAILED: {problem}")
    if len(problems) > MAX_PRINTED_PROBLEMS:
        print(f"CHECK FAILED: ... and {len(problems) - MAX_PRINTED_PROBLEMS} more")
    correct = not problems and result["failed"] == 0
    report = {
        "stamp": stamp,
        "correct": correct,
        "problems": problems,
        "call_s": result["call_s"],
        "block_rates": result["block_rates"],
        "block_rel_rates": result["block_rel_rates"],
        "fixed_rel": result["fixed_rel"],
        "ref_s": result["ref_s"],
        "setup_samples_s": setup,
    }
    metrics = {}
    if correct:
        lines = report_lines(args.workload, result, setup if not args.trace else [])
        for name, value, unit, note in lines:
            print(f"{name:34s} {value:>16.6g} {unit:8s} {note}")
        report["report"] = {name: {"value": value, "unit": unit, "note": note} for name, value, unit, note in lines}
        if args.trace:
            metrics, notes = per_layer(args.workload, result)
            report["spans"] = notes
            for name, (value, unit) in metrics.items():
                print(f"{name:42s} {value:>14.6g} {unit}")
            for kind in ("missing", "not_on_path", "unexpected", "missing_patch_points"):
                print(f"spans {kind}: {', '.join(notes[kind]) or 'none'}")
        else:
            metrics = end_to_end(result, setup)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": result["calls"],
        "failed": result["failed"],
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
