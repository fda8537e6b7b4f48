"""Experiment configuration, replicate runner and trace serialisation.

A run is the two-mode Gaussian benchmark: optimise the weights of a
J-component smoothed mixture against the target

    target_scale * [0.5 N(-s 1_d, I_d) + 0.5 N(+s 1_d, I_d)]

with T alternating phases of N descent steps and one exploration move.
Replicate r draws everything from the stream (seed, r), so replicates are
reproducible and mutually independent; they run one after another.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, fields, replace

import numpy as np

from .descent import ALGORITHMS, DescentTrace, GuardViolation, run_descent
from .divergence import DescentParams, _check_params
from .explore import _check_mean_update_alpha, explore_mean_update, explore_resample
from .gradient import MixtureState
from .model import (
    GaussianKernel,
    GaussianMixtureTarget,
    _check_float,
    _check_integer,
    bandwidth_rule,
)

__all__ = [
    "CSV_HEADER",
    "EXPLORATIONS",
    "ExperimentConfig",
    "build_target",
    "parse_config",
    "read_trace_csv",
    "replicate_rng",
    "run_experiment",
    "run_replicate",
    "write_trace",
]

EXPLORATIONS = ("resample", "mean_update")

CSV_HEADER = ["t", "n", "vr_bound", "psi_exact", "guard_min", "elapsed_ms"]

# The least value of each integer config key, and the float keys that must
# be positive.
_MINIMUM = {
    "num_components": 1, "num_steps": 0, "num_phases": 1, "dim": 1,
    "replicates": 0, "seed": 0,
}
_POSITIVE = {"step_size_base", "target_scale", "init_cov_scale", "bandwidth_coeff"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; every field has a CLI flag of the same name.

    ``sample_count`` may list several batch sizes; the CLI runs one
    experiment per entry, while :func:`run_experiment` insists on a single
    one.
    """

    algorithm: str
    alpha: float
    step_size_base: float
    num_components: int
    sample_count: tuple
    num_steps: int
    num_phases: int
    dim: int
    replicates: int
    seed: int
    shift: float = 0.0
    target_separation: float = 2.0
    target_scale: float = 2.0
    init_cov_scale: float = 5.0
    bandwidth_coeff: float = 1.0
    exploration: str = "resample"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if self.exploration not in EXPLORATIONS:
            raise ValueError(
                f"exploration must be one of {EXPLORATIONS}, got {self.exploration!r}"
            )
        counts = self.sample_count
        counts = (counts,) if np.ndim(counts) == 0 else tuple(counts)
        for m in counts:
            _check_integer("sample_count entry", m, 1)
        counts = tuple(int(m) for m in counts)
        if not counts:
            raise ValueError("sample_count must list at least one batch size")
        repeated = sorted({m for m in counts if counts.count(m) > 1})
        if repeated:
            # each entry writes to its own samples_<M> directory
            raise ValueError(f"sample_count lists {repeated[0]} more than once")
        object.__setattr__(self, "sample_count", counts)
        # each key's type is its annotation, the one the CLI flags read
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                _check_integer(f.name, value, _MINIMUM[f.name])
                object.__setattr__(self, f.name, int(value))
            elif f.type == "float":
                _check_float(f.name, value, positive=f.name in _POSITIVE)
        # the step parameters run_descent refuses at entry, refused here
        # before any replicate starts
        try:
            _check_params(self.algorithm, self.descent_params())
        except ValueError as exc:
            raise ValueError(
                f"alpha={self.alpha!r}, shift={self.shift!r}, "
                f"step_size_base={self.step_size_base!r} and "
                f"num_steps={self.num_steps} do not suit the "
                f"{self.algorithm} update: {exc}"
            ) from None
        if self.exploration == "mean_update":
            try:
                _check_mean_update_alpha(self.alpha)
            except ValueError as exc:
                raise ValueError(f"exploration=mean_update: {exc}") from None

    def descent_params(self):
        """Per-run parameters; the step size is ``step_size_base / sqrt(N)``."""
        eta = self.step_size_base / math.sqrt(max(self.num_steps, 1))
        return DescentParams(alpha=self.alpha, step_size=eta, shift=self.shift)

    def single_sample_count(self):
        if len(self.sample_count) != 1:
            raise ValueError(
                f"config lists several sample counts {self.sample_count}; "
                "pick one per experiment (the CLI does this automatically)"
            )
        return self.sample_count[0]


_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}
_REQUIRED_FIELDS = {
    f.name
    for f in fields(ExperimentConfig)
    if f.default is MISSING and f.default_factory is MISSING
}


def parse_config(path):
    """Read and validate a JSON config file."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - _CONFIG_FIELDS)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    missing = sorted(_REQUIRED_FIELDS - set(raw))
    if missing:
        raise ValueError(f"missing required config key(s): {', '.join(missing)}")
    return ExperimentConfig(**raw)


def config_dict(config):
    """Config as plain JSON-serialisable data."""
    out = asdict(config)
    out["sample_count"] = list(config.sample_count)
    return out


def build_target(config):
    """The benchmark target of the run: two symmetric modes, scaled."""
    offset = config.target_separation * np.ones(config.dim)
    return GaussianMixtureTarget(
        means=[-offset, offset], weights=(0.5, 0.5), scale=config.target_scale
    )


def replicate_rng(seed, index):
    """Independent generator for replicate ``index`` of a run seeded ``seed``."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    )


def run_replicate(config, index):
    """One full replicate; returns its trace, truncated on a guard violation."""
    rng = replicate_rng(config.seed, index)
    target = build_target(config)
    sample_count = config.single_sample_count()
    params = config.descent_params()
    j, d = config.num_components, config.dim
    kernel = GaussianKernel(bandwidth_rule(j, d, config.bandwidth_coeff), d)
    points = math.sqrt(config.init_cov_scale) * rng.standard_normal((j, d))
    weights = np.full(j, 1.0 / j)  # every phase starts uniform

    trace = DescentTrace(status="completed", replicate=index)
    for phase in range(1, config.num_phases + 1):
        state = MixtureState(weights, points, kernel)
        try:
            part = run_descent(
                state,
                params,
                config.algorithm,
                config.num_steps,
                target=target,
                sample_count=sample_count,
                rng=rng,
                phase=phase,
                record_initial=(phase == 1),
            )
        except GuardViolation as exc:
            trace.records.extend(exc.partial.records)
            trace.status = exc.partial.status
            return trace
        trace.records.extend(part.records)
        if phase < config.num_phases:
            if part.records:
                state = replace(state, weights=part.records[-1].weights)
            if config.exploration == "resample":
                points = explore_resample(state, rng)
            else:
                points = explore_mean_update(
                    state, target, sample_count, config.alpha, rng
                )
    nan_count = sum(1 for r in trace.records if math.isnan(r.vr_bound))
    if nan_count:
        trace.status = f"completed (nan_vr={nan_count})"
    return trace


def run_experiment(config, max_workers=None):
    """All replicates of one config, run serially in replicate order.

    Each replicate draws from its own ``SeedSequence`` stream (see
    :func:`replicate_rng`), so its trace does not depend on the others.
    ``max_workers`` is ignored; it is accepted so that callers written for
    the former thread pool keep working.
    """
    return [run_replicate(config, r) for r in range(config.replicates)]


def _fmt(value):
    # repr round-trips float64 exactly; NaN and infinities appear verbatim.
    return repr(float(value))


def _json_float(value):
    # strict JSON has no NaN or infinity token
    return float(value) if math.isfinite(value) else None


def write_trace(traces, out_dir, config):
    """Write one CSV per replicate plus a cross-replicate summary.

    ``rep_<r>.csv`` columns are exactly ``t,n,vr_bound,psi_exact,guard_min,
    elapsed_ms``.  ``summary.json`` holds the config, the per-(t, n) mean
    and standard deviation of the VR bound over the replicates that reached
    that iteration (``null`` if not finite), and the terminal statuses.
    """
    os.makedirs(out_dir, exist_ok=True)
    for i, trace in enumerate(traces):
        rep = trace.replicate if trace.replicate is not None else i
        with open(os.path.join(out_dir, f"rep_{rep}.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for rec in trace.records:
                writer.writerow(
                    [
                        rec.phase,
                        rec.step,
                        _fmt(rec.vr_bound),
                        _fmt(rec.objective),
                        _fmt(rec.guard_min),
                        _fmt(rec.elapsed_ms),
                    ]
                )
    grouped = {}
    for trace in traces:
        for rec in trace.records:
            grouped.setdefault((rec.phase, rec.step), []).append(rec.vr_bound)
    series = [
        {
            "t": t,
            "n": n,
            "vr_mean": _json_float(np.mean(vals)),
            "vr_std": _json_float(np.std(vals)),
        }
        for (t, n), vals in sorted(grouped.items())
    ]
    summary = {
        "config": config_dict(config),
        "series": series,
        "statuses": [trace.status for trace in traces],
    }
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(summary, indent=2, allow_nan=False))
    return path


def read_trace_csv(path):
    """Read a replicate CSV back into a list of row dicts (floats parsed)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"{path}, line 1: header {header!r} is not {CSV_HEADER!r}")
        rows = []
        for row in reader:
            try:  # every fault of a row is named with its file and line
                if len(row) != len(CSV_HEADER):
                    raise ValueError(f"{len(row)} fields, not {len(CSV_HEADER)}")
                values = [int(x) for x in row[:2]] + [float(x) for x in row[2:]]
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
            rows.append(dict(zip(CSV_HEADER, values)))
    return rows
