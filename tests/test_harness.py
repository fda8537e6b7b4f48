"""Config parsing, the replicate runner, serialisation and the CLI."""

import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import alpha_descent.harness as harness_module
from alpha_descent import check, cli
from alpha_descent.cli import main
from alpha_descent.descent import ALGORITHMS, GuardViolation, run_descent
from alpha_descent.divergence import DescentParams
from alpha_descent.fixtures import random_problem
from alpha_descent.harness import (
    CSV_HEADER,
    ExperimentConfig,
    build_target,
    config_dict,
    parse_config,
    read_trace_csv,
    replicate_rng,
    run_experiment,
    run_replicate,
    write_trace,
)

import record_grid


def _config(**overrides):
    base = dict(
        algorithm="emd",
        alpha=0.5,
        step_size_base=0.3,
        num_components=4,
        sample_count=(32,),
        num_steps=2,
        num_phases=2,
        dim=2,
        replicates=2,
        seed=11,
        target_separation=1.0,
        init_cov_scale=1.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


class TestConfig:
    def test_repo_reference_config_parses(self):
        config = parse_config(str(CONFIG_DIR / "figure1.json"))
        assert config.algorithm == "power"
        assert config.alpha == 0.5
        assert config.step_size_base == 0.3
        assert config.num_components == 100
        assert config.sample_count == (100, 1000, 2000)
        assert config.num_steps == 20
        assert config.num_phases == 10
        assert config.dim == 16
        assert config.replicates == 100
        assert config.shift == 0.0
        assert config.exploration == "resample"

    def test_repo_smoke_config_parses(self):
        config = parse_config(str(CONFIG_DIR / "smoke.json"))
        assert config.replicates == 2

    def test_scalar_sample_count_promoted(self):
        assert _config(sample_count=64).sample_count == (64,)

    def test_unknown_key_rejected(self, tmp_path):
        path = _write_json(
            tmp_path / "bad.json",
            {"algorithm": "emd", "bandwidth": 1.0, "momentum": 0.9},
        )
        with pytest.raises(ValueError, match="bandwidth, momentum"):
            parse_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("diag_offset", 0.25),
            ("reuse_monitor_samples", True),
            ("renyi_unweighted_denominator", True),
        ],
    )
    def test_removed_option_rejected_as_unknown(self, tmp_path, key, value):
        # a config written for a removed option fails loudly, not silently
        path = _write_json(tmp_path / "old.json", {**config_dict(_config()), key: value})
        with pytest.raises(ValueError, match=f"unknown config key\\(s\\): {key}$"):
            parse_config(path)

    def test_missing_keys_listed(self, tmp_path):
        path = _write_json(tmp_path / "bad.json", {"algorithm": "emd"})
        with pytest.raises(ValueError, match="missing required"):
            parse_config(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            parse_config(str(path))

    def test_field_validation(self):
        with pytest.raises(ValueError, match="algorithm"):
            _config(algorithm="adam")
        with pytest.raises(ValueError, match="sample_count"):
            _config(sample_count=(0,))
        with pytest.raises(ValueError, match="num_components"):
            _config(num_components=0)
        with pytest.raises(ValueError, match="step_size_base"):
            _config(step_size_base=0.0)
        with pytest.raises(ValueError, match="seed"):
            _config(seed=1.5)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            _config(seed=-1)
        with pytest.raises(ValueError, match="at least one batch size"):
            _config(sample_count=[])
        with pytest.raises(ValueError, match="exploration must be one of"):
            _config(exploration="jitter")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("sample_count", [100.7]),
            ("sample_count", [100, True]),
            ("sample_count", 64.0),
            ("num_components", 4.0),
            ("num_steps", 2.0),
            ("num_phases", False),
            ("dim", 2.0),
            ("replicates", 1.5),
            ("seed", True),
            ("seed", "11"),
        ],
    )
    def test_integer_keys_must_be_integers(self, tmp_path, key, value):
        # a float is refused, not truncated or left to fail mid-run, and a
        # bool is not taken for 0 or 1
        path = _write_json(tmp_path / "bad.json", {**config_dict(_config()), key: value})
        with pytest.raises(ValueError, match=f"{key}.* must be an integer"):
            parse_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("alpha", "0.5"),
            ("step_size_base", True),
            ("shift", "0"),
            ("target_separation", "1"),
            ("target_scale", False),
            ("init_cov_scale", float("inf")),
            ("bandwidth_coeff", float("nan")),
            ("alpha", None),
        ],
    )
    def test_float_keys_must_be_finite_numbers(self, tmp_path, key, value):
        # a string used to fail inside numpy mid-run, and true ran as 1.0
        path = _write_json(tmp_path / "bad.json", {**config_dict(_config()), key: value})
        with pytest.raises(ValueError, match=f"{key} must be a finite number"):
            parse_config(path)

    def test_repeated_sample_count_refused(self, tmp_path):
        # both entries would write to one samples_100/ directory
        data = {**config_dict(_config()), "sample_count": [100, 64, 100]}
        with pytest.raises(ValueError, match="^sample_count lists 100 more than once$"):
            parse_config(_write_json(tmp_path / "bad.json", data))

    def test_integer_and_numpy_values_of_float_keys_accepted(self):
        config = _config(algorithm="renyi", alpha=2, shift=np.float64(0.5), target_scale=3)
        assert (config.alpha, config.shift, config.target_scale) == (2, 0.5, 3)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(algorithm="power", alpha=0.5, shift=0.3),
            dict(algorithm="power", alpha=2.0, shift=-0.1),
            dict(algorithm="power", step_size_base=4.0, num_steps=3),
            dict(algorithm="power", step_size_base=1.5, num_steps=0),
            dict(algorithm="renyi", alpha=0.5, shift=0.3),
            dict(algorithm="renyi", alpha=2.0, shift=-0.1),
            dict(algorithm="emd", shift=-5.0),
            dict(algorithm="emd", alpha=1.0),
            dict(algorithm="kl", alpha=1.0, shift=0.3),
        ],
    )
    def test_step_parameters_run_descent_refuses_are_refused_up_front(
        self, tmp_path, overrides
    ):
        # these used to pass the config and then fail inside run_replicate
        data = {**config_dict(_config()), **overrides}
        path = _write_json(tmp_path / "bad.json", data)
        with pytest.raises(ValueError, match="do not suit the .* update"):
            parse_config(path)

    def test_step_parameters_at_the_edge_accepted(self):
        # eta = 4 / sqrt(16) = 1 is the largest power step; renyi, emd and
        # kl have no cap
        _config(algorithm="power", step_size_base=4.0, num_steps=16)
        _config(algorithm="power", alpha=2.0, shift=0.3)
        _config(algorithm="renyi", step_size_base=4.0, num_steps=3)
        _config(algorithm="emd", step_size_base=4.0, num_steps=1)
        _config(algorithm="kl", alpha=1.0, step_size_base=4.0, num_steps=1)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_config_refuses_exactly_what_run_descent_refuses(self, algorithm):
        problem = random_problem(np.random.default_rng(0), 3, 5)
        weights = np.full(3, 1.0 / 3)
        verdicts = set()
        for alpha, shift, eta in itertools.product(
            (-0.5, 0.0, 0.5, 1.0, 2.0), (-0.3, 0.0, 0.3), (0.5, 1.0, 1.5)
        ):
            params = DescentParams(alpha=alpha, step_size=eta, shift=shift)
            try:
                run_descent(weights, params, algorithm, 0, problem=problem)
                run_ok = True
            except ValueError:
                run_ok = False
            try:
                # one step, so that the config's step size is eta itself
                _config(
                    algorithm=algorithm,
                    alpha=alpha,
                    shift=shift,
                    step_size_base=eta,
                    num_steps=1,
                )
                config_ok = True
            except ValueError:
                config_ok = False
            assert config_ok == run_ok, (alpha, shift, eta)
            verdicts.add(run_ok)
        assert verdicts == {True, False}

    def test_every_accepted_setting_changes_the_records(self):
        # a setting that changed nothing would be a silent duplicate of
        # another: emd and kl read no shift, and emd at alpha = 1 is kl.  The
        # record grid's small block runs every setting the config accepts.
        runs = {n: r for n, r in record_grid.load()[0].items() if n.startswith("small/")}
        assert list(runs) == [name for name, _, _ in record_grid.grid("small")]
        keys = {str([(s, v.tobytes(), w.tobytes()) for s, v, w in r]) for r in runs.values()}
        assert len(runs) == len(keys) == 15

    def test_numpy_integers_accepted(self):
        config = _config(num_steps=np.int64(3), seed=np.int64(5), sample_count=[np.int32(8)])
        assert (config.num_steps, config.seed, config.sample_count) == (3, 5, (8,))
        assert type(config.seed) is int and type(config.sample_count[0]) is int

    def test_algorithm_alpha_coupling(self):
        with pytest.raises(ValueError, match="alpha=1"):
            _config(algorithm="power", alpha=1.0)
        with pytest.raises(ValueError, match="alpha=1"):
            _config(algorithm="renyi", alpha=1.0)
        with pytest.raises(ValueError, match="kl"):
            _config(algorithm="kl", alpha=0.5)
        _config(algorithm="kl", alpha=1.0)

    def test_mean_update_needs_mass_covering_alpha(self):
        with pytest.raises(ValueError, match="mean_update"):
            _config(exploration="mean_update", alpha=2.0)
        _config(exploration="mean_update", alpha=0.5)

    def test_zero_steps_and_replicates_allowed(self):
        config = _config(num_steps=0, replicates=0)
        assert config.num_steps == 0

    def test_descent_params_scaling(self):
        params = _config(step_size_base=0.3, num_steps=20).descent_params()
        assert params.step_size == pytest.approx(0.3 / math.sqrt(20), rel=1e-15)
        assert params.alpha == 0.5
        # zero steps must not divide by zero
        assert _config(num_steps=0).descent_params().step_size == pytest.approx(0.3)

    def test_single_sample_count(self):
        assert _config().single_sample_count() == 32
        with pytest.raises(ValueError, match="several"):
            _config(sample_count=(8, 16)).single_sample_count()


class TestTargetAndStreams:
    def test_build_target_geometry(self):
        config = _config(dim=3, target_separation=2.0, target_scale=2.0)
        target = build_target(config)
        # symmetric modes at +-2 along the diagonal, equal mass
        assert target.log_density(2.0 * np.ones(3)) == pytest.approx(
            target.log_density(-2.0 * np.ones(3))
        )
        assert target.normalisation_hint == 2.0

    def test_replicate_rng_reproducible_and_disjoint(self):
        a = replicate_rng(11, 0).standard_normal(4)
        b = replicate_rng(11, 0).standard_normal(4)
        c = replicate_rng(11, 1).standard_normal(4)
        d = replicate_rng(12, 0).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestRunReplicate:
    def test_record_count_and_iteration_sequence(self):
        config = _config(num_phases=3, num_steps=2)
        trace = run_replicate(config, 0)
        assert trace.status == "completed"
        assert trace.replicate == 0
        assert len(trace.records) == 3 * 2 + 1
        want = [(1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
        assert [(r.phase, r.step) for r in trace.records] == want
        for rec in trace.records:
            assert np.isfinite(rec.vr_bound)
            assert math.isnan(rec.objective)

    def test_zero_steps_records_initial_only(self):
        trace = run_replicate(_config(num_steps=0), 0)
        assert [(r.phase, r.step) for r in trace.records] == [(1, 0)]

    def test_deterministic_per_index(self):
        config = _config()
        a = run_replicate(config, 1)
        b = run_replicate(config, 1)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.weights, rb.weights)
            assert ra.vr_bound == rb.vr_bound

    def test_weights_reset_after_exploration(self):
        config = _config(num_phases=2, num_steps=3, seed=13)
        trace = run_replicate(config, 0)
        first_of_phase2 = next(r for r in trace.records if r.phase == 2)
        # step 1 of a fresh phase starts from uniform, one update in
        assert first_of_phase2.step == 1
        end_of_phase1 = [r for r in trace.records if r.phase == 1][-1]
        assert not np.array_equal(first_of_phase2.weights, end_of_phase1.weights)

    def test_mean_update_exploration_runs(self):
        config = _config(exploration="mean_update", alpha=0.5, seed=17)
        trace = run_replicate(config, 0)
        assert trace.status == "completed"

    def test_guard_violation_truncates_single_replicate(self, monkeypatch):
        partial_statuses = []

        def recording(*args, **kwargs):
            try:
                return run_descent(*args, **kwargs)
            except GuardViolation as exc:
                partial_statuses.append(exc.partial.status)
                raise

        monkeypatch.setattr(harness_module, "run_descent", recording)
        config = _config(
            algorithm="renyi_unweighted",
            num_components=10,
            sample_count=(50,),
            num_steps=3,
            num_phases=1,
            dim=16,
            init_cov_scale=5.0,
            target_separation=2.0,
            seed=41,
        )
        trace = run_replicate(config, 0)
        assert trace.status.startswith("guard_violation: step 1 of phase 1")
        assert len(trace.records) == 1  # the initial record survives
        # the replicate's status is the one run_descent wrote on the partial trace
        assert partial_statuses == [trace.status]

    def test_power_completes_at_d16(self):
        # the power update reads the positive base A_j, which cannot go
        # nonpositive; the literal base A_j + 1 - mean_m k_j / mix refused
        # the first step of this config
        config = _config(
            algorithm="power",
            num_components=10,
            sample_count=(50,),
            num_steps=3,
            num_phases=2,
            dim=16,
            init_cov_scale=5.0,
            target_separation=2.0,
            seed=41,
        )
        trace = run_replicate(config, 0)
        assert trace.status == "completed"
        assert len(trace.records) == 1 + 2 * 3
        assert all(r.guard_min > 0 for r in trace.records[1:])

    @pytest.mark.parametrize("algorithm", ["power", "renyi"])
    @pytest.mark.parametrize("alpha, init_cov_scale", [(2.0, 50.0), (3.0, 20.0)])
    def test_overflowing_gradient_values_complete(
        self, algorithm, alpha, init_cov_scale
    ):
        # log A_j stays finite while expm1(log A_j)/(alpha-1) overflows; the
        # steps read log A_j alone, so the replicate runs to its end
        config = _config(
            algorithm=algorithm,
            alpha=alpha,
            num_components=20,
            sample_count=(100,),
            num_steps=20,
            num_phases=10,
            dim=16,
            target_separation=2.0,
            init_cov_scale=init_cov_scale,
            replicates=1,
            seed=2,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trace = run_replicate(config, 0)
        assert trace.status == "completed"
        assert len(trace.records) == 1 + 10 * 20
        assert all(np.isfinite(r.weights).all() for r in trace.records)

    @pytest.mark.parametrize("algorithm", ["power", "renyi"])
    def test_target_scale_invariance_at_negative_alpha(self, algorithm):
        # at alpha=-1 a target scaled by 1e300 puts log A_j near 1380; the
        # weights do not see the scale and the bound shifts by its log
        traces = {}
        for scale in (2.0, 1e300):
            config = _config(
                algorithm=algorithm,
                alpha=-1.0,
                num_components=20,
                sample_count=(100,),
                num_steps=20,
                num_phases=3,
                dim=16,
                target_separation=2.0,
                init_cov_scale=5.0,
                target_scale=scale,
                replicates=1,
                seed=2,
            )
            traces[scale] = run_replicate(config, 0)
        small, large = traces[2.0].records, traces[1e300].records
        assert traces[1e300].status == "completed"
        assert len(large) == len(small) == 1 + 3 * 20
        for a, b in zip(small, large):
            assert np.allclose(b.weights, a.weights, rtol=0, atol=1e-12)
            assert b.vr_bound - a.vr_bound == pytest.approx(
                math.log(1e300 / 2.0), abs=1e-9
            )

    def test_kl_run_flags_nan_monitor(self):
        config = _config(algorithm="kl", alpha=1.0, num_phases=2, num_steps=2)
        trace = run_replicate(config, 0)
        assert trace.status == "completed (nan_vr=5)"
        assert all(math.isnan(r.vr_bound) for r in trace.records)


class TestRunExperiment:
    def test_zero_replicates(self):
        assert run_experiment(_config(replicates=0)) == []

    def test_replicate_order_and_identity(self):
        config = _config(replicates=3)
        traces = run_experiment(config)
        assert [t.replicate for t in traces] == [0, 1, 2]

    def test_one_bad_replicate_does_not_stop_the_rest(self):
        config = _config(
            algorithm="renyi_unweighted",
            num_components=10,
            sample_count=(50,),
            num_steps=2,
            num_phases=1,
            dim=16,
            init_cov_scale=5.0,
            target_separation=2.0,
            seed=41,
            replicates=3,
        )
        traces = run_experiment(config)
        assert len(traces) == 3
        assert all(t.status.startswith("guard_violation") for t in traces)


class TestSerialisation:
    def test_files_and_round_trip(self, tmp_path):
        config = _config(replicates=2)
        traces = run_experiment(config)
        out = tmp_path / "out"
        summary_path = write_trace(traces, str(out), config)
        assert sorted(os.listdir(out)) == ["rep_0.csv", "rep_1.csv", "summary.json"]
        rows = read_trace_csv(str(out / "rep_1.csv"))
        assert len(rows) == len(traces[1].records)
        for row, rec in zip(rows, traces[1].records):
            assert row["t"] == rec.phase
            assert row["n"] == rec.step
            # repr-format floats survive the text round trip bit for bit
            assert row["vr_bound"] == rec.vr_bound
            assert math.isnan(row["psi_exact"])
        with open(summary_path) as fh:
            summary = json.load(fh)
        assert summary["config"]["algorithm"] == "emd"
        assert summary["config"]["sample_count"] == [32]
        assert summary["statuses"] == ["completed", "completed"]
        assert [s["n"] for s in summary["series"][:3]] == [0, 1, 2]

    def test_summary_statistics(self, tmp_path):
        config = _config(replicates=3, num_phases=1)
        traces = run_experiment(config)
        write_trace(traces, str(tmp_path), config)
        with open(tmp_path / "summary.json") as fh:
            summary = json.load(fh)
        entry = summary["series"][0]
        vals = [t.records[0].vr_bound for t in traces]
        assert entry["vr_mean"] == pytest.approx(np.mean(vals), rel=1e-12)
        assert entry["vr_std"] == pytest.approx(np.std(vals), rel=1e-12)

    def test_single_replicate_std_is_zero(self, tmp_path):
        traces = run_experiment(_config(replicates=1))
        write_trace(traces, str(tmp_path), _config(replicates=1))
        with open(tmp_path / "summary.json") as fh:
            summary = json.load(fh)
        assert all(s["vr_std"] == 0.0 for s in summary["series"])

    def test_no_replicates_still_writes_summary(self, tmp_path):
        path = write_trace([], str(tmp_path), _config(replicates=0))
        with open(path) as fh:
            summary = json.load(fh)
        assert summary["series"] == []
        assert summary["statuses"] == []

    def test_nan_written_verbatim(self, tmp_path):
        config = _config(algorithm="kl", alpha=1.0, replicates=1)
        traces = run_experiment(config)
        write_trace(traces, str(tmp_path), config)
        text = (tmp_path / "rep_0.csv").read_text()
        assert "nan" in text.splitlines()[1]
        rows = read_trace_csv(str(tmp_path / "rep_0.csv"))
        assert math.isnan(rows[0]["vr_bound"])

    def test_kl_summary_is_strict_json(self, tmp_path):
        # the kl monitor is NaN; its statistics are written as null
        config = _config(algorithm="kl", alpha=1.0, replicates=2)
        write_trace(run_experiment(config), str(tmp_path), config)

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        text = (tmp_path / "summary.json").read_text()
        summary = json.loads(text, parse_constant=refuse)
        assert summary["series"]
        for entry in summary["series"]:
            assert entry["vr_mean"] is None and entry["vr_std"] is None

    @pytest.mark.parametrize(
        "config",
        [
            # replicates stopped by a guard at different steps: groups of
            # three, two and one replicate
            _config(
                algorithm="renyi_unweighted", num_components=6, num_steps=3,
                dim=4, replicates=3, seed=40,
            ),
            # a NaN bound throughout, so every statistic is null
            _config(algorithm="kl", alpha=1.0, replicates=2),
        ],
        ids=["guard_stopped", "kl"],
    )
    def test_summary_bytes_match_the_per_group_formula(self, tmp_path, config):
        traces = run_experiment(config)
        if config.algorithm != "kl":
            assert len({len(t.records) for t in traces}) == 3
        grouped = {}
        for trace in traces:
            for rec in trace.records:
                grouped.setdefault((rec.phase, rec.step), []).append(rec.vr_bound)
        series = [
            {
                "t": t,
                "n": n,
                "vr_mean": harness_module._json_float(np.mean(vals)),
                "vr_std": harness_module._json_float(np.std(vals)),
            }
            for (t, n), vals in sorted(grouped.items())
        ]
        summary = {
            "config": config_dict(config),
            "series": series,
            "statuses": [trace.status for trace in traces],
        }
        want = json.dumps(summary, indent=2, allow_nan=False).encode()
        path = write_trace(traces, str(tmp_path), config)
        assert Path(path).read_bytes() == want

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "rep_0.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(str(path))

    def test_empty_file_or_short_row_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "rep_0.csv"
        for text, line in (("", 1), (",".join(CSV_HEADER) + "\n1,2\n", 2)):
            path.write_text(text)
            with pytest.raises(ValueError, match=f"rep_0.csv, line {line}: "):
                read_trace_csv(str(path))

    @pytest.mark.parametrize("field", [0, 1, 2, 5])
    def test_non_numeric_field_names_the_file_and_line(self, tmp_path, field):
        path = tmp_path / "rep_0.csv"
        row = ["1", "0", "0.5", "nan", "1.0", "2.0"]
        row[field] = "x"
        path.write_text(",".join(CSV_HEADER) + "\n1,0,0.5,nan,1.0,2.0\n" + ",".join(row) + "\n")
        with pytest.raises(ValueError, match="rep_0.csv, line 3: .*'x'"):
            read_trace_csv(str(path))


class TestCli:
    def _smoke_config(self, tmp_path, **overrides):
        data = dict(
            algorithm="emd",
            alpha=0.5,
            step_size_base=0.3,
            num_components=4,
            sample_count=[16],
            num_steps=1,
            num_phases=1,
            dim=2,
            replicates=1,
            seed=3,
        )
        data.update(overrides)
        return _write_json(tmp_path / "config.json", data)

    def test_run_writes_outputs(self, tmp_path, capsys):
        config = self._smoke_config(tmp_path)
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as info:
            main(["run", "--config", config, "--out", out])
        assert info.value.code == 0
        assert os.path.exists(os.path.join(out, "summary.json"))
        assert "0 aborted" in capsys.readouterr().out

    def test_flag_overrides_config(self, tmp_path):
        config = self._smoke_config(tmp_path)
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit):
            main(
                [
                    "run", "--config", config, "--out", out,
                    "--replicates", "2",
                ]
            )
        assert os.path.exists(os.path.join(out, "rep_1.csv"))

    def test_multiple_sample_counts_get_subdirectories(self, tmp_path):
        config = self._smoke_config(tmp_path, sample_count=[8, 16])
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as info:
            main(["run", "--config", config, "--out", out])
        assert info.value.code == 0
        for sub in ("samples_8", "samples_16"):
            assert os.path.exists(os.path.join(out, sub, "summary.json"))
            with open(os.path.join(out, sub, "summary.json")) as fh:
                assert json.load(fh)["config"]["sample_count"] == [
                    int(sub.split("_")[1])
                ]

    def test_aborted_replicates_fail_the_run(self, tmp_path, capsys):
        # the config's weighted renyi run completes; the flag picks the
        # unweighted variant, which refuses step 1
        config = self._smoke_config(
            tmp_path,
            algorithm="renyi",
            num_components=10,
            sample_count=[50],
            num_steps=2,
            dim=16,
            seed=41,
        )
        out = tmp_path / "out"
        for flags, code, aborted in (
            ([], 0, "0 aborted"),
            (["--algorithm", "renyi_unweighted"], 1, "1 aborted"),
        ):
            with pytest.raises(SystemExit) as info:
                main(["run", "--config", config, "--out", str(out), *flags])
            assert info.value.code == code
            assert aborted in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["algorithm"] == "renyi_unweighted"
        assert summary["statuses"][0].startswith("guard_violation: step 1 of phase 1")

    def test_every_config_field_has_a_flag_of_its_kind(self):
        # cli._add_config_flags builds int and float flags and one flag each
        # for the three keys below; a field of any other kind (a bool, a
        # str) would silently get a float flag
        special = {"sample_count", "algorithm", "exploration"}
        odd = [
            (f.name, f.type)
            for f in fields(ExperimentConfig)
            if f.name not in special and f.type not in ("int", "float")
        ]
        assert odd == []

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--shift", "0.3"], "shift=0.3"),
            (["--step-size-base", "4", "--num-steps", "3"], "step_size_base=4.0"),
            (["--seed", "-1"], "seed"),
            (["--algorithm", "emd", "--shift", "0.5"], "emd step takes no shift"),
            (["--algorithm", "emd", "--alpha", "1"], "emd at alpha=1 is the kl update"),
        ],
    )
    def test_invalid_config_is_one_error_line(self, tmp_path, capsys, flags, key):
        config = self._smoke_config(tmp_path, algorithm="power")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["run", "--config", config, "--out", str(out), *flags])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("alpha-descent run: error: ") and key in lines[0]
        assert not out.exists()

    def test_malformed_sample_count_flag_is_refused(self, tmp_path, capsys):
        config = self._smoke_config(tmp_path)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["run", "--config", config, "--out", str(out), "--sample-count", "8,x"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "expected an integer or comma-separated integers, got '8,x'" in err
        assert not out.exists()

    def test_unreadable_config_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"algorithm": "emd", "alpha": "0.5"}')
        for config in (str(path), str(tmp_path / "absent.json")):
            with pytest.raises(SystemExit) as info:
                main(["run", "--config", config, "--out", str(tmp_path / "out")])
            assert info.value.code == 2
            assert len(capsys.readouterr().err.splitlines()) == 1

    def test_unusable_out_is_one_error_line_before_any_run(
        self, tmp_path, capsys, monkeypatch
    ):
        def refuse(config):
            raise AssertionError("a replicate ran before the output was checked")

        monkeypatch.setattr(cli, "run_experiment", refuse)
        taken = tmp_path / "taken"
        taken.write_text("")
        for counts in ("16", "16,32"):
            config = self._smoke_config(tmp_path)
            with pytest.raises(SystemExit) as info:
                main(
                    [
                        "run", "--config", config, "--out", str(taken),
                        "--sample-count", counts,
                    ]
                )
            assert info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1, captured.err
            assert lines[0].startswith("alpha-descent run: error: ")

    @pytest.mark.parametrize(
        "counts, flags", [([16, 16], []), ([16], ["--sample-count", "16,8,16"])]
    )
    def test_repeated_sample_count_is_one_error_line_before_any_run(
        self, tmp_path, capsys, monkeypatch, counts, flags
    ):
        def refuse(config):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(cli, "run_experiment", refuse)
        config = self._smoke_config(tmp_path, sample_count=counts)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["run", "--config", config, "--out", str(out), *flags])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "alpha-descent run: error: sample_count lists 16 more than once"
        ]
        assert not out.exists()

    def test_check_subcommand_passes(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check"])
        assert info.value.code == 0
        assert "ok" in capsys.readouterr().out.lower()

    def test_check_failures_print_plain_numbers(self, capsys, monkeypatch):
        # a power step that doubles its first weight fails the hand values
        # and the simplex check; their messages print floats, not reprs
        original = check.power_step

        def skewed(weights, grad, params):
            new, diag = original(weights, grad, params)
            new[0] *= 2.0
            return new, diag

        monkeypatch.setattr(check, "power_step", skewed)
        assert check.run_checks() >= 2
        out = capsys.readouterr().out
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert any("power factor(-1), step 0.5 = 3.0" in line for line in failed)
        assert any("power step weights sum to" in line for line in failed)
        assert not any("np.float64" in line for line in failed)

    def test_check_fails_under_python_optimise(self):
        # python -O strips assert statements; a broken generator must still
        # fail the battery there
        script = (
            "import sys\n"
            "import alpha_descent.check as check\n"
            "assert False, 'assert statements are live'\n"
            "original = check.amari_alpha\n"
            "check.amari_alpha = lambda u, alpha: 2.0 * original(u, alpha)\n"
            "sys.exit(check.run_checks())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 3, proc.stdout + proc.stderr
        failed = [line for line in proc.stdout.splitlines() if line.startswith("FAIL")]
        assert [line.split(":")[0] for line in failed] == [
            "FAIL  hand-computed values",
            "FAIL  generator derivative vs finite differences",
            "FAIL  exact gradient vs finite differences",
        ]
