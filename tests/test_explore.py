"""Particle refresh moves."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

import alpha_descent
from alpha_descent.explore import explore_mean_update, explore_resample
from alpha_descent.gradient import MixtureState, sample_mixture
from alpha_descent.model import (
    GaussianKernel,
    GaussianMixtureTarget,
    SampleBatch,
    gaussian_kernel_logpdf,
)


def _state(weights, points, bandwidth=0.5):
    points = np.asarray(points, dtype=float)
    return MixtureState(weights, points, GaussianKernel(bandwidth, points.shape[1]))


class TestResample:
    def test_shape_and_determinism(self):
        state = _state([0.5, 0.5], [[-3.0, 0.0], [3.0, 0.0]])
        a = explore_resample(state, np.random.default_rng(1))
        b = explore_resample(state, np.random.default_rng(1))
        assert isinstance(a, np.ndarray)
        assert a.shape == (2, 2)
        assert a.dtype == float
        assert np.array_equal(a, b)

    def test_draws_cluster_at_weighted_modes(self):
        state = _state([0.0, 1.0], [[-3.0, 0.0], [3.0, 0.0]], bandwidth=0.1)
        fresh = explore_resample(state, np.random.default_rng(3))
        # dead left mode never sampled
        assert np.all(fresh[:, 0] > 2.0)


class TestMeanUpdate:
    def _target(self):
        return GaussianMixtureTarget([[0.0, 0.0]])

    def test_validation(self):
        state = _state([1.0], [[0.0, 0.0]])
        rng = np.random.default_rng(4)
        for alpha in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="alpha"):
                explore_mean_update(state, self._target(), 16, alpha, rng)
        with pytest.raises(ValueError, match="sample_count"):
            explore_mean_update(state, self._target(), 0, 0.5, rng)

    def test_target_of_another_dimension_refused_before_a_draw(self):
        state = _state([0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]])
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="dimension mismatch"):
            explore_mean_update(
                state, GaussianMixtureTarget([[0.0, 0.0, 0.0]]), 16, 0.5, rng
            )
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("sample_count", [2.5, True, "3"])
    def test_sample_count_must_be_an_integer(self, sample_count):
        # these used to die inside the draw with numpy's TypeError
        state = _state([0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]])
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="sample_count must be an integer"):
            explore_mean_update(state, self._target(), sample_count, 0.5, rng)
        assert rng.bit_generator.state == before

    def test_output_shape(self):
        state = _state([0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]])
        fresh = explore_mean_update(state, self._target(), 64, 0.5, np.random.default_rng(5))
        assert isinstance(fresh, np.ndarray)
        assert fresh.shape == (2, 2)
        assert fresh.dtype == float

    def test_matches_loop_oracle(self):
        state = _state([0.3, 0.7], [[1.0, 0.5], [-1.0, 0.0]])
        target = self._target()
        alpha = 0.5
        rng = np.random.default_rng(6)
        fresh = explore_mean_update(state, target, 32, alpha, rng)
        # replay the same draws and average by hand in the linear domain
        samples = sample_mixture(
            state.weights, state.points, state.kernel, 32, np.random.default_rng(6)
        )
        h = state.kernel.bandwidth
        for j in range(2):
            gammas = np.empty(32)
            for m, y in enumerate(samples):
                log_k = [gaussian_kernel_logpdf(pt, y, h) for pt in state.points]
                k = np.exp(log_k[j])
                mix = 0.3 * np.exp(log_k[0]) + 0.7 * np.exp(log_k[1])
                p = np.exp(target.log_density(y))
                gammas[m] = k / mix * (mix / p) ** (alpha - 1.0)
            want = (gammas[:, None] * samples).sum(axis=0) / gammas.sum()
            assert np.allclose(fresh[j], want, rtol=1e-10)

    def test_moves_particles_toward_underweighted_target(self):
        # mixture sits right of the target: the alpha < 1 tilt drags means left
        state = _state([0.5, 0.5], [[2.0, 0.0], [2.5, 0.0]], bandwidth=1.0)
        fresh = explore_mean_update(state, self._target(), 4000, 0.0, np.random.default_rng(7))
        assert np.all(fresh[:, 0] < state.points[:, 0])

    def test_degenerate_importance_weights_reported(self):
        # particle 2 is so remote its squared distances overflow: every
        # gamma in its row is log 0, which is reported without a warning
        state = _state(
            [0.5, 0.5, 0.0], [[0.0, 0.0], [1.0, 0.0], [1e200, 0.0]], bandwidth=0.5
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="particle 2"):
                explore_mean_update(
                    state, self._target(), 16, 0.5, np.random.default_rng(8)
                )

    def test_far_particle_takes_the_log_domain_fallback(self, monkeypatch):
        # particle 2 sits 60 units from a mixture that all but never samples
        # near it: its row of the kernel block underflows, so its normaliser
        # is summed in the log domain; every row must still be the
        # self-normalised mean of the samples under gamma_j
        state = _state(
            [0.5, 0.5 - 1e-12, 1e-12], [[0.0, 0.0], [0.5, -0.5], [60.0, 60.0]],
            bandwidth=1.0,
        )
        target = self._target()
        fallback_rows = []
        real = SampleBatch._fallback_rows

        def spied(batch, sums, t):
            out = real(batch, sums, t)
            fallback_rows.append(out[0])
            return out

        monkeypatch.setattr(SampleBatch, "_fallback_rows", spied)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fresh = explore_mean_update(state, target, 64, 0.5, np.random.default_rng(3))
        assert len(fallback_rows) == 1 and list(fallback_rows[0]) == [2]

        samples = sample_mixture(
            state.weights, state.points, state.kernel, 64, np.random.default_rng(3)
        )
        sq = ((state.points[:, None, :] - samples[None, :, :]) ** 2).sum(axis=2)
        log_k = -0.5 * sq - np.log(2.0 * np.pi)
        log_q = logsumexp(log_k, axis=0, b=state.weights[:, None])
        log_p = -0.5 * (samples**2).sum(axis=1) - np.log(2.0 * np.pi)
        log_gamma = log_k - log_q + (0.5 - 1.0) * (log_q - log_p)
        want = np.exp(log_gamma - logsumexp(log_gamma, axis=1, keepdims=True)) @ samples
        np.testing.assert_allclose(fresh, want, rtol=1e-12, atol=0.0)

    def test_does_not_depend_on_the_blas_thread_count(self):
        # The figure-1 mean update, run at one and at two BLAS threads, set
        # before numpy is imported, gives the same bytes.  Its weighted
        # means were two matrix-matrix products, which summed in another
        # order at two threads and moved the means by up to 3.6e-15
        src = str(Path(alpha_descent.__file__).resolve().parents[1])
        probe = (
            "import sys, numpy as np, alpha_descent as a\n"
            "rng = np.random.default_rng(31)\n"
            "j, d = 100, 16\n"
            "kernel = a.GaussianKernel(a.bandwidth_rule(j, d), d)\n"
            "points = np.sqrt(5.0) * rng.standard_normal((j, d))\n"
            "state = a.MixtureState(np.full(j, 1.0 / j), points, kernel)\n"
            "target = a.GaussianMixtureTarget([-2.0 * np.ones(d), 2.0 * np.ones(d)], scale=2.0)\n"
            "fresh = a.explore_mean_update(state, target, 2000, 0.5, rng)\n"
            "sys.stdout.write(fresh.tobytes().hex())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            outputs.append(subprocess.run(
                [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                check=True,
            ).stdout)
        assert len(outputs[0]) == 100 * 16 * 16
        assert outputs[0] == outputs[1]
