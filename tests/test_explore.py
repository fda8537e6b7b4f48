"""Particle refresh moves."""

import warnings

import numpy as np
import pytest

from alpha_descent.explore import explore_mean_update, explore_resample
from alpha_descent.gradient import MixtureState, sample_mixture
from alpha_descent.model import (
    GaussianKernel,
    GaussianMixtureTarget,
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
