"""Particle refresh moves between descent phases.

Both moves return the new ``(J, d)`` points and leave the mixture weights
to the caller (the experiment harness resets them to uniform).
"""

from __future__ import annotations

from .gradient import sample_mixture
from .model import _check_integer, sample_logs

__all__ = ["explore_mean_update", "explore_resample"]


def explore_resample(state, rng):
    """New ``(J, d)`` points drawn i.i.d. from the smoothed mixture of ``state``."""
    return sample_mixture(
        state.weights, state.points, state.kernel, state.num_components, rng
    )


def _check_mean_update_alpha(alpha):
    """Refuse an ``alpha`` outside [0, 1), where the mean update is not sensible."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"mean update needs alpha in [0, 1), got {alpha}")


def explore_mean_update(state, target, sample_count, alpha, rng):
    """New ``(J, d)`` points, each an importance-weighted mean of mixture samples.

    The weight of sample ``y`` for particle ``j`` is

        gamma_j(y) = k(theta_j, y) / mix(y) * (mix(y) / p(y))^(alpha - 1),

    self-normalised over the batch.  Only sensible for ``alpha`` in [0, 1),
    where the second factor rewards regions the mixture underweights.  The
    weights are the terms of ``M A_j`` at this ``alpha`` (see
    :mod:`alpha_descent.gradient`), and ``M A_j`` is each row's normaliser
    (:meth:`~alpha_descent.model.SampleBatch.tilted_mean`).  ``alpha``,
    ``sample_count`` and the target's dimension are checked before any draw.
    """
    _check_mean_update_alpha(alpha)
    _check_integer("sample_count", sample_count, 1)
    target._check_dim(state.points)
    mixture = state.weights, state.points, state.kernel
    samples = sample_mixture(*mixture, sample_count, rng)
    return sample_logs(*mixture, target, samples).tilted_mean(alpha, samples)
