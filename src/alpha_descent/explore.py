"""Particle refresh moves between descent phases.

Both moves leave the mixture weights untouched; the caller decides what to
do with them afterwards (the experiment harness resets to uniform).
"""

from __future__ import annotations

import numpy as np

from .gradient import sample_mixture
from .model import ParticleSet, logsumexp, sample_logs

__all__ = ["ParticleSet", "explore_mean_update", "explore_resample"]


def explore_resample(state, rng):
    """Draw a fresh particle set i.i.d. from the current smoothed mixture."""
    points = sample_mixture(state, state.num_components, rng)
    return ParticleSet(points, state.particles.generation + 1)


def explore_mean_update(state, target, sample_count, alpha, rng):
    """Move every particle to an importance-weighted mean of mixture samples.

    The weight of sample ``y`` for particle ``j`` is

        gamma_j(y) = k(theta_j, y) / mix(y) * (mix(y) / p(y))^(alpha - 1),

    self-normalised over the batch.  Only sensible for ``alpha`` in [0, 1),
    where the second factor rewards regions the mixture underweights.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"mean update needs alpha in [0, 1), got {alpha}")
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    samples = sample_mixture(state, sample_count, rng)
    log_k, log_mix, log_p = sample_logs(
        state.weights, state.particles.points, state.kernel, target, samples
    )
    log_gamma = log_k - log_mix + (alpha - 1.0) * (log_mix - log_p)
    row_norm = logsumexp(log_gamma, axis=1)
    if not np.all(np.isfinite(row_norm)):
        bad = int(np.flatnonzero(~np.isfinite(row_norm))[0])
        raise ValueError(
            f"importance weights for particle {bad} degenerated "
            f"(log normaliser {row_norm[bad]!r})"
        )
    w = np.exp(log_gamma - row_norm[:, None])
    points = w @ samples
    return ParticleSet(points, state.particles.generation + 1)
