"""Particle refresh moves between descent phases.

Both moves return the new ``(J, d)`` points and leave the mixture weights
to the caller (the experiment harness resets them to uniform).
"""

from __future__ import annotations

import numpy as np

from .gradient import sample_mixture
from .model import logsumexp, sample_logs

__all__ = ["explore_mean_update", "explore_resample"]


def explore_resample(state, rng):
    """New ``(J, d)`` points drawn i.i.d. from the smoothed mixture of ``state``."""
    return sample_mixture(
        state.weights, state.points, state.kernel, state.num_components, rng
    )


def explore_mean_update(state, target, sample_count, alpha, rng):
    """New ``(J, d)`` points, each an importance-weighted mean of mixture samples.

    The weight of sample ``y`` for particle ``j`` is

        gamma_j(y) = k(theta_j, y) / mix(y) * (mix(y) / p(y))^(alpha - 1),

    self-normalised over the batch.  Only sensible for ``alpha`` in [0, 1),
    where the second factor rewards regions the mixture underweights.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"mean update needs alpha in [0, 1), got {alpha}")
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    mixture = state.weights, state.points, state.kernel
    samples = sample_mixture(*mixture, sample_count, rng)
    log_k, log_mix, log_p = sample_logs(*mixture, target, samples)
    log_gamma = log_k - log_mix + (alpha - 1.0) * (log_mix - log_p)
    row_norm = logsumexp(log_gamma, axis=1)
    if not np.all(np.isfinite(row_norm)):
        bad = int(np.flatnonzero(~np.isfinite(row_norm))[0])
        raise ValueError(
            f"importance weights for particle {bad} degenerated "
            f"(log normaliser {row_norm[bad]!r})"
        )
    w = np.exp(log_gamma - row_norm[:, None])
    return w @ samples
