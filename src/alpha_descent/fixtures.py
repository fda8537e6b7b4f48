"""Random problem generators shared by the self-check battery and the tests."""

from __future__ import annotations

import numpy as np

from .model import FiniteSupportProblem

__all__ = ["perfect_fit_problem", "random_problem", "random_weights"]


def random_problem(rng, num_components=None, support_size=None):
    """A well-conditioned random finite-support problem.

    Kernel rows are lognormal draws renormalised against random base
    weights; the target is the uniform mixture times a lognormal factor of
    log-scale 0.8, so density ratios stay O(1) and every divergence order
    in common use is comfortable on the result.
    """
    j = int(num_components if num_components is not None else rng.integers(2, 9))
    s = int(support_size if support_size is not None else rng.integers(4, 21))
    kernel = rng.lognormal(0.0, 1.0, (j, s))
    nu = rng.uniform(0.5, 1.5, s)
    kernel /= (kernel * nu).sum(axis=1, keepdims=True)
    mix = np.full(j, 1.0 / j) @ kernel
    p = mix * rng.lognormal(0.0, 0.8, s)
    return FiniteSupportProblem(kernel, nu, p)


def random_weights(rng, num_components, floor=1e-3):
    """A random interior point of the simplex."""
    w = rng.dirichlet(np.ones(num_components))
    w = np.clip(w, floor, None)
    return w / w.sum()


def perfect_fit_problem(rng, weights):
    """A problem whose target is exactly the mixture at ``weights``."""
    weights = np.asarray(weights, dtype=float)
    base = random_problem(rng, weights.size)
    p = weights @ base.kernel_matrix
    return base.with_target(p)
