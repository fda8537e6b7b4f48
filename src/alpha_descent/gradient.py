"""Exact and Monte Carlo gradients of the mixture objective.

The gradient with respect to the mixture weights is, componentwise,

    b_j = integral of k(theta_j, y) f_alpha'(mix(y) / p(y)) d nu(y),

which a finite-support problem evaluates as a sum and the sampler estimates
as ``mean_m k(theta_j, Y_m) / mix(Y_m) * f_alpha'(mix(Y_m) / p(Y_m))`` with
``Y_m`` drawn from the mixture itself.

For ``alpha != 1`` the power and renyi updates only need the positive base
``(alpha-1) b_j + 1``.  Writing ``u = mix / p``, the literal estimate of
that base is ``A_j + 1 - c_j`` with

    A_j = mean_m k(theta_j, Y_m) / mix(Y_m) * u(Y_m)^(alpha-1) > 0,
    c_j = mean_m k(theta_j, Y_m) / mix(Y_m),

and ``c_j`` estimates ``integral k(theta_j, y) dy``, which is exactly 1.  In
high dimension ``A_j`` is exponentially small and the count noise ``1 - c_j``
decides the sign of the base.  The positive-by-construction estimator puts
the exact value 1 in place of ``c_j``: the base is ``A_j`` itself, still
unbiased.  A :class:`MixtureGradient` from it carries ``log A_j`` alone, and
only the power and renyi updates accept it.

Both estimates are read from a :class:`~alpha_descent.model.SampleBatch`,
which alone knows its layout: the emd, kl and renyi_unweighted updates read
the literal mean ``mean_m k_j / mix * f'`` (its ``ratio_mean``), the power
and renyi updates ``log A_j`` (its ``tilted_mean``), which is never ``-inf``
where the log domain gives a finite value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import amari_alpha_deriv_log
from .model import GaussianKernel, _check_integer, as_simplex

__all__ = [
    "MixtureGradient",
    "MixtureState",
    "gradient_exact",
    "gradient_monte_carlo_from_logs",
    "sample_mixture",
]


@dataclass(frozen=True)
class MixtureState:
    """Weights, particle locations and kernel of the current mixture.

    Attributes:
        weights: simplex vector, one entry per particle.
        points: finite particle locations, shape ``(J, d)``; a 1-d array is
            one particle.
        kernel: the smoothing kernel; its dimension must match the points.
    """

    weights: np.ndarray
    points: np.ndarray
    kernel: GaussianKernel

    def __post_init__(self):
        weights = as_simplex(self.weights)
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        # one particle per weight in the kernel's dimension, so never empty
        if points.shape != (weights.size, self.kernel.dim):
            raise ValueError(
                f"{weights.size} weights and kernel dimension {self.kernel.dim} "
                f"need {weights.size} particles, got points of shape {points.shape}"
            )
        if not np.isfinite(points).all():
            raise ValueError("particle locations must be finite")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "points", points)

    @property
    def num_components(self):
        return self.weights.size


@dataclass(frozen=True)
class MixtureGradient:
    """Gradient at divergence order ``alpha``, carried as exactly one array.

    That array is either ``values``, the gradient vector, or ``log_base``,
    ``log A_j``: the log of the positive estimate of the base
    ``(alpha-1) b_j + 1`` (module docstring), which has no values.
    """

    values: np.ndarray | None
    alpha: float
    log_base: np.ndarray | None = None

    def __post_init__(self):
        if (self.values is None) == (self.log_base is None):
            raise ValueError("a gradient carries exactly one of values and log_base")
        name = "values" if self.log_base is None else "log_base"
        array = np.asarray(getattr(self, name), dtype=float)
        if array.ndim != 1 or array.size == 0:
            raise ValueError(f"{name} must be a nonempty vector, got {array.shape}")
        if name == "log_base" and self.alpha == 1.0:
            raise ValueError("there is no power base at alpha=1")
        object.__setattr__(self, name, array)


def gradient_exact(problem, weights, alpha, *, _log_mix=None):
    """Exact gradient on a finite-support problem.

    Every component gets a value, including those with zero weight; the
    mixture in the ratio only sees the weighted ones.  The weights are
    checked by ``problem.log_mixture``.
    """
    # the descent loop hands over its iterate's log-mixture, unchecked
    log_mix = problem.log_mixture(weights) if _log_mix is None else _log_mix
    log_u = log_mix - problem.log_p_values
    deriv = amari_alpha_deriv_log(log_u, alpha)
    values = problem.kernel_matrix @ (problem.nu_weights * deriv)
    return MixtureGradient(values, alpha)


def sample_mixture(weights, points, kernel, size, rng):
    """Draw ``size`` points from the smoothed mixture ``(weights, points, kernel)``.

    Each draw picks a component from the weights, then samples the kernel
    at that component's location.  The component draw is the algorithm of
    ``rng.choice(J, size, p=weights / weights.sum())``, so it gives the same
    indices and leaves the generator in the same state.  Only ``size`` is
    checked: the arrays are those of a :class:`MixtureState`, or iterates a
    step has produced from one, so their callers have checked them once.
    """
    _check_integer("size", size, 1)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    idx = cdf.searchsorted(rng.random(size), side="right")
    z = rng.standard_normal((size, kernel.dim))
    z *= kernel.bandwidth
    z += points[idx]
    return z


def gradient_monte_carlo_from_logs(batch, alpha, *, log_base=False):
    """Monte Carlo gradient from a batch's log evaluations.

    Args:
        batch: the :class:`~alpha_descent.model.SampleBatch` of
            :func:`alpha_descent.model.sample_logs`, drawn under the
            weights of the mixture the gradient is taken at.
        alpha: divergence order.
        log_base: if true (``alpha != 1`` only), use the positive estimator
            of the module docstring: the result carries ``log A_j`` and no
            values.  Otherwise the values are the literal sample mean.

    All density ratios are formed as differences of logs; ``f'`` of the
    ratio goes through ``expm1`` so the estimate stays finite even when the
    ratio itself would underflow.  Both forms cost one matrix-vector
    product over the batch's kernel block.
    """
    count = batch.size
    if batch.log_p.shape != (count,) or batch.log_q.shape != (count,):
        raise ValueError(
            f"the batch's log_q and log_p must hold one value per sample ({count})"
        )
    if log_base:
        return MixtureGradient(None, alpha, log_base=batch.tilted_mean(alpha))
    deriv = amari_alpha_deriv_log(batch.log_q - batch.log_p, alpha)
    return MixtureGradient(batch.ratio_mean(deriv), alpha)
