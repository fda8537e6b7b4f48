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
unbiased, carried as ``log A_j`` on :class:`MixtureGradient`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import _exact_log_mixture, amari_alpha_deriv_log
from .model import GaussianKernel, as_simplex, logsumexp

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
    """Gradient vector and the divergence order it was computed at.

    ``log_base`` is ``log A_j``, the log of the positive estimate of the
    base ``(alpha-1) b_j + 1``, when the Monte Carlo estimator was asked for
    it; ``values`` is then ``expm1(log_base) / (alpha-1)``.
    """

    values: np.ndarray
    alpha: float
    log_base: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError(f"gradient must be a nonempty vector, got {values.shape}")
        if self.log_base is not None:
            log_base = np.asarray(self.log_base, dtype=float)
            if log_base.shape != values.shape:
                raise ValueError(
                    f"log_base has shape {log_base.shape}, values {values.shape}"
                )
            if self.alpha == 1.0:
                raise ValueError("there is no power base at alpha=1")
            object.__setattr__(self, "log_base", log_base)
        object.__setattr__(self, "values", values)


def gradient_exact(problem, weights, alpha, *, log_mixture=None):
    """Exact gradient on a finite-support problem.

    Every component gets a value, including those with zero weight; the
    mixture in the ratio only sees the weighted ones.  ``log_mixture`` is
    ``problem.log_mixture(weights)`` when the caller already has it; the
    weights are then not read again.
    """
    log_u = _exact_log_mixture(problem, weights, log_mixture) - problem.log_p_values
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
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    idx = cdf.searchsorted(rng.random(size), side="right")
    z = rng.standard_normal((size, kernel.dim))
    z *= kernel.bandwidth
    z += points[idx]
    return z


def gradient_monte_carlo_from_logs(
    log_kernel, log_target, weights, alpha, *, log_base=False, log_mixture=None
):
    """Monte Carlo gradient from precomputed log evaluations.

    Args:
        log_kernel: ``(J, M)`` matrix of log kernel values at the samples.
        log_target: ``(M,)`` log target values at the samples.
        weights: simplex weights the samples were drawn under.
        alpha: divergence order.
        log_base: if true (``alpha != 1`` only), use the positive estimator
            of the module docstring: compute ``log A_j`` by a max-subtracted
            log-sum-exp over the samples, carry it on the result, and derive
            the values from it.  Otherwise the values are the literal sample
            mean.
        log_mixture: ``(M,)`` log mixture values under ``weights`` at the
            samples, when the caller already has them (the ``log q`` of
            :func:`alpha_descent.model.sample_logs`); computed here
            otherwise.

    All density ratios are formed as differences of logs; ``f'`` of the
    ratio goes through ``expm1`` so the estimate stays finite even when the
    ratio itself would underflow.  The literal mean is one pass forming
    ``k_j / mix`` and one matrix-vector product with ``f'``.
    """
    log_kernel = np.asarray(log_kernel, dtype=float)
    log_target = np.asarray(log_target, dtype=float)
    weights = as_simplex(weights)
    if log_kernel.ndim != 2 or log_kernel.shape[0] != weights.size:
        raise ValueError(
            f"log_kernel must have shape ({weights.size}, M), got {log_kernel.shape}"
        )
    if log_target.shape != (log_kernel.shape[1],) or log_target.size == 0:
        raise ValueError("log_target must hold one value per sample")
    if log_base and alpha == 1.0:
        raise ValueError("there is no power base at alpha=1")
    count = log_kernel.shape[1]
    if log_mixture is None:
        log_mix = logsumexp(log_kernel, axis=0, b=weights)
    else:
        log_mix = np.asarray(log_mixture, dtype=float)
        if log_mix.shape != (count,):
            raise ValueError("log_mixture must hold one value per sample")
    if log_base:
        # log(k_j / mix * u^(alpha-1)) = log k_j + (alpha-2) log mix
        #                                - (alpha-1) log p
        terms = log_kernel + ((alpha - 2.0) * log_mix - (alpha - 1.0) * log_target)
        log_a = logsumexp(terms, axis=1) - np.log(count)
        with np.errstate(over="ignore"):  # only log_a is read by the steps
            values = np.expm1(log_a) / (alpha - 1.0)
        return MixtureGradient(values, alpha, log_base=log_a)
    deriv = amari_alpha_deriv_log(log_mix - log_target, alpha)
    ratio = np.subtract(log_kernel, log_mix)
    np.exp(ratio, out=ratio)
    values = (ratio @ deriv) / count
    return MixtureGradient(values, alpha)
