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
only the power and weighted renyi updates accept it.

The emd, kl and unweighted renyi updates read the literal mean of the
values.  Its ratios ``k_j / mix`` come from the matrix ``E = exp(log k -
peak)`` that also gives ``log mix`` (:func:`alpha_descent.model.kernel_exp`),
so a Monte Carlo step exponentiates its kernel matrix once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import _exact_log_mixture, amari_alpha_deriv_log
from .model import GaussianKernel, _check_integer, as_simplex, kernel_exp, logsumexp

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
    _check_integer("size", size, 1)
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
        log_kernel: the batch's kernel in the form
            :func:`alpha_descent.model.sample_logs` returned it: the
            ``(J, M)`` matrix of log kernel values at the samples, or, from
            ``sample_logs(..., exp_kernel=True)``, the tuple ``(E, total)``
            of :func:`alpha_descent.model.kernel_exp` under ``weights``.
            The pair needs its ``log q`` as ``log_mixture`` and gives no
            ``log_base``.
        log_target: ``(M,)`` log target values at the samples.
        weights: simplex weights the samples were drawn under.
        alpha: divergence order.
        log_base: if true (``alpha != 1`` only), use the positive estimator
            of the module docstring: the result carries ``log A_j``, by a
            max-subtracted log-sum-exp over the samples, and no values.
            Otherwise the values are the literal sample mean.
        log_mixture: ``(M,)`` log mixture values under ``weights`` at the
            samples, when the caller already has them (the ``log q`` of
            :func:`alpha_descent.model.sample_logs`); computed here
            otherwise.

    All density ratios are formed as differences of logs; ``f'`` of the
    ratio goes through ``expm1`` so the estimate stays finite even when the
    ratio itself would underflow.  The literal mean, which the emd, kl and
    unweighted renyi updates read, takes ``k_j / mix`` as ``E_j / total``
    from the one exp pass of :func:`~alpha_descent.model.kernel_exp` that
    also gives ``log q`` (run here on a copy of ``log k`` when the pair is
    not given), and is one matrix-vector product, ``E @ (f' / total) / M``.
    ``log A_j``, which the power and weighted renyi updates read, is a
    log-sum-exp over ``log k`` itself: built from ``E`` in the linear
    domain it would underflow to ``-inf`` when the particles are spread.
    """
    weights = as_simplex(weights)
    if isinstance(log_kernel, tuple):
        if log_base or log_mixture is None:
            raise ValueError(
                "the (E, total) pair needs its log_mixture and gives no log_base"
            )
        matrix, total = log_kernel
    else:
        matrix, total = np.asarray(log_kernel, dtype=float), None
    log_target = np.asarray(log_target, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != weights.size:
        raise ValueError(
            f"log_kernel must have shape ({weights.size}, M), got {matrix.shape}"
        )
    if log_target.shape != (matrix.shape[1],) or log_target.size == 0:
        raise ValueError("log_target must hold one value per sample")
    count = matrix.shape[1]
    if log_mixture is not None:
        log_mix = np.asarray(log_mixture, dtype=float)
        if log_mix.shape != (count,):
            raise ValueError("log_mixture must hold one value per sample")
    if log_base:
        if log_mixture is None:
            log_mix = logsumexp(matrix, axis=0, b=weights)
        # log(k_j / mix * u^(alpha-1)) = log k_j + (alpha-2) log mix
        #                                - (alpha-1) log p
        terms = matrix + ((alpha - 2.0) * log_mix - (alpha - 1.0) * log_target)
        log_a = logsumexp(terms, axis=1) - np.log(count)
        return MixtureGradient(None, alpha, log_base=log_a)
    if total is None:
        matrix, total, own = kernel_exp(matrix, weights, out=np.empty(matrix.shape))
        if log_mixture is None:
            log_mix = own
    elif np.shape(total) != (count,):
        raise ValueError("the pair's total must hold one value per sample")
    deriv = amari_alpha_deriv_log(log_mix - log_target, alpha)
    deriv /= total
    values = matrix @ deriv
    values /= count
    return MixtureGradient(values, alpha)
