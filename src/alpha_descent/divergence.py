"""Alpha-divergence generators, objectives and the variational Renyi bound.

The generator family is the Amari parameterisation of the Csiszar
f-divergence,

    f_0(u) = u - 1 - log u            (reverse KL)
    f_1(u) = 1 - u + u log u          (forward KL)
    f_a(u) = [u^a - 1 - a(u - 1)] / (a (a - 1))   otherwise,

which is continuous in ``alpha`` across the two special points.  Branch
dispatch is on exact float equality: nearby alphas approach the limits on
their own, so snapping would only hide the continuity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _check_float, logsumexp

__all__ = [
    "DescentParams",
    "amari_alpha",
    "amari_alpha_deriv",
    "amari_alpha_deriv_log",
    "divergence_exact",
    "renyi_objective_exact",
    "vr_bound_exact",
    "vr_bound_from_logs",
]


@dataclass(frozen=True)
class DescentParams:
    """Hyperparameters shared by the descent updates.

    Attributes:
        alpha: divergence order.
        step_size: multiplicative-update step size, positive.
        shift: constant added to the gradient inside the power and renyi
            updates.  Keeping ``(alpha - 1) * shift >= 0`` preserves
            monotonicity, and a strictly positive product buys the O(1/N)
            rate of the renyi update.  The emd and kl updates refuse a
            nonzero shift: it would multiply every weight by one constant,
            which renormalisation cancels.
    """

    alpha: float
    step_size: float
    shift: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "step_size", "shift"):
            _check_float(name, getattr(self, name), positive=name == "step_size")

    @property
    def renyi_valid(self):
        """Assumptions behind the renyi update's convergence rate."""
        return self.alpha != 1.0 and (self.alpha - 1.0) * self.shift > 0.0


def _check_positive(u):
    u = np.asarray(u, dtype=float)
    # an empty u has no minimum and nothing to check; a NaN fails the test
    if u.size and not (u.min() > 0.0 and u.max() < np.inf):
        raise ValueError("generator argument must be strictly positive and finite")
    return u


def amari_alpha(u, alpha):
    """Generator ``f_alpha`` evaluated elementwise at ``u > 0``."""
    scalar = np.ndim(u) == 0
    u = _check_positive(u)
    if alpha == 0.0:
        out = u - 1.0 - np.log(u)
    elif alpha == 1.0:
        out = 1.0 - u + u * np.log(u)
    else:
        out = (u**alpha - 1.0 - alpha * (u - 1.0)) / (alpha * (alpha - 1.0))
    return float(out) if scalar else out


def amari_alpha_deriv(u, alpha):
    """Derivative ``f_alpha'`` evaluated elementwise at ``u > 0``."""
    scalar = np.ndim(u) == 0
    u = _check_positive(u)
    if alpha == 0.0:
        out = 1.0 - 1.0 / u
    elif alpha == 1.0:
        out = np.log(u)
    else:
        out = (u ** (alpha - 1.0) - 1.0) / (alpha - 1.0)
    return float(out) if scalar else out


def amari_alpha_deriv_log(log_u, alpha):
    """``f_alpha'(exp(log_u))`` computed without forming ``u``.

    This is the form the Monte Carlo gradient needs: in high dimension the
    density ratio ``u`` itself can underflow while ``f'`` stays
    representable.
    """
    log_u = np.asarray(log_u, dtype=float)
    if alpha == 0.0:
        return -np.expm1(-log_u)
    if alpha == 1.0:
        return log_u.copy()
    return np.expm1((alpha - 1.0) * log_u) / (alpha - 1.0)


def _exact_log_mixture(problem, weights, log_mixture):
    """``problem.log_mixture(weights)``, or the caller's copy of it."""
    if log_mixture is None:
        return problem.log_mixture(weights)
    log_mix = np.asarray(log_mixture, dtype=float)
    if log_mix.shape != (problem.support_size,):
        raise ValueError(
            f"log_mixture must have shape ({problem.support_size},), "
            f"got {log_mix.shape}"
        )
    return log_mix


def divergence_exact(problem, weights, alpha, *, log_mixture=None):
    """Exact objective ``sum_s nu_s p_s f_alpha(mix_s / p_s)``.

    Zero when the mixture matches ``p_values`` exactly; nonnegative whenever
    the target values are nu-normalised.  ``log_mixture`` is
    ``problem.log_mixture(weights)`` when the caller already has it; the
    weights are then not read again.
    """
    log_u = _exact_log_mixture(problem, weights, log_mixture) - problem.log_p_values
    values = amari_alpha(np.exp(log_u), alpha)
    return float((problem.nu_weights * problem.p_values * values).sum())


def renyi_objective_exact(problem, weights, params):
    """Exact value of the log-transformed objective behind the renyi update.

    ``[alpha (alpha - 1)]^-1 log( sum_s nu_s mix_s^alpha p_s^(1-alpha)
    + (alpha - 1) shift )``; undefined at ``alpha`` 0 or 1.
    """
    alpha = params.alpha
    if alpha == 0.0 or alpha == 1.0:
        raise ValueError(f"renyi objective is undefined at alpha={alpha}")
    log_mix = problem.log_mixture(weights)
    log_terms = (
        np.log(problem.nu_weights)
        + alpha * log_mix
        + (1.0 - alpha) * problem.log_p_values
    )
    total = float(np.exp(logsumexp(log_terms))) + (alpha - 1.0) * params.shift
    if total <= 0:
        raise ValueError(
            f"log argument of the renyi objective is nonpositive ({total!r}); "
            f"the shift {params.shift} is too aggressive for this problem"
        )
    return float(np.log(total) / (alpha * (alpha - 1.0)))


def vr_bound_exact(problem, weights, alpha):
    """Exact variational Renyi bound on the finite support.

    ``(1 - alpha)^-1 log sum_s nu_s mix_s^alpha p_s^(1-alpha)``; equals the
    log normaliser of the target when the mixture fits it perfectly.
    """
    if alpha == 1.0:
        raise ValueError("vr bound is undefined at alpha=1")
    log_mix = problem.log_mixture(weights)
    log_terms = (
        np.log(problem.nu_weights)
        + alpha * log_mix
        + (1.0 - alpha) * problem.log_p_values
    )
    return float(logsumexp(log_terms) / (1.0 - alpha))


def vr_bound_from_logs(log_target, log_proposal, alpha):
    """Monte Carlo variational Renyi bound from paired log evaluations."""
    if alpha == 1.0:
        raise ValueError("vr bound is undefined at alpha=1")
    log_target = np.atleast_1d(np.asarray(log_target, dtype=float))
    log_proposal = np.atleast_1d(np.asarray(log_proposal, dtype=float))
    if log_target.shape != log_proposal.shape or log_target.ndim != 1 or not log_target.size:
        raise ValueError("need equal, nonempty batches of log evaluations, each 1-d")
    m = log_target.size
    lse = logsumexp((1.0 - alpha) * (log_target - log_proposal))
    return float((lse - np.log(m)) / (1.0 - alpha))
