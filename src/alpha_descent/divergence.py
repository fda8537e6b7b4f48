"""Alpha-divergence generators, objectives and the variational Renyi bound.

The generator family is the Amari parameterisation of the Csiszar
f-divergence,

    f_0(u) = u - 1 - log u            (reverse KL)
    f_1(u) = 1 - u + u log u          (forward KL)
    f_a(u) = [u^a - 1 - a(u - 1)] / (a (a - 1))   otherwise,

which is continuous in ``alpha`` across the two special points.  Branch
dispatch is on exact float equality: nearby alphas approach the limits on
their own, so snapping would only hide the continuity.  ``f`` and ``f'``
are each written once, on ``log u``, so the exact objective and gradient
read a ratio below the float range; the public forms check ``u`` and take
its log.
"""

from __future__ import annotations

import math
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


def _check_params(algorithm, params):
    """Refuse the alpha, shift and step size that ``algorithm`` does not accept.

    The one place that decides them, so that every accepted setting changes
    the run; the renyi objective reads the renyi rule.  kl needs alpha = 1
    and every other update alpha != 1 (emd at alpha = 1 is kl).  emd and kl
    take no shift, which renormalisation would cancel; power and renyi need
    ``(alpha-1)*shift >= 0``, and power ``step_size <= 1``.
    """
    alpha, shift = params.alpha, params.shift
    if algorithm == "kl":
        if alpha != 1.0:
            raise ValueError(f"kl step is the alpha=1 update, got alpha={alpha}")
    elif alpha == 1.0:
        if algorithm == "emd":
            raise ValueError("emd at alpha=1 is the kl update; use the kl algorithm")
        raise ValueError(f"{algorithm} step is undefined at alpha=1")
    if algorithm in ("emd", "kl"):
        if shift != 0.0:
            raise ValueError(
                f"{algorithm} step takes no shift, which renormalisation cancels; "
                f"got shift={shift}"
            )
    elif (alpha - 1.0) * shift < 0:
        raise ValueError(
            f"{algorithm} step needs (alpha-1)*shift >= 0, got alpha={alpha}, "
            f"shift={shift}"
        )
    if algorithm == "power" and params.step_size > 1.0:
        raise ValueError(
            f"power step needs step_size in (0, 1], got {params.step_size}"
        )


def _lift(log_x, params):
    """``log(x + (alpha-1) shift)`` from ``log x``, the shift's one log.

    A product that underflows to zero adds nothing.
    """
    lift = (params.alpha - 1.0) * params.shift
    return np.logaddexp(log_x, np.log(lift)) if lift > 0.0 else log_x


def _check_positive(u):
    u = np.asarray(u, dtype=float)
    # an empty u has no minimum and nothing to check; a NaN fails the test
    if u.size and not (np.minimum.reduce(u) > 0.0 and np.maximum.reduce(u) < np.inf):
        raise ValueError("generator argument must be strictly positive and finite")
    return u


def amari_alpha(u, alpha):
    """Generator ``f_alpha`` evaluated elementwise at ``u > 0``."""
    out = _amari_alpha_log(np.log(_check_positive(u)), alpha)
    return float(out) if np.ndim(u) == 0 else out


def _amari_alpha_log(log_u, alpha):
    """``f_alpha(exp(log_u))`` computed without forming ``u``."""
    if alpha == 0.0:
        return np.expm1(log_u) - log_u
    if alpha == 1.0:
        # u (log u - 1) + 1, written so that no inf - inf can occur
        return np.expm1(log_u) * (log_u - 1.0) + log_u
    return (np.expm1(alpha * log_u) - alpha * np.expm1(log_u)) / (alpha * (alpha - 1.0))


def amari_alpha_deriv(u, alpha):
    """Derivative ``f_alpha'`` evaluated elementwise at ``u > 0``."""
    out = amari_alpha_deriv_log(np.log(_check_positive(u)), alpha)
    return float(out) if np.ndim(u) == 0 else out


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


def divergence_exact(problem, weights, alpha, *, _log_mix=None):
    """Exact objective ``sum_s nu_s p_s f_alpha(mix_s / p_s)``.

    Zero when the mixture matches ``p_values`` exactly; nonnegative whenever
    the target values are nu-normalised.  The weights are checked by
    ``problem.log_mixture``.  Each density ratio is read as its log; only a
    total outside the float range is refused.
    """
    # the descent loop hands over its iterate's log-mixture, unchecked
    log_mix = problem.log_mixture(weights) if _log_mix is None else _log_mix
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed term fails the total test
        values = _amari_alpha_log(log_mix - problem.log_p_values, alpha)
        total = float(np.add.reduce(problem.nu_weights * problem.p_values * values))
    if not math.isfinite(total):
        raise ValueError(f"exact objective at alpha={alpha} is outside the float range")
    return total


def _log_power_sum(problem, weights, alpha):
    """``log sum_s nu_s mix_s^alpha p_s^(1-alpha)``, in the log domain."""
    return logsumexp(
        np.log(problem.nu_weights) + alpha * problem.log_mixture(weights)
        + (1.0 - alpha) * problem.log_p_values
    )


def renyi_objective_exact(problem, weights, params):
    """Exact value of the log-transformed objective behind the renyi update.

    ``[alpha (alpha - 1)]^-1 log( sum_s nu_s mix_s^alpha p_s^(1-alpha)
    + (alpha - 1) shift )``; undefined at ``alpha`` 0 or 1.  It accepts the
    ``(alpha, shift)`` the renyi update accepts, so ``(alpha - 1) shift >= 0``
    and the shift enters the log power sum by ``logaddexp``.
    """
    alpha = params.alpha
    if alpha == 0.0 or alpha == 1.0:
        raise ValueError(f"renyi objective is undefined at alpha={alpha}")
    _check_params("renyi", params)
    log_total = _lift(_log_power_sum(problem, weights, alpha), params)
    return float(log_total / (alpha * (alpha - 1.0)))


def vr_bound_exact(problem, weights, alpha):
    """Exact variational Renyi bound on the finite support.

    ``(1 - alpha)^-1 log sum_s nu_s mix_s^alpha p_s^(1-alpha)``; equals the
    log normaliser of the target when the mixture fits it perfectly.
    """
    if alpha == 1.0:
        raise ValueError("vr bound is undefined at alpha=1")
    return float(_log_power_sum(problem, weights, alpha) / (1.0 - alpha))


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
