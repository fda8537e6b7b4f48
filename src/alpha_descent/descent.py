"""Multiplicative updates on the simplex and their convergence-rate bound.

Four update rules share one shape: multiply each weight by a positive
factor computed from the gradient, renormalise in the log domain.

    power:  factor_j = [(alpha-1)(b_j + shift) + 1]^(step/(1-alpha))
    emd:    factor_j = exp(-step (b_j + shift))
    kl:     factor_j = exp(-step b_j)           (alpha = 1 gradient)
    renyi:  factor_j = exp(-step b_j / D),  D = (alpha-1)(mu_b + shift) + 1

where ``mu_b`` is the weighted mean of the gradient.  The power and renyi
updates carry positivity guards; a violated guard raises
:class:`GuardViolation` instead of producing NaNs.

A Monte Carlo gradient that carries ``log_base = log A_j`` (see
:mod:`alpha_descent.gradient`) estimates the power base
``(alpha-1) b_j + 1`` by ``A_j``, and the two guarded updates then read it
in the log domain:

    power:  log factor_j = step/(1-alpha) log(A_j + (alpha-1) shift)
    renyi:  log factor_j = -step A_j / ((alpha-1) D),
            D = sum_j lambda_j A_j + (alpha-1) shift

The renyi form drops the constant ``step / ((alpha-1) D)``, which cancels
when the weights are renormalised.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .divergence import divergence_exact, vr_bound_from_logs
from .gradient import (
    MixtureGradient,
    MixtureState,
    gradient_exact,
    gradient_monte_carlo_from_logs,
    sample_mixture,
)
from .model import as_simplex, logsumexp, sample_logs

__all__ = [
    "ALGORITHMS",
    "DescentTrace",
    "GuardViolation",
    "RateConstants",
    "StepDiagnostics",
    "TraceRecord",
    "emd_step",
    "kl_step",
    "power_step",
    "rate_bound",
    "renyi_step",
    "run_descent",
]

ALGORITHMS = ("power", "renyi", "emd", "kl")


class GuardViolation(RuntimeError):
    """A positivity guard failed; the step was refused.

    Attributes:
        indices: offending component indices, when the guard is per
            component.
        iteration: step number, attached when raised from inside a run.
    """

    def __init__(self, message, indices=None, iteration=None):
        super().__init__(message)
        self.indices = list(indices) if indices is not None else None
        self.iteration = iteration


@dataclass(frozen=True)
class StepDiagnostics:
    """What a single update actually did.

    Attributes:
        guard_min: minimum guard margin; positive means the guard held
            with room, ``inf`` for the guard-free updates.  A power step
            that reads ``log_base`` records ``exp`` of the smallest log
            base, which is 0.0 for a base below about ``e^-745``: the
            guard held there too, since it refuses only a zero base.
    """

    guard_min: float


def _gradient_values(grad, num_components):
    if isinstance(grad, MixtureGradient):
        grad = grad.values
    values = np.asarray(grad, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"gradient must be a vector, got shape {values.shape}")
    if values.size != num_components:
        raise ValueError(
            f"gradient has {values.size} entries for {num_components} weights"
        )
    if not np.isfinite(values).all():
        raise ValueError("gradient values must be finite")
    return values


def _log_base(grad, num_components):
    """Checked ``log A_j`` of a gradient that carries it, else None.

    Its derived values may overflow and are not read; ``-inf`` is the guard's.
    """
    log_a = grad.log_base if isinstance(grad, MixtureGradient) else None
    if log_a is not None and (log_a.size != num_components or not (log_a < np.inf).all()):
        raise ValueError(
            f"gradient log_base must hold {num_components} entries, none NaN or +inf"
        )
    return log_a


def _renormalise(weights, log_factors):
    """Multiply and renormalise in the log domain.

    Zero weights stay exactly zero.  Returns the new simplex vector.
    """
    active = weights > 0
    log_w = np.full(weights.shape, -np.inf)
    log_w[active] = np.log(weights[active]) + log_factors[active]
    peak = log_w.max()
    if not np.isfinite(peak):
        raise GuardViolation("all mixture mass was annihilated by the update")
    w = np.exp(log_w - peak)
    return w / w.sum()


def _check_params(algorithm, params):
    """Refuse step parameters that the ``algorithm`` update does not accept."""
    if algorithm == "power" and not params.power_valid:
        raise ValueError(
            "power step needs alpha != 1, (alpha-1)*shift >= 0 and "
            f"step_size in (0, 1]; got {params}"
        )
    if algorithm == "renyi":
        if params.alpha == 1.0:
            raise ValueError("renyi step is undefined at alpha=1")
        if (params.alpha - 1.0) * params.shift < 0:
            raise ValueError(
                f"renyi step needs (alpha-1)*shift >= 0, got alpha={params.alpha}, "
                f"shift={params.shift}"
            )


def power_step(weights, grad, params):
    """One power update.  Returns ``(new_weights, diagnostics)``.

    Requires ``params.power_valid``.  The positivity guard is checked on
    weighted components only; zero-weight components stay at zero
    regardless of their gradient value.  A gradient carrying ``log_base``
    is read through it (module docstring) and must have no NaN or ``+inf``
    in it; the guard refuses a base whose log is ``-inf``.
    """
    _check_params("power", params)
    weights = as_simplex(weights)
    alpha = params.alpha
    active = weights > 0
    log_a = _log_base(grad, weights.size)
    if log_a is None:
        values = _gradient_values(grad, weights.size)
        base = (alpha - 1.0) * (values + params.shift) + 1.0
        if (base[active] <= 0).any():
            bad = np.flatnonzero(active & (base <= 0))
            raise GuardViolation(
                f"power guard violated at component(s) {bad.tolist()}: "
                f"(alpha-1)(b+shift)+1 = {base[bad[0]]!r}",
                indices=bad,
            )
        log_base = np.log(base[active])
        guard_min = float(base[active].min())
    else:
        if params.shift != 0.0:
            log_a = np.logaddexp(log_a, np.log((alpha - 1.0) * params.shift))
        if not (log_a[active] > -np.inf).all():
            bad = np.flatnonzero(active & ~(log_a > -np.inf))
            raise GuardViolation(
                f"power guard violated at component(s) {bad.tolist()}: "
                f"log(A+(alpha-1)shift) = {log_a[bad[0]]!r}",
                indices=bad,
            )
        log_base = log_a[active]
        with np.errstate(over="ignore"):  # a base above e^709 reads inf
            guard_min = float(np.exp(log_base.min()))
    log_factors = np.zeros(weights.shape)
    log_factors[active] = params.step_size / (1.0 - alpha) * log_base
    return _renormalise(weights, log_factors), StepDiagnostics(guard_min)


def emd_step(weights, grad, params):
    """One entropic mirror descent update, factors ``exp(-step (b + shift))``."""
    weights = as_simplex(weights)
    values = _gradient_values(grad, weights.size)
    new = _renormalise(weights, -params.step_size * (values + params.shift))
    return new, StepDiagnostics(np.inf)


def kl_step(weights, grad, step_size):
    """Mirror descent on the forward KL; the gradient must be the alpha=1 one."""
    if step_size <= 0:
        raise ValueError(f"step_size must be positive, got {step_size}")
    if isinstance(grad, MixtureGradient) and grad.alpha != 1.0:
        raise ValueError(f"kl step wants an alpha=1 gradient, got alpha={grad.alpha}")
    weights = as_simplex(weights)
    values = _gradient_values(grad, weights.size)
    return _renormalise(weights, -step_size * values), StepDiagnostics(np.inf)


def renyi_step(weights, grad, params, unweighted_denominator=False):
    """One renyi update, factors ``exp(-step b_j / D)``.

    ``D = (alpha-1)(mu_b + shift) + 1`` with ``mu_b`` the weighted mean of
    the gradient; ``unweighted_denominator`` swaps in the plain sum instead,
    which reproduces a published variant but loses the positivity guarantee
    of the weighted form.  Requires ``alpha != 1`` and
    ``(alpha-1)*shift >= 0`` (the convergence rate additionally wants the
    product strictly positive, see :class:`RateConstants`).

    The admissibility check ``1 - step (alpha-1) V_j >= 0`` is recorded in
    the diagnostics, not enforced.

    A gradient carrying ``log_base`` is read through it with the weighted
    denominator (module docstring); the unweighted variant has no positive
    form and always reads the gradient values, which must be finite.
    """
    _check_params("renyi", params)
    alpha = params.alpha
    weights = as_simplex(weights)
    log_a = None if unweighted_denominator else _log_base(grad, weights.size)
    if log_a is None:
        values = _gradient_values(grad, weights.size)
        mu_b = float(values.sum() if unweighted_denominator else weights @ values)
        denom = (alpha - 1.0) * (mu_b + params.shift) + 1.0
        if denom <= 0:
            raise GuardViolation(
                f"renyi normaliser nonpositive: (alpha-1)(mu_b+shift)+1 = {denom!r}"
            )
        scaled = values / denom
        raw_check = (values + 1.0 / (alpha - 1.0)) / denom
    else:
        log_denom = logsumexp(log_a, b=weights)
        if params.shift != 0.0:
            log_denom = np.logaddexp(log_denom, np.log((alpha - 1.0) * params.shift))
        if not log_denom > -np.inf:
            raise GuardViolation(
                f"renyi normaliser nonpositive: log(sum lambda A + (alpha-1)shift) "
                f"= {float(log_denom)!r}"
            )
        # A_j / ((alpha-1) D) is (b_j + 1/(alpha-1)) / D, the scaled
        # gradient up to a constant that cancels on renormalisation
        scaled = raw_check = np.exp(log_a - log_denom) / (alpha - 1.0)
    new = _renormalise(weights, -params.step_size * scaled)
    margin = 1.0 - params.step_size * (alpha - 1.0) * raw_check
    return new, StepDiagnostics(float(margin.min()))


@dataclass(frozen=True)
class TraceRecord:
    """State of one descent iteration.

    ``objective`` is the exact objective (finite-support runs only) and
    ``vr_bound`` the Monte Carlo bound (sampled runs only); whichever does
    not apply is NaN.
    """

    phase: int
    step: int
    weights: np.ndarray
    vr_bound: float
    objective: float
    guard_min: float
    elapsed_ms: float


@dataclass
class DescentTrace:
    """Recorded iterations of one descent run plus its terminal status."""

    records: list = field(default_factory=list)
    status: str = "completed"
    replicate: int | None = None

    @property
    def final_weights(self):
        if not self.records:
            raise ValueError("empty trace has no final weights")
        return self.records[-1].weights


def _step_once(algorithm, weights, grad, params, unweighted_denominator):
    if algorithm == "power":
        return power_step(weights, grad, params)
    if algorithm == "emd":
        return emd_step(weights, grad, params)
    if algorithm == "kl":
        return kl_step(weights, grad, params.step_size)
    return renyi_step(
        weights, grad, params, unweighted_denominator=unweighted_denominator
    )


def run_descent(
    initial,
    params,
    algorithm,
    num_steps,
    *,
    problem=None,
    target=None,
    sample_count=None,
    rng=None,
    fixed_point_tol=None,
    unweighted_denominator=False,
    phase=1,
    record_initial=True,
):
    """Apply ``num_steps`` updates and record every iteration.

    Exactly one of ``problem`` (exact gradients and objective) or
    ``target`` (Monte Carlo gradients and the sampled bound) must be given.
    The exact mode accepts bare weights or a :class:`MixtureState` as
    ``initial``; the Monte Carlo mode needs the state (weights, points and
    kernel) plus ``sample_count`` and ``rng``, and keeps its points and
    kernel.  The kl algorithm always uses the alpha = 1 gradient and
    objective, whatever ``params.alpha`` says; the sampled bound is
    monitored at ``params.alpha`` and recorded as NaN when that is 1.

    The weights or state, their size, and the parameters the step demands
    (``params.power_valid`` for power, ``alpha != 1`` and
    ``(alpha-1)*shift >= 0`` for renyi) are checked at entry, so invalid
    inputs are refused before the first sample is drawn.  Each step then
    calls the public gradient, step and objective functions, which check
    their own inputs again.  The Monte Carlo mode reads the state's points
    and kernel once, at entry, and draws every batch from them under the
    current iterate; it builds no state per step.

    Both modes share one loop.  The mode supplies the gradient at an
    iterate and the score (bound, objective) that goes into its record;
    scoring an iterate keeps what its gradient reads.  In exact mode that
    is the iterate's one ``problem.log_mixture``, read by the objective and
    the gradient through their ``log_mixture=`` keyword.  In Monte Carlo
    mode it is the iterate's one batch, which gives the sampled bound and
    then the next step's gradient, so N steps draw N+1 batches (N when the
    bound is not monitored and each gradient draws its own).  The power
    update and the weighted renyi update read ``log A_j``, the positive
    estimate of their base (see :mod:`alpha_descent.gradient`); the other
    updates and the exact mode read the gradient values.

    ``fixed_point_tol`` (e.g. ``1e-12``) stops the run once a step moves
    the weights by less than the tolerance in l1 norm; by default the run
    always performs the full ``num_steps``.

    The input state is never mutated.  Guard violations are re-raised with
    the failing step attached and the partial trace available on the
    exception as ``partial``.
    """
    if (problem is None) == (target is None):
        raise ValueError("pass exactly one of problem= or target=")
    if num_steps < 0:
        raise ValueError(f"num_steps must be >= 0, got {num_steps}")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    _check_params(algorithm, params)
    grad_alpha = 1.0 if algorithm == "kl" else params.alpha

    if target is None:
        weights = as_simplex(
            initial.weights if isinstance(initial, MixtureState) else initial
        )
        if weights.size != problem.num_components:
            raise ValueError(
                f"{weights.size} weights for a problem with "
                f"{problem.num_components} components"
            )
        log_mix = None  # the scored iterate's log-mixture

        def gradient(w):
            mix = log_mix if log_mix is not None else problem.log_mixture(w)
            return gradient_exact(problem, w, grad_alpha, log_mixture=mix)

        def score(w):
            nonlocal log_mix
            log_mix = problem.log_mixture(w)
            return np.nan, divergence_exact(problem, w, grad_alpha, log_mixture=log_mix)

    else:
        if not isinstance(initial, MixtureState):
            raise ValueError("Monte Carlo descent needs a MixtureState")
        if sample_count is None or sample_count < 1:
            raise ValueError(f"bad sample_count {sample_count!r}")
        if rng is None:
            raise ValueError("Monte Carlo descent needs an rng")
        # the weights may have been changed since the state was built
        weights = as_simplex(initial.weights)
        points, kernel = initial.points, initial.kernel
        log_base = algorithm == "power" or (
            algorithm == "renyi" and not unweighted_denominator
        )
        batch = None  # the scored iterate's monitor batch

        def draw(w):
            """``(log k, log q, log p)`` of a new batch drawn under ``w``."""
            samples = sample_mixture(w, points, kernel, sample_count, rng)
            return sample_logs(w, points, kernel, target, samples)

        def gradient(w):
            log_k, log_q, log_p = batch if batch is not None else draw(w)
            return gradient_monte_carlo_from_logs(
                log_k, log_p, w, grad_alpha, log_base=log_base, log_mixture=log_q
            )

        def score(w):
            nonlocal batch
            if params.alpha == 1.0:
                return np.nan, np.nan
            batch = draw(w)
            _, log_q, log_p = batch
            return vr_bound_from_logs(log_p, log_q, params.alpha), np.nan

    trace = DescentTrace(status="completed")

    def record(n, w, guard_min, tick):
        vr, objective = score(w)
        elapsed = (time.perf_counter() - tick) * 1000.0
        trace.records.append(
            TraceRecord(phase, n, w.copy(), vr, objective, guard_min, elapsed)
        )

    if record_initial:
        record(0, weights, np.nan, time.perf_counter())
    for n in range(1, num_steps + 1):
        tick = time.perf_counter()
        try:
            new, diag = _step_once(
                algorithm, weights, gradient(weights), params, unweighted_denominator
            )
        except GuardViolation as exc:
            err = GuardViolation(
                f"step {n} of phase {phase}: {exc}",
                indices=exc.indices,
                iteration=n,
            )
            trace.status = f"guard_violation: {err}"
            err.partial = trace
            raise err from exc

        if fixed_point_tol is not None:
            moved = float(np.abs(new - weights).sum())
        weights = new
        record(n, weights, diag.guard_min, tick)
        if fixed_point_tol is not None and moved < fixed_point_tol:
            trace.status = f"fixed_point: step {n} moved {moved:.3e}"
            break
    return trace


@dataclass(frozen=True)
class RateConstants:
    """Constants entering the O(1/N) bound of the renyi update.

    Built from a sup-norm bound on the shifted gradient over the whole
    simplex.  All constants are finite and positive whenever the rate
    assumptions hold (``(alpha-1)*shift > 0`` and a small enough step).

    Attributes:
        grad_bound: ``sup |b_j + 1/(alpha-1)|``.
        prefactor: multiplies the whole bound, ``|alpha-1|(B + |shift|) / step``.
        smoothness: smoothness constant of the exponential on the gradient
            domain.
        exp_sup: sup of the exponential on that domain.
        monotone_const: strong-monotonicity constant; positive only while
            ``step * grad_bound < |shift|``.
        kl_init_bound: ``log J``, bounds the KL between optimum and the
            uniform start.
        init_gap_bound: ``sqrt(2 log J) * grad_bound``, bounds the initial
            objective gap.
    """

    grad_bound: float
    prefactor: float
    smoothness: float
    exp_sup: float
    monotone_const: float
    kl_init_bound: float
    init_gap_bound: float

    @classmethod
    def from_grad_bound(cls, grad_bound, params, num_components):
        if not params.renyi_valid:
            raise ValueError(
                f"rate constants need alpha != 1 and (alpha-1)*shift > 0, got {params}"
            )
        if not np.isfinite(grad_bound) or grad_bound <= 0:
            raise ValueError(f"grad_bound must be positive and finite, got {grad_bound}")
        if num_components < 1:
            raise ValueError(f"num_components must be >= 1, got {num_components}")
        alpha, eta, shift = params.alpha, params.step_size, params.shift
        margin = 1.0 - eta * grad_bound / abs(shift)
        if margin <= 0:
            raise ValueError(
                f"step_size {eta} too large for grad_bound {grad_bound} and "
                f"shift {shift}: needs step_size * grad_bound < |shift|"
            )
        # The gradient domain is the interval of half-width
        # c = grad_bound / ((alpha-1) shift), centred at -3c; that centring
        # cancels from the final bound.
        c = grad_bound / ((alpha - 1.0) * shift)
        log_j = float(np.log(num_components))
        return cls(
            grad_bound=float(grad_bound),
            prefactor=float(abs(alpha - 1.0) * (grad_bound + abs(shift)) / eta),
            smoothness=float(eta**2 * np.exp(4.0 * eta * c)),
            exp_sup=float(np.exp(-2.0 * eta * c)),
            monotone_const=float(margin * eta * np.exp(2.0 * eta * c)),
            kl_init_bound=log_j,
            init_gap_bound=float(np.sqrt(2.0 * log_j) * grad_bound),
        )


def rate_bound(constants, num_steps, params, num_components):
    """Upper bound on the objective gap after ``num_steps`` renyi updates.

    Valid from a uniform start over ``num_components`` components; decays
    like 1/N.
    """
    if num_steps < 1:
        raise ValueError(f"num_steps must be >= 1, got {num_steps}")
    if not params.renyi_valid:
        raise ValueError(f"rate bound needs (alpha-1)*shift > 0, got {params}")
    correction = (
        constants.smoothness
        * constants.exp_sup
        / (constants.monotone_const * (params.alpha - 1.0) * params.shift)
    )
    return float(
        constants.prefactor
        / num_steps
        * (constants.kl_init_bound + correction * constants.init_gap_bound)
    )
