"""Multiplicative updates on the simplex and their convergence-rate bound.

Five update rules, one per name in :data:`ALGORITHMS`, share one shape:
multiply each weight by a positive factor computed from the gradient,
renormalise in the log domain.  A :class:`MixtureGradient` carries the
order it was taken at, and every step refuses one of another order.

    power:  factor_j = [(alpha-1)(b_j + shift) + 1]^(step/(1-alpha))
    emd:    factor_j = exp(-step b_j)
    kl:     factor_j = exp(-step b_j)           (alpha = 1 gradient)
    renyi:  factor_j = exp(-step b_j / D),  D = (alpha-1)(mu_b + shift) + 1
    renyi_unweighted:  renyi with mu_b the plain sum of the gradient

where ``mu_b`` is the weighted mean of the gradient.  The power and both
renyi updates carry positivity guards; a violated guard raises
:class:`GuardViolation` instead of producing NaNs.  Only power and renyi
read the shift; emd and kl are one mirror step, at ``alpha != 1`` and ``alpha = 1``.

A Monte Carlo gradient that carries ``log_base = log A_j`` (see
:mod:`alpha_descent.gradient`) estimates the power base
``(alpha-1) b_j + 1`` by ``A_j``, and the two guarded updates then read it
in the log domain:

    power:  log factor_j = step/(1-alpha) log(A_j + (alpha-1) shift)
    renyi:  log factor_j = -step A_j / ((alpha-1) D),
            D = sum_j lambda_j A_j + (alpha-1) shift

The renyi form drops the constant ``step / ((alpha-1) D)``, which cancels
when the weights are renormalised.  Such a gradient has no values, so the
emd, kl and renyi_unweighted updates refuse it.

In Monte Carlo mode every update, ``log A_j`` or values, and the
iterate's sampled bound read one :class:`~alpha_descent.model.SampleBatch`
per iterate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .divergence import (
    DescentParams,
    _check_params,
    _lift,
    divergence_exact,
    vr_bound_from_logs,
)
from .gradient import (
    MixtureGradient,
    MixtureState,
    gradient_exact,
    gradient_monte_carlo_from_logs,
    sample_mixture,
)
from .model import _DistancePlan, _check_float, _check_integer, as_simplex, logsumexp

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

ALGORITHMS = ("power", "renyi", "emd", "kl", "renyi_unweighted")
_READS_LOG_BASE = ("power", "renyi")  # the arms that read log A_j when given it


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
            guard held there too, since it refuses only a zero base.  A
            renyi step records its admissibility margin, the smallest
            ``1 - step (alpha-1) V_j`` over the weighted components.
    """

    guard_min: float


def _enter(algorithm, weights, grad, params, checked=False):
    """The one entry of every step: ``(weights, active, values, log_a)``.

    Runs ``_check_params``, refuses a :class:`MixtureGradient` of another
    order (a raw array has none), runs ``as_simplex`` and checks the
    gradient's shape.  With ``checked`` set, as ``run_descent`` sets it, it
    skips those: the loop checked the settings and the weights at entry,
    its iterates are that start or a step's output, and its gradients are
    ``MixtureGradient`` vectors of its own order and size.  Either way it
    masks the weighted components (``active`` is ``True`` when no weight
    is zero, so that every pass runs unmasked) and checks this step's
    data.  As in ``run_descent``, the name alone says what is read: power
    and renyi read ``log A_j`` when the gradient carries it (no NaN or
    ``+inf``; ``-inf`` is the guard's), and ``values`` is None; otherwise
    the values, finite on every weighted row, and on every row for the
    renyi family, whose denominators read them all.
    """
    if checked:
        log_a = grad.log_base if algorithm in _READS_LOG_BASE else None
        values = grad.values
    else:
        _check_params(algorithm, params)
        log_a = None
        if isinstance(grad, MixtureGradient):
            if grad.alpha != params.alpha:
                raise ValueError(
                    f"{algorithm} step wants an alpha={params.alpha} gradient, "
                    f"got alpha={grad.alpha}"
                )
            if algorithm in _READS_LOG_BASE:
                log_a = grad.log_base
            grad = grad.values
        weights = as_simplex(weights)
        if log_a is None:
            if grad is None:
                raise ValueError(
                    "a log_base gradient has no values for this step to read"
                )
            values = np.asarray(grad, dtype=float)
            if values.ndim != 1:
                raise ValueError(f"gradient must be a vector, got shape {values.shape}")
            if values.size != weights.size:
                raise ValueError(
                    f"gradient has {values.size} entries for {weights.size} weights"
                )
    active = True if np.minimum.reduce(weights) > 0.0 else weights > 0
    if log_a is not None:
        if log_a.size != weights.size or not (log_a < np.inf).all():
            raise ValueError(
                f"gradient log_base must hold {weights.size} entries, none NaN or +inf"
            )
        return weights, active, None, log_a
    rows = True if algorithm.startswith("renyi") else active
    if not np.logical_and.reduce(np.isfinite(values), where=rows):
        raise ValueError("gradient values must be finite")
    return weights, active, values, None


def _renormalise(weights, log_factors, active):
    """Multiply and renormalise in the log domain.

    ``active`` is the mask from ``_enter``.  Zero weights stay exactly
    zero, and their factors are never read.  Returns the new simplex vector.
    """
    if active is True:
        log_w = np.log(weights)
        log_w += log_factors
    else:
        log_w = np.empty(weights.shape)
        log_w.fill(-np.inf)
        np.log(weights, out=log_w, where=active)
        np.add(log_w, log_factors, out=log_w, where=active)
    peak = np.maximum.reduce(log_w)
    if not math.isfinite(peak):
        raise GuardViolation("all mixture mass was annihilated by the update")
    log_w -= peak
    w = np.exp(log_w, out=log_w)
    w /= np.add.reduce(w)
    return w


def power_step(weights, grad, params, *, _checked=False):
    """One power update.  Returns ``(new_weights, diagnostics)``.

    Requires the parameters ``_check_params`` accepts for power.  The
    positivity guard is checked on weighted components only; zero-weight
    components stay at zero regardless of their gradient value.  A gradient
    carrying ``log_base`` is read through it (module docstring) and must
    have no NaN or ``+inf`` in it; the guard refuses a base whose log is
    ``-inf``.
    """
    weights, active, values, log_a = _enter("power", weights, grad, params, _checked)
    alpha = params.alpha
    # each pass below reads the weighted components only, through ``active``
    if log_a is None:
        base = (alpha - 1.0) * (values + params.shift if params.shift else values) + 1.0
        guard_min = float(np.minimum.reduce(base, where=active, initial=np.inf))
        if guard_min <= 0.0:
            bad = np.flatnonzero(active & (base <= 0))
            raise GuardViolation(
                f"power guard violated at component(s) {bad.tolist()}: "
                f"(alpha-1)(b+shift)+1 = {float(base[bad[0]])!r}",
                indices=bad,
            )
        log_base = np.log(base, out=base, where=active)
    else:
        log_a = _lift(log_a, params)
        low = np.minimum.reduce(log_a, where=active, initial=np.inf)
        if low == -np.inf:
            bad = np.flatnonzero(active & ~(log_a > -np.inf))
            raise GuardViolation(
                f"power guard violated at component(s) {bad.tolist()}: "
                f"log(A+(alpha-1)shift) = {float(log_a[bad[0]])!r}",
                indices=bad,
            )
        with np.errstate(over="ignore"):  # a base above e^709 reads inf
            guard_min = float(np.exp(low))
        log_base = log_a
    # the values branch's base is fresh; ``log_a`` may be the gradient's own
    log_factors = np.multiply(
        log_base, params.step_size / (1.0 - alpha),
        out=log_base if log_a is None else np.empty(weights.shape), where=active,
    )
    return _renormalise(weights, log_factors, active), StepDiagnostics(guard_min)


def _mirror_step(algorithm, weights, grad, params, step_size, checked):
    """Entropic mirror descent, factors ``exp(-step b)``; no guard."""
    weights, active, values, _ = _enter(algorithm, weights, grad, params, checked)
    new = _renormalise(weights, -step_size * values, active)
    return new, StepDiagnostics(np.inf)


def emd_step(weights, grad, params, *, _checked=False):
    """One entropic mirror descent update; it reads only ``params.step_size``.

    Requires the parameters ``_check_params`` accepts for emd: no shift,
    and ``alpha != 1``, which is kl.
    """
    return _mirror_step("emd", weights, grad, params, params.step_size, _checked)


def kl_step(weights, grad, step_size, *, _checked=False):
    """The emd step at alpha=1 (forward KL); the gradient must be the alpha=1 one.

    With ``_checked`` set, as ``run_descent`` sets it, the step size was
    checked at entry, so no :class:`DescentParams` is built to check it.
    """
    params = None if _checked else DescentParams(1.0, step_size)
    return _mirror_step("kl", weights, grad, params, step_size, _checked)


def renyi_step(weights, grad, params, unweighted_denominator=False, *, _checked=False):
    """One renyi update, factors ``exp(-step b_j / D)``.

    ``D = (alpha-1)(mu_b + shift) + 1`` with ``mu_b`` the weighted mean of
    the gradient; ``unweighted_denominator`` swaps in the plain sum instead,
    which reproduces a published variant but loses the positivity guarantee
    of the weighted form.  ``run_descent`` runs that variant as the
    algorithm ``renyi_unweighted``.  Requires ``alpha != 1`` and
    ``(alpha-1)*shift >= 0`` (the convergence rate additionally wants the
    product strictly positive, see :class:`RateConstants`).

    The admissibility check ``1 - step (alpha-1) V_j >= 0`` is recorded in
    the diagnostics, over the weighted components only, not enforced.

    A gradient carrying ``log_base`` is read through it with the weighted
    denominator (module docstring); the unweighted variant has no positive
    form, reads the gradient values, which must be finite, and refuses a
    gradient that carries ``log_base``.
    """
    algorithm = "renyi_unweighted" if unweighted_denominator else "renyi"
    weights, active, values, log_a = _enter(algorithm, weights, grad, params, _checked)
    alpha = params.alpha
    if log_a is None:
        mu_b = float(values.sum() if unweighted_denominator else weights @ values)
        denom = (alpha - 1.0) * (mu_b + params.shift) + 1.0
        if denom <= 0:
            raise GuardViolation(
                f"renyi normaliser nonpositive: (alpha-1)(mu_b+shift)+1 = {denom!r}"
            )
        scaled = values / denom
        raw_check = (values + 1.0 / (alpha - 1.0)) / denom
    else:
        log_denom = _lift(logsumexp(log_a, b=weights), params)
        if not log_denom > -np.inf:
            raise GuardViolation(
                f"renyi normaliser nonpositive: log(sum lambda A + (alpha-1)shift) "
                f"= {float(log_denom)!r}"
            )
        # A_j / ((alpha-1) D) is (b_j + 1/(alpha-1)) / D, the scaled
        # gradient up to a constant that cancels on renormalisation; a
        # zero-weight row is never read, so it is not exponentiated
        scaled = raw_check = np.exp(
            log_a - log_denom, out=np.zeros(weights.shape), where=active
        ) / (alpha - 1.0)
    new = _renormalise(weights, -params.step_size * scaled, active)
    margin = 1.0 - params.step_size * (alpha - 1.0) * raw_check
    guard_min = np.minimum.reduce(margin, where=active, initial=np.inf)
    return new, StepDiagnostics(float(guard_min))


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


def _step_once(algorithm, weights, grad, params):
    """The public step of ``algorithm``, with its entry checks skipped."""
    if algorithm == "power":
        return power_step(weights, grad, params, _checked=True)
    if algorithm == "emd":
        return emd_step(weights, grad, params, _checked=True)
    if algorithm == "kl":
        return kl_step(weights, grad, params.step_size, _checked=True)
    return renyi_step(
        weights,
        grad,
        params,
        unweighted_denominator=algorithm == "renyi_unweighted",
        _checked=True,
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
    phase=1,
):
    """Apply ``num_steps`` updates and record every iteration.

    Exactly one of ``problem`` (exact gradients and objective) or
    ``target`` (Monte Carlo gradients and the sampled bound) must be given.
    The exact mode accepts bare weights or a :class:`MixtureState` as
    ``initial``; the Monte Carlo mode needs the state (weights, points and
    kernel) plus ``sample_count`` and ``rng``, and keeps its points and
    kernel.  Gradients, objective and the sampled bound are read at
    ``params.alpha``; the bound is recorded as NaN when that is 1, as it is
    for kl.

    The weights or state, their size, ``num_steps`` and ``sample_count``
    (integers, not bools), the target's dimension and the alpha, shift and
    step size that ``_check_params`` accepts for the algorithm are checked
    at entry, so invalid inputs are refused before the first sample is
    drawn.  Like every count and positive real of the package, the two
    counts are checked by one call to ``model._check_integer``
    (``model._check_float`` for a real), which carries the range.  Each
    step then calls the public step with its private ``_checked`` keyword
    set, so that its entry ``_enter`` skips what entry decided
    (``_check_params``, ``as_simplex`` and the gradient's order and shape)
    and checks only this step's data: that the values it reads are finite
    (or, for ``log A_j``, no NaN or ``+inf``), and every guard.  It calls
    the steps by their module-level names, so that a wrapper of a public
    step, such as the benchmark's tracer, sees every step.  The
    exact objective reads each density ratio as its log and refuses only a
    total outside the float range; the Monte Carlo gradient checks the
    shapes of its batch, which carries the weights it was drawn under.
    On valid input each check is a minimum, a maximum, a sum or a shape;
    the conditions are told apart only when one fails.

    Both modes share one loop, and each supplies one ``visit`` of an
    iterate: it scores the iterate (bound, objective) for its record and
    hands back its gradient, formed when the next step asks.  In exact mode
    the visit forms the iterate's one ``log u = log mix - log p`` through
    the unchecked ``problem._log_mixture`` (an iterate is the checked start
    or a step's output) and hands it to the objective and the gradient
    through their private ``_log_u``; called on their own, both check their
    weights and form their own.  In Monte Carlo mode it draws the iterate's
    one batch from the entry's points and kernel, which gives the bound and
    then the next step's gradient, so N steps draw N+1 batches and build no
    state; kl, which monitors nothing, draws only for its gradients.  The
    particle side of the batches' distance product is built once, at entry,
    and the batches are those of :func:`~alpha_descent.model.sample_logs`,
    bit for bit.  The power and renyi updates read ``log A_j`` (see
    :mod:`alpha_descent.gradient`), the other arms and the exact mode the
    gradient values.  A batch is let go once its gradient is read, so a
    step of any arm holds one kernel matrix.

    ``fixed_point_tol`` (e.g. ``1e-12``) stops the run once a step moves
    the weights by less than the tolerance in l1 norm; by default the run
    always performs the full ``num_steps``.

    The input state is never mutated.  Each record holds its step's output
    weights as they are, a fresh array that no later step writes into; the
    entry record holds a copy, since the start may be the caller's array.
    Guard violations are re-raised with
    the failing step attached and the partial trace available on the
    exception as ``partial``.
    """
    if (problem is None) == (target is None):
        raise ValueError("pass exactly one of problem= or target=")
    _check_integer("num_steps", num_steps, 0)
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    _check_params(algorithm, params)
    alpha = params.alpha

    if target is None:
        weights = as_simplex(
            initial.weights if isinstance(initial, MixtureState) else initial
        )
        if weights.size != problem.num_components:
            raise ValueError(
                f"{weights.size} weights for a problem with "
                f"{problem.num_components} components"
            )

        def visit(w):
            log_u = problem._log_mixture(w) - problem.log_p_values
            objective = divergence_exact(problem, w, alpha, _log_u=log_u)
            return np.nan, objective, lambda: gradient_exact(
                problem, w, alpha, _log_u=log_u
            )

    else:
        if not isinstance(initial, MixtureState):
            raise ValueError("Monte Carlo descent needs a MixtureState")
        _check_integer("sample_count", sample_count, 1)
        if rng is None:
            raise ValueError("Monte Carlo descent needs an rng")
        # the weights may have been changed since the state was built
        weights = as_simplex(initial.weights)
        points, kernel = initial.points, initial.kernel
        target._check_dim(points)
        plan = _DistancePlan(points, kernel, target, weights)
        log_base = algorithm in _READS_LOG_BASE

        def draw(w):
            """The :class:`SampleBatch` of a new batch drawn under ``w``."""
            return plan.batch(w, sample_mixture(w, points, kernel, sample_count, rng))

        def gradient(batch):
            return gradient_monte_carlo_from_logs(batch, alpha, log_base=log_base)

        def visit(w):
            if alpha == 1.0:
                return np.nan, np.nan, lambda: gradient(draw(w))
            batch = draw(w)
            vr = vr_bound_from_logs(batch.log_p, batch.log_q, alpha)
            return vr, np.nan, lambda: gradient(batch)

    trace = DescentTrace(status="completed")
    tick = time.perf_counter()
    vr, objective, grad = visit(weights)
    elapsed = (time.perf_counter() - tick) * 1000.0
    # the one record that may share the caller's array; every step's
    # output is fresh, and nothing writes into a step's input
    trace.records.append(
        TraceRecord(phase, 0, weights.copy(), vr, objective, np.nan, elapsed)
    )
    for n in range(1, num_steps + 1):
        tick = time.perf_counter()
        try:
            new, diag = _step_once(algorithm, weights, grad(), params)
        except GuardViolation as exc:
            err = GuardViolation(
                f"step {n} of phase {phase}: {exc}",
                indices=exc.indices,
                iteration=n,
            )
            trace.status = f"guard_violation: {err}"
            err.partial = trace
            raise err from exc
        del grad  # let its batch go before the next iterate draws one

        if fixed_point_tol is not None:
            moved = float(np.abs(new - weights).sum())
        weights = new
        vr, objective, grad = visit(weights)
        elapsed = (time.perf_counter() - tick) * 1000.0
        trace.records.append(
            TraceRecord(phase, n, weights, vr, objective, diag.guard_min, elapsed)
        )
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
        _check_float("grad_bound", grad_bound, positive=True)
        _check_integer("num_components", num_components, 1)
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


def rate_bound(constants, num_steps, params):
    """Upper bound on the objective gap after ``num_steps`` renyi updates.

    Valid from a uniform start over the components ``constants`` was built
    for (its ``kl_init_bound`` is their ``log J``); decays like 1/N.
    """
    _check_integer("num_steps", num_steps, 1)
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
