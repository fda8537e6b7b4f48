"""Targets, Gaussian smoothing kernels and finite-support test problems.

All density evaluations live in the log domain.  At dimension 16 a Gaussian
kernel value at a typical inter-particle distance underflows float64 in the
linear domain, so values only leave log space inside a log-sum-exp or when
they are provably at most O(1), as kernel values taken against the
kernel's peak density are; a sum of them that underflows is recomputed in
the log domain.

One path turns a sample batch into what every Monte Carlo consumer reads:
a private distance plan holds the particle side of one product of
augmented rows (:func:`squared_distances`), and each batch adds its
samples' side.  The plan is built once per ``run_descent`` call (and once
per :func:`sample_logs` call) from the particles, the kernel and the
target: the particle rows and the rows the target adds, about the
coordinate-wise median of the particles.  A :class:`GaussianMixtureTarget`
adds its mean rows and takes ``log p`` from their block; a plain
:class:`Target` adds none and reads its ``log_density``.  The kernel block
is exponentiated in place against the kernel's own peak density, so it is
bounded by 1 and no row can overflow; ``log q`` is the log of its weighted
column sums.  The gradient, the monitor and exploration all read that one
product and that one exp pass, as a :class:`SampleBatch`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "LOG_2PI",
    "FiniteSupportProblem",
    "GaussianKernel",
    "GaussianMixtureTarget",
    "SampleBatch",
    "Target",
    "as_simplex",
    "bandwidth_rule",
    "gaussian_kernel_logpdf",
    "logsumexp",
    "sample_logs",
    "squared_distances",
]

LOG_2PI = float(np.log(2.0 * np.pi))


def _check_integer(name, value, minimum):
    # bool is an int subclass; a float such as 2.0 or 100.7 would be
    # truncated or fail mid-run
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


def _check_float(name, value, positive=False):
    # a string would fail mid-run inside numpy, and true would run as 1.0
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float, np.integer, np.floating))
        or not math.isfinite(value)
    ):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if positive and value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


# the ``tol`` of as_simplex
_SIMPLEX_TOL = 1e-12


def as_simplex(weights, *, name="weights"):
    """Validate and return ``weights`` as a float array on the simplex.

    Entries must be finite and nonnegative and sum to one within ``tol``.
    Valid weights pass one test: every entry lies in ``[0, 1 + tol]``, as
    entries of such a vector must, so their sum cannot overflow, and it is
    within ``tol`` of one.  The test is false for a NaN or an infinite
    entry too; only then are the conditions told apart, for the message.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d array, got shape {w.shape}")
    tol = _SIMPLEX_TOL
    if (
        np.minimum.reduce(w) >= 0.0
        and np.maximum.reduce(w) <= 1.0 + tol
        and abs(np.add.reduce(w) - 1.0) <= tol
    ):
        return w
    if not np.isfinite(w).all():
        raise ValueError(f"{name} must be finite")
    if (w < 0).any():
        raise ValueError(f"{name} must be nonnegative, got min {w.min()}")
    with np.errstate(over="ignore"):  # finite entries may sum past 1e308
        total = float(w.sum())
    raise ValueError(f"{name} must sum to 1 within {tol}, got {total!r}")


def logsumexp(a, axis=-1, b=None):
    """``log sum_i b_i exp(a_i)`` along ``axis``, with the maximum subtracted.

    ``b`` is an optional nonnegative weight per entry along ``axis``
    (default all ones).  Its zero entries are dropped before the peak is
    taken, so an entry far above every weighted one neither sets the peak
    nor turns into ``0 * inf``.  The sum is a matrix-vector product with
    ``b`` over a C-ordered copy of ``a - peak``.  A slice whose entries are
    all ``-inf`` gives ``-inf``, and so does an empty sum: an empty axis, or
    a ``b`` with no positive entry.  A NaN or negative ``b`` is refused, and
    so is a ``b`` that is not one entry per entry along ``axis``.
    """
    a = np.asarray(a, dtype=float)
    if axis not in (0, -a.ndim):
        a = np.moveaxis(a, axis, 0)
    if b is None:
        b = np.ones(a.shape[0])
    else:
        b = np.asarray(b, dtype=float)
        if b.shape != a.shape[:1]:
            raise ValueError(f"logsumexp b of shape {b.shape} for an axis of length {len(a)}")
        keep = b > 0
        if not keep.all():
            if not (b[~keep] == 0.0).all():
                raise ValueError("logsumexp weights b must be nonnegative and not NaN")
            a, b = a[keep], b[keep]
    rest = a.shape[1:]
    if not b.size:
        return np.full(rest, -np.inf)[()]
    a = a.reshape(b.size, -1)
    peak = a.max(axis=0)
    peak[~np.isfinite(peak)] = 0.0
    # a fresh C-ordered array: the order of a view's difference would
    # change the summation order of the product
    part = np.subtract(a, peak, out=np.empty(a.shape))
    total = b @ np.exp(part, out=part)
    out = np.empty_like(total)
    out.fill(-np.inf)
    np.log(total, out=out, where=total != 0)
    out += peak
    return out.reshape(rest)[()]


def _left_block(x, centre, scale, offset):
    """The augmented rows ``[-2 s_i (x_i - c), s_i ||x_i - c||^2 + offset_i, s_i]``.

    ``s`` is ``scale``, a scalar or one entry per row, as is ``offset``.
    """
    d = x.shape[1]
    scale = np.asarray(scale, dtype=float)
    left = np.empty((x.shape[0], d + 2))
    np.subtract(x, centre, out=left[:, :d])
    left[:, d] = scale * np.einsum("ij,ij->i", left[:, :d], left[:, :d]) + offset
    left[:, d + 1] = scale
    left[:, :d] *= -2.0 * scale[..., None]
    return left


def _right_block(y, centre):
    """The augmented rows ``[y_m - c, 1, ||y_m - c||^2]``; ``_left_block @ _right_block.T``
    is ``scale_i ||x_i - y_m||^2 + offset_i``."""
    d = y.shape[1]
    right = np.empty((y.shape[0], d + 2))
    np.subtract(y, centre, out=right[:, :d])
    right[:, d] = 1.0
    right[:, d + 1] = np.einsum("ij,ij->i", right[:, :d], right[:, :d])
    return right


def squared_distances(x, y, scale=1.0, offset=0.0):
    """``scale * ||x_i - y_m||^2 + offset`` for the rows of two 2-d arrays.

    Returns shape ``(len(x), len(y))``.  ``scale`` and ``offset`` are scalars
    or hold one entry per row of ``x``, so that one product serves rows of
    different kinds.  Both sets are first shifted by a centre ``c``, so
    that rounding scales with the spread of the points rather than with
    their distance from the origin.  Here ``c`` is the mean of ``y``, so one
    row of ``x`` never moves the values of another; the batches of
    :func:`sample_logs` take it from the particles instead, once per run
    rather than once per batch.  The expansion ``||x||^2 + ||y||^2 - 2
    x.y`` is then a single matrix product of the augmented rows ``[-2
    scale_i x_i, scale_i ||x_i||^2 + offset_i, scale_i]`` and ``[y_m, 1,
    ||y_m||^2]``, which also applies ``scale`` and ``offset``.  Its
    rounding error is relative to ``||x_i - c||^2 + ||y_m - c||^2``, not
    to the distance itself.
    """
    centre = np.add.reduce(y, axis=0)
    centre /= len(y)
    return _left_block(x, centre, scale, offset) @ _right_block(y, centre).T


def gaussian_kernel_logpdf(theta, y, bandwidth):
    """Log density at ``y`` of an isotropic Gaussian with mean ``theta``.

    Args:
        theta: location, shape ``(d,)``.
        y: evaluation point, shape ``(d,)``.
        bandwidth: positive standard deviation shared by all coordinates.

    Returns:
        float, ``-||y - theta||^2 / (2 h^2) - (d/2) log(2 pi h^2)``.
    """
    _check_float("bandwidth", bandwidth, positive=True)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if theta.shape != y.shape:
        raise ValueError(f"dimension mismatch: theta {theta.shape} vs y {y.shape}")
    d = theta.shape[-1]
    sq = float(np.sum((y - theta) ** 2))
    return -sq / (2.0 * bandwidth**2) - 0.5 * d * (LOG_2PI + 2.0 * np.log(bandwidth))


def bandwidth_rule(num_components, dim, coeff=1.0):
    """Bandwidth ``coeff * J^(-1/(4+d))`` for ``J`` particles in dimension ``d``."""
    _check_integer("num_components", num_components, 1)
    _check_integer("dim", dim, 1)
    _check_float("coeff", coeff, positive=True)
    return float(coeff * float(num_components) ** (-1.0 / (4.0 + dim)))


@dataclass(frozen=True)
class GaussianKernel:
    """Isotropic Gaussian Markov kernel on R^d.

    Attributes:
        bandwidth: standard deviation h of every coordinate.
        dim: dimension d of the space.
    """

    bandwidth: float
    dim: int

    def __post_init__(self):
        _check_float("bandwidth", self.bandwidth, positive=True)
        _check_integer("dim", self.dim, 1)
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def log_peak(self):
        """The log density at the kernel's centre, ``-(d/2) log(2 pi h^2)``."""
        return -0.5 * self.dim * (LOG_2PI + 2.0 * np.log(self.bandwidth))

    def logpdf_matrix(self, points, ys):
        """Matrix of ``log k(points[j], ys[m])`` with shape ``(J, M)``."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        if points.shape[1] != self.dim or ys.shape[1] != self.dim:
            raise ValueError(
                f"expected points of dimension {self.dim}, "
                f"got {points.shape[1]} and {ys.shape[1]}"
            )
        return squared_distances(
            points, ys, scale=-0.5 / self.bandwidth**2, offset=self.log_peak
        )


class Target:
    """Possibly unnormalised target density, evaluated in log space.

    Args:
        log_density: callable mapping a point ``(d,)`` or a batch ``(M, d)``
            to the log density (scalar or ``(M,)``).  Must be finite
            everywhere.
        normalisation_hint: the integral of ``exp(log_density)`` when known,
            e.g. for synthetic targets built as ``c`` times a probability
            density.  Optional; must be positive when given.
    """

    def __init__(self, log_density, normalisation_hint=None):
        if normalisation_hint is not None:
            _check_float("normalisation_hint", normalisation_hint, positive=True)
        self._log_density = log_density
        self.normalisation_hint = normalisation_hint

    def log_density(self, y):
        out = self._log_density(np.asarray(y, dtype=float))
        return np.asarray(out, dtype=float) if np.ndim(out) else float(out)

    def _check_dim(self, ys):
        """Refuse points ``(M, d)`` of another dimension; a plain target has none."""

    def _plan_rows(self, centre):
        """The rows this target adds to a :class:`_DistancePlan` about ``centre``: none."""
        return np.empty((0, len(centre) + 2))

    def _log_p(self, rows, samples):
        """``log p`` at the samples ``(M, d)``, given the product of its plan rows.

        A plain target reads its ``log_density``, refused unless it holds
        one finite value per sample.
        """
        log_p = self.log_density(samples)
        if np.shape(log_p) != (len(samples),):
            raise ValueError(
                f"target log_density returned shape {np.shape(log_p)} for "
                f"{len(samples)} samples; it must return one value per sample"
            )
        if not np.isfinite(log_p).all():
            bad = int(np.flatnonzero(~np.isfinite(log_p))[0])
            raise ValueError(
                f"target log_density returned {float(log_p[bad])!r} at sample {bad}; "
                "it must be finite"
            )
        return log_p


class GaussianMixtureTarget(Target):
    """Target ``scale * sum_i weights_i N(y; means_i, I_d)``.

    The component covariance is the identity.  ``scale`` deliberately leaves
    the target unnormalised so that invariance of the optimisers under
    rescaling can be exercised; the true normaliser is then ``scale`` itself.
    """

    def __init__(self, means, weights=None, scale=1.0):
        means = np.asarray(means, dtype=float)
        if means.ndim != 2 or 0 in means.shape:
            raise ValueError(
                "means must be a 2-d array with at least one row and one column, "
                f"got shape {means.shape}"
            )
        if not np.all(np.isfinite(means)):
            raise ValueError("means must be finite")
        n = means.shape[0]
        if weights is None:
            weights = np.full(n, 1.0 / n)
        weights = as_simplex(weights, name="mixture weights")
        if weights.size != n:
            raise ValueError(f"{n} means but {weights.size} weights")
        _check_float("scale", scale, positive=True)
        self.means = means
        self.weights = weights
        self.scale = float(scale)
        self._log_scale = np.log(self.scale)
        # a mean row of squared_distances at scale -1/2 and this offset is
        # the log density of one unit-covariance component
        self._row_offset = -0.5 * means.shape[1] * LOG_2PI
        super().__init__(self._eval, normalisation_hint=float(scale))

    def _check_dim(self, ys):
        if ys.shape[1] != self.means.shape[1]:
            raise ValueError(
                f"dimension mismatch: target is {self.means.shape[1]}-dimensional, "
                f"got points of dimension {ys.shape[1]}"
            )

    def _plan_rows(self, centre):
        """The mean rows about ``centre``, at scale -1/2 and their own offset.

        Each row of their product with the samples is the log density of
        one unit-covariance component.
        """
        return _left_block(self.means, centre, -0.5, self._row_offset)

    def _log_p(self, rows, samples):
        """``log p``: the weighted log-sum-exp of the product of the mean rows."""
        log_p = logsumexp(rows, axis=0, b=self.weights)
        log_p += self._log_scale
        return log_p

    def _eval(self, y):
        ys = np.atleast_2d(y)
        self._check_dim(ys)
        # the mean rows about the mean of the points, not a plan's centre
        out = self._log_p(squared_distances(self.means, ys, -0.5, self._row_offset), ys)
        return out[0] if np.ndim(y) <= 1 else out


# The smallest normal float.  A column or row sum of the kernel block below
# it has lost digits to underflow, and is recomputed from the locations.
_TINY = np.finfo(float).tiny


@dataclass(frozen=True, slots=True, eq=False)
class SampleBatch:
    """One Monte Carlo batch, as the gradient, the monitor and exploration read it.

    ``ratio`` is the ``(J, M)`` kernel block ``E = exp(log k - log_peak -
    shift)`` of every component, zero weights included, and ``total`` its
    weighted column sums, so that ``E_j / total`` is the ratio ``k_j / q``
    at each sample and ``log q = log_peak + shift + log total``.
    ``log_peak`` is the kernel's log density at its centre, so ``E <= 1``
    wherever ``shift`` is 0.  ``shift`` is 0 except in a column whose total
    fell below the normal float range: that column is taken against the
    peak of its weighted rows instead, and a zero-weight row more than
    about 709 above that peak reads ``inf`` there, as its ratio to ``q``
    would.  ``log_p`` is the target at the samples.  ``log_rows`` maps
    component indices to their rows of ``log E``, formed in the log
    domain.  Only the methods below read this layout.
    """

    ratio: np.ndarray
    total: np.ndarray
    shift: np.ndarray
    log_q: np.ndarray
    log_p: np.ndarray
    log_peak: float
    log_rows: Callable[[np.ndarray], np.ndarray]

    @property
    def size(self):
        """The number of samples ``M``."""
        return self.ratio.shape[1]

    def ratio_mean(self, values):
        """The literal mean ``mean_m (k_j / q)(y_m) values_m`` of each row ``j``."""
        out = self.ratio @ (values / self.total)
        out /= self.size
        return out

    def tilted_mean(self, alpha, values=None):
        """Each row read through its terms ``k_j / q * (q / p)^(alpha - 1)``.

        Without ``values``, ``log A_j``, the log of the row's mean term; with
        sample values ``(M, d)``, their mean weighted by the row's terms,
        refused for a row whose terms all vanish.  The terms are ``E_j exp(t
        + log_peak + top)``, for ``c = shift + (alpha-2) log q - (alpha-1)
        log p``, ``top = max c`` and ``t = c - top <= 0``: one product ``E @
        exp(t)`` sums every row but those of :meth:`_fallback_rows`.
        """
        t = (alpha - 2.0) * self.log_q
        t -= (alpha - 1.0) * self.log_p
        t += self.shift
        top = t.max()
        t -= top
        tilt = np.exp(t)
        sums = self.ratio @ tilt
        rows, exps, log_norm = self._fallback_rows(sums, t)
        if values is None:
            log_a = np.log(sums, out=sums)
            log_a[rows] = log_norm
            log_a += (self.log_peak + top) - np.log(self.size)
            return log_a
        out = self.ratio @ (tilt[:, None] * values)
        out /= sums[:, None]
        if not np.isfinite(log_norm).all():
            bad = np.flatnonzero(~np.isfinite(log_norm))[0]
            raise ValueError(
                f"importance weights for particle {rows[bad]} degenerated "
                f"(log normaliser {float(log_norm[bad])!r})"
            )
        exps -= log_norm[:, None]
        out[rows] = np.exp(exps, out=exps) @ values
        return out

    def _fallback_rows(self, sums, t):
        """``(rows, exps, log_norm)`` of the rows whose ``sums`` left the normal range.

        Such a row lost its digits to underflow (or read an ``inf`` of ``E``).
        Its sum is set to 1, and ``log_norm`` is the log-sum-exp of its
        exponents ``exps = log E_j + t``, recomputed from the locations.
        """
        if sums.min() >= _TINY and sums.max() < np.inf:
            return np.empty(0, dtype=int), np.empty((0, t.size)), np.empty(0)
        rows = np.flatnonzero(~((sums >= _TINY) & (sums < np.inf)))
        sums[rows] = 1.0
        exps = self.log_rows(rows)
        exps += t
        return rows, exps, logsumexp(exps, axis=1)


class _DistancePlan:
    """The particle side of the distance product, built once per run.

    Within a run the particles, the kernel and the target are fixed, so the
    left block of :func:`squared_distances` is too: the particle rows at
    scale ``-1/(2 h^2)`` and no offset, then the rows the target adds
    (``Target._plan_rows``), all about one centre, the coordinate-wise
    median of the particles (the upper one, for an even count), which a
    minority of remote particles does not move.  :meth:`batch` then pays
    only for the samples' rows, one product and one exp pass.
    """

    __slots__ = ("points", "scale", "centre", "left", "target", "log_peak")

    def __init__(self, points, kernel, target):
        self.points = np.asarray(points, dtype=float)
        self.scale = -0.5 / kernel.bandwidth**2
        # the middle value of each coordinate, a median that np.partition
        # finds without the masked-array module np.median imports
        middle = len(self.points) // 2
        self.centre = centre = np.partition(self.points, middle, axis=0)[middle]
        particles = _left_block(self.points, centre, self.scale, 0.0)
        self.left = np.concatenate((particles, target._plan_rows(centre)))
        self.target = target
        self.log_peak = kernel.log_peak

    def batch(self, weights, samples):
        """The :class:`SampleBatch` of a sample batch ``(M, d)`` under ``weights``."""
        j = len(self.points)
        right = _right_block(samples, self.centre)
        block = self.left @ right.T
        log_p = self.target._log_p(block[j:], samples)
        ratio = np.exp(block[:j], out=block[:j])
        total = weights @ ratio
        shift = np.zeros(total.size)
        if total.min() >= _TINY:
            log_q = np.log(total)
        else:
            cols = np.flatnonzero(~(total >= _TINY))
            keep = weights > 0
            # about these samples' own mean, which may lie far from the particles
            part = squared_distances(self.points, samples[cols], scale=self.scale)
            peak = np.maximum.reduce(part, axis=0, where=keep[:, None], initial=-np.inf)
            peak[~np.isfinite(peak)] = 0.0
            part -= peak
            with np.errstate(over="ignore"):  # a zero-weight row far above the peak reads inf
                np.exp(part, out=part)
            ratio[:, cols] = part
            shift[cols] = peak
            total[cols] = weights[keep] @ part[keep]
            log_q = np.full(total.size, -np.inf)
            np.log(total, out=log_q, where=total > 0)
            log_q += shift
        log_q += self.log_peak
        return SampleBatch(
            ratio, total, shift, log_q, log_p, self.log_peak,
            lambda rows: self.left[rows] @ right.T - shift,
        )


def sample_logs(weights, points, kernel, target, samples):
    """The :class:`SampleBatch` of a sample batch ``(M, d)`` under ``weights``.

    One product of augmented rows (:func:`squared_distances`) gives the
    kernel block and the target's rows: the particle rows at scale ``-1/(2
    h^2)`` and no offset, and the rows the target adds, about the
    coordinate-wise median of the particles, not the mean of the samples.
    A :class:`GaussianMixtureTarget` adds its mean rows and takes ``log p``
    from their block; a plain :class:`Target` adds none and reads its
    ``log_density``, refused unless it holds one finite value per sample.
    The kernel block is exponentiated in place, and ``weights @ E`` gives
    ``log q``, which no zero-weight component enters.  A column whose weighted sum falls below
    the normal float range (a sample far from every weighted particle) is
    recomputed from the locations against the peak of its weighted rows,
    so ``log q`` stays exact.  ``run_descent`` builds the particle side of
    that product once per run and each batch reuses it, so its batches
    equal this function's, bit for bit.  ``log p`` agrees with the target's
    ``log_density``, which centres on the samples, to rounding.

    Callers check their own inputs; only a plain target's ``log p`` is
    checked here.
    """
    return _DistancePlan(points, kernel, target).batch(weights, samples)


@dataclass(frozen=True)
class FiniteSupportProblem:
    """Discrete analogue of the smoothed-mixture fitting problem.

    Used whenever an exact objective or gradient is wanted: all integrals
    reduce to finite sums.  ``kernel_matrix[j, s]`` holds the kernel value of
    component ``j`` at atom ``s``; the atoms carry base weights
    ``nu_weights`` and target values ``p_values``.  Every kernel row must
    integrate to one against the base weights, which is what makes each row a
    probability density on the support.

    Attributes:
        kernel_matrix: strictly positive array ``(J, S)``.
        nu_weights: strictly positive array ``(S,)``.
        p_values: strictly positive array ``(S,)``.
        log_p_values: ``log(p_values)``, computed once at construction.
    """

    kernel_matrix: np.ndarray
    nu_weights: np.ndarray
    p_values: np.ndarray
    log_p_values: np.ndarray = field(init=False, repr=False, compare=False)

    _ROW_TOL = 1e-12

    def __post_init__(self):
        kernel = np.asarray(self.kernel_matrix, dtype=float)
        nu = np.asarray(self.nu_weights, dtype=float)
        p = np.asarray(self.p_values, dtype=float)
        if kernel.ndim != 2 or not len(kernel):
            raise ValueError(
                f"kernel_matrix must hold a row and be 2-d, got shape {kernel.shape}"
            )
        n_comp, n_atoms = kernel.shape
        if nu.shape != (n_atoms,) or p.shape != (n_atoms,):
            raise ValueError(
                f"nu_weights {nu.shape} and p_values {p.shape} must both have "
                f"shape ({n_atoms},)"
            )
        for name, arr in (("kernel_matrix", kernel), ("nu_weights", nu), ("p_values", p)):
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
                raise ValueError(f"{name} must be strictly positive and finite")
        residual = np.abs(kernel @ nu - 1.0)
        worst = int(np.argmax(residual))
        if residual[worst] > self._ROW_TOL:
            raise ValueError(
                f"kernel row {worst} does not integrate to 1 against nu_weights "
                f"(residual {residual[worst]:.3e})"
            )
        object.__setattr__(self, "kernel_matrix", kernel)
        object.__setattr__(self, "nu_weights", nu)
        object.__setattr__(self, "p_values", p)
        object.__setattr__(self, "log_p_values", np.log(p))

    @property
    def num_components(self):
        return self.kernel_matrix.shape[0]

    @property
    def support_size(self):
        return self.kernel_matrix.shape[1]

    def log_mixture(self, weights):
        """Log of the mixture values at every atom, shape ``(S,)``.

        ``weights`` has one finite, nonnegative entry per component, not
        all zero; the weights need not sum to one.
        """
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.num_components,):
            raise ValueError(
                f"mixture weights must have shape ({self.num_components},), "
                f"got {weights.shape}"
            )
        # one test passes valid weights; the conditions are told apart only
        # when it fails (a NaN fails it too)
        if not (
            np.minimum.reduce(weights) >= 0.0
            and 0.0 < np.maximum.reduce(weights) < np.inf
        ):
            if (weights < 0).any() or not np.isfinite(weights).all():
                raise ValueError("mixture weights must be finite and nonnegative")
            raise ValueError("mixture weights are all zero")
        return self._log_mixture(weights)

    def _log_mixture(self, weights):
        """:meth:`log_mixture` of weights already known valid, unchecked."""
        # Entries are O(1) by row normalisation, so the linear sum is safe.
        return np.log(weights @ self.kernel_matrix)

    def sample_batch(self, weights, atoms):
        """The :class:`SampleBatch` of the atoms ``atoms`` (indices) under ``weights``.

        The Monte Carlo estimators then run on the finite support, with the
        atoms drawn from :meth:`atom_probs` in place of samples.  The kernel
        entries are O(1) by row normalisation, so they are the batch's
        kernel block as they stand: no peak density and no shift.
        """
        ratio = self.kernel_matrix[:, atoms]
        log_q = self.log_mixture(weights)[atoms]
        return SampleBatch(
            ratio, np.exp(log_q), np.zeros(ratio.shape[1]), log_q,
            self.log_p_values[atoms], 0.0, lambda rows: np.log(ratio[rows]),
        )

    def atom_probs(self, weights):
        """Sampling probabilities ``nu_s * mix_s`` of the atoms (sum to 1)."""
        probs = self.nu_weights * np.exp(self.log_mixture(weights))
        return probs / probs.sum()

    def with_target(self, p_values):
        """Copy of the problem with a different target vector."""
        return replace(self, p_values=np.asarray(p_values, dtype=float))
