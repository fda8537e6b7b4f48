"""Targets, Gaussian smoothing kernels and finite-support test problems.

All density evaluations live in the log domain.  At dimension 16 a Gaussian
kernel value at a typical inter-particle distance underflows float64 in the
linear domain, so values only leave log space inside a log-sum-exp or when
they are provably O(1).

One path turns a sample batch into ``(log k, log q, log p)``:
:meth:`GaussianKernel.logpdf_matrix` for the kernel matrix (squared
distances through one matrix product, :func:`squared_distances`),
:func:`logsumexp` with the mixture weights for ``log q``, and the target's
``log_density``; :func:`sample_logs` returns the three together.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "LOG_2PI",
    "FiniteSupportProblem",
    "GaussianKernel",
    "GaussianMixtureTarget",
    "Target",
    "as_simplex",
    "bandwidth_rule",
    "gaussian_kernel_logpdf",
    "logsumexp",
    "sample_logs",
    "squared_distances",
]

LOG_2PI = float(np.log(2.0 * np.pi))


def as_simplex(weights, *, tol=1e-12, name="weights"):
    """Validate and return ``weights`` as a float array on the simplex.

    Entries must be finite and nonnegative and sum to one within ``tol``.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d array, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError(f"{name} must be finite")
    if (w < 0).any():
        raise ValueError(f"{name} must be nonnegative, got min {w.min()}")
    total = float(w.sum())
    if abs(total - 1.0) > tol:
        raise ValueError(f"{name} must sum to 1 within {tol}, got {total!r}")
    return w


# Entries per block of the log-sum-exp: 128 KiB of float64, small enough to
# stay in cache between the passes and to come from the heap, not from a
# fresh mapping.
_LSE_BLOCK = 16384


def logsumexp(a, axis=-1, b=None):
    """``log sum_i b_i exp(a_i)`` along ``axis``, with the maximum subtracted.

    ``b`` is an optional nonnegative weight per entry along ``axis``
    (default all ones).  Its zero entries are dropped before the peak is
    taken, so an entry far above every weighted one neither sets the peak
    nor turns into ``0 * inf``.  The sum is a matrix-vector product with
    ``b`` over a C-ordered copy of ``a - peak``; above ``_LSE_BLOCK``
    entries it is taken block by block, so no temporary of the size of
    ``a`` is made.  A slice whose entries are all ``-inf`` gives ``-inf``.
    """
    a = np.asarray(a, dtype=float)
    if axis != 0:
        # swapaxes is moveaxis for ndim <= 2, at a fraction of the call cost
        a = a.swapaxes(axis, 0) if a.ndim <= 2 else np.moveaxis(a, axis, 0)
    if b is None:
        b = np.ones(a.shape[0])
    else:
        b = np.asarray(b, dtype=float)
        keep = b > 0
        if not keep.all():
            a, b = a[keep], b[keep]
    rest = a.shape[1:]
    a = a.reshape(b.size, -1)
    peak = a.max(axis=0)
    peak[~np.isfinite(peak)] = 0.0
    width = max(1, _LSE_BLOCK // b.size)
    if peak.size <= width:
        # a fresh C-ordered array: the order of a view's difference would
        # change the summation order of the product
        part = np.subtract(a, peak, out=np.empty(a.shape))
        total = b @ np.exp(part, out=part)
    else:
        total = np.empty_like(peak)
        block = np.empty((b.size, width))
        for lo in range(0, peak.size, width):
            hi = min(lo + width, peak.size)
            part = block[:, : hi - lo]
            np.subtract(a[:, lo:hi], peak[lo:hi], out=part)
            np.exp(part, out=part)
            np.matmul(b, part, out=total[lo:hi])
    out = np.empty_like(total)
    out.fill(-np.inf)
    np.log(total, out=out, where=total != 0)
    out += peak
    return out.reshape(rest)[()]


def squared_distances(x, y, scale=1.0, offset=0.0):
    """``scale * ||x_i - y_m||^2 + offset`` for the rows of two 2-d arrays.

    Returns shape ``(len(x), len(y))``.  Both sets are first shifted by the
    mean of ``y``, so that rounding scales with the spread of the points
    rather than with their distance from the origin; the centre comes from
    ``y`` alone, so one row of ``x`` never moves the values of another.  The
    expansion ``||x||^2 + ||y||^2 - 2 x.y`` is then a single matrix product
    of the augmented rows ``[-2 scale x_i, scale ||x_i||^2 + offset, scale]``
    and ``[y_m, 1, ||y_m||^2]``, which also applies ``scale`` and
    ``offset``.  Its rounding error is relative to
    ``||x_i - c||^2 + ||y_m - c||^2``, not to the distance itself.
    """
    centre = np.add.reduce(y, axis=0)
    centre /= len(y)
    d = x.shape[1]
    left = np.empty((x.shape[0], d + 2))
    right = np.empty((y.shape[0], d + 2))
    np.subtract(x, centre, out=left[:, :d])
    np.subtract(y, centre, out=right[:, :d])
    left[:, d] = scale * np.einsum("ij,ij->i", left[:, :d], left[:, :d]) + offset
    left[:, d + 1] = scale
    left[:, :d] *= -2.0 * scale
    right[:, d] = 1.0
    right[:, d + 1] = np.einsum("ij,ij->i", right[:, :d], right[:, :d])
    return left @ right.T


def gaussian_kernel_logpdf(theta, y, bandwidth):
    """Log density at ``y`` of an isotropic Gaussian with mean ``theta``.

    Args:
        theta: location, shape ``(d,)``.
        y: evaluation point, shape ``(d,)``.
        bandwidth: positive standard deviation shared by all coordinates.

    Returns:
        float, ``-||y - theta||^2 / (2 h^2) - (d/2) log(2 pi h^2)``.
    """
    if bandwidth <= 0 or not np.isfinite(bandwidth):
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if theta.shape != y.shape:
        raise ValueError(f"dimension mismatch: theta {theta.shape} vs y {y.shape}")
    d = theta.shape[-1]
    sq = float(np.sum((y - theta) ** 2))
    return -sq / (2.0 * bandwidth**2) - 0.5 * d * (LOG_2PI + 2.0 * np.log(bandwidth))


def bandwidth_rule(num_components, dim, coeff=1.0):
    """Bandwidth ``coeff * J^(-1/(4+d))`` for ``J`` particles in dimension ``d``."""
    if num_components < 1:
        raise ValueError(f"num_components must be >= 1, got {num_components}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if coeff <= 0:
        raise ValueError(f"coeff must be positive, got {coeff}")
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
        if self.bandwidth <= 0 or not np.isfinite(self.bandwidth):
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth}")
        if int(self.dim) < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))

    def logpdf_matrix(self, points, ys):
        """Matrix of ``log k(points[j], ys[m])`` with shape ``(J, M)``."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        if points.shape[1] != self.dim or ys.shape[1] != self.dim:
            raise ValueError(
                f"expected points of dimension {self.dim}, "
                f"got {points.shape[1]} and {ys.shape[1]}"
            )
        h = self.bandwidth
        return squared_distances(
            points,
            ys,
            scale=-0.5 / h**2,
            offset=-0.5 * self.dim * (LOG_2PI + 2.0 * np.log(h)),
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
            if not np.isfinite(normalisation_hint) or normalisation_hint <= 0:
                raise ValueError(
                    f"normalisation_hint must be positive, got {normalisation_hint}"
                )
        self._log_density = log_density
        self.normalisation_hint = normalisation_hint

    def log_density(self, y):
        out = self._log_density(np.asarray(y, dtype=float))
        return np.asarray(out, dtype=float) if np.ndim(out) else float(out)


class GaussianMixtureTarget(Target):
    """Target ``scale * sum_i weights_i N(y; means_i, I_d)``.

    The component covariance is the identity.  ``scale`` deliberately leaves
    the target unnormalised so that invariance of the optimisers under
    rescaling can be exercised; the true normaliser is then ``scale`` itself.
    """

    def __init__(self, means, weights=None, scale=1.0):
        means = np.atleast_2d(np.asarray(means, dtype=float))
        if not np.all(np.isfinite(means)):
            raise ValueError("means must be finite")
        n = means.shape[0]
        if weights is None:
            weights = np.full(n, 1.0 / n)
        weights = as_simplex(weights, name="mixture weights")
        if weights.size != n:
            raise ValueError(f"{n} means but {weights.size} weights")
        if scale <= 0 or not np.isfinite(scale):
            raise ValueError(f"scale must be positive, got {scale}")
        self.means = means
        self.weights = weights
        self.scale = float(scale)
        self._log_scale = np.log(self.scale)
        super().__init__(self._eval, normalisation_hint=float(scale))

    def _eval(self, y):
        ys = np.atleast_2d(y)
        if ys.shape[1] != self.means.shape[1]:
            raise ValueError(
                f"dimension mismatch: target is {self.means.shape[1]}-dimensional, "
                f"got points of dimension {ys.shape[1]}"
            )
        d = self.means.shape[1]
        comp = squared_distances(self.means, ys, scale=-0.5, offset=-0.5 * d * LOG_2PI)
        out = logsumexp(comp, axis=0, b=self.weights)
        out += self._log_scale
        return out[0] if np.ndim(y) == 1 else out


def sample_logs(weights, points, kernel, target, samples):
    """``(log k, log q, log p)`` of a sample batch ``(M, d)``.

    ``log k`` is the ``(J, M)`` kernel matrix of every component, zero
    weights included; ``log q`` the mixture under ``weights``, which no
    zero-weight component enters, and ``log p`` the target, both ``(M,)``.  No validation: callers check their inputs.
    """
    log_k = kernel.logpdf_matrix(points, samples)
    log_q = logsumexp(log_k, axis=0, b=weights)
    log_p = target.log_density(samples)
    return log_k, log_q, log_p


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
        if kernel.ndim != 2:
            raise ValueError(f"kernel_matrix must be 2-d, got shape {kernel.shape}")
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
        """Log of the mixture values at every atom, shape ``(S,)``."""
        weights = np.asarray(weights, dtype=float)
        if (weights < 0).any() or not np.isfinite(weights).all():
            raise ValueError("mixture weights must be finite and nonnegative")
        if not (weights > 0).any():
            raise ValueError("mixture weights are all zero")
        # Entries are O(1) by row normalisation, so the linear sum is safe.
        return np.log(weights @ self.kernel_matrix)

    def atom_probs(self, weights):
        """Sampling probabilities ``nu_s * mix_s`` of the atoms (sum to 1)."""
        probs = self.nu_weights * np.exp(self.log_mixture(weights))
        return probs / probs.sum()

    def with_target(self, p_values):
        """Copy of the problem with a different target vector."""
        return replace(self, p_values=np.asarray(p_values, dtype=float))
