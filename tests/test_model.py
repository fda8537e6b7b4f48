"""Kernel, target and finite-support problem contracts."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import multivariate_normal, norm

from alpha_descent.descent import run_descent
from alpha_descent.divergence import (
    DescentParams,
    divergence_exact,
    renyi_objective_exact,
    vr_bound_exact,
)
from alpha_descent.fixtures import random_problem
from alpha_descent.gradient import MixtureState, sample_mixture
from alpha_descent.model import (
    FiniteSupportProblem,
    GaussianKernel,
    GaussianMixtureTarget,
    Target,
    as_simplex,
    LOG_2PI,
    bandwidth_rule,
    gaussian_kernel_logpdf,
    logsumexp,
    sample_logs,
    squared_distances,
)

# Tolerance of every comparison against the scipy reference forms, set from
# float64 rounding before the numpy forms were written.
PARITY_RTOL = 1e-12

# The fig1 shape: J components, M samples, dimension D.
FIG1_J, FIG1_M, FIG1_D = 100, 2000, 16


def _fig1_batch(rng, dim=FIG1_D, shift=0.0):
    """Points and samples shaped like one step of the figure 1 benchmark."""
    points = math.sqrt(5.0) * rng.standard_normal((FIG1_J, dim)) + shift
    ys = points[rng.integers(FIG1_J, size=FIG1_M)] + rng.standard_normal((FIG1_M, dim))
    return points, ys


def _spread(x, y, centre):
    """``||x_j - c||^2 + ||y_m - c||^2``, the scale that the product's rounding
    takes about the centre ``c`` (``TestSquaredDistances``)."""
    return ((x - centre) ** 2).sum(axis=1)[:, None] + ((y - centre) ** 2).sum(axis=1)


def _both_spreads(x, y, particles):
    """The spread about the coordinate-wise (upper) median of the weighted
    ``particles``, where a batch centres its product, plus that about the samples'
    mean, where the public evaluations centre theirs: at a row scale ``s``, the two
    products agree within PARITY_RTOL times ``|s|`` times this, and a log-sum-exp
    over rows within its worst row."""
    median = np.sort(particles, axis=0)[len(particles) // 2]
    return _spread(x, y, median) + _spread(x, y, y.mean(axis=0))


class TestAsSimplex:
    def test_accepts_valid(self):
        w = as_simplex([0.25, 0.75])
        assert w.dtype == float
        assert np.array_equal(w, [0.25, 0.75])

    def test_accepts_within_tolerance(self):
        as_simplex([0.5, 0.5 + 5e-13])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            as_simplex([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            as_simplex([1.5, -0.5])

    def test_rejects_nan_and_empty(self):
        with pytest.raises(ValueError):
            as_simplex([np.nan, 1.0])
        with pytest.raises(ValueError):
            as_simplex([])

    def test_custom_name_in_message(self):
        with pytest.raises(ValueError, match="lam"):
            as_simplex([2.0], name="lam")

    @pytest.mark.parametrize(
        "weights, match",
        [
            ([np.nan, 1.0], "weights must be finite"),
            ([np.inf, 1.0], "weights must be finite"),
            ([-np.inf, 1.0], "weights must be finite"),
            ([np.inf, -np.inf], "weights must be finite"),
            ([], r"weights must be a nonempty 1-d array, got shape \(0,\)"),
            ([[0.5, 0.5]], r"weights must be a nonempty 1-d array, got shape \(1, 2\)"),
            ([1.5, -0.5], "weights must be nonnegative, got min -0.5"),
            ([0.5, 0.6], r"weights must sum to 1 within 1e-12, got 1\.1"),
            ([2.0, 0.0], r"weights must sum to 1 within 1e-12, got 2\.0"),
        ],
    )
    def test_each_refusal_names_its_condition(self, weights, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                as_simplex(weights)

    def test_custom_name_in_every_message(self):
        for weights in ([np.nan], [], [-1.0, 2.0], [2.0]):
            with pytest.raises(ValueError, match="^lam must"):
                as_simplex(weights, name="lam")

    def test_huge_finite_weights_refused_without_warning(self):
        # their sum overflows; the refusal must still be the ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sum to 1 within 1e-12, got inf"):
                as_simplex([1e308, 1e308])

    def test_accepts_zeros_and_an_entry_just_above_one(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = as_simplex([1.0 + 5e-13, 0.0, -0.0])
        assert np.array_equal(w, [1.0 + 5e-13, 0.0, 0.0])


class TestKernelLogpdf:
    def test_matches_scipy_1d(self):
        got = gaussian_kernel_logpdf([0.3], [1.1], 0.7)
        assert math.isclose(got, norm.logpdf(1.1, loc=0.3, scale=0.7), rel_tol=1e-12)

    def test_matches_scipy_multivariate(self):
        rng = np.random.default_rng(0)
        theta, y = rng.normal(size=(2, 5))
        h = 1.3
        want = multivariate_normal.logpdf(y, mean=theta, cov=h**2 * np.eye(5))
        assert math.isclose(gaussian_kernel_logpdf(theta, y, h), want, rel_tol=1e-12)

    def test_rejects_bad_bandwidth(self):
        for h in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                gaussian_kernel_logpdf([0.0], [0.0], h)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            gaussian_kernel_logpdf([0.0, 0.0], [0.0], 1.0)

    def test_matrix_matches_pointwise(self):
        rng = np.random.default_rng(1)
        kernel = GaussianKernel(bandwidth=0.8, dim=3)
        pts = rng.normal(size=(4, 3))
        ys = rng.normal(size=(6, 3))
        mat = kernel.logpdf_matrix(pts, ys)
        assert mat.shape == (4, 6)
        for j in range(4):
            for m in range(6):
                want = gaussian_kernel_logpdf(pts[j], ys[m], kernel.bandwidth)
                assert math.isclose(mat[j, m], want, rel_tol=1e-12)


class TestBandwidthRule:
    def test_reference_value(self):
        assert math.isclose(bandwidth_rule(100, 16), 100.0 ** (-1 / 20))

    def test_coeff_scales_linearly(self):
        assert math.isclose(bandwidth_rule(7, 3, coeff=2.5), 2.5 * bandwidth_rule(7, 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            bandwidth_rule(0, 2)
        with pytest.raises(ValueError):
            bandwidth_rule(3, 0)
        with pytest.raises(ValueError):
            bandwidth_rule(3, 2, coeff=0.0)


class TestGaussianKernel:
    def test_validates(self):
        with pytest.raises(ValueError):
            GaussianKernel(bandwidth=-1.0, dim=2)
        with pytest.raises(ValueError):
            GaussianKernel(bandwidth=1.0, dim=0)

    @pytest.mark.parametrize("dim", [2.5, True, "3"])
    def test_dim_must_be_an_integer(self, dim):
        # 2.5 and True used to be truncated to 2 and 1
        with pytest.raises(ValueError, match="dim must be an integer"):
            GaussianKernel(1.0, dim)

    def test_logpdf_matrix_refuses_the_wrong_dimension(self):
        kernel = GaussianKernel(1.0, 2)
        with pytest.raises(ValueError, match="dimension 2, got 3 and 2"):
            kernel.logpdf_matrix(np.zeros((4, 3)), np.zeros((5, 2)))
        with pytest.raises(ValueError, match="dimension 2, got 2 and 1"):
            kernel.logpdf_matrix(np.zeros((4, 2)), np.zeros((5, 1)))

    def test_numpy_integer_dim_accepted(self):
        kernel = GaussianKernel(1.0, np.int64(16))
        assert kernel.dim == 16 and type(kernel.dim) is int


class TestMixtureStatePoints:
    def test_wraps_and_exposes_shape(self):
        state = MixtureState(np.full(4, 0.25), np.zeros((4, 3)), GaussianKernel(1.0, 3))
        assert state.num_components == 4
        assert state.points.shape == (4, 3)
        assert state.points.dtype == float

    def test_one_dimensional_input_promoted(self):
        state = MixtureState([1.0], [1.0, 2.0, 3.0], GaussianKernel(1.0, 3))
        assert state.points.shape == (1, 3)

    def test_validation(self):
        kernel = GaussianKernel(1.0, 2)
        with pytest.raises(ValueError, match="finite"):
            MixtureState([1.0], np.array([[np.inf, 0.0]]), kernel)
        with pytest.raises(ValueError, match="particles"):
            MixtureState([1.0], np.zeros((0, 2)), kernel)


class TestTargets:
    def test_target_wraps_callable(self):
        t = Target(lambda y: -float(np.sum(y**2)))
        assert t.log_density([1.0, 1.0]) == -2.0
        assert t.normalisation_hint is None

    def test_target_rejects_bad_hint(self):
        with pytest.raises(ValueError):
            Target(lambda y: 0.0, normalisation_hint=-1.0)

    def test_mixture_target_matches_scipy(self):
        means = np.array([[-2.0, 0.0], [2.0, 0.0]])
        target = GaussianMixtureTarget(means, weights=(0.3, 0.7), scale=2.0)
        y = np.array([0.4, -1.2])
        want = np.log(
            2.0
            * (
                0.3 * multivariate_normal.pdf(y, mean=means[0], cov=np.eye(2))
                + 0.7 * multivariate_normal.pdf(y, mean=means[1], cov=np.eye(2))
            )
        )
        assert math.isclose(target.log_density(y), want, rel_tol=1e-12)
        assert target.normalisation_hint == 2.0

    def test_mixture_target_batched(self):
        target = GaussianMixtureTarget([[0.0], [3.0]])
        ys = np.array([[0.0], [1.0], [2.0]])
        batch = target.log_density(ys)
        assert batch.shape == (3,)
        for row, y in zip(batch, ys):
            assert math.isclose(row, target.log_density(y), rel_tol=1e-12)

    def test_mixture_target_scalar_point(self):
        # a scalar is one point of a 1-dimensional target, as [y] is
        target = GaussianMixtureTarget([[0.0], [3.0]])
        got = target.log_density(0.3)
        assert isinstance(got, float)
        assert got == target.log_density([0.3])
        with pytest.raises(ValueError, match="target is 2-dimensional"):
            GaussianMixtureTarget([[0.0, 0.0]]).log_density(0.3)

    def test_mixture_target_far_tail_no_underflow(self):
        # log densities stay finite far beyond linear-domain range
        target = GaussianMixtureTarget([np.zeros(16)])
        val = target.log_density(40.0 * np.ones(16))
        assert np.isfinite(val) and val < -10000

    def test_mixture_target_validation(self):
        with pytest.raises(ValueError):
            GaussianMixtureTarget([[0.0]], weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            GaussianMixtureTarget([[0.0]], scale=0.0)
        target = GaussianMixtureTarget([[0.0, 0.0]])
        with pytest.raises(ValueError, match="dimension"):
            target.log_density([1.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="means must be finite"):
                GaussianMixtureTarget([[0.0, 0.0], [1.0, bad]])

    @pytest.mark.parametrize(
        "means",
        [np.zeros((0, 2)), [], np.zeros((2, 2, 2)), np.zeros(2)],
        ids=["no-rows", "empty-list", "3-d", "1-d"],
    )
    def test_mixture_target_means_must_be_a_nonempty_matrix(self, means):
        # no rows divided by zero, [] built a 0-dimensional target of log
        # density 0, and a 3-d array failed only at evaluation
        with pytest.raises(ValueError, match=re.escape(
            f"means must be a 2-d array with at least one row and one column, "
            f"got shape {np.shape(means)}"
        )):
            GaussianMixtureTarget(means)


def _log_q(weights, points, kernel, ys):
    """The mixture log density ``log q`` of :func:`sample_logs` at ``ys``."""
    target = GaussianMixtureTarget(np.zeros((1, kernel.dim)))
    return sample_logs(weights, points, kernel, target, np.atleast_2d(ys)).log_q


class TestMixtureLogpdf:
    def test_matches_manual_sum(self):
        kernel = GaussianKernel(bandwidth=1.0, dim=1)
        pts = np.array([[0.0], [2.0]])
        w = np.array([0.25, 0.75])
        y = np.array([1.0])
        log_k = [gaussian_kernel_logpdf(pt, y, kernel.bandwidth) for pt in pts]
        want = np.log(0.25 * np.exp(log_k[0]) + 0.75 * np.exp(log_k[1]))
        assert math.isclose(_log_q(w, pts, kernel, y)[0], want, rel_tol=1e-12)

    def test_zero_weight_component_is_inert(self):
        kernel = GaussianKernel(bandwidth=1.0, dim=1)
        w = np.array([1.0, 0.0])
        near = _log_q(w, [[0.0], [1.0]], kernel, [0.5])
        # Moving the dead component must not change anything, even to where
        # its kernel value would dominate.
        far = _log_q(w, [[0.0], [0.5]], kernel, [0.5])
        assert np.array_equal(near, far)

    def test_batch_shape(self):
        kernel = GaussianKernel(bandwidth=1.0, dim=2)
        target = GaussianMixtureTarget([[0.0, 0.0]])
        batch = sample_logs(
            np.array([0.25, 0.75]), np.zeros((2, 2)), kernel, target, np.zeros((5, 2))
        )
        assert batch.ratio.shape == (2, 5)
        for vector in (batch.total, batch.shift, batch.log_q, batch.log_p):
            assert vector.shape == (5,)


class TestSquaredDistances:
    @pytest.mark.parametrize("dim", [1, 3, 16])
    @pytest.mark.parametrize("shift", [0.0, 1e3])
    def test_matches_cdist_within_the_spread(self, dim, shift):
        # The expansion ||x||^2 + ||y||^2 - 2 x.y rounds relative to the
        # squared spread of the pair about the centre, not to the distance
        # itself; that is the bound the kernel reads, in absolute terms.
        points, ys = _fig1_batch(np.random.default_rng(dim), dim, shift)
        got = squared_distances(points, ys)
        want = cdist(points, ys, "sqeuclidean")
        centre = ys.mean(axis=0)
        spread = ((points - centre) ** 2).sum(axis=1)[:, None] + ((ys - centre) ** 2).sum(
            axis=1
        )
        assert np.all(np.abs(got - want) <= PARITY_RTOL * spread)

    @pytest.mark.parametrize("shift", [0.0, 1e3])
    def test_matches_cdist_entrywise_at_fig1_shape(self, shift):
        points, ys = _fig1_batch(np.random.default_rng(16), FIG1_D, shift)
        got = squared_distances(points, ys)
        assert got.shape == (FIG1_J, FIG1_M)
        np.testing.assert_allclose(
            got, cdist(points, ys, "sqeuclidean"), rtol=PARITY_RTOL, atol=0.0
        )

    def test_scale_and_offset(self):
        points, ys = _fig1_batch(np.random.default_rng(17))
        got = squared_distances(points, ys, scale=-0.7, offset=3.0)
        want = -0.7 * cdist(points, ys, "sqeuclidean") + 3.0
        np.testing.assert_allclose(got, want, rtol=PARITY_RTOL, atol=0.0)

    def test_scale_and_offset_per_row(self):
        # rows of two kinds in one product give what each kind gives alone
        points, ys = _fig1_batch(np.random.default_rng(19))
        scale = np.where(np.arange(FIG1_J) < 60, -0.7, -0.5)
        offset = np.where(np.arange(FIG1_J) < 60, 0.0, 3.0)
        got = squared_distances(points, ys, scale, offset)
        for rows, s, o in ((slice(None, 60), -0.7, 0.0), (slice(60, None), -0.5, 3.0)):
            np.testing.assert_allclose(
                got[rows], squared_distances(points[rows], ys, scale=s, offset=o),
                rtol=PARITY_RTOL, atol=0.0,
            )

    @pytest.mark.parametrize("shift", [0.0, 1e3])
    def test_kernel_matrix_matches_cdist_form(self, shift):
        points, ys = _fig1_batch(np.random.default_rng(18), FIG1_D, shift)
        kernel = GaussianKernel(bandwidth_rule(FIG1_J, FIG1_D), FIG1_D)
        h = kernel.bandwidth
        want = -cdist(points, ys, "sqeuclidean") / (2.0 * h**2) - 0.5 * FIG1_D * (
            LOG_2PI + 2.0 * np.log(h)
        )
        np.testing.assert_allclose(
            kernel.logpdf_matrix(points, ys), want, rtol=PARITY_RTOL, atol=0.0
        )

    def test_target_matches_cdist_form(self):
        rng = np.random.default_rng(19)
        means = np.stack([-2.0 * np.ones(FIG1_D), 2.0 * np.ones(FIG1_D), 7.0 * np.ones(FIG1_D)])
        weights = np.array([0.25, 0.75, 0.0])
        target = GaussianMixtureTarget(means, weights=weights, scale=2.0)
        ys = 3.0 * rng.standard_normal((FIG1_M, FIG1_D))
        comp = -0.5 * cdist(ys, means[:2], "sqeuclidean") - 0.5 * FIG1_D * LOG_2PI
        want = scipy_logsumexp(comp + np.log(weights[:2]), axis=1) + np.log(2.0)
        np.testing.assert_allclose(target.log_density(ys), want, rtol=PARITY_RTOL, atol=0.0)


class TestLogsumexp:
    @pytest.mark.parametrize("shape", [(7,), (3, 40000), (100, 2000), (2000, 2)])
    @pytest.mark.parametrize("axis", [0, -1])
    def test_matches_scipy(self, shape, axis):
        rng = np.random.default_rng(sum(shape))
        a = 30.0 * rng.standard_normal(shape)
        want = scipy_logsumexp(a, axis=axis)
        np.testing.assert_allclose(logsumexp(a, axis=axis), want, rtol=PARITY_RTOL, atol=0.0)

    @pytest.mark.parametrize("shape", [(7,), (100, 2000), (3, 40000)])
    def test_weighted_matches_scipy(self, shape):
        rng = np.random.default_rng(sum(shape) + 1)
        a = 30.0 * rng.standard_normal(shape)
        b = rng.dirichlet(np.ones(shape[0]))
        b[::3] = 0.0
        keep = b > 0
        want = scipy_logsumexp(a[keep], axis=0, b=b[keep].reshape((-1,) + (1,) * (a.ndim - 1)))
        np.testing.assert_allclose(logsumexp(a, axis=0, b=b), want, rtol=PARITY_RTOL, atol=0.0)

    @pytest.mark.parametrize("axis", [0, 1, 2, -1])
    def test_three_dimensional_matches_scipy(self, axis):
        rng = np.random.default_rng(40 + axis)
        a = 30.0 * rng.standard_normal((4, 5, 6))
        want = scipy_logsumexp(a, axis=axis)
        np.testing.assert_allclose(logsumexp(a, axis=axis), want, rtol=PARITY_RTOL, atol=0.0)
        b = rng.dirichlet(np.ones(a.shape[axis]))
        b[::2] = 0.0
        shape = [1, 1, 1]
        shape[axis] = b.size
        want = scipy_logsumexp(a, axis=axis, b=b.reshape(shape))
        np.testing.assert_allclose(logsumexp(a, axis=axis, b=b), want, rtol=PARITY_RTOL, atol=0.0)

    @pytest.mark.parametrize("shape, axis", [((7,), 1), ((7,), -2), ((3, 4), 2), ((3, 4), -3)])
    def test_out_of_range_axis_raises(self, shape, axis):
        with pytest.raises(np.exceptions.AxisError):
            logsumexp(np.zeros(shape), axis=axis)

    def test_scalar_for_a_vector(self):
        got = logsumexp(np.log([1.0, 2.0, 5.0]))
        assert np.ndim(got) == 0
        assert math.isclose(got, math.log(8.0), rel_tol=PARITY_RTOL)

    def test_log_mixture_matches_scipy_at_fig1_shape(self):
        rng = np.random.default_rng(20)
        points, ys = _fig1_batch(rng)
        kernel = GaussianKernel(bandwidth_rule(FIG1_J, FIG1_D), FIG1_D)
        log_k = kernel.logpdf_matrix(points, ys)
        w = rng.dirichlet(np.ones(FIG1_J))
        w[:10] = 0.0
        w /= w.sum()
        active = w > 0
        want = scipy_logsumexp(log_k[active] + np.log(w[active])[:, None], axis=0)
        np.testing.assert_allclose(
            logsumexp(log_k, axis=0, b=w), want, rtol=PARITY_RTOL, atol=0.0
        )

    def test_zero_weight_row_far_above_the_rest(self):
        # A dead row 800 nats above every weighted one: dropping it before
        # the peak keeps 0 * exp(800) out of the matrix-vector product.
        rng = np.random.default_rng(21)
        log_k = rng.normal(size=(4, 50))
        log_k[2] = log_k.max() + 800.0
        w = np.array([0.2, 0.3, 0.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logsumexp(log_k, axis=0, b=w)
        keep = w > 0
        want = scipy_logsumexp(log_k[keep] + np.log(w[keep])[:, None], axis=0)
        np.testing.assert_allclose(got, want, rtol=PARITY_RTOL, atol=0.0)

    def test_all_minus_inf_slices_without_warning(self):
        a = np.array([[0.0, -np.inf, 1.0], [-np.inf, -np.inf, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = logsumexp(a, axis=1)
            cols = logsumexp(a, axis=0)
            weighted = logsumexp(a, axis=0, b=[0.5, 0.5])
        assert rows[0] == scipy_logsumexp(a[0])
        assert rows[1] == scipy_logsumexp(a[1])
        assert cols[1] == -np.inf and np.isfinite(cols[[0, 2]]).all()
        assert weighted[1] == -np.inf
        assert logsumexp(np.full(5, -np.inf)) == -np.inf

    @pytest.mark.parametrize(
        "a, axis, b, shape",
        [
            (np.zeros(3), -1, np.zeros(3), ()),
            (np.zeros((3, 4)), 0, np.zeros(3), (4,)),
            (np.zeros(0), -1, None, ()),
            (np.zeros((2, 0)), 1, None, (2,)),
        ],
    )
    def test_empty_sum_is_minus_inf(self, a, axis, b, shape):
        # nothing to sum: every entry's weight is zero, or the axis is empty
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logsumexp(a, axis=axis, b=b)
        assert np.shape(got) == shape
        assert (np.asarray(got) == -np.inf).all()

    @pytest.mark.parametrize("b", [[np.nan, 1.0], [-1.0, 1.0]])
    def test_nan_or_negative_weight_refused(self, b):
        with pytest.raises(ValueError, match="nonnegative and not NaN"):
            logsumexp(np.zeros(2), b=np.array(b))

    @pytest.mark.parametrize("b", [[1.0, 1.0, 1.0], [0.0, 1.0, 0.0], [1.0], [[1.0, 1.0]]])
    def test_weights_of_another_length_refused(self, b):
        # longer, with zeros the zero-weight drop would index by, shorter, 2-d
        with pytest.raises(ValueError, match=r"b of shape \(.*\) for an axis of length 2"):
            logsumexp(np.zeros((2, 4)), axis=0, b=np.array(b))


def _frozen_logsumexp(a, axis=-1, b=None, block=16384):
    """The blocked log-sum-exp as it stood before its single-block path.

    Kept verbatim so that the production helper is held to its bits."""
    a = np.moveaxis(np.asarray(a, dtype=float), axis, 0)
    b = np.ones(a.shape[0]) if b is None else np.asarray(b, dtype=float)
    keep = b > 0
    if not keep.all():
        a, b = a[keep], b[keep]
    rest = a.shape[1:]
    a = a.reshape(b.size, -1)
    peak = a.max(axis=0)
    peak[~np.isfinite(peak)] = 0.0
    total = np.empty_like(peak)
    width = max(1, block // b.size)
    part_buf = np.empty((b.size, min(width, peak.size)))
    for lo in range(0, peak.size, width):
        hi = min(lo + width, peak.size)
        part = part_buf[:, : hi - lo]
        np.subtract(a[:, lo:hi], peak[lo:hi], out=part)
        np.exp(part, out=part)
        np.matmul(b, part, out=total[lo:hi])
    with np.errstate(divide="ignore"):
        out = np.log(total, out=total)
    out += peak
    return out.reshape(rest)[()]


class TestLogsumexpBits:
    """The helper gives the frozen form's bits on every path it takes."""

    @staticmethod
    def _same(a, **kw):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logsumexp(a, **kw)
        want = _frozen_logsumexp(a, **kw)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want, equal_nan=True)
        return got

    # 20x100 is one block either way; 20x1000 is one block down axis 0
    # and several along axis 1; 100x2000 is several blocks down axis 0
    @pytest.mark.parametrize("shape", [(20, 100), (20, 1000), (100, 2000)])
    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_two_dimensional(self, shape, axis):
        rng = np.random.default_rng(shape[1] + axis)
        self._same(30.0 * rng.standard_normal(shape), axis=axis)

    @pytest.mark.parametrize("shape", [(20, 100), (20, 1000), (100, 2000)])
    def test_weights_with_zero_entries(self, shape):
        rng = np.random.default_rng(shape[1])
        a = 30.0 * rng.standard_normal(shape)
        w = rng.dirichlet(np.ones(shape[0]))
        w[::4] = 0.0
        self._same(a, axis=0, b=w / w.sum())
        self._same(a, axis=1, b=rng.dirichlet(np.ones(shape[1])))

    def test_one_dimensional(self):
        rng = np.random.default_rng(30)
        v = 30.0 * rng.standard_normal(20)
        assert np.ndim(self._same(v)) == 0
        self._same(v, axis=0)
        self._same(v, b=rng.dirichlet(np.ones(20)))

    @pytest.mark.parametrize("axis", [0, 1, 2, -1])
    def test_three_dimensional(self, axis):
        rng = np.random.default_rng(31 + axis)
        self._same(rng.standard_normal((4, 5, 6)), axis=axis)

    def test_all_minus_inf_slices(self):
        a = np.random.default_rng(32).standard_normal((20, 100))
        a[:, 7] = -np.inf
        a[3] = -np.inf
        for axis in (0, 1):
            self._same(a, axis=axis)
        got = self._same(a, axis=0, b=np.full(20, 0.05))
        assert got[7] == -np.inf and np.isfinite(np.delete(got, 7)).all()
        assert self._same(np.full(5, -np.inf)) == -np.inf

    def test_nan_and_plus_inf(self):
        a = np.random.default_rng(33).standard_normal((20, 100))
        a[2, 10] = np.nan
        a[5, 20] = np.inf
        got = self._same(a, axis=0)
        assert np.isnan(got[10]) and got[20] == np.inf
        assert np.isfinite(np.delete(got, [10, 20])).all()
        assert np.isnan(self._same(np.array([0.0, np.nan])))
        assert self._same(np.array([0.0, np.inf])) == np.inf


class TestSampleLogs:
    def test_parts_match_the_public_evaluations(self):
        rng = np.random.default_rng(22)
        kernel = GaussianKernel(0.8, 3)
        points = rng.normal(size=(6, 3))
        w = np.array([0.1, 0.2, 0.0, 0.3, 0.15, 0.25])
        target = GaussianMixtureTarget([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        ys = rng.normal(size=(40, 3))
        batch = sample_logs(w, points, kernel, target, ys)
        # one product: the kernel block, taken against the kernel's peak
        # density, and the target block
        assert (batch.shift == 0.0).all() and (batch.ratio <= 1.0).all()
        np.testing.assert_allclose(
            np.log(batch.ratio) + batch.log_peak, kernel.logpdf_matrix(points, ys),
            rtol=PARITY_RTOL, atol=0.0,
        )
        spread = _both_spreads(target.means, ys, points[w > 0])
        bound = PARITY_RTOL * 0.5 * spread.max(axis=0)
        assert np.all(np.abs(batch.log_p - target.log_density(ys)) <= bound)
        assert batch.log_peak == kernel.log_peak
        # pointwise reference over the weighted components only
        keep = w > 0
        want = [
            scipy_logsumexp(
                [gaussian_kernel_logpdf(p, y, kernel.bandwidth) for p in points[keep]],
                b=w[keep],
            )
            for y in ys
        ]
        np.testing.assert_allclose(batch.log_q, want, rtol=PARITY_RTOL, atol=0.0)

    @pytest.mark.parametrize("num_means", [1, 2, 5])
    @pytest.mark.parametrize("size", [1, 2, 100])
    def test_mixture_log_p_is_its_log_density(self, num_means, size):
        # the batch centres its product on the particles, log_density on
        # the samples, so they agree within the spread about both centres,
        # at any number of mean rows and samples
        rng = np.random.default_rng(24)
        kernel = GaussianKernel(0.5, 16)
        target = GaussianMixtureTarget(2.0 * rng.normal(size=(num_means, 16)), scale=2.0)
        ys = 3.0 * rng.normal(size=(size, 16))
        points = rng.normal(size=(20, 16))
        batch = sample_logs(np.full(20, 0.05), points, kernel, target, ys)
        bound = PARITY_RTOL * 0.5 * _both_spreads(target.means, ys, points).max(axis=0)
        assert np.all(np.abs(batch.log_p - target.log_density(ys)) <= bound)

    @pytest.mark.parametrize(
        "log_density, algorithm, alpha, match",
        [
            (lambda ys: np.full(len(ys), np.nan), "power", 0.5, "returned nan at sample 0"),
            (lambda ys: np.full(len(ys), np.inf), "power", 0.5, "returned inf at sample 0"),
            (lambda ys: np.full(len(ys), -np.inf), "emd", 0.5, "returned -inf at sample 0"),
            (lambda ys: 0.0, "kl", 1.0, r"returned shape \(\) for 4 samples"),
            (lambda ys: np.zeros((len(ys), 1)), "emd", 0.5, r"returned shape \(4, 1\) for 4"),
        ],
        ids=["nan", "plus-inf", "minus-inf-everywhere", "scalar", "column"],
    )
    def test_plain_target_density_refused_where_it_enters(
        self, log_density, algorithm, alpha, match
    ):
        # NaN and +inf were blamed on the gradient, a scalar raised an
        # AttributeError, a column a batch-shape error, and -inf everywhere
        # ran to the end with a bound of -inf at every record
        kernel = GaussianKernel(1.0, 2)
        points = np.array([[1.0, 0.0], [-1.0, 0.0]])
        target = Target(log_density)
        ys = np.random.default_rng(25).normal(size=(4, 2))
        with pytest.raises(ValueError, match="target log_density " + match):
            sample_logs(np.full(2, 0.5), points, kernel, target, ys)
        with pytest.raises(ValueError, match="target log_density " + match):
            run_descent(
                MixtureState(np.full(2, 0.5), points, kernel), DescentParams(alpha, 0.5),
                algorithm, 3, target=target, sample_count=4, rng=np.random.default_rng(0),
            )

    def test_plain_target_is_read_through_its_log_density(self):
        rng = np.random.default_rng(23)
        kernel = GaussianKernel(0.8, 3)
        points = rng.normal(size=(4, 3))
        ys = rng.normal(size=(10, 3))
        target = Target(lambda y: -0.5 * np.sum(y * y, axis=-1))
        batch = sample_logs(np.full(4, 0.25), points, kernel, target, ys)
        assert np.array_equal(batch.log_p, target.log_density(ys))


class TestDistancePlan:
    """The batch's product about the weighted particles' median, against the public
    evaluations about the samples' mean, at the figure 1 shape."""

    def _batch(self, case, rng):
        kernel = GaussianKernel(bandwidth_rule(FIG1_J, FIG1_D), FIG1_D)
        cov_scale = 50.0 if case == "init_cov_scale=50" else 5.0
        points = math.sqrt(cov_scale) * rng.standard_normal((FIG1_J, FIG1_D))
        weights = np.full(FIG1_J, 1.0 / FIG1_J)
        if case == "far zero weight":
            points[7] += 60.0
            weights[7] = 0.0
            weights /= weights.sum()
        offset = 2.0 * np.ones(FIG1_D)
        target = GaussianMixtureTarget([-offset, offset], scale=2.0)
        ys = sample_mixture(weights, points, kernel, FIG1_M, rng)
        return weights, points, kernel, target, ys

    @pytest.mark.parametrize("case", ["fig1", "init_cov_scale=50", "far zero weight"])
    def test_block_and_log_p_match_the_public_evaluations(self, case):
        weights, points, kernel, target, ys = self._batch(case, np.random.default_rng(27))
        batch = sample_logs(weights, points, kernel, target, ys)
        assert (batch.shift == 0.0).all()
        # the kernel block in the log domain, as the batch's rows give it
        log_e = batch.log_rows(np.arange(FIG1_J))
        np.testing.assert_allclose(batch.ratio, np.exp(log_e), rtol=PARITY_RTOL, atol=0.0)
        gap = np.abs(log_e + batch.log_peak - kernel.logpdf_matrix(points, ys))
        scale = 0.5 / kernel.bandwidth**2
        held = points[weights > 0]
        assert np.all(gap <= PARITY_RTOL * scale * _both_spreads(points, ys, held))
        gap = np.abs(batch.log_p - target.log_density(ys))
        bound = PARITY_RTOL * 0.5 * _both_spreads(target.means, ys, held).max(axis=0)
        assert np.all(gap <= bound)

    def test_a_remote_zero_weight_particle_moves_no_other_row(self):
        # the centre is the weighted particles' median, which a remote
        # zero-weight particle does not enter, so every other row and log q
        # keep their bits
        weights, points, kernel, target, ys = self._batch(
            "far zero weight", np.random.default_rng(28)
        )
        near = sample_logs(weights, points, kernel, target, ys)
        points[7] += 1e3
        far = sample_logs(weights, points, kernel, target, ys)
        rest = np.arange(FIG1_J) != 7
        assert np.array_equal(near.ratio[rest], far.ratio[rest])
        assert np.array_equal(near.log_q, far.log_q)
        assert np.array_equal(near.log_p, far.log_p)
        assert (far.ratio[7] == 0.0).all()

    def test_a_remote_zero_weight_particle_does_not_move_the_centre(self):
        # the centre is the median of the weighted particles: a zero-weight
        # one at [1e200, 0] overflowed the product when it was centred on
        # all of them, in a batch and in a run
        kernel = GaussianKernel(1.0, 2)
        target = GaussianMixtureTarget([[0.0, 0.0]])
        points, weights = np.array([[0.0, 0.0], [1e200, 0.0]]), np.array([1.0, 0.0])
        ys = sample_mixture(weights, points, kernel, 50, np.random.default_rng(29))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = sample_logs(weights, points, kernel, target, ys)
            trace = run_descent(
                MixtureState(weights, points, kernel), DescentParams(0.5, 0.3), "power",
                3, target=target, sample_count=50, rng=np.random.default_rng(30),
            )
        want = kernel.logpdf_matrix(points[:1], ys)[0]
        np.testing.assert_allclose(batch.log_q, want, rtol=PARITY_RTOL, atol=0.0)
        assert (batch.ratio[1] == 0.0).all()
        assert trace.status == "completed" and len(trace.records) == 4
        assert all(np.array_equal(r.weights, weights) for r in trace.records)
        assert all(np.isfinite(r.vr_bound) for r in trace.records)


class TestFiniteSupportProblem:
    def _valid(self):
        # rows integrate to 1 against nu = (1, 2)
        kernel = np.array([[0.5, 0.25], [0.2, 0.4]])
        nu = np.array([1.0, 2.0])
        p = np.array([0.4, 0.3])
        return kernel, nu, p

    def test_accepts_normalised_rows(self):
        kernel, nu, p = self._valid()
        problem = FiniteSupportProblem(kernel, nu, p)
        assert problem.num_components == 2
        assert problem.support_size == 2

    def test_rejects_unnormalised_row_naming_worst(self):
        kernel, nu, p = self._valid()
        kernel = kernel.copy()
        kernel[1, 0] = 0.3
        with pytest.raises(ValueError, match="row 1"):
            FiniteSupportProblem(kernel, nu, p)

    def test_rejects_nonpositive_entries(self):
        kernel, nu, p = self._valid()
        with pytest.raises(ValueError, match="p_values"):
            FiniteSupportProblem(kernel, nu, np.array([0.4, 0.0]))
        with pytest.raises(ValueError, match="nu_weights"):
            FiniteSupportProblem(kernel, np.array([-1.0, 2.0]), p)

    def test_rejects_a_kernel_matrix_with_no_rows(self):
        # numpy's "argmax of an empty sequence" once surfaced here
        _, nu, p = self._valid()
        with pytest.raises(ValueError, match=r"kernel_matrix must hold a row .*\(0, 2\)"):
            FiniteSupportProblem(np.zeros((0, 2)), nu, p)

    def test_rejects_a_kernel_vector(self):
        kernel, nu, p = self._valid()
        with pytest.raises(ValueError, match=r"2-d, got shape \(2,\)"):
            FiniteSupportProblem(kernel[0], nu, p)

    def test_rejects_shape_mismatch(self):
        kernel, nu, p = self._valid()
        with pytest.raises(ValueError):
            FiniteSupportProblem(kernel, nu[:1], p)

    def test_log_mixture_matches_direct(self):
        kernel, nu, p = self._valid()
        problem = FiniteSupportProblem(kernel, nu, p)
        w = np.array([0.3, 0.7])
        assert np.allclose(problem.log_mixture(w), np.log(w @ kernel), rtol=1e-15)

    @pytest.mark.parametrize(
        "weights, match",
        [
            ([0.5, -0.1, 0.6], "finite and nonnegative"),
            ([0.5, np.nan, 0.5], "finite and nonnegative"),
            ([0.5, np.inf, 0.5], "finite and nonnegative"),
            ([0.0, 0.0, 0.0], "all zero"),
            ([[1.0, 0.0, 0.0]], r"shape \(3,\), got \(1, 3\)"),
            ([0.25, 0.25, 0.25, 0.25], r"shape \(3,\), got \(4,\)"),
            (1.0, r"shape \(3,\), got \(\)"),
        ],
    )
    def test_log_mixture_refusals(self, weights, match):
        problem = random_problem(np.random.default_rng(6), num_components=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                problem.log_mixture(weights)

    def test_wrong_weight_shape_refused_by_every_entry(self):
        # a (1, J) row once broadcast to a (1, S) log-mixture, which the
        # objectives summed; a vector of J+1 entries died inside matmul
        problem = random_problem(np.random.default_rng(0))
        j = problem.num_components
        row = np.full((1, j), 1.0 / j)
        longer = np.full(j + 1, 1.0 / (j + 1))
        entries = (
            lambda w: divergence_exact(problem, w, 0.5),
            lambda w: vr_bound_exact(problem, w, 0.5),
            lambda w: renyi_objective_exact(problem, w, DescentParams(0.5, 0.1)),
            problem.atom_probs,
        )
        for entry in entries:
            for w in (row, longer):
                with pytest.raises(ValueError, match=re.escape(f"({j},), got {w.shape}")):
                    entry(w)

    def test_atom_probs_form_distribution(self):
        rng = np.random.default_rng(5)
        problem = random_problem(rng)
        w = np.full(problem.num_components, 1.0 / problem.num_components)
        probs = problem.atom_probs(w)
        assert probs.shape == (problem.support_size,)
        assert np.all(probs > 0)
        assert math.isclose(probs.sum(), 1.0, rel_tol=1e-12)
        # nu_s * mix_s before renormalisation already sums to one: the
        # kernel rows are densities against nu.
        raw = problem.nu_weights * np.exp(problem.log_mixture(w))
        assert math.isclose(raw.sum(), 1.0, rel_tol=1e-12)

    def test_with_target_replaces_only_p(self):
        kernel, nu, p = self._valid()
        problem = FiniteSupportProblem(kernel, nu, p)
        other = problem.with_target([0.1, 0.2])
        assert np.array_equal(other.p_values, [0.1, 0.2])
        assert np.array_equal(other.kernel_matrix, problem.kernel_matrix)
        with pytest.raises(ValueError):
            problem.with_target([0.1, -0.2])

    def test_log_p_values_follow_the_target(self):
        kernel, nu, p = self._valid()
        problem = FiniteSupportProblem(kernel, nu, p)
        assert np.array_equal(problem.log_p_values, np.log(p))
        assert np.array_equal(problem.nu_p_values, nu * p)
        other = problem.with_target(2 * p)
        assert np.array_equal(other.log_p_values, np.log(2 * p))
        assert np.array_equal(other.nu_p_values, nu * (2 * p))
        with pytest.raises(TypeError):
            FiniteSupportProblem(kernel, nu, p, np.log(p))
        # both derived fields stay out of repr and ==: a copy that shares
        # the three inputs compares equal, though its derived arrays are new
        assert "log_p_values" not in repr(problem)
        assert "nu_p_values" not in repr(problem)
        copy = replace(problem)
        assert copy.nu_p_values is not problem.nu_p_values
        assert copy == problem


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_random_problem_rows_are_densities(seed):
    problem = random_problem(np.random.default_rng(seed))
    residual = problem.kernel_matrix @ problem.nu_weights - 1.0
    assert np.max(np.abs(residual)) < 1e-12
