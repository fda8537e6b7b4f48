"""Gradient containers, exact sums and the Monte Carlo estimator."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

from alpha_descent.divergence import (
    amari_alpha_deriv,
    amari_alpha_deriv_log,
    divergence_exact,
)
from alpha_descent.fixtures import random_problem, random_weights
from alpha_descent.gradient import (
    MixtureGradient,
    MixtureState,
    gradient_exact,
    gradient_monte_carlo_from_logs,
    sample_mixture,
)
from alpha_descent.model import (
    GaussianKernel,
    GaussianMixtureTarget,
    Target,
    bandwidth_rule,
    sample_logs,
)

# Tolerance of the comparisons against the scipy-based reference formulas,
# set from float64 rounding before the matrix-vector forms were written.
PARITY_RTOL = 1e-12


def _reference_from_logs(log_kernel, log_target, weights, alpha):
    """The literal values, ``log A_j`` and ``log q`` by the scipy-era formulas:
    ``(exp(log k - log q) * f'(u)).mean(axis=1)`` and an in-place row
    log-mean-exp."""
    active = weights > 0
    log_mix = logsumexp(log_kernel[active] + np.log(weights[active])[:, None], axis=0)
    deriv = amari_alpha_deriv_log(log_mix - log_target, alpha)
    values = (np.exp(log_kernel - log_mix) * deriv).mean(axis=1)
    terms = log_kernel + ((alpha - 2.0) * log_mix - (alpha - 1.0) * log_target)
    peak = terms.max(axis=1)
    terms -= peak[:, None]
    np.exp(terms, out=terms)
    log_a = peak + np.log(terms.mean(axis=1))
    return values, log_a, log_mix


def _gaussian_batch(rng, num_components, dim, count, *, weights=None, target=None):
    """A batch at random particles, with the log evaluations it replaces:
    ``(batch, log k, log p, weights)``."""
    kernel = GaussianKernel(0.8, dim)
    points = rng.normal(size=(num_components, dim))
    w = random_weights(rng, num_components) if weights is None else np.asarray(weights)
    if target is None:
        target = GaussianMixtureTarget(rng.normal(size=(2, dim)))
    samples = rng.normal(size=(count, dim))
    batch = sample_logs(w, points, kernel, target, samples)
    return batch, kernel.logpdf_matrix(points, samples), target.log_density(samples), w


def _fig1_batch(rng):
    """One batch of the figure 1 shape and the log evaluations it replaces."""
    J, M, d = 100, 2000, 16
    kernel = GaussianKernel(bandwidth_rule(J, d), d)
    points = math.sqrt(5.0) * rng.standard_normal((J, d))
    w = rng.dirichlet(np.ones(J))
    samples = sample_mixture(w, points, kernel, M, rng)
    target = GaussianMixtureTarget([-2.0 * np.ones(d), 2.0 * np.ones(d)], scale=2.0)
    batch = sample_logs(w, points, kernel, target, samples)
    return batch, kernel.logpdf_matrix(points, samples), target.log_density(samples), w


def _far_batch(move):
    """A batch at J=20, M=300, d=16 after ``move(points, samples)``, and the
    log evaluations it replaces, under warnings as errors."""
    j, m, d = 20, 300, 16
    rng = np.random.default_rng(62)
    kernel = GaussianKernel(bandwidth_rule(j, d), d)
    points = math.sqrt(5.0) * rng.standard_normal((j, d))
    w = random_weights(rng, j)
    samples = sample_mixture(w, points, kernel, m, rng)
    move(points, samples)
    target = GaussianMixtureTarget([-2.0 * np.ones(d), 2.0 * np.ones(d)], scale=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = sample_logs(w, points, kernel, target, samples)
    return batch, kernel.logpdf_matrix(points, samples), target.log_density(samples), w


class TestContainers:
    def test_state_wraps_bare_points(self):
        state = MixtureState([0.5, 0.5], np.zeros((2, 3)), GaussianKernel(1.0, 3))
        assert state.points.shape == (2, 3)
        assert state.num_components == 2

    def test_state_validation(self):
        kernel = GaussianKernel(1.0, 3)
        with pytest.raises(ValueError):
            MixtureState([0.5, 0.6], np.zeros((2, 3)), kernel)
        with pytest.raises(ValueError, match="particles"):
            MixtureState([0.5, 0.5], np.zeros((3, 3)), kernel)
        with pytest.raises(ValueError, match="dimension"):
            MixtureState([0.5, 0.5], np.zeros((2, 2)), kernel)

    def test_gradient_validation(self):
        MixtureGradient([1.0, 2.0], 0.5)
        with pytest.raises(ValueError):
            MixtureGradient(np.zeros((2, 2)), 0.5)
        with pytest.raises(ValueError):
            MixtureGradient([], 0.5)

    def test_gradient_carries_exactly_one_array(self):
        based = MixtureGradient(None, 0.5, log_base=[0.0, -1.0])
        assert based.values is None and based.log_base.dtype == float
        assert MixtureGradient([1.0, 2.0], 0.5).log_base is None
        for values, log_base in (([1.0, 2.0], [0.0, -1.0]), (None, None)):
            with pytest.raises(ValueError, match="exactly one of values and log_base"):
                MixtureGradient(values, 0.5, log_base=log_base)
        with pytest.raises(ValueError, match="log_base must be a nonempty vector"):
            MixtureGradient(None, 0.5, log_base=[])


class TestExactGradient:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(31)
        problem = random_problem(rng, num_components=4, support_size=7)
        w = random_weights(rng, 4)
        mix = w @ problem.kernel_matrix
        for alpha in (-0.5, 0.0, 0.5, 1.0, 2.0):
            grad = gradient_exact(problem, w, alpha)
            assert grad.alpha == alpha
            for j in range(4):
                want = sum(
                    problem.kernel_matrix[j, s]
                    * problem.nu_weights[s]
                    * amari_alpha_deriv(mix[s] / problem.p_values[s], alpha)
                    for s in range(7)
                )
                assert math.isclose(grad.values[j], want, rel_tol=1e-11, abs_tol=1e-13)

    def test_is_derivative_of_exact_objective(self):
        rng = np.random.default_rng(32)
        problem = random_problem(rng, num_components=3)
        w = random_weights(rng, 3, floor=0.1)
        eps = 1e-6
        for alpha in (-0.5, 0.0, 0.5, 1.0, 2.0):
            grad = gradient_exact(problem, w, alpha).values
            for j in range(3):
                bump = np.zeros(3)
                bump[j] = eps
                fd = (
                    divergence_exact(problem, w + bump, alpha)
                    - divergence_exact(problem, w - bump, alpha)
                ) / (2 * eps)
                assert math.isclose(grad[j], fd, rel_tol=1e-5, abs_tol=1e-7)

    def test_log_mixture_keyword_is_bit_identical(self):
        # the descent loop hands over its own iterate's log-mixture
        rng = np.random.default_rng(35)
        for _ in range(10):
            problem = random_problem(rng)
            w = random_weights(rng, problem.num_components)
            log_mix = problem._log_mixture(w)
            for alpha in (-0.5, 0.0, 0.5, 1.0, 2.0):
                want = gradient_exact(problem, w, alpha).values
                got = gradient_exact(problem, w, alpha, _log_mix=log_mix).values
                assert np.array_equal(got, want)

    def test_zero_weight_components_still_scored(self):
        # a dead component needs a gradient value so an update can revive
        # its bookkeeping consistently
        rng = np.random.default_rng(33)
        problem = random_problem(rng, num_components=3)
        w = np.array([0.6, 0.4, 0.0])
        grad = gradient_exact(problem, w, 0.5)
        assert np.all(np.isfinite(grad.values))

    def test_affine_invariant_is_positive(self):
        # (alpha - 1) b_j + 1 = sum_s nu K u^(alpha-1) > 0; the power update
        # with no shift leans on this
        rng = np.random.default_rng(34)
        for _ in range(25):
            problem = random_problem(rng)
            w = random_weights(rng, problem.num_components)
            for alpha in (-0.5, 0.0, 0.5, 2.0):
                base = (alpha - 1.0) * gradient_exact(problem, w, alpha).values + 1.0
                mix = w @ problem.kernel_matrix
                want = problem.kernel_matrix @ (
                    problem.nu_weights * (mix / problem.p_values) ** (alpha - 1.0)
                )
                assert np.all(base > 0)
                assert np.allclose(base, want, rtol=1e-10)


class TestSampler:
    def _mixture(self, weights=(0.2, 0.8)):
        points = np.array([[-5.0, 0.0], [5.0, 0.0]])
        return np.asarray(weights), points, GaussianKernel(0.5, 2)

    def test_shape_and_determinism(self):
        mixture = self._mixture()
        a = sample_mixture(*mixture, 64, np.random.default_rng(41))
        b = sample_mixture(*mixture, 64, np.random.default_rng(41))
        assert a.shape == (64, 2)
        assert np.array_equal(a, b)

    def test_component_frequencies(self):
        draws = sample_mixture(*self._mixture(), 40000, np.random.default_rng(42))
        # wells at +-5 are 10 bandwidths apart: sign of x picks the component
        frac_right = float(np.mean(draws[:, 0] > 0))
        assert abs(frac_right - 0.8) < 0.01

    def test_zero_weight_component_never_drawn(self):
        mixture = self._mixture(weights=(0.0, 1.0))
        draws = sample_mixture(*mixture, 5000, np.random.default_rng(43))
        assert np.all(draws[:, 0] > 0)

    def test_draws_are_centres_plus_scaled_normals(self):
        # the stream is one component draw, then one standard normal block
        weights, points, kernel = self._mixture()
        draws = sample_mixture(weights, points, kernel, 64, np.random.default_rng(45))
        rng = np.random.default_rng(45)
        idx = rng.choice(2, size=64, p=weights)
        z = rng.standard_normal((64, 2))
        assert np.array_equal(draws, points[idx] + 0.5 * z)

    @pytest.mark.parametrize("seed", range(20))
    def test_stream_is_that_of_choice(self, seed):
        # the same indices as rng.choice with the normalised weights, and
        # the generator left where choice leaves it
        rng = np.random.default_rng(seed)
        j, d = 20, 3
        w = rng.dirichlet(np.ones(j))
        w[rng.permutation(j)[: seed % 5]] = 0.0
        points = 10.0 * np.arange(j)[:, None] * np.ones(d)
        state = MixtureState(w / w.sum(), points, GaussianKernel(0.5, d))
        mine = np.random.default_rng([seed, 1])
        draws = sample_mixture(state.weights, state.points, state.kernel, 100, mine)
        theirs = np.random.default_rng([seed, 1])
        idx = theirs.choice(j, 100, p=state.weights / state.weights.sum())
        z = theirs.standard_normal((100, d))
        # the points are 10 apart and the normals are shared
        np.testing.assert_array_equal(np.rint((draws - 0.5 * z)[:, 0] / 10.0), idx)
        assert np.array_equal(draws, points[idx] + 0.5 * z)
        assert mine.random() == theirs.random()

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            sample_mixture(*self._mixture(), 0, np.random.default_rng(44))


class TestMonteCarloGradient:
    def test_shape_checks(self):
        batch, _, _, _ = _gaussian_batch(np.random.default_rng(50), 2, 2, 4)
        for field in ("log_q", "log_p"):
            short = replace(batch, **{field: getattr(batch, field)[:-1]})
            with pytest.raises(ValueError, match="one value per sample"):
                gradient_monte_carlo_from_logs(short, 0.5)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0, 2.0])
    def test_matches_reference_formula_at_fig1_shape(self, alpha):
        batch, log_kernel, log_target, w = _fig1_batch(np.random.default_rng(60))
        want_values, want_log_a, _ = _reference_from_logs(log_kernel, log_target, w, alpha)
        grad = gradient_monte_carlo_from_logs(batch, alpha)
        np.testing.assert_allclose(grad.values, want_values, rtol=PARITY_RTOL, atol=0.0)
        if alpha != 1.0:
            based = gradient_monte_carlo_from_logs(batch, alpha, log_base=True)
            # equal logs to 1e-12 are equal A_j to 1e-12 relative
            assert np.all(np.abs(based.log_base - want_log_a) <= PARITY_RTOL)

    def test_dead_component_far_above_the_mixture(self):
        # A zero-weight component at the samples and the weighted ones 60
        # units away: its log kernel sits over 1000 nats above every
        # weighted row, and every column falls below the normal range.  Its
        # own value is inf, formed with no floating-point warning, but it
        # must neither reach log q nor the values of the weighted
        # components, and its log A_j stays finite.
        rng = np.random.default_rng(61)
        kernel = GaussianKernel(1.0, 2)
        points = rng.normal(size=(4, 2))
        points[1] = [60.0, 0.0]
        samples = points[1] + rng.normal(size=(64, 2))
        target = GaussianMixtureTarget([[0.0, 0.0]])
        w = np.array([0.3, 0.0, 0.3, 0.4])
        live = w > 0
        log_kernel = kernel.logpdf_matrix(points, samples)
        want_values, want_log_a, want_log_q = _reference_from_logs(
            log_kernel[live], target.log_density(samples), w[live], 0.5
        )
        batch = sample_logs(w, points, kernel, target, samples)
        grad = gradient_monte_carlo_from_logs(batch, 0.5)
        based = gradient_monte_carlo_from_logs(batch, 0.5, log_base=True)
        assert (batch.shift < -1000.0).all()
        np.testing.assert_allclose(batch.log_q, want_log_q, rtol=PARITY_RTOL, atol=0.0)
        np.testing.assert_allclose(
            grad.values[live], want_values, rtol=PARITY_RTOL, atol=0.0
        )
        assert not np.isfinite(grad.values[1])
        np.testing.assert_allclose(
            based.log_base[live], want_log_a, rtol=PARITY_RTOL, atol=0.0
        )
        assert np.isfinite(based.log_base).all()

    def test_weighted_mean_collapses_to_derivative_mean(self):
        # sum_j lambda_j b_j == mean_m f'(u_m) exactly: the kernel ratios
        # average out under the sampling weights
        rng = np.random.default_rng(51)
        for _ in range(10):
            batch, log_kernel, log_target, w = _gaussian_batch(rng, 5, 2, 64)
            for alpha in (-0.5, 0.0, 0.5, 1.0, 2.0):
                grad = gradient_monte_carlo_from_logs(batch, alpha)
                log_mix = logsumexp(log_kernel + np.log(w)[:, None], axis=0)
                want = float(
                    np.mean(amari_alpha_deriv(np.exp(log_mix - log_target), alpha))
                )
                assert math.isclose(float(w @ grad.values), want, rel_tol=1e-11, abs_tol=1e-12)

    def test_matches_linear_domain_formula(self):
        batch, log_kernel, log_target, w = _gaussian_batch(
            np.random.default_rng(52), 3, 2, 16
        )
        alpha = 0.5
        grad = gradient_monte_carlo_from_logs(batch, alpha)
        kernel_vals = np.exp(log_kernel)
        mix = w @ kernel_vals
        u = mix / np.exp(log_target)
        want = (kernel_vals / mix * amari_alpha_deriv(u, alpha)).mean(axis=1)
        assert np.allclose(grad.values, want, rtol=1e-12)

    def test_zero_weight_excluded_from_mixture_but_scored(self):
        rng = np.random.default_rng(53)
        kernel = GaussianKernel(0.8, 2)
        points = rng.normal(size=(3, 2))
        target = GaussianMixtureTarget([[0.5, 0.0]])
        samples = rng.normal(size=(8, 2))
        w = np.array([0.5, 0.5, 0.0])
        grad = gradient_monte_carlo_from_logs(
            sample_logs(w, points, kernel, target, samples), 0.5
        )
        # mixture ignores the dead row entirely
        reduced = gradient_monte_carlo_from_logs(
            sample_logs(w[:2], points[:2], kernel, target, samples), 0.5
        )
        assert np.allclose(grad.values[:2], reduced.values, rtol=1e-14)
        assert np.isfinite(grad.values[2])

    def test_survives_far_from_target_regime(self):
        # mixture sits about e^400 above the target at every sample: ratios
        # must not overflow into nan
        far = Target(lambda ys: np.full(len(ys), -403.0))
        kernel = GaussianKernel(1.0, 2)
        batch = sample_logs(
            np.array([0.5, 0.5]), np.zeros((2, 2)), kernel, far,
            np.random.default_rng(59).normal(size=(4, 2)),
        )
        grad = gradient_monte_carlo_from_logs(batch, 0.5)
        assert np.all(np.isfinite(grad.values))
        assert np.allclose(grad.values, 2.0, rtol=1e-12)  # f' saturates at 1/(1-alpha)

    def test_composed_form_matches_from_logs(self):
        # the batch's one product and exp pass give the gradient of the
        # separate log evaluations
        rng = np.random.default_rng(54)
        kernel = GaussianKernel(0.7, 2)
        points = rng.normal(size=(4, 2))
        w = random_weights(rng, 4)
        target = GaussianMixtureTarget([[0.5, -0.5]])
        samples = sample_mixture(w, points, kernel, 32, rng)
        grad = gradient_monte_carlo_from_logs(
            sample_logs(w, points, kernel, target, samples), 0.5
        )
        want, _, _ = _reference_from_logs(
            kernel.logpdf_matrix(points, samples), target.log_density(samples), w, 0.5
        )
        np.testing.assert_allclose(grad.values, want, rtol=PARITY_RTOL, atol=0.0)

    def test_exp_kernel_pair_matches_log_kernel(self):
        # the batch's exponentiated block and its column shift are log k,
        # in normal columns and in columns that fell below the normal range
        def far(points, samples):
            samples[:5, 0] = points[:, 0].max() + 60.0

        batch, log_kernel, _, w = _far_batch(far)
        assert (batch.shift[:5] < -1000.0).all() and (batch.shift[5:] == 0.0).all()
        np.testing.assert_allclose(
            np.log(batch.ratio) + batch.shift + batch.log_peak, log_kernel,
            rtol=PARITY_RTOL, atol=0.0,
        )
        np.testing.assert_allclose(batch.total, w @ batch.ratio, rtol=PARITY_RTOL, atol=0.0)
        assert (batch.ratio[:, 5:] <= 1.0).all()

    def test_exp_kernel_pair_refusals(self):
        # the gradient refuses a batch whose vectors and block disagree
        rng = np.random.default_rng(55)
        batch, _, _, _ = _gaussian_batch(rng, 4, 2, 32)
        with pytest.raises(ValueError, match="one value per sample"):
            gradient_monte_carlo_from_logs(replace(batch, ratio=batch.ratio[:, :-1]), 0.5)

    def test_column_fallback_matches_the_log_domain(self):
        # five samples 60 units from every particle: their weighted column
        # sums underflow, and are recomputed against their weighted peak
        def far(points, samples):
            samples[:5, 0] = points[:, 0].max() + 60.0 + np.arange(5)

        batch, log_kernel, log_target, w = _far_batch(far)
        assert (batch.shift[:5] < -1000.0).all()
        for alpha in (0.5, 2.0):
            _, want_log_a, want_log_q = _reference_from_logs(
                log_kernel, log_target, w, alpha
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                grad = gradient_monte_carlo_from_logs(batch, alpha, log_base=True)
            np.testing.assert_allclose(batch.log_q, want_log_q, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(grad.log_base, want_log_a, rtol=1e-12, atol=0.0)

    def test_row_fallback_matches_the_log_domain(self):
        # one weighted particle 60 units from every sample: its row of
        # E @ exp(c - S) underflows, and is summed in the log domain
        def far(points, samples):
            points[3, 0] = samples[:, 0].max() + 60.0

        batch, log_kernel, log_target, w = _far_batch(far)
        assert w[3] > 0 and (batch.shift == 0.0).all()
        for alpha in (0.5, 2.0):
            _, want_log_a, want_log_q = _reference_from_logs(
                log_kernel, log_target, w, alpha
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                grad = gradient_monte_carlo_from_logs(batch, alpha, log_base=True)
            assert want_log_a[3] < -1000.0
            np.testing.assert_allclose(batch.log_q, want_log_q, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(grad.log_base, want_log_a, rtol=1e-12, atol=0.0)

    def test_unbiased_against_exact_on_atoms(self):
        # draw support atoms with the mixture's own probabilities and the
        # estimator's mean must be the exact finite-support gradient
        rng = np.random.default_rng(55)
        problem = random_problem(rng, num_components=3, support_size=5)
        w = random_weights(rng, 3)
        alpha = 0.5
        exact = gradient_exact(problem, w, alpha).values
        probs = problem.atom_probs(w)
        batches, M = 400, 256
        estimates = np.empty((batches, 3))
        for b in range(batches):
            idx = rng.choice(problem.support_size, size=M, p=probs)
            grad = gradient_monte_carlo_from_logs(problem.sample_batch(w, idx), alpha)
            estimates[b] = grad.values
        se = estimates.std(axis=0, ddof=1) / math.sqrt(batches)
        assert np.all(np.abs(estimates.mean(axis=0) - exact) < 4.0 * se + 1e-12)

    def test_log_base_unbiased_against_exact_base_on_atoms(self):
        # A_j, the positive estimate of the power base (alpha-1) b_j + 1,
        # must average to the exact base K @ (nu * u^(alpha-1)) on atoms
        # drawn with the mixture's own probabilities
        rng = np.random.default_rng(56)
        batches, M = 200, 1000
        for alpha in (0.5, 2.0):
            problem = random_problem(rng, num_components=4, support_size=10)
            w = random_weights(rng, 4)
            mix = w @ problem.kernel_matrix
            exact = problem.kernel_matrix @ (
                problem.nu_weights * (mix / problem.p_values) ** (alpha - 1.0)
            )
            assert np.allclose(
                exact,
                (alpha - 1.0) * gradient_exact(problem, w, alpha).values + 1.0,
                rtol=1e-10,
            )
            probs = problem.atom_probs(w)
            estimates = np.empty((batches, 4))
            for b in range(batches):
                idx = rng.choice(problem.support_size, size=M, p=probs)
                grad = gradient_monte_carlo_from_logs(
                    problem.sample_batch(w, idx), alpha, log_base=True
                )
                estimates[b] = np.exp(grad.log_base)
            se = estimates.std(axis=0, ddof=1) / math.sqrt(batches)
            assert np.all(np.abs(estimates.mean(axis=0) - exact) < 4.0 * se + 1e-12)

    def test_log_base_matches_linear_domain_formula(self):
        batch, log_kernel, log_target, w = _gaussian_batch(
            np.random.default_rng(57), 3, 2, 16
        )
        for alpha in (-0.5, 0.0, 0.5, 2.0):
            grad = gradient_monte_carlo_from_logs(batch, alpha, log_base=True)
            kernel_vals = np.exp(log_kernel)
            mix = w @ kernel_vals
            u = mix / np.exp(log_target)
            want = (kernel_vals / mix * u ** (alpha - 1.0)).mean(axis=1)
            assert np.allclose(np.exp(grad.log_base), want, rtol=1e-12)
            # the base is read in the log domain; no values are derived from it
            assert grad.values is None

    def test_log_base_stays_positive_where_literal_base_does_not(self):
        # the mixture sits about e^200 above the target at every sample, so
        # A_j is about e^-100 and the literal base A_j + 1 - c_j is set by
        # the count noise 1 - c_j, negative for some component
        below = Target(lambda ys: np.full(len(ys), -200.0))
        batch, _, _, _ = _gaussian_batch(
            np.random.default_rng(58), 4, 2, 32, weights=np.full(4, 0.25), target=below
        )
        literal = gradient_monte_carlo_from_logs(batch, 0.5)
        positive = gradient_monte_carlo_from_logs(batch, 0.5, log_base=True)
        assert np.any(-0.5 * literal.values + 1.0 <= 0)
        assert np.all(np.isfinite(positive.log_base))
        assert np.all(positive.log_base < -90.0)

    def test_log_base_needs_alpha_other_than_one(self):
        batch, _, _, _ = _gaussian_batch(np.random.default_rng(59), 2, 2, 4)
        with pytest.raises(ValueError, match="alpha=1"):
            gradient_monte_carlo_from_logs(batch, 1.0, log_base=True)
        with pytest.raises(ValueError, match="alpha=1"):
            MixtureGradient(None, 1.0, log_base=[0.0])
