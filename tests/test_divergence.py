"""Generator family, exact objectives and variational bounds."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from alpha_descent.descent import renyi_step, run_descent
from alpha_descent.divergence import (
    DescentParams,
    amari_alpha,
    amari_alpha_deriv,
    amari_alpha_deriv_log,
    divergence_exact,
    renyi_objective_exact,
    vr_bound_exact,
    vr_bound_from_logs,
)
from alpha_descent.fixtures import perfect_fit_problem, random_problem, random_weights
from alpha_descent.gradient import gradient_exact, sample_mixture
from alpha_descent.model import (
    FiniteSupportProblem,
    GaussianKernel,
    GaussianMixtureTarget,
    sample_logs,
)

ALPHAS = [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0]


def _linear_generator(u, alpha):
    """``f_alpha`` in its closed linear form, with the two limit forms."""
    if alpha == 0.0:
        return u - 1.0 - np.log(u)
    if alpha == 1.0:
        return 1.0 - u + u * np.log(u)
    return (u**alpha - 1.0 - alpha * (u - 1.0)) / (alpha * (alpha - 1.0))


def _linear_generator_deriv(u, alpha):
    """``f_alpha'`` in its closed linear form, with the two limit forms."""
    if alpha == 0.0:
        return 1.0 - 1.0 / u
    if alpha == 1.0:
        return np.log(u)
    return (u ** (alpha - 1.0) - 1.0) / (alpha - 1.0)


class TestGenerator:
    def test_hand_values(self):
        assert math.isclose(amari_alpha(2.0, 0.0), 1.0 - math.log(2.0))
        assert math.isclose(amari_alpha(2.0, 1.0), 2.0 * math.log(2.0) - 1.0)
        assert math.isclose(amari_alpha(2.0, 2.0), 0.5)
        # f_{1/2}(4) = (2 - 1 - 0.5 * 3) / (0.5 * -0.5) = 2
        assert math.isclose(amari_alpha(4.0, 0.5), 2.0)

    def test_zero_at_one(self):
        for alpha in ALPHAS:
            assert amari_alpha(1.0, alpha) == 0.0
            assert amari_alpha_deriv(1.0, alpha) == 0.0

    def test_vectorised(self):
        u = np.array([0.5, 1.0, 2.0])
        out = amari_alpha(u, 0.5)
        assert out.shape == (3,)
        for k, uk in enumerate(u):
            assert math.isclose(out[k], amari_alpha(float(uk), 0.5), abs_tol=1e-15)

    def test_continuity_at_branch_points(self):
        # the closed-form branch must meet the limit branches
        for u in (0.3, 0.9, 1.7, 5.0):
            assert math.isclose(amari_alpha(u, 1e-7), amari_alpha(u, 0.0), abs_tol=1e-5)
            assert math.isclose(amari_alpha(u, 1.0 - 1e-7), amari_alpha(u, 1.0), abs_tol=1e-5)
            assert math.isclose(amari_alpha(u, 1.0 + 1e-7), amari_alpha(u, 1.0), abs_tol=1e-5)

    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.sampled_from(ALPHAS),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_and_convex_sense(self, u, alpha):
        assert amari_alpha(u, alpha) >= 0.0
        # derivative has the sign of (u - 1): f is decreasing left of 1
        if u > 1.0:
            assert amari_alpha_deriv(u, alpha) > 0.0
        elif u < 1.0:
            assert amari_alpha_deriv(u, alpha) < 0.0

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            amari_alpha(0.0, 0.5)
        with pytest.raises(ValueError):
            amari_alpha_deriv(-1.0, 2.0)

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    @pytest.mark.parametrize("fn", [amari_alpha, amari_alpha_deriv])
    def test_refuses_each_bad_argument(self, fn, bad, as_array):
        u = np.array([0.5, bad, 2.0]) if as_array else bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="strictly positive and finite"):
                fn(u, 0.5)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_matches_linear_closed_forms(self, alpha):
        # both are computed on log u; an even count keeps the grid off u = 1,
        # where the linear forms cancel
        u = np.geomspace(1e-3, 1e3, 60)
        np.testing.assert_allclose(
            amari_alpha(u, alpha), _linear_generator(u, alpha), rtol=1e-12, atol=0.0
        )
        np.testing.assert_allclose(
            amari_alpha_deriv(u, alpha), _linear_generator_deriv(u, alpha), rtol=1e-12, atol=0.0
        )

    @pytest.mark.parametrize("fn", [amari_alpha, amari_alpha_deriv])
    def test_empty_argument_gives_empty(self, fn):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fn(np.array([]), 0.5)
        assert isinstance(out, np.ndarray) and out.shape == (0,)


class TestDerivative:
    def test_hand_values(self):
        assert math.isclose(amari_alpha_deriv(2.0, 0.0), 0.5)
        assert math.isclose(amari_alpha_deriv(2.0, 1.0), math.log(2.0))
        assert math.isclose(amari_alpha_deriv(2.0, 2.0), 1.0)
        assert math.isclose(amari_alpha_deriv(4.0, 0.5), (0.5 - 1.0) / (-0.5))

    def test_finite_difference(self):
        eps = 1e-6
        for alpha in ALPHAS:
            for u in (0.4, 1.3, 3.7):
                fd = (amari_alpha(u + eps, alpha) - amari_alpha(u - eps, alpha)) / (2 * eps)
                assert math.isclose(amari_alpha_deriv(u, alpha), fd, rel_tol=1e-6, abs_tol=1e-6)

    def test_log_form_agrees(self):
        for alpha in ALPHAS:
            for u in (1e-8, 0.3, 1.0, 2.5, 1e8):
                got = amari_alpha_deriv_log(math.log(u), alpha)
                assert math.isclose(got, amari_alpha_deriv(u, alpha), rel_tol=1e-10, abs_tol=1e-12)

    def test_log_form_survives_extreme_ratios(self):
        # log u = 800 overflows exp(); the alpha < 1 branch must still finish
        assert math.isclose(amari_alpha_deriv_log(800.0, 0.5), 2.0, rel_tol=1e-12)
        # alpha = 0 saturates at 1 from below
        assert math.isclose(amari_alpha_deriv_log(800.0, 0.0), 1.0)
        assert np.isfinite(amari_alpha_deriv_log(800.0, 1.0))


def _power_accepts(params):
    """Whether ``run_descent`` takes ``params`` for the power update."""
    problem = random_problem(np.random.default_rng(0), num_components=2)
    try:
        run_descent(np.full(2, 0.5), params, "power", 0, problem=problem)
    except ValueError:
        return False
    return True


class TestDescentParams:
    def test_power_validity_table(self):
        assert _power_accepts(DescentParams(0.5, 0.5))
        assert _power_accepts(DescentParams(0.5, 0.5, shift=-1.0))
        assert _power_accepts(DescentParams(2.0, 1.0, shift=1.0))
        assert not _power_accepts(DescentParams(1.0, 0.5))
        assert not _power_accepts(DescentParams(0.5, 0.5, shift=1.0))  # wrong sign side
        assert not _power_accepts(DescentParams(0.5, 1.5))  # step too large

    def test_renyi_validity_needs_strict_shift(self):
        assert DescentParams(0.5, 0.5, shift=-1.0).renyi_valid
        assert DescentParams(2.0, 0.5, shift=0.5).renyi_valid
        assert not DescentParams(0.5, 0.5).renyi_valid  # shift = 0
        assert not DescentParams(1.0, 0.5, shift=-1.0).renyi_valid

    def test_field_validation(self):
        with pytest.raises(ValueError):
            DescentParams(np.nan, 0.5)
        with pytest.raises(ValueError):
            DescentParams(0.5, 0.0)
        with pytest.raises(ValueError):
            DescentParams(0.5, 0.5, shift=np.inf)

    @pytest.mark.parametrize(
        "args, field",
        [
            ((True, 0.1), "alpha"),
            (("0.5", 0.1), "alpha"),
            ((np.nan, 0.1), "alpha"),
            ((0.5, None), "step_size"),
            ((0.5, False), "step_size"),
            ((0.5, 0.1, "0"), "shift"),
            ((0.5, 0.1, -np.inf), "shift"),
        ],
    )
    def test_bool_and_non_numbers_refused(self, args, field):
        with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
            DescentParams(*args)

    def test_integers_and_numpy_floats_accepted(self):
        params = DescentParams(2, np.float64(0.5), np.int64(1))
        assert _power_accepts(params)


class TestExactDivergence:
    def test_perfect_fit_is_zero(self):
        rng = np.random.default_rng(11)
        w = random_weights(rng, 4)
        problem = perfect_fit_problem(rng, w)
        for alpha in ALPHAS:
            assert abs(divergence_exact(problem, w, alpha)) < 1e-12

    def test_nonnegative_when_target_normalised(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            problem = random_problem(rng)
            # rescale p into a probability against nu
            mass = float(problem.p_values @ problem.nu_weights)
            problem = problem.with_target(problem.p_values / mass)
            w = random_weights(rng, problem.num_components)
            for alpha in (-0.5, 0.0, 0.5, 1.0, 2.0):
                assert divergence_exact(problem, w, alpha) > -1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(13)
        problem = random_problem(rng, num_components=3, support_size=5)
        w = random_weights(rng, 3)
        mix = w @ problem.kernel_matrix
        for alpha in ALPHAS:
            want = sum(
                problem.nu_weights[s]
                * problem.p_values[s]
                * _linear_generator(mix[s] / problem.p_values[s], alpha)
                for s in range(5)
            )
            got = divergence_exact(problem, w, alpha)
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-14)


    def test_log_mixture_keyword_is_bit_identical(self):
        # the descent loop hands over its own iterate's log u = log mix - log p
        rng = np.random.default_rng(15)
        for _ in range(10):
            problem = random_problem(rng)
            w = random_weights(rng, problem.num_components)
            log_u = problem._log_mixture(w) - problem.log_p_values
            for alpha in ALPHAS:
                want = divergence_exact(problem, w, alpha)
                got = divergence_exact(problem, w, alpha, _log_u=log_u)
                assert repr(got) == repr(want)

    def test_ratio_that_underflows_to_zero_scores(self):
        # exp(-800) is 0.0, yet the generator reads log u and scores the
        # ratio by the u -> 0 limit forms below; only alpha = -1, whose
        # u^alpha = e^800 leaves the float range, is refused.  Nothing warns.
        # log u comes through the descent loop's private hand-off
        rng = np.random.default_rng(17)
        problem = random_problem(rng)
        w = random_weights(rng, problem.num_components)
        low = problem._log_mixture(w) - 800.0
        log_u = low - problem.log_p_values
        mass = problem.nu_weights * problem.p_values
        refused = []
        for alpha in ALPHAS:
            if alpha == 0.0:
                want = float(mass @ (-1.0 - log_u))
            elif alpha == 1.0:
                want = float(mass.sum())
            else:
                with np.errstate(over="ignore"):  # e^800 reads inf: a refusal
                    limit = (np.exp(alpha * log_u) - 1.0 + alpha) / (alpha * (alpha - 1.0))
                want = float(mass @ limit)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if math.isfinite(want):
                    got = divergence_exact(problem, w, alpha, _log_u=log_u)
                    assert math.isclose(got, want, rel_tol=1e-12)
                else:
                    refused.append(alpha)
                    with pytest.raises(ValueError, match="outside the float range"):
                        divergence_exact(problem, w, alpha, _log_u=log_u)
        assert refused == [-1.0]

    def test_ratio_above_float_range_refused(self):
        # e^800 overflows every f_alpha, and for alpha > 1 both parts of the
        # generator overflow and meet as inf - inf; each total is refused
        # without a warning
        rng = np.random.default_rng(18)
        problem = random_problem(rng)
        w = random_weights(rng, problem.num_components)
        high = problem._log_mixture(w) + 800.0 - problem.log_p_values
        for alpha in ALPHAS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="outside the float range"):
                    divergence_exact(problem, w, alpha, _log_u=high)

    def test_ratio_below_float_range_scores_on_a_public_call(self):
        # a valid problem can put a ratio below e^-745 too: a kernel entry of
        # 1e-300 under a target value of 1e300 gives log u of about -1381 at
        # the first atom, and u = 1 at the second.  At u -> 0, f_0 grows as
        # -1 - log u and f_alpha tends to 1/alpha for alpha > 0; for alpha < 0
        # the first term overflows and the objective is refused
        problem = FiniteSupportProblem(
            np.array([[1e-300, 1.0 - 1e-300], [1e-300, 1.0 - 1e-300]]),
            np.ones(2),
            np.array([1e300, 1.0]),
        )
        w = np.array([0.5, 0.5])
        log_u = math.log(1e-300) - math.log(1e300)
        wants = {0.0: 1e300 * (-1.0 - log_u), 0.5: 2e300, 1.0: 1e300, 1.5: 1e300 / 1.5,
                 2.0: 5e299, 3.0: 1e300 / 3.0}
        for alpha in ALPHAS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if alpha in wants:
                    got = divergence_exact(problem, w, alpha)
                    assert math.isclose(got, wants[alpha], rel_tol=1e-12)
                else:
                    with pytest.raises(ValueError, match="outside the float range"):
                        divergence_exact(problem, w, alpha)


class TestRenyiObjective:
    def test_rejects_degenerate_orders(self):
        rng = np.random.default_rng(14)
        problem = random_problem(rng, num_components=2)
        w = np.array([0.5, 0.5])
        for alpha in (0.0, 1.0):
            with pytest.raises(ValueError):
                renyi_objective_exact(problem, w, DescentParams(alpha, 0.5, shift=1.0))

    def test_shifted_objective_hand_value(self):
        rng = np.random.default_rng(15)
        problem = random_problem(rng, num_components=3)
        w = random_weights(rng, 3)
        params = DescentParams(0.5, 0.5, shift=-2.0)
        mix = w @ problem.kernel_matrix
        integral = float(
            np.sum(
                problem.nu_weights
                * problem.p_values
                * (mix / problem.p_values) ** params.alpha
            )
        )
        want = math.log(integral + (params.alpha - 1.0) * params.shift) / (
            params.alpha * (params.alpha - 1.0)
        )
        got = renyi_objective_exact(problem, w, params)
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_zero_shift_matches_scaled_vr_bound(self):
        # with no shift the two objectives are the same number up to -1/alpha
        rng = np.random.default_rng(16)
        for alpha in (0.5, 2.0):
            problem = random_problem(rng)
            w = random_weights(rng, problem.num_components)
            lhs = renyi_objective_exact(problem, w, DescentParams(alpha, 0.5))
            rhs = -vr_bound_exact(problem, w, alpha) / alpha
            assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)

    def test_zero_shift_power_sum_below_float_range(self):
        # sum_s nu_s mix_s^3 p_s^-2 = 2.5e-601 is below the float range; the
        # zero-shift objective reads its log, as the bound does
        problem = FiniteSupportProblem(
            np.array([[0.5, 0.5]]), np.ones(2), np.array([1e300, 1e300])
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = renyi_objective_exact(problem, [1.0], DescentParams(3.0, 0.5))
            want = -vr_bound_exact(problem, [1.0], 3.0) / 3.0
        assert math.isclose(got, want, rel_tol=1e-12)
        assert math.isclose(got, (math.log(0.25) - 600.0 * math.log(10.0)) / 6.0, rel_tol=1e-12)

    def test_negative_shift_product_refused_by_the_renyi_rule(self):
        # (alpha - 1) * shift = -5e5 < 0: the renyi step's rule refuses it,
        # with the step's message, before any power sum is formed
        rng = np.random.default_rng(17)
        problem = random_problem(rng, num_components=2)
        w = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match=r"renyi step needs \(alpha-1\)\*shift >= 0"):
            renyi_objective_exact(problem, w, DescentParams(0.5, 0.5, shift=1e6))

    def test_shifted_power_sum_above_float_range(self):
        # sum_s nu_s mix_s^3 p_s^-2 = 2.5e599 overflows; the shift enters its
        # log by logaddexp, so the objective stays finite and warning-free
        problem = FiniteSupportProblem(
            np.array([[0.5, 0.5]]), np.ones(2), np.array([1e-300, 1e-300])
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = renyi_objective_exact(problem, [1.0], DescentParams(3.0, 0.5, shift=1.0))
            # (alpha - 1) * shift underflows to zero and adds nothing
            tiny = renyi_objective_exact(problem, [1.0], DescentParams(1.5, 0.5, shift=5e-324))
            zero = renyi_objective_exact(problem, [1.0], DescentParams(1.5, 0.5))
        assert math.isclose(got, 230.0274602392179, rel_tol=0.0, abs_tol=1e-12)
        assert tiny == zero

    def test_accepts_exactly_what_the_renyi_step_accepts(self):
        rng = np.random.default_rng(19)
        problem = random_problem(rng, num_components=3)
        w = random_weights(rng, 3)
        for alpha in (-0.5, 0.5, 2.0):
            grad = gradient_exact(problem, w, alpha)
            for shift in (-1.0, 0.0, 1.0):
                params = DescentParams(alpha, 0.5, shift=shift)
                refusals = []
                for call in (
                    lambda: renyi_step(w, grad, params),
                    lambda: renyi_objective_exact(problem, w, params),
                ):
                    try:
                        call()
                    except ValueError as exc:
                        refusals.append(str(exc))
                    else:
                        refusals.append(None)
                assert refusals[0] == refusals[1], (alpha, shift)
                assert (refusals[0] is None) == ((alpha - 1.0) * shift >= 0), (alpha, shift)


class TestVrBound:
    def test_exact_matches_quadrature_loop(self):
        rng = np.random.default_rng(18)
        problem = random_problem(rng, num_components=4, support_size=6)
        w = random_weights(rng, 4)
        mix = w @ problem.kernel_matrix
        for alpha in (-0.5, 0.5, 2.0):
            want = (
                math.log(
                    float(
                        np.sum(
                            problem.nu_weights
                            * mix**alpha
                            * problem.p_values ** (1.0 - alpha)
                        )
                    )
                )
                / (1.0 - alpha)
            )
            got = vr_bound_exact(problem, w, alpha)
            assert math.isclose(got, want, rel_tol=1e-12)

    def test_alpha_one_rejected(self):
        rng = np.random.default_rng(19)
        problem = random_problem(rng, num_components=2)
        with pytest.raises(ValueError):
            vr_bound_exact(problem, np.array([0.5, 0.5]), 1.0)

    def test_from_logs_refusals(self):
        with pytest.raises(ValueError, match="undefined at alpha=1"):
            vr_bound_from_logs([0.0, 1.0], [0.0, 1.0], 1.0)
        for log_p, log_q in (([0.0, 1.0], [0.0]), ([], []), (np.zeros((2, 2)),) * 2):
            with pytest.raises(ValueError, match="equal, nonempty batches"):
                vr_bound_from_logs(log_p, log_q, 0.5)

    def test_perfect_fit_recovers_log_normaliser(self):
        # when q == p / Z the bound equals log Z for every order
        rng = np.random.default_rng(20)
        w = random_weights(rng, 3)
        problem = perfect_fit_problem(rng, w)
        scale = 3.7
        scaled = problem.with_target(scale * problem.p_values)
        for alpha in (-0.5, 0.5, 2.0):
            got = vr_bound_exact(scaled, w, alpha)
            assert math.isclose(got, math.log(scale), rel_tol=1e-12)

    def test_from_logs_hand_value(self):
        lp = np.array([0.0, math.log(4.0)])
        lq = np.array([0.0, 0.0])
        # ratios (1, 4), alpha=0.5: mean sqrt = 1.5, bound = 2 log 1.5
        got = vr_bound_from_logs(lp, lq, 0.5)
        assert math.isclose(got, 2.0 * math.log(1.5), rel_tol=1e-14)

    def test_from_logs_matches_logsumexp(self):
        rng = np.random.default_rng(21)
        lp = rng.normal(size=200)
        lq = rng.normal(size=200)
        for alpha in (-0.5, 0.5, 2.0):
            want = (
                logsumexp((1.0 - alpha) * (lp - lq)) - math.log(200.0)
            ) / (1.0 - alpha)
            assert math.isclose(vr_bound_from_logs(lp, lq, alpha), want, rel_tol=1e-12)

    def test_estimate_consistent_with_exact_on_atoms(self):
        # Monte Carlo over the problem's own atoms converges to the exact
        # bound; delta-method error bars make the check sharp.
        rng = np.random.default_rng(22)
        problem = random_problem(rng, num_components=3, support_size=6)
        w = random_weights(rng, 3)
        alpha = 0.5
        probs = problem.atom_probs(w)
        log_mix = problem.log_mixture(w)
        draws = 40000
        idx = rng.choice(problem.support_size, size=draws, p=probs)
        lp = np.log(problem.p_values[idx])
        lq = log_mix[idx]
        got = vr_bound_from_logs(lp, lq, alpha)
        want = vr_bound_exact(problem, w, alpha)
        ratios = np.exp((1.0 - alpha) * (lp - lq))
        se = ratios.std() / (abs(1.0 - alpha) * ratios.mean() * math.sqrt(draws))
        assert abs(got - want) < 5.0 * se + 1e-12

    def test_estimate_runs_on_gaussian_mixture(self):
        rng = np.random.default_rng(23)
        kernel = GaussianKernel(bandwidth=1.0, dim=2)
        points = rng.normal(size=(5, 2))
        weights = random_weights(rng, 5)
        target = GaussianMixtureTarget([[0.0, 0.0]])
        samples = sample_mixture(weights, points, kernel, 500, rng)
        batch = sample_logs(weights, points, kernel, target, samples)
        val = vr_bound_from_logs(batch.log_p, batch.log_q, 0.5)
        assert np.isfinite(val)
