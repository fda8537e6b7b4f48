"""Update rules, the descent driver and the 1/N rate bound."""

import collections
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alpha_descent.descent as descent_module
import alpha_descent.divergence as divergence_module
import alpha_descent.gradient as gradient_module
import alpha_descent.harness as harness_module
import alpha_descent.model as model_module
from alpha_descent.descent import (
    ALGORITHMS,
    DescentTrace,
    GuardViolation,
    RateConstants,
    StepDiagnostics,
    TraceRecord,
    emd_step,
    kl_step,
    power_step,
    rate_bound,
    renyi_step,
    run_descent,
)
from alpha_descent.divergence import (
    DescentParams,
    divergence_exact,
    vr_bound_from_logs,
)
from alpha_descent.explore import explore_mean_update
from alpha_descent.fixtures import random_problem, random_weights
from alpha_descent.gradient import (
    MixtureGradient,
    MixtureState,
    gradient_exact,
    gradient_monte_carlo_from_logs,
    sample_mixture,
)
from alpha_descent.harness import ExperimentConfig
from alpha_descent.model import (
    FiniteSupportProblem,
    GaussianKernel,
    GaussianMixtureTarget,
    SampleBatch,
    bandwidth_rule,
    sample_logs,
)

import record_grid


def _power_factor(v, params):
    """Weight ratio after one power step from [1/2, 1/2] with gradient [v, 0].

    The second component's base is 1, so the ratio is the first one's factor
    ``[(alpha-1)v + 1]^(step/(1-alpha))``.
    """
    new, _ = power_step([0.5, 0.5], np.array([v, 0.0]), params)
    return new[0] / new[1]


class TestPowerTransform:
    # the power update's factor, read off power_step
    def test_hand_values(self):
        assert _power_factor(1.0, DescentParams(0.5, 1.0)) == pytest.approx(0.25, abs=1e-15)
        assert _power_factor(-1.0, DescentParams(0.5, 0.5)) == pytest.approx(1.5, abs=1e-15)
        # alpha > 1 flips the exponent sign: [(2-1) 1 + 1]^(1/(1-2)) = 0.5
        assert _power_factor(1.0, DescentParams(2.0, 1.0)) == pytest.approx(0.5, abs=1e-15)

    def test_domain_violation(self):
        with pytest.raises(GuardViolation) as info:
            _power_factor(2.0, DescentParams(0.5, 1.0))
        assert info.value.indices == [0]

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            _power_factor(0.5, DescentParams(1.0, 0.5))


class TestPowerStep:
    def test_hand_case_alpha_half(self):
        # bases (1, 1.5), exponent 2, factors (1, 2.25): (4/13, 9/13)
        new, diag = power_step(
            [0.5, 0.5], np.array([0.0, -1.0]), DescentParams(0.5, 1.0)
        )
        assert np.allclose(new, [4.0 / 13.0, 9.0 / 13.0], atol=1e-15)
        assert diag.guard_min == pytest.approx(1.0, abs=1e-15)

    def test_hand_case_alpha_minus_one(self):
        # bases (1, 2.25), exponent 1/2, factors (1, 1.5): (0.4, 0.6)
        new, _ = power_step(
            [0.5, 0.5], np.array([0.0, -0.625]), DescentParams(-1.0, 1.0)
        )
        assert np.allclose(new, [0.4, 0.6], atol=1e-15)

    def test_shift_enters_base(self):
        params = DescentParams(0.5, 1.0, shift=-1.0)
        new_shifted, diag = power_step([0.5, 0.5], np.array([1.0, 0.0]), params)
        new_plain, _ = power_step(
            [0.5, 0.5], np.array([0.0, -1.0]), DescentParams(0.5, 1.0)
        )
        assert np.allclose(new_shifted, new_plain, atol=1e-15)
        # the shifted bases are (1, 1.5)
        assert diag.guard_min == pytest.approx(1.0, abs=1e-15)

    def test_accepts_mixture_gradient(self):
        grad = MixtureGradient([0.0, -1.0], 0.5)
        new, _ = power_step([0.5, 0.5], grad, DescentParams(0.5, 1.0))
        assert np.allclose(new, [4.0 / 13.0, 9.0 / 13.0], atol=1e-15)

    def test_guard_violation_names_components(self):
        with pytest.raises(GuardViolation) as info:
            power_step([0.5, 0.5], np.array([0.0, 5.0]), DescentParams(0.5, 1.0))
        assert info.value.indices == [1]
        assert "(alpha-1)(b+shift)+1" in str(info.value)

    def test_guard_ignores_zero_weight_components(self):
        # component 2 is dead and wildly out of domain; the step must not care
        new, diag = power_step(
            [0.5, 0.5, 0.0], np.array([0.0, -1.0, 100.0]), DescentParams(0.5, 1.0)
        )
        assert new[2] == 0.0
        assert np.allclose(new[:2], [4.0 / 13.0, 9.0 / 13.0], atol=1e-15)
        assert diag.guard_min == pytest.approx(1.0)

    def test_matrix_gradient_refused(self):
        with pytest.raises(ValueError, match=r"vector, got shape \(2, 2\)"):
            power_step([0.5, 0.5], np.zeros((2, 2)), DescentParams(0.5, 1.0))

    def test_invalid_params_rejected(self):
        for params in (
            DescentParams(1.0, 0.5),
            DescentParams(0.5, 1.5),
            DescentParams(0.5, 0.5, shift=1.0),
        ):
            with pytest.raises(ValueError):
                power_step([0.5, 0.5], np.array([0.0, 0.0]), params)

    def test_gradient_validation(self):
        with pytest.raises(ValueError):
            power_step([0.5, 0.5], np.array([0.0]), DescentParams(0.5, 0.5))
        with pytest.raises(ValueError):
            power_step([0.5, 0.5], np.array([0.0, np.nan]), DescentParams(0.5, 0.5))


class TestEmdStep:
    def test_hand_case(self):
        new, diag = emd_step([0.5, 0.5], np.array([0.0, 1.0]), DescentParams(0.5, 1.0))
        e = math.exp(1.0)
        assert np.allclose(new, [e / (1 + e), 1 / (1 + e)], atol=1e-15)
        assert diag.guard_min == np.inf

    def test_shift_and_alpha_one_refused(self):
        # a constant shift cancels in the normalisation, so the emd rule
        # refuses one, as run_descent does; emd at alpha=1 is kl
        with pytest.raises(ValueError, match="emd step takes no shift"):
            emd_step(
                [0.3, 0.7], np.array([0.2, -0.4]), DescentParams(0.5, 0.8, shift=-3.0)
            )
        with pytest.raises(ValueError, match="use the kl algorithm"):
            emd_step([0.3, 0.7], np.array([0.2, -0.4]), DescentParams(1.0, 0.8))

    def test_zero_weights_preserved(self):
        new, _ = emd_step([0.0, 1.0], np.array([-50.0, 0.0]), DescentParams(0.5, 1.0))
        assert new[0] == 0.0 and new[1] == 1.0


class TestKlStep:
    def test_matches_emd_bitwise_at_zero_shift(self):
        # a raw array carries no order, so the one mirror step gives the
        # same bits under either name
        rng = np.random.default_rng(61)
        w = random_weights(rng, 5)
        b = rng.normal(size=5)
        kl_new, _ = kl_step(w, b, 0.7)
        emd_new, _ = emd_step(w, b, DescentParams(0.5, 0.7))
        assert np.array_equal(kl_new, emd_new)

    def test_rejects_wrong_gradient_order(self):
        grad = MixtureGradient([0.0, 0.0], 0.5)
        with pytest.raises(ValueError, match="alpha=1"):
            kl_step([0.5, 0.5], grad, 0.5)
        # bare arrays carry no order and are trusted
        kl_step([0.5, 0.5], np.zeros(2), 0.5)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            kl_step([0.5, 0.5], np.zeros(2), 0.0)


class TestStepsCheckTheGradientOrder:
    """Every step refuses a MixtureGradient of another order than its own."""

    def test_values_of_another_order_refused(self):
        problem = random_problem(np.random.default_rng(71), num_components=3)
        w = np.full(3, 1.0 / 3.0)
        grad = gradient_exact(problem, w, 0.5)
        for step in (renyi_step, emd_step, power_step):
            with pytest.raises(ValueError, match="wants an alpha=2.0 gradient, got alpha=0.5"):
                step(w, grad, DescentParams(2.0, 0.5))
            step(w, grad.values, DescentParams(2.0, 0.5))  # a raw array carries no order

    def test_log_base_of_another_order_refused(self):
        grad = MixtureGradient(None, 0.5, log_base=np.log([0.5, 1.0, 2.0]))
        for step in (power_step, renyi_step):
            with pytest.raises(ValueError, match="wants an alpha=2.0 gradient, got alpha=0.5"):
                step(np.full(3, 1.0 / 3.0), grad, DescentParams(2.0, 0.5))


def _refusal(call):
    """The message of the ValueError ``call`` raises, or None."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_step_refuses_what_run_descent_refuses(algorithm):
    # run_descent checks its settings at entry; a step called on its own
    # must refuse the same ones with the same message.  _public_step calls
    # the algorithm's public step; kl_step takes a step size alone, so it is
    # given alpha=1 and no shift by its signature, and run_descent refuses
    # every other setting of kl.
    problem = random_problem(np.random.default_rng(75), num_components=3)
    w = np.full(3, 1.0 / 3.0)
    b = np.zeros(3)
    for alpha in (-0.5, 0.5, 1.0, 2.0):
        for shift in (-1.0, 0.0, 1.0):
            for step_size in (0.5, 1.5):
                params = DescentParams(alpha, step_size, shift=shift)
                want = _refusal(
                    lambda: run_descent(w, params, algorithm, 0, problem=problem)
                )
                if algorithm == "kl" and (alpha, shift) != (1.0, 0.0):
                    assert want is not None
                    continue
                got = _refusal(
                    lambda: _public_step(algorithm, w, b, params)
                )
                assert got == want, (alpha, shift, step_size)


@pytest.mark.parametrize("step", [power_step, renyi_step], ids=["power", "renyi"])
def test_shift_product_underflowing_to_zero_adds_nothing(step):
    # (alpha-1) * 5e-324 rounds to 0 at alpha=1.5; its log would be -inf
    # and raise a divide-by-zero warning, yet the shift adds nothing
    grad = MixtureGradient(None, 1.5, log_base=np.log([0.5, 1.0, 2.0]))
    w = np.full(3, 1.0 / 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, got_diag = step(w, grad, DescentParams(1.5, 0.5, shift=5e-324))
    want, want_diag = step(w, grad, DescentParams(1.5, 0.5))
    assert np.array_equal(got, want)
    assert got_diag.guard_min == want_diag.guard_min


class TestRenyiStep:
    def test_hand_case(self):
        # mu_b = -0.5, D = 1.75, factors (1, e^(4/7))
        params = DescentParams(0.5, 1.0, shift=-1.0)
        new, diag = renyi_step([0.5, 0.5], np.array([0.0, -1.0]), params)
        z = math.exp(4.0 / 7.0)
        assert np.allclose(new, [1 / (1 + z), z / (1 + z)], atol=1e-15)
        # check values (-8/7, -12/7), margins 1 + (1/2) check = (3/7, 1/7)
        assert diag.guard_min == pytest.approx(1.0 / 7.0, abs=1e-14)

    def test_unweighted_denominator_variant(self):
        # plain sum: mu_b = -1, D = 2, factors (1, e^0.5)
        params = DescentParams(0.5, 1.0, shift=-1.0)
        new, _ = renyi_step(
            [0.5, 0.5], np.array([0.0, -1.0]), params, unweighted_denominator=True
        )
        z = math.exp(0.5)
        assert np.allclose(new, [1 / (1 + z), z / (1 + z)], atol=1e-15)

    def test_nonpositive_denominator_guard(self):
        with pytest.raises(GuardViolation, match="normaliser nonpositive"):
            renyi_step([0.5, 0.5], np.array([2.0, 2.0]), DescentParams(0.5, 1.0))

    def test_wrong_shift_sign_rejected_up_front(self):
        with pytest.raises(ValueError, match="shift"):
            renyi_step([0.5, 0.5], np.zeros(2), DescentParams(0.5, 1.0, shift=1.0))
        with pytest.raises(ValueError):
            renyi_step([0.5, 0.5], np.zeros(2), DescentParams(1.0, 1.0, shift=-1.0))

    def test_zero_weights_preserved(self):
        params = DescentParams(0.5, 1.0, shift=-1.0)
        new, _ = renyi_step([0.5, 0.5, 0.0], np.array([0.0, -1.0, 3.0]), params)
        assert new[2] == 0.0

    def test_margin_read_off_weighted_components(self):
        # D = 1; the weighted margin is 1 - 0.5 (0 + 1) = 0.5, and the
        # zero-weight component's 1 - 0.5 (100 + 1) = -49.5 is not the step's
        new, diag = renyi_step([1.0, 0.0], np.array([0.0, 100.0]), DescentParams(2, 0.5))
        assert new.tolist() == [1.0, 0.0]
        assert diag.guard_min == 0.5

    def test_log_base_zero_weight_row_not_exponentiated(self):
        # exp(800 - log D) of the dead row would overflow; nothing reads it
        grad = MixtureGradient(None, 2.0, log_base=np.array([0.0, 800.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new, diag = renyi_step([1.0, 0.0], grad, DescentParams(2, 0.5))
        assert new.tolist() == [1.0, 0.0]
        assert diag.guard_min == 0.5


class TestStepsCheckTheRowsTheyRead:
    def test_emd_and_kl_take_the_dead_component_batch(self):
        # the batch of test_gradient's dead component far above the mixture:
        # its own value is inf, and no step reads it
        rng = np.random.default_rng(61)
        kernel = GaussianKernel(1.0, 2)
        points = rng.normal(size=(4, 2))
        points[1] = [60.0, 0.0]
        samples = points[1] + rng.normal(size=(64, 2))
        target = GaussianMixtureTarget([[0.0, 0.0]])
        w = np.array([0.3, 0.0, 0.3, 0.4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = sample_logs(w, points, kernel, target, samples)
            emd_grad = gradient_monte_carlo_from_logs(batch, 0.5)
            kl_grad = gradient_monte_carlo_from_logs(batch, 1.0)
            assert emd_grad.values[1] == np.inf and kl_grad.values[1] == np.inf
            emd_new, _ = emd_step(w, emd_grad, DescentParams(0.5, 0.1))
            kl_new, _ = kl_step(w, kl_grad, 0.1)
        for new in (emd_new, kl_new):
            assert new[1] == 0.0
            assert np.isfinite(new).all() and new.sum() == pytest.approx(1.0)

    def test_power_values_form_skips_a_dead_inf(self):
        values = np.array([0.0, -1.0, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new, _ = power_step([0.5, 0.5, 0.0], values, DescentParams(0.5, 1.0))
        assert new[2] == 0.0
        assert np.allclose(new[:2], [4.0 / 13.0, 9.0 / 13.0], atol=1e-15)

    @pytest.mark.parametrize(
        "step",
        [
            lambda w, b: emd_step(w, b, DescentParams(0.5, 0.5)),
            lambda w, b: kl_step(w, b, 0.5),
            lambda w, b: power_step(w, b, DescentParams(0.5, 0.5)),
        ],
        ids=["emd", "kl", "power"],
    )
    def test_nan_on_a_weighted_row_is_refused(self, step):
        with pytest.raises(ValueError, match="must be finite"):
            step([0.5, 0.5, 0.0], np.array([0.0, np.nan, 0.0]))

    @pytest.mark.parametrize("unweighted", [False, True])
    def test_renyi_refuses_inf_on_a_zero_weight_row(self, unweighted):
        # weights @ values and the plain sum read every row
        with pytest.raises(ValueError, match="must be finite"):
            renyi_step(
                [0.5, 0.5, 0.0],
                np.array([0.0, -1.0, np.inf]),
                DescentParams(0.5, 1.0, shift=-1.0),
                unweighted_denominator=unweighted,
            )


def _log_base_gradient(log_a, alpha):
    return MixtureGradient(None, alpha, log_base=log_a)


class TestLogBaseSteps:
    # (alpha, shift) pairs with (alpha-1)*shift >= 0
    CASES = ((0.5, 0.0), (0.5, -0.4), (-1.0, -0.2), (2.0, 0.0), (2.0, 0.3))

    def test_power_matches_values_form(self):
        # base A_j + (alpha-1) shift read in the log domain equals the
        # literal base (alpha-1)(b_j + shift) + 1 with b_j = (A_j - 1)/(alpha-1)
        rng = np.random.default_rng(71)
        for alpha, shift in self.CASES:
            params = DescentParams(alpha, 0.7, shift=shift)
            w = random_weights(rng, 5)
            log_a = rng.uniform(-1.0, 1.0, size=5)
            new, diag = power_step(w, _log_base_gradient(log_a, alpha), params)
            want, want_diag = power_step(w, np.expm1(log_a) / (alpha - 1.0), params)
            assert np.allclose(new, want, rtol=1e-12, atol=0)
            assert diag.guard_min == pytest.approx(want_diag.guard_min, rel=1e-12)

    def test_renyi_matches_values_form(self):
        # the constant step / ((alpha-1) D) dropped from the log factors
        # cancels on renormalisation
        rng = np.random.default_rng(72)
        for alpha, shift in self.CASES:
            params = DescentParams(alpha, 0.7, shift=shift)
            w = random_weights(rng, 5)
            log_a = rng.uniform(-1.0, 1.0, size=5)
            new, diag = renyi_step(w, _log_base_gradient(log_a, alpha), params)
            want, want_diag = renyi_step(w, np.expm1(log_a) / (alpha - 1.0), params)
            assert np.allclose(new, want, rtol=1e-12, atol=0)
            assert diag.guard_min == pytest.approx(want_diag.guard_min, rel=1e-12)

    def test_tiny_bases_stay_in_the_log_domain(self):
        # bases of about e^-800 underflow as numbers but not as logs
        log_a = np.array([-800.0, -801.0, -799.0])
        w = np.full(3, 1.0 / 3.0)
        new, diag = power_step(w, _log_base_gradient(log_a, 0.5), DescentParams(0.5, 1.0))
        want = np.exp(2.0 * (log_a - log_a.max()))
        assert np.allclose(new, want / want.sum(), rtol=1e-12)
        assert diag.guard_min == 0.0
        new, _ = renyi_step(w, _log_base_gradient(log_a, 0.5), DescentParams(0.5, 1.0))
        assert np.all(np.isfinite(new)) and np.all(new > 0)

    def test_power_guard_refuses_zero_base(self):
        log_a = np.array([0.0, -np.inf, 0.1])
        grad = _log_base_gradient(log_a, 2.0)
        with pytest.raises(GuardViolation, match="power guard violated") as info:
            power_step([0.3, 0.3, 0.4], grad, DescentParams(2.0, 0.5))
        assert info.value.indices == [1]
        # a dead component is ignored, as in the values form
        new, _ = power_step([0.5, 0.0, 0.5], grad, DescentParams(2.0, 0.5))
        assert new[1] == 0.0

    def test_renyi_guard_refuses_zero_normaliser(self):
        grad = _log_base_gradient(np.array([-np.inf, -np.inf, 0.0]), 2.0)
        with pytest.raises(GuardViolation, match="normaliser nonpositive"):
            renyi_step([0.5, 0.5, 0.0], grad, DescentParams(2.0, 0.5))

    @pytest.mark.parametrize("alpha", [-1.0, 0.5, 2.0, 3.0])
    def test_large_log_bases_are_read_not_their_values(self, alpha):
        # log A_j + 900 overflows the derived values to inf; the steps read
        # only log A_j, and a constant shift of it cancels at zero shift
        rng = np.random.default_rng(73)
        w = random_weights(rng, 5)
        log_a = rng.uniform(-1.0, 1.0, size=5)
        params = DescentParams(alpha, 0.7)
        for step in (power_step, renyi_step):
            want, _ = step(w, _log_base_gradient(log_a, alpha), params)
            got, _ = step(w, _log_base_gradient(log_a + 900.0, alpha), params)
            assert np.allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_infinite_log_base_refused(self, bad):
        grad = _log_base_gradient(np.array([0.1, bad, -0.2]), 2.0)
        params = DescentParams(2.0, 0.5)
        for step in (power_step, renyi_step):
            with pytest.raises(ValueError, match="log_base") as info:
                step([0.3, 0.3, 0.4], grad, params)
            assert not isinstance(info.value, GuardViolation)

    def test_values_steps_refuse_a_log_base_gradient(self):
        # log A_j has no values, and emd, kl and the unweighted renyi
        # denominator read values; the refusal is not a guard's
        grad = _log_base_gradient(np.array([0.2, -0.3, 0.5]), 0.5)
        w = [0.2, 0.3, 0.5]
        params = DescentParams(0.5, 0.5, shift=-0.2)
        for step, match in (
            (lambda: emd_step(w, grad, DescentParams(0.5, 0.5)), "log_base"),
            (lambda: renyi_step(w, grad, params, unweighted_denominator=True), "log_base"),
            (lambda: kl_step(w, grad, 0.5), "alpha=1"),
        ):
            with pytest.raises(ValueError, match=match) as info:
                step()
            assert not isinstance(info.value, GuardViolation)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_every_step_returns_a_simplex(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 7))
    w = random_weights(rng, size)
    w[rng.integers(size)] = 0.0
    w /= w.sum()
    b = rng.normal(scale=0.4, size=size)
    params = DescentParams(0.5, 0.8, shift=-0.5)
    outputs = [
        power_step(w, b, params)[0],
        emd_step(w, b, DescentParams(0.5, 0.8))[0],
        kl_step(w, b, 0.8)[0],
        renyi_step(w, b, params)[0],
    ]
    for new in outputs:
        assert new.shape == w.shape
        assert np.all(new >= 0)
        assert math.isclose(new.sum(), 1.0, rel_tol=0, abs_tol=1e-12)
        assert np.all(new[w == 0] == 0)


def _renormalise(weights, log_factors):
    """``descent._renormalise`` under the mask its callers pass, ``_enter``'s."""
    weights, active, _, _ = descent_module._enter(
        "emd", weights, np.zeros(weights.size), DescentParams(0.5, 1.0)
    )
    return descent_module._renormalise(weights, log_factors, active)


def _frozen_renormalise(weights, log_factors):
    """``_renormalise`` as it stood, with boolean gathers and a scatter.

    Kept verbatim so that the production helper is held to its bits."""
    active = weights > 0
    log_w = np.full(weights.shape, -np.inf)
    log_w[active] = np.log(weights[active]) + log_factors[active]
    peak = log_w.max()
    if not np.isfinite(peak):
        raise GuardViolation("all mixture mass was annihilated by the update")
    w = np.exp(log_w - peak)
    return w / w.sum()


def _frozen_power_step(weights, grad, params):
    """``power_step`` as it stood, gathering ``base[active]`` for each use
    and scattering the log factors into a zeroed array.  Its checks are the
    module's own, ``descent._enter``; its mask is the plain ``weights > 0``,
    and its messages print the failing base as a plain float."""
    weights, _, values, log_a = descent_module._enter("power", weights, grad, params)
    alpha = params.alpha
    active = weights > 0
    if log_a is None:
        base = (alpha - 1.0) * (values + params.shift) + 1.0
        if (base[active] <= 0).any():
            bad = np.flatnonzero(active & (base <= 0))
            raise GuardViolation(
                f"power guard violated at component(s) {bad.tolist()}: "
                f"(alpha-1)(b+shift)+1 = {float(base[bad[0]])!r}",
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
                f"log(A+(alpha-1)shift) = {float(log_a[bad[0]])!r}",
                indices=bad,
            )
        log_base = log_a[active]
        with np.errstate(over="ignore"):
            guard_min = float(np.exp(log_base.min()))
    log_factors = np.zeros(weights.shape)
    log_factors[active] = params.step_size / (1.0 - alpha) * log_base
    return _frozen_renormalise(weights, log_factors), StepDiagnostics(guard_min)


def _weights_with_zeros(rng, size, zeros):
    w = random_weights(rng, size)
    w[:zeros] = 0.0
    return rng.permutation(w / w.sum())


class TestMaskedStepBits:
    """The masked renormalisation and power step give the frozen forms' bits.

    Weights with and without exact zeros; the factors or gradients of
    zero-weight components are made as hostile as the step allows, since
    neither form may read them."""

    @staticmethod
    def _same(step, frozen, *args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                want = frozen(*args)
            except GuardViolation as exc:
                with pytest.raises(GuardViolation) as info:
                    step(*args)
                assert str(info.value) == str(exc)
                assert info.value.indices == exc.indices
                return None
            got = step(*args)
        if isinstance(want, tuple):
            (got, got_diag), (want, want_diag) = got, want
            assert got_diag.guard_min == want_diag.guard_min
        assert np.array_equal(got, want)
        return got

    @pytest.mark.parametrize("zeros", [0, 1, 3])
    def test_renormalise(self, zeros):
        rng = np.random.default_rng(101 + zeros)
        for _ in range(20):
            w = _weights_with_zeros(rng, 6, zeros)
            factors = rng.normal(scale=5.0, size=6)
            self._same(_renormalise, _frozen_renormalise, w, factors)
            dead = np.flatnonzero(w == 0)
            factors[dead] = np.where(np.arange(dead.size) % 2, np.inf, -np.inf)
            self._same(_renormalise, _frozen_renormalise, w, factors)

    def test_renormalise_refusal(self):
        w = np.array([0.5, 0.0, 0.5])
        factors = np.array([-np.inf, 0.0, -np.inf])
        self._same(_renormalise, _frozen_renormalise, w, factors)

    @pytest.mark.parametrize("zeros", [0, 1, 3])
    @pytest.mark.parametrize("alpha, shift", [(0.5, 0.0), (0.5, -0.3), (-1.0, -0.2), (2.0, 0.4)])
    def test_power_step_values(self, zeros, alpha, shift):
        rng = np.random.default_rng(200 + zeros)
        params = DescentParams(alpha, 0.7, shift=shift)
        for _ in range(20):
            w = _weights_with_zeros(rng, 6, zeros)
            # bases straddle zero, so some steps are refused
            values = rng.normal(scale=1.0 / abs(alpha - 1.0), size=6)
            self._same(power_step, _frozen_power_step, w, values, params)
            # out of the guard's domain where nothing weighs
            values[w == 0] = 1e3 / (alpha - 1.0)
            self._same(power_step, _frozen_power_step, w, values, params)

    @pytest.mark.parametrize("zeros", [0, 1, 3])
    @pytest.mark.parametrize("alpha, shift", [(0.5, 0.0), (0.5, -0.3), (2.0, 0.0), (2.0, 0.4)])
    def test_power_step_log_base(self, zeros, alpha, shift):
        rng = np.random.default_rng(300 + zeros)
        params = DescentParams(alpha, 0.7, shift=shift)
        for k in range(20):
            w = _weights_with_zeros(rng, 6, zeros)
            log_a = rng.normal(scale=3.0, size=6)
            log_a[w == 0] = -np.inf
            if k % 4 == 0:  # a zero base where there is weight
                log_a[np.argmax(w)] = -np.inf
            grad = _log_base_gradient(log_a, alpha)
            self._same(power_step, _frozen_power_step, w, grad, params)

    def test_refused_step_keeps_message_and_indices(self):
        params = DescentParams(0.5, 1.0)
        w = np.array([0.25, 0.25, 0.0, 0.5])
        values = np.array([3.0, -1.0, 9.0, 2.5])  # bases -0.5, 2, -3.5, -0.25
        got = self._same(power_step, _frozen_power_step, w, values, params)
        assert got is None
        with pytest.raises(GuardViolation) as info:
            power_step(w, values, params)
        assert info.value.indices == [0, 3]
        assert "component(s) [0, 3]: (alpha-1)(b+shift)+1 = " in str(info.value)

    def test_refused_step_messages_print_plain_floats(self):
        # numpy 2 writes a numpy scalar's repr as np.float64(...); the
        # message reaches GuardViolation, DescentTrace.status and summary.json
        w = np.array([0.25, 0.25, 0.0, 0.5])
        values = np.array([3.0, -1.0, 9.0, 2.5])
        log_a = np.array([0.0, -np.inf, 0.0, 0.0])
        for grad, tail in (
            (values, "(alpha-1)(b+shift)+1 = -0.5"),
            (_log_base_gradient(log_a, 0.5), "log(A+(alpha-1)shift) = -inf"),
        ):
            with pytest.raises(GuardViolation) as info:
                power_step(w, grad, DescentParams(0.5, 1.0))
            assert str(info.value).endswith(tail)
            assert "np." not in str(info.value)
        problem = random_problem(np.random.default_rng(93), num_components=4)
        with pytest.raises(GuardViolation) as info:
            run_descent(
                np.full(4, 0.25), DescentParams(0.5, 1.0), "power", 3,
                problem=problem.with_target(problem.p_values * 1e-40),
            )
        # the base K(nu u^(alpha-1)) is about 1e-20 here, and 1 - b/2 rounds it to 0
        assert info.value.partial.status == (
            "guard_violation: step 1 of phase 1: power guard violated at "
            "component(s) [0, 1, 2]: (alpha-1)(b+shift)+1 = 0.0"
        )


class TestSecondOrderAgreement:
    """How the power and renyi updates separate.

    Both linearise identically around a flat gradient, so their l1 gap is
    quadratic in the spread of b about its weighted mean.  In the step size
    the gap is only first order.  Fixtures keep the two weights away from
    1/2: at equal weights the quadratic coefficient cancels and the gap
    degenerates to third order.
    """

    def _fixtures(self, count):
        rng = np.random.default_rng(71)
        for _ in range(count):
            lam = rng.uniform(0.15, 0.35)
            w = np.array([lam, 1.0 - lam])
            delta = rng.uniform(0.2, 0.6) * rng.choice([-1.0, 1.0])
            low = rng.uniform(-0.3, 0.3)
            yield w, np.array([low + delta, low])

    @staticmethod
    def _gap(w, b, params):
        return float(
            np.abs(power_step(w, b, params)[0] - renyi_step(w, b, params)[0]).sum()
        )

    def test_gap_is_quadratic_in_gradient_spread(self):
        params = DescentParams(0.5, 1e-3, shift=-1.0)
        for w, b in self._fixtures(50):
            mu = float(w @ b)
            half = mu + 0.5 * (b - mu)
            ratio = self._gap(w, b, params) / self._gap(w, half, params)
            assert 3.0 < ratio < 5.0, f"spread-halving ratio {ratio}"

    def test_gap_is_first_order_in_step_size(self):
        for w, b in self._fixtures(50):
            full = self._gap(w, b, DescentParams(0.5, 1e-3, shift=-1.0))
            half = self._gap(w, b, DescentParams(0.5, 5e-4, shift=-1.0))
            assert 1.9 < full / half < 2.1, f"step-halving ratio {full / half}"


class TestTraceContainers:
    def test_final_weights(self):
        trace = DescentTrace()
        with pytest.raises(ValueError):
            trace.final_weights
        rec = TraceRecord(1, 0, np.array([1.0]), np.nan, 0.5, np.nan, 0.0)
        trace.records.append(rec)
        assert np.array_equal(trace.final_weights, [1.0])
        assert trace.status == "completed"

    @pytest.mark.parametrize("algorithm", ["power", "renyi", "emd"])
    @pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
    def test_records_own_their_weights(self, mode, algorithm):
        # a step's output is recorded as it is, so no two records share an
        # array; the entry record is a copy, since the loop's start may be
        # the caller's array
        rng = np.random.default_rng(141)
        initial = np.full(4, 0.25)
        params = DescentParams(0.5, 0.3)
        if mode == "exact":
            problem = random_problem(rng, num_components=4)
            trace = run_descent(initial, params, algorithm, 6, problem=problem)
        else:
            state = MixtureState(initial, rng.normal(size=(4, 2)), GaussianKernel(1.0, 2))
            assert state.weights is initial
            trace = run_descent(
                state, params, algorithm, 6, target=GaussianMixtureTarget([[0.0, 0.0]]),
                sample_count=32, rng=rng,
            )
        assert trace.status == "completed" and len(trace.records) == 7
        weights = [rec.weights for rec in trace.records]
        assert not any(np.shares_memory(w, initial) for w in weights)
        for i, w in enumerate(weights):
            keep = [v.copy() for v in weights]
            w[:] = -1.0
            assert all(
                np.array_equal(v, k) for j, (v, k) in enumerate(zip(weights, keep)) if j != i
            )
            w[:] = keep[i]
        assert np.array_equal(initial, np.full(4, 0.25))


def _counting(counts, name, fn, keywords=None):
    """``fn``, adding one to ``counts[name]`` per call and, given a list
    ``keywords``, appending each call's keyword arguments to it."""

    def wrapper(*args, **kwargs):
        counts[name] += 1
        if keywords is not None:
            keywords.append(kwargs)
        return fn(*args, **kwargs)

    return wrapper


class TestRunDescentExact:
    def _problem(self, seed=81, num_components=3):
        return random_problem(np.random.default_rng(seed), num_components=num_components)

    def test_records_and_fields(self):
        problem = self._problem()
        w0 = np.full(3, 1.0 / 3.0)
        trace = run_descent(
            w0, DescentParams(0.5, 0.5), "power", 4, problem=problem, phase=3
        )
        assert trace.status == "completed"
        assert len(trace.records) == 5
        assert [(r.phase, r.step) for r in trace.records] == [(3, n) for n in range(5)]
        for rec in trace.records:
            assert math.isnan(rec.vr_bound)
            assert np.isfinite(rec.objective)
        assert math.isnan(trace.records[0].guard_min)
        assert trace.records[1].guard_min > 0
        assert np.array_equal(trace.final_weights, trace.records[-1].weights)

    def test_objective_decreases(self):
        problem = self._problem(82)
        trace = run_descent(
            np.full(3, 1.0 / 3.0), DescentParams(0.5, 1.0), "power", 30, problem=problem
        )
        objs = [r.objective for r in trace.records]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
        assert objs[-1] < objs[0]

    def test_input_not_mutated(self):
        problem = self._problem(83)
        w0 = np.full(3, 1.0 / 3.0)
        keep = w0.copy()
        run_descent(w0, DescentParams(0.5, 0.5), "emd", 5, problem=problem)
        assert np.array_equal(w0, keep)

    def test_zero_steps_records_initial_only(self):
        problem = self._problem(84)
        trace = run_descent(
            np.full(3, 1.0 / 3.0), DescentParams(0.5, 0.5), "power", 0, problem=problem
        )
        assert len(trace.records) == 1
        assert trace.records[0].step == 0

    def test_fixed_point_stop(self):
        problem = self._problem(86)
        trace = run_descent(
            np.full(3, 1.0 / 3.0),
            DescentParams(0.5, 1.0),
            "power",
            5000,
            problem=problem,
            fixed_point_tol=1e-9,
        )
        assert trace.status.startswith("fixed_point: step")
        assert len(trace.records) < 5001

    def test_kl_refuses_alpha_other_than_one(self):
        # kl is the alpha = 1 update; any other alpha would change nothing
        problem = self._problem(87)
        for alpha in (0.5, 2.0):
            with pytest.raises(ValueError, match=f"alpha=1 update, got alpha={alpha}"):
                run_descent(
                    np.full(3, 1.0 / 3.0), DescentParams(alpha, 0.5), "kl", 5,
                    problem=problem,
                )

    def test_power_approaches_kl_as_alpha_tends_to_one(self):
        problem = self._problem(88)
        w0 = np.full(3, 1.0 / 3.0)
        kl = run_descent(w0, DescentParams(1.0, 0.5), "kl", 50, problem=problem)
        near = run_descent(
            w0, DescentParams(1.0 - 1e-7, 0.5), "power", 50, problem=problem
        )
        assert np.abs(near.final_weights - kl.final_weights).max() < 1e-4

    def test_validation_errors(self):
        problem = self._problem(89)
        w0 = np.full(3, 1.0 / 3.0)
        params = DescentParams(0.5, 0.5)
        with pytest.raises(ValueError, match="exactly one"):
            run_descent(w0, params, "power", 1)
        with pytest.raises(ValueError, match="exactly one"):
            run_descent(
                w0,
                params,
                "power",
                1,
                problem=problem,
                target=GaussianMixtureTarget([[0.0]]),
            )
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_descent(w0, params, "sgd", 1, problem=problem)
        with pytest.raises(ValueError, match="num_steps"):
            run_descent(w0, params, "power", -1, problem=problem)
        with pytest.raises(ValueError, match="components"):
            run_descent(np.full(4, 0.25), params, "power", 1, problem=problem)

    def test_guard_violation_carries_partial_trace(self):
        # push the target far below the mixture so every gradient entry is
        # near 2; the unweighted renyi denominator then goes nonpositive
        rng = np.random.default_rng(90)
        problem = random_problem(rng, num_components=3)
        problem = problem.with_target(problem.p_values * 1e-8)
        with pytest.raises(GuardViolation) as info:
            run_descent(
                np.full(3, 1.0 / 3.0),
                DescentParams(0.5, 0.5),
                "renyi_unweighted",
                10,
                problem=problem,
            )
        err = info.value
        assert "step 1 of phase 1" in str(err)
        assert err.iteration == 1
        assert isinstance(err.partial, DescentTrace)
        assert len(err.partial.records) == 1  # just the initial record
        assert err.partial.status.startswith("guard_violation")


    @pytest.mark.parametrize("num_steps", [2.5, 2.0, True, "3", None])
    def test_num_steps_must_be_an_integer(self, monkeypatch, num_steps):
        scored = []
        monkeypatch.setattr(
            descent_module, "divergence_exact", lambda *a, **k: scored.append(1)
        )
        with pytest.raises(ValueError, match="num_steps must be an integer"):
            run_descent(
                np.full(3, 1.0 / 3.0),
                DescentParams(0.5, 0.5),
                "power",
                num_steps,
                problem=self._problem(92),
            )
        assert not scored  # refused before the initial iterate is scored

    def test_numpy_integer_num_steps_accepted(self):
        trace = run_descent(
            np.full(3, 1.0 / 3.0),
            DescentParams(0.5, 0.5),
            "power",
            np.int64(2),
            problem=self._problem(93),
        )
        assert [r.step for r in trace.records] == [0, 1, 2]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_calls_per_step_and_per_iterate(self, monkeypatch, algorithm):
        # The exact loop's call ledger.  12 steps visit 13 iterates: each
        # visit reads one log-mixture through the unchecked kernel and hands
        # the same log u to the objective and, when the next step asks, to
        # the gradient.  One public step per step and one as_simplex in all,
        # the entry check, which the steps skip inside the loop.  The
        # checked log_mixture and amari_alpha are never called, and no step
        # builds a DescentParams, which a public kl_step does.  The
        # benchmark's tracer checks count descent.update and
        # harness.replicate only (TracedCalls.run,
        # test_traced_replicates_match_untraced).
        problem = self._problem(94)
        params = DescentParams(0.5 if algorithm != "kl" else 1.0, 0.5)
        counts, handed = collections.Counter(), collections.defaultdict(list)
        step = "renyi_step" if algorithm == "renyi_unweighted" else f"{algorithm}_step"
        for owner, name in (
            (descent_module, step),
            (descent_module, "as_simplex"),
            (gradient_module, "as_simplex"),
            (descent_module, "gradient_exact"),
            (descent_module, "divergence_exact"),
            (FiniteSupportProblem, "_log_mixture"),
            (FiniteSupportProblem, "log_mixture"),
            (divergence_module, "amari_alpha"),
            (DescentParams, "__post_init__"),
        ):
            fn = _counting(counts, name, getattr(owner, name), handed[name])
            monkeypatch.setattr(owner, name, fn)
        trace = run_descent(np.full(3, 1.0 / 3.0), params, algorithm, 12, problem=problem)
        assert trace.status == "completed" and len(trace.records) == 13
        assert counts == {
            step: 12,
            "as_simplex": 1,
            "gradient_exact": 12,
            "divergence_exact": 13,
            "_log_mixture": 13,
        }
        kl_step(trace.final_weights, MixtureGradient(np.zeros(3), 1.0), 0.3)
        assert counts["__post_init__"] == 1
        for n, rec in enumerate(trace.records[:-1]):
            log_u = handed["divergence_exact"][n]["_log_u"]
            assert isinstance(log_u, np.ndarray)
            assert handed["gradient_exact"][n]["_log_u"] is log_u
            want = problem._log_mixture(rec.weights) - problem.log_p_values
            assert np.array_equal(log_u, want)


class TestRunDescentMonteCarlo:
    def _setup(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(4, 2))
        state = MixtureState(
            np.full(4, 0.25), points, GaussianKernel(1.0, 2)
        )
        target = GaussianMixtureTarget([[0.0, 0.0]])
        return state, target

    def test_deterministic_under_seed(self):
        state, target = self._setup(101)
        kwargs = dict(target=target, sample_count=64)
        a = run_descent(
            state,
            DescentParams(0.5, 0.3),
            "emd",
            6,
            rng=np.random.default_rng(5),
            **kwargs,
        )
        b = run_descent(
            state,
            DescentParams(0.5, 0.3),
            "emd",
            6,
            rng=np.random.default_rng(5),
            **kwargs,
        )
        assert len(a.records) == 7
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.weights, rb.weights)
            assert ra.vr_bound == rb.vr_bound
            assert math.isnan(ra.objective)

    @pytest.mark.parametrize(
        "algorithm, alpha",
        [
            ("power", 0.5),
            ("renyi", 0.5),
            ("emd", 0.5),
            ("kl", 1.0),
            ("renyi_unweighted", -1.0),
        ],
    )
    def test_calls_per_step_and_per_run(self, monkeypatch, algorithm, alpha):
        # The Monte Carlo loop's call ledger, over two replicates of two
        # 3-step phases; the renyi_unweighted arm's second replicate is
        # refused at step 1 of its first phase, and that step is counted.
        # Per run_descent call: one as_simplex, the entry check, and one
        # distance plan.  Per attempted step: one public step.  Per visited
        # iterate: one draw and one batch, which gives the bound and then
        # the next step's gradient; kl monitors nothing and draws only for
        # its gradients.  A mean update builds its own plan and batch.  No
        # state and no DescentParams are built per step: the harness builds
        # one state per phase and one per move, and one DescentParams per
        # replicate, and a public kl_step builds one.
        exploration = "mean_update" if 0.0 <= alpha < 1.0 else "resample"
        config = ExperimentConfig(
            algorithm=algorithm, alpha=alpha, step_size_base=0.3, num_components=5,
            sample_count=(50,), num_steps=3, num_phases=2, dim=2, replicates=2, seed=11,
            exploration=exploration,
        )
        counts = collections.Counter()
        step = "renyi_step" if algorithm == "renyi_unweighted" else f"{algorithm}_step"
        plan = model_module._DistancePlan
        for owner, name in (
            (descent_module, step),
            (descent_module, "as_simplex"),
            (descent_module, "sample_mixture"),
            (harness_module, "run_descent"),
            (plan, "__init__"),
            (plan, "batch"),
            (MixtureState, "__post_init__"),
            (DescentParams, "__post_init__"),
        ):
            key = f"{owner.__name__}.{name}" if name.startswith("__") else name
            monkeypatch.setattr(owner, name, _counting(counts, key, getattr(owner, name)))
        traces = harness_module.run_experiment(config)
        refused = sum(t.status.startswith("guard_violation") for t in traces)
        assert refused == (algorithm == "renyi_unweighted")
        runs = 4 - refused  # a refused replicate stops in its first phase
        moves = 2 - refused  # one exploration per completed first phase
        steps = 3 * runs - 2 * refused
        assert steps == sum(r.step >= 1 for t in traces for r in t.records) + refused
        draws = steps if alpha == 1.0 else steps - refused + runs
        mean_updates = moves if exploration == "mean_update" else 0
        assert counts == {
            step: steps,
            "as_simplex": runs,
            "run_descent": runs,
            "sample_mixture": draws,
            "_DistancePlan.__init__": runs + mean_updates,
            "batch": draws + mean_updates,
            "MixtureState.__post_init__": runs + moves,
            "DescentParams.__post_init__": 2,
        }
        kl_step(traces[0].final_weights, MixtureGradient(np.zeros(5), 1.0), 0.3)
        assert counts["DescentParams.__post_init__"] == 3

    def test_recorded_bound_has_the_law_of_a_fresh_batch(self):
        # The step-1 bound must read like one scored on a new batch from
        # the step-1 mixture, and stay below log Z.  Scoring the new weights
        # on the gradient's own batch, with no importance correction, reads
        # about 2.5 here, far above log Z = log 2.
        seeds, m = 40, 20_000
        points = np.sqrt(5.0) * np.random.default_rng(0).standard_normal((5, 2))
        kernel = GaussianKernel(5.0 ** (-1.0 / 6.0), 2)
        state = MixtureState(np.full(5, 0.2), points, kernel)
        target = GaussianMixtureTarget([[-2.0, -2.0], [2.0, 2.0]], scale=2.0)
        recorded, fresh = np.empty(seeds), np.empty(seeds)
        for seed in range(seeds):
            trace = run_descent(
                state,
                DescentParams(0.5, 3.0),
                "emd",
                1,
                target=target,
                sample_count=m,
                rng=np.random.default_rng(seed),
            )
            w = trace.records[1].weights
            recorded[seed] = trace.records[1].vr_bound
            rng = np.random.default_rng(1000 + seed)
            samples = sample_mixture(w, points, kernel, m, rng)
            batch = sample_logs(w, points, kernel, target, samples)
            fresh[seed] = vr_bound_from_logs(batch.log_p, batch.log_q, 0.5)
        se_recorded = recorded.std(ddof=1) / np.sqrt(seeds)
        se_gap = np.hypot(se_recorded, fresh.std(ddof=1) / np.sqrt(seeds))
        assert abs(recorded.mean() - fresh.mean()) < 4.0 * se_gap
        assert recorded.mean() < np.log(target.scale) + 4.0 * se_recorded

    def test_kl_monitor_is_nan_at_alpha_one(self):
        state, target = self._setup(103)
        trace = run_descent(
            state,
            DescentParams(1.0, 0.3),
            "kl",
            4,
            target=target,
            sample_count=32,
            rng=np.random.default_rng(7),
        )
        assert all(math.isnan(r.vr_bound) for r in trace.records)
        assert all(math.isnan(r.objective) for r in trace.records)

    def test_requires_state_rng_and_samples(self):
        state, target = self._setup(104)
        params = DescentParams(0.5, 0.3)
        with pytest.raises(ValueError, match="MixtureState"):
            run_descent(
                np.full(4, 0.25), params, "emd", 1, target=target, sample_count=8,
                rng=np.random.default_rng(0),
            )
        with pytest.raises(ValueError, match="sample_count"):
            run_descent(
                state, params, "emd", 1, target=target, rng=np.random.default_rng(0)
            )
        with pytest.raises(ValueError, match="rng"):
            run_descent(state, params, "emd", 1, target=target, sample_count=8)


# The (algorithm, alpha, eta) grid of the exact benchmark runs: kl at
# alpha = 1, and power, renyi and emd over the criterion 1 alphas and etas.
EXACT_GRID = tuple(("kl", 1.0, eta) for eta in (0.1, 0.5, 1.0)) + tuple(
    (algorithm, alpha, eta)
    for algorithm in ("power", "renyi", "emd")
    for alpha in (-0.5, 0.0, 0.5, 0.99)
    for eta in (0.1, 0.5, 1.0)
)


def _public_step(algorithm, weights, grad, params):
    if algorithm == "power":
        return power_step(weights, grad, params)
    if algorithm == "emd":
        return emd_step(weights, grad, params)
    if algorithm == "kl":
        return kl_step(weights, grad, params.step_size)
    return renyi_step(
        weights, grad, params, unweighted_denominator=algorithm == "renyi_unweighted"
    )


def _arm(algorithm, unweighted):
    """The algorithm of a parametrised arm; ``unweighted`` marks the
    ``renyi_unweighted`` arm, which its test ids spell ``renyi-...-True``."""
    return "renyi_unweighted" if unweighted else algorithm


def _key(step, weights, vr_bound, objective, guard_min):
    """What a phase-1 record holds except its wall time, bit for bit."""
    return (step, weights.tobytes(), repr(vr_bound), repr(objective), repr(guard_min))


def _record_keys(trace):
    return [
        _key(r.step, r.weights, r.vr_bound, r.objective, r.guard_min)
        for r in trace.records
    ]


class TestRunDescentParity:
    """run_descent against a loop of the public, checked functions.

    Its records must be the ones the public gradient, step and objective
    give, bit for bit.
    """

    def test_exact_matches_public_loop(self):
        rng = np.random.default_rng(2024)
        for _ in range(4):
            problem = random_problem(rng)
            j = problem.num_components
            for algorithm, alpha, eta in EXACT_GRID:
                params = DescentParams(alpha, eta)
                trace = run_descent(
                    np.full(j, 1.0 / j), params, algorithm, 12, problem=problem
                )
                w = np.full(j, 1.0 / j)
                objective = divergence_exact(problem, w, alpha)
                want = [_key(0, w, np.nan, objective, np.nan)]
                for n in range(1, 13):
                    grad = gradient_exact(problem, w, alpha)
                    w, diag = _public_step(algorithm, w, grad, params)
                    objective = divergence_exact(problem, w, alpha)
                    want.append(_key(n, w, np.nan, objective, diag.guard_min))
                assert trace.status == "completed"
                assert _record_keys(trace) == want, (algorithm, alpha, eta)

    @pytest.mark.parametrize(
        "algorithm, alpha, unweighted",
        [
            ("power", 0.5, False),
            ("renyi", 0.5, False),
            ("renyi", 2.0, True),
            ("emd", 0.5, False),
            ("kl", 1.0, False),
        ],
    )
    def test_monte_carlo_matches_public_loop(self, algorithm, alpha, unweighted):
        algorithm = _arm(algorithm, unweighted)
        points = np.random.default_rng(7).normal(size=(5, 2))
        state = MixtureState(np.full(5, 0.2), points, GaussianKernel(0.8, 2))
        target = GaussianMixtureTarget([[0.5, 0.0], [-0.5, 0.3]])
        params = DescentParams(alpha, 0.3)
        trace = run_descent(
            state,
            params,
            algorithm,
            6,
            target=target,
            sample_count=40,
            rng=np.random.default_rng(8),
        )

        rng = np.random.default_rng(8)
        log_base = algorithm in ("power", "renyi")

        def batch(state):
            mixture = state.weights, state.points, state.kernel
            samples = sample_mixture(*mixture, 40, rng)
            return sample_logs(*mixture, target, samples)

        # one batch per iterate: it gives the iterate its bound, when the
        # bound is monitored, and then the next step its gradient
        logs = None if alpha == 1.0 else batch(state)
        vr = np.nan if logs is None else vr_bound_from_logs(logs.log_p, logs.log_q, alpha)
        want = [_key(0, state.weights, vr, np.nan, np.nan)]
        for n in range(1, 7):
            grad = gradient_monte_carlo_from_logs(
                batch(state) if logs is None else logs, alpha, log_base=log_base
            )
            new, diag = _public_step(algorithm, state.weights, grad, params)
            state = MixtureState(new, state.points, state.kernel)
            logs = None if alpha == 1.0 else batch(state)
            vr = np.nan if logs is None else vr_bound_from_logs(logs.log_p, logs.log_q, alpha)
            want.append(_key(n, new, vr, np.nan, diag.guard_min))
        assert trace.status == "completed"
        assert _record_keys(trace) == want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_loop_keeps_the_checks_of_the_steps_data(monkeypatch, algorithm, mode, bad):
    # inside the loop a step skips only what entry checked; a bad gradient
    # at step 3 is refused with the message a public step gives it: power
    # and renyi read log A_j, the others read values
    alpha = {"kl": 1.0, "renyi_unweighted": 2.0}.get(algorithm, 0.5)
    params = DescentParams(alpha, 0.3)
    size = 3 if mode == "exact" else 4
    if algorithm in ("power", "renyi"):
        log_a = np.zeros(size)
        log_a[1] = bad
        grad = MixtureGradient(None, alpha, log_base=log_a)
    else:
        values = np.zeros(size)
        values[1] = bad
        grad = MixtureGradient(values, alpha)
    want = _refusal(lambda: _public_step(algorithm, np.full(size, 1.0 / size), grad, params))
    assert want is not None

    name = "gradient_exact" if mode == "exact" else "gradient_monte_carlo_from_logs"
    calls = []
    original = getattr(descent_module, name)

    def bad_at_step_3(*args, **kwargs):
        calls.append(1)
        return grad if len(calls) == 3 else original(*args, **kwargs)

    monkeypatch.setattr(descent_module, name, bad_at_step_3)
    if mode == "exact":
        problem = random_problem(np.random.default_rng(77), num_components=3)
        kwargs = dict(problem=problem)
        initial = np.full(3, 1.0 / 3.0)
    else:
        rng = np.random.default_rng(105)
        initial = MixtureState(
            np.full(4, 0.25), rng.normal(size=(4, 2)), GaussianKernel(1.0, 2)
        )
        target = GaussianMixtureTarget([[0.0, 0.0]])
        kwargs = dict(target=target, sample_count=32, rng=np.random.default_rng(8))
    with pytest.raises(ValueError) as info:
        run_descent(initial, params, algorithm, 5, **kwargs)
    assert not isinstance(info.value, GuardViolation)
    assert str(info.value) == want
    assert len(calls) == 3


class TestSharedKernelMatrix:
    """Every arm reads the kernel block that ``sample_logs`` exponentiated
    once: the values arms through ``E / total``, power and weighted renyi
    through ``log A_j`` summed from ``E``.  The record grid holds the runs."""

    @staticmethod
    def _fig1_as_recorded(name):
        """The traces of the fig1 group ``name`` (two phases of one figure-1
        replicate at M=2000), within its tolerance of the stored records."""
        (stored, tolerance), traces = record_grid.load(), record_grid.traces(name)
        gaps = record_grid.difference(record_grid.records(traces, 5), stored[name]).ravel()
        assert (gaps[[0, 1, 3]] <= tolerance[name]).all(), gaps
        return traces, tolerance[name]

    @pytest.mark.parametrize(
        "algorithm, alpha, unweighted",
        [("emd", 0.5, False), ("renyi", 0.5, True), ("renyi", 2.0, True)],
    )
    def test_values_arms_match_the_frozen_estimator(self, algorithm, alpha, unweighted):
        # 1e-12 relative; at alpha = 0.5 the unweighted normaliser refuses
        # step 1, and the guard value it prints is held too
        (trace,), tolerance = self._fig1_as_recorded(
            f"fig1/{_arm(algorithm, unweighted)} alpha={alpha}"
        )
        assert tolerance[1:].tolist() == [1e-12, 1e-12]
        if (alpha, unweighted) == (0.5, True):
            assert trace.status.startswith("guard_violation: step 1 of phase 1")
        else:
            assert trace.status == "completed" and len(trace.records) == 41

    def test_kl_within_its_conditioning(self):
        # kl amplifies a last-digit change step after step, so its weights
        # are held to 10 times what a change of 4 ulps in every gradient
        # value moved them; its status text is held exactly
        (trace,), tolerance = self._fig1_as_recorded("fig1/kl alpha=1.0")
        assert trace.status.startswith("completed") and len(trace.records) == 41
        assert 0.0 < tolerance[0] < 1e-5

    @pytest.mark.parametrize(
        "algorithm, alpha", [("power", 0.5), ("renyi", 0.5), ("renyi", 2.0)]
    )
    def test_log_base_arms_match_the_frozen_estimator(self, algorithm, alpha):
        # power within 1e-12 relative; weighted renyi, which amplifies a
        # last-digit change on some states, within 10 times what a change of
        # 4 ulps in every log A_j moved the weights
        (trace,), tolerance = self._fig1_as_recorded(f"fig1/{algorithm} alpha={alpha}")
        assert trace.status == "completed" and len(trace.records) == 41
        if algorithm == "power":
            assert tolerance[1:].tolist() == [1e-12, 1e-12]
        else:
            assert 0.0 < tolerance[0] < 1e-5

    @pytest.mark.parametrize("algorithm", ["power", "renyi"])
    def test_spread_particles_take_the_row_fallback(self, monkeypatch, algorithm):
        # At init_cov_scale=50 some particles sit so far from every sample
        # that their row of E @ exp(c - S) underflows: an A_j summed in the
        # linear domain alone would read 0 and fire the power guard.  Those
        # rows are summed in the log domain, so both arms complete.
        fallbacks = []
        fallback_rows = SampleBatch._fallback_rows

        def counted(batch, sums, t):
            out = fallback_rows(batch, sums, t)
            fallbacks.append(out[0].tolist())
            return out

        monkeypatch.setattr(SampleBatch, "_fallback_rows", counted)
        (trace,), _ = self._fig1_as_recorded(f"fig1/{algorithm} alpha=0.5 init_cov_scale=50.0")
        assert trace.status == "completed" and len(trace.records) == 41
        assert len(fallbacks) == 40 and any(fallbacks)

    @pytest.mark.parametrize("algorithm", ["power", "renyi", "emd"])
    def test_zero_weight_rows_stay_finite_and_zero(self, monkeypatch, algorithm):
        # Row 0 sits on a weighted particle, so its ratio to q is large; row
        # 5 sits far from every sample, so its row of E underflows.  Neither
        # brings +inf into log A_j or the values, and zero weights stay 0.
        seen = []

        def spied(*args, **kwargs):
            grad = gradient_monte_carlo_from_logs(*args, **kwargs)
            seen.append(grad.values if grad.log_base is None else grad.log_base)
            return grad

        monkeypatch.setattr(descent_module, "gradient_monte_carlo_from_logs", spied)
        (trace,) = record_grid.traces(f"zero_weight/{algorithm}")
        assert trace.status == "completed" and len(seen) == 20 and np.isfinite(seen).all()
        assert all((r.weights[[0, 5, 11]] == 0.0).all() for r in trace.records)

    @pytest.mark.parametrize(
        "algorithm, alpha, unweighted",
        [
            ("emd", 0.5, False),
            ("kl", 1.0, False),
            ("renyi", 2.0, True),
            ("power", 0.5, False),
            ("renyi", 0.5, False),
        ],
    )
    def test_a_step_holds_one_kernel_matrix(self, algorithm, alpha, unweighted):
        # Peak memory of a step at the figure-1 shape, for every arm: one
        # (J, M) matrix, its draw and its O(M) vectors.  A step that formed
        # the ratios or the log A_j terms in a second matrix, or kept the
        # last batch's matrix while the next one is drawn, peaks at two
        # (about 2.5 here).
        j, m, d = 100, 2000, 16
        rng = np.random.default_rng(96)
        state = MixtureState(
            np.full(j, 1.0 / j), math.sqrt(5.0) * rng.standard_normal((j, d)),
            GaussianKernel(bandwidth_rule(j, d), d),
        )
        target = GaussianMixtureTarget([-2.0 * np.ones(d), 2.0 * np.ones(d)], scale=2.0)

        def run():
            return run_descent(
                state, DescentParams(alpha, 0.067), _arm(algorithm, unweighted), 3,
                target=target, sample_count=m, rng=np.random.default_rng(97),
            )

        run()  # first calls allocate caches that are not the step's
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = run()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert trace.status == "completed"
        assert peak <= j * m * 8 + 4 * (j + m) * d * 8, peak / (j * m * 8)


class TestRunDescentBoundary:
    """Inputs are refused at entry, before any step or monitor runs."""

    def _mc_setup(self):
        points = np.random.default_rng(3).normal(size=(3, 2))
        state = MixtureState(np.full(3, 1.0 / 3.0), points, GaussianKernel(1.0, 2))
        return state, GaussianMixtureTarget([[0.0, 0.0]])

    def _refused_before_any_draw(self, state, target, params, algorithm, match):
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=match):
            run_descent(
                state, params, algorithm, 3, target=target, sample_count=8, rng=rng
            )
        # not even the initial monitor drew a sample
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("sample_count", [2.5, True, "3", 0])
    def test_sample_count_must_be_a_positive_integer(self, sample_count):
        # 2.5 and True used to pass and die inside the first draw with
        # numpy's TypeError
        state, target = self._mc_setup()
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        match = ">= 1" if sample_count == 0 else "sample_count must be an integer"
        with pytest.raises(ValueError, match=match):
            run_descent(
                state, DescentParams(0.5, 0.5), "emd", 3, target=target,
                sample_count=sample_count, rng=rng,
            )
        assert rng.bit_generator.state == before

    def test_numpy_integer_sample_count_accepted(self):
        state, target = self._mc_setup()
        trace = run_descent(
            state, DescentParams(0.5, 0.5), "emd", 2, target=target,
            sample_count=np.int64(8), rng=np.random.default_rng(4),
        )
        assert trace.status == "completed" and len(trace.records) == 3

    def test_off_simplex_weights_refused(self):
        problem = random_problem(np.random.default_rng(91), num_components=3)
        params = DescentParams(0.5, 0.5)
        for weights, match in (
            ([0.5, 0.5, 0.5], "sum to 1"),
            ([0.7, 0.7, -0.4], "nonnegative"),
            ([0.5, np.nan, 0.5], "finite"),
        ):
            with pytest.raises(ValueError, match=match):
                run_descent(weights, params, "emd", 3, problem=problem)
        state, target = self._mc_setup()
        state.weights[0] = 0.9  # mutated after the state checked it
        self._refused_before_any_draw(state, target, params, "emd", "sum to 1")

    def test_power_step_size_above_one_refused(self):
        problem = random_problem(np.random.default_rng(92), num_components=3)
        params = DescentParams(0.5, 1.5)
        with pytest.raises(ValueError, match="power step needs"):
            run_descent(np.full(3, 1.0 / 3.0), params, "power", 3, problem=problem)
        state, target = self._mc_setup()
        self._refused_before_any_draw(
            state, target, params, "power", "power step needs"
        )
        # emd has no such limit
        run_descent(np.full(3, 1.0 / 3.0), params, "emd", 3, problem=problem)

    def test_target_of_another_dimension_refused(self):
        # the entry check is the only one: sample_logs does not look again
        state, _ = self._mc_setup()
        target = GaussianMixtureTarget([[0.0, 0.0, 0.0]])
        for algorithm, alpha in (("power", 0.5), ("emd", 0.5), ("kl", 1.0)):
            self._refused_before_any_draw(
                state, target, DescentParams(alpha, 0.5), algorithm, "dimension mismatch"
            )

    def test_renyi_shift_sign_refused(self):
        state, target = self._mc_setup()
        self._refused_before_any_draw(
            state, target, DescentParams(0.5, 0.5, shift=1.0), "renyi",
            r"\(alpha-1\)\*shift >= 0",
        )
        self._refused_before_any_draw(
            state, target, DescentParams(1.0, 0.5), "renyi", "undefined at alpha=1"
        )


class TestRateConstants:
    def _params(self):
        # (alpha-1) * shift = 0.5 > 0, margin = 1 - 0.2*1/2 = 0.9
        return DescentParams(0.5, 0.2, shift=-1.0)

    def test_validation(self):
        params = self._params()
        with pytest.raises(ValueError):
            RateConstants.from_grad_bound(1.0, DescentParams(0.5, 0.2), 10)
        with pytest.raises(ValueError):
            RateConstants.from_grad_bound(0.0, params, 10)
        with pytest.raises(ValueError):
            RateConstants.from_grad_bound(np.inf, params, 10)
        with pytest.raises(ValueError):
            RateConstants.from_grad_bound(1.0, params, 0)
        with pytest.raises(ValueError, match="too large"):
            RateConstants.from_grad_bound(10.0, params, 10)

    def test_component_values(self):
        params = self._params()
        consts = RateConstants.from_grad_bound(1.0, params, 10)
        c = 1.0 / ((0.5 - 1.0) * -1.0)  # = 2
        assert consts.grad_bound == 1.0
        assert consts.prefactor == pytest.approx(0.5 * (1.0 + 1.0) / 0.2)
        assert consts.smoothness == pytest.approx(0.2**2 * math.exp(4 * 0.2 * c))
        assert consts.exp_sup == pytest.approx(math.exp(-2 * 0.2 * c))
        assert consts.monotone_const == pytest.approx(
            (1 - 0.2 * 1.0 / 1.0) * 0.2 * math.exp(2 * 0.2 * c)
        )
        assert consts.kl_init_bound == pytest.approx(math.log(10.0))
        assert consts.init_gap_bound == pytest.approx(math.sqrt(2 * math.log(10.0)))

    def test_bound_matches_closed_form(self):
        # all the exponentials cancel: the bound collapses to
        # |a-1|(B+|k|)/N [log J / step + sqrt(2 log J) B / ((a-1) k margin)]
        for alpha, shift, eta, bound, j in [
            (0.5, -1.0, 0.2, 1.0, 10),
            (2.0, 0.5, 0.1, 3.0, 25),
            (-0.5, -2.0, 0.05, 4.0, 100),
        ]:
            params = DescentParams(alpha, eta, shift=shift)
            consts = RateConstants.from_grad_bound(bound, params, j)
            margin = 1.0 - eta * bound / abs(shift)
            want = (
                abs(alpha - 1.0)
                * (bound + abs(shift))
                * (
                    math.log(j) / eta
                    + math.sqrt(2 * math.log(j))
                    * bound
                    / ((alpha - 1.0) * shift * margin)
                )
            )
            for n in (1, 7, 100):
                got = rate_bound(consts, n, params)
                assert math.isclose(got, want / n, rel_tol=1e-12)

    def test_decays_exactly_like_one_over_n(self):
        params = self._params()
        consts = RateConstants.from_grad_bound(1.0, params, 10)
        b1 = rate_bound(consts, 1, params)
        assert rate_bound(consts, 2, params) == pytest.approx(b1 / 2, rel=1e-15)
        assert rate_bound(consts, 10, params) == pytest.approx(b1 / 10, rel=1e-15)

    def test_bound_validation(self):
        params = self._params()
        consts = RateConstants.from_grad_bound(1.0, params, 10)
        with pytest.raises(ValueError):
            rate_bound(consts, 0, params)
        with pytest.raises(ValueError):
            rate_bound(consts, 5, DescentParams(0.5, 0.2))
