"""Update rules, the descent driver and the 1/N rate bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alpha_descent.descent as descent_module
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
from alpha_descent.fixtures import random_problem, random_weights
from alpha_descent.gradient import (
    MixtureGradient,
    MixtureState,
    gradient_exact,
    gradient_monte_carlo_from_logs,
    sample_mixture,
)
from alpha_descent.model import (
    FiniteSupportProblem,
    GaussianKernel,
    GaussianMixtureTarget,
    sample_logs,
)


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

    def test_shift_is_cosmetic(self):
        # a constant shift cancels in the normalisation
        a, _ = emd_step([0.3, 0.7], np.array([0.2, -0.4]), DescentParams(0.5, 0.8))
        b, _ = emd_step(
            [0.3, 0.7], np.array([0.2, -0.4]), DescentParams(0.5, 0.8, shift=-3.0)
        )
        assert np.allclose(a, b, atol=1e-15)

    def test_zero_weights_preserved(self):
        new, _ = emd_step([0.0, 1.0], np.array([-50.0, 0.0]), DescentParams(0.5, 1.0))
        assert new[0] == 0.0 and new[1] == 1.0


class TestKlStep:
    def test_matches_emd_bitwise_at_zero_shift(self):
        rng = np.random.default_rng(61)
        w = random_weights(rng, 5)
        b = rng.normal(size=5)
        kl_new, _ = kl_step(w, b, 0.7)
        emd_new, _ = emd_step(w, b, DescentParams(1.0, 0.7))
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


def _log_base_gradient(log_a, alpha):
    log_a = np.asarray(log_a, dtype=float)
    with np.errstate(over="ignore"):
        values = np.expm1(log_a) / (alpha - 1.0)
    return MixtureGradient(values, alpha, log_base=log_a)


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
            grad = _log_base_gradient(rng.uniform(-1.0, 1.0, size=5), alpha)
            new, diag = power_step(w, grad, params)
            want, want_diag = power_step(w, grad.values, params)
            assert np.allclose(new, want, rtol=1e-12, atol=0)
            assert diag.guard_min == pytest.approx(want_diag.guard_min, rel=1e-12)

    def test_renyi_matches_values_form(self):
        # the constant step / ((alpha-1) D) dropped from the log factors
        # cancels on renormalisation
        rng = np.random.default_rng(72)
        for alpha, shift in self.CASES:
            params = DescentParams(alpha, 0.7, shift=shift)
            w = random_weights(rng, 5)
            grad = _log_base_gradient(rng.uniform(-1.0, 1.0, size=5), alpha)
            new, diag = renyi_step(w, grad, params)
            want, want_diag = renyi_step(w, grad.values, params)
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

    def test_unweighted_denominator_reads_values(self):
        grad = _log_base_gradient(np.array([0.2, -0.3, 0.5]), 0.5)
        params = DescentParams(0.5, 0.5, shift=-0.2)
        new, _ = renyi_step([0.2, 0.3, 0.5], grad, params, unweighted_denominator=True)
        want, _ = renyi_step(
            [0.2, 0.3, 0.5], grad.values, params, unweighted_denominator=True
        )
        assert np.array_equal(new, want)


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
        emd_step(w, b, params)[0],
        kl_step(w, b, 0.8)[0],
        renyi_step(w, b, params)[0],
    ]
    for new in outputs:
        assert new.shape == w.shape
        assert np.all(new >= 0)
        assert math.isclose(new.sum(), 1.0, rel_tol=0, abs_tol=1e-12)
        assert np.all(new[w == 0] == 0)


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

    def test_record_initial_off(self):
        problem = self._problem(85)
        trace = run_descent(
            np.full(3, 1.0 / 3.0),
            DescentParams(0.5, 0.5),
            "power",
            3,
            problem=problem,
            record_initial=False,
        )
        assert [r.step for r in trace.records] == [1, 2, 3]

    @pytest.mark.parametrize("record_initial", [True, False])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_one_log_mixture_per_iterate(self, monkeypatch, algorithm, record_initial):
        # N steps visit N+1 iterates; the gradient of step 1 reads the
        # starting one even when its record is skipped
        calls = []
        log_mixture = FiniteSupportProblem.log_mixture

        def counted(problem, weights):
            calls.append(1)
            return log_mixture(problem, weights)

        monkeypatch.setattr(FiniteSupportProblem, "log_mixture", counted)
        trace = run_descent(
            np.full(3, 1.0 / 3.0),
            DescentParams(0.5, 0.5),
            algorithm,
            7,
            problem=self._problem(91),
            record_initial=record_initial,
        )
        assert trace.status == "completed"
        assert len(calls) == 8

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

    def test_kl_uses_alpha_one_gradient(self):
        # params.alpha is ignored by the kl update's gradient
        problem = self._problem(87)
        a = run_descent(
            np.full(3, 1.0 / 3.0), DescentParams(0.5, 0.5), "kl", 5, problem=problem
        )
        b = run_descent(
            np.full(3, 1.0 / 3.0), DescentParams(2.0, 0.5), "kl", 5, problem=problem
        )
        assert np.array_equal(a.final_weights, b.final_weights)

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
                "renyi",
                10,
                problem=problem,
                unweighted_denominator=True,
            )
        err = info.value
        assert "step 1 of phase 1" in str(err)
        assert err.iteration == 1
        assert isinstance(err.partial, DescentTrace)
        assert len(err.partial.records) == 1  # just the initial record
        assert err.partial.status.startswith("guard_violation")


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

    @pytest.mark.parametrize("record_initial", [True, False])
    @pytest.mark.parametrize(
        "algorithm, alpha, draws",
        [("power", 0.5, 8), ("renyi", 0.5, 8), ("emd", 0.5, 8), ("kl", 1.0, 7)],
    )
    def test_one_batch_per_iterate(
        self, monkeypatch, algorithm, alpha, draws, record_initial
    ):
        # 7 steps visit 8 iterates and draw one batch at each: it gives the
        # iterate its bound and the next step its gradient.  The kl run
        # monitors nothing at alpha = 1, so its last iterate draws none.
        calls = []
        sample = descent_module.sample_mixture

        def counted(*args, **kwargs):
            calls.append(1)
            return sample(*args, **kwargs)

        monkeypatch.setattr(descent_module, "sample_mixture", counted)
        state, target = self._setup(102)
        trace = run_descent(
            state,
            DescentParams(alpha, 0.3),
            algorithm,
            7,
            target=target,
            sample_count=32,
            rng=np.random.default_rng(6),
            record_initial=record_initial,
        )
        assert trace.status == "completed"
        assert len(trace.records) == 7 + record_initial
        assert len(calls) == draws

    @pytest.mark.parametrize(
        "algorithm, alpha",
        [("power", 0.5), ("renyi", 0.5), ("emd", 0.5), ("kl", 1.0)],
    )
    def test_no_state_built_after_entry(self, monkeypatch, algorithm, alpha):
        # the state is checked once, at entry; every stepped iterate is
        # sampled from its weights and the entry's points and kernel
        state, target = self._setup(104)
        builds = []
        check = MixtureState.__post_init__

        def counted(self):
            builds.append(1)
            check(self)

        monkeypatch.setattr(MixtureState, "__post_init__", counted)
        trace = run_descent(
            state,
            DescentParams(alpha, 0.3),
            algorithm,
            5,
            target=target,
            sample_count=32,
            rng=np.random.default_rng(7),
        )
        assert trace.status == "completed"
        assert len(trace.records) == 6
        assert builds == []

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
            _, log_q, log_p = sample_logs(w, points, kernel, target, samples)
            fresh[seed] = vr_bound_from_logs(log_p, log_q, 0.5)
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


def _public_step(algorithm, weights, grad, params, unweighted_denominator=False):
    if algorithm == "power":
        return power_step(weights, grad, params)
    if algorithm == "emd":
        return emd_step(weights, grad, params)
    if algorithm == "kl":
        return kl_step(weights, grad, params.step_size)
    return renyi_step(weights, grad, params, unweighted_denominator)


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
        "algorithm, alpha, unweighted, record_initial",
        [
            ("power", 0.5, False, False),
            ("renyi", 0.5, False, True),
            ("renyi", 2.0, True, False),
            ("emd", 0.5, False, True),
            ("kl", 1.0, False, False),
        ],
    )
    def test_monte_carlo_matches_public_loop(
        self, algorithm, alpha, unweighted, record_initial
    ):
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
            unweighted_denominator=unweighted,
            record_initial=record_initial,
        )

        rng = np.random.default_rng(8)
        grad_alpha = 1.0 if algorithm == "kl" else alpha
        log_base = algorithm == "power" or (algorithm == "renyi" and not unweighted)

        def batch(state):
            mixture = state.weights, state.points, state.kernel
            samples = sample_mixture(*mixture, 40, rng)
            return sample_logs(*mixture, target, samples)

        # one batch per iterate: it gives the iterate its bound, when the
        # bound is monitored, and then the next step its gradient
        logs = None if alpha == 1.0 else batch(state)
        want = []
        if record_initial:
            vr = np.nan if logs is None else vr_bound_from_logs(logs[2], logs[1], alpha)
            want.append(_key(0, state.weights, vr, np.nan, np.nan))
        for n in range(1, 7):
            log_k, log_q, log_p = batch(state) if logs is None else logs
            grad = gradient_monte_carlo_from_logs(
                log_k,
                log_p,
                state.weights,
                grad_alpha,
                log_base=log_base,
                log_mixture=log_q,
            )
            new, diag = _public_step(
                algorithm, state.weights, grad, params, unweighted
            )
            state = MixtureState(new, state.points, state.kernel)
            logs = None if alpha == 1.0 else batch(state)
            vr = np.nan if logs is None else vr_bound_from_logs(logs[2], logs[1], alpha)
            want.append(_key(n, new, vr, np.nan, diag.guard_min))
        assert trace.status == "completed"
        assert _record_keys(trace) == want


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
                got = rate_bound(consts, n, params, j)
                assert math.isclose(got, want / n, rel_tol=1e-12)

    def test_decays_exactly_like_one_over_n(self):
        params = self._params()
        consts = RateConstants.from_grad_bound(1.0, params, 10)
        b1 = rate_bound(consts, 1, params, 10)
        assert rate_bound(consts, 2, params, 10) == pytest.approx(b1 / 2, rel=1e-15)
        assert rate_bound(consts, 10, params, 10) == pytest.approx(b1 / 10, rel=1e-15)

    def test_bound_validation(self):
        params = self._params()
        consts = RateConstants.from_grad_bound(1.0, params, 10)
        with pytest.raises(ValueError):
            rate_bound(consts, 0, params, 10)
        with pytest.raises(ValueError):
            rate_bound(consts, 5, DescentParams(0.5, 0.2), 10)
