import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idletune import (
    EstimatorState,
    InfeasibleTargetError,
    ModelParams,
    SimResult,
    SystemConfig,
    TimeoutSolution,
    TunerConfig,
    WindowStats,
    failure_probability,
    feasibility_bound,
    simulate_failure_prob,
    solve_timeout,
    solve_timeout_exact,
    solve_timeout_large_n,
    state_probability,
)
from oracles import bound_ref, failure_prob_ref, state_prob_ref

POOL_N800 = ModelParams(800, 8.3e-4, 0.3947)
POOL_N150 = ModelParams(150, 1.39e-3, 0.1338)
POOL_N10K = ModelParams(10_000, 0.06, 0.5887)

valid_params = st.builds(
    ModelParams,
    n_users=st.integers(min_value=1, max_value=5000),
    beta=st.floats(min_value=1e-6, max_value=100.0, allow_nan=False),
    xi=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


class TestModelParams:
    def test_accepts_boundary_xi(self):
        ModelParams(1, 1.0, 0.0)
        ModelParams(1, 1.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_users=0, beta=1.0, xi=0.5),
            dict(n_users=-3, beta=1.0, xi=0.5),
            dict(n_users=10, beta=0.0, xi=0.5),
            dict(n_users=10, beta=-1.0, xi=0.5),
            dict(n_users=10, beta=math.inf, xi=0.5),
            dict(n_users=10, beta=1.0, xi=-0.1),
            dict(n_users=10, beta=1.0, xi=1.1),
            dict(n_users=10.5, beta=1.0, xi=0.5),
            dict(n_users=True, beta=1.0, xi=0.5),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestStateProbability:
    def test_starts_in_state_zero(self):
        assert state_probability(POOL_N150, 0, 0.0) == 1.0

    def test_other_states_empty_at_time_zero(self):
        assert state_probability(POOL_N150, 5, 0.0) == 0.0

    def test_matches_binomial_oracle(self):
        # k=7 of 20 users within 50 s at rate 0.01: success prob 1 - e^-0.5
        got = state_probability(ModelParams(20, 0.01, 0.3), 7, 50.0)
        want = state_prob_ref(20, 0.01, 50.0, 7)
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n,beta_t", [(10, 0.1), (100, 1.0), (1000, 0.01)])
    def test_oracle_agreement_across_chain(self, n, beta_t):
        params = ModelParams(n, beta_t, 0.5)
        for k in range(n + 1):
            got = state_probability(params, k, 1.0)
            want = state_prob_ref(n, beta_t, 1.0, k)
            if got < 1e-280 and want < 1e-280:
                continue
            assert got == pytest.approx(want, rel=1e-12)

    @given(
        st.builds(
            ModelParams,
            n_users=st.integers(min_value=1, max_value=400),
            beta=st.floats(min_value=1e-6, max_value=100.0, allow_nan=False),
            xi=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_normalization(self, params, t):
        total = sum(state_probability(params, k, t) for k in range(params.n_users + 1))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_large_population_does_not_overflow(self):
        params = ModelParams(200_000, 1e-3, 0.5)
        value = state_probability(params, 100_000, 700.0)
        assert 0.0 <= value <= 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            state_probability(POOL_N150, 0, -1.0)
        with pytest.raises(ValueError):
            state_probability(POOL_N150, 151, 1.0)


class TestFailureProbability:
    def test_zero_timeout_always_fails(self):
        assert failure_probability(POOL_N150, 0.0) == 1.0

    def test_unmarked_traffic_always_fails(self):
        assert failure_probability(ModelParams(100, 0.5, 0.0), 1e6) == 1.0

    def test_reference_point_round_trip(self):
        assert failure_probability(POOL_N150, 87.03) == pytest.approx(0.1, abs=0.005)

    def test_hand_checked_point(self):
        got = failure_probability(ModelParams(20, 0.01, 0.3), 50.0)
        assert got == pytest.approx(0.0811, rel=5e-3)
        assert got == pytest.approx(failure_prob_ref(20, 0.01, 0.3, 50.0), rel=1e-13)

    @pytest.mark.parametrize(
        "params,t",
        [
            # survivor level on either side of the internal branch point
            (ModelParams(10, 1.0, 0.49), 40.0),
            (ModelParams(10, 1.0, 0.51), 40.0),
            (ModelParams(30, 0.2, 0.999), 25.0),
            (ModelParams(5, 3.0, 1.0), 2.0),
            (ModelParams(1000, 1e-4, 0.05), 100.0),
        ],
    )
    def test_both_branches_match_oracle(self, params, t):
        got = failure_probability(params, t)
        want = failure_prob_ref(params.n_users, params.beta, params.xi, t)
        if got == 0.0 and want < 5e-324:
            return
        assert got == pytest.approx(want, rel=1e-12)

    def test_fully_marked_limit(self):
        # beta*t = 50 with xi = 1 leaves essentially no surviving mass
        assert failure_probability(ModelParams(1, 1.0, 1.0), 50.0) < 1e-6

    @given(
        valid_params,
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_nonincreasing_in_timeout(self, params, t, factor):
        p_low = failure_probability(params, t)
        p_high = failure_probability(params, t + factor)
        assert p_high <= p_low + 1e-15

    @given(valid_params, st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_nonincreasing_in_population_and_marking(self, params, t):
        p = failure_probability(params, t)
        grown = ModelParams(params.n_users + 10, params.beta, params.xi)
        assert failure_probability(grown, t) <= p + 1e-15
        if params.xi <= 0.9:
            brighter = ModelParams(params.n_users, params.beta, params.xi + 0.1)
            assert failure_probability(brighter, t) <= p + 1e-15

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            failure_probability(POOL_N150, -0.1)


class TestFeasibilityBound:
    def test_certain_marking_floor_is_zero(self):
        assert feasibility_bound(ModelParams(7, 1.0, 1.0)) == 0.0

    def test_no_marking_floor_is_one(self):
        assert feasibility_bound(ModelParams(7, 1.0, 0.0)) == 1.0

    def test_n150_value(self):
        bound = feasibility_bound(POOL_N150)
        assert bound == pytest.approx(4.37e-10, rel=0.01)
        assert bound == pytest.approx(bound_ref(150, 0.1338), rel=1e-13)

    @given(valid_params)
    @settings(max_examples=60, deadline=None)
    def test_is_long_timeout_limit(self, params):
        bound = feasibility_bound(params)
        assert failure_probability(params, 1e9 / params.beta) <= bound * (1 + 1e-9) + 1e-300


class TestSolveTimeoutExact:
    def test_n150_point(self):
        assert solve_timeout_exact(POOL_N150, 0.1) == pytest.approx(87.03, rel=0.01)

    def test_n800_point(self):
        assert solve_timeout_exact(POOL_N800, 0.1) == pytest.approx(8.75, rel=0.01)

    def test_target_below_floor_rejected(self):
        with pytest.raises(InfeasibleTargetError) as err:
            solve_timeout_exact(POOL_N150, 1e-12)
        assert err.value.bound == pytest.approx(4.37e-10, rel=0.01)

    def test_unmarked_traffic_rejected(self):
        with pytest.raises(InfeasibleTargetError):
            solve_timeout_exact(ModelParams(100, 0.5, 0.0), 0.1)

    def test_target_equal_to_floor_rejected(self):
        params = ModelParams(20, 0.1, 0.4)
        with pytest.raises(InfeasibleTargetError):
            solve_timeout_exact(params, feasibility_bound(params))

    def test_eps_outside_unit_interval(self):
        with pytest.raises(ValueError):
            solve_timeout_exact(POOL_N150, 0.0)
        with pytest.raises(ValueError):
            solve_timeout_exact(POOL_N150, 1.5)

    @given(
        valid_params,
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6, exclude_max=True),
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, params, margin):
        # place the target a controlled margin above the attainable floor
        bound = feasibility_bound(params)
        eps = bound + (1.0 - bound) * margin
        if not bound < eps < 1.0:
            return
        t = solve_timeout_exact(params, eps)
        assert t > 0.0
        assert failure_probability(params, t) == pytest.approx(eps, rel=1e-9)


class TestSolveTimeoutLargeN:
    def test_n10k_point(self):
        assert solve_timeout_large_n(POOL_N10K, 0.1) == pytest.approx(0.0065, rel=0.03)

    def test_n800_point(self):
        assert solve_timeout_large_n(POOL_N800, 0.1) == pytest.approx(8.75, rel=0.01)

    def test_eps_one_needs_no_wait(self):
        assert solve_timeout_large_n(POOL_N150, 1.0) == 0.0

    def test_unmarked_traffic_rejected(self):
        with pytest.raises(InfeasibleTargetError):
            solve_timeout_large_n(ModelParams(100, 0.5, 0.0), 0.1)

    def test_target_at_or_below_floor_rejected(self):
        # the approximation cannot rescue an unattainable target either
        params = ModelParams(20, 0.1, 0.4)
        for eps in (feasibility_bound(params), 1e-9):
            with pytest.raises(InfeasibleTargetError) as err:
                solve_timeout_large_n(params, eps)
            assert err.value.bound == feasibility_bound(params)


class TestSolveTimeout:
    def test_small_population_uses_exact(self):
        solution = solve_timeout(POOL_N150, 0.1)
        assert solution.expression == "exact"
        assert solution.timeout_s == pytest.approx(87.03, rel=0.01)
        assert solution.target_eps == 0.1
        assert solution.feasibility_bound == feasibility_bound(POOL_N150)

    def test_large_population_uses_approximation(self):
        solution = solve_timeout(POOL_N10K, 0.1)
        assert solution.expression == "large-n"
        assert solution.timeout_s == pytest.approx(0.0065, rel=0.03)

    def test_forced_exact_agrees_at_scale(self):
        forced = solve_timeout(POOL_N10K, 0.1, "exact")
        assert forced.expression == "exact"
        approx = solve_timeout_large_n(POOL_N10K, 0.1)
        assert abs(forced.timeout_s - approx) / forced.timeout_s < 0.01

    def test_each_label_solves_with_its_own_inversion(self):
        # the two inversions differ by 5% at N=150, so a mislabelled one shows
        assert solve_timeout(POOL_N150, 0.1, "exact").timeout_s == solve_timeout_exact(POOL_N150, 0.1)
        assert solve_timeout(POOL_N150, 0.1, "large-n").timeout_s == solve_timeout_large_n(POOL_N150, 0.1)
        assert solve_timeout_exact(POOL_N150, 0.1) != pytest.approx(solve_timeout_large_n(POOL_N150, 0.1), rel=0.01)

    def test_threshold_is_configurable(self):
        low = solve_timeout(POOL_N150, 0.1, large_n_threshold=100)
        assert low.expression == "large-n"
        # auto keeps the exact inversion up to the threshold itself
        assert solve_timeout(POOL_N150, 0.1, large_n_threshold=150).expression == "exact"

    def test_infeasible_regardless_of_expression(self):
        for expression in ("auto", "exact", "large-n"):
            with pytest.raises(InfeasibleTargetError):
                solve_timeout(POOL_N150, 1e-12, expression)

    def test_eps_must_be_interior(self):
        with pytest.raises(ValueError):
            solve_timeout(POOL_N150, 1.0)
        with pytest.raises(ValueError):
            solve_timeout(POOL_N150, 0.0)

    @pytest.mark.parametrize("expression", ["bogus", "EXACT", None, 1])
    def test_unknown_label_is_rejected(self, expression):
        with pytest.raises(ValueError) as err:
            solve_timeout(POOL_N150, 0.1, expression)
        assert str(err.value) == f"expression must be auto, exact, or large-n, got {expression!r}"

    def test_tuner_config_checks_the_solve_arguments(self):
        with pytest.raises(ValueError, match="expression must be auto, exact, or large-n, got 'bogus'"):
            TunerConfig(target_eps=0.1, n_users=150, expression="bogus")
        with pytest.raises(ValueError, match="large_n_threshold must be >= 1, got 0"):
            TunerConfig(target_eps=0.1, n_users=150, large_n_threshold=0)
        config = TunerConfig(target_eps=0.1, n_users=150, expression="large-n", large_n_threshold=100)
        assert (config.expression, config.large_n_threshold) == ("large-n", 100)


class TestTimeoutSolution:
    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            TimeoutSolution(0.0, 0.1, "exact", 0.01)

    def test_rejects_target_at_floor(self):
        with pytest.raises(ValueError):
            TimeoutSolution(5.0, 0.01, "exact", 0.01)


def system(**change) -> SystemConfig:
    fields = dict(n_users=5, beta=0.1, xi=0.5, n_processes=2, idle_timeout_s=1.0, duration_s=10.0)
    return SystemConfig(**{**fields, **change})


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ModelParams(True, 0.1, 0.5), "n_users must be an integer, got True"),
        (lambda: system(n_processes=2.5), "n_processes must be an integer, got 2.5"),
        (lambda: system(n_processes=True), "n_processes must be an integer, got True"),
        (lambda: system(n_processes=0), "n_processes must be >= 1, got 0"),
        (lambda: system(process_life=2.5), "process_life must be an integer, got 2.5"),
        (lambda: system(process_life=True), "process_life must be an integer, got True"),
        (lambda: simulate_failure_prob(POOL_N150, 1.0, 2.5, 0), "trials must be an integer, got 2.5"),
        (lambda: simulate_failure_prob(POOL_N150, 1.0, True, 0), "trials must be an integer, got True"),
        (lambda: simulate_failure_prob(POOL_N150, 1.0, 0, 0), "trials must be >= 1, got 0"),
        (lambda: solve_timeout(POOL_N150, 0.1, large_n_threshold=2.5), "large_n_threshold must be an integer, got 2.5"),
        (lambda: solve_timeout(POOL_N150, 0.1, large_n_threshold=0), "large_n_threshold must be >= 1, got 0"),
        (lambda: EstimatorState(1.5, 0.5, 0.01), "iteration must be an integer, got 1.5"),
        (lambda: EstimatorState(True, 0.5, 0.01), "iteration must be an integer, got True"),
        (lambda: EstimatorState(-1, 0.5, 0.01), "iteration must be >= 0, got -1"),
        (lambda: WindowStats.from_counts(0, 10, 2.5, 1, 5), "n_requests must be an integer, got 2.5"),
        (lambda: WindowStats.from_counts(0, 10, 3, 1.5, 5), "n_marked must be an integer, got 1.5"),
        (lambda: WindowStats.from_counts(0, 10, -1, 0, 5), "n_requests must be >= 0, got -1"),
        (lambda: WindowStats.from_counts(0, 10, True, 0, 5), "n_requests must be an integer, got True"),
        (lambda: WindowStats.from_counts(0, 10, 3, -1, 5), "n_marked must be >= 0, got -1"),
        (lambda: WindowStats(0.0, 10.0, 2.5, 1, 0.4, 0.05, False), "n_requests must be an integer, got 2.5"),
        (lambda: WindowStats(0.0, 10.0, 2, True, 0.5, 0.04, False), "n_marked must be an integer, got True"),
        (lambda: SimResult(2.5, 1, 0.4, 0.1, 0), "trials must be an integer, got 2.5"),
        (lambda: SimResult(10, 1.5, 0.15, 0.1, 0), "failures must be an integer, got 1.5"),
        (lambda: SimResult(10, -1, 0.0, 0.0, 0), "failures must be >= 0, got -1"),
    ],
)
def test_every_count_is_checked_like_n_users(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message
