import json
import logging
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idletune import (
    CannotInitializeError,
    EstimatorState,
    InfeasibleTargetError,
    SinkError,
    StepSchedule,
    TunerConfig,
    TunerRecord,
    WindowStats,
    init_state,
    recommend,
    run_tuner,
    should_publish,
    step_size,
    update,
)


def window(chi: float, theta: float, n_users: int = 50, start: float = 0.0, window_s: float = 1000.0) -> WindowStats:
    """Build a window whose counts approximate the requested chi and theta.

    Counts are integers, so the realized stats.chi may be quantized; tests
    needing exact observations read it back from the returned window.
    """
    n_requests = round(theta * n_users * window_s)
    n_marked = round(chi * n_requests)
    return WindowStats.from_counts(start, window_s, n_requests, n_marked, n_users)


def empty_window(start: float = 0.0, window_s: float = 1000.0) -> WindowStats:
    return WindowStats.from_counts(start, window_s, 0, 0, 50)


class TestStepSize:
    def test_harmonic_first_steps(self):
        schedule = StepSchedule.harmonic()
        assert step_size(schedule, 0) == 1.0
        assert step_size(schedule, 1) == 0.5
        assert step_size(schedule, 9) == pytest.approx(0.1)

    def test_power_starts_at_one(self):
        assert step_size(StepSchedule("power", 0.7), 0) == 1.0

    def test_constant_never_moves(self):
        schedule = StepSchedule("constant", 0.25)
        assert step_size(schedule, 0) == step_size(schedule, 10_000) == 0.25

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            step_size(StepSchedule.harmonic(), -1)

    @pytest.mark.parametrize("exponent", [0.5, 0.0, 1.5, None])
    def test_power_exponent_range(self, exponent):
        with pytest.raises(ValueError):
            StepSchedule("power", exponent)

    @pytest.mark.parametrize("value", [0.0, 1.5, -0.2, None])
    def test_constant_value_range(self, value):
        with pytest.raises(ValueError):
            StepSchedule("constant", value)

    @pytest.mark.parametrize("args", [("bogus",), ("harmonic", 0.5), ("power",)])
    def test_kind_and_value_must_agree(self, args):
        with pytest.raises(ValueError):
            StepSchedule(*args)

    @pytest.mark.parametrize(
        "schedule",
        [StepSchedule.harmonic(), StepSchedule("power", 0.7), StepSchedule("power", 1.0)],
    )
    def test_decay_and_divergence_conditions(self, schedule):
        eta0 = step_size(schedule, 0)
        for n in (0, 1, 10, 1000, 10**6):
            assert step_size(schedule, n) > 0.0
        assert step_size(schedule, 10**6) < 1e-4 * eta0
        partial = sum(step_size(schedule, n) for n in range(10**6))
        assert partial > 13.0

    def test_constant_does_not_decay(self):
        schedule = StepSchedule("constant", 0.1)
        assert step_size(schedule, 10**6) == step_size(schedule, 0)


class TestInitState:
    def test_lands_on_first_observation(self):
        state = init_state(window(chi=0.4, theta=0.001))
        assert state == EstimatorState(0, 0.4, 0.001)

    def test_zero_chi_is_a_valid_observation(self):
        state = init_state(window(chi=0.0, theta=0.002))
        assert state.xi_hat == 0.0
        assert state.beta_hat == pytest.approx(0.002)

    def test_empty_window_cannot_seed(self):
        with pytest.raises(CannotInitializeError):
            init_state(empty_window())


class TestUpdate:
    def test_hand_evaluated_step(self):
        state = EstimatorState(0, 0.4, 0.001)
        after = update(state, window(chi=0.2, theta=0.003), StepSchedule.harmonic())
        assert after.iteration == 1
        assert after.xi_hat == pytest.approx(0.3, rel=1e-12)
        assert after.beta_hat == pytest.approx(0.002, rel=1e-12)

    def test_observation_at_fixed_point_only_advances_counter(self):
        state = EstimatorState(3, 0.25, 0.004)
        after = update(state, window(chi=0.25, theta=0.004), StepSchedule.harmonic())
        assert after.xi_hat == state.xi_hat
        assert after.beta_hat == state.beta_hat
        assert after.iteration == 4

    def test_constant_observations_stay_put_after_first(self):
        state = init_state(window(chi=0.3, theta=0.002))
        for _ in range(10):
            state = update(state, window(chi=0.3, theta=0.002), StepSchedule.harmonic())
            assert state.xi_hat == 0.3

    def test_zero_traffic_window_rejected(self):
        with pytest.raises(ValueError):
            update(EstimatorState(0, 0.4, 0.001), empty_window(), StepSchedule.harmonic())

    def test_harmonic_tracks_running_mean(self):
        rng = np.random.default_rng(7)
        windows = [
            window(chi=float(c), theta=float(t), start=1000.0 * i)
            for i, (c, t) in enumerate(
                zip(rng.uniform(0.0, 1.0, 50), rng.uniform(1e-5, 1e-2, 50))
            )
        ]
        chis = [w.chi for w in windows]
        thetas = [w.theta for w in windows]
        state = init_state(windows[0])
        for i in range(1, 50):
            state = update(state, windows[i], StepSchedule.harmonic())
            assert state.xi_hat == pytest.approx(float(np.mean(chis[: i + 1])), rel=1e-12)
            assert state.beta_hat == pytest.approx(float(np.mean(thetas[: i + 1])), rel=1e-12)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=30),
        st.sampled_from(
            [StepSchedule.harmonic(), StepSchedule("power", 0.7), StepSchedule("constant", 0.3)]
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_estimate_stays_inside_observed_range(self, chis, schedule):
        windows = [
            window(chi=chi, theta=0.001, window_s=1e6, start=1e6 * i)
            for i, chi in enumerate(chis)
        ]
        observed = [w.chi for w in windows]
        state = init_state(windows[0])
        for w in windows[1:]:
            state = update(state, w, schedule)
        tol = 1e-9
        assert min(observed) - tol <= state.xi_hat <= max(observed) + tol


class TestRecommend:
    def test_known_point_n150(self):
        state = EstimatorState(5, 0.1338, 1.39e-3)
        config = TunerConfig(target_eps=0.1, n_users=150)
        solution = recommend(state, config)
        assert solution.timeout_s == pytest.approx(87.03, rel=0.01)

    def test_known_point_n10k(self):
        state = EstimatorState(5, 0.5887, 0.06)
        config = TunerConfig(target_eps=0.1, n_users=10_000)
        solution = recommend(state, config)
        assert solution.timeout_s == pytest.approx(0.0065, rel=0.03)

    def test_zero_estimate_is_infeasible(self):
        state = EstimatorState(0, 0.0, 0.001)
        config = TunerConfig(target_eps=0.1, n_users=150)
        with pytest.raises(InfeasibleTargetError):
            recommend(state, config)

    def test_infeasible_error_names_the_estimates(self):
        state = EstimatorState(2, 0.01, 0.001)
        config = TunerConfig(target_eps=1e-9, n_users=5)
        with pytest.raises(InfeasibleTargetError) as err:
            recommend(state, config)
        assert "xi_hat" in str(err.value)


class TestShouldPublish:
    def test_first_recommendation_always_publishes(self):
        assert should_publish(EstimatorState(0, 0.3, 0.01), 60.0, 5.0)

    def test_small_move_is_held_back(self):
        state = EstimatorState(1, 0.3, 0.01, last_published_timeout_s=60.0)
        assert not should_publish(state, 63.0, 5.0)

    def test_threshold_is_inclusive(self):
        state = EstimatorState(1, 0.3, 0.01, last_published_timeout_s=60.0)
        assert should_publish(state, 65.0, 5.0)
        assert should_publish(state, 55.0, 5.0)


class _FlakySink:
    """Fails the first ``n_failures`` publishes, then accepts."""

    def __init__(self, n_failures: int):
        self.n_failures = n_failures
        self.delivered: list[float] = []
        self.attempts = 0

    def publish(self, timeout_s, meta=None):
        self.attempts += 1
        if self.attempts <= self.n_failures:
            raise SinkError("injected failure")
        self.delivered.append(timeout_s)


class TestRunTuner:
    def config(self, delta: float = 5.0, eps: float = 0.1) -> TunerConfig:
        return TunerConfig(target_eps=eps, n_users=50, publish_delta_s=delta)

    def test_single_window_publishes_once(self):
        seen: list = []
        report = run_tuner([window(chi=0.3, theta=0.01)], self.config(), on_record=seen.append)
        assert len(seen) == 1
        assert seen[0].published
        assert report.n_published == 1
        assert report.final_state.last_published_timeout_s == seen[0].timeout_s

    def test_stable_stream_publishes_only_first(self):
        windows = [window(chi=0.3, theta=0.01, start=1000.0 * i) for i in range(10)]
        seen: list = []
        report = run_tuner(windows, self.config(delta=5.0), on_record=seen.append)
        assert report.n_published == 1
        assert [r.published for r in seen] == [True] + [False] * 9

    def test_empty_stream_cannot_start(self):
        with pytest.raises(CannotInitializeError):
            run_tuner([], self.config())
        with pytest.raises(CannotInitializeError):
            run_tuner([empty_window()], self.config())

    def test_quiet_windows_do_not_advance_the_recursion(self):
        windows = [
            window(chi=0.3, theta=0.01, start=0.0),
            empty_window(start=1000.0),
            window(chi=0.5, theta=0.01, start=2000.0),
        ]
        seen: list = []
        report = run_tuner(windows, self.config(), on_record=seen.append)
        assert report.skipped_windows == 1
        assert [r.iteration for r in seen] == [0, 1]
        # the skipped window must not have diluted the step size
        assert seen[1].xi_hat == pytest.approx(0.4)

    def test_infeasible_iterations_are_recorded_not_fatal(self):
        windows = [
            # chi = 1/1000: the floor (1 - 0.001)^50 ~ 0.95 sits above eps
            WindowStats.from_counts(0.0, 1000.0, 1000, 1, 50),
            WindowStats.from_counts(1000.0, 1000.0, 1000, 900, 50),
        ]
        seen: list = []
        run_tuner(windows, self.config(eps=0.01), on_record=seen.append)
        assert seen[0].timeout_s is None
        assert not seen[0].published
        assert seen[1].timeout_s is not None

    def test_failed_publish_is_retried_next_window(self):
        sink = _FlakySink(n_failures=1)
        windows = [window(chi=0.3, theta=0.01, start=1000.0 * i) for i in range(3)]
        seen: list = []
        report = run_tuner(windows, self.config(delta=5.0), sink, on_record=seen.append)
        assert report.failed_publishes == 1
        # the gate stayed open after the failure, so the next window delivered
        assert [r.published for r in seen] == [False, True, False]
        assert len(sink.delivered) == 1

    def test_publish_count_nonincreasing_in_delta(self):
        rng = np.random.default_rng(3)
        windows = [
            window(chi=float(c), theta=float(t), start=1000.0 * i)
            for i, (c, t) in enumerate(zip(rng.uniform(0.2, 0.8, 40), rng.uniform(0.005, 0.02, 40)))
        ]
        counts = [
            run_tuner(list(windows), self.config(delta=delta)).n_published
            for delta in (0.0, 1.0, 5.0, 20.0, 1e6)
        ]
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] == 1

    def test_identical_streams_give_identical_reports(self):
        rng = np.random.default_rng(11)
        windows = [
            window(chi=float(c), theta=0.01, start=1000.0 * i)
            for i, c in enumerate(rng.uniform(0.1, 0.9, 20))
        ]
        seen_a: list = []
        seen_b: list = []
        a = run_tuner(list(windows), self.config(), on_record=seen_a.append)
        b = run_tuner(list(windows), self.config(), on_record=seen_b.append)
        assert a == b
        assert "".join(r.to_json() + "\n" for r in seen_a) == "".join(
            r.to_json() + "\n" for r in seen_b
        )

    def test_report_line_schema(self):
        seen: list = []
        run_tuner([window(chi=0.3, theta=0.01)], self.config(), on_record=seen.append)
        record = json.loads("".join(r.to_json() + "\n" for r in seen).splitlines()[0])
        assert list(record) == [
            "iteration",
            "window_end_ts",
            "chi",
            "theta",
            "xi_hat",
            "beta_hat",
            "timeout_s",
            "published",
        ]

    def test_each_record_is_handed_over_before_the_next_window_is_pulled(self):
        windows = [
            window(chi=0.3, theta=0.01, start=0.0),
            empty_window(start=1000.0),
            window(chi=0.5, theta=0.01, start=2000.0),
            window(chi=0.4, theta=0.02, start=3000.0),
        ]
        seen: list = []

        def stream():
            nonempty = 0
            for w in windows:
                assert len(seen) == nonempty
                yield w
                nonempty += w.n_requests > 0
            assert len(seen) == nonempty

        report = run_tuner(stream(), self.config(), on_record=seen.append)
        assert len(seen) == report.final_state.iteration + 1
        assert len(seen) == 3

    def test_keeps_no_per_window_state(self):
        # the loop must run beside a live feed for as long as it lasts
        def stream():
            for i in range(20_000):
                yield window(chi=0.3 + 0.1 * (i % 3), theta=0.01, start=1000.0 * i)

        tracemalloc.start()
        try:
            report = run_tuner(stream(), self.config())
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.final_state.iteration == 19_999
        assert held < 100_000

    def test_converges_on_synthetic_constant_traffic(self):
        rng = np.random.default_rng(99)
        true_xi, true_beta, n_users, window_s = 0.3, 0.01, 50, 600.0
        lam = n_users * true_beta * window_s
        windows = []
        total_requests = 0
        total_marked = 0
        for i in range(50):
            n_req = int(rng.poisson(lam))
            n_marked = int(rng.binomial(n_req, true_xi)) if n_req else 0
            total_requests += n_req
            total_marked += n_marked
            windows.append(WindowStats.from_counts(window_s * i, window_s, n_req, n_marked, n_users))
        report = run_tuner(windows, TunerConfig(target_eps=0.1, n_users=n_users))
        se = math.sqrt(true_xi * (1 - true_xi) / total_requests)
        assert abs(report.final_state.xi_hat - true_xi) <= 4 * se


def random_windows(seed: int, n_users: int, n_windows: int = 400) -> list[WindowStats]:
    """Windows in stretches of steady traffic, some empty, some with no
    marked request at all, so the estimates drift toward zero."""
    rng = random.Random(seed)
    # a steady start: the estimates stay put, so the timeout repeats exactly;
    # then a long unmarked stretch takes even the harmonic mean to infeasible
    windows = [WindowStats.from_counts(100.0 * i, 100.0, 40, 4, n_users) for i in range(3)]
    stretches = [(0.0, 150)]
    while len(windows) < n_windows:
        xi, length = stretches.pop() if stretches else (rng.choice([0.0, 0.0005, 0.05, 0.3, 0.9]), rng.randint(5, 30))
        mean = rng.choice([0.5, 5.0, 40.0])
        for _ in range(length):
            n_requests = 0 if rng.random() < 0.15 else 1 + int(rng.expovariate(1.0 / mean))
            n_marked = sum(rng.random() < xi for _ in range(n_requests))
            windows.append(WindowStats.from_counts(100.0 * len(windows), 100.0, n_requests, n_marked, n_users))
    return windows


class _RecordingSink:
    """Keeps every publish it is given and fails every ``fail_every``-th one."""

    def __init__(self, fail_every: int):
        self.fail_every = fail_every
        self.calls: list = []

    def publish(self, timeout_s, meta=None):
        self.calls.append((timeout_s, dict(meta)))
        if self.fail_every and len(self.calls) % self.fail_every == 0:
            raise SinkError("injected failure")


def reference_run(windows, config: TunerConfig, sink=None):
    """The tuning loop written with the public step functions alone: its
    records, final state and infeasible-step warnings."""
    records = []
    warnings = []
    state = None
    for w in windows:
        if w.n_requests == 0:
            continue
        state = init_state(w) if state is None else update(state, w, config.schedule)
        try:
            solution = recommend(state, config)
        except InfeasibleTargetError as exc:
            solution = None
            warnings.append(
                f"iteration {state.iteration}: target {config.target_eps:g} infeasible "
                f"(bound {exc.bound:g}); holding published value"
            )
        published = False
        if solution is not None and should_publish(state, solution.timeout_s, config.publish_delta_s):
            try:
                if sink is not None:
                    meta = {
                        "iteration": state.iteration,
                        "window_end_ts": w.window_end_ts,
                        "xi_hat": state.xi_hat,
                        "beta_hat": state.beta_hat,
                        "target_eps": config.target_eps,
                        "expression": solution.expression,
                    }
                    sink.publish(solution.timeout_s, meta)
                published = True
                state = replace(state, last_published_timeout_s=solution.timeout_s)
            except SinkError:
                pass
        records.append(
            TunerRecord(
                state.iteration,
                w.window_end_ts,
                w.chi,
                w.theta,
                state.xi_hat,
                state.beta_hat,
                None if solution is None else solution.timeout_s,
                published,
            )
        )
    return records, state, warnings


def tuner_warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.name == "idletune.estimator" and r.levelno == logging.WARNING]


class TestRunTunerMatchesThePublicFunctions:
    """run_tuner steps on plain numbers; it must agree with a loop built from
    init_state, update, recommend and should_publish, record for record."""

    @pytest.mark.parametrize("schedule", ["harmonic", "power:0.7", "constant:0.5"])
    @pytest.mark.parametrize("expression", ["exact", "large-n", "auto"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_same_records(self, caplog, schedule, expression, seed):
        kind, _, value = schedule.partition(":")
        # auto picks exact for 150 users and large-n for 700
        n_users = [150, 700][seed - 1]
        config = TunerConfig(
            target_eps=[0.1, 0.01][seed - 1],
            n_users=n_users,
            publish_delta_s=[0.0, 5.0][seed - 1],
            schedule=StepSchedule(kind, float(value) if value else None),
            expression=expression,
            large_n_threshold=150,
        )
        windows = random_windows(seed, n_users)
        for fail_every in (None, 3):
            sinks = [None, None] if fail_every is None else [_RecordingSink(fail_every), _RecordingSink(fail_every)]
            expected, state, warnings = reference_run(windows, config, sinks[0])
            seen: list = []
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="idletune.estimator"):
                report = run_tuner(windows, config, sinks[1], on_record=seen.append)
            assert seen == expected
            assert report.final_state == state
            assert report.skipped_windows == sum(w.n_requests == 0 for w in windows)
            assert report.n_published == sum(r.published for r in expected)
            assert tuner_warnings(caplog) == warnings
            infeasible = [r for r in expected if r.timeout_s is None]
            if fail_every is not None:
                assert sinks[1].calls == sinks[0].calls
                assert report.failed_publishes == len(sinks[0].calls) // fail_every
            # the stream covers the cases the fast path must get right
            assert 0 < len(infeasible) < len(expected)
            assert 0 < report.skipped_windows
            assert 0 < report.n_published < len(expected)

    def test_estimates_at_the_ends_of_the_float_range(self, caplog):
        config = TunerConfig(target_eps=0.1, n_users=150)
        # n_users * window_s overflows, so theta is 0: no timeout at all
        vast = [WindowStats.from_counts(0.0, 1e308, 5, 2, 150)] * 3
        assert vast[0].theta == 0.0
        expected, state, warnings = reference_run(vast, config)
        seen: list = []
        with caplog.at_level(logging.WARNING, logger="idletune.estimator"):
            report = run_tuner(vast, config, on_record=seen.append)
        assert seen == expected and report.final_state == state
        assert tuner_warnings(caplog) == warnings
        assert [r.timeout_s for r in seen] == [None] * 3 and "(bound 1)" in warnings[0]
        # a window so short that theta is infinite: recommend's own error,
        # also where the target would be infeasible at the estimates
        for n_marked in (2, 1):
            brief = [WindowStats.from_counts(0.0, 1e-320, 1000, n_marked, 150)]
            assert brief[0].theta == math.inf
            with pytest.raises(ValueError) as err:
                reference_run(brief, config)
            with pytest.raises(ValueError) as fast_err:
                run_tuner(brief, config)
            assert str(fast_err.value) == str(err.value) == "beta must be positive and finite, got inf"


class TestRecordEncoding:
    """TunerRecord.to_json writes its line from a template; the bytes must be
    those json.dumps writes for the same fields."""

    @staticmethod
    def dumps(record: TunerRecord) -> str:
        return json.dumps({name: getattr(record, name) for name in TunerRecord.__dataclass_fields__})

    @pytest.mark.parametrize("timeout_s", [None, 87.03, 5e-324, 1e16])
    @pytest.mark.parametrize("published", [True, False])
    def test_flags_and_timeout(self, timeout_s, published):
        record = TunerRecord(7, 1200.0, 0.25, 0.001, 0.3, 0.0015, timeout_s, published)
        assert record.to_json() == self.dumps(record)

    @pytest.mark.parametrize("value", [5e-324, 1e-7, 1e16, 0.1 + 0.2, 0.0, -0.0, 1.7976931348623157e308])
    def test_floats(self, value):
        record = TunerRecord(0, value, value, value, value, value, value, True)
        assert record.to_json() == self.dumps(record)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_value_that_is_not_finite(self, value):
        record = TunerRecord(3, value, 0.5, 0.01, 0.5, 0.01, 12.5, False)
        assert record.to_json() == self.dumps(record)
        assert record.to_json().startswith('{"iteration": 3, "window_end_ts": ' + json.dumps(value) + ",")

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_a_timeout_that_is_not_finite(self, value):
        record = TunerRecord(3, 1200.0, 0.5, 0.01, 0.5, 0.01, value, True)
        assert record.to_json() == self.dumps(record)

    def test_finite_floats_whose_sum_overflows(self):
        big = 1.7976931348623157e308
        record = TunerRecord(1, big, 0.5, big, 0.5, big, big, True)
        assert record.to_json() == self.dumps(record)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(window_end_ts=1200),  # an int where a float is expected
            dict(chi=np.float64(0.1) + 0.2),  # a float subclass
            dict(timeout_s=np.float64(87.5)),
            dict(iteration=True),
            dict(published=1),
        ],
    )
    def test_other_number_types(self, fields):
        record = replace(TunerRecord(4, 1200.0, 0.25, 0.001, 0.3, 0.0015, 87.0, True), **fields)
        assert record.to_json() == self.dumps(record)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(target_eps=0.0, n_users=10),
            dict(target_eps=1.0, n_users=10),
            dict(target_eps=0.1, n_users=0),
            dict(target_eps=0.1, n_users=150.5),
            dict(target_eps=0.1, n_users=True),
            dict(target_eps=0.1, n_users=10, publish_delta_s=-1.0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TunerConfig(**kwargs)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            EstimatorState(-1, 0.5, 0.01)
        with pytest.raises(ValueError):
            EstimatorState(0, 1.5, 0.01)
        with pytest.raises(ValueError):
            EstimatorState(0, 0.5, -0.01)
