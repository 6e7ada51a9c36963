import dataclasses
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idletune import simulate
from idletune import (
    ModelParams,
    SimResult,
    SystemConfig,
    failure_probability,
    generate_event_log,
    simulate_failure_prob,
    simulate_system,
    windowize,
)
from oracles import simulate_system_ref


class TestSimulateFailureProb:
    def test_agrees_with_closed_form(self):
        params = ModelParams(20, 0.01, 0.3)
        result = simulate_failure_prob(params, 50.0, trials=100_000, seed=7)
        expected = failure_probability(params, 50.0)
        assert abs(result.p_hat - expected) <= 4 * result.std_err
        assert result.p_hat == pytest.approx(0.0811, abs=0.005)

    def test_unmarked_traffic_always_fails(self):
        result = simulate_failure_prob(ModelParams(50, 0.5, 0.0), 100.0, trials=5000, seed=1)
        assert result.p_hat == 1.0
        assert result.failures == result.trials

    def test_zero_timeout_always_fails(self):
        result = simulate_failure_prob(ModelParams(50, 0.5, 0.9), 0.0, trials=5000, seed=1)
        assert result.p_hat == 1.0

    def test_deterministic_given_seed(self):
        params = ModelParams(30, 0.02, 0.4)
        a = simulate_failure_prob(params, 20.0, trials=70_000, seed=42)
        b = simulate_failure_prob(params, 20.0, trials=70_000, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        params = ModelParams(30, 0.02, 0.4)
        a = simulate_failure_prob(params, 20.0, trials=70_000, seed=1)
        b = simulate_failure_prob(params, 20.0, trials=70_000, seed=2)
        assert a.failures != b.failures

    def test_trial_count_spanning_chunks(self):
        # 1 << 16 trials per substream; exercise a ragged final chunk
        params = ModelParams(5, 0.1, 0.5)
        result = simulate_failure_prob(params, 1.0, trials=(1 << 16) + 17, seed=3)
        assert result.trials == (1 << 16) + 17
        expected = failure_probability(params, 1.0)
        assert abs(result.p_hat - expected) <= 4 * result.std_err

    def test_result_fields(self):
        result = simulate_failure_prob(ModelParams(10, 0.1, 0.5), 5.0, trials=4000, seed=9)
        assert result.p_hat == result.failures / result.trials
        assert result.std_err == pytest.approx(
            math.sqrt(result.p_hat * (1 - result.p_hat) / result.trials)
        )
        assert result.seed == 9
        record = json.loads(result.to_json())
        assert list(record) == ["trials", "failures", "p_hat", "std_err", "seed"]

    def test_numpy_integers_give_the_plain_result(self):
        params = ModelParams(10, 0.1, 0.5)
        plain = simulate_failure_prob(params, 1.0, 10, 3)
        numpy = simulate_failure_prob(params, 1.0, np.int64(10), np.int64(3))
        assert numpy.to_json() == plain.to_json()
        assert type(numpy.trials) is type(numpy.seed) is int

    def test_rejects_bad_arguments(self):
        params = ModelParams(10, 0.1, 0.5)
        with pytest.raises(ValueError):
            simulate_failure_prob(params, -1.0, 100, 0)
        with pytest.raises(ValueError):
            simulate_failure_prob(params, 1.0, 0, 0)
        with pytest.raises(ValueError):
            simulate_failure_prob(params, 1.0, 100, -1)
        with pytest.raises(ValueError):
            SimResult(trials=10, failures=11, p_hat=1.1, std_err=0.0, seed=0)

    def test_oracle_sweep(self):
        rng = np.random.default_rng(2026)
        hits = 0
        for _ in range(8):
            while True:
                params = ModelParams(
                    int(rng.integers(1, 400)),
                    float(rng.uniform(1e-4, 0.5)),
                    float(rng.uniform(0.05, 1.0)),
                )
                timeout = float(rng.uniform(0.1, 200.0))
                p = failure_probability(params, timeout)
                if 0.01 <= p <= 0.99:
                    break
            result = simulate_failure_prob(params, timeout, trials=30_000, seed=int(rng.integers(1 << 30)))
            if abs(result.p_hat - p) <= 4 * result.std_err:
                hits += 1
        assert hits >= 7


MID_LOAD = SystemConfig(
    n_users=40,
    beta=0.05,
    xi=0.3,
    n_processes=4,
    idle_timeout_s=10.0,
    duration_s=2000.0,
    process_life=50,
)


class TestSimulateSystem:
    def test_deterministic_given_seed(self):
        assert simulate_system(MID_LOAD, 3) == simulate_system(MID_LOAD, 3)

    def test_never_drop_never_fails(self):
        config = dataclasses.replace(MID_LOAD, idle_timeout_s=0.0)
        report = simulate_system(config, 5)
        assert report.failed_binds == 0
        assert report.failure_rate == 0.0
        assert report.marked_requests > 0

    def test_unmarked_traffic_is_flagged(self):
        config = dataclasses.replace(MID_LOAD, xi=0.0)
        report = simulate_system(config, 5)
        assert report.marked_requests == 0
        assert report.no_marked
        assert report.failure_rate == 0.0
        assert report.idle_gap_median_s is None

    def test_failures_nonincreasing_in_timeout_per_seed(self):
        for seed in range(3):
            failures = [
                simulate_system(dataclasses.replace(MID_LOAD, idle_timeout_s=t), seed).failed_binds
                for t in (1.0, 10.0, 60.0, 0.0)
            ]
            assert failures == sorted(failures, reverse=True)
            assert failures[-1] == 0

    def test_timeout_does_not_perturb_traffic(self):
        tight = simulate_system(dataclasses.replace(MID_LOAD, idle_timeout_s=1.0), 11)
        loose = simulate_system(dataclasses.replace(MID_LOAD, idle_timeout_s=300.0), 11)
        assert tight.total_requests == loose.total_requests
        assert tight.marked_requests == loose.marked_requests
        assert tight.idle_gap_median_s == loose.idle_gap_median_s

    def test_respawns_shorten_observed_gaps(self):
        eager = simulate_system(dataclasses.replace(MID_LOAD, process_life=1), 13)
        never = simulate_system(dataclasses.replace(MID_LOAD, process_life=0), 13)
        assert eager.marked_requests == never.marked_requests
        assert eager.failed_binds <= never.failed_binds

    def test_process_life_0_never_respawns(self):
        # the report the same run gave when "never" was spelled None
        report = simulate_system(dataclasses.replace(MID_LOAD, process_life=0), 13)
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == "64010f245fc11ff5f64de15f06f72d611a5e55e431ff52ceed0b4c5a15efa397"
        assert SystemConfig(40, 0.05, 0.3, n_processes=4, idle_timeout_s=10.0, duration_s=2000.0).process_life == 0

    def test_a_numpy_integer_seed_gives_the_plain_report(self):
        report = simulate_system(MID_LOAD, np.int64(13))
        assert report.to_json() == simulate_system(MID_LOAD, 13).to_json()
        assert type(report.seed) is int

    def test_gap_summary_is_ordered(self):
        report = simulate_system(MID_LOAD, 17)
        assert report.idle_gap_min_s <= report.idle_gap_median_s <= report.idle_gap_max_s

    def test_single_process_gap_exceedance_tracks_model_direction(self):
        # with one never-respawning process, failures are exactly the marked
        # inter-use gaps above the timeout; tightening the timeout must raise
        # the exceedance rate, mirroring the closed form's direction
        base = SystemConfig(
            n_users=30,
            beta=0.02,
            xi=0.4,
            n_processes=1,
            idle_timeout_s=5.0,
            duration_s=20_000.0,
            process_life=0,
        )
        tight = simulate_system(base, 19)
        loose = simulate_system(dataclasses.replace(base, idle_timeout_s=30.0), 19)
        assert tight.failure_rate >= loose.failure_rate
        p_tight = failure_probability(ModelParams(30, 0.02, 0.4), 5.0)
        p_loose = failure_probability(ModelParams(30, 0.02, 0.4), 30.0)
        assert p_tight >= p_loose

    def test_report_serialization(self):
        record = json.loads(simulate_system(MID_LOAD, 3).to_json())
        assert set(record) == {
            "total_requests",
            "marked_requests",
            "failed_binds",
            "failure_rate",
            "no_marked",
            "idle_gap_min_s",
            "idle_gap_median_s",
            "idle_gap_max_s",
            "seed",
        }

    @pytest.mark.parametrize(
        "config, seed, digest",
        [
            pytest.param(
                SystemConfig(40, 0.05, 0.3, n_processes=4, idle_timeout_s=20.0, duration_s=5000.0, process_life=7),
                5,
                "d02f073de8608c19c5cb90dab846bb75457a2138bfd4b1d023b1c5ea90191fff",
                id="respawning-pool",
            ),
            pytest.param(
                # the duration is the 8192nd arrival, so the third batch of
                # 4096 draws lies wholly past it and is empty
                SystemConfig(20, 0.05, 0.4, n_processes=3, idle_timeout_s=8.0, duration_s=8416.669656507605),
                7,
                "d17f5a25499c79d1bfdc02694d69d7d4c5f50f90996d863239ec4e38fb929051",
                id="empty-last-batch",
            ),
        ],
    )
    def test_report_is_pinned(self, config, seed, digest):
        report = simulate_system(config, seed)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_users=0),
            dict(n_users=150.5),
            dict(beta=0.0),
            dict(xi=1.5),
            dict(n_processes=0),
            dict(process_life=-1),
            dict(process_life=None),
            dict(idle_timeout_s=-1.0),
            dict(duration_s=0.0),
        ],
    )
    def test_config_validation(self, kwargs):
        base = dataclasses.asdict(MID_LOAD)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SystemConfig(**base)

    @given(
        seed=st.integers(0, 2**32),
        n_users=st.integers(1, 40),
        n_processes=st.integers(1, 8),
        process_life=st.sampled_from([0, 1, 2, 7, 50]),
        xi=st.sampled_from([0.0, 0.3, 1.0]),
        idle_timeout_s=st.sampled_from([0.0, 5.0]),
        # the shortest spans often hold no arrival; the longest span up to 5 batches
        duration_s=st.floats(1e-3, 1e4),
    )
    @settings(max_examples=80, deadline=None)
    def test_the_array_walk_reports_what_the_arrival_walk_does(
        self, seed, n_users, n_processes, process_life, xi, idle_timeout_s, duration_s
    ):
        config = SystemConfig(n_users, 0.05, xi, n_processes, idle_timeout_s, duration_s, process_life)
        assert simulate_system(config, seed).to_json() == simulate_system_ref(config, seed).to_json()

    def test_a_million_gaps_peak_below_24_mb(self):
        # 1,000,351 marked gaps: 8 MB as float64, 16 MB while the batches'
        # gaps are joined
        config = SystemConfig(1000, 1.0, 1.0, 4, 10.0, 1000.0, 50)
        tracemalloc.start()
        try:
            report = simulate_system(config, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.marked_requests > 1_000_000
        assert peak < 24e6


class _Started(Exception):
    pass


def _never_run(*args):
    raise _Started


class TestArrivalCap:
    # 2**63 - 1 users at 0.1/s for 10 s: about 9.2e18 expected arrivals
    def test_a_run_expecting_more_than_1e8_arrivals_is_refused_before_it_starts(self, monkeypatch):
        monkeypatch.setattr(simulate, "_arrival_batches", _never_run)
        message = re.escape("duration_s must be <= 1e8 expected arrivals (users * beta * duration), got 9.223372036854776e+18")
        with pytest.raises(ValueError, match=message):
            SystemConfig(2**63 - 1, 0.1, 0.5, n_processes=1, idle_timeout_s=0.0, duration_s=10.0)
        with pytest.raises(ValueError, match=message):
            next(generate_event_log(ModelParams(2**63 - 1, 0.1, 0.5), 10.0, 0))

    def test_1e8_expected_arrivals_may_run(self, monkeypatch):
        monkeypatch.setattr(simulate, "_arrival_batches", _never_run)
        config = SystemConfig(10**8, 1.0, 0.5, n_processes=1, idle_timeout_s=0.0, duration_s=1.0)
        with pytest.raises(_Started):
            simulate_system(config, 0)
        with pytest.raises(_Started):
            next(generate_event_log(ModelParams(10**8, 1.0, 0.5), 1.0, 0))
        with pytest.raises(ValueError, match="1e8 expected arrivals"):
            dataclasses.replace(config, duration_s=1.000001)


class TestGenerateEventLog:
    def test_deterministic_given_seed(self):
        params = ModelParams(20, 0.01, 0.3)
        a = list(generate_event_log(params, 5000.0, seed=8))
        b = list(generate_event_log(params, 5000.0, seed=8))
        assert a == b

    def test_yields_float_and_bool_pairs(self):
        # numpy scalars would change what format_event writes
        events = list(generate_event_log(ModelParams(20, 0.01, 0.3), 5000.0, seed=8))
        assert events
        assert {(type(ts), type(is_bind)) for ts, is_bind in events} == {(float, bool)}

    def test_time_ordered_within_span(self):
        events = list(generate_event_log(ModelParams(20, 0.01, 0.3), 5000.0, seed=8))
        times = [ts for ts, _ in events]
        assert times == sorted(times)
        assert all(0.0 < t <= 5000.0 for t in times)

    def test_marked_fraction_recovers_truth(self):
        params = ModelParams(50, 1e-3, 0.3)
        events = list(generate_event_log(params, 1.0e6, seed=21))
        n = len(events)
        assert n == pytest.approx(5.0e4, rel=0.05)
        chi = sum(is_bind for _, is_bind in events) / n
        assert abs(chi - 0.3) <= 4 * math.sqrt(0.3 * 0.7 / n)

    def test_tiny_duration_may_be_empty(self):
        events = list(generate_event_log(ModelParams(1, 1e-6, 0.5), 1.0, seed=0))
        assert events == []

    def test_feeds_windowing_with_consistent_rates(self):
        params = ModelParams(50, 1e-3, 0.3)
        events = list(generate_event_log(params, 1.0e6, seed=33))
        wins = list(windowize(iter(events), 10_000.0, params.n_users))
        pooled_n = sum(w.n_requests for w in wins)
        theta = pooled_n / (params.n_users * len(wins) * 10_000.0)
        se = math.sqrt(pooled_n) / (params.n_users * len(wins) * 10_000.0)
        assert abs(theta - params.beta) <= 4 * se

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            list(generate_event_log(ModelParams(1, 1.0, 0.5), 0.0, seed=0))
        with pytest.raises(ValueError):
            list(generate_event_log(ModelParams(1, 1.0, 0.5), 10.0, seed=-2))


@pytest.mark.parametrize("seed", [-1, True, 1.5])
@pytest.mark.parametrize(
    "run",
    [
        lambda seed: simulate_failure_prob(ModelParams(10, 0.1, 0.5), 1.0, 100, seed),
        lambda seed: simulate_system(MID_LOAD, seed),
        lambda seed: list(generate_event_log(ModelParams(10, 0.1, 0.5), 10.0, seed)),
    ],
    ids=["simulate_failure_prob", "simulate_system", "generate_event_log"],
)
def test_every_simulator_rejects_a_bad_seed(run, seed):
    with pytest.raises(ValueError, match="seed must be"):
        run(seed)
