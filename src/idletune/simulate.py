"""Monte Carlo oracle, pool-mechanics system simulator, and log synthesis.

All three entry points draw from numpy's PCG64 through SeedSequence
substreams spawned from a single master seed, so results are reproducible
bit-for-bit and independent of chunking.  The synthetic log is a stream
of ``(ts, is_bind)`` pairs, the shape :func:`idletune.ingest.windowize`
counts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import ModelParams, _check, _check_arrivals, _check_count

__all__ = [
    "SimResult",
    "SystemConfig",
    "SystemReport",
    "simulate_failure_prob",
    "simulate_system",
    "generate_event_log",
]

# trials per spawned substream; results do not depend on this value
_TRIAL_CHUNK = 1 << 16
# events drawn per RNG batch in the sequential simulators
_EVENT_CHUNK = 1 << 12


def _streams(seed: int, n: int) -> Iterator[np.random.Generator]:
    """``n`` independent PCG64 generators spawned from ``SeedSequence(seed)``."""
    _check_count("seed", seed, ">= 0")
    children = np.random.SeedSequence(seed).spawn(n)
    return (np.random.Generator(np.random.PCG64(child)) for child in children)


@dataclass(frozen=True)
class SimResult:
    """Monte Carlo estimate of the failure probability."""

    trials: int
    failures: int
    p_hat: float
    std_err: float
    seed: int

    def __post_init__(self) -> None:
        _check_count("trials", self.trials, ">= 1")
        _check_count("failures", self.failures, ">= 0")
        _check_count("seed", self.seed, ">= 0")
        if self.failures > self.trials:
            raise ValueError(
                f"failures {self.failures} outside [0, {self.trials}]"
            )
        # normalize numpy integers so that to_json can write them
        for name in ("trials", "failures", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))

    @classmethod
    def from_counts(cls, trials: int, failures: int, seed: int) -> "SimResult":
        p_hat = failures / trials
        std_err = math.sqrt(p_hat * (1.0 - p_hat) / trials)
        return cls(trials=trials, failures=failures, p_hat=p_hat, std_err=std_err, seed=seed)

    def to_json(self) -> str:
        return json.dumps({name: getattr(self, name) for name in self.__dataclass_fields__})


def simulate_failure_prob(
    params: ModelParams, timeout_s: float, trials: int, seed: int
) -> SimResult:
    """Estimate by sampling the probability that a window sees no marked request.

    Each trial counts the users who fire a marked request within the
    timeout and fails when there are none.  Thinning a binomial gives a
    binomial: Binomial(Binomial(N, p), xi) has the law of Binomial(N, p*xi),
    so a trial is one draw of Binomial(n_users, p_fire * xi).  This samples
    the mechanism rather than evaluating any closed expression, so it
    serves as an independent check of one.
    """
    _check("timeout_s", timeout_s, ">= 0")
    _check_count("trials", trials, ">= 1")
    p_fire = -math.expm1(-params.beta * timeout_s)
    failures = 0
    remaining = trials
    for rng in _streams(seed, -(-trials // _TRIAL_CHUNK)):
        size = min(_TRIAL_CHUNK, remaining)
        remaining -= size
        marked = rng.binomial(params.n_users, p_fire * params.xi, size=size)
        failures += int(np.count_nonzero(marked == 0))
    return SimResult.from_counts(trials, failures, seed)


@dataclass(frozen=True)
class SystemConfig:
    """Proxy/pool mechanics under test.

    Each of n_users emits requests as an independent Poisson stream at
    rate beta; a request is marked with probability xi and then uses the
    connection owned by a uniformly chosen pooled process.  process_life
    is the request count after which a process respawns with a fresh
    connection; 0 means processes never respawn.  idle_timeout_s 0
    encodes "never drop", following the directory server's convention.
    n_users, beta and xi are checked as :class:`ModelParams` checks them,
    and the span may expect at most 1e8 arrivals.
    """

    n_users: int
    beta: float
    xi: float
    n_processes: int
    idle_timeout_s: float
    duration_s: float
    process_life: int = 0

    def __post_init__(self) -> None:
        ModelParams(self.n_users, self.beta, self.xi)
        _check_count("n_processes", self.n_processes, ">= 1")
        _check_count("process_life", self.process_life, ">= 0")
        _check("idle_timeout_s", self.idle_timeout_s, ">= 0")
        _check("duration_s", self.duration_s, "positive and finite")
        _check_arrivals("duration_s", self.n_users, self.beta, self.duration_s)


@dataclass(frozen=True)
class SystemReport:
    """Outcome counts plus a summary of observed connection idle gaps."""

    total_requests: int
    marked_requests: int
    failed_binds: int
    failure_rate: float
    no_marked: bool
    idle_gap_min_s: float | None
    idle_gap_median_s: float | None
    idle_gap_max_s: float | None
    seed: int

    def __post_init__(self) -> None:
        if self.failed_binds > self.marked_requests:
            raise ValueError(
                f"failed_binds {self.failed_binds} exceeds marked_requests {self.marked_requests}"
            )

    def to_json(self) -> str:
        return json.dumps({name: getattr(self, name) for name in self.__dataclass_fields__})


def _arrival_batches(rng: np.random.Generator, rate: float, duration_s: float) -> Iterator[np.ndarray]:
    """Poisson arrival times in (0, duration], drawn in fixed-size batches.

    The union of independent per-user Poisson streams is itself a Poisson
    stream at the summed rate, so one aggregate stream reproduces the
    population exactly without tracking user identities.
    """
    t = 0.0
    while True:
        gaps = rng.exponential(1.0 / rate, size=_EVENT_CHUNK)
        times = t + np.cumsum(gaps)
        if times[-1] > duration_s:
            yield times[times <= duration_s]
            return
        t = float(times[-1])
        yield times


def simulate_system(config: SystemConfig, seed: int) -> SystemReport:
    """Replay pool mechanics request by request, over batches of arrivals.

    Marked requests use their process's pooled connection; a connection
    idle longer than the timeout has been dropped by the server, so that
    use is a failed bind and re-establishes the connection.  Any touch of
    the connection (success, failed bind, respawn) resets its idle timer,
    which makes the gap sequence independent of the timeout under a fixed
    seed: raising the timeout can only reclassify failures as successes.

    Each batch is walked as arrays: a stable sort by process puts each
    process's requests in time order; a request touches its connection
    when it is marked or its process respawns after it; and a marked
    request's gap runs back to the previous touch of its process, in the
    batch or carried over from an earlier one.  The gaps are kept as
    float64, 8 bytes each, and sorted once for the summary, whose median
    is taken as ``statistics.median`` takes it.
    """
    rng_arrivals, rng_marks, rng_dispatch = _streams(seed, 3)

    # connections are established at startup, so idle timers start at t=0
    last_use = np.zeros(config.n_processes)
    served = np.zeros(config.n_processes, dtype=np.int64)
    # numpy's stable sort is a radix sort on keys of 16 bits or less
    sort_key = np.min_scalar_type(config.n_processes - 1)
    chunks: list[np.ndarray] = []
    total_requests = 0
    process_life = config.process_life  # 0: processes never respawn

    for times in _arrival_batches(rng_arrivals, config.n_users * config.beta, config.duration_s):
        n = len(times)
        total_requests += n
        marks = rng_marks.random(size=n) < config.xi
        procs = rng_dispatch.integers(0, config.n_processes, size=n)
        order = np.argsort(procs.astype(sort_key), kind="stable")
        procs, times, marks = procs[order], times[order], marks[order]
        touched = marks
        if process_life:
            # each request's count on its process: the count carried over
            # plus its 1-based place in the process's run
            index = np.arange(n)
            first = _run_starts(procs)
            count = served[procs] + index - np.maximum.accumulate(np.where(first, index, 0)) + 1
            touched = marks | (count % process_life == 0)
            last = np.roll(first, -1)  # a run ends where the next begins
            served[procs[last]] = count[last] % process_life
        at = np.flatnonzero(touched)
        touch_times, touch_procs = times[at], procs[at]
        # each touch's predecessor: the touch before it, or for the first
        # touch of a process in this batch, the one carried over
        first = _run_starts(touch_procs)
        previous = np.empty_like(touch_times)
        previous[1:] = touch_times[:-1]
        previous[first] = last_use[touch_procs[first]]
        chunks.append((touch_times - previous)[marks[at]])
        last = np.roll(first, -1)
        last_use[touch_procs[last]] = touch_times[last]

    gaps = np.concatenate(chunks)  # _arrival_batches yields at least one batch
    del chunks
    gaps.sort()
    marked_requests = len(gaps)
    failed_binds = int(np.count_nonzero(gaps > config.idle_timeout_s)) if config.idle_timeout_s > 0.0 else 0
    no_marked = marked_requests == 0
    return SystemReport(
        total_requests=total_requests,
        marked_requests=marked_requests,
        failed_binds=failed_binds,
        failure_rate=0.0 if no_marked else failed_binds / marked_requests,
        no_marked=no_marked,
        idle_gap_min_s=None if no_marked else float(gaps[0]),
        idle_gap_median_s=None if no_marked else _median(gaps),
        idle_gap_max_s=None if no_marked else float(gaps[-1]),
        seed=int(seed),  # a numpy integer would stop to_json
    )


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in ``keys`` begins."""
    starts = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts


def _median(ordered: np.ndarray) -> float:
    """The median of a sorted nonempty array, as ``statistics.median`` takes it."""
    half = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[half])
    return (float(ordered[half - 1]) + float(ordered[half])) / 2


def generate_event_log(params: ModelParams, duration_s: float, seed: int) -> Iterator[tuple[float, bool]]:
    """Yield a synthetic request stream of ``(ts, is_bind)`` pairs with known
    ground-truth parameters.

    Arrivals form the aggregate Poisson stream of n_users independent
    per-user streams at rate beta; each event is independently a bind with
    probability xi.  Deterministic given the seed.  The span may expect at
    most 1e8 events.
    """
    _check("duration_s", duration_s, "positive and finite")
    _check_arrivals("duration_s", params.n_users, params.beta, duration_s)
    rng_arrivals, rng_marks = _streams(seed, 2)
    for times in _arrival_batches(rng_arrivals, params.n_users * params.beta, duration_s):
        marks = rng_marks.random(size=len(times)) < params.xi
        # Python floats and bools: a numpy scalar's %r would change format_event's line
        yield from zip(times.tolist(), marks.tolist())
