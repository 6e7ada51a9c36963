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
import statistics
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import ModelParams, _check, _check_count

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
    n_users, beta and xi are checked as :class:`ModelParams` checks them.
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
    """Replay pool mechanics event by event.

    Marked requests use their process's pooled connection; a connection
    idle longer than the timeout has been dropped by the server, so that
    use is a failed bind and re-establishes the connection.  Any touch of
    the connection (success, failed bind, respawn) resets its idle timer,
    which makes the gap sequence independent of the timeout under a fixed
    seed: raising the timeout can only reclassify failures as successes.
    """
    rng_arrivals, rng_marks, rng_dispatch = _streams(seed, 3)

    # connections are established at startup, so idle timers start at t=0
    last_use = [0.0] * config.n_processes
    served = [0] * config.n_processes
    gaps: list[float] = []
    total_requests = 0
    marked_requests = 0
    failed_binds = 0
    drops_enabled = config.idle_timeout_s > 0.0
    process_life = config.process_life  # 0: processes never respawn

    for times in _arrival_batches(rng_arrivals, config.n_users * config.beta, config.duration_s):
        n = len(times)
        total_requests += n
        marks = rng_marks.random(size=n) < config.xi
        procs = rng_dispatch.integers(0, config.n_processes, size=n)
        # Python lists: indexing numpy arrays one element at a time is slow
        for t, marked, proc in zip(times.tolist(), marks.tolist(), procs.tolist()):
            if marked:
                marked_requests += 1
                gap = t - last_use[proc]
                gaps.append(gap)
                if drops_enabled and gap > config.idle_timeout_s:
                    failed_binds += 1
                last_use[proc] = t
            served[proc] += 1
            if process_life and served[proc] >= process_life:
                served[proc] = 0
                last_use[proc] = t

    no_marked = marked_requests == 0
    return SystemReport(
        total_requests=total_requests,
        marked_requests=marked_requests,
        failed_binds=failed_binds,
        failure_rate=0.0 if no_marked else failed_binds / marked_requests,
        no_marked=no_marked,
        idle_gap_min_s=min(gaps) if gaps else None,
        idle_gap_median_s=statistics.median(gaps) if gaps else None,
        idle_gap_max_s=max(gaps) if gaps else None,
        seed=int(seed),  # a numpy integer would stop to_json
    )


def generate_event_log(params: ModelParams, duration_s: float, seed: int) -> Iterator[tuple[float, bool]]:
    """Yield a synthetic request stream of ``(ts, is_bind)`` pairs with known
    ground-truth parameters.

    Arrivals form the aggregate Poisson stream of n_users independent
    per-user streams at rate beta; each event is independently a bind with
    probability xi.  Deterministic given the seed.
    """
    _check("duration_s", duration_s, "positive and finite")
    rng_arrivals, rng_marks = _streams(seed, 2)
    for times in _arrival_batches(rng_arrivals, params.n_users * params.beta, duration_s):
        marks = rng_marks.random(size=len(times)) < params.xi
        # Python floats and bools: a numpy scalar's %r would change format_event's line
        yield from zip(times.tolist(), marks.tolist())
