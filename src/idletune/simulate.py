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

from .model import ModelParams, _check_count

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
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
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
        _check_count("trials", self.trials)
        _check_count("failures", self.failures, 0)
        if self.failures > self.trials:
            raise ValueError(
                f"failures {self.failures} outside [0, {self.trials}]"
            )

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

    Each trial draws the number of users who fire within the timeout as a
    binomial, then thins it by the marking probability; the trial fails
    when no marked request remains.  This samples the mechanism directly
    rather than evaluating any closed expression, so it serves as an
    independent check of one.
    """
    if not timeout_s >= 0.0:
        raise ValueError(f"timeout_s must be >= 0, got {timeout_s!r}")
    _check_count("trials", trials)
    p_fire = -math.expm1(-params.beta * timeout_s)
    failures = 0
    remaining = trials
    for rng in _streams(seed, -(-trials // _TRIAL_CHUNK)):
        size = min(_TRIAL_CHUNK, remaining)
        remaining -= size
        fired = rng.binomial(params.n_users, p_fire, size=size)
        marked = rng.binomial(fired, params.xi)
        failures += int(np.count_nonzero(marked == 0))
    return SimResult.from_counts(trials, failures, seed)


@dataclass(frozen=True)
class SystemConfig:
    """Proxy/pool mechanics under test.

    Each of n_users emits requests as an independent Poisson stream at
    rate beta; a request is marked with probability xi and then uses the
    connection owned by a uniformly chosen pooled process.  process_life
    is the request count after which a process respawns with a fresh
    connection; None means processes never respawn.  idle_timeout_s 0
    encodes "never drop", following the directory server's convention.
    n_users, beta and xi are checked as :class:`ModelParams` checks them.
    """

    n_users: int
    beta: float
    xi: float
    n_processes: int
    idle_timeout_s: float
    duration_s: float
    process_life: int | None = None

    def __post_init__(self) -> None:
        ModelParams(self.n_users, self.beta, self.xi)
        _check_count("n_processes", self.n_processes)
        if self.process_life is not None:
            _check_count("process_life", self.process_life)
        if not self.idle_timeout_s >= 0.0:
            raise ValueError(f"idle_timeout_s must be >= 0, got {self.idle_timeout_s!r}")
        if not (self.duration_s > 0.0 and math.isfinite(self.duration_s)):
            raise ValueError(f"duration_s must be positive and finite, got {self.duration_s!r}")


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
            if config.process_life is not None and served[proc] >= config.process_life:
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
        seed=seed,
    )


def generate_event_log(params: ModelParams, duration_s: float, seed: int) -> Iterator[tuple[float, bool]]:
    """Yield a synthetic request stream of ``(ts, is_bind)`` pairs with known
    ground-truth parameters.

    Arrivals form the aggregate Poisson stream of n_users independent
    per-user streams at rate beta; each event is independently a bind with
    probability xi.  Deterministic given the seed.
    """
    if not (duration_s > 0.0 and math.isfinite(duration_s)):
        raise ValueError(f"duration_s must be positive and finite, got {duration_s!r}")
    rng_arrivals, rng_marks = _streams(seed, 2)
    for times in _arrival_batches(rng_arrivals, params.n_users * params.beta, duration_s):
        marks = rng_marks.random(size=len(times)) < params.xi
        # Python floats and bools: a numpy scalar's %r would change format_event's line
        yield from zip(times.tolist(), marks.tolist())
