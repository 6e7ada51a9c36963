"""Recursive tracking of (xi, beta) from windowed traffic statistics.

Each traffic window contributes one observation pair (chi, theta).  The
estimates follow the stochastic-approximation recursion

    x_{n+1} = x_n + eta_n * (obs_{n+1} - x_n)

whose decaying step sizes average out window noise while still moving
toward the current traffic regime.  On top of the recursion sits a small
control loop: recompute the recommended idle timeout each window and push
it to a sink only when it moved by at least the publish threshold.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Mapping, Protocol

from .errors import CannotInitializeError, InfeasibleTargetError, SinkError
from .ingest import WindowStats
from .model import ModelParams, SolverPolicy, TimeoutSolution, _check_n_users, solve_timeout

__all__ = [
    "ScheduleKind",
    "StepSchedule",
    "step_size",
    "EstimatorState",
    "TunerConfig",
    "init_state",
    "update",
    "recommend",
    "should_publish",
    "TunerRecord",
    "TunerReport",
    "run_tuner",
]

logger = logging.getLogger(__name__)


class ScheduleKind(Enum):
    HARMONIC = "harmonic"
    POWER = "power"
    CONSTANT = "constant"


@dataclass(frozen=True)
class StepSchedule:
    """Step-size sequence eta_n for the recursion.

    Harmonic (eta_n = 1/(n+1)) and Power (eta_n = (n+1)**-a with
    a in (0.5, 1]) satisfy the averaging conditions eta_n > 0, eta_n -> 0,
    and sum eta_n = inf, so the estimates settle.  Constant (eta_n = c in
    (0, 1]) never stops moving; it trades convergence for the ability to
    track drifting traffic and must be opted into explicitly.
    """

    kind: ScheduleKind
    exponent: float | None = None
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind is ScheduleKind.POWER:
            if self.exponent is None or not 0.5 < self.exponent <= 1.0:
                raise ValueError(
                    f"power schedule needs an exponent in (0.5, 1], got {self.exponent!r}"
                )
        elif self.exponent is not None:
            raise ValueError(f"{self.kind.value} schedule takes no exponent")
        if self.kind is ScheduleKind.CONSTANT:
            if self.value is None or not 0.0 < self.value <= 1.0:
                raise ValueError(
                    f"constant schedule needs a value in (0, 1], got {self.value!r}"
                )
        elif self.value is not None:
            raise ValueError(f"{self.kind.value} schedule takes no value")

    @classmethod
    def harmonic(cls) -> "StepSchedule":
        return cls(ScheduleKind.HARMONIC)

    @classmethod
    def power(cls, exponent: float) -> "StepSchedule":
        return cls(ScheduleKind.POWER, exponent=exponent)

    @classmethod
    def constant(cls, value: float) -> "StepSchedule":
        return cls(ScheduleKind.CONSTANT, value=value)


def step_size(schedule: StepSchedule, n: int) -> float:
    """eta_n for step index n >= 0; always in (0, 1]."""
    if n < 0:
        raise ValueError(f"step index must be >= 0, got {n}")
    if schedule.kind is ScheduleKind.HARMONIC:
        return 1.0 / (n + 1)
    if schedule.kind is ScheduleKind.POWER:
        return (n + 1) ** -schedule.exponent
    return schedule.value


@dataclass(frozen=True)
class EstimatorState:
    """Current estimates after ``iteration`` completed recursion steps."""

    iteration: int
    xi_hat: float
    beta_hat: float
    last_published_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError(f"iteration must be >= 0, got {self.iteration}")
        if not 0.0 <= self.xi_hat <= 1.0:
            raise ValueError(f"xi_hat must lie in [0, 1], got {self.xi_hat!r}")
        if not self.beta_hat >= 0.0:
            raise ValueError(f"beta_hat must be >= 0, got {self.beta_hat!r}")
        if self.last_published_timeout_s is not None and not self.last_published_timeout_s > 0.0:
            raise ValueError(
                f"last_published_timeout_s must be positive, got {self.last_published_timeout_s!r}"
            )


@dataclass(frozen=True)
class TunerConfig:
    """Loop parameters: target, population, publish gate, steps and solver."""

    target_eps: float
    n_users: int
    publish_delta_s: float = 5.0
    schedule: StepSchedule = StepSchedule.harmonic()
    solver_policy: SolverPolicy = SolverPolicy()

    def __post_init__(self) -> None:
        if not 0.0 < self.target_eps < 1.0:
            raise ValueError(f"target_eps must lie in (0, 1), got {self.target_eps!r}")
        _check_n_users(self.n_users)
        if not self.publish_delta_s >= 0.0:
            raise ValueError(f"publish_delta_s must be >= 0, got {self.publish_delta_s!r}")


def init_state(first_window: WindowStats) -> EstimatorState:
    """Seed the estimates from the first nonempty window.

    Starting from zero estimates, the first step has eta_0 = 1 and lands
    exactly on the first observation, so the state is constructed there
    directly.  An empty window carries no observation to land on.
    """
    if first_window.n_requests == 0:
        raise CannotInitializeError("first window has no traffic to estimate from")
    return EstimatorState(iteration=0, xi_hat=first_window.chi, beta_hat=first_window.theta)


def update(state: EstimatorState, window: WindowStats, schedule: StepSchedule) -> EstimatorState:
    """One recursion step toward the window's (chi, theta) observation."""
    if window.n_requests == 0:
        raise ValueError("zero-traffic windows carry no observation; skip them upstream")
    eta = step_size(schedule, state.iteration + 1)
    xi_hat = state.xi_hat + eta * (window.chi - state.xi_hat)
    beta_hat = state.beta_hat + eta * (window.theta - state.beta_hat)
    return replace(
        state,
        iteration=state.iteration + 1,
        # convex combination; the clamps only absorb last-ulp rounding
        xi_hat=min(1.0, max(0.0, xi_hat)),
        beta_hat=max(0.0, beta_hat),
    )


def recommend(state: EstimatorState, config: TunerConfig) -> TimeoutSolution:
    """Solve for the timeout at the current estimates.

    Infeasible targets raise :class:`InfeasibleTargetError` annotated with
    the estimates that produced them, so callers can log and move on.
    """
    if state.xi_hat <= 0.0 or state.beta_hat <= 0.0:
        raise InfeasibleTargetError(
            config.target_eps,
            1.0,
            f"estimates xi_hat={state.xi_hat!r}, beta_hat={state.beta_hat!r} "
            "admit no finite timeout",
        )
    params = ModelParams(n_users=config.n_users, beta=state.beta_hat, xi=state.xi_hat)
    try:
        return solve_timeout(params, config.target_eps, config.solver_policy)
    except InfeasibleTargetError as exc:
        raise InfeasibleTargetError(
            config.target_eps,
            exc.bound,
            f"at estimates xi_hat={state.xi_hat:.6g}, beta_hat={state.beta_hat:.6g}",
        ) from exc


def should_publish(state: EstimatorState, new_timeout_s: float, publish_delta_s: float) -> bool:
    """True on the first recommendation or when the move is >= the threshold."""
    if not new_timeout_s > 0.0:
        raise ValueError(f"new_timeout_s must be positive, got {new_timeout_s!r}")
    if state.last_published_timeout_s is None:
        return True
    return abs(new_timeout_s - state.last_published_timeout_s) >= publish_delta_s


class PublishTarget(Protocol):
    def publish(self, timeout_s: float, meta: Mapping[str, object] | None = None) -> None: ...


@dataclass(frozen=True)
class TunerRecord:
    """One audit line per recursion step.

    timeout_s is None when the target was infeasible at that step's
    estimates; published reflects actual delivery, not intent.
    """

    iteration: int
    window_end_ts: float
    chi: float
    theta: float
    xi_hat: float
    beta_hat: float
    timeout_s: float | None
    published: bool

    def to_json(self) -> str:
        # vars(self) would give every record a __dict__ for as long as it is kept
        return json.dumps({name: getattr(self, name) for name in self.__dataclass_fields__})


@dataclass(frozen=True)
class TunerReport:
    final_state: EstimatorState
    skipped_windows: int
    n_published: int
    failed_publishes: int


def run_tuner(
    windows: Iterable[WindowStats],
    config: TunerConfig,
    sink: PublishTarget | None = None,
    on_record: Callable[[TunerRecord], object] | None = None,
) -> TunerReport:
    """Drive the estimate/recommend/publish loop over a window stream.

    Zero-traffic windows are logged and skipped without advancing the
    iteration counter.  An infeasible recommendation is recorded and the
    loop continues; early estimates sit near zero and routinely cross the
    feasibility floor before enough windows accumulate.  Sink failures are
    likewise non-fatal: the publish gate stays open (the last published
    value is unchanged), so the next window retries.  With no sink the
    loop records what it would have published.

    ``on_record``, if given, is called with each record as soon as it is
    made, before the next window is pulled from ``windows``, so a caller
    can emit records while a live stream is still being read.  The loop
    keeps no records: the report holds only counts and the final state.
    """
    state: EstimatorState | None = None
    skipped = 0
    n_published = 0
    failed_publishes = 0
    for window in windows:
        if window.n_requests == 0:
            skipped += 1
            logger.info(
                "window starting at %s has no traffic; skipped", window.window_start_ts
            )
            continue
        if state is None:
            state = init_state(window)
        else:
            state = update(state, window, config.schedule)
        try:
            solution = recommend(state, config)
        except InfeasibleTargetError as exc:
            logger.warning(
                "iteration %d: target %g infeasible (bound %g); holding published value",
                state.iteration,
                config.target_eps,
                exc.bound,
            )
            solution = None
        published = False
        if solution is not None and should_publish(state, solution.timeout_s, config.publish_delta_s):
            if sink is None:
                published = True
            else:
                meta = {
                    "iteration": state.iteration,
                    "window_end_ts": window.window_end_ts,
                    "xi_hat": state.xi_hat,
                    "beta_hat": state.beta_hat,
                    "target_eps": config.target_eps,
                    "expression": solution.expression.value,
                }
                try:
                    sink.publish(solution.timeout_s, meta)
                    published = True
                except SinkError as exc:
                    failed_publishes += 1
                    logger.error("publish failed at iteration %d: %s", state.iteration, exc)
            if published:
                n_published += 1
                state = replace(state, last_published_timeout_s=solution.timeout_s)
        record = TunerRecord(
            iteration=state.iteration,
            window_end_ts=window.window_end_ts,
            chi=window.chi,
            theta=window.theta,
            xi_hat=state.xi_hat,
            beta_hat=state.beta_hat,
            timeout_s=None if solution is None else solution.timeout_s,
            published=published,
        )
        if on_record is not None:
            on_record(record)
    if state is None:
        raise CannotInitializeError("window stream contained no traffic")
    return TunerReport(
        final_state=state,
        skipped_windows=skipped,
        n_published=n_published,
        failed_publishes=failed_publishes,
    )
