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
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Protocol

from .errors import CannotInitializeError, InfeasibleTargetError, SinkError
from .ingest import WindowStats
from .model import DEFAULT_LARGE_N_THRESHOLD, ModelParams, TimeoutSolution, solve_timeout
from .model import _check, _check_count, _pick_inversion, _solve_timeout
from .sinks import _filled

__all__ = [
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


# each kind of schedule that takes a value: the value's name in error
# messages and the open lower end of its range, whose upper end is 1
_SCHEDULE_VALUES = {"power": ("an exponent", 0.5), "constant": ("a value", 0.0)}


@dataclass(frozen=True)
class StepSchedule:
    """Step-size sequence eta_n for the recursion.

    Harmonic (eta_n = 1/(n+1)) and Power (eta_n = (n+1)**-a with
    a in (0.5, 1]) satisfy the averaging conditions eta_n > 0, eta_n -> 0,
    and sum eta_n = inf, so the estimates settle.  Constant (eta_n = c in
    (0, 1]) never stops moving; it trades convergence for the ability to
    track drifting traffic and must be opted into explicitly.  ``kind`` is
    "harmonic", "power" or "constant"; ``value`` is power's exponent a or
    constant's c, and None for harmonic.
    """

    kind: str
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "harmonic":
            if self.value is not None:
                raise ValueError("harmonic schedule takes no value")
        elif self.kind in _SCHEDULE_VALUES:
            noun, low = _SCHEDULE_VALUES[self.kind]
            if self.value is None or not low < self.value <= 1.0:
                raise ValueError(
                    f"{self.kind} schedule needs {noun} in ({low:g}, 1], got {self.value!r}"
                )
        else:
            raise ValueError(f"schedule kind must be harmonic, power, or constant, got {self.kind!r}")

    @classmethod
    def harmonic(cls) -> "StepSchedule":
        return cls("harmonic")


def step_size(schedule: StepSchedule, n: int) -> float:
    """eta_n for step index n >= 0; always in (0, 1]."""
    _check("step index", n, ">= 0")
    if schedule.kind == "harmonic":
        return 1.0 / (n + 1)
    if schedule.kind == "power":
        return (n + 1) ** -schedule.value
    return schedule.value


@dataclass(frozen=True)
class EstimatorState:
    """Current estimates after ``iteration`` completed recursion steps."""

    iteration: int
    xi_hat: float
    beta_hat: float
    last_published_timeout_s: float | None = None

    def __post_init__(self) -> None:
        _check_count("iteration", self.iteration, 0)
        _check("xi_hat", self.xi_hat, "in [0, 1]")
        _check("beta_hat", self.beta_hat, ">= 0")
        if self.last_published_timeout_s is not None:
            _check("last_published_timeout_s", self.last_published_timeout_s, "positive")


@dataclass(frozen=True)
class TunerConfig:
    """Loop parameters: target, population, publish gate, steps, and the
    ``expression`` and ``large_n_threshold`` that :func:`solve_timeout` takes."""

    target_eps: float
    n_users: int
    publish_delta_s: float = 5.0
    schedule: StepSchedule = StepSchedule.harmonic()
    expression: str = "auto"
    large_n_threshold: int = DEFAULT_LARGE_N_THRESHOLD

    def __post_init__(self) -> None:
        _check("target_eps", self.target_eps, "in (0, 1)")
        _check_count("n_users", self.n_users)
        _check("publish_delta_s", self.publish_delta_s, ">= 0")
        _pick_inversion(self.expression, self.large_n_threshold, self.n_users)


def init_state(first_window: WindowStats) -> EstimatorState:
    """Seed the estimates from the first nonempty window.

    Starting from zero estimates, the first step has eta_0 = 1 and lands
    exactly on the first observation, so the state is constructed there
    directly.  An empty window carries no observation to land on.
    """
    if first_window.n_requests == 0:
        raise CannotInitializeError("first window has no traffic to estimate from")
    return EstimatorState(iteration=0, xi_hat=first_window.chi, beta_hat=first_window.theta)


def _step(
    iteration: int, xi_hat: float, beta_hat: float, chi: float, theta: float, schedule: StepSchedule
) -> tuple[int, float, float]:
    """One recursion step on plain numbers: the next (iteration, xi_hat, beta_hat)."""
    iteration += 1
    eta = step_size(schedule, iteration)
    xi_hat += eta * (chi - xi_hat)
    beta_hat += eta * (theta - beta_hat)
    # convex combination; the clamps only absorb last-ulp rounding
    return iteration, min(1.0, max(0.0, xi_hat)), max(0.0, beta_hat)


def update(state: EstimatorState, window: WindowStats, schedule: StepSchedule) -> EstimatorState:
    """One recursion step toward the window's (chi, theta) observation."""
    if window.n_requests == 0:
        raise ValueError("zero-traffic windows carry no observation; skip them upstream")
    iteration, xi_hat, beta_hat = _step(
        state.iteration, state.xi_hat, state.beta_hat, window.chi, window.theta, schedule
    )
    return replace(state, iteration=iteration, xi_hat=xi_hat, beta_hat=beta_hat)


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
        return solve_timeout(params, config.target_eps, config.expression, config.large_n_threshold)
    except InfeasibleTargetError as exc:
        raise InfeasibleTargetError(
            config.target_eps,
            exc.bound,
            f"at estimates xi_hat={state.xi_hat:.6g}, beta_hat={state.beta_hat:.6g}",
        ) from exc


def should_publish(state: EstimatorState, new_timeout_s: float, publish_delta_s: float) -> bool:
    """True on the first recommendation or when the move is >= the threshold."""
    _check("new_timeout_s", new_timeout_s, "positive")
    return _moved(state.last_published_timeout_s, new_timeout_s, publish_delta_s)


def _moved(last_published_timeout_s: float | None, new_timeout_s: float, publish_delta_s: float) -> bool:
    return last_published_timeout_s is None or abs(new_timeout_s - last_published_timeout_s) >= publish_delta_s


class PublishTarget(Protocol):
    def publish(self, timeout_s: float, meta: Mapping[str, object] | None = None) -> None: ...


# A record's line as json.dumps writes it when its floats are finite
_RECORD_LINE = (
    '{"iteration": %d, "window_end_ts": %s, "chi": %s, "theta": %s, '
    '"xi_hat": %s, "beta_hat": %s, "timeout_s": %s, "published": %s}'
)


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
        """The record as one JSON object, byte for byte what ``json.dumps`` writes."""
        w, chi, theta, xi_hat, beta_hat, timeout_s = (
            self.window_end_ts, self.chi, self.theta, self.xi_hat, self.beta_hat, self.timeout_s
        )
        if type(self.iteration) is int and type(self.published) is bool:
            line = _filled(
                _RECORD_LINE,
                (
                    self.iteration, w, chi, theta, xi_hat, beta_hat,
                    "null" if timeout_s is None else timeout_s,
                    "true" if self.published else "false",
                ),
                (w, chi, theta, xi_hat, beta_hat, 0.0 if timeout_s is None else timeout_s),
            )
            if line is not None:
                return line
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

    Each step is :func:`update`, :func:`recommend` and :func:`should_publish`
    on plain numbers: the estimates are kept as locals and go through the
    same step and inversion those functions use, so no state or solution
    object is made per window.
    """
    eps, n_users, schedule, publish_delta_s = (
        config.target_eps, config.n_users, config.schedule, config.publish_delta_s
    )
    inversion = _pick_inversion(config.expression, config.large_n_threshold, n_users)
    iteration = -1  # no estimates until the first window with traffic
    xi_hat = beta_hat = 0.0
    last_published: float | None = None
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
        chi, theta = window.chi, window.theta
        if iteration < 0:
            first = init_state(window)
            iteration, xi_hat, beta_hat = first.iteration, first.xi_hat, first.beta_hat
        else:
            iteration, xi_hat, beta_hat = _step(iteration, xi_hat, beta_hat, chi, theta, schedule)
        # as in recommend: estimates at zero admit no timeout at all
        timeout_s, bound = None, 1.0
        if xi_hat > 0.0 and beta_hat > 0.0:
            timeout_s, bound = _solve_timeout(n_users, beta_hat, xi_hat, eps, inversion)
            if beta_hat == math.inf or not (timeout_s is None or 0.0 < timeout_s < math.inf):
                # past the float range: the error recommend gives, from
                # ModelParams or else from TimeoutSolution
                _check("beta", beta_hat, "positive and finite")
                _check("timeout_s", timeout_s, "positive and finite")
        window_end_ts = window.window_end_ts
        published = False
        if timeout_s is None:
            logger.warning(
                "iteration %d: target %g infeasible (bound %g); holding published value",
                iteration,
                eps,
                bound,
            )
        elif _moved(last_published, timeout_s, publish_delta_s):
            if sink is None:
                published = True
            else:
                meta = {
                    "iteration": iteration,
                    "window_end_ts": window_end_ts,
                    "xi_hat": xi_hat,
                    "beta_hat": beta_hat,
                    "target_eps": eps,
                    "expression": inversion,
                }
                try:
                    sink.publish(timeout_s, meta)
                    published = True
                except SinkError as exc:
                    failed_publishes += 1
                    logger.error("publish failed at iteration %d: %s", iteration, exc)
            if published:
                n_published += 1
                last_published = timeout_s
        if on_record is not None:
            on_record(TunerRecord(iteration, window_end_ts, chi, theta, xi_hat, beta_hat, timeout_s, published))
    if iteration < 0:
        raise CannotInitializeError("window stream contained no traffic")
    return TunerReport(
        final_state=EstimatorState(iteration, xi_hat, beta_hat, last_published),
        skipped_windows=skipped,
        n_published=n_published,
        failed_publishes=failed_publishes,
    )
