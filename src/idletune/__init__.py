"""Idle-timeout tuning for pooled directory connections.

The package answers one operational question: how large must a directory
server's idle timeout be so that a proxy's pooled connections are dropped
mid-use with at most a chosen probability.  It offers the closed-form
model and its inverse, a recursive estimator that tracks the model's
parameters from access-log traffic, simulators that check both against
sampled behavior, and a command line tying them together.

The simulators need numpy, so their names are loaded on first use: a
bare ``import idletune`` does not import numpy.
"""

import importlib

from .errors import (
    CannotInitializeError,
    IdletuneError,
    InfeasibleTargetError,
    ParseError,
    SequencingError,
    SinkError,
)
from .estimator import (
    EstimatorState,
    ScheduleKind,
    StepSchedule,
    TunerConfig,
    TunerRecord,
    TunerReport,
    init_state,
    recommend,
    run_tuner,
    should_publish,
    step_size,
    update,
)
from .ingest import (
    REORDER_TOLERANCE_S,
    Event,
    EventKind,
    WindowStats,
    parse_event,
    read_events,
    windowize,
)
from .model import (
    Expression,
    ModelParams,
    SolverPolicy,
    TimeoutSolution,
    failure_probability,
    feasibility_bound,
    solve_timeout,
    solve_timeout_exact,
    solve_timeout_large_n,
    state_probability,
)
from .sinks import FileSink, LdifSink, StdoutSink, WebhookSink, make_sink

__version__ = "0.1.0"

_SIMULATE_NAMES = frozenset(
    ["SimResult", "SystemConfig", "SystemReport", "generate_event_log", "simulate_failure_prob",
     "simulate_system"]
)


def __getattr__(name):
    if name == "simulate" or name in _SIMULATE_NAMES:
        # import_module, not ``from . import``: that would look the name up
        # on this package again, and so call this function again
        simulate = importlib.import_module(".simulate", __name__)
        return simulate if name == "simulate" else getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "IdletuneError",
    "InfeasibleTargetError",
    "ParseError",
    "SequencingError",
    "CannotInitializeError",
    "SinkError",
    "ModelParams",
    "Expression",
    "SolverPolicy",
    "TimeoutSolution",
    "state_probability",
    "failure_probability",
    "feasibility_bound",
    "solve_timeout_exact",
    "solve_timeout_large_n",
    "solve_timeout",
    "REORDER_TOLERANCE_S",
    "Event",
    "EventKind",
    "WindowStats",
    "parse_event",
    "read_events",
    "windowize",
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
    "SimResult",
    "SystemConfig",
    "SystemReport",
    "simulate_failure_prob",
    "simulate_system",
    "generate_event_log",
    "StdoutSink",
    "FileSink",
    "LdifSink",
    "WebhookSink",
    "make_sink",
    "__version__",
]
