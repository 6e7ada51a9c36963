"""Semantic exceptions shared across the package."""

from __future__ import annotations

__all__ = [
    "IdletuneError",
    "InfeasibleTargetError",
    "ParseError",
    "SequencingError",
    "CannotInitializeError",
    "SinkError",
]


class IdletuneError(Exception):
    """Base class for errors raised by this package."""


class InfeasibleTargetError(IdletuneError, ValueError):
    """The requested failure probability is at or below the attainable floor.

    Even a connection that never times out fails with probability
    ``(1 - xi) ** n_users`` (the chance that no request in the window is
    marked at all), so targets at or below that floor cannot be met by any
    timeout.  The operator has to raise the target, raise the marked
    fraction, or grow the population.
    """

    def __init__(self, target_eps: float, bound: float, detail: str = ""):
        self.target_eps = target_eps
        self.bound = bound
        msg = (
            f"target failure probability {target_eps:.6g} is unattainable: "
            f"the feasibility bound for these parameters is {bound:.6g}"
        )
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


class ParseError(IdletuneError, ValueError):
    """An event-log line could not be decoded."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class SequencingError(IdletuneError, ValueError):
    """Events arrived outside the expected time order or window."""


class CannotInitializeError(IdletuneError, ValueError):
    """The estimator saw no traffic to initialize from."""


class SinkError(IdletuneError, RuntimeError):
    """A publish target rejected or failed to deliver an update."""
