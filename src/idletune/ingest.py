"""Event-log parsing and tumbling-window aggregation.

The input is a unified line-delimited stream of JSON records, one per
proxy request: ``{"ts": <seconds>, "kind": "request"|"bind"}``.  A
``bind`` line is a request that opened a directory connection, so it
counts toward both the request total and the marked total.

Events stream as ``(ts, is_bind)`` pairs: :func:`read_events` yields
them and :func:`windowize` counts them.  :func:`parse_event` checks a
single line and returns an :class:`Event`, the named form of that pair.

The canonical line is exactly what :func:`format_event` writes:
``{"ts": <float repr>, "kind": "<kind>"}`` with that spacing and key
order.  :func:`read_events` decodes it without ``json.loads``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .errors import ParseError, SequencingError
from .model import _check_count

__all__ = [
    "REORDER_TOLERANCE_S",
    "Event",
    "parse_event",
    "format_event",
    "read_events",
    "WindowStats",
    "windowize",
]

# Multi-worker log writers flush independently, so mild timestamp jitter is
# normal; regressions within this many seconds are reordered silently while
# anything larger aborts the run as corrupt input.
REORDER_TOLERANCE_S = 1.0


class Event(NamedTuple):
    """One proxy request; is_bind means it reached the directory server."""

    ts: float
    is_bind: bool

    def to_json(self) -> str:
        return format_event(self.ts, self.is_bind)


def parse_event(line: str, line_no: int = 0) -> Event:
    """Decode one log line into an :class:`Event`.

    Raises :class:`ParseError` carrying ``line_no`` when the record is not
    valid JSON, is missing a field, has a timestamp that is not a finite
    number >= 0, or names an unknown kind.  Unrecognized extra fields are
    ignored.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(line_no, f"invalid record: {exc.msg}") from exc
    if not isinstance(record, dict):
        raise ParseError(line_no, f"expected an object, got {type(record).__name__}")
    try:
        ts = record["ts"]
        kind = record["kind"]
    except KeyError as exc:
        raise ParseError(line_no, f"missing field {exc.args[0]!r}") from exc
    if isinstance(ts, bool) or not isinstance(ts, (int, float)):
        raise ParseError(line_no, f"ts must be a number, got {ts!r}")
    if kind not in ("request", "bind"):
        raise ParseError(line_no, f"unknown kind {kind!r}")
    try:
        ts = float(ts)
    except OverflowError:  # an integer beyond the float range
        ts = math.inf if ts > 0 else -math.inf
    if not 0.0 <= ts < math.inf:
        raise ParseError(line_no, f"ts must be finite and >= 0, got {ts!r}")
    return Event(ts, kind == "bind")


# A canonical line: a non-negative JSON number (ASCII digits only, no
# sign) and a known kind, followed by nothing but JSON whitespace.
_CANONICAL_LINE = re.compile(
    r'\{"ts": ((?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?), '
    r'"kind": "(request|bind)"\}[ \t\n\r]*'
)


def format_event(ts: float, is_bind: bool) -> str:
    """The canonical line for one event, without its newline; read_events
    decodes it on its fast path."""
    return '{"ts": %r, "kind": "%s"}' % (ts, "bind" if is_bind else "request")


def read_events(lines: Iterable[str]) -> Iterator[tuple[float, bool]]:
    """Parse log lines into ``(ts, is_bind)`` pairs, skipping blank ones.

    Line numbers reported in errors are 1-based positions in the iterable.
    Canonical lines take a fast path with the same result as
    :func:`parse_event`; every other line goes through it.
    """
    match = _CANONICAL_LINE.fullmatch
    inf = math.inf
    for line_no, line in enumerate(lines, start=1):
        try:
            m = match(line)
        except TypeError:  # bytes: leave the decoding to json.loads
            m = None
        if m is not None:
            ts = float(m[1])
            if ts < inf:
                # the pattern admits only ts >= 0, so a finite match
                # already passes parse_event's checks
                yield ts, m[2] == "bind"
                continue
        if line.strip():
            yield parse_event(line, line_no)


@dataclass(frozen=True)
class WindowStats:
    """Aggregated counts and empirical rates for one tumbling window.

    chi is the marked fraction n_marked / n_requests and theta the per-user
    request rate n_requests / (n_users * window_s); both are 0 for windows
    that saw no traffic, which carry zero_traffic=True so consumers can
    tell "no information" apart from "genuinely zero marked fraction".
    """

    window_start_ts: float
    window_s: float
    n_requests: int
    n_marked: int
    chi: float
    theta: float
    zero_traffic: bool

    def __post_init__(self) -> None:
        if not (self.window_s > 0.0 and math.isfinite(self.window_s)):
            raise ValueError(f"window_s must be positive and finite, got {self.window_s!r}")
        if self.n_requests < 0 or self.n_marked < 0:
            raise ValueError("event counts must be nonnegative")
        if self.n_marked > self.n_requests:
            raise ValueError(
                f"n_marked {self.n_marked} exceeds n_requests {self.n_requests}"
            )
        if not 0.0 <= self.chi <= 1.0:
            raise ValueError(f"chi must lie in [0, 1], got {self.chi!r}")
        if self.theta < 0.0:
            raise ValueError(f"theta must be >= 0, got {self.theta!r}")
        if self.zero_traffic != (self.n_requests == 0):
            raise ValueError("zero_traffic flag inconsistent with n_requests")

    @classmethod
    def from_counts(
        cls,
        window_start_ts: float,
        window_s: float,
        n_requests: int,
        n_marked: int,
        n_users: int,
    ) -> "WindowStats":
        _check_count("n_users", n_users)
        chi = n_marked / n_requests if n_requests else 0.0
        theta = n_requests / (n_users * window_s)
        return cls(
            window_start_ts=float(window_start_ts),
            window_s=float(window_s),
            n_requests=int(n_requests),
            n_marked=int(n_marked),
            chi=chi,
            theta=theta,
            zero_traffic=n_requests == 0,
        )

    @property
    def window_end_ts(self) -> float:
        return self.window_start_ts + self.window_s

    def to_json(self) -> str:
        return json.dumps({name: getattr(self, name) for name in self.__dataclass_fields__})


def windowize(
    events: Iterable[tuple[float, bool]],
    window_s: float,
    n_users: int,
    tolerance_s: float = REORDER_TOLERANCE_S,
) -> Iterator[WindowStats]:
    """Aggregate a time-ordered stream of ``(ts, is_bind)`` pairs into contiguous windows.

    Each ``ts`` must be a finite float >= 0, as :func:`read_events` and
    ``generate_event_log`` yield it; the pairs are not checked here.

    Windows are half-open intervals [anchor + i*T, anchor + (i+1)*T)
    anchored at the first event's timestamp.  Every elapsed window is
    emitted, including zero-traffic ones, in order.  A window is released
    only once the newest timestamp seen is past its end by more than the
    reorder tolerance, so late events inside the tolerance still land in
    their proper window; events older than that raise
    :class:`SequencingError`.  No event is dropped: one whose timestamp
    rounds into a window already released is counted in the oldest open
    window.
    """
    if window_s <= 0.0 or not math.isfinite(window_s):
        raise ValueError(f"window_s must be positive and finite, got {window_s!r}")
    _check_count("n_users", n_users)
    if tolerance_s < 0.0:
        raise ValueError(f"tolerance_s must be >= 0, got {tolerance_s!r}")

    it = iter(events)
    first = next(it, None)
    if first is None:
        return
    anchor, first_bind = first
    max_ts = anchor
    # window index -> [n_requests, n_marked]
    counts: dict[int, list[int]] = {0: [1, 1 if first_bind else 0]}
    next_emit = 0
    # a window is safe to close once no in-tolerance event can reach it
    close_at = anchor + window_s + tolerance_s

    def emit(idx: int) -> WindowStats:
        n_requests, n_marked = counts.pop(idx, (0, 0))
        return WindowStats.from_counts(
            anchor + idx * window_s, window_s, n_requests, n_marked, n_users
        )

    for ts, is_bind in it:
        if ts < max_ts - tolerance_s:
            raise SequencingError(
                f"timestamp {ts} regresses {max_ts - ts:.6g}s behind the newest "
                f"event at {max_ts}; tolerance is {tolerance_s:.6g}s"
            )
        idx = int((ts - anchor) // window_s)
        if idx < next_emit:
            # a straggler ahead of the anchor, or a boundary timestamp that
            # rounds into a window the close test has already released
            idx = next_emit
        cell = counts.get(idx)
        if cell is None:
            cell = counts[idx] = [0, 0]
        cell[0] += 1
        if is_bind:
            cell[1] += 1
        if ts > max_ts:
            max_ts = ts
            while close_at <= max_ts:
                yield emit(next_emit)
                next_emit += 1
                close_at = anchor + (next_emit + 1) * window_s + tolerance_s
    last_idx = int((max_ts - anchor) // window_s)
    while next_emit <= last_idx or counts:
        yield emit(next_emit)
        next_emit += 1
