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
order.  ``tune`` reads its log in byte blocks and counts a block made of
canonical lines alone as columns, without ``json.loads`` or a pair per
line; any other block is read line by line through :func:`parse_event`.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import re
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, NamedTuple

from .errors import ParseError, SequencingError
from .model import _check, _check_count

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
    except (ValueError, RecursionError) as exc:
        # an integer too long to convert, or arrays nested too deep to decode
        raise ParseError(line_no, f"invalid record: {exc}") from exc
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


def format_event(ts: float, is_bind: bool) -> str:
    """The canonical line for one event, without its newline."""
    return '{"ts": %r, "kind": "%s"}' % (ts, "bind" if is_bind else "request")


def read_events(lines: Iterable[str]) -> Iterator[tuple[float, bool]]:
    """Parse log lines into ``(ts, is_bind)`` pairs, skipping blank ones.

    Line numbers reported in errors are 1-based positions in the iterable.
    """
    for line_no, line in enumerate(lines, start=1):
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
        _check("window_s", self.window_s, "positive and finite")
        _check_count("n_requests", self.n_requests, 0)
        _check_count("n_marked", self.n_marked, 0)
        if self.n_marked > self.n_requests:
            raise ValueError(
                f"n_marked {self.n_marked} exceeds n_requests {self.n_requests}"
            )
        _check("chi", self.chi, "in [0, 1]")
        _check("theta", self.theta, ">= 0")
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
        window = cls._of_counts(window_start_ts, window_s, n_requests, n_marked, n_users)
        # the counts are checked once, by __post_init__
        window.__post_init__()
        return window

    @classmethod
    def _of_counts(
        cls, window_start_ts: float, window_s: float, n_requests: int, n_marked: int, n_users: int
    ) -> "WindowStats":
        """:meth:`from_counts` with no check: for counts that were counted,
        in a window of checked length, which put chi and theta in range."""
        window = object.__new__(cls)
        # the fields in their order, as __init__ sets them
        vars(window).update(
            window_start_ts=float(window_start_ts),
            window_s=float(window_s),
            n_requests=n_requests,
            n_marked=n_marked,
            chi=n_marked / n_requests if n_requests else 0.0,
            theta=n_requests / (n_users * window_s),
            zero_traffic=n_requests == 0,
        )
        return window

    @property
    def window_end_ts(self) -> float:
        return self.window_start_ts + self.window_s

    def to_json(self) -> str:
        return json.dumps({name: getattr(self, name) for name in self.__dataclass_fields__})


class _Windows:
    """The window state that :func:`windowize` and :func:`_read_windows` share.

    Windows are half-open intervals [anchor + i*T, anchor + (i+1)*T)
    anchored at the first event's timestamp.  Window ``next_emit`` is
    released once the newest timestamp seen, ``max_ts``, reaches
    ``close_at``, its end plus the reorder tolerance; an event that rounds
    into a released window is counted in ``next_emit`` instead.
    """

    def __init__(self, window_s: float, n_users: int, tolerance_s: float) -> None:
        _check("window_s", window_s, "positive and finite")
        _check_count("n_users", n_users)
        _check("tolerance_s", tolerance_s, ">= 0")
        self.window_s = window_s
        self.n_users = n_users
        self.tolerance_s = tolerance_s
        self.anchor: float | None = None
        self.max_ts = 0.0
        # window index -> [n_requests, n_marked]
        self.counts: dict[int, list[int]] = {}
        self.next_emit = 0
        self.close_at = math.inf

    def start(self, ts: float) -> None:
        self.anchor = self.max_ts = ts
        self.close_at = ts + self.window_s + self.tolerance_s

    def continues_at(self, ts: float) -> bool:
        """Whether :meth:`add_columns` may count a sorted block from ``ts``
        on; the state starts at ``ts`` if no event has started it."""
        if self.anchor is None:
            self.start(ts)
        return self.max_ts <= ts and self.max_ts < self.close_at

    def emit(self) -> WindowStats:
        """Release window ``next_emit``; ValueError if its per-user rate is infinite."""
        idx = self.next_emit
        n_requests, n_marked = self.counts.pop(idx, (0, 0))
        self.next_emit = idx + 1
        self.close_at = self.anchor + (idx + 2) * self.window_s + self.tolerance_s
        window = WindowStats._of_counts(
            self.anchor + idx * self.window_s, self.window_s, n_requests, n_marked, self.n_users
        )
        if window.theta == math.inf:
            raise ValueError(f"window length {self.window_s!r} s is too short for a finite per-user request rate")
        return window

    def add(self, idx: int, n_requests: int, n_marked: int) -> None:
        cell = self.counts.get(idx)
        if cell is None:
            self.counts[idx] = [n_requests, n_marked]
        else:
            cell[0] += n_requests
            cell[1] += n_marked

    def add_pairs(self, events: Iterable[tuple[float, bool]]) -> Iterator[WindowStats]:
        """Count events one at a time, releasing windows as they close."""
        it = iter(events)
        if self.anchor is None:
            first = next(it, None)
            if first is None:
                return
            self.start(first[0])
            it = itertools.chain((first,), it)
        anchor, window_s, tolerance_s = self.anchor, self.window_s, self.tolerance_s
        counts = self.counts
        max_ts, next_emit, close_at = self.max_ts, self.next_emit, self.close_at
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
                    yield self.emit()
                    next_emit, close_at = self.next_emit, self.close_at
        self.max_ts = max_ts

    def add_columns(self, ts_text: list[bytes], ts: list[float], block: bytes) -> Iterator[WindowStats]:
        """Count a block of canonical lines, releasing windows as they close.

        ``ts`` holds the lines' timestamps, spelt ``ts_text`` in the block;
        they must be finite, nondecreasing and at least ``max_ts``, which
        must be below ``close_at``.  The counts are those :meth:`add_pairs`
        makes of the same events.  The window each line is counted in, its
        key clamped up to ``next_emit``, never decreases along the block, so
        each window takes one run of lines.  The run ends at the first line
        whose key is past the window, or sooner, just after the line that
        closed it.  Its binds are counted between the byte offsets of its
        ends.
        """
        anchor, window_s, n = self.anchor, self.window_s, len(ts)

        def key(t: float) -> float:
            return (t - anchor) // window_s

        def cut(idx: int, lo: int) -> int:
            # the first line from ``lo`` on whose key passes ``idx``.  A
            # bisect on window idx's end as a float lands on it, or beside
            # it where the rounding of that end and of the key disagree; the
            # keys either side of the guess tell which, and a keyed bisect
            # over the side that holds the line then finds it
            end = bisect.bisect_left(ts, anchor + (idx + 1) * window_s, lo)
            if end > lo and key(ts[end - 1]) > idx:
                return bisect.bisect_left(ts, idx + 1, lo, end - 1, key=key)
            if end < n and key(ts[end]) <= idx:
                return bisect.bisect_left(ts, idx + 1, end + 1, key=key)
            return end

        def start_of(line: int, after: int) -> int:
            # the byte offset of a line whose timestamp differs from that of
            # every line before it from byte ``after`` on; '{' opens lines only
            if line == n:
                return len(block)
            return block.index(b'{"ts": ' + ts_text[line] + b",", after)

        i = off = 0  # the first line not yet counted, and its byte offset
        while self.close_at <= ts[-1]:
            close_at, idx = self.close_at, self.next_emit
            end = cut(idx, i)
            if end >= 2 and ts[end - 2] >= close_at:
                # a line before end - 1 closed the window: the lines after it
                # that round into the window are clamped past it
                closer = bisect.bisect_left(ts, close_at, max(i - 1, 0), end - 1)
                end = closer + 1
                end_off = block.index(b"\n", start_of(closer, off)) + 1 if end > i else off
            else:
                end_off = start_of(end, off)
            if end > i:
                self.add(idx, end - i, block.count(b'"bind"', off, end_off))
                i, off = end, end_off
            yield self.emit()
        # the lines left fall in the open windows by their keys
        while i < n:
            idx = max(int(key(ts[i])), self.next_emit)
            end = cut(idx, i)
            end_off = start_of(end, off)
            self.add(idx, end - i, block.count(b'"bind"', off, end_off))
            i, off = end, end_off
        self.max_ts = ts[-1]

    def finish(self) -> Iterator[WindowStats]:
        """Release every window up to the newest event's."""
        if self.anchor is None:
            return
        last_idx = int((self.max_ts - self.anchor) // self.window_s)
        while self.next_emit <= last_idx or self.counts:
            yield self.emit()


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
    state = _Windows(window_s, n_users, tolerance_s)
    yield from state.add_pairs(events)
    yield from state.finish()


# bytes read from the log at a time; a block is one read cut after its last
# line break
_BLOCK_SIZE = 1 << 16

# A canonical line, as format_event writes it: a non-negative JSON number
# (ASCII digits only, no sign) and a known kind.  The line with its newline
# is 28 bytes plus the number for a request, 3 fewer for a bind.
_CANONICAL_LINE = re.compile(
    rb'\{"ts": ((?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?), "kind": "(?:request|bind)"\}\n'
)


def _read_windows(
    stream: BinaryIO,
    window_s: float,
    n_users: int,
    tolerance_s: float = REORDER_TOLERANCE_S,
) -> Iterator[WindowStats]:
    """``windowize(read_events(lines))`` over a binary stream holding UTF-8
    log lines, with the same windows and the same errors.

    The stream is read in blocks of at most :data:`_BLOCK_SIZE` bytes with
    ``read1``, so a pipe's lines are counted as they arrive.  A block made
    of canonical lines alone, in order, is counted as columns; any other is
    decoded as ``open(..., encoding="utf-8")`` would and counted line by
    line.
    """
    state = _Windows(window_s, n_users, tolerance_s)
    line_no = 0
    rest = b""
    while True:
        read = stream.read1(_BLOCK_SIZE)
        data = rest + read
        # cut after the last line break; a \r is one only when the byte
        # after it is known not to be \n
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1 if read else len(data)
        block, rest = data[:cut], data[cut:]
        if block:
            columns = _sorted_columns(block)
            if columns is not None and state.continues_at(columns[1][0]):
                yield from state.add_columns(*columns, block)
                line_no += len(columns[1])
            else:
                bad = None
                try:
                    text = block.decode("utf-8")
                except UnicodeDecodeError as exc:
                    # the lines before the one holding the bad byte are read
                    # as usual, and it is reported like any malformed line
                    bad = exc
                    head = max(block.rfind(b"\n", 0, exc.start), block.rfind(b"\r", 0, exc.start)) + 1
                    text = block[:head].decode("utf-8")
                lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
                if not lines[-1]:
                    lines.pop()
                yield from state.add_pairs(
                    parse_event(line, no) for no, line in enumerate(lines, line_no + 1) if line.strip()
                )
                line_no += len(lines)
                if bad is not None:
                    byte = bad.object[bad.start]
                    raise ParseError(line_no + 1, f"invalid UTF-8 byte {byte:#04x}: {bad.reason}")
        if not read:
            break
    yield from state.finish()


def _sorted_columns(block: bytes) -> tuple[list[bytes], list[float]] | None:
    """The timestamps of a block of canonical lines, as spelt and as floats,
    if every byte of it belongs to one and they are finite and in order."""
    ts_text = _CANONICAL_LINE.findall(block)
    # a '"bind"}\n' outside the matches lowers this sum, and the matches
    # cannot cover more than the block, so it reaches the block's length
    # only when they cover all of it
    n = len(ts_text)
    if sum(map(len, ts_text)) + 28 * n - 3 * block.count(b'"bind"}\n') != len(block):
        return None
    ts = list(map(float, ts_text))
    if ts[-1] < math.inf and ts == sorted(ts):
        return ts_text, ts
    return None
