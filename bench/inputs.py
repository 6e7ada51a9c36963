"""The benchmark's own seeded inputs, and its own count of their windows.

Logs are written in idletune's event format, one ``{"ts", "kind"}`` object
per line, by this module rather than by ``idletune gen-log``, so the inputs
stay byte-identical across commits of the program.  The same seed gives the
same bytes; ``sha256`` of each staged file is printed with the results.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass

import numpy as np

# Logs start at this time stamp, so no window ever straddles ts = 0.
T0 = 1000.0


@dataclass(frozen=True)
class Log:
    """A staged event log: its bytes and the events they encode."""

    ts: list[float]
    marked: list[bool]
    data: bytes

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.data).hexdigest()

    def lines(self) -> list[bytes]:
        return self.data.splitlines(keepends=True)


@dataclass(frozen=True)
class Window:
    """One nonempty window as the benchmark counts it."""

    end_ts: float
    n_requests: int
    n_marked: int
    closing_line: int  # index of the first line at or past end_ts; len(log) if none


def _encode(ts: np.ndarray, marked: np.ndarray) -> Log:
    ts_list = ts.tolist()
    marked_list = marked.tolist()
    data = "".join(
        '{"ts": %r, "kind": "%s"}\n' % (t, "bind" if m else "request")
        for t, m in zip(ts_list, marked_list)
    ).encode("ascii")
    return Log(ts_list, marked_list, data)


def _whole_windows(ts: np.ndarray, marked: np.ndarray, window_s: float, n_windows: int) -> Log:
    # drop events past the last window, so that every window spans window_s
    keep = ts < ts[0] + n_windows * window_s
    return _encode(ts[keep], marked[keep])


def stationary(seed: int, rate: float, xi: float, window_s: float, n_windows: int) -> Log:
    """A Poisson log at a constant aggregate ``rate`` and marked fraction ``xi``."""
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    expected = rate * window_s * n_windows
    n = int(expected + 6.0 * expected**0.5 + 10)
    ts = T0 + np.cumsum(rng.exponential(1.0 / rate, size=n))
    if ts[-1] - ts[0] < n_windows * window_s:
        raise RuntimeError("stationary log too short; raise the oversampling margin")
    marked = rng.random(size=n) < xi
    return _whole_windows(ts, marked, window_s, n_windows)


# (windows, rate multiplier, xi) per stretch of the drifting log: steps in
# xi and in beta, two quiet stretches (rate 0, so empty windows) and a
# low-xi stretch whose floor (1 - xi)^N lies above the target (infeasible steps).
DRIFT_PLAN = (
    (600, 1.0, 0.13),
    (40, 0.0, 0.13),
    (600, 3.0, 0.13),
    (600, 1.0, 0.40),
    (400, 1.0, 0.005),
    (600, 0.3, 0.13),
    (40, 0.0, 0.13),
    (600, 1.0, 0.25),
)


def drifting(seed: int, rate: float, window_s: float, repeats: int) -> Log:
    """A log that walks ``DRIFT_PLAN`` ``repeats`` times at base ``rate``."""
    rng = np.random.Generator(np.random.PCG64([seed, 2]))
    parts_ts = [np.array([T0])]
    parts_marked = [np.array([True])]
    start = T0
    for _ in range(repeats):
        for n_windows, mult, xi in DRIFT_PLAN:
            span = n_windows * window_s
            count = rng.poisson(rate * mult * span)
            parts_ts.append(np.sort(start + rng.random(size=count) * span))
            parts_marked.append(rng.random(size=count) < xi)
            start += span
    ts = np.concatenate(parts_ts)
    marked = np.concatenate(parts_marked)
    # the first event anchors the windows; stretches are laid out from it
    n_windows = int(round((start - T0) / window_s))
    return _whole_windows(ts, marked, window_s, n_windows)


def count_windows(log: Log, window_s: float) -> list[Window]:
    """Nonempty tumbling windows anchored at the first event, in order."""
    anchor = log.ts[0]
    counts: dict[int, list[int]] = {}
    for t, m in zip(log.ts, log.marked):
        cell = counts.setdefault(int((t - anchor) // window_s), [0, 0])
        cell[0] += 1
        cell[1] += m
    nonempty = []
    for idx in sorted(counts):
        end_ts = anchor + idx * window_s + window_s
        closing = bisect.bisect_left(log.ts, end_ts)
        n_requests, n_marked = counts[idx]
        nonempty.append(Window(end_ts, n_requests, n_marked, closing))
    return nonempty


def tiny_log() -> bytes:
    """The trivially small input used to time start-up."""
    return b'{"ts": 1000.0, "kind": "bind"}\n{"ts": 1001.0, "kind": "request"}\n'
