"""Open-loop feed: writes log lines into a pipe on a fixed schedule.

Line ``i`` is due ``due[i]`` seconds after the program was spawned.  The
feed writes every line that is due in one ``os.write`` and then sleeps
until the next one is due, whether or not the reader keeps up: a slow
program fills the pipe and the writes block, which ``blocked_s`` counts.
"""

from __future__ import annotations

import bisect
import os
import time

import numpy as np


class Feed:
    def __init__(self, lines: list[bytes], due: list[float]):
        if len(lines) != len(due):
            raise ValueError("one due time per line")
        self.lines = lines
        self.due = due
        self.written_at = np.zeros(len(lines))  # seconds after spawn
        self.blocked_s = 0.0
        self.broken = False  # the reader closed its end before the feed ended

    def __call__(self, fd: int, spawn: float) -> None:
        lines, due, n = self.lines, self.due, len(self.lines)
        clock = time.perf_counter
        i = 0
        try:
            while i < n:
                now = clock() - spawn
                if due[i] > now:
                    time.sleep(due[i] - now)
                    continue
                j = bisect.bisect_right(due, now, i)
                self.written_at[i:j] = now
                view = memoryview(b"".join(lines[i:j]))
                while view:
                    view = view[os.write(fd, view):]
                self.blocked_s += clock() - spawn - now
                i = j
        except BrokenPipeError:
            self.broken = True
        finally:
            os.close(fd)

    def lateness(self) -> np.ndarray:
        """How late each line was written, in seconds."""
        return self.written_at - np.asarray(self.due)
