"""Spans recorded around calls into idletune's layers, and their analysis.

A span has a name, a start, an end and the span that was open when it
began (its parent).  ``Tracer`` keeps them in flat arrays in memory and
writes them out once, when the traced program has finished.  A layer's
self time is the sum over its spans of the duration minus the durations
of their child spans.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import Iterable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._open = [-1]

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._open.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def iterate(self, name: str, items: Iterable) -> Iterator:
        """Yield from ``items``, with one span around each step.

        The items yielded are counted under ``name``.
        """
        it = iter(items)
        self.counts.setdefault(name, 0)
        while True:
            i = self.begin(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.finish(i)
            self.counts[name] += 1
            yield item

    def write(self, path: Path) -> None:
        header = {"names": self.names, "counts": self.counts, "spans": len(self.start)}
        path.with_suffix(".json").write_text(json.dumps(header), encoding="utf-8")
        with open(path.with_suffix(".bin"), "wb") as handle:
            for column in (self.name, self.parent, self.start, self.end):
                handle.write(column.tobytes())


def analyse(path: Path) -> tuple[dict[str, float], dict[str, float], dict[str, int], dict[str, int]]:
    """Total seconds, self seconds and span count per name, and the counters."""
    import numpy as np

    header = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    n = header["spans"]
    raw = path.with_suffix(".bin").read_bytes()
    ints = np.frombuffer(raw, dtype=np.int32, count=2 * n)
    floats = np.frombuffer(raw, dtype=np.float64, count=2 * n, offset=8 * n)
    name, parent = ints[:n], ints[n:]
    dur = floats[n:] - floats[:n]
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=dur[nested], minlength=n)
    own = dur - children
    names = header["names"]
    k = len(names)
    total = np.bincount(name, weights=dur, minlength=k)
    self_s = np.bincount(name, weights=own, minlength=k)
    calls = np.bincount(name, minlength=k)
    return (
        {nm: float(total[j]) for j, nm in enumerate(names)},
        {nm: float(self_s[j]) for j, nm in enumerate(names)},
        {nm: int(calls[j]) for j, nm in enumerate(names)},
        header["counts"],
    )
