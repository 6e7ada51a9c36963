"""Run idletune's command line in-process with spans around each layer.

Usage: python3 bench/traced_cli.py SPANS_PATH IDLETUNE_ARGS...

The wrappers replace module attributes and class methods from outside;
nothing under ``src/`` changes.  Spans go to SPANS_PATH(.json, .bin) when
the command has finished; the exit status is the command's.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

from tracing import Tracer


def _replace(original, wrapper, only=None) -> None:
    """Point every idletune module attribute bound to ``original`` at ``wrapper``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "idletune" and not mod_name.startswith("idletune."):
            continue
        if only is not None and mod_name != only:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _timed(tr: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tr.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.finish(i)
        if after is not None:
            after(result)
        return result

    return wrapper


class _TracedSink:
    def __init__(self, tr: Tracer, sink, sink_error: type[Exception]):
        self._tr, self._sink, self._sink_error = tr, sink, sink_error

    def publish(self, timeout_s, meta=None):
        tr = self._tr
        tr.count("sinks.publishes")
        i = tr.begin("sinks.publish")
        try:
            self._sink.publish(timeout_s, meta)
        except self._sink_error:
            tr.count("sinks.publish_failures")
            raise
        finally:
            tr.finish(i)

    def __getattr__(self, name):
        return getattr(self._sink, name)


def install(tr: Tracer) -> None:
    import idletune.cli  # noqa: F401  (loads every module the wrappers patch)
    from idletune import estimator, ingest, simulate, sinks
    from idletune.errors import SinkError

    read_events = ingest.read_events

    def traced_read_events(lines):
        if lines is sys.stdin:
            lines = tr.iterate("ingest.input_wait", lines)
        return tr.iterate("ingest.read_events", read_events(lines))

    windowize = ingest.windowize

    def traced_windowize(events, *args, **kwargs):
        for window in tr.iterate("ingest.windowize", windowize(events, *args, **kwargs)):
            if window.n_requests == 0:
                tr.count("ingest.empty_windows")
            yield window

    make_sink = sinks.make_sink
    generate_event_log = simulate.generate_event_log

    def counted(*pairs):
        def after(result):
            for counter, attr in pairs:
                tr.count(counter, getattr(result, attr))

        return after

    _replace(read_events, traced_read_events)
    _replace(windowize, traced_windowize)
    _replace(estimator.run_tuner, _timed(tr, "estimator.run_tuner", estimator.run_tuner))
    _replace(estimator.recommend, _timed(tr, "estimator.recommend", estimator.recommend))
    _replace(estimator.solve_timeout, _timed(tr, "model.solve_timeout", estimator.solve_timeout), only="idletune.estimator")
    _replace(make_sink, lambda descriptor: _TracedSink(tr, make_sink(descriptor), SinkError))
    _replace(generate_event_log, lambda *a, **k: tr.iterate("simulate.generate_event_log", generate_event_log(*a, **k)))
    _replace(
        simulate.simulate_system,
        _timed(tr, "simulate.simulate_system", simulate.simulate_system,
               counted(("simulate.arrivals", "total_requests"), ("simulate.marked_gaps", "marked_requests"))),
    )
    _replace(
        simulate.simulate_failure_prob,
        _timed(tr, "simulate.simulate_failure_prob", simulate.simulate_failure_prob, counted(("simulate.trials", "trials"))),
    )
    estimator.TunerRecord.to_json = _timed(tr, "cli.encode", estimator.TunerRecord.to_json)
    ingest.Event.to_json = _timed(tr, "ingest.to_json", ingest.Event.to_json)


def main() -> int:
    spans = Path(sys.argv[1])
    tr = Tracer()
    install(tr)
    from idletune.cli import main as cli_main

    root = tr.begin("cli.main")
    try:
        return cli_main(sys.argv[2:])
    finally:
        tr.finish(root)
        sys.stdout.flush()
        tr.write(spans)


if __name__ == "__main__":
    sys.exit(main())
