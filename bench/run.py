"""idletune benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload replay-wide --seed 1 --seconds 25 --trace 0

Workloads (see bench/README.md for why each exists):

    replay-wide    tune over a stationary log, default 1200 s windows
    replay-narrow  tune over a drifting log, a few events per window
    live-feed      tune reading a paced log from stdin, LDIF sink
    synth          gen-log, then sim-system, then simulate

Inputs come from ``--seed`` alone and are written by bench/inputs.py, not by
the program.  Every launch runs the checkout's ``src/`` through the same
entry point as the installed ``idletune`` script; every output is checked.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the ``end_to_end`` ones of BENCHMARK.json, with
``--trace 1`` the ``per_layer`` ones.  Lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from feed import Feed
from inputs import count_windows, drifting, stationary, tiny_log
from launch import IDLETUNE, Launcher
from tracing import analyse

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


@dataclass
class Sample:
    """One timed unit of a workload: a launch, a feed, or a synth pass."""

    run_s: float
    cpu_s: float
    peak_rss_mib: float
    lags: list[float]
    stages: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)


class Run:
    """Launch bookkeeping shared by every workload: counts and failures."""

    def __init__(self, launcher, work: Path):
        self.launcher = launcher
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._verdicts: dict[tuple, list[str]] = {}
        self._traces = 0

    def launch(self, argv: list[str], *, traced: bool = False, **kwargs):
        """Run one program process; returns the result and the spans path if traced."""
        spans = None
        if traced:
            self._traces += 1
            spans = self.work / f"spans-{self._traces}"
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans)] + argv
        else:
            cmd = IDLETUNE + argv
        result = self.launcher.run(cmd, **kwargs)
        self.attempted += 1
        if result.returncode != 0:
            self.fail(f"{' '.join(argv[:1])} exited {result.returncode}: {result.stderr.strip()[-300:]}")
        return result, spans

    def check(self, key: tuple, checker) -> None:
        """Count one failure if ``checker()`` reports any; identical outputs are checked once."""
        if key not in self._verdicts:
            try:
                self._verdicts[key] = checker()
            except (ValueError, LookupError, TypeError) as exc:
                self._verdicts[key] = [f"malformed output: {exc!r}"]
        if self._verdicts[key]:
            self.fail("; ".join(self._verdicts[key]))

    def publishes(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} of {attempted} publishes failed")

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def layer_metrics(spans: Path, out: checks.TuneOutput, bytes_out: int) -> dict[str, float]:
    """Per-layer figures of one traced launch."""
    total, own, calls, counts = analyse(spans)
    m: dict[str, float] = {}
    m["ingest.read_events.self_s"] = own.get("ingest.read_events", 0.0)
    m["ingest.input_wait_s"] = total.get("ingest.input_wait", 0.0)
    m["ingest.lines"] = counts.get("ingest.read_events", 0)
    m["ingest.windowize.self_s"] = own.get("ingest.windowize", 0.0)
    m["ingest.windows"] = counts.get("ingest.windowize", 0)
    m["ingest.empty_windows"] = counts.get("ingest.empty_windows", 0)
    m["estimator.run_tuner.self_s"] = own.get("estimator.run_tuner", 0.0)
    m["estimator.recommend.self_s"] = own.get("estimator.recommend", 0.0)
    feasible = out.feasible
    m["estimator.records"] = len(out.records)
    m["estimator.infeasible_records"] = len(out.records) - feasible
    m["model.solve_timeout_s"] = total.get("model.solve_timeout", 0.0)
    m["model.solve_calls"] = calls.get("model.solve_timeout", 0)
    m["sinks.publish_s"] = total.get("sinks.publish", 0.0)
    m["sinks.publishes"] = counts.get("sinks.publishes", 0)
    m["sinks.publish_failures"] = counts.get("sinks.publish_failures", 0)
    m["sinks.publish_per_record"] = m["sinks.publishes"] / feasible if feasible else 0.0
    m["cli.encode_s"] = total.get("cli.encode", 0.0)
    m["cli.bytes_out"] = bytes_out
    m["simulate.generate_event_log.self_s"] = own.get("simulate.generate_event_log", 0.0)
    m["simulate.events"] = counts.get("simulate.generate_event_log", 0)
    m["ingest.to_json_s"] = total.get("ingest.to_json", 0.0)
    m["simulate.simulate_system_s"] = total.get("simulate.simulate_system", 0.0)
    m["simulate.arrivals"] = counts.get("simulate.arrivals", 0)
    m["simulate.marked_gaps"] = counts.get("simulate.marked_gaps", 0)
    m["simulate.simulate_failure_prob_s"] = total.get("simulate.simulate_failure_prob", 0.0)
    m["simulate.trials"] = counts.get("simulate.trials", 0)
    return m


def add_layers(into: dict[str, float], more: dict[str, float]) -> None:
    for key, value in more.items():
        into[key] = into.get(key, 0) + value


# ---------------------------------------------------------------- workloads

N_USERS = 150
EPS = 0.1  # tune's default target


class Workload:
    name = ""
    setup_gaps = 1  # start-up launches between two timed units
    min_units = 3  # timed units per run, even past --seconds

    def __init__(self, run: Run, seed: int, seconds: float):
        self.run = run
        self.seed = seed
        self.seconds = seconds
        self.inputs: dict[str, str] = {}  # name -> sha256

    def stage(self) -> None:
        """Write the inputs into the run's work directory."""

    def setup_round(self) -> float:
        """Launch the workload's subcommands on a trivially small input."""
        raise NotImplementedError

    def unit(self, traced: bool) -> Sample:
        raise NotImplementedError

    def report(self, samples: list[Sample]) -> dict[str, str]:
        """Workload-specific lines for the human-readable table."""
        return {}


class TuneWorkload(Workload):
    """Shared by the three tune workloads: staging, start-up and checks."""

    window_s = 1200.0
    tune_args: list[str] = []

    def stage(self) -> None:
        self.log = self.make_log()
        self.windows = count_windows(self.log, self.window_s)
        self.path = self.run.work / f"{self.name}.log"
        self.path.write_bytes(self.log.data)
        self.inputs[self.path.name] = self.log.sha256
        self.tiny = self.run.work / "tiny.log"
        self.tiny.write_bytes(tiny_log())

    def make_log(self):
        raise NotImplementedError

    def tune_argv(self, source: str) -> list[str]:
        return ["tune", source, "--users", str(N_USERS), "--window", repr(self.window_s)] + self.tune_args

    def setup_round(self) -> float:
        result, _ = self.run.launch(self.tune_argv(str(self.tiny)))
        return result.wall_s

    def check_output(self, result) -> checks.TuneOutput:
        try:
            out = checks.parse_tune(result.lines())
        except ValueError as exc:
            self.run.fail(f"tune printed a line that is not JSON: {exc}")
            return checks.TuneOutput()
        sink_state = self.sink_state()
        self.run.check(
            ("tune", digest(result.stdout), sink_state),
            lambda: checks.check_tune(out, self.windows, N_USERS, self.window_s, EPS)
            + self.sink_checks(out, sink_state),
        )
        failed = checks.publish_failures(result.stderr)
        self.run.publishes(len(out.published) + failed, failed)
        return out

    def sink_state(self) -> str:
        """What the sink left behind outside stdout."""
        return ""

    def sink_checks(self, out: checks.TuneOutput, sink_state: str) -> list[str]:
        return checks.check_publish_lines(out)

    def sample(self, result, spans, out, lags: list[float]) -> Sample:
        s = Sample(result.wall_s, result.cpu_s, result.peak_rss_mib, lags)
        if spans is not None:
            s.layers = layer_metrics(spans, out, len(result.stdout))
        return s


class ReplayWorkload(TuneWorkload):
    def unit(self, traced: bool) -> Sample:
        result, spans = self.run.launch(self.tune_argv(str(self.path)), traced=traced)
        out = self.check_output(result)
        # the whole log is on disk at launch, so every window is due then
        lags = [result.line_times[i] - result.spawn for i in out.record_lines]
        return self.sample(result, spans, out, lags)


class ReplayWide(ReplayWorkload):
    name = "replay-wide"

    def make_log(self):
        # about 150k lines in 250 default-length windows
        return stationary(self.seed, rate=0.5, xi=0.13, window_s=self.window_s, n_windows=250)


class ReplayNarrow(ReplayWorkload):
    name = "replay-narrow"
    window_s = 10.0
    tune_args = ["--schedule", "constant:0.5", "--sink", "stdout"]

    def make_log(self):
        # 2 events per window at the base rate
        return drifting(self.seed, rate=0.2, window_s=self.window_s, repeats=3)


class LiveFeed(TuneWorkload):
    name = "live-feed"
    window_s = 60.0
    n_windows = 1200
    lead_s = 1.0  # the first line is due this long after spawn, past start-up
    setup_gaps = 2
    min_units = 2

    def make_log(self):
        # 40 events per window, about 48k lines
        return stationary(self.seed, rate=40.0 / self.window_s, xi=0.13, window_s=self.window_s, n_windows=self.n_windows)

    def stage(self) -> None:
        super().stage()
        self.ldif = self.run.work / "idletimeout.ldif"
        self.tune_args = ["--sink", f"ldif:{self.ldif}"]
        # two feeds fill the run; log time runs this much faster than wall time
        self.feed_s = max(self.seconds / 2 - self.lead_s - 0.5, 1.0)
        span = self.log.ts[-1] - self.log.ts[0]
        self.speed = span / self.feed_s
        self.due = [self.lead_s + (t - self.log.ts[0]) / self.speed for t in self.log.ts]
        self.lines = self.log.lines()

    def sink_state(self) -> str:
        return self.ldif.read_text(encoding="utf-8") if self.ldif.exists() else ""

    def sink_checks(self, out: checks.TuneOutput, sink_state: str) -> list[str]:
        return checks.check_ldif(sink_state, out)

    def setup_round(self) -> float:
        time.sleep(0.1)  # keep start-up samples apart
        return super().setup_round()

    def unit(self, traced: bool) -> Sample:
        feed = Feed(self.lines, self.due)
        self.ldif.unlink(missing_ok=True)
        result, spans = self.run.launch(self.tune_argv("-"), traced=traced, feed=feed)
        if feed.broken:
            self.run.fail("tune closed its stdin before the feed ended")
        out = self.check_output(result)
        n = len(self.lines)
        # a window is closed by the first line at or past its end; the last by EOF
        closing_due = [self.due[min(w.closing_line, n - 1)] for w in self.windows]
        lags = [
            result.line_times[line] - result.spawn - due
            for line, due in zip(out.record_lines, closing_due)
        ]
        s = self.sample(result, spans, out, lags)
        late = feed.lateness()
        s.extra = {
            "feed.lines": n,
            "feed.late_p99_s": percentile(late, 99),
            "feed.late_samples": n,
            "feed.write_blocked_s": feed.blocked_s,
        }
        return s

    def report(self, samples):
        return {
            "windows per feed": f"{len(self.windows)} closed in {self.feed_s:.3g} s "
            f"(log time x{self.speed:.0f}, {len(self.lines) / self.feed_s:.0f} lines/s)",
        }


class Synth(Workload):
    """gen-log, then sim-system, then simulate, as one pass.

    gen-log writes its events to stdout, a pipe the benchmark reads, so
    every generated event is a timed record.
    """

    name = "synth"
    beta = 1.39e-3
    xi = 0.1338
    gen_duration_s = 240_000.0  # about 50k events
    sim_duration_s = 2_400_000.0  # about 500k arrivals, 67k marked gaps
    processes = 4
    sim_timeout_s = 200.0
    timeout_s = 87.0
    trials = 1_000_000

    def commands(self, small: bool) -> dict[str, list[str]]:
        model = ["--users", str(N_USERS), "--beta", repr(self.beta), "--xi", repr(self.xi), "--seed", str(self.seed)]
        return {
            "gen_log_s": ["gen-log", *model, "--duration", "10" if small else repr(self.gen_duration_s)],
            "sim_system_s": ["sim-system", *model, "--processes", str(self.processes),
                             "--idle-timeout", repr(self.sim_timeout_s),
                             "--duration", "10" if small else repr(self.sim_duration_s)],
            "simulate_s": ["simulate", *model, "--timeout", repr(self.timeout_s),
                           "--trials", "1" if small else str(self.trials)],
        }

    def setup_round(self) -> float:
        return sum(self.run.launch(argv)[0].wall_s for argv in self.commands(small=True).values())

    def checker(self, stage: str, stdout: bytes):
        if stage == "gen_log_s":
            return lambda: checks.check_gen_log(stdout, N_USERS, self.beta, self.xi, self.gen_duration_s)
        result = json.loads(stdout.splitlines()[-1])
        if stage == "sim_system_s":
            return lambda: checks.check_sim_system(
                result, N_USERS, self.beta, self.xi, self.sim_timeout_s, self.processes)
        return lambda: checks.check_simulate(result, N_USERS, self.beta, self.xi, self.timeout_s)

    def unit(self, traced: bool) -> Sample:
        s = Sample(0.0, 0.0, 0.0, [])
        for stage, argv in self.commands(small=False).items():
            result, spans = self.run.launch(argv, traced=traced)
            s.stages[stage] = result.wall_s
            s.run_s += result.wall_s
            s.cpu_s += result.cpu_s
            s.peak_rss_mib = max(s.peak_rss_mib, result.peak_rss_mib)
            # the parameters are all there at launch, so every output line is due then
            s.lags.extend(t - result.spawn for t in result.line_times)
            if result.returncode == 0:
                stdout = result.stdout
                self.run.check((stage, digest(stdout)), lambda: self.checker(stage, stdout)())
            if stage == "gen_log_s":
                self.inputs["gen-log output"] = digest(result.stdout)
            if spans is not None:
                add_layers(s.layers, layer_metrics(spans, checks.TuneOutput(), len(result.stdout)))
        return s

    def report(self, samples):
        return {
            stage: f"{statistics.median(s.stages[stage] for s in samples):.6f} s"
            for stage in ("gen_log_s", "sim_system_s", "simulate_s")
        }


WORKLOADS = {w.name: w for w in (ReplayWide, ReplayNarrow, LiveFeed, Synth)}


# --------------------------------------------------------------------- main

def measure(w: Workload, trace: bool) -> tuple[dict[str, float], dict[str, str]]:
    """Run timed units until --seconds have passed; returns metrics and table lines."""
    w.setup_round()  # warm-up: compiles bytecode, fills the page cache
    setups: list[float] = []
    plain: list[Sample] = []
    traced: list[Sample] = []
    start = time.perf_counter()
    if trace:
        # untraced and traced units alternate; the pair gives the overhead.
        # A pair starts only if it should end within half a pair of --seconds.
        pair_s = 0.0
        while not traced or time.perf_counter() - start + pair_s / 2 < w.seconds:
            began = time.perf_counter()
            plain.append(w.unit(traced=False))
            traced.append(w.unit(traced=True))
            pair_s = time.perf_counter() - began
    else:
        # start-up launches sit between timed units, spread over the run
        while len(plain) < w.min_units or time.perf_counter() - start < w.seconds:
            setups.extend(w.setup_round() for _ in range(w.setup_gaps))
            plain.append(w.unit(traced=False))
        setups.extend(w.setup_round() for _ in range(w.setup_gaps))

    runs = sorted(s.run_s for s in plain)
    table = {
        "timed units": f"{len(plain)} untraced, {len(traced)} traced",
        "run_s per unit": f"min {runs[0]:.4f} median {statistics.median(runs):.4f} max {runs[-1]:.4f}",
        **w.report(plain),
    }
    if trace:
        metrics = trace_metrics(plain, traced)
        ingest = metrics["ingest.read_events.self_s"] + metrics["ingest.windowize.self_s"]
        per_window = sum(metrics[k] for k in PER_WINDOW)
        table["self time"] = f"ingest {ingest:.4f} s, per-window layers {per_window:.4f} s"
        return metrics, table
    lags = [lag for s in plain for lag in s.lags]
    table["record_lag samples"] = str(len(lags))
    metrics = {
        "run_s": statistics.median(s.run_s for s in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": max(s.peak_rss_mib for s in plain),
        "record_lag_p50_s": percentile(lags, 50),
        "record_lag_p99_s": percentile(lags, 99),
    }
    table["setup launches"] = str(len(setups))
    return metrics, table


PER_WINDOW = (
    "estimator.run_tuner.self_s",
    "estimator.recommend.self_s",
    "model.solve_timeout_s",
    "sinks.publish_s",
    "cli.encode_s",
)


def trace_metrics(plain: list[Sample], traced: list[Sample]) -> dict[str, float]:
    keys = set().union(*(s.layers for s in traced))
    metrics = {key: statistics.median(s.layers.get(key, 0) for s in traced) for key in keys}
    for key in ("feed.lines", "feed.late_p99_s", "feed.late_samples", "feed.write_blocked_s"):
        metrics[key] = statistics.median(s.extra.get(key, 0) for s in plain)
    for key in ("gen_log_s", "sim_system_s", "simulate_s"):
        metrics[f"synth.{key}"] = statistics.median(s.stages.get(key, 0.0) for s in plain)
    base = statistics.median(s.cpu_s for s in plain)
    metrics["trace.overhead_frac"] = statistics.median(s.cpu_s for s in traced) / base - 1.0
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "idletune" / "cli.py").is_file():
        print(f"error: no idletune sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        units = load_spec()[args.trace]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # on SIGTERM, unwind: the launcher kills its child and the work directory goes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    (BENCH / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH / "_work"))
    try:
        with Launcher(SRC, work) as launcher:
            run = Run(launcher, work)
            workload = WORKLOADS[args.workload](run, args.seed, args.seconds)
            workload.stage()
            metrics, table = measure(workload, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = set(units) ^ set(metrics)
    if missing:
        print(f"error: metrics out of step with BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 2
    print(f"# {args.workload} seed {args.seed} trace {args.trace}")
    for name, sha in workload.inputs.items():
        print(f"input {name} sha256 {sha}")
    for name, text in table.items():
        print(f"{name}: {text}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    fail_frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"fail_frac = {fail_frac:.6g} ratio ({run.failed} of {run.attempted} launches and publishes)")
    for problem in run.problems[:20]:
        print(f"FAILED: {problem}")
    correct = not run.problems and run.attempted > 0
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
