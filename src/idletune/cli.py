"""Operator command line.

Machine-readable results go to standard output as line-delimited JSON;
human-readable summaries go to standard error.  Exit codes:

    0  success, or the reader closed standard output early (`| head -1`)
    2  usage error (bad flags, bad values, unreadable config file)
    3  infeasible target: no timeout can reach the requested probability
    4  input data error (malformed event, time regression, empty stream)
    5  one or more publishes failed to deliver

Every setting can also come from a JSON config file (``--config``) keyed
by the flag's long name with dashes as underscores; flags override the
file.  The default RNG seed may come from the IDLETUNE_SEED environment
variable; explicit flags and config values override it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import os
import stat
import sys
from typing import IO, Callable, Iterable, Iterator, Sequence

from .errors import (
    CannotInitializeError,
    InfeasibleTargetError,
    ParseError,
    SequencingError,
    SinkError,
)
from .estimator import StepSchedule, TunerConfig, TunerRecord, run_tuner
from .ingest import WindowStats, read_events, windowize
from .model import (
    DEFAULT_LARGE_N_THRESHOLD,
    Expression,
    ModelParams,
    SolverPolicy,
    failure_probability,
    feasibility_bound,
    solve_timeout,
)
from .sinks import make_sink

__all__ = ["main", "entry_point"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_INPUT = 4
EXIT_SINK = 5

SEED_ENV_VAR = "IDLETUNE_SEED"

DEFAULT_EPS = 0.1
DEFAULT_DELTA_S = 5.0
DEFAULT_WINDOW_S = 1200.0
DEFAULT_TRIALS = 100_000


def _setting(args: argparse.Namespace, config: dict, name: str, default=None):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


def _require(args: argparse.Namespace, config: dict, name: str, flag: str):
    value = _setting(args, config, name)
    if value is None:
        raise ValueError(f"missing required setting {flag} (flag or config file)")
    return value


def _as_int(flag: str, value) -> int:
    if isinstance(value, bool):
        raise ValueError(f"{flag} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            pass
    raise ValueError(f"{flag} must be an integer, got {value!r}")


def _as_float(flag: str, value) -> float:
    if isinstance(value, bool):
        raise ValueError(f"{flag} must be a number, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    raise ValueError(f"{flag} must be a number, got {value!r}")


def _resolve_seed(args: argparse.Namespace, config: dict) -> int:
    value = getattr(args, "seed", None)
    if value is None:
        value = config.get("seed")
    if value is None:
        value = os.environ.get(SEED_ENV_VAR)
    if value is None:
        return 0
    return _as_int("--seed", value)


def _parse_schedule(text) -> StepSchedule:
    if isinstance(text, StepSchedule):
        return text
    if text == "harmonic":
        return StepSchedule.harmonic()
    kind, sep, arg = str(text).partition(":")
    if sep and arg:
        if kind == "power":
            return StepSchedule.power(_as_float("--schedule power:", arg))
        if kind == "constant":
            return StepSchedule.constant(_as_float("--schedule constant:", arg))
    raise ValueError(f"schedule {text!r} is not harmonic, power:A, or constant:C")


def _make_policy(args: argparse.Namespace, config: dict) -> SolverPolicy:
    expression = _setting(args, config, "expression", "auto")
    threshold = _as_int(
        "--large-n-threshold",
        _setting(args, config, "large_n_threshold", DEFAULT_LARGE_N_THRESHOLD),
    )
    force = {"auto": None, "exact": Expression.EXACT, "large-n": Expression.LARGE_N}.get(expression, ...)
    if force is ...:
        raise ValueError(f"--expression must be auto, exact, or large-n, got {expression!r}")
    return SolverPolicy(large_n_threshold=threshold, force=force)


def _model_params(args: argparse.Namespace, config: dict) -> ModelParams:
    return ModelParams(
        n_users=_as_int("--users", _require(args, config, "users", "--users")),
        beta=_as_float("--beta", _require(args, config, "beta", "--beta")),
        xi=_as_float("--xi", _require(args, config, "xi", "--xi")),
    )


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")


def _cmd_solve(args: argparse.Namespace, config: dict) -> int:
    params = _model_params(args, config)
    eps = _as_float("--eps", _setting(args, config, "eps", DEFAULT_EPS))
    solution = solve_timeout(params, eps, _make_policy(args, config))
    _emit(
        {
            "timeout_s": solution.timeout_s,
            "expression": solution.expression.value,
            "feasibility_bound": solution.feasibility_bound,
        }
    )
    print(
        f"idle timeout {solution.timeout_s:.6g} s reaches failure probability "
        f"{eps:.6g} ({solution.expression.value} inversion; attainable floor "
        f"{solution.feasibility_bound:.6g})",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_prob(args: argparse.Namespace, config: dict) -> int:
    params = _model_params(args, config)
    timeout_s = _as_float("--timeout", _require(args, config, "timeout", "--timeout"))
    p = failure_probability(params, timeout_s)
    _emit({"failure_probability": p})
    print(f"failure probability {p:.6g} at idle timeout {timeout_s:.6g} s", file=sys.stderr)
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace, config: dict) -> int:
    n_users = _as_int("--users", _require(args, config, "users", "--users"))
    xi = _as_float("--xi", _require(args, config, "xi", "--xi"))
    # the floor depends only on the population and marked fraction
    bound = feasibility_bound(ModelParams(n_users=n_users, beta=1.0, xi=xi))
    _emit({"feasibility_bound": bound})
    print(f"no timeout can push the failure probability below {bound:.6g}", file=sys.stderr)
    return EXIT_OK


# the simulating commands import .simulate when they run, because it loads
# numpy, which no other command needs


def _cmd_simulate(args: argparse.Namespace, config: dict) -> int:
    from .simulate import simulate_failure_prob

    params = _model_params(args, config)
    timeout_s = _as_float("--timeout", _require(args, config, "timeout", "--timeout"))
    trials = _as_int("--trials", _setting(args, config, "trials", DEFAULT_TRIALS))
    seed = _resolve_seed(args, config)
    result = simulate_failure_prob(params, timeout_s, trials, seed)
    sys.stdout.write(result.to_json() + "\n")
    print(
        f"p_hat {result.p_hat:.6g} +/- {result.std_err:.3g} "
        f"({result.failures}/{result.trials} failures, seed {result.seed})",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_sim_system(args: argparse.Namespace, config: dict) -> int:
    from .simulate import SystemConfig, simulate_system

    process_life = _as_int("--process-life", _setting(args, config, "process_life", 0))
    system = SystemConfig(
        n_users=_as_int("--users", _require(args, config, "users", "--users")),
        beta=_as_float("--beta", _require(args, config, "beta", "--beta")),
        xi=_as_float("--xi", _require(args, config, "xi", "--xi")),
        n_processes=_as_int("--processes", _setting(args, config, "processes", 1)),
        idle_timeout_s=_as_float("--idle-timeout", _setting(args, config, "idle_timeout", 0.0)),
        duration_s=_as_float("--duration", _require(args, config, "duration", "--duration")),
        process_life=None if process_life == 0 else process_life,
    )
    report = simulate_system(system, _resolve_seed(args, config))
    sys.stdout.write(report.to_json() + "\n")
    print(
        f"{report.failed_binds}/{report.marked_requests} marked requests failed "
        f"(rate {report.failure_rate:.6g})",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_gen_log(args: argparse.Namespace, config: dict) -> int:
    from .simulate import generate_event_log

    params = _model_params(args, config)
    duration_s = _as_float("--duration", _require(args, config, "duration", "--duration"))
    seed = _resolve_seed(args, config)
    out_path = _setting(args, config, "out")
    count = 0
    with _open_out(out_path) as handle:
        for event in generate_event_log(params, duration_s, seed):
            handle.write(event.to_json() + "\n")
            count += 1
    print(f"wrote {count} events (seed {seed})", file=sys.stderr)
    return EXIT_OK


def _tee_windows(
    windows: Iterable[WindowStats], sidecar: IO[str], write: Callable[[IO[str], WindowStats], None]
) -> Iterator[WindowStats]:
    # a closed sidecar is an error, unlike a closed stdout, which ends a run
    # quietly; the last flush is made here so that it is caught here too
    try:
        for window in windows:
            write(sidecar, window)
            yield window
        sidecar.flush()
    except BrokenPipeError as exc:
        raise OSError(f"--windows-out {sidecar.name!r}: {exc.strerror}") from exc


def _is_regular_file(stream) -> bool:
    try:
        return stat.S_ISREG(os.fstat(stream.fileno()).st_mode)
    except (OSError, ValueError):
        # no usable file descriptor: treat it as live
        return False


def _cmd_tune(args: argparse.Namespace, config: dict) -> int:
    tuner_config = TunerConfig(
        window_s=_as_float("--window", _setting(args, config, "window", DEFAULT_WINDOW_S)),
        target_eps=_as_float("--eps", _setting(args, config, "eps", DEFAULT_EPS)),
        n_users=_as_int("--users", _require(args, config, "users", "--users")),
        publish_delta_s=_as_float("--delta", _setting(args, config, "delta", DEFAULT_DELTA_S)),
        schedule=_parse_schedule(_setting(args, config, "schedule", "harmonic")),
        solver_policy=_make_policy(args, config),
    )
    sink = make_sink(_setting(args, config, "sink", "stdout"))
    windows_out = _setting(args, config, "windows_out")
    with contextlib.ExitStack() as stack:
        if args.input == "-":
            lines: Iterable[str] = sys.stdin
        else:
            lines = stack.enter_context(open(args.input, encoding="utf-8"))
        # a regular file is read to its end as one batch; anything else may be
        # a live feed, whose lines must not wait in a buffer
        live = not _is_regular_file(lines)
        if not live and getattr(sys.stdout, "write_through", False):
            # a batch's lines may wait, even where PYTHONUNBUFFERED made stdout
            # write each one through; restoring it flushes them, also on error
            sys.stdout.reconfigure(write_through=False)
            stack.callback(sys.stdout.reconfigure, write_through=True)

        def write_json(stream: IO[str], item: TunerRecord | WindowStats) -> None:
            stream.write(item.to_json() + "\n")
            if live:
                stream.flush()

        windows = windowize(read_events(lines), tuner_config.window_s, tuner_config.n_users)
        if windows_out is not None:
            sidecar = stack.enter_context(open(windows_out, "w", encoding="utf-8"))
            windows = _tee_windows(windows, sidecar, write_json)
        report = run_tuner(windows, tuner_config, sink, on_record=functools.partial(write_json, sys.stdout))
    state = report.final_state
    print(
        f"{state.iteration + 1} iterations, {report.skipped_windows} empty windows skipped, "
        f"{report.n_published} published, {report.failed_publishes} publish failures; "
        f"final xi_hat {state.xi_hat:.6g}, beta_hat {state.beta_hat:.6g}",
        file=sys.stderr,
    )
    return EXIT_SINK if report.failed_publishes else EXIT_OK


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path!r} is not valid JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path!r} must hold a JSON object")
    return data


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idletune",
        description="Size a directory server's idle timeout from a failure-probability target.",
        epilog=(
            "exit codes: 0 success, 2 usage, 3 infeasible target, "
            "4 bad input data, 5 publish failure"
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON file supplying any flag by name")
    common.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--users", type=int, help="population size N")
    model.add_argument("--beta", type=float, help="per-user request rate, 1/s")
    model.add_argument("--xi", type=float, help="marked-request probability in [0, 1]")

    policy = argparse.ArgumentParser(add_help=False)
    policy.add_argument(
        "--expression",
        choices=("auto", "exact", "large-n"),
        help="inversion to use (default auto: exact up to the threshold)",
    )
    policy.add_argument(
        "--large-n-threshold",
        dest="large_n_threshold",
        type=int,
        help=f"population above which auto picks large-n (default {DEFAULT_LARGE_N_THRESHOLD})",
    )

    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_solve = sub.add_parser(
        "solve",
        parents=[common, model, policy],
        help="timeout achieving a target failure probability",
    )
    p_solve.add_argument("--eps", type=float, help=f"target failure probability (default {DEFAULT_EPS})")
    p_solve.set_defaults(handler=_cmd_solve)

    p_prob = sub.add_parser(
        "prob", parents=[common, model], help="failure probability at a given timeout"
    )
    p_prob.add_argument("--timeout", type=float, help="idle timeout to evaluate, seconds")
    p_prob.set_defaults(handler=_cmd_prob)

    p_bound = sub.add_parser(
        "bound", parents=[common], help="lowest achievable failure probability"
    )
    p_bound.add_argument("--users", type=int, help="population size N")
    p_bound.add_argument("--xi", type=float, help="marked-request probability in [0, 1]")
    p_bound.set_defaults(handler=_cmd_bound)

    p_sim = sub.add_parser(
        "simulate",
        parents=[common, model],
        help="Monte Carlo estimate of the failure probability",
    )
    p_sim.add_argument("--timeout", type=float, help="idle timeout to evaluate, seconds")
    p_sim.add_argument("--trials", type=int, help=f"number of trials (default {DEFAULT_TRIALS})")
    p_sim.add_argument("--seed", type=int, help="RNG seed (default env IDLETUNE_SEED, then 0)")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_system = sub.add_parser(
        "sim-system",
        parents=[common, model],
        help="event-level simulation of the connection pool",
    )
    p_system.add_argument("--processes", type=int, help="pooled child processes (default 1)")
    p_system.add_argument(
        "--process-life",
        dest="process_life",
        type=int,
        help="requests served before a child respawns; 0 means never (default 0)",
    )
    p_system.add_argument(
        "--idle-timeout",
        dest="idle_timeout",
        type=float,
        help="server idle timeout under test, seconds; 0 means never drop (default 0)",
    )
    p_system.add_argument("--duration", type=float, help="simulated wall time, seconds")
    p_system.add_argument("--seed", type=int, help="RNG seed (default env IDLETUNE_SEED, then 0)")
    p_system.set_defaults(handler=_cmd_sim_system)

    p_gen = sub.add_parser(
        "gen-log",
        parents=[common, model],
        help="synthesize an event log with known parameters",
    )
    p_gen.add_argument("--duration", type=float, help="log span, seconds")
    p_gen.add_argument("--seed", type=int, help="RNG seed (default env IDLETUNE_SEED, then 0)")
    p_gen.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    p_gen.set_defaults(handler=_cmd_gen_log)

    p_tune = sub.add_parser(
        "tune",
        parents=[common, policy],
        help="estimate parameters from an event log and publish timeouts",
    )
    p_tune.add_argument("input", nargs="?", default="-", help="event-log path (default stdin)")
    p_tune.add_argument("--users", type=int, help="population size N (not estimated)")
    p_tune.add_argument("--window", type=float, help=f"averaging window, seconds (default {DEFAULT_WINDOW_S:g})")
    p_tune.add_argument("--eps", type=float, help=f"target failure probability (default {DEFAULT_EPS})")
    p_tune.add_argument("--delta", type=float, help=f"publish threshold, seconds (default {DEFAULT_DELTA_S:g})")
    p_tune.add_argument(
        "--schedule",
        help="step sizes: harmonic, power:A with A in (0.5, 1], or constant:C (default harmonic)",
    )
    p_tune.add_argument(
        "--sink",
        help="publish target: stdout, file:PATH, ldif:PATH, or webhook:URL (default stdout)",
    )
    p_tune.add_argument(
        "--windows-out",
        dest="windows_out",
        metavar="PATH",
        help="also write per-window statistics to this file",
    )
    p_tune.set_defaults(handler=_cmd_tune)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    code = EXIT_OK
    try:
        try:
            code = args.handler(args, _load_config(args.config))
        except BrokenPipeError:
            raise  # a closed stdout, handled below rather than as an OSError
        except InfeasibleTargetError as exc:
            code = EXIT_INFEASIBLE
            print(f"error: {exc}", file=sys.stderr)
            _emit(
                {
                    "error": "infeasible-target",
                    "target_eps": exc.target_eps,
                    "feasibility_bound": exc.bound,
                }
            )
        except (ParseError, SequencingError, CannotInitializeError) as exc:
            code = EXIT_INPUT
            print(f"error: {exc}", file=sys.stderr)
        except SinkError as exc:
            code = EXIT_SINK
            print(f"error: {exc}", file=sys.stderr)
        except ValueError as exc:
            code = EXIT_USAGE
            print(f"error: {exc}", file=sys.stderr)
        except OSError as exc:
            code = EXIT_INPUT
            print(f"error: {exc}", file=sys.stderr)
        # a reader that closed stdout early surfaces here, not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head -1`): stop quietly, with the code
        # of any error met first; with fd 1 on the null device, the
        # interpreter's final flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
