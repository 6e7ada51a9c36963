"""Operator command line.

Machine-readable results go to standard output as line-delimited JSON;
human-readable summaries go to standard error.  Exit codes:

    0  success, or the reader closed standard output early (`| head -1`)
    2  usage error (bad flags, bad values, unreadable config file)
    3  infeasible target: no timeout can reach the requested probability
    4  input data error (malformed event, time regression, empty stream)
    5  one or more publishes failed to deliver

Settings come from flags, then a JSON config file (``--config``) keyed by
the flags' long names with underscores for dashes, then (``--seed`` only)
the IDLETUNE_SEED environment variable, then the command's default.  Config
values are checked like flags; an unknown key is an error, and ``--config``,
``--verbose`` and tune's input path are flag-only.

Standard output gathers lines into large writes for every command, also
under PYTHONUNBUFFERED, and is flushed before the command returns; ``tune``
on a live feed flushes it after each window.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import math
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
from .ingest import WindowStats, _read_windows, format_event
from .model import DEFAULT_LARGE_N_THRESHOLD, ModelParams, failure_probability, feasibility_bound, solve_timeout
from .model import _EXPRESSIONS
from .sinks import make_sink

__all__ = ["main", "entry_point"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_INPUT = 4
EXIT_SINK = 5

SEED_ENV_VAR = "IDLETUNE_SEED"

PATH = "PATH"  # a string setting that names a file
REQUIRED = object()  # the default of a setting that must be given

# Every setting once: its type (int, float, str, PATH, or a tuple of
# choices), the range a number must lie in (a key of RANGES, or None), and
# its help text, in which "{}" stands for the default.  The ranges are the
# library's own, so that a bad value is reported under the flag's name.
SETTINGS: dict[str, tuple[object, str | None, str]] = {
    "users": (int, ">= 1", "population size N"),
    "beta": (float, "positive and finite", "per-user request rate, 1/s"),
    "xi": (float, "in [0, 1]", "marked-request probability in [0, 1]"),
    "expression": (_EXPRESSIONS, None, "inversion to use (default {}: exact up to the threshold)"),
    "large_n_threshold": (int, ">= 1", "population above which auto picks large-n (default {})"),
    "eps": (float, "in (0, 1)", "target failure probability (default {})"),
    "timeout": (float, ">= 0", "idle timeout to evaluate, seconds"),
    "trials": (int, ">= 1", "number of trials (default {})"),
    "seed": (int, ">= 0", "RNG seed (default env IDLETUNE_SEED, then {})"),
    "processes": (int, ">= 1", "pooled child processes (default {})"),
    "process_life": (int, ">= 0", "requests served before a child respawns; 0 means never (default {})"),
    "idle_timeout": (float, ">= 0", "server idle timeout under test, seconds; 0 means never drop (default {:g})"),
    "duration": (float, "positive and finite", "log span, seconds"),
    "out": (PATH, None, "output file (default stdout)"),
    "window": (float, "positive and finite", "averaging window, seconds (default {:g})"),
    "delta": (float, ">= 0", "publish threshold, seconds (default {:g})"),
    "schedule": (str, None, "step sizes: harmonic, power:A with A in (0.5, 1], or constant:C (default {})"),
    "sink": (str, None, "publish target: stdout, file:PATH, ldif:PATH, or webhook:URL (default {})"),
    "windows_out": (PATH, None, "also write per-window statistics to this file"),
}

# each range a setting may name, with its test; NaN passes none of them
RANGES: dict[str, Callable[[float], bool]] = {
    ">= 0": lambda x: x >= 0,
    ">= 1": lambda x: x >= 1,
    "positive and finite": lambda x: 0 < x < math.inf,
    "in [0, 1]": lambda x: 0 <= x <= 1,
    "in (0, 1)": lambda x: 0 < x < 1,
}

# the two places where a command words a shared setting its own way
OWN_HELP = {
    ("sim-system", "duration"): "simulated wall time, seconds",
    ("tune", "users"): "population size N (not estimated)",
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


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


def _checked(name: str, value, source: str):
    """``value`` as setting ``name``'s type, in its range, or ValueError naming
    ``source``: its flag, or the environment variable it came from."""
    kind, bounds, _ = SETTINGS[name]
    if kind in (int, float):
        value = _as_int(source, value) if kind is int else _as_float(source, value)
        if not RANGES[bounds](value):
            raise ValueError(f"{source} must be {bounds}, got {value!r}")
    elif isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(f"{source} must be {', '.join(kind[:-1])}, or {kind[-1]}, got {value!r}")
    elif not isinstance(value, str):
        raise ValueError(f"{source} must be a string, got {value!r}")
    return value


def _resolve(args: argparse.Namespace, config: dict) -> None:
    """Set each of the command's settings on ``args``: from its flag, else
    the config file, else (seed only) IDLETUNE_SEED, else its default."""
    _, _, settings = COMMANDS[args.command]
    for name, default in settings.items():
        source = _flag(name)
        value = getattr(args, name)
        if value is None:
            value = config.get(name)
        if value is None and name == "seed":
            value = os.environ.get(SEED_ENV_VAR)
            source = SEED_ENV_VAR
        if value is not None:
            value = _checked(name, value, source)
        elif default is REQUIRED:
            raise ValueError(f"missing required setting {_flag(name)} (flag or config file)")
        else:
            value = default
        setattr(args, name, value)


def _parse_schedule(text: str) -> StepSchedule:
    if text == "harmonic":
        return StepSchedule("harmonic")
    kind, sep, arg = text.partition(":")
    if sep and arg and kind in ("power", "constant"):
        return StepSchedule(kind, _as_float(f"--schedule {kind}:", arg))
    raise ValueError(f"schedule {text!r} is not harmonic, power:A, or constant:C")


def _model_params(args: argparse.Namespace) -> ModelParams:
    return ModelParams(n_users=args.users, beta=args.beta, xi=args.xi)


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")


def _cmd_solve(args: argparse.Namespace) -> int:
    solution = solve_timeout(_model_params(args), args.eps, args.expression, args.large_n_threshold)
    _emit(
        {
            "timeout_s": solution.timeout_s,
            "expression": solution.expression,
            "feasibility_bound": solution.feasibility_bound,
        }
    )
    print(
        f"idle timeout {solution.timeout_s:.6g} s reaches failure probability "
        f"{args.eps:.6g} ({solution.expression} inversion; attainable floor "
        f"{solution.feasibility_bound:.6g})",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_prob(args: argparse.Namespace) -> int:
    p = failure_probability(_model_params(args), args.timeout)
    _emit({"failure_probability": p})
    print(f"failure probability {p:.6g} at idle timeout {args.timeout:.6g} s", file=sys.stderr)
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    # the floor depends only on the population and marked fraction
    bound = feasibility_bound(ModelParams(n_users=args.users, beta=1.0, xi=args.xi))
    _emit({"feasibility_bound": bound})
    print(f"no timeout can push the failure probability below {bound:.6g}", file=sys.stderr)
    return EXIT_OK


# the simulating commands import .simulate when they run, because it loads
# numpy, which no other command needs


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simulate import simulate_failure_prob

    result = simulate_failure_prob(_model_params(args), args.timeout, args.trials, args.seed)
    sys.stdout.write(result.to_json() + "\n")
    print(
        f"p_hat {result.p_hat:.6g} +/- {result.std_err:.3g} "
        f"({result.failures}/{result.trials} failures, seed {result.seed})",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_sim_system(args: argparse.Namespace) -> int:
    from .simulate import SystemConfig, simulate_system

    system = SystemConfig(
        n_users=args.users,
        beta=args.beta,
        xi=args.xi,
        n_processes=args.processes,
        idle_timeout_s=args.idle_timeout,
        duration_s=args.duration,
        process_life=args.process_life or None,
    )
    report = simulate_system(system, args.seed)
    sys.stdout.write(report.to_json() + "\n")
    print(
        f"{report.failed_binds}/{report.marked_requests} marked requests failed "
        f"(rate {report.failure_rate:.6g})",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_gen_log(args: argparse.Namespace) -> int:
    from .simulate import generate_event_log

    count = 0
    with _open_out(args.out) as handle:
        for ts, is_bind in generate_event_log(_model_params(args), args.duration, args.seed):
            handle.write(format_event(ts, is_bind) + "\n")
            count += 1
    print(f"wrote {count} events (seed {args.seed})", file=sys.stderr)
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


def _cmd_tune(args: argparse.Namespace) -> int:
    tuner_config = TunerConfig(
        target_eps=args.eps,
        n_users=args.users,
        publish_delta_s=args.delta,
        schedule=_parse_schedule(args.schedule),
        expression=args.expression,
        large_n_threshold=args.large_n_threshold,
    )
    sink = make_sink(args.sink)
    with contextlib.ExitStack() as stack:
        if args.input == "-":
            source = sys.stdin.buffer
        else:
            source = stack.enter_context(open(args.input, "rb"))
        # a regular file is read to its end as one batch; anything else may be
        # a live feed, whose lines must not wait in a buffer
        live = not _is_regular_file(source)

        def write_json(stream: IO[str], item: TunerRecord | WindowStats) -> None:
            stream.write(item.to_json() + "\n")
            if live:
                stream.flush()

        windows = _read_windows(source, args.window, args.users)
        if args.windows_out is not None:
            sidecar = stack.enter_context(open(args.windows_out, "w", encoding="utf-8"))
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


# Each command: its handler, its help, and its settings with their defaults
# (REQUIRED where there is none) in --help order.
_MODEL = {"users": REQUIRED, "beta": REQUIRED, "xi": REQUIRED}
_INVERSION = {"expression": "auto", "large_n_threshold": DEFAULT_LARGE_N_THRESHOLD}
COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], int], str, dict[str, object]]] = {
    "solve": (_cmd_solve, "timeout achieving a target failure probability",
              {**_MODEL, **_INVERSION, "eps": 0.1}),
    "prob": (_cmd_prob, "failure probability at a given timeout", {**_MODEL, "timeout": REQUIRED}),
    "bound": (_cmd_bound, "lowest achievable failure probability", {"users": REQUIRED, "xi": REQUIRED}),
    "simulate": (_cmd_simulate, "Monte Carlo estimate of the failure probability",
                 {**_MODEL, "timeout": REQUIRED, "trials": 100_000, "seed": 0}),
    "sim-system": (_cmd_sim_system, "event-level simulation of the connection pool",
                   {**_MODEL, "processes": 1, "process_life": 0, "idle_timeout": 0.0, "duration": REQUIRED,
                    "seed": 0}),
    "gen-log": (_cmd_gen_log, "synthesize an event log with known parameters",
                {**_MODEL, "duration": REQUIRED, "seed": 0, "out": None}),
    "tune": (_cmd_tune, "estimate parameters from an event log and publish timeouts",
             {**_INVERSION, "users": REQUIRED, "window": 1200.0, "eps": 0.1, "delta": 5.0,
              "schedule": "harmonic", "sink": "stdout", "windows_out": None}),
}


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
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, an integer too long to convert, or nesting too deep to decode
        raise ValueError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path!r} must hold a JSON object")
    unknown = sorted(data.keys() - SETTINGS.keys())
    if unknown:
        raise ValueError(
            f"config file {path!r} has keys that name no setting: {', '.join(map(repr, unknown))} "
            "(keys are the long flag names with underscores)"
        )
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
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for command, (_, summary, settings) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        if command == "tune":
            p.add_argument("input", nargs="?", default="-", help="event-log path (default stdin)")
        p.add_argument("--config", metavar=PATH, help="JSON file supplying any flag by name")
        p.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
        for name, default in settings.items():
            kind, _, text = SETTINGS[name]
            p.add_argument(
                _flag(name),
                type=kind if kind in (int, float) else str,
                choices=kind if isinstance(kind, tuple) else None,
                metavar=PATH if kind is PATH else None,
                help=OWN_HELP.get((command, name), text).format(default),
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    # output gathers into large writes even where PYTHONUNBUFFERED made stdout
    # write each line through; restoring that is left until stdout is settled
    stdout = sys.stdout
    write_through = getattr(stdout, "write_through", False)
    if write_through:
        stdout.reconfigure(write_through=False)
    code = EXIT_OK
    try:
        try:
            _resolve(args, _load_config(args.config))
            handler, _, _ = COMMANDS[args.command]
            code = handler(args)
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
        stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head -1`): stop quietly, with the code
        # of any error met first; with fd 1 on the null device, the
        # interpreter's final flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
    finally:
        if write_through:
            stdout.reconfigure(write_through=True)
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
