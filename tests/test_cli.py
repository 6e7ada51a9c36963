import hashlib
import io
import json
import os
import random
import re
import select
import subprocess
import sys
import time

import pytest

import idletune
from idletune import EstimatorState, ModelParams, failure_probability, should_publish, solve_timeout
from idletune.cli import SETTINGS, main
from idletune.model import _RANGES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_records(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line]


N150_FLAGS = ["--users", "150", "--beta", "1.39e-3", "--xi", "0.1338"]
CLI = [sys.executable, "-m", "idletune.cli"]


def read_lines(stream, n: int, timeout_s: float) -> list[str]:
    """The first ``n`` lines of a pipe, or fewer if they do not all come in time."""
    data = b""
    deadline = time.monotonic() + timeout_s
    while data.count(b"\n") < n:
        ready, _, _ = select.select([stream], [], [], max(deadline - time.monotonic(), 0.0))
        chunk = os.read(stream.fileno(), 65536) if ready else b""
        if not chunk:
            break
        data += chunk
    return data.decode().splitlines()[:n]


def first_line_of(path, timeout_s: float) -> str:
    """The first line of a file another process is writing, or "" if none comes in time."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if path.exists() and "\n" in (text := path.read_text()):
            return text.splitlines()[0]
        time.sleep(0.05)
    return ""


class TestSolve:
    def test_n150_point(self, capsys):
        code, out, err = run_cli(capsys, "solve", *N150_FLAGS, "--eps", "0.1")
        assert code == 0
        (record,) = stdout_records(out)
        assert list(record) == ["timeout_s", "expression", "feasibility_bound"]
        assert record["timeout_s"] == pytest.approx(87.03, rel=0.01)
        assert record["expression"] == "exact"
        assert "idle timeout" in err

    def test_n10k_uses_large_n(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--users", "10000", "--beta", "0.06", "--xi", "0.5887", "--eps", "0.1"
        )
        assert code == 0
        (record,) = stdout_records(out)
        assert record["expression"] == "large-n"
        assert record["timeout_s"] == pytest.approx(0.0065, rel=0.03)

    def test_output_round_trips_exactly(self, capsys):
        _, out, _ = run_cli(capsys, "solve", *N150_FLAGS, "--eps", "0.1")
        (record,) = stdout_records(out)
        expected = solve_timeout(ModelParams(150, 1.39e-3, 0.1338), 0.1)
        assert record["timeout_s"] == expected.timeout_s
        assert record["feasibility_bound"] == expected.feasibility_bound

    def test_unmarked_traffic_is_infeasible(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", "--users", "150", "--beta", "1e-3", "--xi", "0", "--eps", "0.1"
        )
        assert code == 3
        (record,) = stdout_records(out)
        assert record["error"] == "infeasible-target"
        assert record["feasibility_bound"] == 1.0
        assert "unattainable" in err

    def test_target_below_floor_is_infeasible(self, capsys):
        code, out, _ = run_cli(capsys, "solve", *N150_FLAGS, "--eps", "1e-12")
        assert code == 3
        (record,) = stdout_records(out)
        assert record["feasibility_bound"] == pytest.approx(4.37e-10, rel=0.01)

    @pytest.mark.parametrize("users, expression", [("500", "exact"), ("501", "large-n")])
    def test_auto_crosses_over_above_500_users(self, capsys, users, expression):
        code, out, _ = run_cli(capsys, "solve", "--users", users, "--beta", "1e-3", "--xi", "0.01", "--eps", "0.2")
        assert code == 0
        assert stdout_records(out)[0]["expression"] == expression

    @pytest.mark.parametrize("command", ["solve", "tune"])
    def test_the_crossover_is_no_flag(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            main([command, *N150_FLAGS[:2], "--large-n-threshold", "100"])
        assert err.value.code == 2
        assert "unrecognized arguments: --large-n-threshold" in capsys.readouterr().err

    def test_forced_expression(self, capsys):
        code, out, _ = run_cli(capsys, "solve", *N150_FLAGS, "--expression", "large-n")
        assert code == 0
        assert stdout_records(out)[0]["expression"] == "large-n"

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--users", "150", "--beta", "1e-3")
        assert code == 2
        assert "--xi" in err

    def test_invalid_parameter_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--users", "150", "--beta", "-1", "--xi", "0.3")
        assert code == 2

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--frobnicate"])
        assert err.value.code == 2
        capsys.readouterr()


class TestProb:
    def test_solved_point_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "prob", *N150_FLAGS, "--timeout", "87.03")
        assert code == 0
        (record,) = stdout_records(out)
        assert record["failure_probability"] == pytest.approx(0.1, abs=0.005)

    def test_zero_timeout(self, capsys):
        code, out, _ = run_cli(capsys, "prob", *N150_FLAGS, "--timeout", "0")
        assert code == 0
        assert stdout_records(out)[0]["failure_probability"] == 1.0

    def test_saturating_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, "prob", "--users", "1", "--beta", "1", "--xi", "1", "--timeout", "50"
        )
        assert code == 0
        assert stdout_records(out)[0]["failure_probability"] < 1e-6


class TestBound:
    def test_n150_floor(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--users", "150", "--xi", "0.1338")
        assert code == 0
        assert stdout_records(out)[0]["feasibility_bound"] == pytest.approx(4.37e-10, rel=0.01)

    def test_extremes(self, capsys):
        _, out, _ = run_cli(capsys, "bound", "--users", "9", "--xi", "1")
        assert stdout_records(out)[0]["feasibility_bound"] == 0.0
        _, out, _ = run_cli(capsys, "bound", "--users", "9", "--xi", "0")
        assert stdout_records(out)[0]["feasibility_bound"] == 1.0


class TestSimulate:
    def test_matches_library_call(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--users", "20", "--beta", "0.01", "--xi", "0.3",
            "--timeout", "50", "--trials", "20000", "--seed", "5",
        )
        assert code == 0
        (record,) = stdout_records(out)
        assert record["trials"] == 20000
        assert record["seed"] == 5
        assert record["p_hat"] == pytest.approx(0.0811, abs=0.01)

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("IDLETUNE_SEED", "77")
        _, out, _ = run_cli(
            capsys,
            "simulate",
            "--users", "5", "--beta", "0.1", "--xi", "0.5",
            "--timeout", "1", "--trials", "100",
        )
        assert stdout_records(out)[0]["seed"] == 77

    @pytest.mark.parametrize(
        "value, message",
        [("-1", "IDLETUNE_SEED must be >= 0, got -1"), ("abc", "IDLETUNE_SEED must be an integer, got 'abc'")],
    )
    def test_bad_seed_from_environment_names_the_variable(self, capsys, monkeypatch, value, message):
        monkeypatch.setenv("IDLETUNE_SEED", value)
        code, out, err = run_cli(
            capsys,
            "simulate",
            "--users", "5", "--beta", "0.1", "--xi", "0.5",
            "--timeout", "1", "--trials", "10",
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_flag_overrides_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("IDLETUNE_SEED", "77")
        _, out, _ = run_cli(
            capsys,
            "simulate",
            "--users", "5", "--beta", "0.1", "--xi", "0.5",
            "--timeout", "1", "--trials", "100", "--seed", "3",
        )
        assert stdout_records(out)[0]["seed"] == 3


class TestSimSystem:
    def test_reports_failures(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sim-system",
            "--users", "40", "--beta", "0.05", "--xi", "0.3",
            "--processes", "4", "--process-life", "50",
            "--idle-timeout", "10", "--duration", "2000", "--seed", "3",
        )
        assert code == 0
        (record,) = stdout_records(out)
        assert record["marked_requests"] > 0
        assert 0.0 <= record["failure_rate"] <= 1.0

    def test_default_timeout_never_drops(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sim-system",
            "--users", "10", "--beta", "0.1", "--xi", "0.5",
            "--duration", "500", "--seed", "1",
        )
        assert code == 0
        assert stdout_records(out)[0]["failed_binds"] == 0


class TestGenLog:
    def test_writes_parseable_stream(self, capsys, tmp_path):
        out_path = tmp_path / "events.jsonl"
        code, _, err = run_cli(
            capsys,
            "gen-log",
            "--users", "20", "--beta", "0.01", "--xi", "0.3",
            "--duration", "5000", "--seed", "8", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) > 0
        assert f"wrote {len(lines)} events" in err
        first = json.loads(lines[0])
        assert set(first) == {"ts", "kind"}

    def test_stdout_by_default(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "gen-log",
            "--users", "20", "--beta", "0.01", "--xi", "0.3",
            "--duration", "1000", "--seed", "8",
        )
        assert code == 0
        assert all(set(json.loads(line)) == {"ts", "kind"} for line in out.splitlines())

    def test_coalesces_a_write_through_stdout(self, monkeypatch):
        # PYTHONUNBUFFERED opens stdout write-through, one write(2) per event;
        # the log must go out in large writes, and the stream be as it was after
        raw = CountingRaw()
        stdout = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
        monkeypatch.setattr("sys.stdout", stdout)
        code = main(
            ["gen-log", "--users", "50", "--beta", "0.01", "--xi", "0.3", "--duration", "30000", "--seed", "11"]
        )
        assert code == 0
        assert len(raw.data.decode().splitlines()) > 10_000
        assert raw.writes <= len(raw.data) // 4096 + 1
        assert stdout.write_through is True


@pytest.fixture()
def event_log(tmp_path):
    path = tmp_path / "events.jsonl"
    code = main(
        [
            "gen-log",
            "--users", "50", "--beta", "0.01", "--xi", "0.3",
            "--duration", "30000", "--seed", "11", "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestTune:
    def tune_args(self, path, *extra):
        return ["tune", str(path), "--users", "50", "--window", "600", "--eps", "0.1", *extra]

    def test_produces_report_and_publishes(self, capsys, event_log, tmp_path):
        ldif = tmp_path / "update.ldif"
        code, out, err = run_cli(
            capsys, *self.tune_args(event_log, "--delta", "1", "--sink", f"ldif:{ldif}")
        )
        assert code == 0
        records = stdout_records(out)
        assert len(records) > 10
        assert all(
            list(r)
            == ["iteration", "window_end_ts", "chi", "theta", "xi_hat", "beta_hat", "timeout_s", "published"]
            for r in records
        )
        assert records[0]["published"] is True
        assert ldif.read_text().startswith("dn: cn=config\n")
        assert "final xi_hat" in err

    def test_publish_lines_interleave_on_stdout_sink(self, capsys, event_log):
        code, out, _ = run_cli(capsys, *self.tune_args(event_log, "--delta", "1"))
        assert code == 0
        events = [r for r in stdout_records(out) if r.get("event") == "publish"]
        assert len(events) >= 1
        assert all("timeout_s" in r for r in events)
        # each publish line comes just before the record of the window that published it
        lines = stdout_records(out)
        for publish, record in zip(lines, lines[1:]):
            if publish.get("event") == "publish":
                assert record["published"] is True
                assert record["window_end_ts"] == publish["window_end_ts"]

    def test_huge_delta_publishes_once(self, capsys, event_log):
        code, out, _ = run_cli(capsys, *self.tune_args(event_log, "--delta", "1e9"))
        assert code == 0
        records = [r for r in stdout_records(out) if "published" in r]
        assert sum(r["published"] for r in records) == 1

    def test_reads_stdin_by_default(self, capsys, monkeypatch, event_log):
        capsys.readouterr()  # what gen-log printed
        expected = run_cli(capsys, "tune", str(event_log), "--users", "50", "--window", "600")
        with event_log.open() as stdin:
            monkeypatch.setattr("sys.stdin", stdin)
            code, out, err = run_cli(capsys, "tune", "--users", "50", "--window", "600")
        assert code == 0
        assert len(stdout_records(out)) > 10
        assert (code, out, err) == expected

    def test_windows_out_sidecar(self, capsys, event_log, tmp_path):
        sidecar = tmp_path / "windows.jsonl"
        code, _, _ = run_cli(
            capsys, *self.tune_args(event_log, "--windows-out", str(sidecar))
        )
        assert code == 0
        windows = [json.loads(line) for line in sidecar.read_text().splitlines()]
        assert len(windows) > 10
        assert list(windows[0]) == [
            "window_start_ts", "window_s", "n_requests", "n_marked", "chi", "theta", "zero_traffic",
        ]

    def test_empty_input_exits_four(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, _, err = run_cli(capsys, *self.tune_args(empty))
        assert code == 4
        assert "error" in err

    def test_malformed_line_exits_four(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"ts": 1.0, "kind": "request"}\nnot json\n')
        code, _, err = run_cli(capsys, *self.tune_args(bad))
        assert code == 4
        assert "line 2" in err

    def test_time_regression_exits_four(self, capsys, tmp_path):
        log = tmp_path / "regressing.jsonl"
        log.write_text(
            '{"ts": 100.0, "kind": "request"}\n{"ts": 50.0, "kind": "request"}\n'
        )
        code, _, _ = run_cli(capsys, *self.tune_args(log))
        assert code == 4

    def test_unreachable_sink_exits_five_but_reports(self, capsys, event_log):
        code, out, _ = run_cli(
            capsys,
            *self.tune_args(event_log, "--delta", "1", "--sink", "webhook:http://127.0.0.1:1/hook"),
        )
        assert code == 5
        assert len(stdout_records(out)) > 10

    def test_bad_sink_descriptor_is_usage_error(self, capsys, event_log):
        code, _, _ = run_cli(capsys, *self.tune_args(event_log, "--sink", "carrier-pigeon"))
        assert code == 2

    @pytest.mark.parametrize("from_config", [False, True])
    @pytest.mark.parametrize(
        "schedule, message",
        [
            ("bogus", "schedule 'bogus' is not harmonic, power:A, or constant:C"),
            ("power", "schedule 'power' is not harmonic, power:A, or constant:C"),
            ("power:", "schedule 'power:' is not harmonic, power:A, or constant:C"),
            ("power:x", "--schedule power: must be a number, got 'x'"),
            ("power:0.6:1", "--schedule power: must be a number, got '0.6:1'"),
            ("power:0.5", "power schedule needs an exponent in (0.5, 1], got 0.5"),
            ("power:2", "power schedule needs an exponent in (0.5, 1], got 2.0"),
            ("constant:0", "constant schedule needs a value in (0, 1], got 0.0"),
            ("constant:1.5", "constant schedule needs a value in (0, 1], got 1.5"),
            ("constant:nan", "constant schedule needs a value in (0, 1], got nan"),
            ("harmonic:1", "schedule 'harmonic:1' is not harmonic, power:A, or constant:C"),
            ("POWER:0.6", "schedule 'POWER:0.6' is not harmonic, power:A, or constant:C"),
        ],
    )
    def test_a_bad_schedule_is_a_usage_error(self, capsys, tmp_path, schedule, message, from_config):
        log = tmp_path / "events.jsonl"
        log.write_text(seeded_log(5, 50))
        if from_config:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"schedule": schedule}))
            extra = ["--config", str(config)]
        else:
            extra = ["--schedule", schedule]
        code, out, err = run_cli(capsys, *self.tune_args(log, *extra))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_a_regular_file_coalesces_a_write_through_stdout(self, monkeypatch, event_log):
        # PYTHONUNBUFFERED opens stdout write-through, one write(2) per line;
        # a batch read from a regular file must not pay that, and the stream
        # must be write-through again after
        raw = CountingRaw()
        stdout = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
        monkeypatch.setattr("sys.stdout", stdout)
        code = main(self.tune_args(event_log, "--window", "60", "--delta", "0", "--sink", "stdout"))
        assert code == 0
        lines = raw.data.decode().splitlines()
        assert len(lines) > 500
        assert raw.writes <= len(raw.data) // 4096 + 1
        assert stdout.write_through is True

    def test_records_before_a_malformed_line_still_reach_stdout(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(seeded_log(3, 200) + "not json\n")
        code, out, err = run_cli(capsys, *self.tune_args(bad, "--window", "60"))
        assert code == 4
        assert "line 201" in err
        records = [r for r in stdout_records(out) if "published" in r]
        assert len(records) > 10
        assert [r["iteration"] for r in records] == list(range(len(records)))
        assert sys.stdout.write_through is True

    def test_records_stream_before_a_piped_input_ends(self, tmp_path):
        # a live feed: the first window's record must arrive while stdin is open
        proc = subprocess.Popen(
            [sys.executable, "-m", "idletune.cli", "tune", "-", "--users", "50", "--window", "600",
             "--sink", f"ldif:{tmp_path / 'update.ldif'}"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            for i in range(20):
                kind = "bind" if i % 3 == 0 else "request"
                proc.stdin.write('{"ts": %r, "kind": "%s"}\n' % (100.0 * i, kind))
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 10.0)
            assert ready, "no record within 10 s while the input was still open"
            record = json.loads(proc.stdout.readline())
            assert record["iteration"] == 0
            proc.stdin.close()
            assert proc.wait(timeout=10.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def test_every_output_streams_before_a_piped_input_ends(self, tmp_path):
        # on a live feed the publish line, its record and the sidecar's window
        # must all arrive while stdin is still open
        sidecar = tmp_path / "windows.jsonl"
        proc = subprocess.Popen(
            [*CLI, "tune", "-", "--users", "50", "--window", "600", "--sink", "stdout",
             "--windows-out", str(sidecar)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        try:
            for i in range(20):
                kind = "bind" if i % 3 == 0 else "request"
                proc.stdin.write(b'{"ts": %r, "kind": "%s"}\n' % (100.0 * i, kind.encode()))
            proc.stdin.flush()
            lines = read_lines(proc.stdout, 2, timeout_s=10.0)
            assert len(lines) == 2, f"stdout held {lines} within 10 s while the input was still open"
            publish, record = map(json.loads, lines)
            assert publish["event"] == "publish"
            assert record["iteration"] == 0 and record["published"] is True
            assert record["window_end_ts"] == publish["window_end_ts"]
            window = first_line_of(sidecar, timeout_s=10.0)
            assert window, "no sidecar window within 10 s while the input was still open"
            assert json.loads(window)["window_start_ts"] == 0.0
            proc.stdin.close()
            assert proc.wait(timeout=10.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()


class TestClosedStdout:
    """A reader that closes stdout early (`| head -1`) ends the run, quietly and with exit 0."""

    def head_1(self, tmp_path, *argv) -> tuple[str, int, str]:
        # each output is far larger than a pipe holds, so the writer must meet the closed end
        err_path = tmp_path / "stderr.txt"
        with err_path.open("w") as err:
            proc = subprocess.Popen([*CLI, *argv], stdout=subprocess.PIPE, stderr=err)
            try:
                (first,) = read_lines(proc.stdout, 1, timeout_s=30.0)
                proc.stdout.close()
                code = proc.wait(timeout=30.0)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        return first, code, err_path.read_text()

    def assert_quiet(self, code: int, err: str) -> None:
        assert code == 0
        for word in ("error", "Traceback", "Exception ignored"):
            assert word.lower() not in err.lower(), err

    def test_gen_log(self, tmp_path):
        first, code, err = self.head_1(
            tmp_path, "gen-log", "--users", "50", "--beta", "0.01", "--xi", "0.3",
            "--duration", "40000", "--seed", "8",
        )
        assert set(json.loads(first)) == {"ts", "kind"}
        self.assert_quiet(code, err)

    def test_tune_with_stdout_sink(self, tmp_path, event_log):
        first, code, err = self.head_1(
            tmp_path, "tune", str(event_log), "--users", "50", "--window", "60", "--delta", "0",
            "--sink", "stdout",
        )
        assert json.loads(first)["event"] == "publish"
        self.assert_quiet(code, err)

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_an_error_report_outlives_a_closed_stdout(self, unbuffered):
        # the read end is closed before the child starts, so its first write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [*CLI, "solve", "--users", "20", "--beta", "0.01", "--xi", "0.3", "--eps", "1e-4"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 3
        assert result.stderr.startswith("error: target failure probability 0.0001 is unattainable")
        for word in ("Traceback", "Exception ignored"):
            assert word not in result.stderr, result.stderr

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_a_bad_line_outlives_a_closed_stdout(self, tmp_path, unbuffered):
        # the records before the bad line fit in stdout's buffer, so the closed
        # pipe is met only after tune has stopped on the bad line
        bad = tmp_path / "bad.jsonl"
        bad.write_text(seeded_log(3, 20) + "not json\n")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [*CLI, "tune", str(bad), "--users", "50", "--window", "60"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 4
        assert result.stderr.startswith("error: line 21:")
        for word in ("Traceback", "Exception ignored"):
            assert word not in result.stderr, result.stderr

    def test_a_closed_sidecar_is_still_an_error(self, tmp_path, event_log):
        # unlike a closed stdout, a sidecar whose reader went away must not end the run quietly
        fifo = tmp_path / "windows.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        err_path = tmp_path / "stderr.txt"
        with err_path.open("w") as err:
            proc = subprocess.Popen(
                [*CLI, "tune", str(event_log), "--users", "50", "--window", "30", "--windows-out", str(fifo)],
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            try:
                with os.fdopen(reader, "rb") as stream:
                    (window,) = read_lines(stream, 1, timeout_s=30.0)
                assert json.loads(window)["window_s"] == 30.0
                code = proc.wait(timeout=30.0)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        assert code == 4
        assert "--windows-out" in err_path.read_text()


class TestTuneIngestPaths:
    TUNE_FLAGS = ["--users", "50", "--window", "600", "--eps", "0.1", "--delta", "1"]

    def test_canonical_and_rewritten_logs_give_identical_output(self, capsys, event_log, tmp_path):
        # gen-log writes canonical lines, which tune decodes on its fast path;
        # compact separators and swapped keys send every line down the slow one
        rewritten = tmp_path / "rewritten.jsonl"
        with event_log.open() as src, rewritten.open("w") as dst:
            for line in src:
                record = json.loads(line)
                dst.write(json.dumps({"kind": record["kind"], "ts": record["ts"]}, separators=(",", ":")) + "\n")
        assert rewritten.read_text() != event_log.read_text()
        code_fast, out_fast, _ = run_cli(capsys, "tune", str(event_log), *self.TUNE_FLAGS)
        code_slow, out_slow, _ = run_cli(capsys, "tune", str(rewritten), *self.TUNE_FLAGS)
        assert code_fast == code_slow == 0
        assert len(stdout_records(out_fast)) > 10
        assert out_fast == out_slow

    def test_gen_log_golden_output(self, capsys):
        # Pinned sha256 of gen-log output at one seed: a speed-up must leave
        # the bytes as they are.  The log comes from numpy's Generator
        # streams, which numpy does not promise to keep across versions.
        code, log_text, _ = run_cli(
            capsys,
            "gen-log",
            "--users", "50", "--beta", "0.01", "--xi", "0.3",
            "--duration", "30000", "--seed", "11",
        )
        assert code == 0
        assert hashlib.sha256(log_text.encode()).hexdigest() == (
            "ac254dc5e4b7a99991b3ff13a6313ec2d418b04dce02b5a94314871998aebf14"
        )

    def test_tune_golden_output(self, capsys, tmp_path):
        # Pinned sha256 of tune over a log written without numpy, so only
        # ingest and the tuner can move it: of the records alone, of the
        # stdout-sink publish lines alone, and of the whole stdout, where
        # each publish line comes just before the record of its window.
        log = tmp_path / "golden.jsonl"
        log.write_text(seeded_log(11, 1500))
        code, out, _ = run_cli(capsys, "tune", str(log), *self.TUNE_FLAGS)
        assert code == 0
        lines = out.splitlines(keepends=True)
        records = "".join(line for line in lines if not line.startswith('{"event": "publish"'))
        publishes = "".join(line for line in lines if line.startswith('{"event": "publish"'))
        assert len(stdout_records(records)) > 10
        assert hashlib.sha256(records.encode()).hexdigest() == (
            "bd2b42808dc46350bfbabb9f8f3fcbf1bcb85b97f258412faa89ebddc6850716"
        )
        assert hashlib.sha256(publishes.encode()).hexdigest() == (
            "ff043333d1333444258a022f67ac8d36fae1446741183055543fae7aeb92b58f"
        )
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "18fb4aaff5e47797988a7640215706fc1403f3e735790868b742675a7ba37ad4"
        )


def block_log(n_events: int) -> bytes:
    """A canonical log longer than two 64 KiB reads."""
    data = seeded_log(17, n_events).encode()
    assert len(data) > 2 * 65536
    return data


class TestTuneInputEdges:
    """What tune prints for awkward input bytes; the stdout digests and
    stderr lines are pinned, so a change to how the input is read shows."""

    FLAGS = ["--users", "50", "--window", "600", "--delta", "1"]

    def tune(self, capsys, tmp_path, data: bytes):
        log = tmp_path / "edge.jsonl"
        log.write_bytes(data)
        return run_cli(capsys, "tune", str(log), *self.FLAGS)

    @pytest.mark.parametrize(
        "rewrite",
        [
            pytest.param(lambda data: data.replace(b"\n", b"\r\n"), id="crlf"),
            pytest.param(lambda data: data.replace(b"\n", b"\r"), id="lone-cr"),
            pytest.param(lambda data: data.replace(b"}\n", b"}\n\n  \t\n", 40), id="blank-lines"),
            pytest.param(lambda data: data[:-1], id="no-final-newline"),
        ],
    )
    def test_line_endings_and_blank_lines_change_nothing(self, capsys, tmp_path, rewrite):
        data = block_log(5000)
        expected = self.tune(capsys, tmp_path, data)
        assert expected[0] == 0 and len(stdout_records(expected[1])) > 100
        assert rewrite(data) != data
        assert self.tune(capsys, tmp_path, rewrite(data)) == expected

    def test_a_byte_that_is_not_utf8(self, capsys, tmp_path):
        data = bytearray(block_log(5000))
        data[100] = 0xFF
        assert data[:100].count(b"\n") == 2
        code, out, err = self.tune(capsys, tmp_path, bytes(data))
        assert (code, out) == (4, "")
        assert err == "error: line 3: invalid UTF-8 byte 0xff: invalid start byte\n"

    def test_a_byte_that_is_not_utf8_in_the_second_read(self, capsys, tmp_path):
        clean = block_log(5000)
        data = bytearray(clean)
        data[70_000] = 0xC3  # opens a two-byte sequence that the next byte does not continue
        line = data[:70_000].count(b"\n") + 1
        code, out, err = self.tune(capsys, tmp_path, bytes(data))
        assert code == 4
        assert err == f"error: line {line}: invalid UTF-8 byte 0xc3: invalid continuation byte\n"
        # the windows closed before the bad line were reported as they closed
        _, clean_out, _ = self.tune(capsys, tmp_path, clean)
        assert out and clean_out.startswith(out)

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param(b"[" * 200_000 + b"\n", id="deep-nesting"),
            pytest.param(b'{"ts": 1' + b"0" * 5000 + b', "kind": "bind"}\n', id="long-integer"),
        ],
    )
    def test_a_line_json_cannot_decode_is_an_input_error(self, capsys, tmp_path, line):
        lines = seeded_log(5, 50).encode().splitlines(keepends=True)
        lines[1] = line
        code, out, err = self.tune(capsys, tmp_path, b"".join(lines))
        assert (code, out) == (4, "")
        # the reason is Python's own, and differs between versions
        assert err.startswith("error: line 2: ") and err.count("\n") == 1

    def test_a_malformed_line_in_the_third_read(self, capsys, tmp_path):
        lines = block_log(5000).splitlines(keepends=True)
        lines[4499] = b'{"ts": 1e5, "kind": "request"\n'
        assert sum(map(len, lines[:4499])) > 2 * 65536
        code, out, err = self.tune(capsys, tmp_path, b"".join(lines))
        assert code == 4
        assert err == "error: line 4500: invalid record: Expecting ',' delimiter\n"
        assert len(stdout_records(out)) > 100
        assert hashlib.sha256(out.encode()).hexdigest() == "4285941492d9f493206fedf4ca46021fa1e30a854c0ddb78a950df737dde368c"

    def test_a_regression_across_a_read_boundary(self, capsys, tmp_path):
        data = block_log(5000)
        lines = data.splitlines(keepends=True)
        # the first line that starts past the first 64 KiB read
        first = data[:65536].count(b"\n")
        ts = json.loads(lines[first - 1])["ts"]
        lines[first] = b'{"ts": %r, "kind": "bind"}\n' % (ts - 1.5)
        code, out, err = self.tune(capsys, tmp_path, b"".join(lines))
        assert code == 4
        assert err == (
            "error: timestamp 29698.169999999915 regresses 1.5s behind the newest event at "
            "29699.669999999915; tolerance is 1s\n"
        )
        assert len(stdout_records(out)) > 50
        assert hashlib.sha256(out.encode()).hexdigest() == "aec6534fcbe18c982ff649b134a46e34de482709e313b5a868addf4962bd4d4a"


class CountingRaw(io.RawIOBase):
    """A raw output stream that keeps what it is given and counts its write calls."""

    def __init__(self):
        self.writes = 0
        self.data = bytearray()

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        self.writes += 1
        self.data += b
        return len(b)


def seeded_log(seed: int, n_events: int) -> str:
    """Canonical log lines drawn from Python's own seeded generator."""
    rng = random.Random(seed)
    ts = 0.0
    lines = []
    for _ in range(n_events):
        ts += round(rng.random() * 40.0, 3)
        kind = "bind" if rng.random() < 0.3 else "request"
        lines.append('{"ts": %r, "kind": "%s"}\n' % (ts, kind))
    return "".join(lines)


# for each command, every setting it takes, each off its default
EVERY_SETTING = {
    "solve": {"users": 600, "beta": 1e-3, "xi": 0.01, "expression": "exact", "eps": 0.2},
    "prob": {"users": 150, "beta": 1.39e-3, "xi": 0.1338, "timeout": 60.0},
    "bound": {"users": 9, "xi": 0.3},
    "simulate": {"users": 20, "beta": 0.01, "xi": 0.3, "timeout": 50.0, "trials": 2000, "seed": 5},
    "sim-system": {
        "users": 10, "beta": 0.1, "xi": 0.5, "processes": 2, "process_life": 50, "idle_timeout": 10.0,
        "duration": 500.0, "seed": 4,
    },
    "gen-log": {"users": 20, "beta": 0.01, "xi": 0.3, "duration": 1000.0, "seed": 8, "out": "{dir}/log.jsonl"},
    "tune": {
        "expression": "large-n", "users": 50, "window": 300.0, "eps": 0.2, "delta": 0.5,
        "schedule": "constant:0.5", "sink": "ldif:{dir}/update.ldif", "windows_out": "{dir}/windows.jsonl",
    },
}


class TestConfigFile:
    def test_supplies_missing_flags(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"users": 150, "beta": 1.39e-3, "xi": 0.1338}))
        code, out, _ = run_cli(capsys, "solve", "--config", str(config), "--eps", "0.1")
        assert code == 0
        assert stdout_records(out)[0]["timeout_s"] == pytest.approx(87.03, rel=0.01)

    def test_flags_override_file(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"users": 150, "beta": 1.39e-3, "xi": 0.1338, "eps": 0.5}))
        code, out, _ = run_cli(capsys, "solve", "--config", str(config), "--eps", "0.1")
        assert code == 0
        assert stdout_records(out)[0]["timeout_s"] == pytest.approx(87.03, rel=0.01)

    def test_config_seed_beats_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("IDLETUNE_SEED", "77")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": 12}))
        _, out, _ = run_cli(
            capsys,
            "simulate",
            "--config", str(config),
            "--users", "5", "--beta", "0.1", "--xi", "0.5",
            "--timeout", "1", "--trials", "100",
        )
        assert stdout_records(out)[0]["seed"] == 12

    def test_supplies_gen_log_out(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        out_path = tmp_path / "g.jsonl"
        config.write_text(json.dumps({"out": str(out_path)}))
        code, out, _ = run_cli(
            capsys,
            "gen-log",
            "--config", str(config),
            "--users", "20", "--beta", "0.01", "--xi", "0.3", "--duration", "1000", "--seed", "8",
        )
        assert code == 0
        assert out == ""
        assert len(out_path.read_text().splitlines()) > 0

    def test_supplies_tune_windows_out(self, capsys, tmp_path, event_log):
        config = tmp_path / "cfg.json"
        sidecar = tmp_path / "side.jsonl"
        config.write_text(json.dumps({"windows_out": str(sidecar)}))
        code, out, _ = run_cli(
            capsys, "tune", str(event_log), "--config", str(config), "--users", "50", "--window", "600"
        )
        assert code == 0
        records = [r for r in stdout_records(out) if "published" in r]
        assert len(records) > 10
        assert len(sidecar.read_text().splitlines()) == len(records)

    @pytest.mark.parametrize(
        "command, key, value", [("tune", "sink", 5), ("gen-log", "out", 2), ("tune", "windows_out", 1)]
    )
    def test_a_value_of_the_wrong_type_is_a_usage_error(self, tmp_path, command, key, value):
        # in a child process: before the check, out=2 wrote to and closed fd 2
        log = tmp_path / "events.jsonl"
        log.write_text(seeded_log(5, 50))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}))
        argv = {
            "tune": ["tune", str(log), "--users", "50"],
            "gen-log": ["gen-log", "--users", "5", "--beta", "0.1", "--xi", "0.5", "--duration", "100"],
        }[command]
        result = subprocess.run(
            [*CLI, *argv, "--config", str(config)], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 2
        assert result.stderr == f"error: --{key.replace('_', '-')} must be a string, got {value}\n"

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("[" * 200_000, id="deep-nesting"),
            pytest.param('{"users": 1' + "0" * 5000 + "}", id="long-integer"),
        ],
    )
    def test_a_file_json_cannot_decode_is_a_usage_error(self, capsys, tmp_path, text):
        config = tmp_path / "cfg.json"
        config.write_text(text)
        code, out, err = run_cli(capsys, "solve", "--config", str(config), *N150_FLAGS)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config file {str(config)!r} is not valid JSON: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["large_n_threshold", "large-n-threshold", "verbose", "config", "input"])
    def test_a_key_that_names_no_setting_is_a_usage_error(self, capsys, tmp_path, key):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"eps": 0.2, key: 100}))
        code, out, err = run_cli(capsys, "solve", "--config", str(config), *N150_FLAGS)
        assert code == 2
        assert out == ""
        assert repr(key) in err

    def test_a_key_of_another_command_is_accepted(self, capsys, tmp_path):
        # one file serves every command
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"expression": "large-n", "sink": "stdout", "seed": 3, "out": "x.jsonl"}))
        code, out, _ = run_cli(capsys, "solve", "--config", str(config), *N150_FLAGS)
        assert code == 0
        assert stdout_records(out)[0]["expression"] == "large-n"

    @pytest.mark.parametrize("command", list(EVERY_SETTING))
    def test_a_file_with_every_setting_acts_as_the_flags_do(self, capsys, tmp_path, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = capsys.readouterr().out
        taken = set(re.findall(r"^  (?:-\w, )?--([\w-]+)", help_text, re.M)) - {"help", "config", "verbose"}
        assert taken == {name.replace("_", "-") for name in EVERY_SETTING[command]}
        log = tmp_path / "events.jsonl"
        log.write_text(seeded_log(7, 400))
        head = [command, str(log)] if command == "tune" else [command]
        results = []
        for how in ("flags", "config"):
            work = tmp_path / how
            work.mkdir()
            settings = {
                name: value.format(dir=work) if isinstance(value, str) else value
                for name, value in EVERY_SETTING[command].items()
            }
            if how == "flags":
                argv = [*head]
                for name, value in settings.items():
                    argv += [f"--{name.replace('_', '-')}", str(value)]
            else:
                config = tmp_path / "cfg.json"
                config.write_text(json.dumps(settings))
                argv = [*head, "--config", str(config)]
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, err
            files = {path.name: path.read_bytes() for path in work.iterdir()}
            results.append((out, err, files))
        assert results[0] == results[1]
        assert results[0][0] or results[0][2]

    def test_unreadable_config_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "solve", "--config", str(tmp_path / "nope.json"))
        assert code == 2

    def test_invalid_json_config_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text("{not json")
        code, _, _ = run_cli(capsys, "solve", "--config", str(config))
        assert code == 2


# the settings each command requires (and few trials), at values it runs on
REQUIRED = {
    "bound": {"users": 5, "xi": 0.5},
    "solve": {"users": 5, "beta": 0.1, "xi": 0.5},
    "prob": {"users": 5, "beta": 0.1, "xi": 0.5, "timeout": 1.0},
    "simulate": {"users": 5, "beta": 0.1, "xi": 0.5, "timeout": 1.0, "trials": 100},
    "sim-system": {"users": 5, "beta": 0.1, "xi": 0.5, "duration": 10.0},
    "gen-log": {"users": 5, "beta": 0.1, "xi": 0.5, "duration": 10.0},
    "tune": {"users": 5},
}

# for each ranged setting: a command that takes it and a value outside its range
OUT_OF_RANGE = {
    "users": ("bound", 0),
    "beta": ("solve", 0.0),
    "xi": ("bound", 1.5),
    "eps": ("solve", 1.0),
    "timeout": ("prob", -1.0),
    "trials": ("simulate", 0),
    "seed": ("simulate", -1),
    "processes": ("sim-system", 0),
    "process_life": ("sim-system", -3),
    "idle_timeout": ("sim-system", -1.0),
    "duration": ("gen-log", 0.0),
    "window": ("tune", 0.0),
    "delta": ("tune", -1.0),
}

# values that no range admits, or that a positive and finite one does not
INF, NAN = float("inf"), float("nan")
NOT_FINITE = [("beta", INF), ("duration", INF), ("window", INF), ("xi", NAN), ("timeout", NAN)]

# for each setting of a number or choice kind: text that reads as none of its values
MALFORMED = [
    (name, text)
    for name, (kind, _, _) in SETTINGS.items()
    for text in {int: ["abc", "1.5"], float: ["abc"]}.get(kind, ["nope"] if isinstance(kind, tuple) else [])
]


def range_argv(command: str, name: str, value, tmp_path, how: str) -> list[str]:
    """``command`` with its required settings as flags and ``name`` set to ``value``."""
    settings = {key: val for key, val in REQUIRED[command].items() if key != name}
    argv = [command, str(tmp_path / "events.jsonl")] if command == "tune" else [command]
    for key, val in settings.items():
        argv += [f"--{key.replace('_', '-')}", str(val)]
    if how == "flag":
        return [*argv, f"--{name.replace('_', '-')}", str(value)]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({name: value}))
    return [*argv, "--config", str(config)]


# for each range of the library's table: a library call outside it, with the
# name and value its error reports, and a command and setting outside it
# too, or None where no setting has that range
SHARED_RANGES = {
    ">= 0": (lambda: failure_probability(ModelParams(5, 0.1, 0.5), -1.0), "timeout_s", -1.0, ("prob", "timeout")),
    ">= 1": (lambda: idletune.simulate_failure_prob(ModelParams(5, 0.1, 0.5), 1.0, 0, 0), "trials", 0, ("simulate", "trials")),
    "in [1, 2**63 - 1]": (lambda: ModelParams(2**63, 0.1, 0.5), "n_users", 2**63, ("bound", "users")),
    "positive": (lambda: should_publish(EstimatorState(0, 0.5, 0.1), 0.0, 5.0), "new_timeout_s", 0.0, None),
    "positive and finite": (lambda: ModelParams(5, float("inf"), 0.5), "beta", float("inf"), ("solve", "beta")),
    "in [0, 1]": (lambda: ModelParams(5, 0.1, 1.5), "xi", 1.5, ("bound", "xi")),
    "in (0, 1)": (lambda: solve_timeout(ModelParams(5, 0.1, 0.5), 1.0), "eps", 1.0, ("solve", "eps")),
}


class TestRanges:
    def test_every_ranged_setting_is_covered(self):
        assert set(OUT_OF_RANGE) == {name for name, (_, bounds, _) in SETTINGS.items() if bounds}

    @pytest.mark.parametrize("bounds", list(_RANGES))
    def test_the_library_and_the_flags_word_a_range_alike(self, capsys, tmp_path, bounds):
        call, name, value, setting = SHARED_RANGES[bounds]
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"{name} must be {bounds}, got {value!r}"
        if setting is not None:
            command, name = setting
            assert SETTINGS[name][1] == bounds
            code, out, err = run_cli(capsys, *range_argv(command, name, value, tmp_path, "flag"))
            assert (code, out, err) == (2, "", f"error: --{name} must be {bounds}, got {value!r}\n")

    @pytest.mark.parametrize(
        "name, text",
        [("timeout", "-1e-3"), ("timeout", "-inf"), ("beta", "-inf"), ("beta", "-1E+2"), ("seed", "-1e3")],
    )
    def test_a_negative_value_after_a_space_reads_as_after_an_equals_sign(self, capsys, tmp_path, name, text):
        command = OUT_OF_RANGE[name][0]
        argv = range_argv(command, name, text, tmp_path, "flag")
        spaced = run_cli(capsys, *argv)
        assert spaced == run_cli(capsys, *argv[:-2], f"{argv[-2]}={text}")
        code, out, err = spaced
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --{name} must be ") and err.count("\n") == 1

    def test_the_command_line_of_the_process_is_joined_too(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["idletune", "prob", "--users", "5", "--beta", "0.1", "--xi", "0.5", "--timeout", "-1e-3"])
        assert main() == 2
        assert capsys.readouterr().err == "error: --timeout must be >= 0, got -0.001\n"

    def test_words_after_a_double_dash_are_left_alone(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "tune", "--users", "5", "--", str(tmp_path / "-1e-3"))
        assert (code, out) == (4, "")
        assert "-1e-3" in err

    def test_a_window_too_short_for_a_finite_rate_is_named(self, capsys, tmp_path):
        # 2 requests at one instant in a window of 1e-320 s overflow the
        # per-user rate; the error is about the window, not the estimates
        log = tmp_path / "two.jsonl"
        log.write_text('{"ts": 5.0, "kind": "bind"}\n{"ts": 5.0, "kind": "request"}\n')
        code, out, err = run_cli(capsys, "tune", str(log), "--users", "150", "--window", "1e-320")
        assert (code, out) == (2, "")
        assert err == "error: window length 1e-320 s is too short for a finite per-user request rate\n"

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize(
        "name, value", [(name, value) for name, (_, value) in OUT_OF_RANGE.items()] + NOT_FINITE
    )
    def test_an_out_of_range_value_is_a_usage_error_naming_the_flag(self, capsys, tmp_path, name, value, how):
        command = OUT_OF_RANGE[name][0]
        (tmp_path / "events.jsonl").write_text(seeded_log(3, 50))
        code, out, err = run_cli(capsys, *range_argv(command, name, value, tmp_path, how))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --{name.replace('_', '-')} must be "), err

    @pytest.mark.parametrize("name, text", MALFORMED)
    def test_a_malformed_value_gets_one_message_from_a_flag_or_a_file(self, capsys, tmp_path, name, text):
        command = OUT_OF_RANGE.get(name, ("solve",))[0]
        (tmp_path / "events.jsonl").write_text(seeded_log(3, 50))
        flag, config = (run_cli(capsys, *range_argv(command, name, text, tmp_path, how)) for how in ("flag", "config"))
        assert flag == config
        code, out, err = flag
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --{name.replace('_', '-')} must be ") and err.endswith(f", got {text!r}\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", ["abc", "1.5", "-1"])
    def test_a_seed_from_the_environment_is_worded_as_the_flag(self, capsys, tmp_path, monkeypatch, text):
        argv = range_argv("simulate", "seed", text, tmp_path, "flag")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: --seed must be ")
        monkeypatch.setenv("IDLETUNE_SEED", text)
        assert run_cli(capsys, *argv[:-2]) == (2, "", err.replace("--seed", "IDLETUNE_SEED"))

    def test_a_config_integer_past_the_float_range_reads_as_its_text_does(self, capsys, tmp_path):
        flag = run_cli(capsys, *range_argv("solve", "beta", "1e400", tmp_path, "flag"))
        config = run_cli(capsys, *range_argv("solve", "beta", 10**400, tmp_path, "config"))
        assert flag == config == (2, "", "error: --beta must be positive and finite, got inf\n")

    @pytest.mark.parametrize("command", list(REQUIRED))
    def test_a_population_up_to_the_largest_c_long_runs_and_no_more(self, capsys, tmp_path, command):
        (tmp_path / "events.jsonl").write_text(seeded_log(3, 50))

        def argv(n_users: int) -> list[str]:
            argv = range_argv(command, "users", n_users, tmp_path, "flag")
            # replaces REQUIRED's 0.1, so that the simulators draw about 90 arrivals, not 10**18
            return [*argv, "--beta", "1e-18"] if "beta" in REQUIRED[command] else argv

        code, out, err = run_cli(capsys, *argv(2**63 - 1))
        assert code == 0 and out, err
        for n in (2**63, 10**400):
            assert run_cli(capsys, *argv(n)) == (2, "", f"error: --users must be in [1, 2**63 - 1], got {n}\n")

    @pytest.mark.parametrize(
        "command, name, value",
        [
            ("sim-system", "process_life", 0),
            ("prob", "timeout", 0.0),
            ("tune", "delta", 0.0),
            ("sim-system", "idle_timeout", 0.0),
            ("simulate", "seed", 0),
            ("solve", "xi", 1.0),
        ],
    )
    def test_a_boundary_value_runs(self, capsys, tmp_path, command, name, value):
        (tmp_path / "events.jsonl").write_text(seeded_log(3, 50))
        for how in ("flag", "config"):
            code, out, err = run_cli(capsys, *range_argv(command, name, value, tmp_path, how))
            assert code == 0, err
            assert out


IMPORT_PROBE = """
import json, sys
from idletune.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
sys.stdout.flush()
print(json.dumps({"codes": codes, "loaded": [m for m in json.loads(sys.argv[2]) if m in sys.modules]}))
"""


class TestImports:
    def test_model_and_tune_commands_load_neither_numpy_nor_urllib(self, tmp_path):
        log = tmp_path / "small.jsonl"
        log.write_text(seeded_log(5, 300))
        tune = ["tune", str(log), "--users", "50", "--window", "600", "--delta", "1"]
        commands = [
            ["solve", *N150_FLAGS, "--eps", "0.1"],
            ["prob", *N150_FLAGS, "--timeout", "87"],
            ["bound", "--users", "150", "--xi", "0.1338"],
            [*tune, "--sink", "stdout"],
            [*tune, "--sink", f"ldif:{tmp_path / 'update.ldif'}"],
        ]
        heavy = ["numpy", "urllib.request", "http.client"]
        result = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, json.dumps(commands), json.dumps(heavy)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        probe = json.loads(result.stdout.splitlines()[-1])
        assert probe == {"codes": [0] * len(commands), "loaded": []}


class TestConsoleScript:
    def test_installed_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "idletune.cli", "solve", *N150_FLAGS, "--eps", "0.1"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        record = json.loads(result.stdout)
        assert record["timeout_s"] == pytest.approx(87.03, rel=0.01)
