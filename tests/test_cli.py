import hashlib
import json
import os
import random
import select
import subprocess
import sys
import time

import pytest

from idletune import ModelParams, solve_timeout
from idletune.cli import main


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
        monkeypatch.setattr("sys.stdin", event_log.open())
        code, out, _ = run_cli(capsys, "tune", "--users", "50", "--window", "600")
        assert code == 0
        assert len(stdout_records(out)) > 10

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

    def test_unreadable_config_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "solve", "--config", str(tmp_path / "nope.json"))
        assert code == 2

    def test_invalid_json_config_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text("{not json")
        code, _, _ = run_cli(capsys, "solve", "--config", str(config))
        assert code == 2


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
