import http.server
import io
import json
import math
import threading
from unittest import mock

import numpy as np
import pytest

from idletune import FileSink, LdifSink, SinkError, StdoutSink, WebhookSink, make_sink
from idletune import sinks


class TestStdoutSink:
    def test_writes_one_json_line(self):
        stream = io.StringIO()
        StdoutSink(stream).publish(61.25, {"iteration": 4})
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record == {"event": "publish", "timeout_s": 61.25, "iteration": 4}

    def test_meta_is_optional(self):
        stream = io.StringIO()
        StdoutSink(stream).publish(10.0)
        assert json.loads(stream.getvalue()) == {"event": "publish", "timeout_s": 10.0}

    def test_leaves_flushing_to_the_stream_owner(self):
        stream = mock.Mock(spec=io.StringIO)
        StdoutSink(stream).publish(10.0)
        stream.write.assert_called_once()
        stream.flush.assert_not_called()

    @pytest.mark.parametrize("error,raised", [(BrokenPipeError, BrokenPipeError), (OSError, SinkError)])
    def test_only_a_closed_pipe_escapes_as_itself(self, error, raised):
        # a closed stdout ends the run; any other write failure is a failed publish
        stream = mock.Mock(spec=io.StringIO)
        stream.write.side_effect = error("write failed")
        with pytest.raises(raised):
            StdoutSink(stream).publish(10.0)


class TestFileSink:
    def test_appends_history(self, tmp_path):
        path = tmp_path / "publishes.jsonl"
        sink = FileSink(str(path))
        sink.publish(60.0, {"iteration": 0})
        sink.publish(72.5, {"iteration": 3})
        lines = path.read_text().splitlines()
        assert [json.loads(line)["timeout_s"] for line in lines] == [60.0, 72.5]

    def test_unwritable_path_raises(self, tmp_path):
        sink = FileSink(str(tmp_path / "no" / "such" / "dir" / "f.jsonl"))
        with pytest.raises(SinkError):
            sink.publish(60.0)


class TestLdifSink:
    def test_renders_modify_snippet(self, tmp_path):
        path = tmp_path / "update.ldif"
        LdifSink(str(path)).publish(87.03)
        assert path.read_text() == (
            "dn: cn=config\n"
            "changetype: modify\n"
            "replace: nsslapd-idletimeout\n"
            "nsslapd-idletimeout: 88\n"
        )

    @pytest.mark.parametrize("timeout,rendered", [(87.03, 88), (60.0, 60), (0.0065, 1), (2**31 - 1, 2**31 - 1)])
    def test_rounds_up_to_whole_seconds(self, timeout, rendered):
        assert f"nsslapd-idletimeout: {rendered}\n" in LdifSink.render(timeout)

    def test_overwrites_rather_than_appends(self, tmp_path):
        path = tmp_path / "update.ldif"
        sink = LdifSink(str(path))
        sink.publish(87.03)
        sink.publish(16.4)
        content = path.read_text()
        assert content.count("dn: cn=config") == 1
        assert "nsslapd-idletimeout: 17" in content

    def test_byte_stable_for_identical_input(self, tmp_path):
        path = tmp_path / "update.ldif"
        sink = LdifSink(str(path))
        sink.publish(61.7)
        first = path.read_bytes()
        sink.publish(61.7)
        assert path.read_bytes() == first

    def test_rejects_nonpositive_timeout(self, tmp_path):
        with pytest.raises(SinkError):
            LdifSink(str(tmp_path / "x.ldif")).publish(0.0)

    @pytest.mark.parametrize("timeout", [2**31, math.inf])
    def test_rejects_timeout_above_setting_range(self, timeout):
        with pytest.raises(SinkError):
            LdifSink.render(timeout)

    def test_failed_publish_keeps_previous_snippet(self, tmp_path):
        path = tmp_path / "update.ldif"
        sink = LdifSink(str(path))
        sink.publish(87.03)
        before = path.read_bytes()
        with mock.patch("os.replace", side_effect=OSError("disk full")):
            with pytest.raises(SinkError):
                sink.publish(16.4)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["update.ldif"]


class _RecordingHandler(http.server.BaseHTTPRequestHandler):
    bodies: list[bytes] = []
    status = 200

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        type(self).bodies.append(self.rfile.read(length))
        self.send_response(type(self).status)
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture()
def webhook_server():
    _RecordingHandler.bodies = []
    _RecordingHandler.status = 200
    server = http.server.HTTPServer(("127.0.0.1", 0), _RecordingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/hook", _RecordingHandler
    server.shutdown()
    thread.join(timeout=5)
    server.server_close()


class TestWebhookSink:
    def test_posts_json_document(self, webhook_server):
        url, handler = webhook_server
        WebhookSink(url).publish(42.5, {"iteration": 2})
        assert len(handler.bodies) == 1
        assert json.loads(handler.bodies[0]) == {
            "event": "publish",
            "timeout_s": 42.5,
            "iteration": 2,
        }

    def test_http_error_status_raises(self, webhook_server):
        url, handler = webhook_server
        handler.status = 500
        with pytest.raises(SinkError):
            WebhookSink(url).publish(42.5)

    def test_unreachable_host_raises(self):
        # port 1 is reserved and closed; connection is refused immediately
        with pytest.raises(SinkError):
            WebhookSink("http://127.0.0.1:1/hook", timeout_s=2.0).publish(42.5)

    def test_rejects_malformed_url(self):
        with pytest.raises(ValueError):
            WebhookSink("ftp://example.org/hook")
        with pytest.raises(ValueError):
            WebhookSink("not a url")


class TestMakeSink:
    def test_builds_each_kind(self, tmp_path):
        assert isinstance(make_sink("stdout"), StdoutSink)
        assert isinstance(make_sink(f"file:{tmp_path}/a.jsonl"), FileSink)
        assert isinstance(make_sink(f"ldif:{tmp_path}/a.ldif"), LdifSink)
        assert isinstance(make_sink("webhook:http://127.0.0.1:9/h"), WebhookSink)

    @pytest.mark.parametrize("descriptor", ["", "stdout:", "file:", "pipe:/x", "ldif"])
    def test_rejects_unknown_descriptors(self, descriptor):
        with pytest.raises(ValueError):
            make_sink(descriptor)


def _publish_via(kind: str, tmp_path, timeout_s, meta) -> str:
    """What one publish of ``kind`` writes: the stdout or file line, or the
    webhook body, without its newline."""
    if kind == "stdout":
        stream = io.StringIO()
        StdoutSink(stream).publish(timeout_s, meta)
        text = stream.getvalue()
    elif kind == "file":
        path = tmp_path / "publishes.jsonl"
        FileSink(str(path)).publish(timeout_s, meta)
        text = path.read_text(encoding="utf-8")
    else:
        response = mock.MagicMock(status=204)
        response.__enter__.return_value = response
        with mock.patch("urllib.request.urlopen", return_value=response) as urlopen:
            WebhookSink("http://127.0.0.1:9/hook").publish(timeout_s, meta)
        return urlopen.call_args.args[0].data.decode("utf-8")
    assert text.endswith("\n") and text.count("\n") == 1
    return text[:-1]


# the meta run_tuner publishes, its keys in its order
RUN_TUNER_META = {
    "iteration": 17,
    "window_end_ts": 12000.5,
    "xi_hat": 0.1338,
    "beta_hat": 0.00139,
    "target_eps": 0.1,
    "expression": "exact",
}


class _Label(str):
    """Equal to a label, but str() of it is not its text."""

    def __str__(self):
        return "not a label"


class _Float(float):
    """A float whose own repr and str are not float.__repr__."""

    def __repr__(self):
        return "not a float"

    __str__ = __repr__


SINK_KINDS = ["stdout", "file", "webhook"]


class TestPublishLine:
    """Every sink but ldif writes the payload as json.dumps writes it; most
    lines come from a template, whose guard must send the rest to json.dumps."""

    @pytest.mark.parametrize("kind", SINK_KINDS)
    @pytest.mark.parametrize(
        "timeout_s,meta",
        [
            pytest.param(61.25, None, id="no-meta"),
            pytest.param(61.25, {}, id="empty-meta"),
            pytest.param(61.25, RUN_TUNER_META, id="run-tuner-meta"),
            pytest.param(61.25, {**RUN_TUNER_META, "expression": "large-n"}, id="large-n"),
            pytest.param(61.25, dict(reversed(RUN_TUNER_META.items())), id="reordered"),
            pytest.param(
                61.25,
                {key: RUN_TUNER_META[key] for key in ("iteration", "window_end_ts", "beta_hat", "xi_hat",
                                                      "target_eps", "expression")},
                id="two-floats-swapped",
            ),
            pytest.param(
                61.25, {("xi" if key == "xi_hat" else key): value for key, value in RUN_TUNER_META.items()},
                id="renamed-key",
            ),
            pytest.param(61.25, {**RUN_TUNER_META, "window_s": 10.0}, id="extra-key"),
            pytest.param(61.25, {"iteration": 4}, id="one-key"),
            pytest.param(
                np.float64(61.25),
                {**RUN_TUNER_META, "xi_hat": np.float64(0.1) + 0.2, "target_eps": np.float64(0.1)},
                id="numpy-floats",
            ),
            pytest.param(_Float(61.25), {**RUN_TUNER_META, "beta_hat": _Float(0.00139)}, id="float-subclass"),
            pytest.param(_Float(61.25), RUN_TUNER_META, id="float-subclass-timeout"),
            pytest.param(60, {**RUN_TUNER_META, "window_end_ts": 12000}, id="ints-for-floats"),
            pytest.param(61.25, {**RUN_TUNER_META, "iteration": True}, id="bool-iteration"),
            pytest.param(61.25, {**RUN_TUNER_META, "expression": "exäct"}, id="non-ascii-label"),
            pytest.param(61.25, {**RUN_TUNER_META, "expression": _Label("exact")}, id="label-subclass"),
            pytest.param(
                5e-324, {**RUN_TUNER_META, "window_end_ts": 1e16, "xi_hat": 0.1 + 0.2}, id="awkward-floats"
            ),
            pytest.param(
                1e16, {**RUN_TUNER_META, "beta_hat": 5e-324, "target_eps": 0.1 + 0.2}, id="awkward-floats-2"
            ),
            pytest.param(
                1.7976931348623157e308,
                {**RUN_TUNER_META, "window_end_ts": 1.7976931348623157e308},
                id="sum-overflows",
            ),
        ],
    )
    def test_bytes_are_json_dumps(self, kind, tmp_path, timeout_s, meta):
        assert _publish_via(kind, tmp_path, timeout_s, meta) == json.dumps(sinks._payload(timeout_s, meta))

    @pytest.mark.parametrize("kind", SINK_KINDS)
    def test_run_tuner_meta_takes_the_template(self, kind, tmp_path):
        with mock.patch.object(sinks.json, "dumps", side_effect=AssertionError("json.dumps called")):
            line = _publish_via(kind, tmp_path, 61.25, RUN_TUNER_META)
        assert line == (
            '{"event": "publish", "timeout_s": 61.25, "iteration": 17, "window_end_ts": 12000.5, '
            '"xi_hat": 0.1338, "beta_hat": 0.00139, "target_eps": 0.1, "expression": "exact"}'
        )

    @pytest.mark.parametrize("kind", SINK_KINDS)
    def test_a_numpy_int_iteration_is_the_type_error_json_dumps_raises(self, kind, tmp_path):
        meta = {**RUN_TUNER_META, "iteration": np.int64(17)}
        with pytest.raises(TypeError) as expected:
            json.dumps(sinks._payload(61.25, meta))
        with pytest.raises(TypeError) as err:
            _publish_via(kind, tmp_path, 61.25, meta)
        assert str(err.value) == str(expected.value)

    @pytest.mark.parametrize("kind", SINK_KINDS)
    @pytest.mark.parametrize(
        "timeout_s,meta",
        [
            pytest.param(math.nan, {"xi_hat": math.inf}, id="nan-timeout"),
            pytest.param(math.inf, None, id="infinite-timeout"),
            pytest.param(math.inf, RUN_TUNER_META, id="infinite-timeout-run-tuner-meta"),
            pytest.param(61.25, {**RUN_TUNER_META, "xi_hat": math.nan}, id="nan-in-run-tuner-meta"),
            pytest.param(61.25, {**RUN_TUNER_META, "window_end_ts": -math.inf}, id="minus-infinity"),
            pytest.param(61.25, {"nested": [math.inf]}, id="nested"),
        ],
    )
    def test_a_value_that_is_not_finite_fails_the_publish(self, kind, tmp_path, timeout_s, meta):
        # NaN and Infinity are not JSON; nothing is written or sent
        with mock.patch("urllib.request.urlopen") as urlopen, pytest.raises(SinkError):
            _publish_via(kind, tmp_path, timeout_s, meta)
        urlopen.assert_not_called()
        assert list(tmp_path.iterdir()) == []

    def test_stdout_writes_nothing_for_a_value_that_is_not_finite(self):
        stream = io.StringIO()
        with pytest.raises(SinkError):
            StdoutSink(stream).publish(float("nan"), {"xi_hat": float("inf")})
        assert stream.getvalue() == ""
