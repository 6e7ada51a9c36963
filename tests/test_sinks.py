import http.server
import io
import json
import math
import threading
from unittest import mock

import pytest

from idletune import FileSink, LdifSink, SinkError, StdoutSink, WebhookSink, make_sink


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
