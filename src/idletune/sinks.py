"""Publish targets for recommended timeouts.

Every sink exposes ``publish(timeout_s, meta)`` and converts delivery
problems into :class:`SinkError` so the tuning loop can log them and keep
going.  Delivery is at-most-once; there are no retries, because the next
window publishes a fresh value anyway.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import urllib.error
import urllib.parse
import urllib.request
from typing import IO, Mapping

from .errors import SinkError

__all__ = [
    "StdoutSink",
    "FileSink",
    "LdifSink",
    "WebhookSink",
    "make_sink",
]

WEBHOOK_TIMEOUT_S = 10.0
# nsslapd-idletimeout is a signed 32-bit count of seconds
MAX_IDLETIMEOUT_S = 2**31 - 1


def _payload(timeout_s: float, meta: Mapping[str, object] | None) -> dict:
    record: dict = {"event": "publish", "timeout_s": timeout_s}
    if meta:
        record.update(meta)
    return record


class StdoutSink:
    """Write one JSON line per publish to a stream (standard output by default).

    It does not flush: whoever owns the stream decides when to.  A closed
    pipe (``BrokenPipeError``) is not a failed publish to retry; it
    propagates, so the run ends.
    """

    def __init__(self, stream: IO[str] | None = None):
        self._stream = stream

    def publish(self, timeout_s: float, meta: Mapping[str, object] | None = None) -> None:
        stream = self._stream if self._stream is not None else sys.stdout
        try:
            stream.write(json.dumps(_payload(timeout_s, meta)) + "\n")
        except BrokenPipeError:
            raise
        except OSError as exc:
            raise SinkError(f"stdout sink: {exc}") from exc


class FileSink:
    """Append one JSON line per publish, preserving the full history."""

    def __init__(self, path: str):
        self.path = path

    def publish(self, timeout_s: float, meta: Mapping[str, object] | None = None) -> None:
        try:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(_payload(timeout_s, meta)) + "\n")
        except OSError as exc:
            raise SinkError(f"file sink {self.path!r}: {exc}") from exc


class LdifSink:
    """Write a directory-modify snippet holding the latest recommendation.

    The file is replaced on each publish: it represents the current
    desired configuration, not a history.  The snippet is written to
    ``PATH.tmp`` and renamed over ``PATH``, so no reader sees a partial
    file.  The timeout is rounded up to whole seconds, which can only
    lower the realized failure probability below the target.
    """

    def __init__(self, path: str):
        self.path = path

    @staticmethod
    def render(timeout_s: float) -> str:
        if not 0.0 < timeout_s <= MAX_IDLETIMEOUT_S:
            raise SinkError(f"timeout {timeout_s!r} s is outside (0, {MAX_IDLETIMEOUT_S}]")
        seconds = math.ceil(timeout_s)
        return (
            "dn: cn=config\n"
            "changetype: modify\n"
            "replace: nsslapd-idletimeout\n"
            f"nsslapd-idletimeout: {seconds}\n"
        )

    def publish(self, timeout_s: float, meta: Mapping[str, object] | None = None) -> None:
        content = self.render(timeout_s)
        tmp_path = f"{self.path}.tmp"
        try:
            with open(tmp_path, "w", encoding="utf-8") as handle:
                handle.write(content)
            os.replace(tmp_path, self.path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.remove(tmp_path)
            raise SinkError(f"ldif sink {self.path!r}: {exc}") from exc


class WebhookSink:
    """POST one JSON document per publish, with a fixed delivery timeout."""

    def __init__(self, url: str, timeout_s: float = WEBHOOK_TIMEOUT_S):
        parsed = urllib.parse.urlparse(url)
        if parsed.scheme not in ("http", "https") or not parsed.netloc:
            raise ValueError(f"webhook URL must be http(s), got {url!r}")
        self.url = url
        self.timeout_s = timeout_s

    def publish(self, timeout_s: float, meta: Mapping[str, object] | None = None) -> None:
        body = json.dumps(_payload(timeout_s, meta)).encode("utf-8")
        request = urllib.request.Request(
            self.url, data=body, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                status = response.status
        except urllib.error.URLError as exc:
            raise SinkError(f"webhook {self.url!r}: {exc}") from exc
        except OSError as exc:
            raise SinkError(f"webhook {self.url!r}: {exc}") from exc
        if not 200 <= status < 300:
            raise SinkError(f"webhook {self.url!r}: HTTP status {status}")


def make_sink(descriptor: str):
    """Build a sink from a compact descriptor string.

    Accepted forms: ``stdout``, ``file:PATH``, ``ldif:PATH``,
    ``webhook:URL``.
    """
    if descriptor == "stdout":
        return StdoutSink()
    kind, sep, arg = descriptor.partition(":")
    if not sep or not arg:
        raise ValueError(f"sink {descriptor!r} is not stdout, file:PATH, ldif:PATH, or webhook:URL")
    if kind == "file":
        return FileSink(arg)
    if kind == "ldif":
        return LdifSink(arg)
    if kind == "webhook":
        return WebhookSink(arg)
    raise ValueError(f"unknown sink kind {kind!r}")
