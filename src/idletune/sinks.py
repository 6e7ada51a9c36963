"""Publish targets for recommended timeouts.

Every sink exposes ``publish(timeout_s, meta)`` and converts delivery
problems into :class:`SinkError` so the tuning loop can log them and keep
going.  Delivery is at-most-once; there are no retries, because the next
window publishes a fresh value anyway.

The stdout, file and webhook sinks write the same payload, byte for byte
what ``json.dumps`` writes; a NaN or infinite value in it is not JSON, so
it fails the publish.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import urllib.parse
from typing import IO, Mapping

from .errors import SinkError
from .model import _EXPRESSIONS

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


# the meta run_tuner publishes, in its order, and its publish line as
# json.dumps writes it when the floats are finite
_META_KEYS = ("iteration", "window_end_ts", "xi_hat", "beta_hat", "target_eps", "expression")
_PUBLISH_LINE = (
    '{"event": "publish", "timeout_s": %s, "iteration": %d, "window_end_ts": %s, '
    '"xi_hat": %s, "beta_hat": %s, "target_eps": %s, "expression": "%s"}'
)


def _payload(timeout_s: float, meta: Mapping[str, object] | None) -> dict:
    record: dict = {"event": "publish", "timeout_s": timeout_s}
    if meta:
        record.update(meta)
    return record


def _filled(template: str, values: tuple, floats: tuple) -> str | None:
    """``template % values``, or None unless each of ``floats`` is a finite float.

    ``floats`` are the floats among ``values``, which ``template`` spells
    ``%s``: that writes a float, and not a subclass of it, with
    float.__repr__, as json.dumps does.  The caller vouches for the rest.
    """
    for x in floats:
        if type(x) is not float:
            return None
    # a sum of floats is finite only if each term is
    if -math.inf < sum(floats) < math.inf:
        return template % values
    return None


def _publish_line(timeout_s: float, meta: Mapping[str, object] | None) -> str:
    """The payload as one JSON object, byte for byte what ``json.dumps`` writes;
    SinkError if it holds a float JSON cannot spell (NaN or infinite)."""
    if meta is not None and tuple(meta) == _META_KEYS:
        iteration, window_end_ts, xi_hat, beta_hat, target_eps, expression = meta.values()
        if type(iteration) is int and type(expression) is str and expression in _EXPRESSIONS:
            line = _filled(
                _PUBLISH_LINE,
                (timeout_s, iteration, window_end_ts, xi_hat, beta_hat, target_eps, expression),
                (timeout_s, window_end_ts, xi_hat, beta_hat, target_eps),
            )
            if line is not None:
                return line
    try:
        return json.dumps(_payload(timeout_s, meta), allow_nan=False)
    except ValueError as exc:
        raise SinkError(f"publish payload is not JSON: {exc}") from exc


class StdoutSink:
    """Write one JSON line per publish to a stream (standard output by default).

    It does not flush: whoever owns the stream decides when to.  A closed
    pipe (``BrokenPipeError``) is not a failed publish to retry; it
    propagates, so the run ends.
    """

    def __init__(self, stream: IO[str] | None = None):
        self._stream = stream

    def publish(self, timeout_s: float, meta: Mapping[str, object] | None = None) -> None:
        line = _publish_line(timeout_s, meta)
        stream = self._stream if self._stream is not None else sys.stdout
        try:
            stream.write(line + "\n")
        except BrokenPipeError:
            raise
        except OSError as exc:
            raise SinkError(f"stdout sink: {exc}") from exc


class FileSink:
    """Append one JSON line per publish, preserving the full history."""

    def __init__(self, path: str):
        self.path = path

    def publish(self, timeout_s: float, meta: Mapping[str, object] | None = None) -> None:
        line = _publish_line(timeout_s, meta)
        try:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
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
        # imported here: urllib.request loads http.client, email and ssl,
        # which the other sinks do not need
        import urllib.request

        body = _publish_line(timeout_s, meta).encode("utf-8")
        request = urllib.request.Request(
            self.url, data=body, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                status = response.status
        except OSError as exc:  # urllib's URLError and HTTPError included
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
