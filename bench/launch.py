"""Launching the program under test and timing what it prints.

Each launch is one child process, started by bench/spawner.py so that its
peak RSS is its own.  Its standard output is read line by line on a
thread, with the time each line arrived; its standard error goes to a
file.  Peak RSS and CPU time come from the child's rusage at exit.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The same entry point the installed ``idletune`` console script calls.
IDLETUNE = [sys.executable, "-c", "from idletune.cli import entry_point; entry_point()"]


@dataclass
class Result:
    returncode: int
    spawn: float  # perf_counter just before the child was requested
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    stdout: bytes
    line_times: list[float]  # perf_counter at which each stdout line arrived
    stderr: str

    def lines(self) -> list[bytes]:
        return self.stdout.splitlines()


class Launcher:
    """Runs children with ``PYTHONPATH`` pointing at the checkout's sources.

    Use as a context manager: it owns the spawner process.
    """

    def __init__(self, src: Path, work: Path):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.work = work
        self._n = 0
        self._sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        spawner = Path(__file__).with_name("spawner.py")
        self._spawner = subprocess.Popen(
            [sys.executable, "-I", "-S", str(spawner), str(theirs.fileno())], pass_fds=[theirs.fileno()]
        )
        theirs.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self._sock.close()
        self._spawner.wait()

    def _receive(self) -> dict:
        msg = self._sock.recv(1 << 16)
        if not msg:
            raise RuntimeError("spawner exited")
        return json.loads(msg)

    def run(
        self,
        argv: list[str],
        feed: Callable[[int, float], None] | None = None,
    ) -> Result:
        """Run ``argv`` to completion.

        With ``feed``, the child's stdin is a pipe and ``feed(fd, spawn)``
        writes to it on this thread; it must close ``fd`` when done.
        Otherwise stdin is empty.
        """
        self._n += 1
        err_path = self.work / f"stderr-{self._n}.txt"
        feed_fd = None
        if feed is not None:
            stdin, feed_fd = os.pipe()
        else:
            stdin = os.open(os.devnull, os.O_RDONLY)
        out_r, out_w = os.pipe()
        err = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        request = json.dumps({"argv": argv, "env": self.env}).encode()
        spawn = time.perf_counter()
        try:
            socket.send_fds(self._sock, [request], [stdin, out_w, err])
        finally:
            for fd in (stdin, out_w, err):
                os.close(fd)
        pid = self._receive()["pid"]
        chunks: list[bytes] = []
        times: list[float] = []
        stdout = os.fdopen(out_r, "rb")

        def read() -> None:
            for line in stdout:
                times.append(time.perf_counter())
                chunks.append(line)

        reader = threading.Thread(target=read)
        reader.start()
        exited = None
        try:
            if feed_fd is not None:
                fd, feed_fd = feed_fd, None
                feed(fd, spawn)
            reader.join()
            exited = self._receive()
        finally:
            if feed_fd is not None:
                os.close(feed_fd)
            if exited is None:
                os.kill(pid, signal.SIGKILL)
                exited = self._receive()
            reader.join()
            stdout.close()
        return Result(
            returncode=os.waitstatus_to_exitcode(exited["status"]),
            spawn=spawn,
            wall_s=exited["end"] - spawn,
            cpu_s=exited["cpu_s"],
            peak_rss_mib=exited["maxrss_kib"] / 1024.0,
            stdout=b"".join(chunks),
            line_times=times,
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )
