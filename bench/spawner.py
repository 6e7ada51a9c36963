"""Starts the program's processes on behalf of the benchmark.

Linux carries a process's peak RSS across ``exec`` from the process that
forked it, so a child forked by the benchmark would report at least the
benchmark's own footprint (numpy, the staged logs).  This helper stays
small, forks the children instead, and reports each one's own rusage.

Protocol, over the SOCK_SEQPACKET socket on fd ``argv[1]``: the benchmark
sends ``{"argv": [...], "env": {...}}`` with the child's stdin, stdout and
stderr as three attached descriptors; the helper answers
``{"pid": ...}`` once the child is started and
``{"status": ..., "end": ..., "cpu_s": ..., "maxrss_kib": ...}`` when it
has exited.  ``end`` is ``time.perf_counter()``, comparable across
processes on Linux.  The helper exits when the socket closes.
"""

import json
import os
import socket
import sys
import time


def serve(sock: socket.socket) -> None:
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 1 << 20, 3)
        if not msg:
            return
        request = json.loads(msg)
        pid = os.fork()
        if pid == 0:
            try:
                for target, fd in enumerate(fds):
                    os.dup2(fd, target)
                os.closerange(3, os.sysconf("SC_OPEN_MAX"))
                os.execve(request["argv"][0], request["argv"], request["env"])
            finally:
                os._exit(127)
        for fd in fds:
            os.close(fd)
        sock.send(json.dumps({"pid": pid}).encode())
        _, status, usage = os.wait4(pid, 0)
        end = time.perf_counter()
        sock.send(json.dumps({
            "status": status,
            "end": end,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kib": usage.ru_maxrss,
        }).encode())


if __name__ == "__main__":
    serve(socket.socket(fileno=int(sys.argv[1])))
