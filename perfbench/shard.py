"""Benchmark-owned shard process: one ``LblTcpServer`` on loopback.

Run as ``python3 perfbench/shard.py --parent PID --trace 0|1``.  It builds
the server with exactly the arguments ``ShardCluster(in_process=False)``
uses, prints ``{"address": [host, port], "pid": PID}`` on one stdout line,
then serves while it reads commands from stdin, its control pipe:

* ``trace 1`` / ``trace 0`` -- start or stop recording spans; answers ``ok``;
* ``stop`` -- answers one JSON line with the peak RSS and, when started with
  ``--trace 1``, every span recorded, then exits.

The shard also exits as soon as stdin reaches end of file, which happens
when its parent dies for any reason, and asks the kernel to SIGKILL it when
the parent thread that started it dies.  Spans wrap the public calls
``LblTcpServer.submit_mux`` / ``safe_dispatch``, ``LblServer.process`` and
``KeyValueStore.get`` / ``put`` from outside; ``repro.obs`` stays off, so
the server runs its uninstrumented branches.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PR_SET_PDEATHSIG = 1


def _die_with_parent(parent: int) -> None:
    """SIGKILL this process when its parent goes; exit if it already has."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: end of file on stdin still stops the shard
    if os.getppid() != parent:
        os._exit(1)


class ServerSpans:
    """Records ``[name, start, end, attrs]`` around the server's calls."""

    def __init__(self) -> None:
        self.spans: list = []
        self.active = False

    def wrap(self, fn, name, attrs=None):
        """Return ``fn`` timed under ``name`` while recording is active."""

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.spans.append(
                [name, start, time.perf_counter(), attrs(result) if attrs else None]
            )
            return result

        return traced


def _instrument(server, spans: ServerSpans) -> None:
    lbl = server.lbl
    server.submit_mux = spans.wrap(server.submit_mux, "submit_mux")
    server.safe_dispatch = spans.wrap(server.safe_dispatch, "dispatch")
    lbl.process = spans.wrap(
        lbl.process, "process", lambda result: [result[1].aead_dec, result[1].failed_dec]
    )
    lbl.store.get = spans.wrap(lbl.store.get, "kv_get")
    lbl.store.put = spans.wrap(lbl.store.put, "kv_put")


def main() -> int:
    """Serve one shard until ``stop`` or end of file on stdin."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _die_with_parent(args.parent)
    # The parent owns teardown; a terminal's Ctrl-C reaches the whole group.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    sys.path.insert(0, str(SRC))
    from repro.core.lbl.server_coalesce import DEFAULT_WINDOW_SECONDS
    from repro.transport.server import LblTcpServer

    server = LblTcpServer(
        point_and_permute=True,
        response_delay_s=0.0,
        max_workers=8,
        metrics_port=None,
        server_batch=1,
        server_window=DEFAULT_WINDOW_SECONDS,
    )
    spans = ServerSpans()
    if args.trace:
        _instrument(server, spans)
    server.serve_in_background()
    out = sys.stdout
    out.write(json.dumps({"address": list(server.address), "pid": os.getpid()}) + "\n")
    out.flush()
    for line in sys.stdin:
        command = line.split()
        if command == ["trace", "1"] and args.trace:
            spans.active = True
        elif command == ["trace", "0"]:
            spans.active = False
        elif command == ["stop"]:
            report = {
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "spans": spans.spans,
            }
            out.write(json.dumps(report) + "\n")
            out.flush()
            break
        else:
            out.write(json.dumps({"error": f"unknown command {line.strip()!r}"}) + "\n")
            out.flush()
            continue
        out.write("ok\n")
        out.flush()
    server.close()
    return 0


if __name__ == "__main__":
    # Worker and handler threads may still block on sockets; leave at once.
    code = main()
    sys.stdout.flush()
    os._exit(code)
