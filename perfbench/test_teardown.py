"""Kill a benchmark run mid-workload and check that nothing it started survives.

Run from the repository root, either way::

    python3 -m pytest -q perfbench/test_teardown.py
    python3 perfbench/test_teardown.py

Each case waits for the run to start its measured clock, sends SIGTERM or
SIGKILL, and then lists this process's descendants from ``/proc``.  The test
process makes itself a child subreaper first, so a shard orphaned by a
SIGKILL is re-parented here instead of escaping to init, where no
descendant walk could see it.  Each case takes about 20 s, mostly set-up.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import MEASURING_MARK, descendants  # noqa: E402

PR_SET_CHILD_SUBREAPER = 36


def _adopt_orphans() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _reap() -> None:
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _kill_mid_workload(signum: int, workload: str) -> None:
    _adopt_orphans()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "60", "--trace", "0"],
        cwd=HERE.parent,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    shard_pids = []
    try:
        for line in proc.stderr:
            if line.startswith("perfbench: shard pid"):
                shard_pids.append(int(line.split()[3]))
            if line.strip() == MEASURING_MARK:
                break
        else:
            raise AssertionError(f"run ended before measuring: {proc.wait()}")
        time.sleep(2.0)
        proc.send_signal(signum)
        # Wait for the run itself: a surviving shard would hold the inherited
        # stderr pipe open, so reading it to the end could block.
        proc.wait(timeout=60)
        stdout = proc.stdout.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()

    # A killed multi-threaded shard shows as a zombie while its other threads
    # still exit, and cannot be reaped until they have; give it time.
    deadline = time.monotonic() + 10.0
    while True:
        _reap()
        alive = descendants(os.getpid())
        lingering = [pid for pid in shard_pids if os.path.exists(f"/proc/{pid}")]
        if not (alive or lingering) or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    for pid in alive:  # do not leak them past a failing test
        os.kill(pid, signal.SIGKILL)
    _reap()
    assert len(shard_pids) >= 1
    assert alive == [], f"survivors after {signal.Signals(signum).name}: {alive}"
    assert lingering == [], f"shards still in /proc: {lingering}"
    if signum == signal.SIGTERM:
        assert proc.returncode == 128 + signum
    else:
        assert proc.returncode == -signum
    last = stdout.strip().splitlines()[-1:] if stdout.strip() else []
    assert not any(line.startswith("{") and "metrics" in json.loads(line) for line in last)


def test_sigterm_mid_workload_leaves_no_process() -> None:
    """SIGTERM: the run's handler tears down its shards and exits 143."""
    _kill_mid_workload(signal.SIGTERM, "closed2-zipf")


def test_sigkill_mid_workload_leaves_no_process() -> None:
    """SIGKILL: the shards see their parent die and exit on their own."""
    _kill_mid_workload(signal.SIGKILL, "batch16-readheavy")


if __name__ == "__main__":
    test_sigterm_mid_workload_leaves_no_process()
    test_sigkill_mid_workload_leaves_no_process()
    print("ok: no process outlived a SIGTERM or a SIGKILL mid-workload")
