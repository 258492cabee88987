#!/usr/bin/env python3
"""Paper-point end-to-end benchmark of LBL-ORTOA over process-backed TCP shards.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serial-uniform --seed 1 --seconds 20 --trace 0

One load-generating process drives ``ShardedLblDeployment`` at its default
settings over shards that are separate processes (``perfbench/shard.py``)
serving ``LblTcpServer`` on loopback.  ``--trace 0`` measures the end-to-end
metrics with no instrumentation; ``--trace 1`` alternates untraced and
traced stretches and reports the per-layer budget.  The last line of
standard output is one JSON object; a human-readable summary goes to
standard error.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

from workloads import GROUP_BITS, VALUE_LEN, WORKLOADS, Op, generate  # noqa: E402

now = time.perf_counter
CLK_TCK = os.sysconf("SC_CLK_TCK")
#: Alternating untraced/traced stretches in a ``--trace 1`` run.
TRACE_BLOCKS = 6
#: Printed to standard error when the measured clock starts.
MEASURING_MARK = "perfbench: measuring"
#: Where a ``--trace 1`` run writes its spans.
TRACE_DIR = HERE / "traces"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "get_p50_ms": "ms",
    "put_p50_ms": "ms",
    "wire_bytes_per_op": "B",
    "client_peak_rss_mb": "MB",
    "shard_peak_rss_mb": "MB",
}


def _layer_unit(name: str) -> str:
    if name.endswith(("_ms", "ms_per_op")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_per_op"):
        return "B"
    if name.endswith("cpu_util"):
        return "cores"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


class Interrupted(BaseException):
    """SIGTERM or SIGINT arrived; the run is torn down without a result.

    A ``BaseException``, so the loops' per-access ``except Exception`` does
    not count it as a failed access."""


class CheckFailed(Exception):
    """An access returned a wrong value or a transcript of another shape."""

    def __init__(self, count: int, reason: str) -> None:
        super().__init__(reason)
        self.count = count


def _on_signal(signum, _frame) -> None:
    raise Interrupted(signum)


# --------------------------------------------------------------------- #
# Processes
# --------------------------------------------------------------------- #


def _stat_fields(pid: int | str) -> list[str]:
    """``/proc/<pid>/stat`` from the state field on (the name may hold spaces)."""
    with open(f"/proc/{pid}/stat") as handle:
        return handle.read().rsplit(")", 1)[1].split()


def descendants(root: int) -> list[int]:
    """Live (non-zombie) descendants of ``root``, from ``/proc``."""
    parent_of = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(entry)
        except OSError:
            continue  # exited while we listed
        if fields[0] != "Z":
            parent_of[int(entry)] = int(fields[1])
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parent_of.items() if ppid == parent]
        found += children
        frontier += children
    return found


def describe(pid: int) -> str:
    """``pid`` with its command line, for naming a survivor."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            command = handle.read().replace(b"\0", b" ").decode().strip()
        return f"{pid} ({command})"
    except OSError:
        return str(pid)


class Shard:
    """One ``perfbench/shard.py`` process and its stdin/stdout control pipe."""

    def __init__(self, trace: bool) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "shard.py"), "--parent", str(os.getpid()),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.pid = self.proc.pid
        self.address = None

    def wait_ready(self) -> None:
        """Block until the shard reports the address it serves on."""
        hello = self.proc.stdout.readline()
        if not hello:
            raise RuntimeError("shard process exited before reporting its address")
        self.address = tuple(json.loads(hello)["address"])
        print(f"perfbench: shard pid {self.pid} at {self.address[0]}:{self.address[1]}",
              file=sys.stderr, flush=True)

    def command(self, text: str) -> str:
        """Send one control line; return the shard's one-line answer."""
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"shard {self.pid} closed its control pipe")
        return answer

    def cpu_seconds(self) -> float:
        """User plus system CPU the shard has used so far."""
        fields = _stat_fields(self.pid)
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def stop(self) -> dict:
        """Collect the shard's report (peak RSS, spans) and let it exit."""
        report = json.loads(self.command("stop"))
        self.close()
        return report

    def close(self) -> None:
        """End the shard: close its control pipe, then kill it if it lingers."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass  # the shard already went away
        try:
            self.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# --------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------- #


class Checker:
    """Compares every access with the last acknowledged write, and every
    transcript's shape with the first one seen (op-type obliviousness)."""

    def __init__(self, records: dict[str, bytes], shard_of) -> None:
        self.expected = dict(records)
        self.shard_of = shard_of
        self.reference_ops = None
        self.reference_bytes = None
        self.seen = set()

    def _check_one(self, op: Op, transcript) -> str | None:
        want = op.value if op.is_write else self.expected[op.key]
        if transcript.response.value != want:
            return f"{'PUT' if op.is_write else 'GET'} {op.key} returned a wrong value"
        if op.is_write:
            self.expected[op.key] = op.value
        ops = tuple(phase.ops for phase in transcript.phases)
        if self.reference_ops is None:
            self.reference_ops = ops
        self.seen.add(op.is_write)
        if ops != self.reference_ops:
            return f"per-phase OpCounts of a {'PUT' if op.is_write else 'GET'} differ"
        return None

    def single(self, op: Op, transcript) -> None:
        """Check one access (run under the key's stripe lock if shared)."""
        problem = self._check_one(op, transcript)
        if problem is None:
            trip = transcript.round_trips
            if self.reference_bytes is None:
                self.reference_bytes = trip
            elif trip != self.reference_bytes:
                problem = "request/reply bytes differ between accesses"
        if problem is not None:
            raise CheckFailed(1, problem)

    def batch(self, ops: list[Op], transcripts) -> None:
        """Check a batch in request order; shares of one shard frame must match."""
        problems = [self._check_one(op, t) for op, t in zip(ops, transcripts)]
        by_shard: dict[int, set] = {}
        for op, t in zip(ops, transcripts):
            by_shard.setdefault(self.shard_of(op.key), set()).add(t.round_trips)
        if any(len(trips) != 1 for trips in by_shard.values()):
            problems.append("request/reply shares differ within one shard frame")
        if any(problems):
            failed = min(len(ops), sum(p is not None for p in problems))
            raise CheckFailed(failed, next(p for p in problems if p))

    def both_types_seen(self) -> bool:
        """True once GETs and PUTs were both compared against the reference."""
        return self.seen == {False, True}


# --------------------------------------------------------------------- #
# The closed loops
# --------------------------------------------------------------------- #


class Caller:
    """One closed-loop application thread: issues its next call only after
    the previous one returns."""

    def __init__(self, calls) -> None:
        self.calls = iter(calls)
        self.records: list[tuple] = []  # (start, end, gets, puts, wire_bytes)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


class Bench:
    """Set-up, blocks of closed-loop calls, and the metrics of one run."""

    def __init__(self, args) -> None:
        import spans

        self.spans = spans
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.inputs = generate(self.workload, args.seed, args.seconds)
        self.shards: list[Shard] = []
        self.deployment = None
        self.recorder = spans.Recorder()
        self.tracing = False
        self.stopping = False
        self.ops_in: dict[int, int] = {}

    def setup(self) -> None:
        """Boot the shards and bulk-load the records (``setup_s``)."""
        from repro.core.lbl.concurrent import ConcurrentLblProxy
        from repro.core.sharded import ShardedLblDeployment
        from repro.crypto.keys import KeyChain
        from repro.errors import BatchPartialFailure
        from repro.types import Request, StoreConfig

        self.Request = Request
        self.BatchPartialFailure = BatchPartialFailure
        args = self.args
        config = StoreConfig(value_len=VALUE_LEN, group_bits=GROUP_BITS, point_and_permute=True)
        start = now()
        for _ in range(self.workload.shards):
            self.shards.append(Shard(bool(args.trace)))
        for shard in self.shards:
            shard.wait_ready()
        self.boot_s = now() - start
        self.deployment = ShardedLblDeployment(
            config,
            [shard.address for shard in self.shards],
            keychain=KeyChain(self.inputs.master_key, label_bits=config.label_bits),
            rng=random.Random(args.seed),
        )
        proxy = self.deployment.proxy
        encode = proxy.initial_records
        timed = {}

        def initial_records(records):
            began = now()
            try:
                return encode(records)
            finally:
                timed["encode"] = now() - began

        proxy.initial_records = initial_records
        began = now()
        self.deployment.initialize(self.inputs.records)
        self.init_s = now() - began
        del proxy.initial_records
        self.encode_s = timed["encode"]
        self.setup_s = self.boot_s + self.init_s
        print(f"perfbench: setup {self.setup_s:.2f} s (boot {self.boot_s:.2f}, "
              f"encode {self.encode_s:.2f}, load {self.init_s - self.encode_s:.2f})",
              file=sys.stderr, flush=True)

        self.checker = Checker(self.inputs.records, self.deployment.shard_of)
        self.front = None
        if self.workload.callers > 1:
            self.front = ConcurrentLblProxy(self.deployment)
            self._install_checked_access()
        self.instrumentation = self.spans.Instrumentation(self.recorder, self.deployment)
        self.callers = [Caller(calls) for calls in self.inputs.calls]

    def _install_checked_access(self) -> None:
        """Check each access under its key's stripe lock, where the order of
        same-key accesses is fixed; time the inner access when tracing."""
        deployment = self.deployment
        inner = deployment.access
        recorder = self.recorder

        def access(request):
            span = recorder.open("access") if self.tracing else None
            try:
                transcript = inner(request)
            finally:
                if span is not None:
                    recorder.close(span)
            self.checker.single(Op(request.key, request.value), transcript)
            return transcript

        deployment.access = access

    def close(self) -> list[dict]:
        """Close the deployment and stop every shard; returns their reports."""
        if self.deployment is not None:
            self.deployment.close()
            self.deployment = None
        return [shard.stop() for shard in self.shards]

    # ------------------------------------------------------------------ #

    def _call(self, call: list[Op]) -> int:
        """One blocking call into the deployment; returns its wire bytes."""
        Request = self.Request
        requests = [
            Request.write(op.key, op.value) if op.is_write else Request.read(op.key)
            for op in call
        ]
        if self.workload.batch > 1:
            try:
                transcripts = self.deployment.access_batch(requests)
            except self.BatchPartialFailure as exc:
                raise CheckFailed(len(exc.failures), f"batch partial failure: {exc}") from None
            self.checker.batch(call, transcripts)
        elif self.front is not None:
            transcripts = [self.front.access(requests[0])]
        else:
            transcripts = [self.deployment.access(requests[0])]
            self.checker.single(call[0], transcripts[0])
        return sum(t.round_trips[0].request_bytes + t.round_trips[0].response_bytes
                   for t in transcripts)

    def _loop(self, caller: Caller, deadline: float | None, max_calls: int | None) -> None:
        issued = 0
        while (
            not self.stopping
            and (deadline is None or now() < deadline)
            and (max_calls is None or issued < max_calls)
        ):
            call = next(caller.calls, None)
            if call is None:
                print("perfbench: a caller ran out of generated inputs", file=sys.stderr)
                return
            issued += 1
            caller.attempted += len(call)
            root = self.recorder.open("call") if self.tracing else None
            start = now()
            try:
                wire = self._call(call)
            except CheckFailed as exc:
                caller.failed += exc.count
                caller.problems.append(str(exc))
                continue
            except Exception as exc:  # noqa: BLE001 - any failed access is counted
                caller.failed += len(call)
                caller.problems.append(f"{type(exc).__name__}: {exc}")
                continue
            finally:
                if root is not None:
                    self.recorder.close(root)
            end = now()
            if root is not None:
                self.ops_in[root[0]] = len(call)
            caller.records.append(
                (start, end, sum(not op.is_write for op in call),
                 sum(op.is_write for op in call), wire)
            )

    def block(self, deadline: float | None = None, max_calls: int | None = None) -> None:
        """Run every caller until ``deadline`` or ``max_calls`` calls each."""
        if len(self.callers) == 1:
            self._loop(self.callers[0], deadline, max_calls)
            return
        threads = [
            threading.Thread(target=self._loop, args=(caller, deadline, max_calls), daemon=True)
            for caller in self.callers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            while thread.is_alive():
                thread.join(0.2)  # short joins keep SIGTERM deliverable

    def set_tracing(self, on: bool) -> None:
        """Install or remove the client wrappers and toggle shard spans."""
        if on:
            self.instrumentation.install()
        else:
            self.instrumentation.uninstall()
        for shard in self.shards:
            shard.command(f"trace {int(on)}")
        self.tracing = on

    def measure(self) -> list[dict]:
        """Warm up, then run the measured blocks; returns per-block data."""
        self.block(max_calls=self.workload.warmup_calls)
        blocks = 1 if not self.args.trace else TRACE_BLOCKS
        span = self.args.seconds / blocks
        out = []
        print(MEASURING_MARK, file=sys.stderr, flush=True)
        for index in range(blocks):
            traced = bool(self.args.trace) and index % 2 == 1
            if traced:
                self.set_tracing(True)
            first = [len(c.records) for c in self.callers]
            cpu = time.process_time()
            shard_cpu = sum(s.cpu_seconds() for s in self.shards)
            start = now()
            self.block(deadline=start + span)
            records = [r for c, f in zip(self.callers, first) for r in c.records[f:]]
            end = max((r[1] for r in records), default=now())
            out.append({
                "traced": traced,
                "records": records,
                "wall": end - start,
                "cpu": time.process_time() - cpu,
                "shard_cpu": sum(s.cpu_seconds() for s in self.shards) - shard_cpu,
            })
            if traced:
                self.set_tracing(False)
        return out


# Both return 0.0 when every access of the kind failed; such a run already
# reports ``"correct": false``.
def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(bench: Bench, blocks: list[dict], reports: list[dict]) -> dict:
    """The user-visible metrics of an untraced run."""
    records = [r for b in blocks for r in b["records"]]
    ops = sum(r[2] + r[3] for r in records)
    wall = sum(b["wall"] for b in blocks)
    latency = [(r[1] - r[0]) * 1e3 for r in records]
    beyond = len(latency) - math.ceil(bench.workload.tail_pct / 100 * len(latency))
    print(f"perfbench: {len(records)} calls, {ops} accesses in {wall:.2f} s; "
          f"tail = p{bench.workload.tail_pct:g}, {beyond} calls beyond it", file=sys.stderr)
    return {
        "setup_s": bench.setup_s,
        "ops_per_s": ops / wall,
        "latency_p50_ms": _median(latency),
        "latency_tail_ms": _percentile(latency, bench.workload.tail_pct),
        # A batch answers every access it carries at once: a GET (PUT)
        # waits for the whole call that carried it.
        "get_p50_ms": _median([x for x, r in zip(latency, records) if r[2]]),
        "put_p50_ms": _median([x for x, r in zip(latency, records) if r[3]]),
        "wire_bytes_per_op": sum(r[4] for r in records) / max(ops, 1),
        "client_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "shard_peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
    }


def per_layer(bench: Bench, blocks: list[dict], reports: list[dict]) -> dict:
    """The traced run's layer budget, process figures and trace overhead."""
    spans = bench.spans
    metrics = spans.layer_metrics(
        bench.recorder, [r["spans"] for r in reports], bench.ops_in
    )
    traced = [b for b in blocks if b["traced"]]
    plain = [b for b in blocks if not b["traced"]]
    ops = max(1, sum(r[2] + r[3] for b in traced for r in b["records"]))
    wall = sum(b["wall"] for b in traced)

    def p50(group):
        return _median([(r[1] - r[0]) * 1e3 for b in group for r in b["records"]])

    metrics.update({
        "setup.boot_s": bench.boot_s,
        "setup.encode_s": bench.encode_s,
        "setup.load_s": bench.init_s - bench.encode_s,
        "client.cpu_util": sum(b["cpu"] for b in traced) / wall,
        "client.cpu_ms_per_op": sum(b["cpu"] for b in traced) * 1e3 / ops,
        "shard.cpu_util": sum(b["shard_cpu"] for b in traced) / wall,
        "shard.cpu_ms_per_op": sum(b["shard_cpu"] for b in traced) * 1e3 / ops,
        "trace.overhead_frac": p50(traced) / p50(plain) - 1.0 if p50(plain) else 0.0,
    })
    if bench.workload.callers == 1 and bench.workload.batch == 1 and wall > 0:
        # Nothing overlaps on the serial workload, so the layers must add up
        # to the latency the loop measured around each call.
        latency = sum((r[1] - r[0]) * 1e3 for b in traced for r in b["records"]) / ops
        layers = sum(metrics[name] for name in spans.BUDGET)
        print(f"perfbench: layer budget of one access ({latency:.3f} ms mean):",
              file=sys.stderr)
        for name in spans.BUDGET:
            print(f"  {name:40s} {metrics[name]:9.3f} ms {metrics[name] / latency:7.1%}",
                  file=sys.stderr)
        verdict = "adds up" if abs(1 - layers / latency) <= 0.05 else "DOES NOT ADD UP"
        print(f"perfbench: layers sum to {layers:.3f} ms, {1 - layers / latency:.2%} "
              f"unattributed: the budget {verdict} within 5%", file=sys.stderr)
    return metrics


def _write_trace(bench: Bench, reports: list[dict]) -> None:
    """Write the run's spans out once it has ended."""
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{bench.workload.name}-seed{bench.args.seed}.json"
    frames = [[f.shard, f.parent, f.start, f.done, f.wait, f.request_bytes, f.reply_bytes]
              for f in bench.recorder.frames]
    with open(path, "w") as handle:
        json.dump({
            "client_span_fields": ["id", "name", "start", "end", "parent", "access", "attrs"],
            "client_spans": bench.recorder.spans,
            "frame_fields": ["shard", "parent", "submit", "done", "wait", "request_bytes",
                             "reply_bytes"],
            "frames": frames,
            "shard_span_fields": ["name", "start", "end", "attrs"],
            "shard_spans": [r["spans"] for r in reports],
        }, handle)
    print(f"perfbench: spans written to {path}", file=sys.stderr)


def run(args, bench_holder: list) -> tuple[dict, int, int]:
    """Set up, measure and check one run; returns (metrics, attempted, failed)."""
    bench = Bench(args)
    bench_holder.append(bench)
    bench.setup()
    blocks = bench.measure()
    reports = bench.close()
    attempted = sum(c.attempted for c in bench.callers)
    failed = sum(c.failed for c in bench.callers)
    for problem in sorted({p for c in bench.callers for p in c.problems})[:10]:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    if not bench.checker.both_types_seen():
        print("perfbench: FAILED: GETs and PUTs were not both checked", file=sys.stderr)
        failed = max(failed, 1)
    if args.trace:
        values = per_layer(bench, blocks, reports)
        _write_trace(bench, reports)
        units = {name: _layer_unit(name) for name in values}
    else:
        values = end_to_end(bench, blocks, reports)
        units = END_TO_END_UNITS
    print(f"perfbench: failed_op_frac {failed / attempted:.6f} ratio "
          f"({failed} of {attempted} accesses)", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:40s} {value:14.4f} {units[name]}", file=sys.stderr)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run one workload, tear everything down, report."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _on_signal)

    holder: list[Bench] = []
    result = None
    code = 1
    try:
        metrics, attempted, failed = run(args, holder)
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        code = 0 if failed == 0 else 1
    except Interrupted as exc:
        print(f"perfbench: interrupted by signal {exc.args[0]}; tearing down", file=sys.stderr)
        code = 128 + exc.args[0]
    finally:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, signal.SIG_IGN)
        if holder:
            bench = holder[0]
            bench.stopping = True
            if bench.deployment is not None:
                bench.deployment.close()
            for shard in bench.shards:
                shard.close()
    survivors = descendants(os.getpid())
    if survivors:
        print("perfbench: processes outlived the run: "
              + ", ".join(describe(pid) for pid in survivors), file=sys.stderr)
        return 3
    if result is not None:
        print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
