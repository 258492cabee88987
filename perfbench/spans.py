"""Client-side spans around the deployment's public calls, and the budget.

The benchmark never enables ``repro.obs``: doing so switches
``ShardedLblDeployment.access`` and the server dispatch onto their
instrumented branches, which would measure a different program.  Instead,
:class:`Instrumentation` replaces public callables on the objects the run
owns (and the ``to_bytes`` / ``from_bytes`` methods of the LBL message
classes, in this process only) with timing wrappers, and removes them again
for untraced stretches.

Spans are ``[id, name, start, end, parent_id, access_id, attrs]`` kept in
memory.  ``time.perf_counter`` is CLOCK_MONOTONIC on Linux, shared by every
process, so the shards' spans line up with these on one time axis.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time

from repro.core.messages import (
    LblAccessRequest,
    LblAccessResponse,
    LblBatchRequest,
    LblBatchResponse,
)

now = time.perf_counter

#: A stripe wait longer than two interpreter switch intervals (2 x 5 ms)
#: means the caller queued behind another access holding the key's stripe.
CONTENDED_WAIT_S = 0.010

_ENCODERS = (LblAccessRequest, LblBatchRequest)
_DECODERS = (LblAccessResponse, LblBatchResponse)


class Frame:
    """One submitted frame: submit time, completion, and the caller's wait."""

    __slots__ = ("shard", "parent", "start", "done", "wait", "request_bytes", "reply_bytes")

    def __init__(self, shard: int, parent, start: float, request_bytes: int) -> None:
        self.shard = shard
        self.parent = parent
        self.start = start
        self.done = None
        self.wait = None
        self.request_bytes = request_bytes
        self.reply_bytes = 0

    @property
    def resolved(self) -> float:
        """When the reply reached the caller: the end of its blocking wait,
        or the completion if the frame finished while the caller waited on
        another one."""
        if self.wait is not None and (self.done is None or self.wait[0] <= self.done):
            return self.wait[1]
        return self.done


class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list = []
        self.frames: list[Frame] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        """Start a span as a child of this thread's innermost open span.

        A span with no parent starts an access: its id is the access id
        every span under it carries."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        span = [sid, name, now(), 0.0, parent[0] if parent else None,
                parent[5] if parent else sid, None]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        """End the innermost open span."""
        span[3] = now()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, fn, name: str, attrs=None):
        """``fn`` recorded as a span named ``name``."""

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span[6] = attrs(result)
                return result
            finally:
                self.close(span)

        return traced

    def wrap_submit(self, fn, shard: int):
        """``PipelinedLblClient.submit`` with its future's completion and
        ``result`` wait recorded as a :class:`Frame`."""

        def traced(payload, *args, **kwargs):
            span = self.open("submit")
            try:
                future = fn(payload, *args, **kwargs)
            finally:
                self.close(span)
            frame = Frame(shard, span[4], span[2], len(payload))
            self.frames.append(frame)

            def completed(done_future) -> None:
                frame.done = now()
                if done_future.exception() is None:
                    frame.reply_bytes = len(done_future.result())

            future.add_done_callback(completed)
            wait = future.result

            def result(timeout=None):
                waiting = self.open("wait")
                try:
                    return wait(timeout)
                finally:
                    self.close(waiting)
                    frame.wait = (waiting[2], waiting[3])

            future.result = result
            return future

        return traced


def _prepare_attrs(result) -> list:
    built = result if isinstance(result, list) else [result]
    return [sum(ops.prf for _, ops, _ in built), sum(ops.aead_enc for _, ops, _ in built)]


class Instrumentation:
    """Installs and removes the client-side wrappers on one deployment."""

    def __init__(self, recorder: Recorder, deployment) -> None:
        self.recorder = recorder
        self.deployment = deployment
        self._saved_methods: list = []

    def install(self) -> None:
        """Wrap prepare, finalize, submit and message encode/decode."""
        rec = self.recorder
        dep = self.deployment
        engine = dep.prepare_engine
        engine.prepare_one = rec.wrap(engine.prepare_one, "prepare", _prepare_attrs)
        engine.prepare_batch = rec.wrap(engine.prepare_batch, "prepare", _prepare_attrs)
        dep.proxy.finalize = rec.wrap(dep.proxy.finalize, "finalize", lambda r: [r[1].prf])
        for shard, client in enumerate(dep.clients):
            client.submit = rec.wrap_submit(client.submit, shard)
        for cls in _ENCODERS:
            original = cls.__dict__["to_bytes"]
            self._saved_methods.append((cls, "to_bytes", original))
            cls.to_bytes = rec.wrap(original, "encode")
        for cls in _DECODERS:
            original = cls.__dict__["from_bytes"]
            self._saved_methods.append((cls, "from_bytes", original))
            cls.from_bytes = classmethod(rec.wrap(original.__func__, "decode"))

    def uninstall(self) -> None:
        """Restore every wrapped callable to the program's own."""
        dep = self.deployment
        for obj, name in (
            (dep.prepare_engine, "prepare_one"),
            (dep.prepare_engine, "prepare_batch"),
            (dep.proxy, "finalize"),
            *((client, "submit") for client in dep.clients),
        ):
            obj.__dict__.pop(name, None)
        for cls, name, original in self._saved_methods:
            setattr(cls, name, original)
        self._saved_methods = []


# --------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------- #


def _union_length(intervals: list, lo: float, hi: float) -> float:
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def _paired_mean(later: list[float], earlier: list[float], label: str) -> float:
    """Mean of ``later - earlier`` for two equally sized time sets.

    The mean of the differences does not depend on how the two sets pair
    up, so frames that overtake each other do not bias it.
    """
    if len(later) != len(earlier):
        print(f"perfbench: {label}: {len(later)} vs {len(earlier)} events; "
              "pairing the first of each", file=sys.stderr)
    n = min(len(later), len(earlier))
    if n == 0:
        return 0.0
    return (sum(sorted(later)[:n]) - sum(sorted(earlier)[:n])) / n


def layer_metrics(recorder: Recorder, shard_spans: list[list], ops_in: dict) -> dict:
    """Per-layer figures from one traced run.

    Args:
        recorder: Client spans and frames, recorded only in traced blocks.
        shard_spans: Per shard, the spans it recorded in the same blocks.
        ops_in: ``{root span id: accesses served by that call}``.
    """
    spans = recorder.spans
    frames = recorder.frames
    n_ops = sum(ops_in.values()) or 1
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
        children.setdefault(span[4], []).append(span)
    ids = {span[0]: span for span in spans}

    def total(name: str, top_level_only: bool = False) -> float:
        return sum(
            s[3] - s[2]
            for s in by_name.get(name, [])
            if not (top_level_only and s[4] in ids and ids[s[4]][1] == name)
        )

    def attr_sum(name: str, index: int) -> int:
        return sum(s[6][index] for s in by_name.get(name, []) if s[6])

    frames_by_parent: dict[int, list[Frame]] = {}
    for frame in frames:
        frames_by_parent.setdefault(frame.parent, []).append(frame)

    # Self time of each call and of the inner access under a stripe lock:
    # its duration minus the union of its children, where a frame counts as
    # one child from submit to the moment its reply reached the caller.
    unattributed = 0.0
    latency = 0.0
    roots = [s for s in by_name.get("call", []) if s[0] in ops_in]
    for root in roots:
        latency += root[3] - root[2]
        for container in [root] + [c for c in children.get(root[0], []) if c[1] == "access"]:
            intervals = [
                (c[2], c[3]) for c in children.get(container[0], []) if c[1] not in ("submit", "wait")
            ]
            intervals += [(f.start, f.resolved) for f in frames_by_parent.get(container[0], [])]
            if container is root:
                # The stripe-lock wait before the inner access is the
                # concurrency layer's, not glue.
                intervals += [
                    (root[2], c[2]) for c in children.get(root[0], []) if c[1] == "access"
                ]
            unattributed += container[3] - container[2] - _union_length(
                intervals, container[2], container[3]
            )

    # Wait between a call's entry and the start of its prepare: the stripe
    # lock under ConcurrentLblProxy, only call overhead where there is none.
    first_prepare: dict[int, float] = {}
    for span in by_name.get("prepare", []):
        first_prepare[span[5]] = min(span[2], first_prepare.get(span[5], span[2]))
    lock_waits = [first_prepare[root[5]] - root[2] for root in roots if root[5] in first_prepare]

    server = {"submit_mux": [], "dispatch": [], "process": [], "kv_get": [], "kv_put": []}
    wire_out = queue = wire_back = 0.0
    n_frames = len(frames)
    for shard, shard_list in enumerate(shard_spans):
        named = {name: [s for s in shard_list if s[0] == name] for name in server}
        for name, items in named.items():
            server[name].extend(items)
        client = [f for f in frames if f.shard == shard]
        count = len(client)
        wire_out += count * _paired_mean(
            [s[1] for s in named["submit_mux"]], [f.start for f in client], f"shard {shard} wire out"
        )
        queue += count * _paired_mean(
            [s[1] for s in named["dispatch"]], [s[1] for s in named["submit_mux"]],
            f"shard {shard} queue",
        )
        wire_back += count * _paired_mean(
            [f.resolved for f in client], [s[2] for s in named["dispatch"]],
            f"shard {shard} wire back",
        )

    def server_total(name: str) -> float:
        return sum(s[2] - s[1] for s in server[name])

    opens = sum(s[3][0] + s[3][1] for s in server["process"])
    opened = sum(s[3][0] for s in server["process"])
    n_process = len(server["process"]) or 1

    frames_by_access: dict[int, list[Frame]] = {}
    for frame in frames:
        if frame.parent in ids:
            frames_by_access.setdefault(ids[frame.parent][5], []).append(frame)
    per_call_rt = []
    for root in roots:
        # A single access sends one frame, so its max and mean coincide.
        rts = [f.done - f.start for f in frames_by_access.get(root[5], [])]
        if rts:
            per_call_rt.append((max(rts), sum(rts) / len(rts)))

    ms = 1e3
    return {
        "proxy.prepare.ms_per_op": total("prepare") * ms / n_ops,
        "proxy.prepare.prf_per_op": attr_sum("prepare", 0) / n_ops,
        "proxy.prepare.aead_enc_per_op": attr_sum("prepare", 1) / n_ops,
        "proxy.finalize.ms_per_op": total("finalize") * ms / n_ops,
        "proxy.finalize.prf_per_op": attr_sum("finalize", 0) / n_ops,
        "messages.encode.ms_per_op": total("encode", True) * ms / n_ops,
        "messages.decode.ms_per_op": total("decode", True) * ms / n_ops,
        "messages.request_bytes_per_op": sum(f.request_bytes for f in frames) / n_ops,
        "messages.reply_bytes_per_op": sum(f.reply_bytes for f in frames) / n_ops,
        "transport.client.roundtrip_ms": (
            sum(f.resolved - f.start for f in frames) * ms / max(n_frames, 1)
        ),
        "transport.client.wire_out_ms": wire_out * ms / max(n_frames, 1),
        "transport.client.wire_back_ms": wire_back * ms / max(n_frames, 1),
        "transport.server.queue_wait_ms": queue * ms / max(n_frames, 1),
        "transport.server.dispatch_ms_per_op": (
            (server_total("dispatch") - server_total("process")) * ms / n_ops
        ),
        "lbl.server.process.ms_per_op": (
            server_total("process") - server_total("kv_get") - server_total("kv_put")
        ) * ms / n_ops,
        "lbl.server.opens_per_op": opens / n_process,
        "lbl.server.open_success_ratio": opened / opens if opens else 0.0,
        "storage.kv.get_ms_per_op": server_total("kv_get") * ms / n_ops,
        "storage.kv.put_ms_per_op": server_total("kv_put") * ms / n_ops,
        "concurrent.lock_wait_ms": (
            sum(lock_waits) * ms / len(lock_waits) if lock_waits else 0.0
        ),
        "concurrent.contended_frac": (
            sum(w > CONTENDED_WAIT_S for w in lock_waits) / len(lock_waits) if lock_waits else 0.0
        ),
        "sharded.batch.shard_roundtrip_max_ms": (
            sum(m for m, _ in per_call_rt) * ms / len(per_call_rt) if per_call_rt else 0.0
        ),
        "sharded.batch.shard_roundtrip_mean_ms": (
            sum(a for _, a in per_call_rt) * ms / len(per_call_rt) if per_call_rt else 0.0
        ),
        "budget.unattributed_frac": unattributed / latency if latency else 0.0,
    }


#: The serial access budget, in blocking order, as per-layer metric names.
BUDGET = (
    "proxy.prepare.ms_per_op",
    "messages.encode.ms_per_op",
    "transport.client.wire_out_ms",
    "transport.server.queue_wait_ms",
    "transport.server.dispatch_ms_per_op",
    "lbl.server.process.ms_per_op",
    "storage.kv.get_ms_per_op",
    "storage.kv.put_ms_per_op",
    "transport.client.wire_back_ms",
    "messages.decode.ms_per_op",
    "proxy.finalize.ms_per_op",
)
