"""Cross-request prepare coalescing for LBL-ORTOA.

The proxy's ``prepare`` is the protocol's throughput ceiling: every access
derives two epochs of labels and encrypts ``2^y`` candidates per group, and
each concurrent client pays that cost alone — one kernel dispatch per
request.  :class:`PrepareCoalescer` is the amortize-per-batch stage that
fixes this (ROADMAP item 2): concurrent ``prepare`` calls enqueue into a
bounded **window** (flushed on size or a few-hundred-µs timer) and the
window is prepared as one fused unit —

* label derivation for every access fuses into a single
  :meth:`~repro.crypto.labels.LabelCodec.labels_for_epochs` dispatch (or one
  :meth:`~repro.core.lbl.procpool.ProcessCryptoPool.derive_batch` worker
  round trip);
* table encryption for the whole window runs as one
  :meth:`~repro.core.lbl.proxy.LblProxy.prepare_window` ``encrypt_many``
  call.

**Leader/follower protocol.**  The first caller to find no window open
becomes the window's *leader*: it opens the window, waits for it to fill or
for the timer to lapse, swaps the batch out, and runs the flush on its own
thread.  Every later caller is a *follower*: it appends its entry and blocks
on the entry's done-event.  The leader publishes each entry's result (or the
flush's exception — a failed flush never strands a follower) before
returning its own.  Flushes serialize on one lock, which is also what makes
the shared proxy state (counters, base-protocol shuffle RNG) safe
without per-key stripes.

**Equivalence.**  A flushed window produces, per request, exactly what a
sequential ``prepare`` loop over the same requests in the same order would:
same label bytes (fusion is the empty-prefix PRF-context identity — the
hashed messages are equal), same table placement, same op counts, same
counter chains (same-key accesses after the first in a window prepare
sequentially, after the previous access advanced the epoch).
GET and PUT contribute identical shapes to a fused batch — derivation
pairs, payload lengths, and ciphertext counts per entry are op-independent
— so coalescing leaks nothing about the mix (audited in
``tests/test_coalesce.py``).

**Clock injection.**  The flush timer reads an injectable
:class:`~repro.obs.clock.Clock`, so timer-window tests drive a
:class:`~repro.obs.clock.FakeClock` instead of sleeping real wall time.
"""

from __future__ import annotations

import threading

from repro.core.base import OpCounts
from repro.core.lbl.proxy import LblProxy
from repro.core.messages import LblAccessRequest
from repro.errors import ConfigurationError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger
from repro.obs.clock import Clock, WallClock
from repro.obs.metrics import REGISTRY
from repro.obs.recorder import RECORDER
from repro.types import Request

#: Default flush window in seconds (~200µs): long enough for a burst of
#: concurrent clients to land in one window, short enough to be invisible
#: next to a prepare (which runs for milliseconds at paper parameters).
DEFAULT_WINDOW_SECONDS = 0.0002

#: Default size flush threshold.
DEFAULT_MAX_BATCH = 8

#: Real-time cap on each follower-wait inside the leader's timer loop.  The
#: window clock is injectable (and may be fake), so the leader never blocks
#: on it for long stretches of *wall* time — it re-reads the clock at least
#: this often.
_LEADER_POLL_SECONDS = 0.001


class _Entry:
    """One enqueued ``prepare`` call, owned by the window that flushes it."""

    __slots__ = ("request", "row", "done", "result", "error")

    def __init__(self, request: Request, row: "_ledger.LedgerRow | None") -> None:
        self.request = request
        self.row = row
        self.done = threading.Event()
        self.result: "tuple[LblAccessRequest, OpCounts, int] | None" = None
        self.error: BaseException | None = None


class PrepareCoalescer:
    """Fuse concurrent ``prepare`` calls into windowed dispatches.

    Args:
        proxy: The trusted proxy whose prepares are coalesced.  Must run the
            batched kernel path.
        window: Flush timer in seconds — the longest a lone request waits
            for company.  ``0`` flushes every window immediately (coalescing
            only what arrived while the previous flush ran).
        max_batch: Size flush threshold; a window with this many entries
            flushes without waiting for the timer.
        procpool: Optional :class:`~repro.core.lbl.procpool.ProcessCryptoPool`
            — derivations then fuse into worker batch round trips
            instead of in-process derivations.
        clock: Time source for the flush timer (default
            :class:`~repro.obs.clock.WallClock`); tests inject a
            :class:`~repro.obs.clock.FakeClock`.
    """

    def __init__(
        self,
        proxy: LblProxy,
        *,
        window: float = DEFAULT_WINDOW_SECONDS,
        max_batch: int = DEFAULT_MAX_BATCH,
        procpool=None,
        clock: Clock | None = None,
    ) -> None:
        if window < 0:
            raise ConfigurationError("coalesce window must be >= 0 seconds")
        if max_batch < 1:
            raise ConfigurationError("coalesce max_batch must be >= 1")
        if not proxy.batched:
            raise ConfigurationError(
                "prepare coalescing requires the batched proxy path"
            )
        self.proxy = proxy
        self.window = window
        self.max_batch = max_batch
        self.procpool = procpool
        self.clock: Clock = clock if clock is not None else WallClock()
        self._lock = threading.Lock()
        self._flush_lock = threading.Lock()
        self._pending: "list[_Entry]" = []
        self._window_open = False
        self._full = threading.Event()

    # ------------------------------------------------------------------ #
    # Enqueue side
    # ------------------------------------------------------------------ #

    def prepare(
        self, request: Request, row: "_ledger.LedgerRow | None" = None
    ) -> "tuple[LblAccessRequest, OpCounts, int]":
        """Prepare one access through the current window (blocking).

        Returns the same ``(wire_request, prepare_ops, epoch)`` triple a
        :meth:`~repro.core.lbl.parallel.ParallelPrepareEngine.prepare_batch`
        entry yields.  The caller's ambient ledger row is captured when
        ``row`` is not given, so crediting survives the hop onto the
        leader's thread.
        """
        if row is None:
            row = _ledger.current_row()
        entry = _Entry(request, row)
        with self._lock:
            is_leader = not self._window_open
            if is_leader:
                self._window_open = True
                self._pending = [entry]
                self._full = threading.Event()
            else:
                self._pending.append(entry)
                if len(self._pending) >= self.max_batch:
                    self._full.set()
            full = self._full
        if is_leader:
            self._lead(entry, full)
        else:
            entry.done.wait()
        if entry.error is not None:
            raise entry.error
        assert entry.result is not None
        return entry.result

    def _lead(self, entry: _Entry, full: threading.Event) -> None:
        """Run the window this thread opened: wait, swap, flush, publish."""
        opened = self.clock.now()
        while not full.is_set():
            remaining = self.window - (self.clock.now() - opened)
            if remaining <= 0:
                break
            full.wait(min(remaining, _LEADER_POLL_SECONDS))
        reason = "size" if full.is_set() else "timer"
        with self._lock:
            batch = self._pending
            self._pending = []
            self._window_open = False
        try:
            self.flush(batch, reason=reason)
        except BaseException as exc:
            # Never strand a follower: a failed flush raises for everyone.
            for pending in batch:
                if not pending.done.is_set():
                    pending.error = exc
                    pending.done.set()

    def prepare_all(
        self,
        requests: "list[Request]",
        rows: "list[_ledger.LedgerRow | None] | None" = None,
    ) -> "list[tuple[LblAccessRequest, OpCounts, int]]":
        """Prepare a whole known batch as one fused window (no timer).

        Without explicit ``rows`` every entry credits the caller's ambient
        ledger row — the same attribution a sequential ``prepare`` loop on
        this thread would produce.
        """
        ambient = _ledger.current_row() if rows is None else None
        entries = [
            _Entry(request, rows[index] if rows is not None else ambient)
            for index, request in enumerate(requests)
        ]
        self.flush(entries)
        results = []
        for entry in entries:
            if entry.error is not None:
                raise entry.error
            results.append(entry.result)
        return results

    # ------------------------------------------------------------------ #
    # Flush side
    # ------------------------------------------------------------------ #

    def flush(self, batch: "list[_Entry]", reason: str = "explicit") -> None:
        """Prepare every entry of one window, fused, and publish results.

        Routing is payload-independent (it depends only on keys, never on
        the op): the **first** access of each key is fused — derivation
        batched across the window, tables encrypted in one dispatch — and
        same-key followers prepare sequentially after their predecessor so
        epochs chain.

        Args:
            batch: The window's entries.
            reason: Why the window closed — ``"size"`` (hit ``max_batch``),
                ``"timer"`` (the window timer lapsed), or ``"explicit"``
                (a direct :meth:`prepare_all`/:meth:`flush` call).  Counted
                per reason and recorded per flush, so saturation tooling
                can tell a size-bound window from a timer-bound one.
        """
        if not batch:
            return
        with self._flush_lock:
            try:
                self._flush_inner(batch, reason)
            except BaseException as exc:
                for entry in batch:
                    if not entry.done.is_set():
                        entry.error = exc
                        entry.done.set()
                raise

    def _flush_inner(self, batch: "list[_Entry]", reason: str = "explicit") -> None:
        proxy = self.proxy
        seen_keys: set[str] = set()
        front: "list[_Entry]" = []
        tail: "list[_Entry]" = []
        for entry in batch:
            if entry.request.key in seen_keys:
                tail.append(entry)
            else:
                seen_keys.add(entry.request.key)
                front.append(entry)

        pairs = [
            (entry.request.key, proxy.counter(entry.request.key)) for entry in front
        ]
        rows = [entry.row for entry in front]
        label_sets = self._derive_fused(pairs, rows)
        window_entries = [
            (entry.request, sets) for entry, sets in zip(front, label_sets)
        ]
        for entry, result in zip(
            front, proxy.prepare_window(window_entries, rows=rows)
        ):
            entry.result = result
            entry.done.set()

        # Same-key followers: their predecessor advanced the key to epoch
        # ct+1, so these run as per-request prepares, in order.
        for entry in tail:
            self._publish_one(entry)

        if _obs.enabled:
            REGISTRY.counter("lbl.coalesce.windows").inc()
            REGISTRY.counter("lbl.coalesce.prepared").inc(len(batch))
            REGISTRY.counter("lbl.coalesce.fused").inc(len(front))
            REGISTRY.gauge("lbl.coalesce.last_window").set(len(batch))
            # Flush-reason split + window fill: a saturated deployment
            # flushes on size with full windows; an idle one flushes on
            # timer with near-empty windows.  Doctor reads the ratio.
            REGISTRY.counter(f"lbl.coalesce.flush.{reason}").inc()
            REGISTRY.gauge("lbl.coalesce.window_fill").set(
                len(batch) / self.max_batch
            )
            RECORDER.record(
                "coalesce.flush",
                reason=reason,
                window=len(batch),
                fused=len(front),
                max_batch=self.max_batch,
            )

    def _publish_one(self, entry: _Entry) -> None:
        """Per-request prepare of a same-key follower under its row."""
        token = _ledger.activate(entry.row) if entry.row is not None else None
        try:
            ct = self.proxy.counter(entry.request.key)
            lbl_request, ops = self.proxy.prepare(entry.request)
            entry.result = (lbl_request, ops, ct + 1)
            entry.done.set()
        finally:
            if token is not None:
                _ledger.deactivate(token)

    def _derive_fused(
        self,
        pairs: "list[tuple[str, int]]",
        rows: "list[_ledger.LedgerRow | None]",
    ) -> "list[tuple[list[list[bytes]], list[int] | None, list[list[bytes]], list[int] | None]]":
        """Label sets for the window's first accesses per key, one fused dispatch.

        Through the :class:`ProcessCryptoPool` when one is attached (chunked
        at its batch capacity), else in-process through the fused codec
        entry points.  The in-process call runs under **no** ambient row —
        the real PRF meters hit the registry once for the whole fusion —
        and each access's row is then credited its exact per-request share
        (the closed-form ``derivation_cost``, byte-exact by construction),
        so fused rows still sum to registry totals.
        """
        if self.procpool is not None:
            out = []
            step = self.procpool.max_batch
            for base in range(0, len(pairs), step):
                out += self.procpool.derive_batch(
                    pairs[base : base + step], rows=rows[base : base + step]
                )
            return out

        codec = self.proxy.codec
        point_and_permute = self.proxy.config.point_and_permute
        epochs: "list[tuple[str, int]]" = []
        for key, counter in pairs:
            epochs.append((key, counter))
            epochs.append((key, counter + 1))
        token = _ledger.activate(None)
        try:
            tables = codec.labels_for_epochs(epochs)
            offsets = (
                codec.permute_offsets_for_epochs(epochs)
                if point_and_permute
                else None
            )
        finally:
            _ledger.deactivate(token)
        if _obs.enabled:
            for position, (key, counter) in enumerate(pairs):
                row = rows[position]
                if row is None:
                    continue
                old_calls, old_comp = codec.derivation_cost(
                    key, counter, offsets=point_and_permute
                )
                new_calls, new_comp = codec.derivation_cost(
                    key, counter + 1, offsets=point_and_permute
                )
                row.add_op("prf.calls", old_calls + new_calls)
                row.add_op("sha256.compressions", old_comp + new_comp)
        return [
            (
                tables[2 * position],
                offsets[2 * position] if offsets is not None else None,
                tables[2 * position + 1],
                offsets[2 * position + 1] if offsets is not None else None,
            )
            for position in range(len(pairs))
        ]


__all__ = ["PrepareCoalescer", "DEFAULT_WINDOW_SECONDS", "DEFAULT_MAX_BATCH"]
