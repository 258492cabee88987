"""Server-side access window fusion for LBL-ORTOA.

The point-and-permute server (§10.2) opens exactly one designated AEAD
entry per group, and every request pays its own storage get/put and
bookkeeping.
:class:`ServerAccessCoalescer` is the server-side twin of the client's
:class:`~repro.core.lbl.coalesce.PrepareCoalescer`: concurrent in-flight
access requests arriving at the frame dispatcher enqueue into a bounded
**window** (flushed on ``max_batch`` fill or a timer against the
injectable :class:`~repro.obs.clock.Clock`), and the flush executes one
fused :meth:`~repro.core.lbl.server.LblServer.process_many` — a single
storage multi-get, one window-wide ``aead.open_many`` over every request's
designated pairs, one multi-put of rotated labels — then fans each response back to its caller.

**Leader/follower protocol** (threaded transport).  The first caller to
find no window open becomes the *leader*: it opens the window, waits for
it to fill or for the timer to lapse, swaps the batch out, and runs the
flush on its own thread.  Followers append and block on their entry's
done-event; the leader publishes every entry's result (or error — a
failed flush never strands a follower) before returning its own.

**Submit/flush protocol** (async transport).  A single-threaded event loop
cannot block in a leader wait, so the async server uses the non-blocking
half directly: :meth:`submit` enqueues and reports ``(leader, full,
generation)``, the caller schedules :meth:`flush_pending` — immediately
when the window filled, via ``loop.call_later`` otherwise — and each
entry's ``on_done`` callback resolves that request's future on the loop.
``generation`` makes stale timers harmless: a timer armed for window *g*
no-ops once *g* has flushed, even if window *g+1* is already open.

**Obliviousness.**  Window formation is payload-independent — membership
depends only on arrival timing and ``max_batch``, never on the operation —
and a fused GET window is shape-identical to a fused PUT window: same
designated-pair counts, same flush events, same per-request span
attributes (pinned by the audit in ``tests/test_server_fusion.py``).
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import Callable, ContextManager

from repro.core.base import OpCounts
from repro.core.lbl.server import LblServer
from repro.core.messages import LblAccessRequest, LblAccessResponse
from repro.errors import ConfigurationError, OrtoaError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger
from repro.obs.clock import Clock, WallClock
from repro.obs.metrics import REGISTRY
from repro.obs.recorder import RECORDER

#: Default flush window in seconds (~200µs): long enough for a burst of
#: concurrent clients to land in one window, short enough to stay invisible
#: next to the WAN round trip the protocol already pays.
DEFAULT_WINDOW_SECONDS = 0.0002

#: Default size flush threshold.
DEFAULT_MAX_BATCH = 8

#: Real-time cap on each follower-wait inside the leader's timer loop.  The
#: window clock is injectable (and may be fake), so the leader never blocks
#: on it for long stretches of *wall* time — it re-reads the clock at least
#: this often.
_LEADER_POLL_SECONDS = 0.001


class _Entry:
    """One enqueued access, owned by the window that flushes it."""

    __slots__ = ("request", "row", "done", "result", "error", "on_done")

    def __init__(
        self,
        request: LblAccessRequest,
        row: "_ledger.LedgerRow | None",
        on_done: "Callable[[_Entry], None] | None" = None,
    ) -> None:
        self.request = request
        self.row = row
        self.done = threading.Event()
        self.result: "tuple[LblAccessResponse, OpCounts] | None" = None
        self.error: BaseException | None = None
        self.on_done = on_done


class ServerAccessCoalescer:
    """Fuse concurrent server accesses into windowed ``process_many`` calls.

    Args:
        lbl: The :class:`~repro.core.lbl.server.LblServer` whose accesses
            are coalesced.
        window: Flush timer in seconds — the longest a lone request waits
            for company.  ``0`` flushes every window immediately (coalescing
            only what arrived while the previous flush ran).
        max_batch: Size flush threshold; a window with this many entries
            flushes without waiting for the timer.
        clock: Time source for the flush timer (default
            :class:`~repro.obs.clock.WallClock`); tests inject a
            :class:`~repro.obs.clock.FakeClock`.
        lock_keys: Optional callable returning a context manager that holds
            whatever per-key locks the transport requires for the given
            encoded keys — the threaded dispatcher passes its stripe table
            so a fused flush coexists with the (separately locked) batch
            frame path.  Defaults to no locking.
    """

    def __init__(
        self,
        lbl: LblServer,
        *,
        window: float = DEFAULT_WINDOW_SECONDS,
        max_batch: int = DEFAULT_MAX_BATCH,
        clock: Clock | None = None,
        lock_keys: "Callable[[list[bytes]], ContextManager] | None" = None,
    ) -> None:
        if window < 0:
            raise ConfigurationError("server window must be >= 0 seconds")
        if max_batch < 1:
            raise ConfigurationError("server max_batch must be >= 1")
        self.lbl = lbl
        self.window = window
        self.max_batch = max_batch
        self.clock: Clock = clock if clock is not None else WallClock()
        self._lock_keys = lock_keys
        self._lock = threading.Lock()
        self._flush_lock = threading.Lock()
        self._pending: "list[_Entry]" = []
        self._window_open = False
        self._full = threading.Event()
        self._generation = 0

    # ------------------------------------------------------------------ #
    # Enqueue side
    # ------------------------------------------------------------------ #

    def submit(
        self,
        request: LblAccessRequest,
        row: "_ledger.LedgerRow | None" = None,
        on_done: "Callable[[_Entry], None] | None" = None,
    ) -> "tuple[_Entry, bool, bool, int, threading.Event]":
        """Enqueue one access into the current window (non-blocking).

        Returns ``(entry, is_leader, is_full, generation, full_event)``.
        The caller owns the flush decision: a blocking caller runs the
        leader wait (:meth:`process` does this); an event-loop caller
        schedules :meth:`flush_pending` for ``generation`` — immediately
        when ``is_full``, after ``window`` seconds otherwise — and reads
        the result from ``on_done``.
        """
        entry = _Entry(request, row, on_done)
        with self._lock:
            is_leader = not self._window_open
            if is_leader:
                self._window_open = True
                self._generation += 1
                self._pending = [entry]
                self._full = threading.Event()
            else:
                self._pending.append(entry)
            is_full = len(self._pending) >= self.max_batch
            if is_full:
                self._full.set()
            return entry, is_leader, is_full, self._generation, self._full

    def process(
        self, request: LblAccessRequest, row: "_ledger.LedgerRow | None" = None
    ) -> "tuple[LblAccessResponse, OpCounts]":
        """Serve one access through the current window (blocking).

        Returns exactly what ``LblServer.process`` would; raises exactly the
        error it would.  The caller's ambient ledger row is captured when
        ``row`` is not given, so crediting survives the hop onto the
        leader's thread.
        """
        if row is None:
            row = _ledger.current_row()
        entry, is_leader, is_full, generation, full = self.submit(request, row)
        if is_full:
            # The filling caller runs the size flush itself: it is already
            # scheduled, so the window skips a leader-wakeup handoff (the
            # leader's wait sees ``full`` set and its flush call no-ops).
            self.flush_pending(reason="size", generation=generation)
        if is_leader:
            self._lead(generation, full)
        else:
            entry.done.wait()
        if entry.error is not None:
            raise entry.error
        assert entry.result is not None
        return entry.result

    def _lead(self, generation: int, full: threading.Event) -> None:
        """Run the window this thread opened: wait, then flush it."""
        opened = self.clock.now()
        while not full.is_set():
            remaining = self.window - (self.clock.now() - opened)
            if remaining <= 0:
                break
            full.wait(min(remaining, _LEADER_POLL_SECONDS))
        reason = "size" if full.is_set() else "timer"
        self.flush_pending(reason=reason, generation=generation)

    # ------------------------------------------------------------------ #
    # Flush side
    # ------------------------------------------------------------------ #

    def flush_pending(
        self, reason: str = "timer", generation: int | None = None
    ) -> bool:
        """Close and flush the open window, if it is still ``generation``.

        Returns True when a window was flushed.  Safe to call from a stale
        timer: if the target window already flushed (by size, or by an
        earlier timer) this is a no-op, even when a newer window is open.
        """
        with self._lock:
            if not self._window_open:
                return False
            if generation is not None and generation != self._generation:
                return False
            batch = self._pending
            self._pending = []
            self._window_open = False
        try:
            self.flush(batch, reason=reason)
        except BaseException as exc:
            # Never strand a caller: a failed flush raises for everyone.
            for entry in batch:
                if not entry.done.is_set():
                    entry.error = exc
                    self._finish(entry)
        return True

    def flush(self, batch: "list[_Entry]", reason: str = "explicit") -> None:
        """Serve one window fused and publish per-entry results.

        The whole flush holds the transport's per-key locks for the
        window's (deduplicated, sorted) keys, runs exactly one
        :meth:`~repro.core.lbl.server.LblServer.process_many`, and fans the
        per-request results (or isolated errors) back out.

        Args:
            batch: The window's entries.
            reason: Why the window closed — ``"size"`` (hit ``max_batch``),
                ``"timer"`` (the window timer lapsed), or ``"explicit"``
                (a direct call).  Counted per reason and recorded per
                flush, so saturation tooling can tell a size-bound window
                from a timer-bound one.
        """
        if not batch:
            return
        with self._flush_lock:
            guard: ContextManager = (
                self._lock_keys(
                    sorted({entry.request.encoded_key for entry in batch})
                )
                if self._lock_keys is not None
                else nullcontext()
            )
            with guard:
                results = self.lbl.process_many(
                    [entry.request for entry in batch],
                    rows=[entry.row for entry in batch],
                )
            for entry, result in zip(batch, results):
                if isinstance(result, OrtoaError):
                    entry.error = result
                else:
                    entry.result = result
                self._finish(entry)
            if _obs.enabled:
                REGISTRY.counter("lbl.server.windows").inc()
                REGISTRY.counter("lbl.server.coalesced").inc(len(batch))
                REGISTRY.counter(f"lbl.server.flush.{reason}").inc()
                REGISTRY.gauge("lbl.server.last_window").set(len(batch))
                # Flush-reason split + window fill: a saturated server
                # flushes on size with full windows; an idle one flushes on
                # timer with near-empty windows.  Doctor reads the ratio.
                REGISTRY.gauge("lbl.server.window_fill").set(
                    len(batch) / self.max_batch
                )
                # Window shape is payload-independent by construction:
                # reason and fill depend on arrival timing, never on ops.
                RECORDER.record(
                    "server.window",
                    reason=reason,
                    window=len(batch),
                    max_batch=self.max_batch,
                )

    @staticmethod
    def _finish(entry: _Entry) -> None:
        entry.done.set()
        if entry.on_done is not None:
            entry.on_done(entry)


__all__ = [
    "ServerAccessCoalescer",
    "DEFAULT_WINDOW_SECONDS",
    "DEFAULT_MAX_BATCH",
]
