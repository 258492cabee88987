"""The untrusted storage server of LBL-ORTOA (paper §5.2 step 2, §10.2).

Per group the server holds exactly one secret label (plus, under
point-and-permute, the slot index to open next).  On receiving a request it
either:

* **base protocol** — tries every ciphertext in the group's table; the
  authenticated encryption guarantees exactly one opens (the one keyed by
  its stored label), and

* **point-and-permute** — decrypts only the slot its stored index names,
  halving (for y=1; quartering for y=2) server computation, exactly the
  §10.2 optimization.

Either way the decrypted payload becomes the group's new stored label, so
*every* access rewrites storage — the server cannot distinguish a read from
a write by watching its own state.

:meth:`LblServer.process_many` is the fused window path behind the
server-side access coalescer (:mod:`repro.core.lbl.server_coalesce`): a
window of concurrent requests becomes exactly one storage multi-get, one
window-wide :func:`repro.crypto.aead.open_many`, and one multi-put of the
rotated labels — with per-request error isolation and byte-exact ledger
attribution, so the fused path is observationally identical to a
sequential ``process`` loop.

When :mod:`repro.obs` capture is enabled, each request — fused or not —
emits a :data:`SERVER_SPAN` span describing everything this component could
observe about it — table shapes, ciphertext bytes, decryption attempts,
storage rewrites.  The obliviousness auditor (:mod:`repro.obs.audit`)
consumes exactly this stream: if the span attributes distinguish reads from
writes, the protocol leaks.  Spans and ``lbl.server.*`` counters are
emitted on error paths too (a failed decrypt is an observation like any
other), with the same attribute set plus an ``error`` string whose
presence is operation-independent.
"""

from __future__ import annotations

from repro.core.base import OpCounts
from repro.core.messages import LblAccessRequest, LblAccessResponse
from repro.crypto import aead
from repro.crypto.labels import StoredLabel
from repro.errors import ConfigurationError, OrtoaError, ProtocolError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.storage.kv import KeyValueStore
from repro.core.lbl.proxy import DECRYPT_INDEX_BYTES

#: Span name of the per-request server-side observation record.
SERVER_SPAN = "lbl.server.process"


class LblServer:
    """Stores per-group labels and applies encryption tables obliviously."""

    def __init__(self, point_and_permute: bool = False) -> None:
        self.point_and_permute = point_and_permute
        self.store: KeyValueStore[list[StoredLabel]] = KeyValueStore("lbl-server")

    def load(self, encoded_key: bytes, labels: list[StoredLabel]) -> None:
        """Bulk-load one object's labels at initialization."""
        if self.point_and_permute and any(sl.decrypt_index is None for sl in labels):
            raise ProtocolError("point-and-permute server needs decrypt indices")
        self.store.put_new(encoded_key, labels)

    def _commit(self, encoded_key: bytes, updated: list[StoredLabel]) -> int:
        """Persist the rotated labels; returns how many labels were rewritten.

        Split out so test doubles can model a *leaky* server that skips the
        rewrite — the behaviour the obliviousness auditor must flag.
        """
        self.store.put(encoded_key, updated)
        return len(updated)

    def _commit_many(
        self, items: list[tuple[bytes, list[StoredLabel]]]
    ) -> list[int]:
        """Persist a window's rotated labels in one storage multi-put."""
        self.store.put_many(items)
        return [len(updated) for _key, updated in items]

    def _designated_pairs(
        self, request: LblAccessRequest, stored: list[StoredLabel]
    ) -> tuple[list[bytes], list[bytes]]:
        """Point-and-permute: each group's designated (label, ciphertext)."""
        pairs_keys: list[bytes] = []
        pairs_cts: list[bytes] = []
        for group_index, (table, current) in enumerate(zip(request.tables, stored)):
            slot = current.decrypt_index
            if slot is None or slot >= len(table):
                raise ProtocolError(f"bad decrypt index at group {group_index}")
            pairs_keys.append(current.label)
            pairs_cts.append(table[slot])
        return pairs_keys, pairs_cts

    @staticmethod
    def _rotated(payload: bytes) -> StoredLabel:
        """Decode an opened point-and-permute payload into the next label."""
        if len(payload) <= DECRYPT_INDEX_BYTES:
            raise ProtocolError("point-and-permute payload too short")
        return StoredLabel(payload[:-DECRYPT_INDEX_BYTES], payload[-1])

    def _emit_telemetry(
        self,
        span,
        request: LblAccessRequest,
        *,
        decrypts: int,
        failed: int,
        slot_hits: int,
        opened: int,
        rewritten: int,
        error: str | None = None,
    ) -> None:
        """Finish one request's server-side observation record.

        Shared by the sequential and fused paths so both emit byte-identical
        span attributes and counters — including on error paths, where the
        only extra attribute is the (operation-independent) ``error``.
        """
        if span is None:
            return
        attributes = dict(
            # The encoded key is already the server's storage key, so
            # recording its prefix adds no observation power — but it
            # lets the auditor pair spans with requests even when a
            # worker pool processes them out of submission order.
            key_fingerprint=request.encoded_key.hex()[:16],
            groups=len(request.tables),
            table_entries=sum(len(table) for table in request.tables),
            ciphertext_bytes=sum(
                len(entry) for table in request.tables for entry in table
            ),
            decrypt_attempts=decrypts,
            failed_decrypts=failed,
            opened_labels=opened,
            labels_rewritten=rewritten,
            storage_writes=1 if rewritten else 0,
            point_and_permute=self.point_and_permute,
        )
        if error is not None:
            attributes["error"] = error
        span.set_attributes(**attributes)
        TRACER.end(span)
        REGISTRY.counter("lbl.server.requests").inc()
        REGISTRY.counter("lbl.server.decrypt_attempts").inc(decrypts)
        REGISTRY.counter("lbl.server.failed_decrypts").inc(failed)
        REGISTRY.counter("lbl.server.slot_hits").inc(slot_hits)
        REGISTRY.counter("lbl.server.labels_rewritten").inc(rewritten)

    def process(self, request: LblAccessRequest) -> tuple[LblAccessResponse, OpCounts]:
        """Open one entry per group, update stored labels, return the labels."""
        span = TRACER.start_span(SERVER_SPAN) if _obs.enabled else None
        opened: list[bytes] = []
        decrypts = 0
        failed = 0
        slot_hits = 0
        rewritten = 0
        error: str | None = None
        try:
            stored = self.store.get(request.encoded_key)
            if len(request.tables) != len(stored):
                raise ProtocolError(
                    f"table count {len(request.tables)} != stored groups {len(stored)}"
                )
            updated: list[StoredLabel] = []
            if self.point_and_permute:
                # Every group opens exactly its designated slot, so the whole
                # request collapses to one (label, ciphertext) pair per group —
                # batched through open_many, with verdicts
                # and attempt counts identical to a per-group try_decrypt loop.
                pairs_keys, pairs_cts = self._designated_pairs(request, stored)
                payloads = aead.open_many(pairs_keys, pairs_cts)
                decrypts = len(payloads)
                for group_index, payload in enumerate(payloads):
                    if payload is None:
                        # open_many attempted (and the ledger metered) every
                        # pair, so the failure count covers the whole batch.
                        failed = sum(1 for p in payloads if p is None)
                        raise ProtocolError(
                            f"designated entry failed to open at group {group_index}"
                        )
                    slot_hits += 1
                    current = self._rotated(payload)
                    updated.append(current)
                    opened.append(current.label)
            else:
                for group_index, (table, current) in enumerate(
                    zip(request.tables, stored)
                ):
                    # Batched scan: the stored label's key schedule is computed once
                    # and tried against every entry (same verdicts and attempt
                    # counts as a sequential try_decrypt loop).
                    found = aead.open_any(current.label, table)
                    if found is None:
                        decrypts += len(table)
                        failed += len(table)
                        raise ProtocolError(
                            f"no table entry opened at group {group_index}: "
                            "stored label is stale or corrupt"
                        )
                    slot, new_label = found
                    decrypts += slot + 1
                    failed += slot
                    updated.append(StoredLabel(new_label))
                    opened.append(new_label)
            rewritten = self._commit(request.encoded_key, updated)
            ops = OpCounts(
                kv_ops=2,
                aead_dec=decrypts - failed,
                failed_dec=failed,
            )
            return LblAccessResponse(tuple(opened)), ops
        except Exception as exc:
            error = str(exc)
            raise
        finally:
            self._emit_telemetry(
                span,
                request,
                decrypts=decrypts,
                failed=failed,
                slot_hits=slot_hits,
                opened=len(opened),
                rewritten=rewritten,
                error=error,
            )

    def _process_isolated(
        self, request: LblAccessRequest, row: "_ledger.LedgerRow | None"
    ) -> "tuple[LblAccessResponse, OpCounts] | OrtoaError":
        """One sequential access with its ledger row active, errors captured.

        ``row=None`` *clears* the ambient row for the duration — a
        row-less window-mate must not bill the flushing thread's row.
        """
        token = _ledger.activate(row)
        try:
            return self.process(request)
        except OrtoaError as exc:
            return exc
        finally:
            _ledger.deactivate(token)

    def _process_many_fast(
        self, requests: "list[LblAccessRequest]"
    ) -> "list[tuple[LblAccessResponse, OpCounts] | OrtoaError] | None":
        """Streamlined fused window for the common case, or ``None``.

        Handles point-and-permute windows of distinct, present keys with
        observability disabled — the hot shape at a saturated server, where
        per-window Python bookkeeping is the difference between fused
        dispatch winning and losing.  Structural oddities (repeated keys,
        missing keys, table/slot mismatches) bail out *before* any counted
        storage access so the general path replays the window from scratch;
        per-request open failures are handled inline with the exact errors
        the general path raises, so callers can't tell the paths apart.
        """
        data = self.store._data
        seen: set[bytes] = set()
        window_keys: list[bytes] = []
        pair_keys: list[bytes] = []
        pair_cts: list[bytes] = []
        bounds = [0]
        for request in requests:
            encoded_key = request.encoded_key
            if encoded_key in seen:
                return None
            seen.add(encoded_key)
            stored = data.get(encoded_key)
            if stored is None or len(request.tables) != len(stored):
                return None
            for table, current in zip(request.tables, stored):
                slot = current.decrypt_index
                if slot is None or slot >= len(table):
                    return None
                pair_keys.append(current.label)
                pair_cts.append(table[slot])
            window_keys.append(encoded_key)
            bounds.append(len(pair_keys))
        # The window's one multi-get: the pre-scan above read the same dict,
        # but this is the counted storage access tests assert on.
        self.store.get_many(window_keys)
        payloads = aead.open_many(pair_keys, pair_cts)
        results: "list[tuple[LblAccessResponse, OpCounts] | OrtoaError]" = []
        commits: list[tuple[bytes, list[StoredLabel]]] = []
        index_bytes = DECRYPT_INDEX_BYTES
        # Every request in a window shares the store's group shape, and
        # OpCounts is frozen — one descriptor serves the whole window
        # instead of one dataclass construction per request.
        ops_by_groups: dict[int, OpCounts] = {}
        for index, request in enumerate(requests):
            segment = payloads[bounds[index] : bounds[index + 1]]
            opened: list[bytes] = []
            updated: list[StoredLabel] = []
            failure: OrtoaError | None = None
            for group_index, payload in enumerate(segment):
                if payload is None:
                    failure = ProtocolError(
                        f"designated entry failed to open at group {group_index}"
                    )
                    break
                if len(payload) <= index_bytes:
                    failure = ProtocolError(
                        "point-and-permute payload too short"
                    )
                    break
                label = payload[:-index_bytes]
                updated.append(StoredLabel(label, payload[-1]))
                opened.append(label)
            if failure is not None:
                results.append(failure)
                continue
            commits.append((request.encoded_key, updated))
            num_groups = len(segment)
            ops = ops_by_groups.get(num_groups)
            if ops is None:
                ops = OpCounts(kv_ops=2, aead_dec=num_groups)
                ops_by_groups[num_groups] = ops
            results.append((LblAccessResponse(tuple(opened)), ops))
        if commits:
            self._commit_many(commits)
        return results

    def process_many(
        self,
        requests: "list[LblAccessRequest]",
        rows: "list[_ledger.LedgerRow | None] | None" = None,
    ) -> "list[tuple[LblAccessResponse, OpCounts] | OrtoaError]":
        """Process a window of concurrent requests in one fused dispatch.

        Returns a list parallel to ``requests`` where each position holds
        either that request's ``(response, ops)`` or the
        :class:`~repro.errors.OrtoaError` it failed with — per-request error
        isolation, so one corrupt request cannot poison its window-mates.

        Under point-and-permute the window collapses to exactly one storage
        multi-get, one window-wide :func:`repro.crypto.aead.open_many` over
        every request's designated pairs, and one multi-put of the
        rotated labels.  Two documented exceptions keep correctness exact:

        * **same-key followers** — the second and later requests for one
          key ("tail") consume the labels their predecessor installs, so
          they chain sequentially *after* the fused commit, preserving
          label-rotation order;
        * **requests that cannot join the fused dispatch** (missing key,
          base protocol) — replayed through sequential :meth:`process`,
          which reproduces the exact error, span, and counter behaviour.

        The fused crypto runs with no ambient ledger row (the registry still
        meters the real fused invocation once); each request's row is then
        credited its closed-form share of the attempt counts — the same
        split-attribution pattern as the client-side prepare coalescer — so
        per-request ledger rows are byte-exact regardless of window shape.

        Args:
            requests: The window, in arrival order (meaningful for
                repeated keys).
            rows: Optional per-request ledger rows (parallel positions);
                fused crypto and tail processing are attributed per row.
                A ``None`` position credits no row at all (registry-only) —
                an untracked window-mate must never leak its share into the
                flushing thread's ambient row.  Omitting ``rows`` entirely
                attributes every request to the caller's ambient row,
                matching a sequential ``process`` loop.
        """
        if rows is not None and len(rows) != len(requests):
            raise ConfigurationError("rows must parallel requests")
        if requests and self.point_and_permute and not _obs.enabled:
            # With capture off there are no spans, counters, or ledger rows
            # to attribute, so the window can take the streamlined path
            # (rows are ignored exactly as the general path would ignore
            # them: crediting is gated on capture being enabled).
            fast = self._process_many_fast(requests)
            if fast is not None:
                return fast
        if rows is not None:
            row_list: "list[_ledger.LedgerRow | None]" = list(rows)
        else:
            ambient = _ledger.current_row()
            row_list = [ambient] * len(requests)
        results: "list[tuple[LblAccessResponse, OpCounts] | OrtoaError | None]" = [
            None
        ] * len(requests)
        if not requests:
            return []
        if not self.point_and_permute:
            # The base protocol scans tables with per-group open_any; there
            # is no designated-slot structure to fuse.  Keep the window
            # semantics (isolation, row attribution) with sequential opens.
            for index, request in enumerate(requests):
                results[index] = self._process_isolated(request, row_list[index])
            return results  # type: ignore[return-value]

        front: list[int] = []
        tail: list[int] = []
        seen: set[bytes] = set()
        for index, request in enumerate(requests):
            if request.encoded_key in seen:
                tail.append(index)
            else:
                seen.add(request.encoded_key)
                front.append(index)

        for index in front:
            if requests[index].encoded_key not in self.store:
                results[index] = self._process_isolated(
                    requests[index], row_list[index]
                )
        present = [index for index in front if results[index] is None]
        stored_lists = (
            self.store.get_many([requests[index].encoded_key for index in present])
            if present
            else []
        )

        fused: list[int] = []
        segments: dict[int, tuple[int, int]] = {}
        pair_keys: list[bytes] = []
        pair_cts: list[bytes] = []
        for index, stored in zip(present, stored_lists):
            request = requests[index]
            try:
                if len(request.tables) != len(stored):
                    raise ProtocolError(
                        f"table count {len(request.tables)} != "
                        f"stored groups {len(stored)}"
                    )
                keys_i, cts_i = self._designated_pairs(request, stored)
            except OrtoaError as exc:
                span = TRACER.start_span(SERVER_SPAN) if _obs.enabled else None
                self._emit_telemetry(
                    span,
                    request,
                    decrypts=0,
                    failed=0,
                    slot_hits=0,
                    opened=0,
                    rewritten=0,
                    error=str(exc),
                )
                results[index] = exc
                continue
            segments[index] = (len(pair_keys), len(pair_keys) + len(keys_i))
            pair_keys.extend(keys_i)
            pair_cts.extend(cts_i)
            fused.append(index)

        payloads: "list[bytes | None]" = []
        if pair_keys:
            # One window-wide open.  The ambient row is cleared so the fused
            # invocation meters the registry exactly once; per-request shares
            # are credited closed-form below.
            token = _ledger.activate(None)
            try:
                payloads = aead.open_many(pair_keys, pair_cts)
            finally:
                _ledger.deactivate(token)

        commits: list[tuple[bytes, list[StoredLabel]]] = []
        pending: list[tuple[int, int, int, int, list[bytes]]] = []
        for index in fused:
            request = requests[index]
            start, end = segments[index]
            segment = payloads[start:end]
            decrypts = len(segment)
            failures = sum(1 for payload in segment if payload is None)
            if _obs.enabled and row_list[index] is not None:
                # Closed-form attribution of the fused open: this request's
                # pairs were all attempted, whatever its window-mates did.
                _ledger.credit_op(
                    "aead.decrypts", decrypts - failures, row_list[index]
                )
                _ledger.credit_op(
                    "aead.decrypt_failures", failures, row_list[index]
                )
            slot_hits = 0
            opened: list[bytes] = []
            updated: list[StoredLabel] = []
            failure: OrtoaError | None = None
            try:
                for group_index, payload in enumerate(segment):
                    if payload is None:
                        raise ProtocolError(
                            f"designated entry failed to open at group {group_index}"
                        )
                    slot_hits += 1
                    current = self._rotated(payload)
                    updated.append(current)
                    opened.append(current.label)
            except OrtoaError as exc:
                failure = exc
            if failure is not None:
                span = TRACER.start_span(SERVER_SPAN) if _obs.enabled else None
                self._emit_telemetry(
                    span,
                    request,
                    decrypts=decrypts,
                    failed=failures,
                    slot_hits=slot_hits,
                    opened=len(opened),
                    rewritten=0,
                    error=str(failure),
                )
                results[index] = failure
                continue
            commits.append((request.encoded_key, updated))
            pending.append((index, decrypts, failures, slot_hits, opened))

        rewritten_counts = self._commit_many(commits) if commits else []
        for (index, decrypts, failures, slot_hits, opened), rewritten in zip(
            pending, rewritten_counts
        ):
            span = TRACER.start_span(SERVER_SPAN) if _obs.enabled else None
            self._emit_telemetry(
                span,
                requests[index],
                decrypts=decrypts,
                failed=failures,
                slot_hits=slot_hits,
                opened=len(opened),
                rewritten=rewritten,
            )
            results[index] = (
                LblAccessResponse(tuple(opened)),
                OpCounts(
                    kv_ops=2,
                    aead_dec=decrypts - failures,
                    failed_dec=failures,
                ),
            )

        # Same-key followers consume the labels the fused commit installed;
        # arrival order within the tail preserves each key's rotation chain.
        for index in tail:
            results[index] = self._process_isolated(requests[index], row_list[index])
        return results  # type: ignore[return-value]


__all__ = ["LblServer", "SERVER_SPAN"]
