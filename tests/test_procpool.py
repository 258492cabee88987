"""ProcessCryptoPool: worker-process label derivation must be transparent.

Workers rebuild the proxy's PRFs from exported raw keys, so every blob they
ship back must re-slice into exactly the label sets the proxy would have
derived in-process — same bytes, same epochs, same offsets.  The engine
integration must additionally keep protocol outputs identical to the
thread backend (finalize decodes, counters advance, the cache still wins).
"""

import random

import pytest

from repro.core.lbl import LblOrtoa
from repro.core.lbl.parallel import ParallelPrepareEngine
from repro.core.lbl.procpool import NO_SHM_ENV, ProcessCryptoPool, shm_available
from repro.crypto.keys import KeyChain
from repro.errors import ConfigurationError, CryptoPoolError
from repro.types import Request, StoreConfig


def _store(**overrides) -> LblOrtoa:
    params = dict(value_len=32, group_bits=2, point_and_permute=True)
    params.update(overrides)
    return LblOrtoa(StoreConfig(**params), rng=random.Random(3))


@pytest.fixture(scope="module")
def pool_and_store():
    store = _store()
    store.initialize({f"k{i}": bytes(32) for i in range(4)})
    with ProcessCryptoPool(
        store.keychain,
        value_len=32,
        group_bits=2,
        point_and_permute=True,
        workers=2,
    ) as pool:
        yield pool, store


def test_derivation_matches_in_process(pool_and_store):
    pool, store = pool_and_store
    codec = store.proxy.codec
    for key, counter in (("k0", 0), ("k1", 5), ("missing", 17)):
        old_labels, old_offsets, new_labels, new_offsets = pool.derive(key, counter)
        assert old_labels == codec.labels_for_groups(key, counter)
        assert new_labels == codec.labels_for_groups(key, counter + 1)
        assert old_offsets == codec.permute_offsets(key, counter)
        assert new_offsets == codec.permute_offsets(key, counter + 1)


def test_async_results_resolve_out_of_order(pool_and_store):
    pool, store = pool_and_store
    codec = store.proxy.codec
    pending = [(ct, pool.derive_async("k2", ct)) for ct in range(6)]
    for counter, handle in reversed(pending):
        old_labels, _, _, _ = handle.get(timeout=30)
        assert old_labels == codec.labels_for_groups("k2", counter)


def test_base_protocol_skips_offsets():
    store = _store(point_and_permute=False, group_bits=1)
    with ProcessCryptoPool(
        store.keychain,
        value_len=32,
        group_bits=1,
        point_and_permute=False,
        workers=1,
    ) as pool:
        old_labels, old_offsets, new_labels, new_offsets = pool.derive("x", 0)
        assert old_offsets is None and new_offsets is None
        assert old_labels == store.proxy.codec.labels_for_groups("x", 0)
        assert new_labels == store.proxy.codec.labels_for_groups("x", 1)


def test_rejects_bad_parameters():
    keychain = KeyChain(label_bits=128)
    with pytest.raises(ConfigurationError):
        ProcessCryptoPool(
            keychain, value_len=32, group_bits=2, point_and_permute=True, workers=0
        )
    with pytest.raises(ConfigurationError):
        ProcessCryptoPool(
            keychain, value_len=32, group_bits=9, point_and_permute=True, workers=1
        )


def test_closed_pool_rejects_work():
    keychain = KeyChain(label_bits=128)
    pool = ProcessCryptoPool(
        keychain, value_len=16, group_bits=1, point_and_permute=False, workers=1
    )
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(ConfigurationError):
        pool.derive("k", 0)


def test_engine_backends_produce_identical_protocol_results():
    """Thread- and process-backed engines decode the same values."""
    values = {}
    keychain = KeyChain(label_bits=128)
    for backend in ("thread", "procpool"):
        config = StoreConfig(value_len=32, group_bits=2, point_and_permute=True)
        store = LblOrtoa(config, keychain=keychain, rng=random.Random(3))
        store.initialize({f"k{i}": bytes([i]) * 32 for i in range(4)})
        requests = [
            Request.write(f"k{i % 4}", bytes([50 + i]) * 32) if i % 3 == 0
            else Request.read(f"k{i % 4}")
            for i in range(12)
        ]
        decoded = []
        with ParallelPrepareEngine(store.proxy, workers=2, backend=backend) as eng:
            for lbl_request, _, epoch in eng.prepare_batch(requests):
                response, _ = store.server.process(lbl_request)
                # requests are per-key in submission order; finalize in order
                decoded.append((epoch, response))
        for request, (epoch, response) in zip(requests, decoded):
            value, _ = store.proxy.finalize(request.key, response, counter=epoch)
            values.setdefault(backend, []).append(value)
    assert values["thread"] == values["procpool"]


def test_engine_rejects_unknown_backend():
    store = _store()
    with pytest.raises(ConfigurationError):
        ParallelPrepareEngine(store.proxy, backend="gpu")


def test_shm_and_blob_paths_are_byte_identical(pool_and_store):
    """The shared-memory ring and the pickled-blob fallback carry the same
    payloads: every label set and offset byte agrees across transports."""
    pool, store = pool_and_store
    with ProcessCryptoPool(
        store.keychain,
        value_len=32,
        group_bits=2,
        point_and_permute=True,
        workers=2,
        use_shm=False,
    ) as blob_pool:
        assert not blob_pool.shm_enabled
        pairs = [("k0", 0), ("k1", 3), ("k0", 1), ("missing", 9)]
        assert pool.derive_batch(pairs) == blob_pool.derive_batch(pairs)
        assert pool.derive("k3", 2) == blob_pool.derive("k3", 2)


def test_no_shm_env_disables_rings(monkeypatch):
    """`REPRO_NO_SHM=1` forces the blob wire format — same bytes out."""
    monkeypatch.setenv(NO_SHM_ENV, "1")
    assert not shm_available()
    store = _store()
    store.initialize({"e0": bytes(32)})
    with ProcessCryptoPool(
        store.keychain,
        value_len=32,
        group_bits=2,
        point_and_permute=True,
        workers=1,
    ) as pool:
        assert not pool.shm_enabled
        old_labels, _, new_labels, _ = pool.derive("e0", 0)
        codec = store.proxy.codec
        assert old_labels == codec.labels_for_groups("e0", 0)
        assert new_labels == codec.labels_for_groups("e0", 1)


def test_close_drains_inflight_work(pool_and_store):
    """close() is a graceful drain: async results submitted before the
    close still resolve (the pool refuses *new* work, not pending work)."""
    _, store = pool_and_store
    pool = ProcessCryptoPool(
        store.keychain,
        value_len=32,
        group_bits=2,
        point_and_permute=True,
        workers=1,
    )
    handles = [pool.derive_async("k0", ct) for ct in range(4)]
    pool.close()
    codec = store.proxy.codec
    for counter, handle in enumerate(handles):
        old_labels, _, _, _ = handle.get(timeout=30)
        assert old_labels == codec.labels_for_groups("k0", counter)
    with pytest.raises(ConfigurationError):
        pool.derive_async("k0", 9)


def test_derive_batch_validates_input(pool_and_store):
    pool, _ = pool_and_store
    with pytest.raises(ConfigurationError):
        pool.derive_batch([])
    with pytest.raises(ConfigurationError):
        pool.derive_batch([("k0", -1)])
    with pytest.raises(ConfigurationError):
        pool.derive_batch([("k0", 0)], rows=[None, None])


def test_cryptopool_error_is_typed():
    """Transport failures surface as CryptoPoolError (a CryptoError), so
    callers can distinguish pool breakage from protocol errors."""
    from repro.errors import CryptoError, OrtoaError

    assert issubclass(CryptoPoolError, CryptoError)
    assert issubclass(CryptoPoolError, OrtoaError)


def test_prf_export_key_roundtrip():
    from repro.crypto.prf import Prf

    prf = Prf(b"\x42" * 32, out_bytes=16)
    clone = Prf(prf.export_key(), out_bytes=16)
    assert clone.evaluate("labels", 3, 1) == prf.evaluate("labels", 3, 1)
