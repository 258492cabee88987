"""Parallel prepare engine, scalar/batched decode equivalence, init cost.

The engine fans ``prepare`` across threads under per-key lock stripes; the
tests here check that epochs still chain per key, that counters stay
consistent under contention, and that the batched kernels decode exactly
what the scalar reference path decodes.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.lbl import LblOrtoa
from repro.core.lbl.parallel import ParallelPrepareEngine
from repro.core.lbl.proxy import LblProxy
from repro.crypto.keys import KeyChain
from repro.errors import ConfigurationError
from repro.types import Request, StoreConfig


def _config(**overrides) -> StoreConfig:
    params = dict(value_len=8, group_bits=2, point_and_permute=True)
    params.update(overrides)
    return StoreConfig(**params)


# --------------------------------------------------------------------- #
# Equivalence: scalar and batched paths decode identically
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("pnp", [True, False])
def test_scalar_and_batched_decode_identically(pnp):
    """Same keychain, same workload: both kernel paths return the same bytes."""
    workload = [
        Request.read("k0"),
        Request.write("k1", b"new-val1".ljust(8, b"\x00")),
        Request.read("k1"),
        Request.read("k0"),
        Request.write("k0", b"new-val0".ljust(8, b"\x00")),
        Request.read("k0"),
    ]
    results = []
    keychain = KeyChain(label_bits=128)
    for batched in (False, True):
        config = _config(point_and_permute=pnp)
        store = LblOrtoa(
            config, keychain=keychain, rng=random.Random(9), batched=batched
        )
        store.initialize({f"k{i}": config.pad(f"v{i}".encode()) for i in range(4)})
        results.append([store.access(req).response.value for req in workload])
    assert results[0] == results[1]
    assert results[0][-1].rstrip(b"\x00") == b"new-val0"


# --------------------------------------------------------------------- #
# ParallelPrepareEngine
# --------------------------------------------------------------------- #


def _proxy(pnp: bool = True) -> LblProxy:
    config = _config(point_and_permute=pnp)
    proxy = LblProxy(config, KeyChain(label_bits=config.label_bits))
    list(proxy.initial_records({f"k{i}": config.pad(b"v") for i in range(4)}))
    return proxy


def test_parallel_engine_orders_epochs_per_key():
    proxy = _proxy()
    requests = [
        Request.read("k0"),
        Request.read("k1"),
        Request.read("k0"),
        Request.read("k0"),
        Request.read("k2"),
    ]
    with ParallelPrepareEngine(proxy, workers=4) as engine:
        built = engine.prepare_batch(requests)
    assert len(built) == len(requests)
    k0_epochs = [
        epoch for req, (_, _, epoch) in zip(requests, built) if req.key == "k0"
    ]
    assert k0_epochs == [1, 2, 3]
    assert proxy.counter("k0") == 3
    assert proxy.counter("k1") == 1 and proxy.counter("k2") == 1


def test_parallel_engine_serial_fallback_matches():
    proxy = _proxy()
    requests = [Request.read("k0"), Request.read("k1")]
    engine = ParallelPrepareEngine(proxy, workers=0)
    built = engine.prepare_batch(requests)
    assert [epoch for _, _, epoch in built] == [1, 1]
    engine.close()  # no-op without a pool


def test_parallel_engine_shuffle_lock_on_base_protocol():
    proxy = _proxy(pnp=False)
    with ParallelPrepareEngine(proxy, workers=3) as engine:
        assert engine._needs_shuffle_lock
        built = engine.prepare_batch([Request.read(f"k{i}") for i in range(4)])
    assert len(built) == 4


def test_parallel_engine_many_threads_stress():
    """Concurrent distinct-key prepares leave every counter consistent."""
    proxy = _proxy()
    requests = [Request.read(f"k{i % 4}") for i in range(24)]
    barrier_results = []
    with ParallelPrepareEngine(proxy, workers=8, num_stripes=2) as engine:
        def run():
            barrier_results.append(engine.prepare_batch(requests[:12]))

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert sum(proxy.counter(f"k{i}") for i in range(4)) == 24


def test_parallel_engine_rejects_bad_params():
    proxy = _proxy()
    with pytest.raises(ConfigurationError):
        ParallelPrepareEngine(proxy, workers=-1)
    with pytest.raises(ConfigurationError):
        ParallelPrepareEngine(proxy, num_stripes=0)
    with pytest.raises(ConfigurationError):
        ParallelPrepareEngine(proxy).prepare_batch([])


# --------------------------------------------------------------------- #
# initial_records complexity regression
# --------------------------------------------------------------------- #


def test_initial_records_grouping_is_linear(monkeypatch):
    """`value_to_groups` runs once per record, not once per record pair."""
    from repro.core.lbl import proxy as proxy_module

    calls = {"count": 0}
    real = proxy_module.value_to_groups

    def counting(value, group_bits):
        calls["count"] += 1
        return real(value, group_bits)

    monkeypatch.setattr(proxy_module, "value_to_groups", counting)
    config = _config()
    proxy = LblProxy(config, KeyChain(label_bits=config.label_bits))
    records = {f"key-{i}": config.pad(b"x") for i in range(32)}
    out = proxy.initial_records(records)
    assert len(out) == 32
    assert calls["count"] == 32
