"""Edge-case tests for the shared vocabulary types and the error hierarchy."""

import pytest

from repro import errors
from repro.types import (
    AccessStats,
    LatencySample,
    Operation,
    Request,
    Response,
    StoreConfig,
)


# --------------------------------------------------------------------- #
# Error hierarchy
# --------------------------------------------------------------------- #

def test_every_library_error_is_an_ortoa_error():
    exception_types = [
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, Exception)
    ]
    assert len(exception_types) >= 10
    for exc_type in exception_types:
        assert issubclass(exc_type, errors.OrtoaError), exc_type


def test_error_specialization_relationships():
    assert issubclass(errors.DecryptionError, errors.CryptoError)
    assert issubclass(errors.NoiseBudgetExhausted, errors.CryptoError)
    assert issubclass(errors.TamperDetectedError, errors.CryptoError)
    assert issubclass(errors.KeyNotFoundError, errors.ProtocolError)
    assert issubclass(errors.AttestationError, errors.EnclaveError)


def test_catching_the_base_class_works():
    with pytest.raises(errors.OrtoaError):
        raise errors.DecryptionError("boom")


# --------------------------------------------------------------------- #
# Request/Response invariants
# --------------------------------------------------------------------- #

def test_read_request_must_not_carry_value():
    with pytest.raises(errors.ConfigurationError):
        Request(Operation.READ, "k", b"value")


def test_write_request_must_carry_value():
    with pytest.raises(errors.ConfigurationError):
        Request(Operation.WRITE, "k", None)


def test_request_constructors():
    read = Request.read("k")
    assert read.op.is_read and not read.op.is_write and read.value is None
    write = Request.write("k", b"v")
    assert write.op.is_write and write.value == b"v"


def test_requests_are_immutable():
    request = Request.read("k")
    with pytest.raises(AttributeError):
        request.key = "other"  # type: ignore[misc]


def test_response_holds_key_and_value():
    response = Response("k", b"v")
    assert (response.key, response.value) == ("k", b"v")


# --------------------------------------------------------------------- #
# StoreConfig semantics
# --------------------------------------------------------------------- #

def test_config_derived_quantities():
    config = StoreConfig(value_len=10, group_bits=2)
    assert config.value_bits == 80
    assert config.num_groups == 40
    config3 = StoreConfig(value_len=10, group_bits=3)
    assert config3.num_groups == 27  # ceil(80 / 3)


def test_config_pad_behaviour():
    config = StoreConfig(value_len=8)
    assert config.pad(b"abc") == b"abc" + bytes(5)
    assert config.pad(b"x" * 8) == b"x" * 8
    with pytest.raises(errors.ConfigurationError):
        config.pad(b"x" * 9)


def test_config_validation():
    with pytest.raises(errors.ConfigurationError):
        StoreConfig(value_len=0)
    with pytest.raises(errors.ConfigurationError):
        StoreConfig(value_len=8, label_bits=12)
    with pytest.raises(errors.ConfigurationError):
        StoreConfig(value_len=8, group_bits=0)


def test_config_point_and_permute_needs_one_byte_slot_index():
    """The permuted slot index travels as one byte, so y <= 8."""
    with pytest.raises(errors.ConfigurationError):
        StoreConfig(value_len=2, group_bits=9, point_and_permute=True)
    StoreConfig(value_len=2, group_bits=9)  # base protocol has no slot byte


@pytest.mark.parametrize("batched", [True, False])
def test_point_and_permute_at_largest_group_size(batched):
    """y = 8 is the widest point-and-permute table; its slot bytes fit.

    Driven through prepare/process/finalize directly: the wire request's
    one-byte table-size header cannot encode a 256-entry table.
    """
    from repro.core.lbl import LblOrtoa
    from repro.types import Request

    config = StoreConfig(value_len=2, group_bits=8, point_and_permute=True)
    store = LblOrtoa(config, batched=batched)
    store.initialize({"k": b"\x01\xfe"})
    for request, expected in (
        (Request.read("k"), b"\x01\xfe"),
        (Request.write("k", b"\xff\x00"), b"\xff\x00"),
        (Request.read("k"), b"\xff\x00"),
    ):
        lbl_request, _ = store.proxy.prepare(request)
        response, _ = store.server.process(lbl_request)
        assert store.proxy.finalize("k", response)[0] == expected


# --------------------------------------------------------------------- #
# Stats and samples
# --------------------------------------------------------------------- #

def test_access_stats_record_and_merge():
    a = AccessStats()
    a.record_op(Operation.READ)
    a.record_op(Operation.WRITE)
    a.bytes_sent = 100
    b = AccessStats(requests=3, reads=3, bytes_sent=50)
    merged = a.merged_with(b)
    assert merged.requests == 5
    assert merged.reads == 4
    assert merged.writes == 1
    assert merged.bytes_sent == 150
    # merging is non-destructive
    assert a.requests == 2 and b.requests == 3


def test_latency_sample_arithmetic():
    sample = LatencySample(Operation.READ, start_ms=10.0, end_ms=35.5)
    assert sample.latency_ms == pytest.approx(25.5)
