"""Golden vectors + batch-vs-scalar cross-checks for the crypto kernels.

The batched fast paths (precomputed HMAC key state, fused label derivation,
batch AEAD) must be drop-in: byte-identical to the constructions they
replace.  Two independent nets catch a silent change:

* **pinned vectors** — exact outputs of :meth:`Prf.evaluate`,
  :meth:`LabelCodec.label`, and :func:`aead.encrypt` (fixed nonce), plus a
  live re-derivation of each from the *stdlib* ``hmac`` module, so a vector
  can only move if the documented construction itself changes;
* **Hypothesis cross-checks** — every batch entry point agrees with its
  scalar counterpart on arbitrary inputs.
"""

from __future__ import annotations

import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import aead
from repro.crypto.labels import LabelCodec
from repro.crypto.prf import Prf, PrfContext, encode_components, hmac_sha256_pair

# --------------------------------------------------------------------- #
# Stdlib references for the documented constructions
# --------------------------------------------------------------------- #


def _ref_prf(key: bytes, components: tuple, out_bytes: int) -> bytes:
    """RFC 2104 HMAC-SHA256 expand-and-truncate via the stdlib only."""
    message = encode_components(*components)
    out = b""
    counter = 0
    while len(out) < out_bytes:
        block = hmac.new(
            key, counter.to_bytes(4, "big") + message, hashlib.sha256
        ).digest()
        out += block
        counter += 1
    return out[:out_bytes]


def _ref_encrypt(key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """The documented AEAD: domain-separated HMAC keystream + truncated tag."""
    keystream = b""
    counter = 0
    while len(keystream) < len(plaintext):
        keystream += hmac.new(
            key, b"aead-enc" + nonce + counter.to_bytes(4, "big"), hashlib.sha256
        ).digest()
        counter += 1
    body = bytes(p ^ k for p, k in zip(plaintext, keystream))
    tag = hmac.new(key, b"aead-mac" + nonce + body, hashlib.sha256).digest()[:16]
    return nonce + body + tag


# --------------------------------------------------------------------- #
# Pinned vectors
# --------------------------------------------------------------------- #

_PRF_KEY = bytes(range(32))
_PRF16_VECTOR = bytes.fromhex("9d82c4c8b2446fe0c51bfb4124cef4c6")
_PRF48_VECTOR = bytes.fromhex(
    "ebde6f4e985cefde836f68d3c658e98dfe79698f062bac4a9c344c6876a91792"
    "27848d77f07f933c8a11ff0c70798110"
)
_LABEL_VECTOR = bytes.fromhex("aed0dee39cee3c6c5c3e4b40d74b25cd")
_HMAC_RFC4231_CASE1 = bytes.fromhex(
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
)
_AEAD_KEY = b"k" * 16
_AEAD_PLAINTEXT = b"hello world label"
_AEAD_VECTOR = bytes.fromhex(
    "00000000000000000000000033b7dab508d89c4da72c107b77b07062"
    "a53d5281cb5e812fa1e5ebed11ae8851b9"
)


def test_prf_vector_single_block():
    assert Prf(_PRF_KEY, out_bytes=16).evaluate("label", "key-0", 3, 1, 42) == (
        _PRF16_VECTOR
    )
    assert _ref_prf(_PRF_KEY, ("label", "key-0", 3, 1, 42), 16) == _PRF16_VECTOR


def test_prf_vector_multi_block():
    """48 output bytes span two SHA-256 blocks (the counter-expansion path)."""
    assert Prf(_PRF_KEY, out_bytes=48).evaluate("x") == _PRF48_VECTOR
    assert _ref_prf(_PRF_KEY, ("x",), 48) == _PRF48_VECTOR


def test_label_vector():
    codec = LabelCodec(
        Prf(b"\x01" * 32, out_bytes=16),
        Prf(b"\x02" * 32, out_bytes=16),
        value_len=4,
        group_bits=2,
    )
    assert codec.label("obj", 2, 1, 7) == _LABEL_VECTOR


def test_hmac_rfc4231_case1():
    """Both hand-rolled RFC 2104 forms reproduce RFC 4231 test case 1."""
    key, message = b"\x0b" * 20, b"Hi There"
    expected = _HMAC_RFC4231_CASE1
    inner, outer = hmac_sha256_pair(key)
    inner.update(message)
    outer.update(inner.digest())
    assert outer.digest() == expected
    ipad, opad = aead.key_schedule(key)
    assert (
        hashlib.sha256(opad + hashlib.sha256(ipad + message).digest()).digest()
        == expected
    )


def test_aead_vector_fixed_nonce():
    ct = aead.encrypt(_AEAD_KEY, _AEAD_PLAINTEXT, nonce=bytes(12))
    assert ct == _AEAD_VECTOR
    assert _ref_encrypt(_AEAD_KEY, _AEAD_PLAINTEXT, bytes(12)) == _AEAD_VECTOR
    assert aead.decrypt(_AEAD_KEY, ct) == _AEAD_PLAINTEXT


# --------------------------------------------------------------------- #
# Hypothesis: batch entry points == scalar counterparts
# --------------------------------------------------------------------- #

_keys = st.binary(min_size=16, max_size=64)
_components = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=2**31),
        st.binary(max_size=24),
        st.text(max_size=12),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=50, deadline=None)
@given(key=_keys, message=st.binary(max_size=200), out_bytes=st.sampled_from([8, 16, 32, 48, 80]))
def test_prf_matches_stdlib_hmac(key, message, out_bytes):
    """The manual two-stage HMAC is exactly RFC 2104 at every output size."""
    assert Prf(key, out_bytes=out_bytes).evaluate(message) == _ref_prf(
        key, (message,), out_bytes
    )


@settings(max_examples=30, deadline=None)
@given(key=_keys, suffixes=st.lists(_components, min_size=1, max_size=8))
def test_evaluate_many_matches_scalar(key, suffixes):
    prf = Prf(key, out_bytes=16)
    batch = prf.evaluate_many(("prefix", 7), suffixes)
    scalar = [prf.evaluate("prefix", 7, *suffix) for suffix in suffixes]
    assert batch == scalar


@settings(max_examples=30, deadline=None)
@given(key=_keys, tails=st.lists(st.binary(max_size=40), min_size=1, max_size=8))
def test_context_tails_match_scalar(key, tails):
    prf = Prf(key, out_bytes=16)
    ctx = prf.context("ctx-prefix")
    batch = ctx.evaluate_tails(tails)
    assert batch == [ctx.evaluate_tail(tail) for tail in tails]


@settings(max_examples=30, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.binary(min_size=16, max_size=32), st.binary(max_size=64)),
        min_size=1,
        max_size=8,
    )
)
def test_encrypt_many_matches_scalar(entries):
    keys = [key for key, _ in entries]
    payloads = [payload for _, payload in entries]
    nonces = [bytes([i]) * aead.NONCE_LEN for i in range(len(entries))]
    batch = aead.encrypt_many(keys, payloads, nonces=nonces)
    scalar = [
        aead.encrypt(key, payload, nonce=nonce)
        for key, payload, nonce in zip(keys, payloads, nonces)
    ]
    assert batch == scalar
    for key, ciphertext, payload in zip(keys, batch, payloads):
        assert aead.decrypt(key, ciphertext) == payload


@settings(max_examples=30, deadline=None)
@given(
    keys=st.lists(st.binary(min_size=16, max_size=32), min_size=2, max_size=6, unique=True),
    winner=st.integers(min_value=0, max_value=5),
    payload=st.binary(min_size=1, max_size=64),
)
def test_open_any_matches_try_decrypt(keys, winner, payload):
    winner %= len(keys)
    table = [aead.encrypt(key, payload) for key in keys]
    hit = aead.open_any(keys[winner], table)
    assert hit == (winner, payload)
    scalar = next(
        (
            (index, aead.try_decrypt(keys[winner], ciphertext))
            for index, ciphertext in enumerate(table)
            if aead.try_decrypt(keys[winner], ciphertext) is not None
        ),
        None,
    )
    assert scalar == hit


@settings(max_examples=30, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.binary(min_size=16, max_size=80),
            st.binary(max_size=64),
            st.booleans(),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_open_many_matches_try_decrypt(entries):
    """Batched opens give try_decrypt's verdict per pair, wrong keys too."""
    keys = [key for key, _, _ in entries]
    ciphertexts = [
        aead.encrypt(key if right else key[::-1] + b"x", payload)
        for key, payload, right in entries
    ]
    assert aead.open_many(keys, ciphertexts) == [
        aead.try_decrypt(key, ciphertext)
        for key, ciphertext in zip(keys, ciphertexts)
    ]


@settings(max_examples=20, deadline=None)
@given(
    value_len=st.sampled_from([1, 4, 20]),
    group_bits=st.sampled_from([1, 2, 4]),
    counter=st.integers(min_value=0, max_value=1000),
)
def test_labels_for_groups_matches_scalar(value_len, group_bits, counter):
    codec = LabelCodec(
        Prf(b"\x03" * 32, out_bytes=16),
        Prf(b"\x04" * 32, out_bytes=16),
        value_len=value_len,
        group_bits=group_bits,
    )
    rows = codec.labels_for_groups("some-key", counter)
    assert rows == [
        codec.labels_for_group("some-key", index, counter)
        for index in range(codec.num_groups)
    ]


@settings(max_examples=20, deadline=None)
@given(counter=st.integers(min_value=0, max_value=1000))
def test_permute_offsets_match_scalar(counter):
    codec = LabelCodec(
        Prf(b"\x05" * 32, out_bytes=16),
        Prf(b"\x06" * 32, out_bytes=16),
        value_len=8,
        group_bits=2,
    )
    offsets = codec.permute_offsets("some-key", counter)
    assert offsets == [
        codec.permute_offset("some-key", index, counter)
        for index in range(codec.num_groups)
    ]


def test_prf_context_class_exported():
    """PrfContext is part of the public kernel API."""
    ctx = Prf(b"\x07" * 32, out_bytes=16).context("p")
    assert isinstance(ctx, PrfContext)
