"""Unit and property tests for the primitive codecs."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serde.codec import (
    decode_bytes,
    decode_i64,
    decode_u32,
    decode_u64,
    decode_varint,
    encode_bytes,
    encode_i64,
    encode_u32,
    encode_u64,
    encode_varint,
)


def reference_leb128(value: int) -> bytes:
    """Plain unsigned LEB128, byte by byte, for differential checks."""
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        out.append(byte | (0x80 if value else 0))
        if not value:
            return bytes(out)


class TestVarint:
    @pytest.mark.parametrize("value,expected", [
        (0, b"\x00"),
        (1, b"\x01"),
        (127, b"\x7f"),
        (128, b"\x80\x01"),
        (300, b"\xac\x02"),
        (2**63 - 1, b"\xff" * 8 + b"\x7f"),
    ])
    def test_known_encodings(self, value, expected):
        # 0, 127 and 128 bracket the single-byte fast paths.
        assert encode_varint(value) == expected
        assert decode_varint(expected) == (value, len(expected))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_truncated_raises(self):
        with pytest.raises(ValueError):
            decode_varint(b"\x80")

    def test_overlong_raises(self):
        with pytest.raises(ValueError, match="too long"):
            decode_varint(b"\xff" * 11)
        with pytest.raises(ValueError, match="too long"):
            decode_bytes(b"\x80" * 10 + b"\x01")

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_round_trip(self, value):
        encoded = encode_varint(value)
        decoded, pos = decode_varint(encoded)
        assert decoded == value
        assert pos == len(encoded)

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=50))
    def test_round_trip_with_offset(self, value, pad):
        data = b"\xaa" * pad + encode_varint(value)
        decoded, pos = decode_varint(data, pad)
        assert decoded == value
        assert pos == len(data)


    def test_truncated_at_end_of_data_raises(self):
        for data in (b"", b"\x05", b"\x05\x80\x01"):
            with pytest.raises(ValueError, match="truncated varint"):
                decode_varint(data, len(data))
            with pytest.raises(ValueError, match="truncated varint"):
                decode_bytes(data, len(data))

    @given(
        st.one_of(
            st.integers(min_value=0, max_value=0x80),
            st.integers(min_value=0, max_value=2**63 - 1),
        ),
        st.binary(max_size=8),
    )
    def test_matches_reference_leb128(self, value, prefix):
        encoded = encode_varint(value)
        assert encoded == reference_leb128(value)
        data = prefix + encoded
        assert decode_varint(data, len(prefix)) == (value, len(data))


class TestBytes:
    def test_empty(self):
        encoded = encode_bytes(b"")
        assert decode_bytes(encoded) == (b"", len(encoded))

    @pytest.mark.parametrize("length", [0, 0x7F, 0x80])
    def test_length_prefix_fast_path_boundaries(self, length):
        payload = bytes(range(length))
        data = b"\xaa" + encode_bytes(payload)
        assert decode_bytes(data, 1) == (payload, len(data))

    def test_truncated_raises(self):
        encoded = encode_bytes(b"hello")
        with pytest.raises(ValueError):
            decode_bytes(encoded[:-1])

    @given(st.binary(max_size=1000))
    def test_round_trip(self, payload):
        encoded = encode_bytes(payload)
        decoded, pos = decode_bytes(encoded)
        assert decoded == payload
        assert pos == len(encoded)

    @given(st.lists(st.binary(max_size=100), max_size=20))
    def test_concatenation_parses_in_order(self, payloads):
        data = b"".join(encode_bytes(p) for p in payloads)
        out = []
        pos = 0
        while pos < len(data):
            payload, pos = decode_bytes(data, pos)
            out.append(payload)
        assert out == payloads


class TestFixedWidth:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_u32_round_trip(self, value):
        assert decode_u32(encode_u32(value)) == (value, 4)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_u64_round_trip(self, value):
        assert decode_u64(encode_u64(value)) == (value, 8)

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_i64_round_trip(self, value):
        assert decode_i64(encode_i64(value)) == (value, 8)
