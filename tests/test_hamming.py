"""Tests for the Hamming SEC-DED codec, including fault injection."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.hamming import DecodeStatus, HammingSECDED
from repro.errors import KVDirectError


@pytest.fixture(scope="module")
def codec():
    return HammingSECDED(data_bits=64)


class TestGeometry:
    def test_paper_bit_budget(self, codec):
        """7 correction bits + 1 parity bit per 64 data bits (section 4)."""
        assert codec.parity_bits == 7
        assert codec.total_bits == 72  # the classic (72, 64) DRAM code

    def test_small_codes(self):
        assert HammingSECDED(4).parity_bits == 3  # Hamming(7,4) + parity
        assert HammingSECDED(11).parity_bits == 4

    def test_invalid(self):
        with pytest.raises(KVDirectError):
            HammingSECDED(0)


class TestCleanPath:
    def test_roundtrip_simple(self, codec):
        for data in (0, 1, 0xDEADBEEF, (1 << 64) - 1):
            result = codec.decode(codec.encode(data))
            assert result.status is DecodeStatus.CLEAN
            assert result.data == data

    def test_out_of_range(self, codec):
        with pytest.raises(KVDirectError):
            codec.encode(1 << 64)
        with pytest.raises(KVDirectError):
            codec.encode(-1)
        with pytest.raises(KVDirectError):
            codec.decode(1 << 72)

    @given(st.integers(0, (1 << 64) - 1))
    @settings(max_examples=50)
    def test_roundtrip_property(self, data):
        codec = HammingSECDED(64)
        result = codec.decode(codec.encode(data))
        assert result.status is DecodeStatus.CLEAN
        assert result.data == data


class TestSingleErrorCorrection:
    def test_every_position_correctable(self, codec):
        """Any one flipped bit - data, parity, or overall - is fixed."""
        data = 0x0123456789ABCDEF
        codeword = codec.encode(data)
        for position in range(1, codec.total_bits + 1):
            corrupted = codec.flip(codeword, position)
            result = codec.decode(corrupted)
            assert result.status is DecodeStatus.CORRECTED
            assert result.data == data
            assert result.corrected_position == position

    @given(st.integers(0, (1 << 64) - 1), st.integers(1, 72))
    @settings(max_examples=60)
    def test_single_flip_property(self, data, position):
        codec = HammingSECDED(64)
        corrupted = codec.flip(codec.encode(data), position)
        result = codec.decode(corrupted)
        assert result.status is DecodeStatus.CORRECTED
        assert result.data == data


class TestDoubleErrorDetection:
    def test_two_flips_detected(self, codec):
        data = 0xCAFEBABE12345678
        codeword = codec.encode(data)
        rng = random.Random(1)
        for __ in range(100):
            a = rng.randint(1, codec.total_bits)
            b = rng.randint(1, codec.total_bits)
            if a == b:
                continue
            corrupted = codec.flip(codec.flip(codeword, a), b)
            result = codec.decode(corrupted)
            assert result.status is DecodeStatus.DOUBLE_ERROR

    @given(
        st.integers(0, (1 << 64) - 1),
        st.integers(1, 72),
        st.integers(1, 72),
    )
    @settings(max_examples=60)
    def test_double_flip_property(self, data, a, b):
        if a == b:
            return
        codec = HammingSECDED(64)
        corrupted = codec.flip(codec.flip(codec.encode(data), a), b)
        assert codec.decode(corrupted).status is DecodeStatus.DOUBLE_ERROR


class TestFlipHelper:
    def test_flip_is_involution(self, codec):
        codeword = codec.encode(42)
        assert codec.flip(codec.flip(codeword, 5), 5) == codeword

    def test_flip_bounds(self, codec):
        with pytest.raises(KVDirectError):
            codec.flip(0, 0)
        with pytest.raises(KVDirectError):
            codec.flip(0, 73)
