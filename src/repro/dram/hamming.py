"""A working Hamming SEC-DED codec for the ECC DRAM model.

Section 4 rests on real ECC arithmetic: "For Hamming code to correct one
bit of error in 64 bits of data, only 7 additional bits are required.  The
8th ECC bit is a parity bit for detecting double-bit errors."  This module
implements that code for real - encode, decode, single-error correction,
double-error detection - so the spare-bit budget the DRAM cache metadata
lives in (:mod:`repro.dram.ecc`) is demonstrated, not asserted.

Layout: classic Hamming positions 1..n with parity bits at powers of two,
plus one overall parity bit for double-error detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from repro.dram.ecc import hamming_parity_bits
from repro.errors import KVDirectError


class DecodeStatus(Enum):
    """Outcome of decoding a possibly corrupted word."""

    CLEAN = "clean"
    CORRECTED = "corrected"  # single-bit error fixed
    DOUBLE_ERROR = "double_error"  # detected, uncorrectable


@dataclass(frozen=True)
class DecodeResult:
    data: int
    status: DecodeStatus
    #: 1-based codeword position of a corrected bit (0 if none).
    corrected_position: int = 0


class HammingSECDED:
    """SEC-DED codec over ``data_bits``-bit words (default 64)."""

    def __init__(self, data_bits: int = 64) -> None:
        if data_bits <= 0:
            raise KVDirectError("data_bits must be positive")
        self.data_bits = data_bits
        self.parity_bits = hamming_parity_bits(data_bits)
        #: Codeword length without the overall parity bit.
        self.code_bits = data_bits + self.parity_bits
        #: Total stored bits including the overall (DED) parity.
        self.total_bits = self.code_bits + 1
        # Precompute which codeword positions (1-based) hold data.
        self._data_positions = [
            pos
            for pos in range(1, self.code_bits + 1)
            if pos & (pos - 1) != 0  # not a power of two
        ]
        assert len(self._data_positions) == data_bits

    # -- encoding --------------------------------------------------------------

    def encode(self, data: int) -> int:
        """Encode a data word into a SEC-DED codeword."""
        if data < 0 or data >= 1 << self.data_bits:
            raise KVDirectError(
                f"data does not fit {self.data_bits} bits: {data}"
            )
        codeword = 0
        for i, pos in enumerate(self._data_positions):
            if (data >> i) & 1:
                codeword |= 1 << (pos - 1)
        # Parity bits: parity P_k at position 2^k covers positions with
        # bit k set in their index.
        for k in range(self.parity_bits):
            parity_pos = 1 << k
            parity = 0
            for pos in range(1, self.code_bits + 1):
                if pos & parity_pos and pos != parity_pos:
                    parity ^= (codeword >> (pos - 1)) & 1
            if parity:
                codeword |= 1 << (parity_pos - 1)
        # Overall parity for double-error detection.
        overall = bin(codeword).count("1") & 1
        if overall:
            codeword |= 1 << self.code_bits
        return codeword

    # -- decoding ----------------------------------------------------------------

    def decode(self, codeword: int) -> DecodeResult:
        """Decode, correcting one flipped bit or flagging two."""
        if codeword < 0 or codeword >= 1 << self.total_bits:
            raise KVDirectError("codeword out of range")
        syndrome = 0
        for k in range(self.parity_bits):
            parity_pos = 1 << k
            parity = 0
            for pos in range(1, self.code_bits + 1):
                if pos & parity_pos:
                    parity ^= (codeword >> (pos - 1)) & 1
            if parity:
                syndrome |= parity_pos
        overall = bin(codeword & ((1 << self.total_bits) - 1)).count("1") & 1

        if syndrome == 0 and overall == 0:
            return DecodeResult(self._extract(codeword), DecodeStatus.CLEAN)
        if overall == 1:
            # Odd number of flipped bits: a single error, correctable.
            if syndrome == 0:
                # The overall parity bit itself flipped.
                fixed = codeword ^ (1 << self.code_bits)
                return DecodeResult(
                    self._extract(fixed),
                    DecodeStatus.CORRECTED,
                    corrected_position=self.total_bits,
                )
            if syndrome > self.code_bits:
                # Syndrome points outside the word: treat as detected.
                return DecodeResult(0, DecodeStatus.DOUBLE_ERROR)
            fixed = codeword ^ (1 << (syndrome - 1))
            return DecodeResult(
                self._extract(fixed),
                DecodeStatus.CORRECTED,
                corrected_position=syndrome,
            )
        # Even parity but nonzero syndrome: two bits flipped.
        return DecodeResult(0, DecodeStatus.DOUBLE_ERROR)

    def _extract(self, codeword: int) -> int:
        data = 0
        for i, pos in enumerate(self._data_positions):
            if (codeword >> (pos - 1)) & 1:
                data |= 1 << i
        return data

    # -- convenience -----------------------------------------------------------------

    def flip(self, codeword: int, position: int) -> int:
        """Flip a 1-based bit position (test helper / fault injection)."""
        if not 1 <= position <= self.total_bits:
            raise KVDirectError(f"position outside codeword: {position}")
        return codeword ^ (1 << (position - 1))

    def corrupt(self, codeword: int, positions: Iterable[int]) -> int:
        """Flip several distinct 1-based positions (fault injection).

        Duplicate positions are rejected: flipping the same bit twice is a
        no-op and would make an intended double-error a clean word.
        """
        seen = set()
        for position in positions:
            if position in seen:
                raise KVDirectError(
                    f"duplicate corruption position: {position}"
                )
            seen.add(position)
            codeword = self.flip(codeword, position)
        return codeword
