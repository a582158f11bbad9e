"""ECC spare-bit metadata storage (section 4, "DRAM Load Dispatcher").

The DRAM cache needs 4 address (tag) bits and one dirty flag per 64-byte
cache line.  Extending lines to 65 bytes would misalign DRAM accesses, and
storing metadata elsewhere would double memory accesses.  The paper instead
repurposes spare ECC bits:

- ECC DRAM provides 8 ECC bits per 64 data bits: 64 ECC bits per 64 B line.
- Hamming single-error correction of a 64-bit word needs only 7 bits; the
  8th is a parity bit for double-error *detection*.
- Coarsening parity granularity from 64 data bits to 256 data bits keeps
  double-bit-error detection while freeing 8 - 64/256*8... i.e. the line's
  8 parity bits shrink to 2, leaving **6 spare bits** - enough for the 5
  metadata bits.

This module computes that arithmetic from first principles and packs/unpacks
metadata into the spare-bit budget with hard capacity checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


def hamming_parity_bits(data_bits: int) -> int:
    """Parity bits for single-error correction of ``data_bits`` data bits.

    Smallest ``r`` with ``2**r >= data_bits + r + 1``.
    """
    if data_bits <= 0:
        raise ValueError(f"data_bits must be positive: {data_bits}")
    r = 1
    while (1 << r) < data_bits + r + 1:
        r += 1
    return r


@dataclass(frozen=True)
class ECCLineLayout:
    """ECC bit budget of one cache line.

    Defaults describe the paper's configuration: 64 B lines, 8 ECC bits per
    64 data bits, parity granularity widened from 64 to 256 data bits.
    """

    line_bytes: int = 64
    ecc_bits_per_word: int = 8
    word_bits: int = 64
    parity_granularity_bits: int = 256

    def __post_init__(self) -> None:
        if self.line_bytes * 8 % self.word_bits:
            raise ConfigurationError("line size must be whole ECC words")
        if self.parity_granularity_bits % self.word_bits:
            raise ConfigurationError(
                "parity granularity must be a multiple of the word size"
            )
        needed = hamming_parity_bits(self.word_bits)
        if needed + 1 > self.ecc_bits_per_word:
            raise ConfigurationError(
                f"ECC budget too small: Hamming needs {needed} bits per "
                f"{self.word_bits}-bit word plus 1 parity"
            )

    @property
    def words_per_line(self) -> int:
        return self.line_bytes * 8 // self.word_bits

    @property
    def total_ecc_bits(self) -> int:
        return self.words_per_line * self.ecc_bits_per_word

    @property
    def correction_bits(self) -> int:
        """Bits dedicated to per-word single-error correction."""
        return self.words_per_line * hamming_parity_bits(self.word_bits)

    @property
    def parity_bits(self) -> int:
        """Double-error-detection parity bits at the widened granularity."""
        line_bits = self.line_bytes * 8
        return line_bits // self.parity_granularity_bits

    @property
    def spare_bits(self) -> int:
        """Bits left for metadata after correction + widened parity."""
        return self.total_ecc_bits - self.correction_bits - self.parity_bits

    def check_metadata_fits(self, metadata_bits: int) -> None:
        if metadata_bits > self.spare_bits:
            raise ConfigurationError(
                f"need {metadata_bits} metadata bits but only "
                f"{self.spare_bits} spare ECC bits per line"
            )


class ECCMetadataCodec:
    """Packs cache-line metadata (tag + dirty flag) into spare ECC bits."""

    def __init__(self, tag_bits: int, layout: ECCLineLayout = ECCLineLayout()):
        if tag_bits < 0:
            raise ConfigurationError("tag_bits must be non-negative")
        self.tag_bits = tag_bits
        self.layout = layout
        layout.check_metadata_fits(tag_bits + 1)
