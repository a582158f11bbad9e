"""Memory substrate: host memory images, NIC on-board DRAM, ECC metadata.

The *functional* layer stores real bytes (:class:`MemoryImage`) and counts
every access; the *timing* layer models channel bandwidth and latency
(:class:`NICDram`).  The ECC module reproduces the paper's trick of storing
cache metadata in spare ECC bits (section 4, "DRAM Load Dispatcher").
"""

from repro.dram.cache import CacheStats, DramCache
from repro.dram.ecc import ECCLineLayout, hamming_parity_bits
from repro.dram.hamming import DecodeStatus, HammingSECDED
from repro.dram.host import MemoryImage
from repro.dram.nic import NICDram

__all__ = [
    "CacheStats",
    "DecodeStatus",
    "DramCache",
    "ECCLineLayout",
    "HammingSECDED",
    "MemoryImage",
    "NICDram",
    "hamming_parity_bits",
]
