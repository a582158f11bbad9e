"""Load dispatch policy: which addresses the NIC DRAM may cache.

Section 3.3.4: "We adopt a hybrid solution to use the DRAM as a cache for a
fixed portion of the KVS in host memory.  The cache-able part is determined
by the hash of memory address, in granularity of 64 bytes.  The hash
function is selected so that a bucket in hash index and a dynamically
allocated slab have an equal probability of being cache-able."

The *load dispatch ratio* ``l`` is the fraction of host memory that is
cacheable.  The optimal ``l`` balances traffic so that::

    DRAM load / PCIe load = tput_DRAM / tput_PCIe

where DRAM serves cache hits (plus fills) and PCIe serves the bypass
portion plus cache misses.

The per-line test has one definition: a line is cacheable when its 32-bit
multiplicative hash ``(line * LINE_HASH_MULTIPLIER) & LINE_HASH_MASK`` is
below :attr:`LoadDispatcher.threshold`, ``ratio * 2**32``.  Both scalings
by a power of two are exact, so this compares exactly like ``hash / 2**32
< ratio``; the memory access engine evaluates it in place, once per line,
without a call.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import ConfigurationError

#: Knuth's multiplicative hash constant (2^32 / phi).
LINE_HASH_MULTIPLIER = 2654435761
LINE_HASH_MASK = (1 << 32) - 1


class LoadDispatcher:
    """Partitions the address space by hash into cacheable vs. bypass."""

    def __init__(self, load_dispatch_ratio: float) -> None:
        if not 0.0 <= load_dispatch_ratio <= 1.0:
            raise ConfigurationError(
                f"load dispatch ratio must be in [0, 1]: {load_dispatch_ratio}"
            )
        self.ratio = load_dispatch_ratio
        #: A line of ``CACHE_LINE_SIZE`` bytes is cacheable when its 32-bit
        #: hash is below this.
        self.threshold = load_dispatch_ratio * (LINE_HASH_MASK + 1)


def uniform_hit_rate(k: float, l: float) -> float:
    """Cache hit probability under a uniform workload.

    ``h(l) = k / l`` where ``k`` is NIC:host memory size ratio, clipped to 1
    (when the cacheable corpus fits entirely in NIC DRAM).
    """
    if not 0 < k:
        raise ValueError("k must be positive")
    if l <= 0:
        return 1.0  # nothing is cacheable; vacuous
    return min(1.0, k / l)


def longtail_hit_rate(k: float, l: float, n: float) -> float:
    """Cache hit probability under a Zipf long-tail workload.

    ``h(l) = log(k n) / log(l n)`` with ``n`` total KVs (section 3.3.4);
    e.g. ~0.7 with a 1M-entry cache over a 1G corpus.
    """
    if k <= 0 or n <= 1:
        raise ValueError("k must be positive and n > 1")
    if l <= 0:
        return 1.0
    if k >= l:
        return 1.0
    cache_entries = max(k * n, 2.0)
    corpus_entries = max(l * n, cache_entries)
    return min(1.0, math.log(cache_entries) / math.log(corpus_entries))


def optimal_dispatch_ratio(
    tput_dram: float,
    tput_pcie: float,
    hit_rate: Callable[[float], float],
    resolution: int = 1000,
) -> float:
    """Numerically solve for the load dispatch ratio ``l``.

    Balances ``DRAM load / PCIe load = tput_dram / tput_pcie`` where, per
    unit of total traffic, DRAM serves the cacheable hits ``l * h(l)`` and
    PCIe serves the bypass plus misses ``(1 - l) + l * (1 - h(l))``.
    """
    if tput_dram <= 0 or tput_pcie <= 0:
        raise ValueError("throughputs must be positive")
    target = tput_dram / tput_pcie
    best_l, best_err = 0.0, math.inf
    for i in range(1, resolution):
        l = i / resolution
        h = hit_rate(l)
        dram_load = l * h
        pcie_load = (1.0 - l) + l * (1.0 - h)
        if pcie_load <= 0:
            ratio = math.inf
        else:
            ratio = dram_load / pcie_load
        err = abs(ratio - target)
        if err < best_err:
            best_err, best_l = err, l
    return best_l
