"""Resident memory follows the bytes a run writes, not the size it models.

The host image, the NIC-DRAM cache tags and the slab free pool take no
memory until an operation touches them, so building a store is cheap at
any modelled size.  Linux only: the footprint is ``VmRSS`` from
``/proc/self/status``.
"""

import sys

import pytest

from repro import constants
from repro.core.config import KVDirectConfig
from repro.core.processor import KVProcessor
from repro.core.store import KVDirectStore
from repro.errors import ConfigurationError
from repro.sim import Simulator

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="reads VmRSS from /proc/self/status",
)

#: Growth allowed while a store and its processor are built, whatever
#: their modelled size.
BUDGET_MIB = 64


def vm_rss_mib() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise AssertionError("no VmRSS line")  # pragma: no cover


def test_a_1_gib_store_and_its_processor_stay_small():
    before = vm_rss_mib()
    store = KVDirectStore.create(memory_size=1 << 30)
    processor = KVProcessor(Simulator(), store)
    grown = vm_rss_mib() - before
    assert grown < BUDGET_MIB, f"+{grown:.0f} MiB to build a 1 GiB store"
    # Written pages, and only they, become resident; the store works.
    assert store.put(b"key", b"v" * 200)
    assert store.get(b"key") == b"v" * 200
    assert processor.cache.occupancy() == 0.0
    assert vm_rss_mib() - before < BUDGET_MIB


def test_paper_scale_builds_or_is_refused_as_a_configuration_error():
    """64 GiB of host KVS: built if the OS grants the reservation, and if
    not, a ConfigurationError that names the size - never an OSError or a
    MemoryError."""
    before = vm_rss_mib()
    try:
        store = KVDirectStore(KVDirectConfig.paper_scale())
    except ConfigurationError as exc:
        assert str(constants.HOST_KVS_SIZE) in str(exc)
        return
    grown = vm_rss_mib() - before
    assert grown < BUDGET_MIB, f"+{grown:.0f} MiB to build 64 GiB"
    assert store.put(b"key", b"value") and store.get(b"key") == b"value"
