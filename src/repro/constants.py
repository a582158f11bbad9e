"""Hardware constants from the KV-Direct paper (SOSP 2017).

Every number in this module is taken from the paper text (sections 2.3, 2.4,
4, and 5) or from the testbed description.  They parameterize the simulation
models; changing them here re-calibrates every benchmark consistently.

Units: sizes in bytes, time in nanoseconds, bandwidth in bytes/second unless
a suffix says otherwise.
"""

# --------------------------------------------------------------------------
# KV processor (FPGA) clock
# --------------------------------------------------------------------------

#: KV processor clock frequency (Hz).  "With 180 MHz clock frequency, our
#: design can process KV operations at 180 M op/s" (section 4).
KV_CLOCK_HZ = 180_000_000

#: In-flight KV operations needed to saturate PCIe/DRAM (section 3.3.3).
MAX_INFLIGHT_OPS = 256

#: Reservation station hash slots; sized so collision probability < 25 %.
RESERVATION_STATION_SLOTS = 1024

# --------------------------------------------------------------------------
# PCIe Gen3 x8 endpoint (sections 2.4 and 4)
# --------------------------------------------------------------------------

#: Theoretical bandwidth of one PCIe Gen3 x8 endpoint (bytes/s).
PCIE_GEN3_X8_BANDWIDTH = 7.87e9

#: Number of PCIe Gen3 x8 links on the NIC (bifurcated x16 connector).
PCIE_LINK_COUNT = 2

#: Achievable combined bandwidth of both endpoints (section 2.4: 13.2 GB/s).
PCIE_ACHIEVABLE_BANDWIDTH = 13.2e9

#: TLP header + padding per DMA request for 64-bit addressing (bytes).
PCIE_TLP_OVERHEAD = 26

#: PCIe round-trip latency of the fabric itself (ns).
PCIE_FABRIC_RTT_NS = 500

#: Cached DMA read round-trip latency seen by the FPGA (ns); includes FPGA
#: processing delay on top of the 500 ns fabric RTT.
PCIE_DMA_READ_CACHED_NS = 800

#: Additional average latency for random non-cached DMA reads (ns): host DRAM
#: access, refresh, and response reordering in the DMA engine.
PCIE_DMA_READ_RANDOM_EXTRA_NS = 250

#: Maximum extra spread of the random component (ns); Figure 3b's CDF spans
#: roughly 800-1300 ns.
PCIE_DMA_READ_RANDOM_SPREAD_NS = 500

#: PCIe tags available in the FPGA DMA engine (limits read concurrency).
PCIE_DMA_TAGS = 64

#: Posted header credits advertised by the root complex (DMA writes).
PCIE_POSTED_CREDITS = 88

#: Non-posted header credits advertised by the root complex (DMA reads).
PCIE_NONPOSTED_CREDITS = 84

#: DMA requests in flight required to saturate one endpoint at 64 B.
PCIE_CONCURRENCY_FOR_SATURATION = 92

# --------------------------------------------------------------------------
# NIC on-board DRAM (sections 2.4, 3.3.4)
# --------------------------------------------------------------------------

#: NIC on-board DRAM capacity (bytes): 4 GiB DDR3-1600, single channel.
NIC_DRAM_SIZE = 4 * 1024**3

#: Host KVS memory per byte of NIC DRAM (64 GiB : 4 GiB): every simulated
#: store keeps the testbed's ratio at its own memory size.
HOST_TO_NIC_DRAM_RATIO = 16

#: NIC DRAM throughput (bytes/s).
NIC_DRAM_BANDWIDTH = 12.8e9

#: NIC DRAM access latency (ns) - on-board, much lower than PCIe.
NIC_DRAM_LATENCY_NS = 100

#: Cache line granularity of the DRAM cache / load dispatcher (bytes).
CACHE_LINE_SIZE = 64

# --------------------------------------------------------------------------
# Host memory (section 5 testbed)
# --------------------------------------------------------------------------

#: Host memory reserved for KV storage in the paper's experiments (bytes).
HOST_KVS_SIZE = 64 * 1024**3

#: Total host memory on the testbed server (bytes).
HOST_TOTAL_MEMORY = 128 * 1024**3

#: Measured 64 B random read latency of the host (ns), section 2.2.
HOST_RANDOM_READ_NS = 110

#: Host DRAM aggregate bandwidth (bytes/s) - 8 channels DDR3-1600 per the
#: testbed; used only for the CPU-impact model (Table 4).
HOST_DRAM_BANDWIDTH = 8 * 12.8e9

# --------------------------------------------------------------------------
# Network (sections 2.4, 4)
# --------------------------------------------------------------------------

#: Ethernet port speed (bits/s): 40 Gbps.
NETWORK_BANDWIDTH_BPS = 40e9

#: Ethernet port speed (bytes/s): 5 GB/s as the paper rounds it.
NETWORK_BANDWIDTH = 5e9

#: Network round-trip latency (ns): "higher latency (2 us)".
NETWORK_RTT_NS = 2000

#: RDMA write packet header + padding overhead over Ethernet (bytes).
RDMA_PACKET_OVERHEAD = 88

#: Maximum Ethernet frame payload the client packs KV operations into.
NETWORK_MTU = 1500

# --------------------------------------------------------------------------
# Hash table geometry (section 3.3.1)
# --------------------------------------------------------------------------

#: Hash bucket size (bytes); matched to the 64 B DMA sweet spot.
BUCKET_SIZE = 64

#: Hash slots per bucket.
SLOTS_PER_BUCKET = 10

#: Size of one hash slot (bytes): 31-bit pointer + 9-bit secondary hash.
SLOT_SIZE = 5

#: Pointer width in bits (addresses 64 GiB at 32 B granularity).
POINTER_BITS = 31

#: Secondary hash width in bits (1/512 false positive rate).
SECONDARY_HASH_BITS = 9

#: Slab-type bits per hash slot stored in bucket metadata.
SLAB_TYPE_BITS = 3

#: Default inline threshold (bytes): KVs at or below are stored in the index.
DEFAULT_INLINE_THRESHOLD = 20

#: Largest KV size that can ever be inlined (all 10 slots re-purposed).
MAX_INLINE_KV_SIZE = SLOTS_PER_BUCKET * SLOT_SIZE

# --------------------------------------------------------------------------
# Slab allocator (sections 3.3.2, 4)
# --------------------------------------------------------------------------

#: Minimum allocation granularity (bytes).
SLAB_MIN_SIZE = 32

#: Maximum slab size (bytes).
SLAB_MAX_SIZE = 512

#: All slab sizes: 32, 64, 128, 256, 512.
SLAB_SIZES = tuple(32 * 2**i for i in range(5))

#: Slab entries synced between NIC and host per DMA batch.  Amortized
#: "< 0.07 DMA operation per allocation" requires batches of >= ~16.
SLAB_SYNC_BATCH = 32

#: NIC-side slab stack capacity per size class (entries).
SLAB_NIC_STACK_CAPACITY = 256

# --------------------------------------------------------------------------
# Load dispatcher (section 3.3.4)
# --------------------------------------------------------------------------

#: Default load dispatch ratio used in Figure 14.
DEFAULT_LOAD_DISPATCH_RATIO = 0.5

#: Load dispatch ratio the system benchmark tunes to (section 5.2: 60 %).
TUNED_LOAD_DISPATCH_RATIO = 0.6

# --------------------------------------------------------------------------
# Workloads (section 5)
# --------------------------------------------------------------------------

#: Zipf skewness of the "long-tail" workload.
ZIPF_SKEW = 0.99

#: Default memory utilization the system benchmark fills to.
DEFAULT_MEMORY_UTILIZATION = 0.5

# --------------------------------------------------------------------------
# Power (section 5.2.3, Table 3)
# --------------------------------------------------------------------------

#: Wall power of the KV-Direct server at peak throughput (watts).
SERVER_PEAK_POWER_W = 121.1

#: Idle server power with the NIC unplugged (watts).
SERVER_IDLE_POWER_W = 87.0

#: Incremental power of NIC + PCIe + host memory + daemon (watts).
KVDIRECT_INCREMENTAL_POWER_W = 34.0

# --------------------------------------------------------------------------
# Reference measurements quoted by the paper (used by baselines)
# --------------------------------------------------------------------------

#: Single-core CPU KV throughput interleaved with computation (ops/s).
CPU_CORE_KV_OPS = 5.5e6

#: Single-core CPU KV throughput with software batching (ops/s).
CPU_CORE_KV_OPS_BATCHED = 7.9e6

#: Max random 64 B accesses/s a CPU core can issue.
CPU_CORE_RANDOM_ACCESS_OPS = 29.3e6

#: RDMA NIC message rate range (ops/s), section 2.2.
RDMA_NIC_MESSAGE_RATE = (8e6, 15e6)

#: Single-key atomics throughput measured on an RDMA NIC (ops/s).
RDMA_ATOMICS_OPS = 2.24e6

#: Single-key atomics without the OoO engine in KV-Direct (ops/s).
KVDIRECT_ATOMICS_NO_OOO_OPS = 0.94e6
