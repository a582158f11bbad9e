"""Out-of-order execution engine (section 3.3.3).

Dependencies between in-flight KV operations on the same key would stall a
naive pipeline for a full PCIe round trip.  KV-Direct borrows dynamic
scheduling from computer architecture: a *reservation station* tracks all
in-flight operations, keyed by a hash of the key (1024 slots keeps the
collision probability below 25 %; same-hash operations are conservatively
treated as dependent - false positives but never false negatives).

The station also caches the latest value of each busy key for *data
forwarding*: when the main pipeline completes an operation, queued
operations with a matching key execute immediately against the cached
value - one per clock cycle - and only a final write-back PUT (or DELETE)
re-enters the main pipeline.  This is what lifts single-key atomics from
0.94 Mops (pipeline-stall) to the 180 Mops clock bound, a 191x gain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.constants import MAX_INFLIGHT_OPS, RESERVATION_STATION_SLOTS
from repro.core.hashing import fnv1a64
from repro.core.operations import KVOperation, KVResult, OpType
from repro.errors import ConfigurationError, SimulationError
from repro.sim.stats import Counter

#: Signature of the forwarding executor: (op, current value) ->
#: (new value, result).  Wired to :func:`repro.core.vector.apply_operation`.
Executor = Callable[[KVOperation, Optional[bytes]], Tuple[Optional[bytes], KVResult]]


class Admission(Enum):
    """What the station decided about a newly arrived operation."""

    #: No dependency: caller must issue the op to the main pipeline.
    EXECUTE = "execute"
    #: Dependent on an in-flight op: parked in the reservation station.
    QUEUED = "queued"


@dataclass
class Completion:
    """Everything that happened when a main-pipeline op finished."""

    #: Results for the completed op and any ops resolved by forwarding.
    responses: List[Tuple[KVOperation, KVResult]] = field(default_factory=list)
    #: Write-back the caller must issue to the main pipeline (PUT/DELETE of
    #: the cached value), if forwarding dirtied it.
    writeback: Optional[KVOperation] = None
    #: The write-back key's hash: the ``h`` the completing op was passed
    #: (it writes that op's key), or ``None`` when none was.
    writeback_hash: Optional[int] = None
    #: A queued different-key op that may now enter the main pipeline.
    next_issue: Optional[KVOperation] = None
    #: Forwarded ops resolved without touching memory (for accounting).
    forwarded: int = 0


@dataclass(slots=True)
class _Slot:
    """State of one busy reservation-station hash slot; a slot with
    nothing in flight is not kept."""

    busy_key: bytes
    #: The op currently in the main pipeline for this slot.
    busy_op: Optional[KVOperation]
    #: Queued (conservatively) dependent operations, FIFO - created when
    #: the first dependent parks, so an op nobody waits on allocates none.
    chain: Optional[Deque[KVOperation]] = None
    #: Cached latest value of busy_key, once the busy op completed.
    cached: Optional[bytes] = None
    #: Stall mode only: additional concurrent in-flight *reads* beyond
    #: busy_op (read-read on a key needs no ordering).
    extra_readers: int = 0


class ReservationStation:
    """Tracks in-flight operations and forwards data between dependents."""

    def __init__(
        self,
        executor: Executor,
        num_slots: int = RESERVATION_STATION_SLOTS,
        capacity: int = MAX_INFLIGHT_OPS,
        forwarding: bool = True,
    ) -> None:
        if num_slots <= 0:
            raise ConfigurationError("need at least one station slot")
        if capacity <= 0:
            raise ConfigurationError("station capacity must be positive")
        self.executor = executor
        self.num_slots = num_slots
        self.capacity = capacity
        #: With forwarding disabled the station degrades to the paper's
        #: "without OoO" baseline: dependents stall until full completion.
        self.forwarding = forwarding
        self._slots: Dict[int, _Slot] = {}
        self.occupancy = 0
        self.counters = Counter()

    # -- admission -------------------------------------------------------------

    def record_full_stall(self) -> None:
        """Count one ingress arrival that found every in-flight slot taken.

        The processor calls this when an operation has to queue for a
        slot at ingress (with or without an overload policy);
        ``station.full_stalls`` makes saturation visible
        where it used to be silent - the ``queued`` counter only covers
        same-key dependency chains, not capacity stalls.
        """
        self.counters["full_stalls"] += 1

    def admit(self, op: KVOperation, h: Optional[int] = None) -> Admission:
        """Accept one operation; the caller keeps ``occupancy`` below
        ``capacity``.  ``h`` is ``fnv1a64(op.key)`` when the caller
        already has it."""
        if self.occupancy >= self.capacity:
            raise SimulationError("reservation station full")
        self.occupancy += 1
        slot_id = (fnv1a64(op.key) if h is None else h) % self.num_slots
        slot = self._slots.get(slot_id)
        if slot is None:
            self._slots[slot_id] = _Slot(op.key, op)
            self.counters["issued"] += 1
            return Admission.EXECUTE
        writer_inflight = slot.busy_op is not None and slot.busy_op.is_write
        if (
            not self.forwarding
            and not op.is_write
            and not writer_inflight
            and not slot.chain
        ):
            # Stall-mode semantics matching the paper's baseline: "the
            # pipeline is stalled when a PUT operation finds any in-flight
            # operation with the same key" - concurrent GETs may proceed.
            slot.extra_readers += 1
            self.counters["issued"] += 1
            return Admission.EXECUTE
        chain = slot.chain
        if chain is None:
            chain = slot.chain = deque()
        chain.append(op)
        self.counters["queued"] += 1
        self.counters.record_max("max_chain", len(chain))
        return Admission.QUEUED

    # -- completion --------------------------------------------------------------

    def complete(
        self, op: KVOperation, value_after: Optional[bytes],
        h: Optional[int] = None,
    ) -> Optional[Completion]:
        """Main pipeline finished ``op``; resolve dependents.

        ``value_after`` is the key's value after the op executed in memory
        (for a GET, the value read; for a PUT, the value written; ``None``
        for deleted/missing).  The caller sends ``responses`` to clients,
        issues ``writeback`` and/or ``next_issue`` to the main pipeline.
        When that would be nothing - no dependent was parked behind the op,
        or stall-mode readers still hold its slot - it returns ``None``.
        ``h`` is ``fnv1a64(op.key)`` when the caller already has it.
        """
        slot_id = (fnv1a64(op.key) if h is None else h) % self.num_slots
        slot = self._slots.get(slot_id)
        if slot is None:
            raise SimulationError("completion for an op that was not issued")
        if slot.busy_op is not op:
            if self.forwarding or op.is_write or slot.extra_readers <= 0:
                raise SimulationError(
                    "completion for an op that was not issued"
                )
            # Stall mode: one of the concurrent extra readers finished.
            return self._complete_extra_reader(slot_id, slot)
        if op.seq >= 0:  # not an internal write-back
            self.occupancy -= 1

        if not self.forwarding and slot.extra_readers > 0:
            # The primary op finished but concurrent readers remain: the
            # slot stays occupied until they drain.
            slot.busy_op = None
            return None
        if not slot.chain:
            # Nothing parked behind the op: the slot frees, nothing else.
            del self._slots[slot_id]
            return None

        slot.cached = value_after
        completion = Completion()
        if self.forwarding and not op.carries_count:
            # Never forward out of a completed RANGE/SCAN: its value_after
            # is None by construction (a scan reads many keys, not the
            # slot key), and handing that to dependents would look like a
            # phantom delete.  Dependents re-enter via next_issue instead.
            self._forward_chain(slot, completion, h)

        if completion.writeback is None:
            # Nothing dirty: hand the slot to the next queued op, if any.
            if slot.chain:
                nxt = slot.chain.popleft()
                slot.busy_key = nxt.key
                slot.busy_op = nxt
                slot.cached = None
                completion.next_issue = nxt
                self.counters["issued"] += 1
            else:
                del self._slots[slot_id]
        else:
            # Slot stays busy executing the write-back.
            slot.busy_op = completion.writeback
        return completion

    def _complete_extra_reader(
        self, slot_id: int, slot: _Slot
    ) -> Optional[Completion]:
        """Stall mode: a concurrent GET finished."""
        self.occupancy -= 1
        slot.extra_readers -= 1
        if slot.extra_readers == 0 and slot.busy_op is None:
            if slot.chain:
                nxt = slot.chain.popleft()
                slot.busy_key = nxt.key
                slot.busy_op = nxt
                slot.cached = None
                self.counters["issued"] += 1
                return Completion(next_issue=nxt)
            del self._slots[slot_id]
        return None

    def _forward_chain(
        self, slot: _Slot, completion: Completion, h: Optional[int]
    ) -> None:
        """Execute queued same-key ops against the cached value, in order.

        "Pending operations in the same hash slot are checked one by one,
        and operations with matching key are executed immediately and
        removed from the reservation station."  Ops for a *different* key
        (hash-collision false positives) are skipped, not blocked on - they
        are semantically independent, which is what "eliminates head-of-line
        blocking under workload with popular keys".

        Queued RANGE/SCAN ops are never forwarded either - a cached
        single-key value cannot answer a multi-key scan - so they wait
        their turn for the main pipeline like different-key ops.
        """
        dirty = False
        remaining: Deque[KVOperation] = deque()
        for nxt in slot.chain:
            if nxt.key != slot.busy_key or nxt.carries_count:
                remaining.append(nxt)
                continue
            new_value, result = self.executor(nxt, slot.cached)
            if new_value != slot.cached:
                dirty = True
            slot.cached = new_value
            completion.responses.append((nxt, result))
            completion.forwarded += 1
            self.occupancy -= 1
            self.counters["forwarded"] += 1
        slot.chain = remaining
        if dirty:
            completion.writeback = self._writeback_op(slot)
            completion.writeback_hash = h
            self.counters["writebacks"] += 1

    @staticmethod
    def _writeback_op(slot: _Slot) -> KVOperation:
        """Build the cache write-back op; seq = -1 marks it internal."""
        if slot.cached is None:
            return KVOperation(OpType.DELETE, slot.busy_key, seq=-1)
        return KVOperation(
            OpType.PUT, slot.busy_key, value=slot.cached, seq=-1
        )

    # -- introspection ---------------------------------------------------------------

    def busy_slots(self) -> int:
        return len(self._slots)
