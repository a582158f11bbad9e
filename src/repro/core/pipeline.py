"""The KV processor's pipeline: its stage names and the per-op context.

The processor's data path (Figure 4) is a fixed hardware pipeline::

    decode --> admission --> issue (OoO) -.-> memory --> complete/respond
                                          '-> (parked in the station)

Nothing substitutes a stage, so there are no stage objects: the two
drivers of :class:`~repro.core.processor.KVProcessor` spell the sequence
out in order as callback chains over one context per op - ``_ingress``
(decode, admission, issue) and ``_main_pipeline`` (memory, complete;
entered from issue for independent ops, from completion for write-backs
and newly unblocked ops, never for ops answered purely by data
forwarding).  This module holds what the rest of the code shares with
them:

- :data:`STAGE_ORDER`, the one declaration of the stage names.  The
  drivers stamp :attr:`OpContext.timestamps` under exactly these keys, in
  this order, and the profiler (:mod:`repro.obs.profiler`) decomposes
  latency along them.
- :class:`OpContext`, everything an in-flight operation owns - the op
  itself, its response event, deadline, key hash, per-stage timestamps,
  and unwind state (station slot / reservation-station membership).  It
  is dropped when the op completes, and with it the hash: nothing per op
  is kept on the op itself.

Admission is one path for every configuration: a FIFO
:class:`~repro.core.admission.IngressQueue` over the station's slot
tokens, unbounded without an overload policy and bounded (shedding with
``ServerBusy``) under one.

Deadlines are checked at three boundaries - ``decode`` and ``admission``
(after the stage) and ``pipeline_start`` (at memory-stage entry, since
the op may have expired while parked) - and every expiry goes through one
method, ``KVProcessor._expire``, which bumps
``processor.deadline.<boundary>``, emits the ``deadline.expired`` span
and unwinds according to the context's state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.operations import KVOperation

#: Canonical pipeline order; keys of :attr:`OpContext.timestamps`.
STAGE_ORDER = ("decode", "admission", "issue", "memory", "complete")


@dataclass(slots=True)
class OpContext:
    """Everything one in-flight operation carries through the pipeline.

    One context carries one submitted client operation (and one, without
    a response event, each internal station write-back).  The processor's
    drivers mutate and route it; each op gets a fresh one.
    """

    op: KVOperation
    #: Event the client is waiting on; ``None`` for internal write-backs.
    response: Optional[object] = None
    #: Absolute simulated-time deadline, or ``None``.
    deadline_ns: Optional[float] = None
    #: Simulated time the op entered the pipeline (latency epoch).
    submitted_ns: float = 0.0
    #: ``fnv1a64(op.key)``: handed down by whichever layer hashed the op
    #: (a shard fan-out, the cluster router), else computed at issue; the
    #: station, the index and a write-back of the op's key read this one.
    key_hash: Optional[int] = None
    #: Simulated entry time of each stage crossed, by stage name.
    timestamps: Dict[str, float] = field(default_factory=dict)
    #: When the op began waiting for an in-flight slot, if it found every
    #: one taken; ``None`` when it was granted (or shed) on arrival.
    stall_start: Optional[float] = None
    #: True once a station token (in-flight slot) is held.
    slot_held: bool = False
    #: True once the op entered the reservation station (issue stage).
    station_admitted: bool = False
    #: The memory stage's ``(KVResult, value after)`` while it replays.
    outcome: Optional[tuple] = field(default=None, init=False)
