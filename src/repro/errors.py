"""Exception hierarchy for the KV-Direct reproduction."""


class KVDirectError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(KVDirectError):
    """A configuration value is invalid or inconsistent."""


class CapacityError(KVDirectError):
    """The store ran out of memory (hash index or slab area)."""


class KeyTooLargeError(KVDirectError):
    """Key or key-value pair exceeds the maximum supported size."""


class MalformedValueError(KVDirectError):
    """A malformed value was supplied (e.g. vector element mismatch)."""


class SimulationError(KVDirectError):
    """The discrete-event simulation reached an inconsistent state."""


class ProtocolError(KVDirectError):
    """A network packet could not be decoded."""


class UnsupportedOperation(KVDirectError):
    """The store's index cannot execute this operation.

    Raised when an ordered operation (RANGE/SCAN) reaches a store whose
    index is hash-only (``ordered_index=False``): a chained hash table
    has no key order to scan.  Surfaced to clients as a failed response,
    like any other server-side :class:`KVDirectError`.  Also raised at
    the call when one is submitted straight to a multi-NIC server, whose
    shards each hold part of the key order.
    """


class AllocationError(CapacityError):
    """The slab allocator could not satisfy a request."""


class FaultInjected(KVDirectError):
    """An injected fault made the operation fail (chaos testing).

    Raised by hardware models when the active
    :class:`~repro.faults.plan.FaultPlan` fires an unrecoverable fault:
    a DMA whose TLPs were dropped beyond the retry budget, an injected
    slab-area exhaustion, or a lost network packet.
    """


class RetryExhausted(FaultInjected):
    """A client retried past its budget without a successful delivery."""


class DeadlineExceeded(KVDirectError):
    """An operation's deadline passed before it finished executing.

    The processor checks deadlines lazily at stage boundaries (decode,
    station admission, main-pipeline start), so an expired operation is
    dropped *before* it touches store state - deadline failures are
    always side-effect free.  ``stage`` names the boundary where the
    expiry was detected.
    """

    def __init__(self, message: str, stage: str = "") -> None:
        super().__init__(message)
        #: Pipeline stage at which the expiry was detected
        #: (``"decode"``, ``"admission"`` or ``"pipeline_start"``).
        self.stage = stage


class ServerBusy(KVDirectError):
    """The server shed this operation under overload (retryable NACK).

    Raised when the bounded ingress queue is full and the active shed
    policy chose this operation as the victim.  The operation never
    executed; clients may retry it, subject to their retry budget and
    circuit breaker (see ``docs/ROBUSTNESS.md``).
    """

    def __init__(self, message: str, policy: str = "", reason: str = "") -> None:
        super().__init__(message)
        #: Shed policy that dropped the op (e.g. ``"reject-new"``).
        self.policy = policy
        #: Why it was chosen (e.g. ``"queue_full"``, ``"lowest_class"``).
        self.reason = reason


class NodeDown(KVDirectError):
    """The cluster node addressed by this operation is not serving it.

    A retryable NACK (like :class:`ServerBusy`): the operation never
    entered the node's pipeline and had no side effects.  Raised when a
    node was killed or stalled by a node-level fault
    (``node<i>.kill`` / ``node<i>.stall`` sites), or while a key range is
    write-blocked during failover migration.  Clients re-read the
    :class:`~repro.multi.cluster.ClusterMap` and retry with backoff; the
    first NodeDown observed for a dead node triggers failover.
    """

    def __init__(self, message: str, node: int = -1, reason: str = "") -> None:
        super().__init__(message)
        #: Index of the node that refused the operation.
        self.node = node
        #: Why it refused (``"killed"``, ``"migrating"``).
        self.reason = reason


class WrongEpoch(KVDirectError):
    """The operation was stamped with a stale cluster-map epoch.

    A retryable NACK: the placement directory changed (a failover bumped
    the epoch) between the client stamping the operation and the node
    receiving it.  The operation never executed; the client must re-read
    the :class:`~repro.multi.cluster.ClusterMap`, re-stamp, and resend.
    """

    def __init__(self, message: str, expected: int = -1, got: int = -1) -> None:
        super().__init__(message)
        #: The node's current epoch.
        self.expected = expected
        #: The stale epoch the operation carried.
        self.got = got


class CorruptionDetected(KVDirectError):
    """Data corruption was detected (and not correctable) by the ECC path.

    Corresponds to a SEC-DED double-bit error: the Hamming code detects
    the corruption but cannot repair it, so serving the data would return
    garbage.  The operation fails instead of returning wrong data.
    """
