"""The generic replicated-service and data-authentication interfaces.

Section IV of the paper defines two interfaces the replication engine is
parameterised by:

* the **generic service**: ``val = execute(D, o)`` mutates the state and
  returns an output; ``val = query(D, q)`` reads without mutating; the state
  advances in discrete blocks ``D_{j-1} -> D_j`` by executing the request
  series ``req_j``.
* the **data-authentication (Merkle) interface**: ``d = digest(D)``,
  ``P = proof(o, l, s, D, val)`` and ``verify(d, o, val, s, l, P)``, used so a
  client can accept a single ``execute-ack`` from one replica.
"""

from __future__ import annotations

import weakref
from dataclasses import field
from typing import Any, Optional, Sequence, Tuple

from repro.records import frozen_record


@frozen_record
class Operation:
    """A client operation submitted to the replicated service.

    ``kind`` and ``payload`` are interpreted by the concrete service; the
    replication layer treats operations as opaque apart from ``client_id`` /
    ``timestamp`` (used for deduplication and reply routing) and
    ``size_bytes`` (used by the network model).

    The same Operation object is sized, journaled and priced by every replica
    (hot path at large n), so all per-instance derived values live in slots
    computed once: ``size_bytes`` at construction, the service-layer digest
    stash on first use (via ``object.__setattr__``).
    """

    kind: str
    payload: Any = None
    client_id: int = -1
    timestamp: int = 0
    read_only: bool = False
    size_bytes: int = field(init=False, compare=False, repr=False, default=0)
    # First-use stash owned by repro.services.authenticated_kv.
    _authkv_digest: Optional[str] = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        payload = self.payload
        if isinstance(payload, (bytes, str)):
            base = len(payload)
        elif isinstance(payload, (list, tuple, dict)):
            base = 32 * max(1, len(payload))
        else:
            base = 32
        object.__setattr__(self, "size_bytes", 64 + base)


class BlockOperations(tuple):
    """The flattened operations of one decision block.

    A plain tuple to every consumer.  The replica layer builds one instance
    per shared ``PrePrepare`` (see ``block_operations``), so what a
    service derives from the whole block can ride on it and be computed once
    per deployment instead of once per replica: ``digests`` holds the
    per-operation digest tuple, filled by
    :func:`repro.services.authenticated_kv.block_operation_digests`,
    ``replay`` the recorder's ``(state key, entry)``, written and read
    through :mod:`repro.core.execution_cache` and freed once every replica
    applied the block (``applies`` counts them), and ``post_state`` a weak
    reference to the store contents that applying that entry produced
    (``AuthenticatedKVStore._apply``).
    """

    digests: Optional[Tuple[str, ...]] = None
    replay: Optional[Tuple[Tuple, Tuple]] = None
    applies: int = 0
    post_state: Optional[weakref.ref] = None


@frozen_record
class OperationResult:
    """The value returned by executing one operation."""

    value: Any = None
    ok: bool = True
    error: Optional[str] = None


@frozen_record
class ExecutionProof:
    """Proof that an operation executed at a given position of a block.

    Wraps the service-specific Merkle proof together with the sequence number
    ``s`` and in-block position ``l`` the paper's ``proof(o, l, s, D, val)``
    refers to.
    """

    sequence: int
    position: int
    digest: str
    proof: Any
    size_bytes: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        inner = getattr(self.proof, "size_bytes", 64)
        object.__setattr__(self, "size_bytes", 48 + int(inner))


class ReplicatedService:
    """Deterministic application state machine replicated by the BFT engine."""

    def execute(self, operation: Operation) -> OperationResult:
        """Apply one operation to the state and return its result."""
        raise NotImplementedError

    def query(self, operation: Operation) -> OperationResult:
        """Answer a read-only query without modifying state."""
        raise NotImplementedError

    def execute_block(self, sequence: int, operations: Sequence[Operation]) -> Sequence[OperationResult]:
        """Apply a whole decision block; the default executes sequentially."""
        return tuple(self.execute(op) for op in operations)

    def execution_cost(self, operation: Operation) -> float:
        """Simulated CPU seconds needed to execute ``operation``."""
        return 5e-6

    def snapshot(self) -> Any:
        """Serializable copy of the full state (used by state transfer)."""
        raise NotImplementedError

    def restore(self, snapshot: Any) -> None:
        """Replace the state with a snapshot produced by :meth:`snapshot`."""
        raise NotImplementedError


class AuthenticatedService(ReplicatedService):
    """A replicated service that additionally offers Merkle authentication."""

    def digest(self) -> str:
        """Merkle root digest of the current state (``d = digest(D)``)."""
        raise NotImplementedError

    def prove(self, sequence: int, position: int) -> ExecutionProof:
        """Proof that the ``position``-th operation of block ``sequence``
        executed with its recorded result (``P = proof(o, l, s, D, val)``)."""
        raise NotImplementedError

    def prune(self, up_to: int) -> None:
        """Forget what only proofs of blocks at or below ``up_to`` need."""
        raise NotImplementedError

    def verify(
        self,
        digest: str,
        operation: Operation,
        value: Any,
        sequence: int,
        position: int,
        proof: ExecutionProof,
    ) -> bool:
        """``verify(d, o, val, s, l, P)`` from Section IV."""
        raise NotImplementedError
