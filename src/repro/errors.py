"""Exception hierarchy for the DataBlinder reproduction.

All library-raised exceptions derive from :class:`DataBlinderError` so that
applications can catch middleware failures with a single ``except`` clause
while still distinguishing subsystem-specific failures.
"""

from __future__ import annotations


class DataBlinderError(Exception):
    """Base class of every exception raised by this library."""


class CryptoError(DataBlinderError):
    """A cryptographic operation failed (bad key, bad parameters, ...)."""


class IntegrityError(CryptoError):
    """Authenticated decryption failed: the ciphertext was tampered with.

    The integrity subsystem (:mod:`repro.integrity`) raises the same
    type when a Merkle inclusion proof or state root does not match what
    the gateway ledger expects: in both cases the untrusted zone served
    bytes that differ from what was written.
    """


class StaleStateError(IntegrityError):
    """The untrusted zone served valid-but-old state (a rollback).

    The bytes verify against *a* root the gateway once accepted, but the
    freshness ledger has since advanced past it — a replayed snapshot,
    not random corruption.  Subclasses :class:`IntegrityError` so one
    ``except IntegrityError`` clause catches both tampering and
    rollback while callers that care can still tell them apart.
    """


class KeyManagementError(DataBlinderError):
    """A key could not be created, derived, wrapped or resolved."""


class StoreError(DataBlinderError):
    """A storage backend rejected an operation."""


class DocumentNotFound(StoreError):
    """A document id did not resolve to a stored document."""


class TransportError(DataBlinderError):
    """A message could not be delivered between gateway and cloud."""


class TransportFault(TransportError):
    """A delivery-level failure: dropped frame, lost connection, corrupt
    frame.  The request may or may not have reached the cloud, so a
    retry is only safe when the request carries an idempotency key (see
    :mod:`repro.net.resilience`)."""


class RetryExhausted(TransportError):
    """Every retry attempt of a call failed with a transport fault.

    Carries how many attempts were made and the last underlying error,
    so operators can distinguish a flaky link (few attempts, varied
    faults) from a dead endpoint (all attempts, same fault).
    """

    def __init__(self, attempts: int, last_error: Exception):
        super().__init__(
            f"call failed after {attempts} attempt(s): {last_error}"
        )
        self.attempts = attempts
        self.last_error = last_error


class DeadlineExceeded(TransportError):
    """A call's per-call deadline elapsed before a retry could succeed."""


class CircuitOpenError(TransportError):
    """The endpoint's circuit breaker is open: calls fail fast without
    touching the wire until the breaker's reset timeout elapses."""


class RemoteError(TransportError):
    """The remote endpoint raised while servicing an RPC.

    Carries the remote exception type name and message so the caller can
    log a faithful trace without unpickling arbitrary remote state.
    """

    def __init__(self, remote_type: str, message: str):
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type
        self.remote_message = message


class NotApplied(DataBlinderError):
    """A batch slot was skipped, untouched, because an earlier slot of
    the same operation group failed.

    Only ever crosses the wire as the ``error_type`` of a batch slot
    response (see :meth:`repro.net.rpc.ServiceHost.dispatch_batch`); the
    gateway re-raises the group's original failure instead.
    """


class GatewayOverloadError(DataBlinderError):
    """The gateway front door refused an operation before execution.

    Subclasses say why; all of them mean the operation never touched
    tactic state or the wire, so it is always safe to retry later.
    """


class RateLimitExceeded(GatewayOverloadError):
    """A principal exhausted its token bucket at the service tier.

    Carries the principal and the seconds until a token accrues, so
    callers can implement honest backoff instead of hammering.
    """

    def __init__(self, principal: str, retry_after_s: float):
        super().__init__(
            f"rate limit exceeded for {principal!r}; "
            f"retry after {retry_after_s:.3f}s"
        )
        self.principal = principal
        self.retry_after_s = retry_after_s


class AdmissionRejected(GatewayOverloadError):
    """The async gateway runtime's admission queue is at capacity."""


class SchemaError(DataBlinderError):
    """A document schema or field annotation is invalid."""


class SchemaValidationError(SchemaError):
    """A document does not conform to its configured schema."""


class PolicyError(DataBlinderError):
    """A data protection policy is inconsistent or violated."""


class SelectionError(PolicyError):
    """No registered tactic satisfies a field's protection annotation."""


class QueryError(DataBlinderError):
    """A query is malformed or not supported by the selected tactics."""


class UnsupportedOperation(QueryError):
    """The field's annotation does not allow the requested operation."""


class TacticError(DataBlinderError):
    """A data protection tactic failed while executing its protocol."""


class RegistryError(DataBlinderError):
    """Tactic registration or SPI lookup failed."""
