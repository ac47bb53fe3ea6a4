"""Dependency contexts injected into tactic implementations.

§4.2 lists the commonalities every tactic receives from the framework:
(1) gateway and cloud implementations per operation, (2) cryptographic
primitives, (3) key management integration, (4) communication channels,
and (5) data repository services on both sides.  These two dataclasses are
exactly that injection: a gateway tactic gets keys + a channel to its
cloud peer + local storage; a cloud tactic gets the shared untrusted-zone
stores.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import RemoteError
from repro.keys.keystore import KeyStore
from repro.net.rpc import Request
from repro.net.transport import Transport
from repro.spi.metrics import TacticMetrics
from repro.stores.docstore import DocumentStore
from repro.stores.kv import KeyValueStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.crypto.kernels.executor import CryptoExecutor


def service_name(application: str, field: str, tactic: str) -> str:
    """Canonical RPC service name of one cloud tactic instance."""
    return f"tactic/{application}/{field}/{tactic}"


@dataclass
class GatewayTacticContext:
    """Trusted-zone dependencies of one tactic instance bound to a field."""

    application: str
    field: str
    tactic: str
    keystore: KeyStore
    transport: Transport
    #: Gateway-side state repository (e.g. Sophos search tokens, Mitra
    #: counters) — the paper's 'local storage' challenge for Mitra.
    local_kv: KeyValueStore
    #: Per-deployment performance-metric sink (Fig. 1); optional so bare
    #: tactic harnesses stay lightweight.
    metrics: TacticMetrics | None = None
    #: Shared crypto kernel dispatcher (batch SPI backend).  ``None``
    #: means no runtime wired one in; tactics then fall back to the
    #: inline executor and the seed's sequential loops.
    kernels: "CryptoExecutor | None" = None

    @property
    def service(self) -> str:
        return service_name(self.application, self.field, self.tactic)

    def call(self, method: str, *,
             on_abort: Callable[[], None] | None = None,
             **kwargs: Any) -> Any:
        """Invoke the cloud-side counterpart of this tactic.

        When a metrics sink is attached, the protocol round is accounted:
        wall time plus the bytes the transport moved in each direction.
        ``on_abort`` rides the request as :attr:`Request.on_abort`: a
        batch collector runs it when the write's operation failed, and
        an unbatched call runs it when the cloud rejected the call.
        """
        if self.metrics is None:
            return self._send(method, on_abort, kwargs)
        before = self.transport.stats()
        start = time.perf_counter()
        result = self._send(method, on_abort, kwargs)
        elapsed = time.perf_counter() - start
        after = self.transport.stats()
        self.metrics.record_call(
            self.service, method, elapsed,
            after.bytes_sent - before.bytes_sent,
            after.bytes_received - before.bytes_received,
        )
        return result

    def _send(self, method: str, on_abort: Callable[[], None] | None,
              kwargs: dict[str, Any]) -> Any:
        if on_abort is None:
            return self.transport.call(self.service, method, **kwargs)
        try:
            return self.transport.call_request(
                Request(self.service, method, kwargs, on_abort=on_abort)
            )
        except RemoteError:
            on_abort()
            raise

    def derive_key(self, purpose: str, length: int = 32) -> bytes:
        return self.keystore.derive(self.field, self.tactic, purpose, length)

    def state_key(self, *parts: bytes) -> bytes:
        """Namespaced gateway-state key for this tactic instance."""
        prefix = self.service.encode()
        return b"/".join((prefix,) + parts)


@dataclass
class CloudTacticContext:
    """Untrusted-zone dependencies of one cloud tactic instance."""

    application: str
    field: str
    tactic: str
    #: Secure-index repository (the Redis role in the paper's deployment).
    kv: KeyValueStore
    #: Encrypted document repository (the MongoDB role).
    documents: DocumentStore

    @property
    def service(self) -> str:
        return service_name(self.application, self.field, self.tactic)

    def state_key(self, *parts: bytes) -> bytes:
        prefix = self.service.encode()
        return b"/".join((prefix,) + parts)
