"""RPC dispatch: service hosting and typed request/response.

A :class:`ServiceHost` lives in the untrusted zone (the cloud) and exposes
named services — one per cloud-side tactic implementation plus the
document store service.  Transports deliver ``Request`` frames to a host
and carry ``Response`` frames back; remote exceptions are re-raised at the
caller as :class:`repro.errors.RemoteError` with the remote type name
preserved.

Besides single-request frames, hosts dispatch *batch* frames: N requests
shipped as one wire payload (``{"batch": [...]}``) and answered with N
responses in order.  Each sub-request is dispatched independently, so a
failing one yields an error response in its slot without poisoning the
rest of the batch.

Requests may also carry an *operation group* (``group``, minted by
:class:`repro.net.batch.BatchCollector` once per collected frame).  A
batch frame is **ordered per group**: a grouped slot applies only if
every earlier slot of its group succeeded; the rest answer with a
``NotApplied`` error response and touch no state.  So a failed index
write of one operation never lets its document-store write apply, while
untagged slots — and other operations coalesced into the same frame —
keep per-slot isolation.

Requests may carry an *idempotency key* (``idem``, a short unique string
minted by :class:`repro.net.resilience.ResilientTransport` for mutating
methods).  The host remembers the response of every keyed request in a
bounded dedup window, so an at-least-once delivery — a retry after a
lost reply, or a network-duplicated frame — re-returns the recorded
response instead of applying the write a second time.  That is what
makes retrying index/document writes safe for append-style secure
indexes (stateless SSE, BIEX buckets) and for the duplicate-rejecting
document store.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.errors import (
    DataBlinderError,
    NotApplied,
    RemoteError,
    TransportError,
)

#: Key marking a wire payload as a batch frame rather than a single call.
BATCH_KEY = "batch"

#: Service-name prefix of the document store (``docs/<app>``).
DOCS_PREFIX = "docs/"


def is_docs_service(service: str) -> bool:
    """Whether ``service`` names the document store rather than an index."""
    return service.startswith(DOCS_PREFIX)


@dataclass(frozen=True)
class Request:
    service: str
    method: str
    kwargs: dict[str, Any]
    #: Idempotency key; empty means "apply on every delivery".  Keyed
    #: requests are applied at most once per key within the host's dedup
    #: window (duplicate deliveries re-return the recorded response).
    idem: str = ""
    #: Operation group; empty means an isolated slot.  Within one batch
    #: frame, a grouped slot applies only if every earlier slot of the
    #: same group succeeded (see :meth:`ServiceHost.dispatch_batch`).
    group: str = ""
    #: Gateway-local hook, never sent: run when the write is known not
    #: to have taken effect — its own call failed, or a slot of its
    #: operation group did, so the operation's document-store write did
    #: not apply.  Lets a tactic discard gateway state it advanced for
    #: the write (a Mitra counter slot).  An unknown outcome (a lost
    #: frame) never runs it.
    on_abort: Callable[[], None] | None = field(
        default=None, compare=False, repr=False
    )

    def to_payload(self) -> dict[str, Any]:
        payload = {"service": self.service, "method": self.method,
                   "kwargs": self.kwargs}
        if self.idem:
            payload["idem"] = self.idem
        if self.group:
            payload["group"] = self.group
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Request":
        try:
            return cls(payload["service"], payload["method"],
                       dict(payload["kwargs"]),
                       idem=str(payload.get("idem", "")),
                       group=str(payload.get("group", "")))
        except (KeyError, TypeError) as exc:
            raise TransportError(f"malformed request frame: {exc}") from exc


@dataclass(frozen=True)
class Response:
    ok: bool
    result: Any = None
    error_type: str = ""
    error_message: str = ""

    def to_payload(self) -> dict[str, Any]:
        if self.ok:
            return {"ok": True, "result": self.result}
        return {"ok": False, "error_type": self.error_type,
                "error_message": self.error_message}

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Response":
        if payload.get("ok"):
            return cls(ok=True, result=payload.get("result"))
        return cls(ok=False, error_type=payload.get("error_type", "Error"),
                   error_message=payload.get("error_message", ""))

    def unwrap(self) -> Any:
        if self.ok:
            return self.result
        raise RemoteError(self.error_type, self.error_message)


def not_applied() -> Response:
    """The response of a grouped slot skipped after an earlier failure."""
    return Response(
        ok=False, error_type=NotApplied.__name__,
        error_message="not applied: an earlier slot of the same "
                      "operation group failed",
    )


def is_not_applied(response: Response) -> bool:
    return not response.ok and response.error_type == NotApplied.__name__


def dispatch_ordered(requests: Sequence[Request],
                     dispatch: Callable[[Request], Response]
                     ) -> list[Response]:
    """Answer ``requests`` in order, ordered per operation group.

    ``dispatch`` turns one request into its response.  After a grouped
    slot fails, the group's later slots are answered :func:`not_applied`
    without a dispatch; untagged slots and other groups carry on.
    """
    failed: set[str] = set()
    responses: list[Response] = []
    for request in requests:
        if request.group in failed:
            responses.append(not_applied())
            continue
        response = dispatch(request)
        if request.group and not response.ok:
            failed.add(request.group)
        responses.append(response)
    return responses


#: A batch split per destination: leg key -> (slot tags, requests).
Legs = dict[Any, tuple[list, list[Request]]]


def _add_to_leg(legs: Legs, key: Any, tag: Any, request: Request) -> None:
    tags, requests = legs.setdefault(key, ([], []))
    tags.append(tag)
    requests.append(request)


def stage_legs(legs: Legs) -> tuple[Legs, Legs]:
    """Split a frame's per-destination legs into an index stage and a
    document stage, for routers that scatter one frame.

    A host orders a group's slots only within its own leg.  So when an
    operation group spans more than one leg (a Mitra slot on another
    shard, an index on another provider, a bulk document write split
    over several nodes), its document-store writes ship in the second
    stage, once every slot of the first stage answered.  When the
    group's document writes sit on one leg, all its slots on that leg
    move with them — the host orders them there, so a failure elsewhere
    leaves that leg untouched.  Untagged slots and groups confined to
    one leg stay in the first stage, one round trip as before.
    """
    docs_legs: dict[str, set] = {}
    group_legs: dict[str, set] = {}
    for key, (_, requests) in legs.items():
        for request in requests:
            if request.group:
                group_legs.setdefault(request.group, set()).add(key)
                if is_docs_service(request.service):
                    docs_legs.setdefault(request.group, set()).add(key)
    staged = {group: keys for group, keys in docs_legs.items()
              if len(group_legs[group]) > 1}
    if not staged:
        return legs, {}
    first: Legs = {}
    second: Legs = {}
    for key, (tags, requests) in legs.items():
        for tag, request in zip(tags, requests):
            keys = staged.get(request.group)
            held = keys is not None and (
                keys == {key} or is_docs_service(request.service)
            )
            _add_to_leg(second if held else first, key, tag, request)
    return first, second


def drop_failed(legs: Legs, failed: set[str],
                land: Callable[[Any, Response], None]) -> Legs:
    """Answer the slots of ``failed`` groups not-applied (through
    ``land``) and return the legs that still ship."""
    if not failed:
        return legs
    kept: Legs = {}
    for key, (tags, requests) in legs.items():
        for tag, request in zip(tags, requests):
            if request.group in failed:
                land(tag, not_applied())
            else:
                _add_to_leg(kept, key, tag, request)
    return kept


def batch_request_payload(requests: list[Request]) -> dict[str, Any]:
    """One wire payload carrying a whole batch of requests."""
    return {BATCH_KEY: [request.to_payload() for request in requests]}


def requests_from_batch(payload: dict[str, Any]) -> list[Request]:
    items = payload.get(BATCH_KEY)
    if not isinstance(items, list):
        raise TransportError("malformed batch request frame")
    return [Request.from_payload(item) for item in items]


def batch_response_payload(responses: list[Response]) -> dict[str, Any]:
    return {BATCH_KEY: [response.to_payload() for response in responses]}


def responses_from_batch(payload: dict[str, Any]) -> list[Response]:
    items = payload.get(BATCH_KEY)
    if not isinstance(items, list):
        raise TransportError("malformed batch response frame")
    return [Response.from_payload(item) for item in items]


def is_batch_payload(payload: Any) -> bool:
    return isinstance(payload, dict) and BATCH_KEY in payload


class ServiceHost:
    """A registry of callable services with uniform dispatch.

    Services are plain objects; any public method (no leading underscore)
    is callable remotely with keyword arguments.

    ``dedup_window`` bounds the number of idempotency-keyed responses the
    host remembers (LRU).  The window must exceed the number of keyed
    writes a client can have in flight between a fault and its retry;
    the default comfortably covers one executor operation's fan-out plus
    a batch frame.
    """

    def __init__(self, dedup_window: int = 1024) -> None:
        self._services: dict[str, Any] = {}
        self._lock = threading.RLock()
        self._dedup: OrderedDict[str, Response] = OrderedDict()
        self._dedup_window = dedup_window
        self._dedup_hits = 0
        #: Keyed responses the LRU pushed out before any retry claimed
        #: them.  A nonzero count under fault load means the window may
        #: be too small for the deployment's in-flight write fan-out —
        #: surfaced through ``dedup_stats`` and the transport's
        #: :class:`~repro.net.latency.NetworkStats`.
        self._dedup_evictions = 0

    def register(self, name: str, service: Any) -> None:
        with self._lock:
            if name in self._services:
                raise TransportError(f"service {name!r} already registered")
            self._services[name] = service

    def unregister(self, name: str) -> None:
        with self._lock:
            self._services.pop(name, None)

    def get(self, name: str) -> Any:
        with self._lock:
            service = self._services.get(name)
        if service is None:
            raise TransportError(f"unknown service {name!r}")
        return service

    def service_names(self) -> list[str]:
        with self._lock:
            return sorted(self._services)

    def dedup_stats(self) -> dict[str, int]:
        """Observability for the idempotency window (tests, metrics)."""
        with self._lock:
            return {
                "entries": len(self._dedup),
                "hits": self._dedup_hits,
                "evictions": self._dedup_evictions,
                "window": self._dedup_window,
            }

    def _dedup_lookup(self, idem: str) -> Response | None:
        with self._lock:
            cached = self._dedup.get(idem)
            if cached is not None:
                self._dedup.move_to_end(idem)
                self._dedup_hits += 1
            return cached

    def _dedup_record(self, idem: str, response: Response) -> None:
        with self._lock:
            self._dedup[idem] = response
            self._dedup.move_to_end(idem)
            while len(self._dedup) > self._dedup_window:
                self._dedup.popitem(last=False)
                self._dedup_evictions += 1

    def dispatch(self, request: Request) -> Response:
        if request.idem:
            cached = self._dedup_lookup(request.idem)
            if cached is not None:
                return cached
        response = self._dispatch_once(request)
        if request.idem:
            self._dedup_record(request.idem, response)
        return response

    def _dispatch_once(self, request: Request) -> Response:
        try:
            service = self.get(request.service)
            if request.method.startswith("_"):
                raise TransportError(
                    f"method {request.method!r} is not remotely callable"
                )
            method = getattr(service, request.method, None)
            if method is None or not callable(method):
                raise TransportError(
                    f"service {request.service!r} has no method "
                    f"{request.method!r}"
                )
            result = method(**request.kwargs)
            return Response(ok=True, result=result)
        except DataBlinderError as exc:
            return Response(ok=False, error_type=type(exc).__name__,
                            error_message=str(exc))
        except Exception as exc:  # noqa: BLE001 - must cross the wire
            return Response(ok=False, error_type=type(exc).__name__,
                            error_message=str(exc))

    def dispatch_batch(self, requests: list[Request]) -> list[Response]:
        """Dispatch a batch in order, ordered per operation group.

        ``dispatch`` converts every failure into an error response, so
        an untagged bad sub-call never aborts the requests queued behind
        it.  Once a grouped slot fails, the group's later slots are
        answered :func:`not_applied` without being dispatched — no
        state, no dedup record — while other groups carry on.
        """
        return dispatch_ordered(requests, self.dispatch)
