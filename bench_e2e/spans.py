"""Span tracing from outside the program, and layer self-time.

The traced run wraps the public entry points at each layer boundary
(see :data:`TARGETS`) with a function that records a span: name, layer,
start, end, parent span and op id.  The parent is whatever span is
current in the caller's ``contextvars`` context, which follows the
program's own ``asyncio.to_thread`` hops; the shard router's scatter
pool does not copy contexts, so while tracing its pool is handed out
behind a proxy that carries the current span into the worker.  Calls
made outside any op (set-up, background refill threads) are not
recorded.  Spans stay in memory until the run writes them out.

A layer's self time is its span's duration minus the union of its
children.  Where sibling spans overlap in time (parallel shard legs),
the overlap is shared equally among them, so the self times of one op
add up to its wall time.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable


@dataclass
class Span:
    op: int
    sid: int
    parent: int | None
    name: str
    layer: str
    t0: float
    t1: float = 0.0
    #: Work count at this boundary: requests in a frame, documents
    #: fetched; 0 where the boundary has none.
    n: int = 0
    #: For a wire span, ``<node>|<service>.<method>`` (or ``|batch``).
    detail: str = ""
    #: Thread and thread-CPU clock at start/end, for spans of blocking
    #: functions (a coroutine's thread runs other ops between its steps,
    #: so async spans carry no CPU reading: tid 0).
    tid: int = 0
    c0: float = 0.0
    c1: float = 0.0


_CURRENT: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "bench_e2e_span", default=None
)


def _frame_size(args: tuple, kwargs: dict, result: Any) -> int:
    requests = args[1] if len(args) > 1 else kwargs.get("requests", ())
    return len(requests)


def _one(args: tuple, kwargs: dict, result: Any) -> int:
    return 1


def _result_size(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result)


#: (module, attribute path, layer, work counter).  A class path wraps
#: every public function the class itself defines.  Targets a later
#: version of the program no longer has are skipped.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.core.executor", "SchemaExecutor", "engine", None),
    ("repro.core.planner.planner", "QueryPlanner", "planner", None),
    ("repro.core.planner.engine", "PlanEngine", "engine", None),
    ("repro.tactics.det", "DetGateway", "tactics.det", None),
    ("repro.tactics.mitra", "MitraGateway", "tactics.mitra", None),
    ("repro.tactics.rnd", "RndGateway", "tactics.rnd", None),
    ("repro.tactics.paillier_tactic", "PaillierGateway",
     "tactics.paillier", None),
    ("repro.crypto.paillier", "obfuscator", "crypto.paillier", None),
    ("repro.crypto.paillier", "ObfuscatorPool.mask", "crypto.paillier",
     None),
    ("repro.crypto.paillier", "FixedBaseObfuscator.mask",
     "crypto.paillier", None),
    ("repro.crypto.paillier", "encrypt_with_mask", "crypto.paillier",
     _one),
    ("repro.crypto.paillier", "decrypt", "crypto.paillier", _one),
    ("repro.crypto.symmetric", "Aead.encrypt", "crypto.aead", None),
    ("repro.crypto.symmetric", "Aead.decrypt", "crypto.aead", None),
    ("repro.crypto.symmetric", "Deterministic", "crypto.det", None),
    ("repro.shard.router", "ShardedTransport.call_request", "shard", None),
    ("repro.shard.router", "ShardedTransport.call_batch", "shard", None),
    ("repro.shard.router", "ShardedTransport.call_batch_async", "shard",
     None),
    ("repro.net.transport", "InProcTransport.call_request", "net", _one),
    ("repro.net.transport", "InProcTransport.call_request_async", "net",
     _one),
    ("repro.net.transport", "InProcTransport.call_batch", "net",
     _frame_size),
    ("repro.net.transport", "InProcTransport.call_batch_async", "net",
     _frame_size),
    ("repro.net.latency", "NetworkModel.apply", "net.link", None),
    ("repro.net.latency", "NetworkModel.apply_async", "net.link", None),
    ("repro.net.rpc", "ServiceHost.dispatch", "cloud", _one),
    ("repro.net.rpc", "ServiceHost.dispatch_batch", "cloud", _frame_size),
    ("repro.cloud.server", "DocumentService.get_many", "cloud",
     _result_size),
)

#: Span names whose count is the number of Paillier operations.
PAILLIER_CALLS = ("encrypt_with_mask", "decrypt")


class Tracer:
    """Installs the wrappers and collects the spans of one run."""

    def __init__(self, node_names: dict[int, str] | None = None):
        self.spans: list[Span] = []
        #: id(per-node transport) -> node name, for shard leg spans.
        self.node_names = node_names or {}
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------------

    def root(self, op: int, name: str, t0: float) -> Span:
        """An op's root span; the caller sets ``t1`` and calls
        :meth:`finish` when the op completes."""
        return Span(op, next(self._ids), None, name, "gateway", t0)

    def finish(self, span: Span) -> None:
        self.spans.append(span)

    def _child(self, parent: Span, name: str, layer: str) -> Span:
        return Span(parent.op, next(self._ids), parent.sid, name, layer,
                    time.perf_counter())

    def _wrap(self, fn: Callable, name: str, layer: str,
              count: Callable | None) -> Callable:
        tracer = self

        def close(span: Span, token, args, kwargs, result) -> None:
            span.t1 = time.perf_counter()
            if span.tid:
                span.c1 = time.thread_time()
            _CURRENT.reset(token)
            if count is not None and result is not _FAILED:
                span.n = count(args, kwargs, result)
            if layer == "net" and args:
                request = args[1] if len(args) > 1 else None
                wire = (f"{request.service}.{request.method}"
                        if hasattr(request, "service") else "batch")
                span.detail = (
                    f"{tracer.node_names.get(id(args[0]), '')}|{wire}"
                )
            tracer.spans.append(span)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                parent = _CURRENT.get()
                if parent is None:
                    return await fn(*args, **kwargs)
                span = tracer._child(parent, name, layer)
                token = _CURRENT.set(span)
                result = _FAILED
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    close(span, token, args, kwargs, result)
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = _CURRENT.get()
            if parent is None:
                return fn(*args, **kwargs)
            span = tracer._child(parent, name, layer)
            span.tid = threading.get_ident()
            span.c0 = time.thread_time()
            token = _CURRENT.set(span)
            result = _FAILED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                close(span, token, args, kwargs, result)
        return traced

    # -- installation ------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, targets: Iterable = TARGETS) -> None:
        for module_name, path, layer, count in targets:
            owner: Any = importlib.import_module(module_name)
            *parents, leaf = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                target = getattr(owner, leaf)
            except AttributeError:
                continue
            if inspect.isclass(target):
                for attr, fn in list(vars(target).items()):
                    if inspect.isfunction(fn) and not attr.startswith("_"):
                        self._patch(target, attr,
                                    self._wrap(fn, attr, layer, count))
            elif inspect.isfunction(target) and leaf in vars(owner):
                self._patch(owner, leaf, self._wrap(target, leaf, layer,
                                                    count))
        self._carry_into_scatter_pool()

    def _carry_into_scatter_pool(self) -> None:
        router = importlib.import_module("repro.shard.router")
        cls = getattr(router, "ShardedTransport", None)
        original = vars(cls).get("_scatter_pool") if cls else None
        if original is None:
            return

        @functools.wraps(original)
        def scatter_pool(self_router):
            return _SpanCarryingPool(original(self_router))

        self._patch(cls, "_scatter_pool", scatter_pool)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


_FAILED = object()


def dump(spans: list[Span], path) -> None:
    """Write spans as JSON lines."""
    with open(path, "w", encoding="utf-8") as sink:
        for span in spans:
            sink.write(json.dumps(asdict(span)) + "\n")


def run_in_span(span: Span, fn: Callable, *args, **kwargs) -> Any:
    """Call ``fn`` with ``span`` as the current span."""
    token = _CURRENT.set(span)
    try:
        return fn(*args, **kwargs)
    finally:
        _CURRENT.reset(token)


async def await_in_span(span: Span, make: Callable) -> Any:
    """Build and await ``make()``'s coroutine with ``span`` current."""
    token = _CURRENT.set(span)
    try:
        return await make()
    finally:
        _CURRENT.reset(token)


class _SpanCarryingPool:
    """Executor proxy that runs each task under the submitter's span."""

    def __init__(self, pool):
        self._pool = pool

    def submit(self, fn, /, *args, **kwargs):
        return self._pool.submit(run_in_span, _CURRENT.get(), fn, *args,
                                 **kwargs)

    def map(self, fn, *iterables, **kwargs):
        return self._pool.map(
            functools.partial(run_in_span, _CURRENT.get(), fn), *iterables,
            **kwargs,
        )

    def __getattr__(self, name):
        return getattr(self._pool, name)


# -- self time ------------------------------------------------------------------


def attribute(spans: list[Span]) -> dict[str, float]:
    """Seconds of one op's wall time per layer.

    ``spans`` are one op's spans, root included.  Each child is clipped
    to its parent's interval; at every instant the time goes to the
    innermost open spans, shared equally when several are open side by
    side.  A span's share is therefore its duration minus the union of
    its children (plus its part of any overlap with its siblings), and
    the shares sum to the root's duration.
    """
    by_id = {span.sid: span for span in spans}
    root = next(span for span in spans if span.parent is None)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span is not root:
            parent = span.parent if span.parent in by_id else root.sid
            children.setdefault(parent, []).append(span)

    bounds: dict[int, tuple[float, float]] = {root.sid: (root.t0, root.t1)}
    depth = {root.sid: 0}
    events: list[tuple[float, int, int, Span]] = []
    stack = [root]
    while stack:
        span = stack.pop()
        lo, hi = bounds[span.sid]
        if hi <= lo:
            continue
        # Ends sort before starts at one instant, and inner spans end
        # before (start after) their parents.
        events.append((lo, 1, depth[span.sid], span))
        events.append((hi, 0, -depth[span.sid], span))
        for child in children.get(span.sid, ()):
            bounds[child.sid] = (max(child.t0, lo), min(child.t1, hi))
            depth[child.sid] = depth[span.sid] + 1
            stack.append(child)
    events.sort(key=lambda event: event[:3])

    shares: dict[str, float] = {}
    open_children: dict[int, int] = {}
    innermost: dict[int, Span] = {}
    last = events[0][0] if events else 0.0
    for when, starting, _, span in events:
        if innermost and when > last:
            piece = (when - last) / len(innermost)
            for leaf in innermost.values():
                shares[leaf.layer] = shares.get(leaf.layer, 0.0) + piece
        last = when
        parent = (span.parent if span.parent in bounds else root.sid
                  if span is not root else None)
        if starting:
            innermost[span.sid] = span
            if parent is not None:
                open_children[parent] = open_children.get(parent, 0) + 1
                innermost.pop(parent, None)
        else:
            innermost.pop(span.sid, None)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    innermost[parent] = by_id[parent]
    return shares


def self_cpu(spans: list[Span]) -> dict[str, float]:
    """Thread-CPU seconds of one op per layer.

    A blocking span's CPU is its thread's CPU clock over the span minus
    that of its children on the same thread.  Work on threads no span of
    the op covers (background refills, the event loop) is not in here.
    """
    by_id = {span.sid: span for span in spans}
    own = {span.sid: span.c1 - span.c0 for span in spans if span.tid}
    for span in spans:
        parent = by_id.get(span.parent)
        if span.tid and parent is not None and parent.tid == span.tid:
            own[parent.sid] -= span.c1 - span.c0
    totals: dict[str, float] = {}
    for sid, seconds in own.items():
        layer = by_id[sid].layer
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals
