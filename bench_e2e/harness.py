"""Deployments, set-up and the closed-loop users.

The benchmark drives the configuration users get: ``DataBlinder(app,
transport)`` with no ``PipelineConfig`` and no environment overrides.  A
workload varies only the link's one-way latency, the node count and how
users reach the gateway (blocking ``Entities`` calls from threads, or
coroutines submitted to ``blinder.async_runtime()``).  Every op goes in
through that public API.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any

from repro import CloudZone, DataBlinder, Eq, InProcTransport, NetworkModel
from repro.cloud.cluster import CloudCluster
from repro.errors import DeadlineExceeded, GatewayOverloadError

import spans as tracing
from oracle import Oracle
from workload import (
    AGGREGATE,
    CHURN_DECK,
    COUNT,
    DELETE,
    EQ_SEARCH,
    INSERT,
    MIX_DECK,
    SCHEMA,
    SEARCH_FIELDS,
    STATUSES,
    UPDATE,
    Op,
    UserStream,
    corpus,
    observation_schema,
    user_streams,
    warmup_ops,
)

APPLICATION = "bench-e2e"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    deck: tuple
    search_fields: tuple
    latency_ms: float
    nodes: int
    users: int
    #: Users submit coroutines to the async gateway runtime from one
    #: generator thread; otherwise each user is a thread making blocking
    #: ``Entities`` calls.
    async_users: bool
    preload: int


WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            "fhir_mix_lan",
            "Section 5.2 mix at 0 ms, 2 blocking client threads: CPU-bound,"
            " so crypto, tactics, planner/engine, codec and cloud handler "
            "show with no link wait to hide them",
            MIX_DECK, SEARCH_FIELDS, latency_ms=0.0, nodes=1, users=2,
            async_users=False, preload=48,
        ),
        Workload(
            "fhir_mix_wan",
            "Same mix over a 40 ms one-way link, 8 users on the async "
            "gateway runtime: round-trip-bound, so the wire and the "
            "runtime's scheduling show; crypto is a small share",
            MIX_DECK, SEARCH_FIELDS, latency_ms=40.0, nodes=1, users=8,
            async_users=True, preload=48,
        ),
        # Each user updates and deletes only documents it inserted (or
        # was dealt from the preload): concurrent writers on one document
        # hit the lost-update defect, which belongs in the write-path
        # correctness suite, not in a performance gate.
        Workload(
            "churn_sharded_wan",
            "4-node sharded zone at 40 ms: updates and deletes beside reads"
            " run index delete+insert, docs.replace and the shard router's "
            "scatter/gather, which no other workload does",
            CHURN_DECK, ("status",), latency_ms=40.0, nodes=4, users=8,
            async_users=True, preload=96,
        ),
    )
}


def invoke(api: Any, op: Op, doc_id: str | None) -> Any:
    """Issue one op on ``Entities`` (returns the result) or on
    ``AsyncEntities`` (returns the coroutine)."""
    if op.kind == INSERT:
        return api.insert(dict(op.document))
    if op.kind == EQ_SEARCH:
        return api.find(Eq(op.field, op.value))
    if op.kind == AGGREGATE:
        return api.average("value", Eq(op.field, op.value))
    if op.kind == UPDATE:
        return api.update(doc_id, dict(op.changes))
    if op.kind == DELETE:
        return api.delete(doc_id)
    if op.kind == COUNT:
        return api.count(Eq(op.field, op.value))
    raise ValueError(f"unknown op kind {op.kind!r}")


class Deployment:
    """One gateway over one zone or a cluster, default configuration."""

    def __init__(self, workload: Workload):
        network = NetworkModel(one_way_latency_ms=workload.latency_ms)
        self._cluster = None
        self._zone = None
        if workload.nodes == 1:
            self._zone = CloudZone()
            self.nodes = [("zone-0", InProcTransport(self._zone.host,
                                                     network))]
            self.blinder = DataBlinder(APPLICATION, self.nodes[0][1])
        else:
            self._cluster = CloudCluster(workload.nodes, network=network)
            self.nodes = self._cluster.nodes()
            self.blinder = DataBlinder(APPLICATION, self.nodes)
        self.blinder.register_schema(observation_schema())
        self.entities = self.blinder.entities(SCHEMA)
        self.runtime = (self.blinder.async_runtime()
                        if workload.async_users else None)
        self.async_entities = (self.runtime.entities(SCHEMA)
                               if self.runtime is not None else None)

    def wire(self) -> dict[str, float]:
        """Traffic counters summed over every node's transport."""
        totals = {"frames": 0, "bytes": 0, "link_s": 0.0, "retries": 0}
        for _, transport in self.nodes:
            stats = transport.stats()
            totals["frames"] += stats.messages_sent
            totals["bytes"] += stats.bytes_sent + stats.bytes_received
            totals["link_s"] += stats.simulated_delay_seconds
            totals["retries"] += stats.retries
        return totals

    def planner(self) -> dict[str, int]:
        stats = self.blinder.planner_stats(SCHEMA)
        return {"hits": stats["cache_hits"], "misses": stats["cache_misses"]}

    def refusals(self) -> int:
        if self.runtime is None:
            return 0
        stats = self.runtime.stats.snapshot()
        return stats["rejected"] + stats["rate_limited"] + stats["expired"]

    def close(self) -> None:
        if self.runtime is not None:
            self.runtime.close()
        if self._cluster is not None:
            self._cluster.close()
        if self._zone is not None:
            self._zone.close()


@dataclass
class Record:
    """One attempted op."""

    op_id: int
    user: int
    op: Op
    doc_id: str | None
    t_submit: float
    t_start: float = 0.0
    t_end: float = 0.0
    #: ok | failed | refused | expired
    outcome: str = "ok"
    error: str = ""
    result: Any = None

    @property
    def latency_ms(self) -> float:
        return (self.t_end - self.t_submit) * 1000.0


@dataclass
class Phase:
    """What one timed phase measured."""

    records: list[Record]
    elapsed_s: float
    cpu_s: float
    wire: dict[str, float]
    planner: dict[str, int]
    refusals: int
    spans: list = field(default_factory=list)

    @property
    def completed(self) -> int:
        return sum(1 for record in self.records if record.outcome == "ok")


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


class Rig:
    """A set-up deployment plus the benchmark's view of its state."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.deployment = Deployment(workload)
        self.oracle = Oracle()
        self.errors: list[str] = []
        #: Document handle -> id the system assigned.
        self.ids: dict[str, str] = {}
        self.records: list[Record] = []
        self._op_ids = itertools.count(1)
        self._lock = threading.Lock()
        self.tracer: tracing.Tracer | None = None
        preload = corpus(seed, workload.preload)
        self.streams: list[UserStream] = user_streams(
            seed, workload.name, workload.deck, workload.search_fields,
            workload.users, preload,
        )
        self._preload = preload

    # -- set-up ------------------------------------------------------------------

    def load(self) -> None:
        """Preload the corpus and warm every tactic and plan shape."""
        self._run_now([Op(INSERT, document=document, handle=f"pre-{index}")
                       for index, document in enumerate(self._preload)])
        for stage in warmup_ops(self.seed, self.workload.deck,
                                self.workload.search_fields):
            self._run_now(stage)
        # Set-up ops are not part of any phase's records.
        self.records.clear()

    def _run_now(self, ops: list[Op]) -> None:
        """Run ops outside a phase, concurrently on the async runtime
        when there is one; a failure aborts the set-up."""
        if self.deployment.runtime is None:
            records = [self._execute_sync(-1, op) for op in ops]
        else:
            finished: queue.Queue = queue.Queue()
            submitted = sum(self._submit(-1, op, finished) for op in ops)
            records = [self._collect(finished) for _ in range(submitted)]
        for record in records:
            if record.outcome != "ok":
                raise RuntimeError(f"set-up {record.op.kind} failed: "
                                   f"{record.error}")

    # -- op bookkeeping ---------------------------------------------------------

    def _begin(self, user: int, op: Op) -> Record:
        doc_id = self.ids.get(op.handle) if op.kind in (UPDATE,
                                                        DELETE) else None
        with self._lock:
            record = Record(next(self._op_ids), user, op, doc_id,
                            time.perf_counter())
            self.records.append(record)
        if op.kind == UPDATE and doc_id is not None:
            self.oracle.updating(doc_id, op.changes)
        return record

    def _complete(self, record: Record, result: Any = None,
                  error: BaseException | None = None) -> None:
        op = record.op
        if error is not None:
            record.error = f"{type(error).__name__}: {error}"
            if isinstance(error, GatewayOverloadError):
                record.outcome = "refused"
            elif isinstance(error, DeadlineExceeded):
                record.outcome = "expired"
            else:
                record.outcome = "failed"
            if op.kind in (INSERT, UPDATE, DELETE):
                self.oracle.write_failed(record.doc_id)
            return
        record.result = result
        if op.kind == INSERT:
            record.doc_id = result
            self.ids[op.handle] = result
            self.oracle.inserted(result, op.document)
        elif op.kind == DELETE:
            self.oracle.deleted(record.doc_id)
            if result is not True:
                self.errors.append(
                    f"delete({record.doc_id}) of a live document returned "
                    f"{result!r}")

    def _unresolved(self, record: Record) -> bool:
        """An update/delete whose document's insert failed cannot run."""
        if record.op.kind in (UPDATE, DELETE) and record.doc_id is None:
            record.t_start = record.t_end = time.perf_counter()
            record.outcome = "failed"
            record.error = "target document's insert failed"
            return True
        return False

    # -- sync users ----------------------------------------------------------------

    def _execute_sync(self, user: int, op: Op) -> Record:
        record = self._begin(user, op)
        if self._unresolved(record):
            return record
        root = None
        if self.tracer is not None and user >= 0:
            root = self.tracer.root(record.op_id, op.kind, record.t_submit)
            root.tid, root.c0 = threading.get_ident(), time.thread_time()
        record.t_start = time.perf_counter()
        try:
            if root is None:
                result = invoke(self.deployment.entities, op,
                                record.doc_id)
            else:
                result = tracing.run_in_span(
                    root, invoke, self.deployment.entities, op,
                    record.doc_id)
        except Exception as error:  # noqa: BLE001 - every failure counts
            record.t_end = time.perf_counter()
            self._complete(record, error=error)
        else:
            record.t_end = time.perf_counter()
            self._complete(record, result)
        if root is not None:
            root.t1, root.c1 = record.t_end, time.thread_time()
            self.tracer.finish(root)
        return record

    def _sync_users(self, deadline: float) -> None:
        def user_loop(stream: UserStream) -> None:
            while time.perf_counter() < deadline:
                self._execute_sync(stream.user, stream.next())

        threads = [threading.Thread(target=user_loop, args=(stream,),
                                    name=f"bench-user-{stream.user}")
                   for stream in self.streams]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    # -- async users ---------------------------------------------------------------

    def _submit(self, user: int, op: Op, finished: queue.Queue) -> bool:
        """Submit one op to the runtime; its record and future land on
        ``finished`` when it completes.  False when it never started."""
        record = self._begin(user, op)
        if self._unresolved(record):
            return False
        api = self.deployment.async_entities
        root = None
        if self.tracer is not None and user >= 0:
            root = self.tracer.root(record.op_id, op.kind, record.t_submit)

        def make():
            record.t_start = time.perf_counter()
            if root is None:
                return invoke(api, op, record.doc_id)
            return tracing.await_in_span(
                root, lambda: invoke(api, op, record.doc_id))

        def done(future: Future) -> None:
            record.t_end = time.perf_counter()
            if root is not None:
                root.t1 = record.t_end
                self.tracer.finish(root)
            finished.put((record, future))

        try:
            future = self.deployment.runtime.submit(
                make, principal=f"user-{user}", op=op.kind)
        except Exception as error:  # noqa: BLE001 - refusals count
            record.t_start = record.t_end = time.perf_counter()
            self._complete(record, error=error)
            return False
        future.add_done_callback(done)
        return True

    def _collect(self, finished: queue.Queue) -> Record:
        """Book the next completed op (on the caller's thread, so a user's
        next op sees its previous op's effects)."""
        record, future = finished.get()
        error = future.exception()
        self._complete(record, None if error else future.result(), error)
        return record

    def _async_users(self, deadline: float) -> None:
        finished: queue.Queue = queue.Queue()
        in_flight = 0

        def issue(stream: UserStream) -> int:
            # A refused submission starts nothing: the user moves on to
            # its next op while time remains.
            while time.perf_counter() < deadline:
                if self._submit(stream.user, stream.next(), finished):
                    return 1
            return 0

        for stream in self.streams:
            in_flight += issue(stream)
        while in_flight:
            record = self._collect(finished)
            in_flight -= 1
            in_flight += issue(self.streams[record.user])

    # -- phases ------------------------------------------------------------------

    def phase(self, seconds: float, tracer: tracing.Tracer | None = None
              ) -> Phase:
        """Run every user closed-loop for ``seconds``; ops still in
        flight at the deadline complete and count."""
        deployment = self.deployment
        self.records = []
        self.tracer = tracer
        if tracer is not None:
            tracer.spans = []
            tracer.install()
        wire, planner = deployment.wire(), deployment.planner()
        refusals = deployment.refusals()
        cpu = time.process_time()
        started = time.perf_counter()
        try:
            if deployment.runtime is None:
                self._sync_users(started + seconds)
            else:
                self._async_users(started + seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
            self.tracer = None
        elapsed = time.perf_counter() - started
        return Phase(
            records=self.records,
            elapsed_s=elapsed,
            cpu_s=time.process_time() - cpu,
            wire=_delta(deployment.wire(), wire),
            planner=_delta(deployment.planner(), planner),
            refusals=deployment.refusals() - refusals,
            spans=list(tracer.spans) if tracer is not None else [],
        )

    # -- correctness ---------------------------------------------------------------

    def verify(self, phases: list[Phase]) -> list[str]:
        """Every check; none of them is timed or counted as an op."""
        errors = list(self.errors)
        searched: set[tuple[str, Any]] = set()
        averaged: set[str] = set()
        for phase in phases:
            for record in phase.records:
                op = record.op
                if op.kind == EQ_SEARCH:
                    searched.add((op.field, op.value))
                    if record.outcome == "ok":
                        errors += self.oracle.check_found(
                            op.field, op.value, record.result)
                elif op.kind == AGGREGATE:
                    averaged.add(op.value)
        oracle = self.oracle
        keywords = sorted(searched, key=repr)
        id_sets = self._quiet([("find_ids", Eq(name, value))
                               for name, value in keywords])
        for (name, value), got in zip(keywords, id_sets):
            errors += oracle.check_ids(name, value, got)
        subjects = sorted(averaged)
        averages = self._quiet([("average", Eq("subject", subject))
                                for subject in subjects])
        for subject, got in zip(subjects, averages):
            errors += oracle.check_average(subject, got)
        if COUNT in self.workload.deck:
            counts = self._quiet([("count", Eq("status", status))
                                  for status in STATUSES])
            ids = self._quiet([("find_ids", Eq("status", status))
                               for status in STATUSES])
            for status, counted, found in zip(STATUSES, counts, ids):
                errors += oracle.check_count(status, counted, found)
        return errors

    def _quiet(self, reads: list[tuple[str, Any]]) -> list[Any]:
        """Run read-only checks after the phase: concurrently through the
        runtime when there is one, so a WAN check stays short."""
        if self.deployment.runtime is None:
            return [self._read(self.deployment.entities, method, predicate)
                    for method, predicate in reads]
        api = self.deployment.async_entities
        futures = [
            self.deployment.runtime.submit(
                lambda method=method, predicate=predicate: self._read(
                    api, method, predicate),
                principal="checker", op=method)
            for method, predicate in reads
        ]
        return [future.result() for future in futures]

    @staticmethod
    def _read(api: Any, method: str, predicate: Any) -> Any:
        if method == "average":
            return api.average("value", predicate)
        return getattr(api, method)(predicate)

    def close(self) -> None:
        self.deployment.close()


def set_up(workload: Workload, seed: int) -> tuple[Rig, float]:
    """Deploy, register, preload and warm up; returns the seconds taken."""
    started = time.perf_counter()
    rig = Rig(workload, seed)
    rig.load()
    return rig, time.perf_counter() - started
