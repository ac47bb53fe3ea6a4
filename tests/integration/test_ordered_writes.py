"""Failure guarantees of the default one-frame write path.

By default every insert, update and delete ships its index writes and
its document-store write as one batch frame, ordered per operation: a
slot applies only if every earlier slot of the operation succeeded.
These tests inject a failed response at every slot position of a
default write and check what the frame left behind:

* the document-store write did not apply — ``get`` returns the prior
  version and the store count is unchanged;
* the Mitra keyword the write touched still answers ``count == len(find)``
  (the failed operation's counter slots are void at the gateway);
* every DET keyword whose slot sat at or after the failure is untouched.

DET slots *before* the failure did apply, exactly as on the per-RPC
path, so their keywords may over-count until a repair pass exists; the
sharded case shows the stronger guarantee staging gives when the Mitra
slot lives on another node.
"""

from __future__ import annotations

import asyncio
import contextlib
import copy
import threading

import pytest

from repro.cloud.cluster import CloudCluster
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import Eq
from repro.errors import RemoteError
from repro.fhir.generator import MedicalDataGenerator
from repro.fhir.model import benchmark_observation_schema
from repro.net.batch import PipelineConfig
from repro.net.rpc import Response
from repro.net.transport import InProcTransport

SCHEMA = "observation"
#: Fields with an equality index, by tactic, in the §5.2 schema.
EQ_FIELDS = ("status", "code", "subject", "effective", "issued", "value")


def documents(count, seed=11):
    generator = MedicalDataGenerator(seed)
    docs = []
    for index, observation in enumerate(
        generator.observations(count, cohort_size=3)
    ):
        doc = observation.to_document()
        doc["_id"] = f"doc-{seed}-{index}"
        docs.append(doc)
    return docs


def injected():
    return Response(ok=False, error_type="OSError",
                    error_message="injected slot failure")


class SlotFault:
    """Fails one slot of the next write frame a host dispatches.

    ``pick(requests)`` returns the slot index to fail, or ``None`` to
    leave the frame alone.  Every frame the host saw while armed is kept
    in ``frames`` (as its requests) so the test can map slots to fields.
    """

    def __init__(self, host, pick):
        self.host = host
        self.frames: list[list] = []
        self.pick = pick
        self._original = host.dispatch_batch

    def __enter__(self):
        host = self.host
        original_dispatch = host.dispatch

        def dispatch_batch(requests):
            position = self.pick(requests)
            self.frames.append(list(requests))
            if position is None:
                return self._original(requests)
            target = requests[position]

            def dispatch(request):
                if request is target:
                    return injected()
                return original_dispatch(request)

            host.dispatch = dispatch
            try:
                return self._original(requests)
            finally:
                del host.dispatch

        host.dispatch_batch = dispatch_batch
        return self

    def __exit__(self, *exc_info):
        del self.host.dispatch_batch


def write_frame(requests):
    return any(r.service.startswith("docs/") and r.method != "get"
               for r in requests)


def at(position):
    """Fail slot ``position`` of the operation's write frame."""
    return lambda requests: position if write_frame(requests) else None


def mitra_slot(requests):
    """Fail the Mitra slot of whichever frame carries one."""
    return next((i for i, r in enumerate(requests)
                 if r.service.endswith("/mitra")), None)


def field_of(request):
    # tactic/<app>/<schema>.<field>/<tactic>
    return request.service.split("/")[2].split(".", 1)[1]


class Api:
    """Sync or async entities behind one blocking interface."""

    def __init__(self, blinder, use_async):
        self.sync = blinder.entities(SCHEMA)
        self._async = blinder.async_entities(SCHEMA) if use_async else None
        self._loop = asyncio.new_event_loop() if use_async else None

    def _run(self, name, *args):
        if self._async is None:
            return getattr(self.sync, name)(*args)
        return self._loop.run_until_complete(
            getattr(self._async, name)(*args)
        )

    def insert(self, doc):
        return self._run("insert", doc)

    def insert_many(self, docs):
        return self._run("insert_many", docs)

    def update(self, doc_id, changes):
        return self._run("update", doc_id, changes)

    def delete(self, doc_id):
        return self._run("delete", doc_id)

    def close(self):
        if self._loop is not None:
            self._loop.close()


def zone_deployment():
    cloud = CloudZone()
    blinder = DataBlinder("ordered", InProcTransport(cloud.host))
    blinder.register_schema(benchmark_observation_schema())
    return blinder, [cloud.host]


def cluster_deployment():
    cluster = CloudCluster(4)
    blinder = DataBlinder("ordered", cluster.nodes())
    blinder.register_schema(benchmark_observation_schema())
    hosts = [cluster.zone(name).host for name in cluster.names()]
    return blinder, hosts


def check_keywords(entities, oracle, doc, fields, skip=()):
    """``count == len(find) ==`` the oracle for ``doc``'s keywords
    (less the ``(field, value)`` pairs in ``skip``)."""
    for field in fields:
        if (field, doc[field]) in skip:
            continue
        predicate = Eq(field, doc[field])
        expected = sum(1 for stored in oracle.values()
                       if stored[field] == doc[field])
        found = entities.find(predicate)
        assert len(found) == expected, (field, doc[field])
        assert entities.count(predicate) == expected, (field, doc[field])


def untouched_det_fields(frame, failed):
    """DET fields whose every slot sat at or after the failed slot."""
    applied = {field_of(r) for r in frame[:failed]
               if r.service.endswith("/det")}
    return [field for field in EQ_FIELDS
            if field != "subject" and field not in applied]


@pytest.fixture(params=["sync", "async"])
def use_async(request):
    return request.param == "async"


class TestOneZone:
    def _setup(self, use_async, preload=4):
        blinder, (host,) = zone_deployment()
        api = Api(blinder, use_async)
        docs = documents(preload + 12)
        oracle = {}
        for doc in docs[:preload]:
            api.sync.insert(copy.deepcopy(doc))
            oracle[doc["_id"]] = doc
        return blinder, host, api, docs[preload:], oracle

    def test_insert_failure_at_every_slot(self, use_async):
        blinder, host, api, fresh, oracle = self._setup(use_async)
        try:
            position = 0
            while True:
                doc = fresh[position]
                with SlotFault(host, at(position)) as fault:
                    with pytest.raises(RemoteError) as raised:
                        api.insert(copy.deepcopy(doc))
                frame = next(f for f in fault.frames if write_frame(f))
                assert raised.value.remote_type == "OSError"
                with pytest.raises(RemoteError):
                    api.sync.get(doc["_id"])
                assert api.sync.count() == len(oracle)
                check_keywords(api.sync, oracle, doc, ["subject"])
                check_keywords(api.sync, oracle, doc,
                               untouched_det_fields(frame, position))
                position += 1
                if position == len(frame):
                    break
            # The failures left the deployment writable and searchable.
            doc = fresh[position]
            api.insert(copy.deepcopy(doc))
            oracle[doc["_id"]] = doc
            assert api.sync.get(doc["_id"])["subject"] == doc["subject"]
            check_keywords(api.sync, oracle, doc, ["subject"])
        finally:
            api.close()

    def test_update_failure_at_every_slot(self, use_async):
        blinder, host, api, fresh, oracle = self._setup(use_async)
        target = next(iter(oracle.values()))
        changes = {"status": "amended", "subject": "Someone Else"}
        new = {**target, **changes}
        try:
            position = 0
            while True:
                with SlotFault(host, at(position)) as fault:
                    with pytest.raises(RemoteError):
                        api.update(target["_id"], dict(changes))
                frame = next(f for f in fault.frames if write_frame(f))
                stored = api.sync.get(target["_id"])
                assert stored["status"] == target["status"]
                assert stored["subject"] == target["subject"]
                for doc in (target, new):
                    check_keywords(api.sync, oracle, doc, ["subject"])
                    check_keywords(api.sync, oracle, doc,
                                   untouched_det_fields(frame, position))
                position += 1
                if position == len(frame):
                    break
            api.update(target["_id"], dict(changes))
            oracle[target["_id"]] = new
            assert api.sync.get(target["_id"])["status"] == "amended"
            check_keywords(api.sync, oracle, new, ["subject", "status"])
        finally:
            api.close()

    def test_delete_failure_at_every_slot(self, use_async):
        blinder, host, api, fresh, oracle = self._setup(use_async)
        target = next(iter(oracle.values()))
        try:
            position = 0
            while True:
                with SlotFault(host, at(position)) as fault:
                    with pytest.raises(RemoteError):
                        api.delete(target["_id"])
                frame = next(f for f in fault.frames if write_frame(f))
                assert api.sync.get(target["_id"])["status"] == \
                    target["status"]
                assert api.sync.count() == len(oracle)
                check_keywords(api.sync, oracle, target, ["subject"])
                # A delete's applied DET slots drop the document from
                # those keywords; the later ones must be untouched.
                check_keywords(api.sync, oracle, target,
                               untouched_det_fields(frame, position))
                position += 1
                if position == len(frame):
                    break
            assert api.delete(target["_id"]) is True
            del oracle[target["_id"]]
            assert api.sync.count() == len(oracle)
            check_keywords(api.sync, oracle, target, ["subject"])
        finally:
            api.close()


class TestShardedMitraFailure:
    """4 nodes: the Mitra slot fails.

    When the Mitra address lands on another node than the document, the
    router ships the Mitra leg first and holds the document's leg back,
    so *nothing* on the document's node applies: every keyword agrees.
    When both land on one node, the host's ordering applies instead.
    """

    def test_mitra_slot_failure(self, use_async):
        blinder, hosts = cluster_deployment()
        api = Api(blinder, use_async)
        docs = documents(16, seed=23)
        oracle = {}
        try:
            for doc in docs[:4]:
                api.sync.insert(copy.deepcopy(doc))
                oracle[doc["_id"]] = doc
            staged = 0
            # DET keywords a co-located failure's earlier slots wrote to.
            tainted: set = set()
            for doc in docs[4:]:
                with contextlib.ExitStack() as stack:
                    faults = [stack.enter_context(SlotFault(host, mitra_slot))
                              for host in hosts]
                    with pytest.raises(RemoteError) as raised:
                        api.insert(copy.deepcopy(doc))
                assert raised.value.remote_type == "OSError"
                with pytest.raises(RemoteError):
                    api.sync.get(doc["_id"])
                assert api.sync.count() == len(oracle)
                colocated = [frame for fault in faults
                             for frame in fault.frames
                             if write_frame(frame)]
                if not colocated:
                    staged += 1
                    check_keywords(api.sync, oracle, doc, EQ_FIELDS,
                                   skip=tainted)
                else:
                    (frame,) = colocated
                    untouched = untouched_det_fields(frame,
                                                     mitra_slot(frame))
                    tainted.update(
                        (field, doc[field]) for field in EQ_FIELDS
                        if field != "subject" and field not in untouched
                    )
                    check_keywords(api.sync, oracle, doc, EQ_FIELDS,
                                   skip=tainted)
            assert staged > 0  # 12 tries; each co-locates with p = 1/4
        finally:
            api.close()

    def test_staged_insert_costs_two_round_trips_only_when_split(self):
        blinder, _ = cluster_deployment()
        entities = blinder.entities(SCHEMA)
        nodes = blinder.runtime.transport
        frames = []
        for doc in documents(8, seed=31):
            before = sum(t.stats().messages_sent
                         for _, t in _node_transports(nodes))
            entities.insert(copy.deepcopy(doc))
            frames.append(sum(t.stats().messages_sent
                              for _, t in _node_transports(nodes))
                          - before)
        # One frame when the Mitra slot shares the document's node, two
        # (Mitra leg, then document leg) when it does not.
        assert set(frames) <= {1, 2}
        assert 2 in frames  # 8 inserts; each co-locates with p = 1/4


def first_slot_of(suffix):
    """Fail the first ``suffix`` slot any host sees, once in total."""
    lock = threading.Lock()
    fired = []

    def pick(requests):
        with lock:
            if fired:
                return None
            position = next((i for i, r in enumerate(requests)
                             if r.service.endswith(suffix)), None)
            if position is not None:
                fired.append(position)
            return position

    return pick


class TestShardedBulkInsertFailure:
    """4 nodes: one index slot of a multi-document ``insert_many`` fails.

    The bulk document write splits into one piece per node, and a host
    orders only its own leg, so every piece must wait until all of the
    operation's index slots on every node answered.  A failed index slot
    then stores no document on any node.
    """

    @pytest.mark.parametrize("suffix", ["/mitra", "/det"])
    def test_no_document_stored(self, use_async, suffix):
        blinder, hosts = cluster_deployment()
        api = Api(blinder, use_async)
        docs = documents(20, seed=47)
        oracle = {}
        try:
            for doc in docs[:4]:
                api.sync.insert(copy.deepcopy(doc))
                oracle[doc["_id"]] = doc
            batch = docs[4:12]
            with contextlib.ExitStack() as stack:
                pick = first_slot_of(suffix)
                faults = [stack.enter_context(SlotFault(host, pick))
                          for host in hosts]
                with pytest.raises(RemoteError) as raised:
                    api.insert_many(copy.deepcopy(batch))
            assert raised.value.remote_type == "OSError"
            # The operation's slots went to more than one node.
            assert sum(1 for fault in faults if fault.frames) > 1
            for doc in batch:
                with pytest.raises(RemoteError):
                    api.sync.get(doc["_id"])
            assert api.sync.count() == len(oracle)
            for doc in batch:
                check_keywords(api.sync, oracle, doc, ["subject"])
            # The deployment still takes the next bulk insert whole.
            api.insert_many(copy.deepcopy(docs[12:]))
            oracle.update((doc["_id"], doc) for doc in docs[12:])
            assert api.sync.count() == len(oracle)
            for doc in docs[12:]:
                check_keywords(api.sync, oracle, doc, ["subject"])
        finally:
            api.close()


def _node_transports(transport):
    while not hasattr(transport, "node_names"):
        transport = transport.inner
    return [(name, transport.node_transport(name))
            for name in transport.node_names()]


class TestCoalescedOperations:
    def test_one_failed_operation_leaves_the_other_applied(self):
        cloud = CloudZone()
        blinder = DataBlinder(
            "ordered", InProcTransport(cloud.host),
            pipeline=PipelineConfig(coalesce_window_ms=1000.0,
                                    coalesce_max_slots=18),
        )
        blinder.register_schema(benchmark_observation_schema())
        entities = blinder.entities(SCHEMA)
        good, bad = documents(2, seed=41)

        host = cloud.host
        original = host.dispatch

        def dispatch(request):
            if request.method == "insert_many" and any(
                d.get("_id") == bad["_id"]
                for d in request.kwargs.get("documents", [])
            ):
                return injected()
            return original(request)

        host.dispatch = dispatch
        errors = {}

        def insert(doc):
            try:
                entities.insert(copy.deepcopy(doc))
            except RemoteError as exc:
                errors[doc["_id"]] = exc

        threads = [threading.Thread(target=insert, args=(doc,))
                   for doc in (good, bad)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        del host.dispatch

        coalescer = blinder.runtime.batch_collector.coalescer
        assert coalescer.stats.frames_in == 2
        assert coalescer.stats.batches_out == 1  # both rode one frame
        assert set(errors) == {bad["_id"]}
        assert errors[bad["_id"]].remote_type == "OSError"
        assert entities.get(good["_id"])["subject"] == good["subject"]
        with pytest.raises(RemoteError):
            entities.get(bad["_id"])
        oracle = {good["_id"]: good}
        for doc in (good, bad):
            check_keywords(entities, oracle, doc, ["subject"])
