"""Sync/async equivalence: the event-loop entry points must answer
byte-identically to the thread-blocking ones.

**Read equivalence** — every planner operation, over every predicate
shape of the plan-equivalence suite, answered once by the classic sync
``Entities`` and once by ``AsyncEntities`` (and once more via the
:class:`~repro.gateway.runtime.SyncGateway` façade) against the *same*
stored corpus: results, ordering included, must match exactly, under
both the baseline pipeline and the all-optimisations pipeline.

The router has one scatter path, so sharded write equivalence is
covered by ``tests/integration/test_shard_write_equivalence.py``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import AggregateQuery, And, Eq, Not, Or, Range
from repro.core.registry import TacticRegistry
from repro.core.schema import FieldAnnotation, Schema
from repro.net.batch import PipelineConfig
from repro.net.transport import InProcTransport
from repro.spi.descriptors import Aggregate
from repro.tactics import register_builtin_tactics

APP = "asyncequiv"


def build(pipeline=None):
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    cloud = CloudZone(registry)
    blinder = DataBlinder(APP, InProcTransport(cloud.host),
                          registry=registry, pipeline=pipeline)
    schema = Schema.define(
        "obs",
        status=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
        kind=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
        patient=("string", FieldAnnotation.parse("C2", "I,EQ")),
        effective=("int", FieldAnnotation.parse("C5", "I,EQ,RG",
                                                "min,max")),
        value=("float", FieldAnnotation.parse("C4", "I,EQ", "sum,avg")),
        note="string",
    )
    blinder.register_schema(schema)
    entities = blinder.entities("obs")
    entities.insert_many([
        {
            "status": ["final", "draft", "amended"][i % 3],
            "kind": ["hr", "bp"][i % 2],
            "patient": f"p{i % 5}",
            "effective": i * 3 % 50,
            "value": float(i % 7),
            "note": f"note {i}",
        }
        for i in range(36)
    ])
    return blinder, entities


PREDICATES = [
    None,
    Eq("status", "final"),
    Eq("patient", "p2"),
    Eq("note", "note 4"),
    Eq("status", "missing-value"),
    Range("effective", 10, 30),
    Range("effective", low=40),
    And([Eq("status", "final"), Eq("kind", "hr")]),
    And([Eq("status", "final"), Range("effective", 5, 35)]),
    Or([Eq("status", "draft"), Eq("status", "amended")]),
    Or([Eq("kind", "bp"), Range("effective", 0, 9)]),
    Not(Eq("status", "final")),
    And([Or([Eq("status", "final"), Eq("status", "draft")]),
         Not(Eq("kind", "bp"))]),
]

PIPELINES = [
    pytest.param(None, id="baseline"),
    pytest.param(
        PipelineConfig(batch_writes=True, fanout_workers=4,
                       prefetch=True, fetch_chunk=8),
        id="optimised",
    ),
]


def gather_sync(entities):
    state = {}
    for index, predicate in enumerate(PREDICATES):
        state[("find", index)] = entities.find(predicate)
        state[("ids", index)] = sorted(entities.find_ids(predicate))
        state[("count", index)] = entities.count(predicate)
    state["sum"] = entities.sum("value")
    state["avg"] = entities.average("value",
                                    where=Eq("status", "final"))
    state["min"] = entities.min("effective")
    state["max"] = entities.max("effective")
    state["sorted"] = entities.find_sorted("effective", limit=10)
    state["limited"] = entities.find(Eq("kind", "hr"), limit=5)
    return state


def gather_async(aentities):
    async def main():
        state = {}
        for index, predicate in enumerate(PREDICATES):
            state[("find", index)] = await aentities.find(predicate)
            state[("ids", index)] = sorted(
                await aentities.find_ids(predicate)
            )
            state[("count", index)] = await aentities.count(predicate)
        state["sum"] = await aentities.sum("value")
        state["avg"] = await aentities.average(
            "value", where=Eq("status", "final")
        )
        state["min"] = await aentities.min("effective")
        state["max"] = await aentities.max("effective")
        state["sorted"] = await aentities.find_sorted("effective",
                                                      limit=10)
        state["limited"] = await aentities.find(Eq("kind", "hr"),
                                                limit=5)
        return state

    return asyncio.run(main())


class TestReadEquivalence:
    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_async_entities_match_sync(self, pipeline):
        blinder, entities = build(pipeline)
        expected = gather_sync(entities)
        actual = gather_async(blinder.async_entities("obs"))
        assert actual == expected

    def test_concurrent_async_reads_match_sync(self):
        """The same sweep with every operation in flight at once."""
        blinder, entities = build(
            PipelineConfig(batch_writes=True, fanout_workers=4,
                           prefetch=True)
        )
        expected = [entities.find(p) for p in PREDICATES]
        aentities = blinder.async_entities("obs")

        async def main():
            return await asyncio.gather(
                *[aentities.find(p) for p in PREDICATES]
            )

        assert asyncio.run(main()) == expected

    def test_sync_facade_matches_plain_entities(self):
        blinder, entities = build(None)
        expected = gather_sync(entities)
        gateway = blinder.sync_gateway(principal="sweep")
        try:
            actual = gather_sync(gateway.entities("obs"))
        finally:
            gateway.close()
        assert actual == expected

    def test_async_write_path_round_trips(self):
        """Documents inserted/updated via the async write path read
        back identically through the sync path."""
        blinder, entities = build(PipelineConfig(batch_writes=True))
        aentities = blinder.async_entities("obs")

        async def main():
            doc_id = await aentities.insert({
                "status": "async", "kind": "hr", "patient": "px",
                "effective": 99, "value": 1.5, "note": "via loop",
            })
            more = await aentities.insert_many([
                {"status": "async", "kind": "bp", "patient": "py",
                 "effective": 98, "value": 2.5, "note": "bulk"},
            ])
            await aentities.update(doc_id, {"value": 7.5})
            return doc_id, more[0]

        doc_id, bulk_id = asyncio.run(main())
        assert entities.get(doc_id)["value"] == 7.5
        assert {d["_id"] for d in entities.find(Eq("status", "async"))} \
            == {doc_id, bulk_id}
        assert asyncio.run(
            blinder.async_entities("obs").delete(bulk_id)
        )
        assert entities.count(Eq("status", "async")) == 1
