"""Per-tactic runtime performance metrics (Fig. 1 reification)."""

import pytest

from repro.core.middleware import DataBlinder
from repro.core.query import Eq
from repro.fhir.model import observation_schema
from repro.net.batch import PipelineConfig
from repro.spi.metrics import OperationCost, TacticMetrics


class TestTacticMetrics:
    def test_record_and_aggregate(self):
        metrics = TacticMetrics()
        metrics.record_call("tactic/a/f/det", "insert", 0.01, 100, 20)
        metrics.record_call("tactic/a/f/det", "insert", 0.03, 100, 20)
        metrics.record_call("tactic/a/f/det", "eq_query", 0.02, 50, 500)
        metrics.record_call("tactic/a/g/mitra", "insert", 0.05, 80, 10)

        by_tactic = metrics.by_tactic()
        assert by_tactic["det"].calls == 3
        assert by_tactic["det"].seconds == pytest.approx(0.06)
        assert by_tactic["det"].bytes_sent == 250
        assert by_tactic["mitra"].calls == 1

    def test_mean(self):
        cost = OperationCost()
        cost.record(0.01, 0, 0)
        cost.record(0.03, 0, 0)
        assert cost.mean_ms == pytest.approx(20.0)
        assert OperationCost().mean_ms == 0.0

    def test_render(self):
        metrics = TacticMetrics()
        metrics.record_call("tactic/a/f/paillier", "insert", 0.5, 900, 10)
        output = metrics.render()
        assert "paillier" in output
        assert "calls" in output

    def test_reset(self):
        metrics = TacticMetrics()
        metrics.record_call("tactic/a/f/det", "insert", 0.01, 1, 1)
        metrics.reset()
        assert metrics.by_tactic() == {}

    def test_instance_totals(self):
        metrics = TacticMetrics()
        metrics.record_call("s", "a", 0.1, 10, 5)
        metrics.record_call("s", "b", 0.2, 20, 5)
        instance = metrics.instances()[0]
        assert instance.total_calls == 2
        assert instance.total_seconds == pytest.approx(0.3)
        assert instance.total_bytes == 40


class TestMiddlewareIntegration:
    def test_deployment_collects_metrics(self, blinder):
        blinder.register_schema(observation_schema())
        entities = blinder.entities("observation")
        entities.insert({
            "id": "f1", "identifier": 1, "status": "final",
            "code": "glucose", "subject": "A", "effective": 1,
            "issued": 2, "performer": "P", "value": 1.0,
            "interpretation": "",
        })
        entities.find(Eq("status", "final"))
        entities.average("value")

        by_tactic = blinder.runtime.metrics.by_tactic()
        # All five schema tactics show up with real traffic.
        for tactic in ("det", "mitra", "rnd", "ope", "paillier",
                       "biex-2lev"):
            assert tactic in by_tactic, tactic
            assert by_tactic[tactic].bytes_sent > 0

        report = blinder.metrics_report()
        assert "paillier" in report and "biex-2lev" in report

    def test_rounds_match_transport_counts(self, transport, registry):
        blinder = DataBlinder("testapp", transport, registry=registry,
                              pipeline=PipelineConfig(batch_writes=False))
        blinder.register_schema(observation_schema())
        entities = blinder.entities("observation")
        blinder.runtime.metrics.reset()
        before = transport.stats().messages_sent
        entities.insert({
            "id": "f2", "identifier": 2, "status": "final",
            "code": "hr", "subject": "B", "effective": 3, "issued": 4,
            "performer": "P", "value": 2.0, "interpretation": "",
        })
        transport_rounds = transport.stats().messages_sent - before
        metered_rounds = sum(
            c.rounds for c in blinder.runtime.metrics.by_tactic().values()
        )
        # Every round except the document-store write is attributed to a
        # tactic instance.
        assert metered_rounds == transport_rounds - 1
