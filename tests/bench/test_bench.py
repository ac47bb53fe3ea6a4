"""Benchmark harness: metrics, workloads, scenarios, load generation."""

import pytest

from repro.bench.metrics import MetricsRecorder, OperationStats, percentile
from repro.bench.report import (
    headline_ratios,
    render_figure5,
    render_latency_table,
    render_run,
)
from repro.bench.scenarios import (
    HARDCODED_TACTICS,
    build_scenario,
)
from repro.bench.workloads import (
    OP_AGGREGATE,
    OP_EQ_SEARCH,
    OP_INSERT,
    Workload,
    WorkloadSpec,
)
from repro.bench.loadgen import run_load
from repro.cloud.server import CloudZone
from repro.net.transport import InProcTransport


class TestPercentiles:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_single(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_median_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_extremes(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 100.0
        assert percentile(samples, 0.99) == pytest.approx(99.01)


class TestMetricsRecorder:
    def test_record_and_report(self):
        recorder = MetricsRecorder()
        for ms in (10, 20, 30):
            recorder.record("insert", ms / 1000)
        recorder.record("search", 0.005)
        report = recorder.report("S_X", elapsed=2.0)
        assert report.per_operation["insert"].count == 3
        assert report.per_operation["insert"].mean_ms == pytest.approx(20.0)
        assert report.per_operation["insert"].throughput == pytest.approx(
            1.5
        )
        assert report.per_operation["overall"].count == 4
        assert report.total_operations == 4

    def test_overall_throughput_counts_each_op_once(self):
        recorder = MetricsRecorder()
        for _ in range(6):
            recorder.record("insert", 0.01)
        for _ in range(4):
            recorder.record("eq_search", 0.02)
        report = recorder.report("S_X", elapsed=2.5)
        # 10 real ops in 2.5 s; the merged "overall" row adds none.
        assert report.total_operations == 10
        assert report.overall_throughput == pytest.approx(10 / 2.5)
        assert report.overall().count == 10
        assert report.overall().throughput == pytest.approx(
            report.per_operation["overall"].throughput
        )

    def test_timed_context_manager(self):
        recorder = MetricsRecorder()
        with recorder.timed("op"):
            pass
        report = recorder.report("s", elapsed=1.0)
        assert report.per_operation["op"].count == 1

    def test_timed_skips_failures(self):
        recorder = MetricsRecorder()
        with pytest.raises(ValueError):
            with recorder.timed("op"):
                raise ValueError()
        assert "op" not in recorder.report("s", elapsed=1.0).per_operation

    def test_operation_stats_from_samples(self):
        stats = OperationStats.from_samples("x", [0.001, 0.003], 1.0)
        assert stats.p50_ms == pytest.approx(2.0)


class TestWorkload:
    def test_deterministic(self):
        spec = WorkloadSpec(operations=60, seed=5)
        a, b = Workload(spec), Workload(spec)
        assert [o.kind for o in a] == [o.kind for o in b]

    def test_size(self):
        assert len(Workload(WorkloadSpec(operations=80))) == 80

    def test_mix_roughly_balanced(self):
        workload = Workload(WorkloadSpec(operations=600, seed=1))
        mix = workload.mix()
        for kind in (OP_INSERT, OP_EQ_SEARCH, OP_AGGREGATE):
            assert mix.get(kind, 0) > 100

    def test_searches_target_inserted_values(self):
        workload = Workload(WorkloadSpec(operations=100, seed=2))
        inserted = {
            field: set()
            for field in ("status", "code", "subject", "effective",
                          "issued", "value")
        }
        for op in workload:
            if op.kind == OP_INSERT:
                for field in inserted:
                    inserted[field].add(op.document[field])
            elif op.kind == OP_EQ_SEARCH:
                assert op.value in inserted[op.field]

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WorkloadSpec(insert_fraction=0.9, search_fraction=0.9,
                         aggregate_fraction=0.9)

    def test_custom_mix(self):
        workload = Workload(WorkloadSpec(
            operations=50, insert_fraction=1.0, search_fraction=0.0,
            aggregate_fraction=0.0,
        ))
        assert workload.mix() == {OP_INSERT: 50}


@pytest.fixture(params=["S_A", "S_B", "S_C"])
def scenario(request):
    cloud = CloudZone()
    return build_scenario(request.param, InProcTransport(cloud.host))


class TestScenarios:
    def test_application_interface(self, scenario):
        doc = {
            "id": "f1", "identifier": 1, "status": "final",
            "code": "glucose", "subject": "A", "effective": 100,
            "issued": 200, "performer": "Dr", "value": 5.0,
            "interpretation": "normal",
        }
        doc_id = scenario.insert(dict(doc))
        assert isinstance(doc_id, str) and doc_id

        results = scenario.eq_search("status", "final")
        assert len(results) == 1
        assert results[0]["value"] == 5.0

        scenario.insert(dict(doc, id="f2", value=7.0))
        assert scenario.average("value", "status",
                                "final") == pytest.approx(6.0)

    def test_no_match_average_is_none(self, scenario):
        assert scenario.average("value", "status", "ghost") is None

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            build_scenario("S_X", None)


class TestScenarioEquivalence:
    """All three scenarios must return the same answers — protection
    changes cost, never semantics."""

    def test_same_results_across_scenarios(self):
        spec = WorkloadSpec(operations=40, seed=11)
        answers = {}
        for name in ("S_A", "S_B", "S_C"):
            cloud = CloudZone()
            app = build_scenario(name, InProcTransport(cloud.host))
            workload = Workload(spec)
            search_counts = []
            averages = []
            for op in workload:
                if op.kind == OP_INSERT:
                    app.insert(dict(op.document))
                elif op.kind == OP_EQ_SEARCH:
                    search_counts.append(
                        len(app.eq_search(op.field, op.value))
                    )
                else:
                    value = app.average(op.agg_field, op.where_field,
                                        op.where_value)
                    averages.append(
                        None if value is None else round(value, 4)
                    )
            answers[name] = (search_counts, averages)
        assert answers["S_A"] == answers["S_B"] == answers["S_C"]


class TestLoadGenerator:
    def test_run_collects_all_operations(self):
        cloud = CloudZone()
        app = build_scenario("S_A", InProcTransport(cloud.host))
        workload = Workload(WorkloadSpec(operations=30, seed=3))
        result = run_load(app, workload, users=3)
        assert not result.errors
        assert result.report.per_operation["overall"].count == 30
        assert result.report.per_operation["overall"].throughput > 0

    def test_hardcoded_tactics_match_paper_count(self):
        # 5 DET + Mitra + RND (+ Paillier separately) = the paper's 8.
        assert list(HARDCODED_TACTICS.values()).count("det") == 5
        assert set(HARDCODED_TACTICS.values()) == {"det", "mitra", "rnd"}


class TestReportRendering:
    def make_reports(self):
        reports = {}
        for name, speed in (("S_A", 0.001), ("S_B", 0.01), ("S_C", 0.011)):
            recorder = MetricsRecorder()
            for op in ("insert", "eq_search", "aggregate"):
                for _ in range(5):
                    recorder.record(op, speed)
            reports[name] = recorder.report(name, elapsed=speed * 15)
        return reports

    def test_figure5_rendering(self):
        output = render_figure5(self.make_reports())
        assert "insert:" in output and "S_C" in output
        assert "paper: ~44%" in output

    def test_latency_table_rendering(self):
        output = render_latency_table(self.make_reports())
        assert "p99" in output and "S_B" in output

    def test_render_run(self):
        output = render_run(self.make_reports()["S_A"])
        assert "S_A" in output and "insert" in output

    def test_headline_ratios(self):
        ratios = headline_ratios(self.make_reports())
        assert 85 < ratios.tactic_loss_percent < 95
        assert 5 < ratios.middleware_loss_percent < 15
