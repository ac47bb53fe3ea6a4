"""EXP-LAT — the §5.2 latency table: average, p50, p75 and p99 latency
per scenario.

The paper observes that "the execution of aggregate protocols, namely the
Paillier partially homomorphic encryption, had a considerable impact on
these numbers" — asserted below as the aggregate-heavy tail: in the
protected scenarios the p99 sits far above the median, while the
unprotected scenario stays flat.
"""

import pytest

from repro.bench.loadgen import run_load
from repro.bench.report import render_latency_table, render_run
from repro.bench.scenarios import build_scenario
from repro.bench.workloads import Workload, WorkloadSpec
from repro.net.batch import PipelineConfig

OPERATIONS = 180
USERS = 4
SEED = 73
#: S_C runs the paper's per-RPC write path (one round trip per index
#: write), so S_B and S_C compare like for like.
PER_RPC = PipelineConfig(batch_writes=False)


def run_scenarios(fresh_deployment):
    reports = {}
    for name in ("S_A", "S_B", "S_C"):
        _, transport = fresh_deployment()
        app = build_scenario(name, transport, pipeline=PER_RPC)
        workload = Workload(WorkloadSpec(operations=OPERATIONS, seed=SEED))
        result = run_load(app, workload, users=USERS)
        assert not result.errors, result.errors[:3]
        reports[name] = result.report
    return reports


def test_latency_percentiles(benchmark, fresh_deployment):
    reports = benchmark.pedantic(
        run_scenarios, args=(fresh_deployment,), rounds=1, iterations=1
    )

    print()
    print(render_latency_table(reports))
    print()
    for name in ("S_B", "S_C"):
        print(render_run(reports[name]))
        print()

    for name, report in reports.items():
        overall = report.per_operation["overall"]
        assert overall.p50_ms <= overall.p75_ms <= overall.p99_ms, name

    # Protected scenarios are slower across every percentile.
    for stat in ("mean_ms", "p50_ms", "p99_ms"):
        assert getattr(reports["S_B"].per_operation["overall"], stat) > (
            getattr(reports["S_A"].per_operation["overall"], stat)
        ), stat

    # The Paillier work drives the protected tail: an aggregate (search +
    # homomorphic product + decrypt) costs far more than a plain equality
    # search in S_B and S_C.  (Inserts carry a Paillier encryption too,
    # which is why the paper blames Paillier for the *overall* numbers.)
    for name in ("S_B", "S_C"):
        per_op = reports[name].per_operation
        assert per_op["aggregate"].mean_ms >= per_op["eq_search"].mean_ms
