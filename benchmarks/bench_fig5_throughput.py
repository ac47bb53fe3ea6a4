"""EXP-F5 / EXP-OV — Figure 5: per-operation and overall throughput of
S_A (no protection), S_B (hard-coded tactics), S_C (DataBlinder).

The paper ran ~151k requests / ~50k documents / 1,000 Locust users over
two VMs; this regeneration is scaled down (pure-Python crypto, one core)
but keeps the workload mix (balanced read/write/aggregate over FHIR
Observations), the 8-tactic configuration (5×DET, Mitra, RND, Paillier)
and the closed-loop load shape.

Shape assertions (see EXPERIMENTS.md for the calibration discussion):

* S_A ≫ S_B — protection tactics cost a large factor.  The paper reports
  44%; with interpreted-Python crypto against an in-process datastore the
  ratio is necessarily larger, dominated by Paillier (which the paper
  itself singles out: "the Paillier queries ... having a considerable
  impact on the throughput").
* S_B ≈ S_C — the middleware layer itself is nearly free (paper: 1.4%).
  Asserted < 15% here; typically measures a few percent.
"""

import pytest

from repro.bench.loadgen import run_load
from repro.bench.report import (
    headline_ratios,
    render_figure5,
    render_run,
)
from repro.bench.scenarios import build_scenario
from repro.bench.workloads import Workload, WorkloadSpec
from repro.net.batch import PipelineConfig

import os

# Scale knob: DATABLINDER_BENCH_OPS=2000 pytest benchmarks/... runs a
# longer experiment (the paper used ~151k requests; the default keeps CI
# fast while preserving the mix and shape).
OPERATIONS = int(os.environ.get("DATABLINDER_BENCH_OPS", "240"))
USERS = int(os.environ.get("DATABLINDER_BENCH_USERS", "4"))
SEED = 2019
#: S_C runs the paper's per-RPC write path (one round trip per index
#: write), so S_B and S_C compare like for like.
PER_RPC = PipelineConfig(batch_writes=False)


def run_all_scenarios(fresh_deployment):
    reports = {}
    for name in ("S_A", "S_B", "S_C"):
        _, transport = fresh_deployment()
        app = build_scenario(name, transport, pipeline=PER_RPC)
        workload = Workload(WorkloadSpec(operations=OPERATIONS, seed=SEED))
        result = run_load(app, workload, users=USERS)
        assert not result.errors, result.errors[:3]
        reports[name] = result.report
    return reports


@pytest.fixture(scope="module")
def scenario_reports(request, registry):
    from repro.cloud.server import CloudZone
    from repro.net.transport import InProcTransport

    def factory():
        cloud = CloudZone(registry)
        return cloud, InProcTransport(cloud.host)

    return run_all_scenarios(factory)


def test_figure5_throughput(benchmark, fresh_deployment):
    reports = benchmark.pedantic(
        run_all_scenarios, args=(fresh_deployment,), rounds=1, iterations=1
    )
    ratios = headline_ratios(reports)

    print()
    print(render_figure5(reports))
    for report in reports.values():
        print()
        print(render_run(report))

    # Shape: protection costs a lot; the middleware layer costs little.
    assert ratios.tactic_loss_percent > 40.0
    assert ratios.middleware_loss_percent < 15.0

    # Per-operation ordering of Figure 5 holds for every operation type.
    for operation in ("insert", "eq_search", "aggregate", "overall"):
        t_a = reports["S_A"].per_operation[operation].throughput
        t_b = reports["S_B"].per_operation[operation].throughput
        assert t_a > t_b, operation


def test_middleware_delta_is_small(scenario_reports):
    """EXP-OV: S_B -> S_C loss stays within a small band (paper: 1.4%)."""
    ratios = headline_ratios(scenario_reports)
    assert -10.0 < ratios.middleware_loss_percent < 15.0
