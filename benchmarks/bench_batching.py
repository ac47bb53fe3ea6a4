"""EXP-BATCH — batched RPC pipeline and parallel query fan-out.

The tentpole optimisation coalesces the per-field index writes of one
executor operation into a single batch frame and resolves independent
CNF literals concurrently, so the gateway/cloud link is charged once per
*operation* instead of once per *sub-call*.  Batched writes are the
default; three measurements against the per-RPC baseline
(``PipelineConfig(batch_writes=False)``, the paper's write path):

* **Round trips per multi-field insert** — the §5.2 benchmark schema
  (8 tactic instances + document store) drops from 9 frames to 1.
* **Critical path of a mixed CNF find** — a 2-clause / 4-literal
  predicate under a 40 ms one-way WAN model; parallel fan-out collapses
  the four sequential index round trips into one latency charge.
* **End-to-end throughput** — the Figure-5 workload mix through the
  middleware scenario on the same 40 ms link, baseline vs full pipeline.

Results land in ``BENCH_batching.json`` at the repo root so runs can be
compared across machines.
"""

import json
import os
import time
from pathlib import Path

from repro.bench.loadgen import run_load
from repro.bench.scenarios import MiddlewareApp
from repro.bench.workloads import Workload, WorkloadSpec
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import And, Eq, Or
from repro.fhir.generator import MedicalDataGenerator
from repro.fhir.model import benchmark_observation_schema
from repro.net.batch import PipelineConfig
from repro.net.latency import NetworkModel
from repro.net.transport import InProcTransport

#: The paper's gateway->public-cloud link; EXP-BATCH's headline setting.
WAN_ONE_WAY_MS = 40.0
#: Scale knob for the closed-loop throughput comparison (the 40 ms link
#: really sleeps, so the default stays small).
OPERATIONS = int(os.environ.get("DATABLINDER_BATCH_BENCH_OPS", "18"))
USERS = int(os.environ.get("DATABLINDER_BENCH_USERS", "4"))
SEED = 2019

#: The paper's one-round-trip-per-write path, the comparison baseline.
PER_RPC = PipelineConfig(batch_writes=False)
FULL_PIPELINE = PipelineConfig(batch_writes=True, fanout_workers=4,
                               prefetch=True)

RESULTS_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_batching.json"
)
#: Shared across the tests in this module; the last one writes the file.
RESULTS: dict = {}


def deploy(registry, pipeline=None, latency_ms=0.0, sleep=False,
           application="bench-batch"):
    cloud = CloudZone(registry)
    transport = InProcTransport(
        cloud.host,
        NetworkModel(one_way_latency_ms=latency_ms, sleep=sleep),
    )
    blinder = DataBlinder(application, transport, registry=registry,
                          verify_results=False, pipeline=pipeline)
    blinder.register_schema(benchmark_observation_schema())
    return blinder.entities("observation"), transport


def observation_documents(count, seed=SEED):
    generator = MedicalDataGenerator(seed)
    return [o.to_document() for o in
            generator.observations(count, cohort_size=4)]


def frames_per_insert(registry, pipeline):
    entities, transport = deploy(registry, pipeline)
    document = observation_documents(1)[0]
    before = transport.stats().messages_sent
    entities.insert(document)
    return transport.stats().messages_sent - before


def test_insert_round_trip_reduction(registry):
    """A multi-field insert collapses to one frame (>= 2x reduction)."""
    baseline = frames_per_insert(registry, PER_RPC)
    batched = frames_per_insert(registry, FULL_PIPELINE)
    RESULTS["insert_frames"] = {
        "baseline": baseline, "batched": batched,
        "reduction": baseline / batched,
    }
    print(f"\nEXP-BATCH insert frames: {baseline} -> {batched} "
          f"({baseline / batched:.1f}x fewer round trips)")
    # 8 tactic index writes + the document-store write vs one batch.
    assert baseline >= 9
    assert batched == 1
    assert baseline / batched >= 2.0


def mixed_cnf_predicate(docs):
    return And([
        Or([Eq("code", "heart-rate"), Eq("code", "glucose")]),
        Or([Eq("status", "final"), Eq("subject", docs[0]["subject"])]),
    ])


def find_critical_path_seconds(registry, pipeline, docs):
    # Writes are batched on both sides so that seeding the corpus over
    # the sleeping WAN link stays cheap; only fan-out differs.
    entities, _ = deploy(registry, pipeline, latency_ms=WAN_ONE_WAY_MS,
                         sleep=True)
    entities.insert_many([dict(d) for d in docs])
    predicate = mixed_cnf_predicate(docs)
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        entities.find_ids(predicate)
        best = min(best, time.perf_counter() - start)
    return best


def test_find_fanout_critical_path(registry):
    """Parallel literal resolution halves (at least) the CNF find path.

    The 2-clause / 4-literal predicate costs four sequential index round
    trips on the baseline (~4 x 80 ms on the 40 ms link); with fan-out
    the four resolutions overlap into roughly one latency charge.
    """
    docs = observation_documents(12)
    serial = find_critical_path_seconds(
        registry, PipelineConfig(batch_writes=True), docs
    )
    parallel = find_critical_path_seconds(
        registry, FULL_PIPELINE, docs
    )
    RESULTS["find_critical_path_seconds"] = {
        "baseline": serial, "fanout": parallel,
        "reduction": serial / parallel,
    }
    print(f"\nEXP-BATCH mixed CNF find on {WAN_ONE_WAY_MS:.0f} ms link: "
          f"{serial * 1000:.0f} ms -> {parallel * 1000:.0f} ms "
          f"({serial / parallel:.1f}x faster)")
    assert serial / parallel >= 2.0


def run_middleware(registry, pipeline, application):
    cloud = CloudZone(registry)
    transport = InProcTransport(
        cloud.host,
        NetworkModel(one_way_latency_ms=WAN_ONE_WAY_MS, sleep=True),
    )
    app = MiddlewareApp(transport, application=application,
                        pipeline=pipeline)
    workload = Workload(WorkloadSpec(operations=OPERATIONS, seed=SEED))
    result = run_load(app, workload, users=USERS)
    assert not result.errors, result.errors[:3]
    return result.report.per_operation["overall"].throughput


def test_end_to_end_throughput_win(registry):
    """The full pipeline beats the baseline on a 40 ms WAN link."""
    baseline = run_middleware(registry, PER_RPC, "bench-batch-base")
    pipelined = run_middleware(registry, FULL_PIPELINE, "bench-batch-pipe")
    RESULTS["throughput_ops_per_s"] = {
        "baseline": baseline, "pipelined": pipelined,
        "speedup": pipelined / baseline,
    }
    print(f"\nEXP-BATCH end-to-end on {WAN_ONE_WAY_MS:.0f} ms link: "
          f"{baseline:.2f} -> {pipelined:.2f} ops/s "
          f"({pipelined / baseline:.1f}x)")
    assert pipelined > baseline

    RESULTS["config"] = {
        "wan_one_way_ms": WAN_ONE_WAY_MS,
        "operations": OPERATIONS,
        "users": USERS,
        "pipeline": {
            "batch_writes": FULL_PIPELINE.batch_writes,
            "fanout_workers": FULL_PIPELINE.fanout_workers,
            "prefetch": FULL_PIPELINE.prefetch,
        },
    }
    RESULTS_PATH.write_text(json.dumps(RESULTS, indent=2) + "\n")
    print(f"results written to {RESULTS_PATH}")
