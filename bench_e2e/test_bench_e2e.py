"""Self-tests of the benchmark (not of the program it measures).

Run from the repository root::

    python3 -m pytest bench_e2e -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
from harness import WORKLOADS, Phase, Record, Rig  # noqa: E402
from metrics import PER_LAYER, end_to_end, per_layer  # noqa: E402
from oracle import Oracle  # noqa: E402
from spans import Span, Tracer, attribute, self_cpu  # noqa: E402
from workload import (CHURN_DECK, EQ_SEARCH, INSERT, MIX_DECK,  # noqa: E402
                      SEARCH_FIELDS, Op, corpus, user_streams)

#: A traced op's layer self times must sum to its wall time within this
#: share (they are built to add up; the slack covers float rounding).
ADDITIVITY_TOLERANCE = 1e-6


def _ops(seed: int, deck: tuple, count: int = 300) -> list[Op]:
    streams = user_streams(seed, "test", deck, SEARCH_FIELDS, 3,
                           corpus(seed, 12))
    return [stream.next() for _ in range(count // 3) for stream in streams]


@pytest.mark.parametrize("deck", [MIX_DECK, CHURN_DECK])
def test_op_stream_is_identical_for_the_same_seed(deck):
    assert _ops(7, deck) == _ops(7, deck)
    assert _ops(7, deck) != _ops(8, deck)


def test_users_share_no_subject():
    streams = user_streams(5, "test", MIX_DECK, SEARCH_FIELDS, 8,
                           corpus(5, 12))
    owners: dict[str, int] = {}
    for user, stream in enumerate(streams):
        assert len(stream.cohort) == 3
        for _ in range(120):
            op = stream.next()
            subject = (op.document["subject"] if op.kind == INSERT
                       else op.value if op.field == "subject" else None)
            if subject is not None:
                assert owners.setdefault(subject, user) == user


def test_deck_keeps_the_mix_exact():
    # 3 users x 100 whole decks of 6 cards each.
    kinds = [op.kind for op in _ops(3, MIX_DECK, 1800)]
    assert {kinds.count(kind) for kind in set(kinds)} == {600}


def _oracle_with(document: dict) -> Oracle:
    oracle = Oracle()
    oracle.inserted("d1", document)
    return oracle


def test_oracle_rejects_a_tampered_result():
    document = {"status": "final", "subject": "patient-01", "value": 5.5}
    oracle = _oracle_with(document)
    honest = [{**document, "_id": "d1"}]
    assert oracle.check_found("status", "final", honest) == []
    tampered = [{**document, "value": 6.5, "_id": "d1"}]
    assert oracle.check_found("status", "final", tampered)
    wrong_match = [{**document, "status": "amended", "_id": "d1"}]
    assert oracle.check_found("status", "final", wrong_match)
    assert oracle.check_ids("status", "final", {"d1"}) == []
    assert oracle.check_ids("status", "final", set())
    assert oracle.check_ids("status", "final", {"d1", "d2"})
    assert oracle.check_average("patient-01", 5.5) == []
    assert oracle.check_average("patient-01", 5.6)
    assert oracle.check_count("final", 1, {"d1"}) == []
    assert oracle.check_count("final", 2, {"d1"})


def test_oracle_accepts_every_written_version():
    oracle = _oracle_with({"status": "final", "value": 1.0})
    oracle.updating("d1", {"status": "amended", "value": 2.0})
    old = {"status": "final", "value": 1.0, "_id": "d1"}
    new = {"status": "amended", "value": 2.0, "_id": "d1"}
    assert oracle.check_found("status", "final", [old]) == []
    assert oracle.check_found("status", "amended", [new]) == []
    assert oracle.check_ids("status", "amended", {"d1"}) == []


def _span(sid, parent, t0, t1, layer="x"):
    return Span(op=1, sid=sid, parent=parent, name=layer, layer=layer,
                t0=t0, t1=t1)


def test_self_time_when_children_overlap():
    root = _span(1, None, 0.0, 10.0, "gateway")
    left = _span(2, 1, 1.0, 5.0, "net")
    right = _span(3, 1, 3.0, 8.0, "cloud")
    shares = attribute([root, left, right])
    # The root keeps its duration minus the union of its children,
    # 10 - |[1, 8]|; the overlap [3, 5] is split evenly.
    assert shares["gateway"] == pytest.approx(3.0)
    assert shares["net"] == pytest.approx(2.0 + 1.0)
    assert shares["cloud"] == pytest.approx(1.0 + 3.0)
    assert sum(shares.values()) == pytest.approx(10.0)


def test_children_are_clipped_to_their_parent():
    root = _span(1, None, 0.0, 4.0, "gateway")
    child = _span(2, 1, 3.0, 6.0, "net")
    grandchild = _span(3, 2, 5.0, 7.0, "cloud")
    shares = attribute([root, child, grandchild])
    assert shares == pytest.approx({"gateway": 3.0, "net": 1.0})


def test_cpu_is_subtracted_only_for_children_on_the_same_thread():
    root = dataclasses.replace(_span(1, None, 0.0, 10.0, "engine"),
                               tid=7, c0=0.0, c1=6.0)
    inline = dataclasses.replace(_span(2, 1, 1.0, 3.0, "crypto.aead"),
                                 tid=7, c0=1.0, c1=3.0)
    hopped = dataclasses.replace(_span(3, 1, 4.0, 8.0, "cloud"),
                                 tid=8, c0=0.0, c1=1.5)
    coroutine = _span(4, 1, 8.0, 9.0, "net")  # no CPU reading (tid 0)
    assert self_cpu([root, inline, hopped, coroutine]) == pytest.approx(
        {"engine": 4.0, "crypto.aead": 2.0, "cloud": 1.5})


def test_throughput_is_completed_over_elapsed():
    op = Op(EQ_SEARCH, field="status", value="final")
    records = [Record(index, 0, op, None, 0.0, 0.0, 0.01,
                      outcome="ok" if index % 4 else "failed")
               for index in range(40)]
    phase = Phase(records, elapsed_s=2.5, cpu_s=0.5,
                  wire={"frames": 60, "bytes": 0, "link_s": 0.0,
                        "retries": 0},
                  planner={"hits": 0, "misses": 0}, refusals=0)
    figures = end_to_end(phase, setup_s=1.0)
    assert figures["throughput_ops_s"] == pytest.approx(30 / 2.5)
    assert figures["error_ratio"] == pytest.approx(10 / 40)
    assert figures["cpu_ms_per_op"] == pytest.approx(500.0 / 30)
    assert figures["round_trips_per_op"] == pytest.approx(60 / 30)


@pytest.mark.parametrize("name", ["fhir_mix_lan", "churn_sharded_wan"])
def test_traced_layers_add_up_to_each_ops_wall_time(name):
    # The workload's shape at 0 ms and with a small corpus, so the test
    # stays short; the sharded one has parallel legs (overlapping spans).
    workload = dataclasses.replace(WORKLOADS[name], latency_ms=0.0,
                                   preload=16)
    rig = Rig(workload, seed=5)
    rig.load()
    tracer = Tracer({id(transport): node
                     for node, transport in rig.deployment.nodes})
    try:
        untraced = rig.phase(0.3)
        traced = rig.phase(0.6, tracer)
        assert rig.verify([untraced, traced]) == []
    finally:
        rig.close()
    assert not tracer._patches, "wrappers must be removed after a phase"
    roots = {span.op: span for span in traced.spans if span.parent is None}
    assert len(roots) == traced.completed > 0
    for op, root in roots.items():
        shares = attribute([span for span in traced.spans if span.op == op])
        wall = root.t1 - root.t0
        assert abs(sum(shares.values()) - wall) <= ADDITIVITY_TOLERANCE * wall
    figures, layer_shares, _ = per_layer([traced], [untraced])
    assert figures["trace.additivity_error_max"] <= ADDITIVITY_TOLERANCE
    assert sum(layer_shares.values()) == pytest.approx(1.0)
    assert {"engine", "net", "cloud", "crypto.aead"} <= set(layer_shares)
    if workload.nodes > 1:
        assert figures["shard.legs_per_op"] > 1


def test_refuses_to_run_with_a_databliner_override(monkeypatch, capsys):
    monkeypatch.setenv("DATABLINDER_PAILLIER_POOL", "0")
    code = run.main(["--workload", "fhir_mix_lan", "--seed", "1",
                     "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_what_the_runs_report():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench_e2e/run.py"]
    assert {(w["name"], w["why"]) for w in spec["workloads"]} == {
        (name, workload.why) for name, workload in WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(PER_LAYER)
