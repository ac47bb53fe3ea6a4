"""End-to-end and per-layer metrics from measured phases."""

from __future__ import annotations

import statistics
from collections import defaultdict

from harness import Phase
from spans import PAILLIER_CALLS, attribute, self_cpu
from workload import (AGGREGATE, COUNT, DELETE, EQ_SEARCH, INSERT, UPDATE)

OP_KINDS = (INSERT, EQ_SEARCH, AGGREGATE, UPDATE, DELETE, COUNT)
#: (name, unit, better) of every metric a ``--trace 1`` run reports.
PER_LAYER = (
    ("gateway.queue_wait_ms_p50", "ms", "lower"),
    ("gateway.in_flight_mean", "count", "higher"),
    ("gateway.refused_or_expired", "count", "lower"),
    ("gateway.self_ms_per_op", "ms", "lower"),
    ("planner.plan_ms_per_op", "ms", "lower"),
    ("planner.plan_cache_hit_ratio", "ratio", "higher"),
    ("planner.plan_lookups_per_op", "count", "lower"),
    ("engine.self_ms_per_op", "ms", "lower"),
    ("tactics.det.self_ms_per_op", "ms", "lower"),
    ("tactics.mitra.self_ms_per_op", "ms", "lower"),
    ("tactics.rnd.self_ms_per_op", "ms", "lower"),
    ("tactics.paillier.self_ms_per_op", "ms", "lower"),
    ("crypto.paillier_ms_per_op", "ms", "lower"),
    ("crypto.paillier_calls_per_op", "count", "lower"),
    ("crypto.aead_ms_per_op", "ms", "lower"),
    ("crypto.det_ms_per_op", "ms", "lower"),
    ("net.rpc_ms_per_op", "ms", "lower"),
    ("net.link_ms_per_op", "ms", "lower"),
    ("net.codec_ms_per_op", "ms", "lower"),
    ("net.bytes_per_op", "bytes", "lower"),
    ("net.retries", "count", "lower"),
    ("cloud.dispatch_ms_per_op", "ms", "lower"),
    ("cloud.requests_per_frame", "count", "higher"),
    ("cloud.docs_fetched_per_returned", "ratio", "lower"),
    ("shard.self_ms_per_op", "ms", "lower"),
    ("shard.legs_per_op", "count", "lower"),
    ("shard.leg_skew", "ratio", "lower"),
    ("shard.busiest_node_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.additivity_error_max", "ratio", "lower"),
    ("trace.spans_per_op", "count", "lower"),
)
#: Layers whose self time the traced run reports, in report order.
LAYERS = ("gateway", "planner", "engine", "tactics.det", "tactics.mitra",
          "tactics.rnd", "tactics.paillier", "crypto.paillier",
          "crypto.aead", "crypto.det", "net", "net.link", "cloud", "shard")


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def p90_support(count: int) -> bool:
    """p90 is reported where it keeps at least ten samples beyond it."""
    return count * 0.1 >= 10


def latencies(phase: Phase) -> dict[str, list[float]]:
    by_kind: dict[str, list[float]] = defaultdict(list)
    for record in phase.records:
        if record.outcome == "ok":
            by_kind[record.op.kind].append(record.latency_ms)
    return by_kind


def merge(phases: list[Phase]) -> Phase:
    """Several phases read as one (their records, times and counts
    summed)."""
    if len(phases) == 1:
        return phases[0]
    return Phase(
        records=[record for phase in phases for record in phase.records],
        elapsed_s=sum(phase.elapsed_s for phase in phases),
        cpu_s=sum(phase.cpu_s for phase in phases),
        wire={key: sum(phase.wire[key] for phase in phases)
              for key in phases[0].wire},
        planner={key: sum(phase.planner[key] for phase in phases)
                 for key in phases[0].planner},
        refusals=sum(phase.refusals for phase in phases),
    )


def end_to_end(phase: Phase, setup_s: float) -> dict[str, float]:
    """Every end-to-end figure one untraced phase gives.

    ``insert_*`` and ``eq_search_*`` exist on every workload; the other
    op types only where the workload runs them.
    """
    completed = phase.completed
    attempted = len(phase.records)
    figures = {
        "setup_s": setup_s,
        "throughput_ops_s": completed / phase.elapsed_s,
        "error_ratio": (attempted - completed) / attempted,
        "cpu_ms_per_op": phase.cpu_s * 1000.0 / completed,
        "round_trips_per_op": phase.wire["frames"] / completed,
    }
    for kind, values in latencies(phase).items():
        figures[f"{kind}_p50_ms"] = statistics.median(values)
        figures[f"{kind}_p90_ms"] = percentile(values, 0.9)
        figures[f"{kind}_samples"] = len(values)
    return figures


def traced_ops(traced: list[Phase]):
    """(record, spans) of every op the traced phases completed."""
    records = {record.op_id: record
               for phase in traced for record in phase.records}
    by_op: dict[int, list] = defaultdict(list)
    for phase in traced:
        for span in phase.spans:
            by_op[span.op].append(span)
    for op_id, op_spans in by_op.items():
        record = records.get(op_id)
        if record is not None and record.outcome == "ok":
            yield record, op_spans


def per_layer(traced: list[Phase], untraced: list[Phase]
              ) -> tuple[dict[str, float], dict[str, float],
                         dict[str, float]]:
    """Per-layer figures from the traced phases, each layer's share of
    the traced ops' summed wall time, and each layer's share of the
    process CPU over the traced phases (``outside ops`` is CPU no op's
    blocking span covers: background threads and the event loop).

    Times are self times (see :func:`spans.attribute`) per completed op;
    every layer the workload's path lacks reads 0.
    """
    ops = sum(phase.completed for phase in traced)
    elapsed = sum(phase.elapsed_s for phase in traced)
    shares: dict[str, float] = defaultdict(float)
    cpu: dict[str, float] = defaultdict(float)
    worst_gap = 0.0
    rpc = dispatch = 0.0
    frames = requests = fetched = returned = 0
    paillier_calls = 0
    legs = 0
    skews: list[float] = []
    per_node: dict[str, int] = defaultdict(int)
    for record, op_spans in traced_ops(traced):
        root = next(span for span in op_spans if span.parent is None)
        op_shares = attribute(op_spans)
        wall = root.t1 - root.t0
        worst_gap = max(worst_gap, abs(sum(op_shares.values()) - wall) / wall)
        for layer, seconds in op_shares.items():
            shares[layer] += seconds
        for layer, seconds in self_cpu(op_spans).items():
            cpu[layer] += seconds
        by_id = {span.sid: span for span in op_spans}
        children: dict[int, list] = defaultdict(list)
        for span in op_spans:
            children[span.parent].append(span)
        searching = record.op.kind == EQ_SEARCH
        for span in op_spans:
            if span.layer == "net" and not _inside(span, by_id, "net"):
                rpc += span.t1 - span.t0
                frames += 1
                requests += span.n
                node = span.detail.split("|", 1)[0]
                per_node[node] += 1
            elif span.layer == "cloud" and span.name.startswith("dispatch"):
                dispatch += span.t1 - span.t0
            elif (span.name == "get_many" and span.layer == "cloud"
                  and searching):
                fetched += span.n
            elif (span.name in PAILLIER_CALLS
                  and span.layer == "crypto.paillier"):
                paillier_calls += 1
            elif span.layer == "shard" and not _inside(span, by_id,
                                                      "shard"):
                wire = [leg for leg in _descendants(span, children)
                        if leg.layer == "net"]
                legs += len(wire)
                if len(wire) > 1:
                    durations = [leg.t1 - leg.t0 for leg in wire]
                    skews.append(max(durations)
                                 / statistics.mean(durations))
        if searching:
            returned += len(record.result)

    link_s = sum(phase.wire["link_s"] for phase in traced)
    traced_rate = ops / elapsed
    untraced_rate = (sum(phase.completed for phase in untraced)
                     / sum(phase.elapsed_s for phase in untraced))
    queue_waits = [(record.t_start - record.t_submit) * 1000.0
                   for phase in traced for record in phase.records
                   if record.outcome == "ok"]
    busy = sum(record.t_end - record.t_start
               for phase in traced for record in phase.records)
    lookups = sum(phase.planner["hits"] + phase.planner["misses"]
                  for phase in traced)
    hits = sum(phase.planner["hits"] for phase in traced)
    figures = {
        "gateway.queue_wait_ms_p50": statistics.median(queue_waits),
        "gateway.in_flight_mean": busy / elapsed,
        "gateway.refused_or_expired": sum(phase.refusals
                                          for phase in traced),
        "gateway.self_ms_per_op": shares["gateway"] * 1000.0 / ops,
        "planner.plan_ms_per_op": shares["planner"] * 1000.0 / ops,
        "planner.plan_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "planner.plan_lookups_per_op": lookups / ops,
        "engine.self_ms_per_op": shares["engine"] * 1000.0 / ops,
    }
    for tactic in ("det", "mitra", "rnd", "paillier"):
        figures[f"tactics.{tactic}.self_ms_per_op"] = (
            shares[f"tactics.{tactic}"] * 1000.0 / ops)
    figures.update({
        "crypto.paillier_ms_per_op": shares["crypto.paillier"] * 1000.0
        / ops,
        "crypto.paillier_calls_per_op": paillier_calls / ops,
        "crypto.aead_ms_per_op": shares["crypto.aead"] * 1000.0 / ops,
        "crypto.det_ms_per_op": shares["crypto.det"] * 1000.0 / ops,
        "net.rpc_ms_per_op": rpc * 1000.0 / ops,
        "net.link_ms_per_op": link_s * 1000.0 / ops,
        "net.codec_ms_per_op": (rpc - link_s - dispatch) * 1000.0 / ops,
        "net.bytes_per_op": sum(phase.wire["bytes"] for phase in traced)
        / ops,
        "net.retries": sum(phase.wire["retries"] for phase in traced),
        "cloud.dispatch_ms_per_op": dispatch * 1000.0 / ops,
        "cloud.requests_per_frame": requests / frames if frames else 0.0,
        "cloud.docs_fetched_per_returned": (fetched / returned
                                            if returned else 0.0),
        "shard.self_ms_per_op": shares["shard"] * 1000.0 / ops,
        "shard.legs_per_op": legs / ops,
        "shard.leg_skew": statistics.mean(skews) if skews else 0.0,
        "shard.busiest_node_share": (max(per_node.values()) / frames
                                     if legs and frames else 0.0),
        "trace.overhead_ratio": 1.0 - traced_rate / untraced_rate,
        "trace.additivity_error_max": worst_gap,
        "trace.spans_per_op": sum(len(phase.spans) for phase in traced)
        / ops,
    })
    whole = sum(shares.values())
    process_cpu = sum(phase.cpu_s for phase in traced)
    cpu_shares = {layer: cpu[layer] / process_cpu for layer in LAYERS
                  if cpu.get(layer)}
    cpu_shares["outside ops"] = 1.0 - sum(cpu_shares.values())
    return figures, {layer: shares[layer] / whole for layer in LAYERS
                     if shares.get(layer)}, cpu_shares


def wire_requests(traced: list[Phase], kind: str) -> dict[str, float]:
    """Mean wire requests per ``kind`` op, by service method."""
    counts: dict[str, int] = defaultdict(int)
    ops = 0
    for record, op_spans in traced_ops(traced):
        if record.op.kind != kind:
            continue
        ops += 1
        for span in op_spans:
            if span.layer == "net":
                wire = span.detail.split("|", 1)[1]
                # tactic/<app>/<schema>.<field>/<tactic>.<method>
                counts[wire.rsplit("/", 1)[-1]] += 1
    return {name: count / ops for name, count in sorted(counts.items())
            } if ops else {}


def _inside(span, by_id: dict, layer: str) -> bool:
    """Whether ``span`` has an ancestor of the same layer."""
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.layer == layer:
            return True
        parent = by_id.get(parent.parent)
    return False


def _descendants(span, children: dict) -> list:
    found, stack = [], list(children.get(span.sid, ()))
    while stack:
        child = stack.pop()
        found.append(child)
        stack.extend(children.get(child.sid, ()))
    return found
