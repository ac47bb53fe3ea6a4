"""Benchmark metrics: latency samples, percentiles and throughput.

Collects what the paper's Locust deployment reported: per-operation and
overall throughput (Figure 5) and average / 50th / 75th / 99th percentile
latency (the §5.2 latency table).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank-with-interpolation percentile of a sample list."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1 - weight) + ordered[upper] * weight


@dataclass
class OperationStats:
    """Latency and throughput for one operation type."""

    operation: str
    count: int
    throughput: float           # operations per second
    mean_ms: float
    p50_ms: float
    p75_ms: float
    p99_ms: float
    # Appended with a default so positional construction stays valid.
    p95_ms: float = 0.0

    def as_dict(self) -> dict:
        """The one JSON spelling every benchmark shares: throughput plus
        the p50/p95/p99 ladder, keys stable across BENCH_*.json files."""
        return {
            "ops": self.count,
            "throughput_ops_s": round(self.throughput, 2),
            "mean_ms": round(self.mean_ms, 2),
            "p50_ms": round(self.p50_ms, 2),
            "p75_ms": round(self.p75_ms, 2),
            "p95_ms": round(self.p95_ms, 2),
            "p99_ms": round(self.p99_ms, 2),
        }

    @classmethod
    def from_samples(cls, operation: str, samples: list[float],
                     elapsed: float) -> "OperationStats":
        milliseconds = [s * 1000 for s in samples]
        return cls(
            operation=operation,
            count=len(samples),
            throughput=len(samples) / elapsed if elapsed > 0 else 0.0,
            mean_ms=sum(milliseconds) / len(milliseconds)
            if milliseconds else 0.0,
            p50_ms=percentile(milliseconds, 0.50),
            p75_ms=percentile(milliseconds, 0.75),
            p95_ms=percentile(milliseconds, 0.95),
            p99_ms=percentile(milliseconds, 0.99),
        )


#: Key of the synthetic all-operations entry in ``per_operation``.
OVERALL = "overall"


@dataclass
class RunReport:
    """The outcome of one load-generation run."""

    scenario: str
    elapsed_seconds: float
    per_operation: dict[str, OperationStats] = field(default_factory=dict)

    def _per_type(self) -> list[OperationStats]:
        """Every op type's stats, without the merged ``"overall"`` row."""
        return [stats for name, stats in self.per_operation.items()
                if name != OVERALL]

    @property
    def total_operations(self) -> int:
        return sum(s.count for s in self._per_type())

    @property
    def overall_throughput(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.total_operations / self.elapsed_seconds

    def overall(self) -> OperationStats:
        """Aggregate stats across every operation type."""
        per_type = self._per_type()
        counts = sum(s.count for s in per_type)
        if counts == 0:
            return OperationStats(OVERALL, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
        mean = sum(s.mean_ms * s.count for s in per_type) / counts
        # Percentiles over merged samples are recomputed by the recorder;
        # this path only runs when samples were discarded, so approximate
        # with the count-weighted maximum.
        return OperationStats(
            operation=OVERALL,
            count=counts,
            throughput=self.overall_throughput,
            mean_ms=mean,
            p50_ms=max(s.p50_ms for s in per_type),
            p75_ms=max(s.p75_ms for s in per_type),
            p95_ms=max(s.p95_ms for s in per_type),
            p99_ms=max(s.p99_ms for s in per_type),
        )


class MetricsRecorder:
    """Thread-safe latency sample collector."""

    def __init__(self) -> None:
        self._samples: dict[str, list[float]] = {}
        self._lock = threading.Lock()
        self._started = time.perf_counter()

    def record(self, operation: str, seconds: float) -> None:
        with self._lock:
            self._samples.setdefault(operation, []).append(seconds)

    def timed(self, operation: str):
        """Context manager measuring one operation."""
        return _Timed(self, operation)

    def report(self, scenario: str,
               elapsed: float | None = None) -> RunReport:
        with self._lock:
            samples = {op: list(s) for op, s in self._samples.items()}
        if elapsed is None:
            elapsed = time.perf_counter() - self._started
        report = RunReport(scenario=scenario, elapsed_seconds=elapsed)
        merged: list[float] = []
        for operation, values in sorted(samples.items()):
            report.per_operation[operation] = OperationStats.from_samples(
                operation, values, elapsed
            )
            merged.extend(values)
        if merged:
            report.per_operation[OVERALL] = OperationStats.from_samples(
                OVERALL, merged, elapsed
            )
        return report


class _Timed:
    def __init__(self, recorder: MetricsRecorder, operation: str):
        self._recorder = recorder
        self._operation = operation

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        if exc_info[0] is None:
            self._recorder.record(
                self._operation, time.perf_counter() - self._start
            )
