"""Latency/throughput measurement for experiment runs.

The paper reports throughput (operations or transactions per second) and
latency (average / median, milliseconds).  :class:`LatencyRecorder` collects
per-request samples during a simulated run; :class:`RunResult` is the summary
the cluster harness and the benchmark tables consume.

For the performance-under-failure experiments (Section VIII) a scalar summary
is not enough: the interesting signal is the *shape* of throughput and latency
over time — the dip when replicas crash, the fast-path→linear-PBFT fallback,
the view-change stall and the post-heal recovery.  :class:`Timeline` holds the
completion samples bucketed into fixed windows, and can slice the run into
before/during/after-fault phases for aggregate comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class TimelineBucket:
    """One fixed-width window of a run's completion stream."""

    start: float
    end: float
    completed_requests: int
    completed_operations: int
    throughput: float        # operations per second within the window
    mean_latency: float      # seconds; 0.0 for an empty window
    max_latency: float       # seconds; 0.0 for an empty window

    def as_row(self) -> Dict[str, float]:
        return {
            "t_start": round(self.start, 4),
            "t_end": round(self.end, 4),
            "completed_requests": self.completed_requests,
            "completed_operations": self.completed_operations,
            "throughput_ops": round(self.throughput, 2),
            "mean_latency_ms": round(self.mean_latency * 1000.0, 2),
            "max_latency_ms": round(self.max_latency * 1000.0, 2),
        }


@dataclass(frozen=True)
class Timeline:
    """Windowed throughput/latency rows over one run.

    Buckets cover ``[0, duration)`` contiguously (empty windows are kept, so a
    stall during a fault shows up as zero-throughput rows rather than a gap).
    """

    bucket_width: float
    duration: float
    buckets: Tuple[TimelineBucket, ...]

    def as_rows(self) -> List[Dict[str, float]]:
        return [bucket.as_row() for bucket in self.buckets]


class LatencyRecorder:
    """Accumulates request completion samples during a run."""

    def __init__(self):
        # One (completed_at, latency, operations) tuple per request; latency
        # summaries, timelines and phase slices all derive from this list.
        self._completions: List[Tuple[float, float, int]] = []
        self._operations = 0
        self.first_completion: Optional[float] = None
        self.last_completion: Optional[float] = None

    def record(self, issued_at: float, completed_at: float, operations: int = 1) -> None:
        """Record one completed request carrying ``operations`` operations."""
        self._completions.append((completed_at, completed_at - issued_at, operations))
        self._operations += operations
        if self.first_completion is None:
            self.first_completion = completed_at
        self.last_completion = completed_at

    @property
    def samples(self) -> List[float]:
        return [latency for _completed_at, latency, _ops in self._completions]

    @property
    def completed_requests(self) -> int:
        return len(self._completions)

    @staticmethod
    def _percentile_of(ordered: List[float], fraction: float) -> float:
        if not ordered:
            return 0.0
        index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
        return ordered[index]

    def timeline(self, bucket_width: float, duration: Optional[float] = None) -> Timeline:
        """Bucket the completion stream into a :class:`Timeline`.

        ``duration`` defaults to the last completion time; buckets cover the
        whole run, including empty windows (visible stalls).
        """
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        end = duration if duration is not None else (self.last_completion or 0.0)
        num_buckets = max(1, math.ceil(end / bucket_width)) if end > 0 else 0
        requests = [0] * num_buckets
        operations = [0] * num_buckets
        latency_sum = [0.0] * num_buckets
        latency_max = [0.0] * num_buckets
        for completed_at, latency, ops in self._completions:
            index = min(num_buckets - 1, int(completed_at / bucket_width)) if num_buckets else 0
            if index < 0 or not num_buckets:
                continue
            requests[index] += 1
            operations[index] += ops
            latency_sum[index] += latency
            if latency > latency_max[index]:
                latency_max[index] = latency
        buckets = tuple(
            TimelineBucket(
                start=i * bucket_width,
                end=min(end, (i + 1) * bucket_width),
                completed_requests=requests[i],
                completed_operations=operations[i],
                # The final bucket may be clamped to the run's end; divide by
                # the window it actually covers, not the nominal width.
                throughput=operations[i] / (min(end, (i + 1) * bucket_width) - i * bucket_width),
                mean_latency=latency_sum[i] / requests[i] if requests[i] else 0.0,
                max_latency=latency_max[i],
            )
            for i in range(num_buckets)
        )
        return Timeline(bucket_width=bucket_width, duration=end, buckets=buckets)

    def phase_summary(
        self, fault_start: float, fault_end: float, duration: Optional[float] = None
    ) -> Dict[str, Dict[str, float]]:
        """Aggregate the run into before/during/after-fault phases.

        ``fault_start``/``fault_end`` are absolute simulation times: *before*
        is ``[0, fault_start)``, *during* ``[fault_start, fault_end)`` and
        *after* ``[fault_end, duration]``.  Each phase row carries completed
        operations, operations/second over the phase window and mean latency
        of the requests that completed inside the phase.
        """
        end = duration if duration is not None else (self.last_completion or 0.0)
        bounds = {
            "before": (0.0, min(fault_start, end)),
            "during": (min(fault_start, end), min(fault_end, end)),
            "after": (min(fault_end, end), end),
        }
        summary: Dict[str, Dict[str, float]] = {}
        for phase, (start, stop) in bounds.items():
            window = stop - start
            in_phase = [
                (latency, ops)
                for completed_at, latency, ops in self._completions
                if start <= completed_at < stop or (phase == "after" and completed_at == stop)
            ]
            ops_total = sum(ops for _latency, ops in in_phase)
            summary[phase] = {
                "t_start": round(start, 4),
                "t_end": round(stop, 4),
                "completed_requests": len(in_phase),
                "completed_operations": ops_total,
                "throughput_ops": round(ops_total / window, 2) if window > 0 else 0.0,
                "mean_latency_ms": round(
                    1000.0 * sum(latency for latency, _ops in in_phase) / len(in_phase), 2
                )
                if in_phase
                else 0.0,
            }
        return summary

    def summary(self, duration: float, label: str = "") -> "RunResult":
        """Summarize into a :class:`RunResult` over ``duration`` seconds."""
        ordered = sorted(self.samples)  # sorted once, shared by the percentiles
        mean = sum(ordered) / len(ordered) if ordered else 0.0
        return RunResult(
            label=label,
            duration=duration,
            completed_requests=self.completed_requests,
            completed_operations=self._operations,
            throughput=self._operations / duration if duration > 0 else 0.0,
            mean_latency=mean,
            median_latency=self._percentile_of(ordered, 0.5),
            p99_latency=self._percentile_of(ordered, 0.99),
        )


@dataclass
class RunResult:
    """Summary of one experiment run."""

    label: str = ""
    duration: float = 0.0
    completed_requests: int = 0
    completed_operations: int = 0
    throughput: float = 0.0          # operations per second
    mean_latency: float = 0.0        # seconds
    median_latency: float = 0.0      # seconds
    p99_latency: float = 0.0         # seconds
    messages_sent: int = 0
    bytes_sent: int = 0
    extra: Dict[str, float] = field(default_factory=dict)
    # Optional windowed view of the run (performance-under-failure sweeps).
    timeline: Optional[Timeline] = None
    phases: Optional[Dict[str, Dict[str, float]]] = None

    @property
    def mean_latency_ms(self) -> float:
        return self.mean_latency * 1000.0

    @property
    def median_latency_ms(self) -> float:
        return self.median_latency * 1000.0

    def as_row(self) -> Dict[str, float]:
        """Flat dictionary used by the benchmark tables."""
        row = {
            "label": self.label,
            "throughput_ops": round(self.throughput, 2),
            "mean_latency_ms": round(self.mean_latency_ms, 2),
            "median_latency_ms": round(self.median_latency_ms, 2),
            "p99_latency_ms": round(self.p99_latency * 1000.0, 2),
            "completed_operations": self.completed_operations,
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
        }
        row.update(self.extra)
        return row
