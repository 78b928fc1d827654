"""One rep of one workload, in a process of its own.

``run.py`` spawns this file once per rep: the memo and execution caches under
``src/`` are process-global, so a fresh process is the only way every rep is
equally cold, and it makes ``ru_maxrss`` a per-rep number.  The last line of
standard output is one JSON object (see :func:`run_rep`); a rep that raises
prints ``{"error": ...}`` instead and exits 1.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import sys
import traceback
# Host time is the measurand here, so the repo linter's clock ban is waived.
from time import perf_counter, process_time  # repro: allow[no-wall-clock]
from typing import Any, Dict, List, Optional

#: Width (simulated seconds) of the completion-timeline buckets ``sim_outage_s``
#: is read from.
OUTAGE_BUCKET_S = 0.05

BENCHMARK_DIR = os.path.dirname(os.path.abspath(__file__))


class _TimedWorkload:
    """Delegates to a workload, timing request generation and counting the
    operations generated (the rep's ``attempted``)."""

    def __init__(self, inner: Any):
        self._inner = inner
        self.generation_s = 0.0
        self.requests = 0
        self.operations = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def client_operations(self, client_id: int) -> List[List[Any]]:
        started = perf_counter()
        requests = self._inner.client_operations(client_id)
        self.generation_s += perf_counter() - started
        self.requests += len(requests)
        self.operations += sum(len(request) for request in requests)
        return requests


def _longest_outage(timeline: Any) -> float:
    """Longest stretch of empty buckets after the first completion."""
    longest = current = 0
    seen_completion = False
    for bucket in timeline.buckets:
        if bucket.completed_requests:
            seen_completion = True
            current = 0
        elif seen_completion:
            current += 1
            longest = max(longest, current)
    return longest * timeline.bucket_width


def _check(cluster: Any, result: Any, workload: _TimedWorkload) -> List[str]:
    """Correctness gate of one rep; returns the failures (empty = correct)."""
    failures = []
    if result.run.completed_requests != workload.requests or not all(
        client.done for client in cluster.clients.values()
    ):
        failures.append(
            f"completed {result.run.completed_requests} of {workload.requests} requests "
            f"by simulated time {result.sim_time:.3f}"
        )
    if result.run.completed_operations != workload.operations:
        failures.append(
            f"completed {result.run.completed_operations} of {workload.operations} operations"
        )
    scripted = len(cluster.fault_plan) if cluster.fault_plan is not None else 0
    fired = len(cluster.injector.applied) if cluster.injector is not None else 0
    if fired != scripted:
        failures.append(f"{fired} of {scripted} scripted faults fired")
    # Replicas may legitimately trail (a block is decided before every replica
    # executes it); those that executed the same number of blocks must agree.
    digests: Dict[int, set] = {}
    for replica in cluster.replicas.values():
        if not replica.crashed:
            executed = replica.stats["blocks_executed"]
            digests.setdefault(executed, set()).add(replica.service.digest())
    for executed, seen in sorted(digests.items()):
        if len(seen) > 1:
            failures.append(f"{len(seen)} different state digests after {executed} blocks")
    return failures


def _counters(cluster: Any, result: Any, workload: _TimedWorkload) -> Dict[str, Any]:
    """Deterministic work counters read from the finished run's results."""
    from repro.core import execution_cache

    replica_stats = list(result.replica_stats.values())
    client_stats = list(result.client_stats.values())
    kind = cluster.spec.kind
    committed = max(stats["blocks_committed"] for stats in replica_stats)
    view_changes = max(stats["view_changes"] for stats in replica_stats)
    fast = sum(stats.get("blocks_committed_fast", 0) for stats in replica_stats)
    slow = sum(stats.get("blocks_committed_slow", 0) for stats in replica_stats)
    operations = result.run.completed_operations
    cache = execution_cache.stats()
    lookups = cache["hits"] + cache["misses"]
    sbft = kind != "pbft"
    return {
        "requests": result.run.completed_requests,
        "operations": operations,
        "sim.events.events": result.events_processed,
        "sim.events.compactions": cluster.sim.compactions,
        "sim.network.msgs": result.network_messages,
        "sim.network.bytes": result.network_bytes,
        "sim.network.msgs_per_op": result.network_messages / operations if operations else 0.0,
        "sim.network.bytes_per_op": result.network_bytes / operations if operations else 0.0,
        "core.blocks_committed": committed if sbft else 0,
        "core.fast_path_share": fast / (fast + slow) if fast + slow else 0.0,
        "core.ops_per_block": operations / committed if sbft and committed else 0.0,
        "core.view_changes": view_changes if sbft else 0,
        "core.state_transfers": sum(s["state_transfers"] for s in replica_stats) if sbft else 0,
        "core.client.retries": sum(stats["retries"] for stats in client_stats),
        "core.client.fallbacks": sum(stats["fallbacks"] for stats in client_stats),
        "core.client.acks_rejected": sum(stats["acks_rejected"] for stats in client_stats),
        "pbft.blocks_committed": 0 if sbft else committed,
        "pbft.view_changes": 0 if sbft else view_changes,
        "services.exec_cache_hit_share": cache["hits"] / lookups if lookups else 0.0,
    }


def _ratio(
    numerator: Optional[float], denominator: Optional[float], scale: float = 1.0
) -> Optional[float]:
    """``scale * numerator / denominator``; ``None`` when an input is an
    unresolved boundary count, 0 when nothing was counted."""
    if numerator is None or denominator is None:
        return None
    return scale * numerator / denominator if denominator else 0.0


def _trace_metrics(
    profiler: cProfile.Profile, counters: Dict[str, Any], boundaries: Optional[Dict] = None
) -> Dict[str, Any]:
    """Layer ledger and boundary call counts of a traced rep."""
    import layers

    self_s, calls, callcounts = layers.layer_ledger(profiler.getstats(), BENCHMARK_DIR)
    total = sum(self_s.values())
    metrics: Dict[str, Any] = {}
    for layer in layers.CODE_LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.self_share"] = self_s[layer] / total if total else 0.0
        metrics[f"{layer}.calls"] = calls[layer]
    counts, unresolved = layers.boundary_counts(callcounts, boundaries)
    metrics.update(counts)

    metrics["sim.events.us_per_event"] = _ratio(
        self_s["sim.events"], counters["sim.events.events"], 1e6
    )
    metrics["sim.network.fanout_mean"] = _ratio(
        counters["sim.network.msgs"], counts["sim.network.send_calls"]
    )
    metrics["crypto.hashing.us_per_call"] = _ratio(
        self_s["crypto.hashing"], counts["crypto.hashing.sha256_calls"], 1e6
    )
    metrics["evm.us_per_call"] = _ratio(self_s["evm"], counts["evm.execute_calls"], 1e6)
    metrics["trace.unresolved"] = unresolved
    return metrics


def run_rep(
    workload_name: str,
    seed: int,
    smoke: bool,
    trace: bool,
    spawned_at: float,
    boundaries: Optional[Dict] = None,
) -> Dict[str, Any]:
    """Build, run and check one rep; returns the rep record.

    ``spawned_at`` is the parent's ``perf_counter()`` just before it
    started this process (CLOCK_MONOTONIC is shared between processes), so
    ``setup_s`` covers interpreter start, imports, workload generation,
    trusted setup and cluster construction.
    """
    import workloads

    spec = workloads.WORKLOADS[workload_name]
    cluster, inner = spec.build(seed, smoke)
    workload = _TimedWorkload(inner)
    profiler = cProfile.Profile() if trace else None
    marks: Dict[str, float] = {}

    def post_build(_cluster: Any) -> None:
        marks["built"] = perf_counter()
        marks["cpu"] = process_time()
        if profiler is not None:
            profiler.enable()

    cluster.post_build = post_build
    run_called = perf_counter()
    try:
        result = cluster.run(workload, timeline_bucket=OUTAGE_BUCKET_S)
    finally:
        if profiler is not None:
            profiler.disable()
    finished = perf_counter()
    cpu_s = process_time() - marks["cpu"]
    run_wall_s = finished - marks["built"]

    failures = _check(cluster, result, workload)
    counters = _counters(cluster, result, workload)
    record: Dict[str, Any] = {
        "traced": trace,
        "attempted": workload.operations,
        "failures": failures,
        "host": {
            "setup_s": marks["built"] - spawned_at,
            "run_wall_s": run_wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "host.cpu_s": cpu_s,
            "host.preempt_share": max(0.0, 1.0 - cpu_s / run_wall_s),
            "host.events_per_s": result.events_processed / run_wall_s,
            "harness.workload_gen_s": workload.generation_s,
            "harness.build_s": marks["built"] - run_called - workload.generation_s,
        },
        "sim": {
            "sim_throughput_ops": result.throughput,
            "sim_latency_p50_ms": result.run.median_latency * 1000.0,
            "sim_latency_p99_ms": result.run.p99_latency * 1000.0,
            "sim_outage_s": _longest_outage(result.run.timeline),
        },
        "counters": counters,
    }
    if profiler is not None:
        record["trace"] = _trace_metrics(profiler, counters, boundaries)
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else perf_counter()
    try:
        record = run_rep(args.workload, args.seed, args.smoke, args.trace, spawned_at)
    except Exception:  # process boundary: report the failure to run.py
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
