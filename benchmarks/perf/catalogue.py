"""Every metric the benchmark reports: name, unit, direction, bound, source.

Clock rule: a ``sim_*`` name or a ``sim-`` unit is *simulated* time (a pure
function of configuration and inputs, repeats exactly); everything else is
*host* time or memory (noisy; what performance work moves).

``BENCHMARK.json`` at the repo root lists :data:`END_TO_END` under
``end_to_end`` and :data:`PER_LAYER` under ``per_layer``; the self-test keeps
the two in step.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import layers


class Metric(NamedTuple):
    name: str
    unit: str
    better: str          # "lower" | "higher"
    bound: float = 0.0   # end-to-end only: share of the baseline it may worsen by
    source: str = ""     # which part of a rep record holds it (see run.py)
    estimator: str = "median"  # how the untraced reps' host values fold into one


#: Metrics a user of the simulator sees, with regression bounds.  ``sim_*``
#: are identical in every rep (asserted); their 1 % bound only absorbs the EVM
#: trace's dependence on ``--seed``.  ``run_wall_s`` is the fastest rep: every
#: rep does identical work, so interference from the host only ever adds time
#: and the minimum is the least disturbed observation (README.md, "Run
#: protocol", has the measurements behind this and behind the 25 % bounds).
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, "host"),
    Metric("run_wall_s", "s", "lower", 0.25, "host", "min"),
    Metric("peak_rss_mb", "MB", "lower", 0.10, "host"),
    Metric("sim_throughput_ops", "ops/sim-s", "higher", 0.01, "sim"),
    Metric("sim_latency_p50_ms", "sim-ms", "lower", 0.01, "sim"),
    Metric("sim_latency_p99_ms", "sim-ms", "lower", 0.01, "sim"),
)

#: End-to-end metrics that are legitimately 0 on most workloads, so they carry
#: an absolute rule instead of a relative bound and are listed with the
#: per-layer metrics in ``BENCHMARK.json``: ``sim_outage_s`` must repeat
#: exactly; ``failed_ops_share`` must be 0 (it is the contract's
#: ``failed / attempted``).
ZERO_BASED: Tuple[Metric, ...] = (
    Metric("sim_outage_s", "sim-s", "lower", 0.0, "sim"),
    Metric("failed_ops_share", "ratio", "lower", 0.0, "derived"),
)


def _per_layer() -> Tuple[Metric, ...]:
    metrics = [
        Metric("sim_outage_s", "sim-s", "lower", source="sim"),
        Metric("requests", "count", "higher", source="counters"),
        Metric("trace.overhead_ratio", "ratio", "lower", source="derived"),
    ]
    for layer in layers.CODE_LAYERS:
        metrics += [
            Metric(f"{layer}.self_s", "s", "lower", source="trace"),
            Metric(f"{layer}.self_share", "ratio", "lower", source="trace"),
            Metric(f"{layer}.calls", "count", "lower", source="trace"),
        ]
    metrics += [
        Metric("sim.events.events", "count", "lower", source="counters"),
        Metric("sim.events.schedule_calls", "count", "lower", source="trace"),
        Metric("sim.events.compactions", "count", "lower", source="counters"),
        Metric("sim.events.us_per_event", "us", "lower", source="trace"),
        Metric("sim.network.msgs", "count", "lower", source="counters"),
        Metric("sim.network.bytes", "B", "lower", source="counters"),
        Metric("sim.network.msgs_per_op", "msgs/op", "lower", source="counters"),
        Metric("sim.network.bytes_per_op", "B/op", "lower", source="counters"),
        Metric("sim.network.send_calls", "count", "lower", source="trace"),
        Metric("sim.network.fanout_mean", "msgs/call", "higher", source="trace"),
        Metric("sim.process.timers_set", "count", "lower", source="trace"),
        Metric("sim.process.timers_cancelled", "count", "lower", source="trace"),
        Metric("core.blocks_committed", "count", "lower", source="counters"),
        Metric("core.fast_path_share", "ratio", "higher", source="counters"),
        Metric("core.ops_per_block", "ops/block", "higher", source="counters"),
        Metric("core.view_changes", "count", "lower", source="counters"),
        Metric("core.state_transfers", "count", "lower", source="counters"),
        Metric("core.msgs_handled", "count", "lower", source="trace"),
        Metric("core.reply_cache_calls", "count", "lower", source="trace"),
        Metric("core.client.retries", "count", "lower", source="counters"),
        Metric("core.client.fallbacks", "count", "lower", source="counters"),
        Metric("core.client.acks_rejected", "count", "lower", source="counters"),
        Metric("pbft.blocks_committed", "count", "lower", source="counters"),
        Metric("pbft.view_changes", "count", "lower", source="counters"),
        Metric("pbft.msgs_handled", "count", "lower", source="trace"),
        Metric("crypto.hashing.sha256_calls", "count", "lower", source="trace"),
        Metric("crypto.hashing.us_per_call", "us", "lower", source="trace"),
        Metric("crypto.sigs.share_signs", "count", "lower", source="trace"),
        Metric("crypto.sigs.share_verifies", "count", "lower", source="trace"),
        Metric("crypto.sigs.combines", "count", "lower", source="trace"),
        Metric("crypto.sigs.combined_verifies", "count", "lower", source="trace"),
        Metric("crypto.sigs.sig_signs", "count", "lower", source="trace"),
        Metric("crypto.sigs.sig_verifies", "count", "lower", source="trace"),
        Metric("crypto.merkle.roots", "count", "lower", source="trace"),
        Metric("crypto.merkle.proofs", "count", "lower", source="trace"),
        Metric("crypto.merkle.verifies", "count", "lower", source="trace"),
        Metric("services.execute_block_calls", "count", "lower", source="trace"),
        Metric("services.ops_executed", "count", "lower", source="trace"),
        Metric("services.exec_cache_hit_share", "ratio", "higher", source="counters"),
        Metric("evm.execute_calls", "count", "lower", source="trace"),
        Metric("evm.us_per_call", "us", "lower", source="trace"),
        Metric("harness.build_s", "s", "lower", source="host"),
        Metric("harness.workload_gen_s", "s", "lower", source="host"),
        Metric("host.cpu_s", "s", "lower", source="host"),
        Metric("host.preempt_share", "ratio", "lower", source="host"),
        Metric("host.events_per_s", "1/s", "higher", source="host"),
    ]
    return tuple(metrics)


#: Single-layer metrics (no bound).  ``source`` says where the number comes
#: from: ``counters``/``sim`` repeat exactly in every rep, ``host`` is the
#: median over untraced reps, ``trace`` comes from the one profiled rep.
PER_LAYER: Tuple[Metric, ...] = _per_layer()
