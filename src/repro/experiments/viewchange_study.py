"""View-change robustness study (Section V-G).

The paper reports (Section V-G, footnote 3) running tens of thousands of view
changes, including primaries that send partial, equivocating and/or stale
information, to validate the dual-mode view change.  This sweep reproduces
that study in miniature: one point per (primary fault, seed) trial runs a
small cluster whose primary crashes, goes silent or equivocates, and its row
says whether every client request still completed (liveness through the view
change) and the highest view a non-crashed replica ended in (``max_view`` >
0: a view change happened).  :mod:`repro.experiments.harness` owns the CLI;
the report prints the per-fault summary and exits 1 if a trial lost liveness::

    PYTHONPATH=src python -m repro.experiments.viewchange_study --jobs 2
"""

from __future__ import annotations

import sys
from typing import Dict, List, Sequence

from repro.adversary.behaviours import equivocate, silent
from repro.experiments import harness
from repro.experiments.harness import COMMON_ROW_SCHEMA, protocol_sizes, result_row
from repro.protocols.cluster import ClusterResult, build_cluster
from repro.sim.faults import FaultPlan
from repro.workloads.kv_workload import KVWorkload

#: Primary misbehaviours exercised by the study: a crash, or a byzantine
#: behaviour installed on the primary.
_BEHAVIOURS = {"silent": silent, "equivocate": equivocate}
PRIMARY_FAULTS = ("crash", *_BEHAVIOURS)

#: The shape of every trial.
NUM_CLIENTS = 2
REQUESTS_PER_CLIENT = 4
MAX_SIM_TIME = 120.0


def grid(
    faults: Sequence[str] = PRIMARY_FAULTS,
    trials_per_fault: int = 3,
    f: int = 1,
    protocol: str = "sbft-c0",
    seed: int = 0,
) -> List[Dict]:
    """The sweep's ordered (fault, trial seed) points; trial ``k`` runs at
    ``seed + k``."""
    return [
        dict(fault=fault, seed=seed + trial, f=f, protocol=protocol)
        for fault in faults
        for trial in range(trials_per_fault)
    ]


def run_trial(point: Dict) -> ClusterResult:
    """Run one trial with a faulty primary; ``run.extra["max_view"]`` is the
    highest view a non-crashed replica ended in."""
    fault, seed, f, protocol = point["fault"], point["seed"], point["f"], point["protocol"]
    if fault == "crash":
        plan = FaultPlan.crash_first(1, at_time=0.0)
    else:
        plan = FaultPlan.byzantine([0], _BEHAVIOURS[fault], at_time=0.0)
    cluster = build_cluster(
        protocol,
        f=f,
        c=protocol_sizes(protocol, f)[1],
        num_clients=NUM_CLIENTS,
        topology="lan",
        batch_size=2,
        seed=seed,
        fault_plan=plan,
        config_overrides={"view_change_timeout": 1.0, "client_retry_timeout": 1.5},
    )
    workload = KVWorkload(requests_per_client=REQUESTS_PER_CLIENT, batch_size=2, seed=seed + 1)
    result = cluster.run(
        workload, max_sim_time=MAX_SIM_TIME, label=f"{protocol}/{fault}/seed={seed}"
    )
    views = [replica.view for replica in cluster.replicas.values() if not replica.crashed]
    result.run.extra["max_view"] = max(views) if views else 0
    return result


def trial_row(point: Dict, result: ClusterResult) -> Dict:
    expected = NUM_CLIENTS * REQUESTS_PER_CLIENT
    completed = result.run.completed_requests
    return result_row(
        result,
        protocol=point["protocol"],
        f=point["f"],
        n=protocol_sizes(point["protocol"], point["f"])[0],
        fault=point["fault"],
        seed=point["seed"],
        completed_requests=completed,
        expected_requests=expected,
        all_completed=completed >= expected,
        view_changes=sum(stats.get("view_changes", 0) for stats in result.replica_stats.values()),
    )


def summarize(rows: List[Dict]) -> Dict[str, Dict[str, float]]:
    """Per-fault success rate and mean number of view changes, in row order."""
    summary: Dict[str, Dict[str, float]] = {}
    for fault in dict.fromkeys(row["fault"] for row in rows):
        fault_rows = [row for row in rows if row["fault"] == fault]
        summary[fault] = {
            "trials": len(fault_rows),
            "success_rate": sum(1 for row in fault_rows if row["all_completed"]) / len(fault_rows),
            "mean_view_changes": sum(row["view_changes"] for row in fault_rows) / len(fault_rows),
        }
    return summary


def print_summary(args, points: List[Dict], rows: List[Dict]) -> int:
    """The CLI's per-fault summary; exit status 1 if any trial lost liveness."""
    print()
    print("summary per primary fault:")
    for fault, stats in summarize(rows).items():
        print(
            f"  {fault:<12} success rate {stats['success_rate']:.0%}, "
            f"mean view changes per trial {stats['mean_view_changes']:.1f}"
        )
    return 0 if all(row["all_completed"] for row in rows) else 1


ROW_SCHEMA: Dict[str, str] = dict(
    COMMON_ROW_SCHEMA,
    fault="how the primary misbehaves: 'crash', 'silent' or 'equivocate'",
    seed="fixed seed of this trial",
    completed_requests="client requests acknowledged by the cluster",
    expected_requests="clients x requests_per_client of every trial",
    all_completed="every offered request was acknowledged (liveness)",
    max_view="highest view a non-crashed replica ended in (> 0: a view change happened)",
    view_changes="view changes completed, summed over replicas",
)

SWEEP = harness.Sweep(
    group="viewchange-study",
    summary=__doc__.splitlines()[0],
    example="PYTHONPATH=src python -m repro.experiments.viewchange_study --jobs 2",
    row_schema=ROW_SCHEMA,
    grid=grid,
    run_point=run_trial,
    row=trial_row,
    table_columns=("label", "completed_requests", "expected_requests", "all_completed",
                   "max_view", "view_changes", "sim_seconds"),
    axes={
        "faults": dict(nargs="+", choices=PRIMARY_FAULTS),
        "trials_per_fault": dict(type=int),
        "f": dict(type=int),
        "protocol": dict(),
    },
    report=print_summary,
)


if __name__ == "__main__":
    sys.exit(harness.main(SWEEP))
