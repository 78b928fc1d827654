#!/usr/bin/env python3
"""Key-value benchmark: a miniature of the paper's Figure 2 / Figure 3.

Sweeps the number of clients for every protocol variant the paper compares
(PBFT, Linear-PBFT, Linear-PBFT + fast path, SBFT c=0, SBFT c>0) and prints
a throughput table and a latency-vs-throughput table, with and without crashed
backups.

Run with::

    python examples/kv_benchmark.py             # quick (f=2)
    python examples/kv_benchmark.py --medium    # f=8, takes a few minutes
"""

import argparse

from repro.experiments import harness, throughput
from repro.experiments.harness import format_table
from repro.experiments.throughput import latency_curves
from repro.protocols.registry import protocol_sizes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--medium", action="store_true", help="run the f=8 configuration")
    parser.add_argument("--clients", type=int, nargs="*", default=None, help="client counts to sweep")
    args = parser.parse_args()

    scale_name = "medium" if args.medium else "small"
    figures = throughput.panel(scale_name, "figures")
    (f,) = figures.f
    clients = tuple(args.clients or figures.clients)
    failures = figures.faults[:2]  # no failures + a few failures

    n, n_redundant = (protocol_sizes(protocol, f)[0] for protocol in ("sbft-c0", "sbft-c8"))
    print(f"Scale: f={f} (n={n} replicas, {n_redundant} with redundant servers)")
    print(f"Clients: {list(clients)}; failure scenarios: {list(failures)}")
    print()

    points = throughput.grid(scale_name, panels=("figures",), kv_batch=(8,), failures=failures,
                             clients=clients)
    rows = harness.run(throughput.SWEEP, points)

    print("=== Figure 2 (throughput per clients) ===")
    print(
        format_table(
            rows,
            columns=["protocol", "failures", "clients", "throughput_ops", "mean_latency_ms", "messages_sent"],
        )
    )

    print()
    print("=== Figure 3 (latency vs throughput, no failures) ===")
    curves = latency_curves(rows, kv_batch=8, failures=0)
    curve_rows = [
        {
            "protocol": protocol,
            "curve (throughput ops/s -> latency ms)": "  ".join(
                f"{throughput:.0f}->{latency:.0f}" for throughput, latency in points
            ),
        }
        for protocol, points in curves.items()
    ]
    print(format_table(curve_rows))


if __name__ == "__main__":
    main()
