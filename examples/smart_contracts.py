#!/usr/bin/env python3
"""Smart-contract ledger example: EVM transactions replicated by SBFT.

Demonstrates the full stack of Section IV:

1. deploy and call a token contract directly on a single (unreplicated)
   ledger, showing the mini-EVM at work;
2. replay a synthetic Ethereum-like workload (transfers, contract calls and
   creations, batched into ~12 KB client chunks) through a geo-replicated SBFT
   cluster and through the PBFT baseline;
3. print the paper's comparison table (throughput, latency, slowdown vs the
   unreplicated baseline) and verify every replica ends with the same ledger
   digest.

Run with::

    python examples/smart_contracts.py
"""

from dataclasses import replace

from repro.evm.contracts import encode_call, token_contract
from repro.evm.transactions import Transaction
from repro.experiments import harness, throughput
from repro.experiments.harness import Ethereum, format_table
from repro.experiments.throughput import single_node_baseline, slowdown_vs_baseline
from repro.services.ledger import LedgerService


def demo_direct_ledger() -> None:
    print("=== 1. The mini-EVM on a single ledger ===")
    ledger = LedgerService()
    alice = "0x" + "aa" * 20
    bob_slot = 7
    ledger.fund(alice, 1_000_000)

    receipt = ledger.apply(Transaction.create(alice, token_contract()))
    token = receipt.contract_address
    print(f"  deployed token contract at {token} (gas used {receipt.gas_used})")

    alice_slot = int(alice, 16) & 0xFFFFFFFFFFFFFFFF
    ledger.apply(Transaction.call(alice, token, encode_call(1, alice_slot, 1000)))   # mint
    ledger.apply(Transaction.call(alice, token, encode_call(2, bob_slot, 250)))      # transfer
    balance = ledger.apply(Transaction.call(alice, token, encode_call(3, bob_slot)))
    print(f"  bob's balance after mint+transfer: {int.from_bytes(balance.return_data, 'big')}")
    print(f"  ledger state digest: {ledger.digest()[:16]}…")
    print()


def demo_replicated_benchmark(baseline) -> None:
    print("=== 2. Replicated smart-contract benchmark (continent + world WAN) ===")
    contracts = replace(throughput.panel("small", "contracts"), f=(2,),
                        workloads=(Ethereum(transactions=800),), clients=(4,))
    rows = harness.run(throughput.SWEEP, contracts.points())
    print(
        format_table(
            rows,
            columns=["label", "n", "completed_operations", "throughput_ops", "mean_latency_ms",
                     "median_latency_ms", "messages_sent"],
        )
    )
    print()
    print("  slowdown vs the unreplicated baseline (paper: 2x continent, 5x world):")
    for label, slowdown in slowdown_vs_baseline(baseline, rows).items():
        print(f"    {label:<62} {slowdown}x")
    print()


def main() -> None:
    demo_direct_ledger()
    baseline = single_node_baseline(num_transactions=500)
    print(f"Unreplicated baseline: {baseline['throughput_ops']} tx/s "
          f"(paper reports 840 tx/s on its hardware)")
    print()
    demo_replicated_benchmark(baseline)


if __name__ == "__main__":
    main()
