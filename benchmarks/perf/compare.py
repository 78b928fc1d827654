"""``run.py --compare A.json B.json``: is B worse than A?

Per workload × end-to-end metric: A, B, the ratio B/A, the bound and a
verdict.  ``worse``/``better`` need the values to differ by more than the
bound *and* both files' rep spreads (``run.spread_summary``) to be within it;
a wider spread is ``unresolved``, never ``same``.  Work counters repeat exactly on one commit,
so they are compared for equality and listed when they differ.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple


def verdict(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for one metric row
    of A and of B.  The worsening is B's change for the worse as a share of
    A's value; for a metric that is 0 in A it is the absolute change."""
    bound = a["bound"]
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved"
    change = b["value"] - a["value"]
    if a["better"] == "higher":
        change = -change
    worsening = change / abs(a["value"]) if a["value"] else change
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Report lines and whether any pairing is ``worse``."""
    lines: List[str] = []
    any_worse = False
    if (a["seed"], a["smoke"]) != (b["seed"], b["smoke"]):
        lines.append(
            f"note: A ran seed {a['seed']} smoke={a['smoke']}, B seed {b['seed']} "
            f"smoke={b['smoke']}; counters are only expected to match on equal inputs"
        )
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        lines.append(f"\n== {name}")
        if entry_b is None:
            lines.append("   missing from B")
            continue
        lines.append(
            f"   {'metric':<22}{'A (base)':>12}{'B':>12}{'B/A':>9}{'bound':>7}"
            f"{'spread A':>10}{'spread B':>10}  verdict"
        )
        for metric, row_a in entry_a["end_to_end"].items():
            row_b = entry_b["end_to_end"].get(metric)
            if row_b is None:
                lines.append(f"   {metric:<22} missing from B")
                continue
            outcome = verdict(row_a, row_b)
            any_worse = any_worse or outcome == "worse"
            ratio = f"{row_b['value'] / row_a['value']:.4f}" if row_a["value"] else "-"
            lines.append(
                f"   {metric:<22}{row_a['value']:>12.5g}{row_b['value']:>12.5g}{ratio:>9}"
                f"{row_a['bound']:>7.0%}"
                f"{row_a['spread']:>10.1%}{row_b['spread']:>10.1%}  {outcome}"
            )
        counted_a = _exact_values(entry_a)
        counted_b = _exact_values(entry_b)
        differing = [
            key for key in sorted(counted_a.keys() | counted_b.keys())
            if counted_a.get(key) != counted_b.get(key)
        ]
        if differing:
            lines.append(f"   {len(differing)} counters differ:")
            lines += [
                f"     {key}: {counted_a.get(key)!r} -> {counted_b.get(key)!r}"
                for key in differing
            ]
        else:
            lines.append(f"   all {len(counted_a)} counters equal")
    return lines, any_worse


def _exact_values(entry: Dict[str, Any]) -> Dict[str, Any]:
    """Everything that must repeat exactly: the result counters, the traced
    rep's call counts, and the ``sim_*`` metrics."""
    values = dict(entry["counters"])
    values.update(
        (name, row["value"]) for name, row in entry["per_layer"].items()
        if row["unit"] == "count"
    )
    values.update(
        (name, row["value"]) for name, row in entry["end_to_end"].items()
        if name.startswith("sim_")
    )
    return values


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    lines, any_worse = compare(a, b)
    print(f"A = {path_a}\nB = {path_b}")
    print("\n".join(lines))
    print("\nverdict: " + ("WORSE on at least one pairing" if any_worse else "no pairing worse"))
    return 1 if any_worse else 0
