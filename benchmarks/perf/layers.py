"""Per-layer profile ledger: cProfile records rolled up into named layers.

The traced rep runs the simulation under :mod:`cProfile` from the benchmark's
own worker; nothing under ``src/`` is instrumented.  Each profiler record is
a span whose *self time* is its duration minus its children.  Spans are
grouped into layers by the module path of their code, so code may move
between functions freely; a module the map does not know lands in ``other``
(which should stay under 2 % — growth means the map below is stale).

Built-in and standard-library self time (``hashlib``, ``heapq``, dict/list
methods) is charged to the layer that called it, through the profiler's
caller sub-entries; a foreign function called from foreign code inherits the
layer mix of its own callers.

Work counters are call counts of *boundary functions*, looked up lazily by
dotted name.  A name that no longer resolves makes its metric ``None`` and is
listed under ``trace.unresolved`` — never an exception.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Layer -> module paths below ``repro/`` (a trailing ``/`` matches a package).
#: First match wins, so ``core.client`` is listed before ``core``.
LAYER_PATHS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sim.events", ("sim/events.py",)),
    ("sim.network", ("sim/network.py", "sim/latency.py")),
    ("sim.process", ("sim/process.py", "sim/faults.py")),
    ("core.client", ("core/client.py",)),
    ("core", ("core/",)),
    ("pbft", ("pbft/",)),
    ("crypto.hashing", ("crypto/hashing.py",)),
    (
        "crypto.sigs",
        (
            "crypto/threshold.py",
            "crypto/bls.py",
            "crypto/mockgroup.py",
            "crypto/signatures.py",
            "crypto/costs.py",
        ),
    ),
    ("crypto.merkle", ("crypto/merkle.py",)),
    ("services", ("services/",)),
    ("evm", ("evm/",)),
    ("harness", ("protocols/", "workloads/", "metrics/")),
)

#: Code layers in report order; ``other`` collects everything unmapped.
CODE_LAYERS: Tuple[str, ...] = tuple(name for name, _paths in LAYER_PATHS) + ("other",)

#: Metric -> boundary functions whose call counts it sums.
BOUNDARIES: Dict[str, Tuple[str, ...]] = {
    "sim.events.schedule_calls": (
        "repro.sim.events.Simulator.schedule",
        "repro.sim.events.Simulator.schedule_many",
        "repro.sim.events.Simulator.schedule_at",
    ),
    "sim.network.send_calls": (
        "repro.sim.network.Network.send",
        "repro.sim.network.Network.broadcast_bulk",
    ),
    "sim.process.timers_set": ("repro.sim.process.Process.set_timer",),
    "sim.process.timers_cancelled": ("repro.sim.process.Process.cancel_timer",),
    "core.msgs_handled": ("repro.core.replica.SBFTReplica.on_message",),
    "core.reply_cache_calls": (
        "repro.core.reply_cache.ClientReplyTracker.executed",
        "repro.core.reply_cache.ClientReplyTracker.reply",
        "repro.core.reply_cache.ClientReplyTracker.mark_executed",
        "repro.core.reply_cache.ClientReplyTracker.record",
    ),
    "pbft.msgs_handled": ("repro.pbft.replica.PBFTReplica.on_message",),
    "crypto.hashing.sha256_calls": (
        "repro.crypto.hashing.sha256_hex",
        "repro.crypto.hashing.sha256_int",
    ),
    "crypto.sigs.share_signs": ("repro.crypto.threshold.ThresholdScheme.sign_share",),
    "crypto.sigs.share_verifies": ("repro.crypto.threshold.ThresholdScheme.verify_share",),
    "crypto.sigs.combines": ("repro.crypto.threshold.ThresholdScheme.combine",),
    "crypto.sigs.combined_verifies": ("repro.crypto.threshold.ThresholdScheme.verify",),
    "crypto.sigs.sig_signs": ("repro.crypto.signatures.SigningKey.sign",),
    "crypto.sigs.sig_verifies": ("repro.crypto.signatures.VerifyKey.verify",),
    "crypto.merkle.roots": (
        "repro.crypto.merkle.MerkleTree.root",
        "repro.crypto.merkle.merkle_root",
    ),
    "crypto.merkle.proofs": ("repro.crypto.merkle.MerkleTree.prove",),
    "crypto.merkle.verifies": ("repro.crypto.merkle.MerkleProof.root_from",),
    "services.execute_block_calls": (
        "repro.services.authenticated_kv.AuthenticatedKVStore.execute_block",
        "repro.services.ledger.LedgerService.execute_block",
    ),
    "services.ops_executed": (
        "repro.services.kvstore.KVStore.execute",
        "repro.services.ledger.LedgerService._execute_with",
    ),
    "evm.execute_calls": ("repro.evm.vm.EVM.execute",),
}


def layer_of_path(filename: str, benchmark_dir: str) -> Optional[str]:
    """Layer of a source file, or ``None`` for code outside the repo
    (standard library, site-packages): such *foreign* code is charged to
    whoever called it."""
    index = filename.rfind("/repro/")
    if index != -1:
        relative = filename[index + len("/repro/"):]
        for layer, paths in LAYER_PATHS:
            for path in paths:
                if relative == path or (path.endswith("/") and relative.startswith(path)):
                    return layer
        return "other"
    if filename.startswith(benchmark_dir):
        return "harness"
    return None


def resolve_code(dotted: str) -> Optional[Any]:
    """Code object of the function named ``dotted``, or ``None`` if the
    module, class or attribute no longer exists."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            obj: Any = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            obj = getattr(obj, attribute, None)
            if obj is None:
                return None
        if isinstance(obj, property):
            obj = obj.fget
        return getattr(obj, "__code__", None)
    return None


def boundary_counts(
    callcounts: Dict[Any, int], boundaries: Optional[Dict[str, Tuple[str, ...]]] = None
) -> Tuple[Dict[str, Optional[int]], List[str]]:
    """Sum profiler call counts per boundary metric.

    Returns ``(counts, unresolved)``: a metric with any unresolvable function
    is ``None`` (a partial sum would silently under-count), and each such
    dotted name is listed in ``unresolved``.
    """
    counts: Dict[str, Optional[int]] = {}
    unresolved: List[str] = []
    for metric, names in (BOUNDARIES if boundaries is None else boundaries).items():
        total: Optional[int] = 0
        for name in names:
            code = resolve_code(name)
            if code is None:
                unresolved.append(name)
                total = None
            elif total is not None:
                total += callcounts.get(code, 0)
        counts[metric] = total
    return counts, unresolved


def _foreign_mix(
    code: Any,
    callers: Dict[Any, List[Tuple[Any, float]]],
    layer_of: Dict[Any, Optional[str]],
    memo: Dict[Any, Dict[str, float]],
    visiting: set,
) -> Dict[str, float]:
    """Layer mix (shares summing to 1) of a foreign function's callers."""
    cached = memo.get(code)
    if cached is not None:
        return cached
    if code in visiting:  # recursion among foreign functions: no information
        return {}
    visiting.add(code)
    mix: Dict[str, float] = defaultdict(float)
    for caller, weight in callers.get(code, ()):
        layer = layer_of.get(caller)
        if layer is not None:
            mix[layer] += weight
        else:
            for inherited, share in _foreign_mix(caller, callers, layer_of, memo, visiting).items():
                mix[inherited] += weight * share
    visiting.discard(code)
    total = sum(mix.values())
    result = {layer: weight / total for layer, weight in mix.items()} if total > 0 else {}
    memo[code] = result
    return result


def layer_ledger(
    entries: Iterable[Any], benchmark_dir: str
) -> Tuple[Dict[str, float], Dict[str, int], Dict[Any, int]]:
    """Roll ``cProfile.Profile.getstats()`` entries up into layers.

    Returns ``(self_s, calls, callcounts)``: self seconds and call counts per
    code layer (every layer present, ``other`` included), plus the raw
    per-code-object call counts the boundary counters are read from.
    """
    entries = list(entries)
    layer_of: Dict[Any, Optional[str]] = {}
    for entry in entries:
        code = entry.code
        layer_of[code] = (
            None if isinstance(code, str) else layer_of_path(code.co_filename, benchmark_dir)
        )

    self_s: Dict[str, float] = {layer: 0.0 for layer in CODE_LAYERS}
    calls: Dict[str, int] = {layer: 0 for layer in CODE_LAYERS}
    callcounts: Dict[Any, int] = {}
    # foreign callee -> [(caller, seconds the callee ran under that caller)]
    callers: Dict[Any, List[Tuple[Any, float]]] = defaultdict(list)
    # (caller, foreign callee, callee self seconds under that caller)
    foreign_edges: List[Tuple[Any, Any, float]] = []
    total = 0.0
    for entry in entries:
        total += entry.inlinetime
        callcounts[entry.code] = entry.callcount
        layer = layer_of[entry.code]
        if layer is not None:
            self_s[layer] += entry.inlinetime
            calls[layer] += entry.callcount
        for sub in entry.calls or ():
            if layer_of.get(sub.code) is None:
                callers[sub.code].append((entry.code, sub.totaltime))
                foreign_edges.append((entry.code, sub.code, sub.inlinetime))

    memo: Dict[Any, Dict[str, float]] = {}
    for caller, _callee, seconds in foreign_edges:
        layer = layer_of[caller]
        if layer is not None:
            self_s[layer] += seconds
        else:
            for inherited, share in _foreign_mix(caller, callers, layer_of, memo, set()).items():
                self_s[inherited] += seconds * share
    # Whatever no caller chain explains (profiler bookkeeping, foreign
    # recursion) is ``other``, so the layers always sum to the profile total.
    self_s["other"] += max(0.0, total - sum(self_s.values()))
    return self_s, calls, callcounts
