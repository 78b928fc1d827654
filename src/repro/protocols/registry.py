"""The five protocol variants compared in the paper's evaluation (Section IX).

1. **PBFT** — the scale-optimized baseline (all-to-all phases, f+1 replies).
2. **Linear-PBFT** — ingredient 1: collectors + threshold signatures replace
   the all-to-all phases.
3. **Linear-PBFT + Fast path** — ingredients 1 and 2.
4. **SBFT (c=0)** — ingredients 1, 2 and 3 (execution collectors, single
   client acknowledgement).
5. **SBFT (c=8)** — all four ingredients (redundant servers in the fast path).

Each variant is a replica class (``kind``: the PBFT variant runs
:class:`repro.pbft.replica.PBFTReplica`, the other four
:class:`repro.core.replica.SBFTReplica`, whose communication is linear) plus
the two ingredient booleans its :class:`~repro.core.config.SBFTConfig` carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import SBFTConfig
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ProtocolSpec:
    """How to build one protocol variant."""

    name: str
    kind: str                      # "sbft" or "pbft": which replica class runs it
    description: str
    fast_path: bool                # ingredient 2
    execution_collectors: bool     # ingredient 3

    def build_config(self, f: int, c: Optional[int] = None, **overrides) -> SBFTConfig:
        """The variant's config at ``f``; ``c=None`` applies :func:`protocol_sizes`."""
        return SBFTConfig(
            f=f,
            c=protocol_sizes(self.name, f)[1] if c is None else c,
            fast_path_enabled=self.fast_path,
            execution_collectors_enabled=self.execution_collectors,
            **overrides,
        )


PROTOCOLS: Dict[str, ProtocolSpec] = {
    "pbft": ProtocolSpec(
        name="pbft",
        kind="pbft",
        description="Scale-optimized PBFT baseline (all-to-all, f+1 client replies)",
        fast_path=False,
        execution_collectors=False,
    ),
    "linear-pbft": ProtocolSpec(
        name="linear-pbft",
        kind="sbft",
        description="Ingredient 1: collectors and threshold signatures (no fast path)",
        fast_path=False,
        execution_collectors=False,
    ),
    "linear-pbft-fast": ProtocolSpec(
        name="linear-pbft-fast",
        kind="sbft",
        description="Ingredients 1+2: linear communication plus the optimistic fast path",
        fast_path=True,
        execution_collectors=False,
    ),
    "sbft-c0": ProtocolSpec(
        name="sbft-c0",
        kind="sbft",
        description="Ingredients 1+2+3: adds execution collectors (single client message)",
        fast_path=True,
        execution_collectors=True,
    ),
    "sbft-c8": ProtocolSpec(
        name="sbft-c8",
        kind="sbft",
        description="All four ingredients: redundant servers tolerate c stragglers in the fast path",
        fast_path=True,
        execution_collectors=True,
    ),
}

#: The order the paper's figures list the protocols in.
PAPER_ORDER: List[str] = ["pbft", "linear-pbft", "linear-pbft-fast", "sbft-c0", "sbft-c8"]


def protocol_sizes(protocol: str, f: int) -> Tuple[int, int]:
    """``(n, c)`` of ``protocol`` at replication factor ``f``: the one n/c rule.

    ``sbft-c8`` runs with ``c = max(1, f // 8)`` redundant servers (``n = 3f
    + 2c + 1``; the paper's f=64 deployment has c=8); every other variant
    runs with ``c = 0`` (``n = 3f + 1``).
    """
    c = max(1, f // 8) if protocol == "sbft-c8" else 0
    return 3 * f + 2 * c + 1, c


def get_protocol(name: str) -> ProtocolSpec:
    """Look up a protocol variant by name."""
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown protocol {name!r}; expected one of {sorted(PROTOCOLS)}"
        ) from None


def protocol_names() -> List[str]:
    return list(PAPER_ORDER)
