"""SBFT protocol configuration.

The replica group has ``n = 3f + 2c + 1`` members (Section II): safety holds
against ``f`` Byzantine replicas in the asynchronous model, the fast path
tolerates up to ``c`` crashed or straggler replicas, and the three threshold
signature schemes use thresholds ``3f + c + 1`` (σ, fast commit proof),
``2f + c + 1`` (τ, linear-PBFT prepare/commit) and ``f + 1`` (π, execution
certificate).

The same configuration object also selects which of the paper's optional
ingredients (fast path, execution collectors) are active, which is how the
protocol variants compared in Figure 2/3 are realised (see
:mod:`repro.protocols.registry`; linear communication is the replica class).

Batching is a policy: ``batch_policy="fixed"`` (the default) proposes blocks
of exactly ``batch_size`` requests, while ``"adaptive"`` sizes blocks from
the observed queue depth and in-flight load, bounded by ``batch_max`` —
see ``docs/architecture.md``.  ``client_max_outstanding`` pipelines clients
(requests kept in flight concurrently per client).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SBFTConfig:
    """All protocol parameters for one SBFT deployment."""

    f: int = 1
    c: int = 0

    # Ingredient toggles (both on = full SBFT).
    fast_path_enabled: bool = True         # ingredient 2
    execution_collectors_enabled: bool = True  # ingredient 3: single client message

    # Batching and pipelining.
    batch_size: int = 1                    # minimum client requests per block
    batch_timeout: float = 0.05            # seconds the primary waits to fill a batch
    batch_policy: str = "fixed"            # "fixed" | "adaptive" (see batching notes)
    batch_max: Optional[int] = None        # adaptive block-size cap; default max(64, 4*batch_size)
    window: int = 256                      # max outstanding decision blocks (win)

    # Client pipelining: requests a client may keep in flight concurrently.
    client_max_outstanding: int = 1

    # Timers.
    fast_path_timeout: float = 0.15        # collector wait for σ before falling back to τ
    view_change_timeout: float = 5.0       # base timeout before suspecting the primary
    client_retry_timeout: float = 4.0      # client re-send / f+1 fallback timeout
    checkpoint_interval: Optional[int] = None  # default: window // 2

    # Test-only planted weakness for the adversary lab (repro.adversary):
    # overrides the linear-PBFT prepare/commit quorum (tau_threshold) and the
    # PBFT replica quorum (pbft_quorum) with a too-small value so the search has
    # a real safety violation to find.  Never set outside adversary episodes.
    unsafe_quorum_override: Optional[int] = None

    def __post_init__(self):
        if self.f < 0 or self.c < 0:
            raise ConfigurationError("f and c must be non-negative")
        if self.f == 0 and self.c == 0:
            raise ConfigurationError("need at least f=1 or c>=1 replicas worth of redundancy")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.batch_policy not in ("fixed", "adaptive"):
            raise ConfigurationError(
                f"unknown batch_policy {self.batch_policy!r} (expected 'fixed' or 'adaptive')"
            )
        if self.batch_max is not None and self.batch_max < self.batch_size:
            raise ConfigurationError("batch_max must be >= batch_size")
        if self.client_max_outstanding < 1:
            raise ConfigurationError("client_max_outstanding must be >= 1")
        if self.window < 4:
            raise ConfigurationError("window must be >= 4")
        if self.unsafe_quorum_override is not None and self.unsafe_quorum_override < 1:
            raise ConfigurationError("unsafe_quorum_override must be >= 1")

    # ------------------------------------------------------------------
    # Derived sizes (Section II / V)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Total number of replicas, ``3f + 2c + 1``."""
        return 3 * self.f + 2 * self.c + 1

    @property
    def sigma_threshold(self) -> int:
        """Fast-path commit threshold, ``3f + c + 1``."""
        return 3 * self.f + self.c + 1

    @property
    def tau_threshold(self) -> int:
        """Linear-PBFT prepare/commit threshold, ``2f + c + 1``.

        ``unsafe_quorum_override`` (a test-only adversary-lab knob) replaces
        the sound threshold when set; see the field comment above.
        """
        if self.unsafe_quorum_override is not None:
            return self.unsafe_quorum_override
        return 2 * self.f + self.c + 1

    @property
    def pbft_quorum(self) -> int:
        """All-to-all PBFT prepare/commit/checkpoint quorum, ``2f + 2c + 1``
        (the classic ``2f + 1`` at ``c = 0``), under the same override."""
        if self.unsafe_quorum_override is not None:
            return self.unsafe_quorum_override
        return 2 * self.f + 2 * self.c + 1

    @property
    def pi_threshold(self) -> int:
        """Execution certificate threshold, ``f + 1``."""
        return self.f + 1

    @property
    def view_change_quorum(self) -> int:
        """View-change messages the new primary gathers, ``2f + 2c + 1``."""
        return 2 * self.f + 2 * self.c + 1

    @property
    def collectors_per_slot(self) -> int:
        """Number of C-/E-collectors per (sequence, view), ``c + 1`` (Section V)."""
        return self.c + 1

    @property
    def effective_batch_max(self) -> int:
        """Upper bound on adaptive block size (requests per decision block).

        The adaptive policy drains the primary's queue into one block of at
        most this many requests; the default keeps a healthy headroom above
        ``batch_size`` so deep queues amortize per-block protocol cost
        (signature shares, combines, fan-out) over many requests.
        """
        return self.batch_max if self.batch_max is not None else max(64, 4 * self.batch_size)

    def batch_threshold(self, in_flight_blocks: int) -> int:
        """Queue depth that triggers an immediate proposal (both replica stacks).

        ``fixed`` proposes as soon as ``batch_size`` requests queue up.  The
        ``adaptive`` policy does the same while the pipeline is idle, but once
        blocks are in flight it holds back until the queue reaches
        ``effective_batch_max`` — letting load build into one large block
        instead of a stream of minimum-size ones.  The primary's batch timer
        still flushes a partial queue either way, and execution completions
        re-check the queue, so no request waits longer than ``batch_timeout``
        beyond the previous block.
        """
        if self.batch_policy != "adaptive":
            return self.batch_size
        return self.batch_size if in_flight_blocks <= 0 else self.effective_batch_max

    def batch_take(self) -> int:
        """How many queued requests the next block carries."""
        if self.batch_policy != "adaptive":
            return self.batch_size
        return self.effective_batch_max

    @property
    def checkpoint_every(self) -> int:
        return self.checkpoint_interval if self.checkpoint_interval is not None else max(2, self.window // 2)

    @property
    def active_window(self) -> int:
        """Fast-path restriction: only sequences within ``le + win/4`` (Section V-F)."""
        return max(1, self.window // 4)

    @property
    def state_transfer_lag(self) -> int:
        """Executed-sequence lag beyond which a replica fetches a snapshot.

        A replica more than this far behind an observed checkpoint or
        execution certificate cannot close the gap from its own log (the
        missed pre-prepares are gone), so it re-syncs via state transfer —
        the rejoin path after a restart rides on this.  Two checkpoint
        periods of slack avoid spurious transfers during ordinary execution
        lag; the ``window // 2`` cap keeps the bound meaningful when the
        checkpoint interval is large.
        """
        return min(self.window // 2, 2 * self.checkpoint_every)

    def describe(self) -> str:
        ingredients = []
        if self.fast_path_enabled:
            ingredients.append("fast-path")
        if self.execution_collectors_enabled:
            ingredients.append("exec-collector")
        if self.c > 0:
            ingredients.append(f"c={self.c}")
        batch = f"batch={self.batch_size}"
        if self.batch_policy == "adaptive":
            batch = f"batch={self.batch_size}..{self.effective_batch_max}/adaptive"
        return (
            f"SBFT(n={self.n}, f={self.f}, c={self.c}, {batch}, "
            f"ingredients=[{', '.join(ingredients) or 'none'}])"
        )
