"""Determinism checks for the SBFT reproduction.

Fixed-seed byte-identity is the repository's contract, and two things can
break it without any same-process test noticing: ambient time / entropy and
hash-order iteration.  This package holds the two tools that see them:

* :mod:`repro.analysis.lint` — an AST-level linter (zero third-party
  dependencies) run as ``python -m repro.analysis.lint src/``.  Rules are
  catalogued in ``docs/static-analysis.md``; per-line suppressions use
  ``# repro: allow[<rule-id>]`` comments.
* :mod:`repro.analysis.sanitizer` — a runtime determinism sanitizer: an
  opt-in instrumentation mode (``REPRO_SANITIZE=1`` or
  ``Cluster.run(sanitize=True)``) that folds every executed event into a
  rolling decision-hash chain, plus a ``selfcheck`` CLI that runs a scenario
  twice and bisects to the first divergent event on mismatch.

What replicas share (stashes on frozen messages, the dispatch tables) is
checked on the real objects by tests — ``docs/static-analysis.md`` says which.

Submodules are imported lazily so that ``python -m repro.analysis.lint`` does
not import the package's other half (and so the sanitizer's simulator hooks
stay out of processes that only lint).
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing aid only
    from repro.analysis.lint import Finding, run_lint
    from repro.analysis.sanitizer import DeterminismSanitizer, first_divergence

__all__ = ["Finding", "run_lint", "DeterminismSanitizer", "first_divergence"]

_EXPORTS = {
    "Finding": "repro.analysis.lint",
    "run_lint": "repro.analysis.lint",
    "DeterminismSanitizer": "repro.analysis.sanitizer",
    "first_divergence": "repro.analysis.sanitizer",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.analysis' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
