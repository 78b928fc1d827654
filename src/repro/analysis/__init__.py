"""Determinism checks for the SBFT reproduction.

Fixed-seed byte-identity is the repository's contract.
:mod:`repro.analysis.sanitizer` is an opt-in instrumentation mode
(``Cluster.run(sanitize=True)``) that folds every
executed event into a rolling decision-hash chain, plus a ``selfcheck`` CLI
that runs a scenario twice and bisects to the first divergent event on
mismatch.  The hazards a same-process double run cannot see — ambient clocks
and hash-order iteration — are checked on executed code by tests
(``docs/static-analysis.md`` says which test owns which).
"""
