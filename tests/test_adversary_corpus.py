"""Replay the committed adversary regression corpus (tier-1).

Every file under ``tests/adversary_corpus/`` is a minimized violating
``(strategy, params, seed)`` episode, loaded as a sweep point by
``search.episode_point``, produced by ``python -m
repro.adversary.search --corpus-dir`` — the permanent record of every
violation the search has ever found.  Replaying each one asserts the oracle
verdict is byte-for-byte stable: if a protocol change silently fixes (or
worsens) a known violation, this is where it surfaces.
"""

import json
from pathlib import Path

import pytest

from repro.adversary.search import episode_point, liveness_ok
from repro.experiments.harness import run_point

CORPUS = Path(__file__).resolve().parent / "adversary_corpus"

ENTRIES = sorted(CORPUS.glob("*.json"))


def test_corpus_is_present_and_well_formed():
    assert ENTRIES, "adversary corpus must not be empty"
    for path in ENTRIES:
        entry = json.loads(path.read_text())
        assert set(entry) >= {"spec", "expect"}, path.name
        attack = episode_point(**entry["spec"]).adversary
        # Minimized means minimized: the committed repro carries at most 3
        # non-default parameters (the acceptance bound for the search).
        assert len(attack.params) <= 3, path.name
        # Violations against *sound* configurations must never be committed
        # silently: every corpus entry documents a planted weakness.
        if not (entry["expect"]["safety_ok"] and entry["expect"]["liveness_ok"]):
            assert attack.plant_weak_quorum, (
                f"{path.name}: a violation without a planted weakness would "
                "mean a real protocol bug — fix it, don't enshrine it"
            )


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.stem)
def test_corpus_entry_replays_to_stable_verdict(path):
    entry = json.loads(path.read_text())
    point = episode_point(**entry["spec"])
    result = run_point(point)
    assert (not result.disagreements) == entry["expect"]["safety_ok"], path.name
    assert liveness_ok(point, result) == entry["expect"]["liveness_ok"], path.name
    if result.disagreements:
        # A safety violation must come with attributable forensic evidence.
        assert result.evidence
