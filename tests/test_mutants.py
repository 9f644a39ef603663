"""The spec replay against mutated engines: which modes catch which fault.

Each case is one fault planted in `jamsense/engine.py` as an (old, new)
source pair; the old text must occur exactly once.  The mutated source runs
as a throwaway module of the `jamsense` package, on the configs of the mode
matrix, and `check_structural_invariants` replays each record.  The set of
modes whose replay refuses the record is compared with the recorded set, so
a weaker replay, or an engine change that hides a fault from it, shows up
as a changed set.  A kernel change that removes a mutant's old text
restates the mutant against the new code.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

from jamsense import engine

from invariants import check_structural_invariants
from modes import MODE_MATRIX, mode_config

ALL = frozenset(MODE_MATRIX)
QLEARNING = frozenset({"global-qlearning", "isolated-node-qlearning"})

# name: (old text, new text, modes whose replay refuses the mutant)
MUTANTS = {
    "no-clamp-in-super-rows": (
        "return np.minimum(fused[..., :n_fb], int(Belief.OCCUPIED))",
        "return fused[..., :n_fb]",
        ALL - {"no-super-decision", "one-channel", "global-qlearning", "rayleigh-global"},
    ),
    "outcomes-swapped": (
        "np.where(hit, np.int8(JAMMED), np.int8(SUCCESSFUL))",
        "np.where(hit, np.int8(SUCCESSFUL), np.int8(JAMMED))",
        ALL,
    ),
    "own-channel-among-neighbours": (
        "fused_acts[lo + 1 : hi]",
        "fused_acts[lo : hi]",
        ALL - QLEARNING - {"uniform", "one-channel"},
    ),
    "skip-with-one-candidate": (
        "if cands else -1",
        "if len(cands) > 1 else -1",
        ALL,
    ),
    "cohorts-plus-one": (
        "cohort_log[t] = cohorts\n",
        "cohort_log[t] = cohorts + 1\n",
        ALL,
    ),
    "always-first-candidate": (
        "cands[transmit_rng.integers(len(cands))]",
        "cands[0 * transmit_rng.integers(len(cands))]",
        ALL - {"one-channel"},
    ),
    "supers-equal-decisions": (
        "super_log[t0:t1] = _super_rows(decision_log[t0:t1], fuse_index, starts)",
        "super_log[t0:t1] = decision_log[t0:t1]",
        ALL - {"no-super-decision", "one-channel"},
    ),
    "qlearning-from-own-entry-only": (
        "for k in range(lo, hi):",
        "for k in range(lo, lo + 1):",
        QLEARNING,
    ),
    "qlearning-max-never-rescanned": (
        "            elif old == best:\n                best = max(row)\n",
        "",
        frozenset({"isolated-node-qlearning"}),
    ),
}


def mutant_engine(old: str, new: str, monkeypatch) -> types.ModuleType:
    """`jamsense/engine.py` with `old` replaced by `new`, as a fresh module."""
    path = Path(engine.__file__)
    source = path.read_text()
    assert source.count(old) == 1, f"{old!r} occurs {source.count(old)} times"
    module = types.ModuleType("jamsense._mutant_engine")
    module.__file__, module.__package__ = str(path), "jamsense"
    # Registered while the test runs: dataclasses and the schema read type
    # hints through the module's entry in sys.modules.
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source.replace(old, new), str(path), "exec"), module.__dict__)
    return module


def refusing_modes(mutant: types.ModuleType) -> frozenset:
    refused = set()
    for mode in MODE_MATRIX:
        try:
            check_structural_invariants(mutant.run(mode_config(mode)))
        except AssertionError:
            refused.add(mode)
    return frozenset(refused)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_replay_refuses_each_mutant_on_its_recorded_modes(name, monkeypatch):
    old, new, expected = MUTANTS[name]
    refused = refusing_modes(mutant_engine(old, new, monkeypatch))
    assert sorted(refused) == sorted(expected)


def test_unmutated_engine_passes_every_mode(monkeypatch):
    # The loader itself changes nothing: an identity edit passes everywhere.
    same = mutant_engine("def run(", "def run(", monkeypatch)
    assert refusing_modes(same) == frozenset()
