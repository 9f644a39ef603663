"""Tests of the benchmark itself, on tiny configs with exact counts.

Run with `python3 -m pytest -q bench`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import workloads
from tracer import MODULES, Tracer
from workloads import (
    BatchWorkload,
    PresetWorkload,
    UnitResult,
    WORKLOADS,
    check_record,
    check_units,
    import_jamsense,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
N_WN, N_FB, HORIZON, REPS = 4, 3, 7, 2
TINY = {"n_wn": N_WN, "n_fb": N_FB, "horizon": HORIZON, "replications": REPS,
        "fading": "awgn", "policy": "pseudo_random", "use_super_decision": True}
TINY_PRESET = PresetWorkload(
    name="preset-rayleigh-local-trace", preset="tsr-local",
    args=("--fading", "rayleigh", "--trace", "--workers", "1"),
    replications=1, horizon=5,
)
UNRECORDED_SEED = 1000


def traced(workload, seed=5):
    tracer = Tracer()
    unit = workload.run_unit(seed, tracer)
    return unit, tracer.counts()


def tiny(**changes):
    return BatchWorkload(name="tiny", config=dict(TINY, **changes))


def test_fuse_observations_called_once_per_node_step():
    _, counts = traced(tiny())
    assert counts["fusion.fuse_observations.calls"] == N_WN * HORIZON * REPS


def test_fuse_decisions_not_called_without_super_decision():
    _, counts = traced(tiny(use_super_decision=False))
    assert counts["fusion.fuse_decisions.calls"] == 0
    assert counts["fusion.candidate_channels.calls"] == N_WN * HORIZON * REPS


def test_grid_lookups_are_n_squared_per_replication_on_awgn():
    _, counts = traced(tiny())
    assert counts["sensing.ProbabilityGrid.lookup.calls"] == N_WN ** 2 * REPS


def test_one_sensing_draw_per_step_with_shared_draw():
    _, counts = traced(tiny(shared_draw=True))
    assert counts["rng.sensing.draws"] == HORIZON * REPS


def test_jammer_steps_are_caught_through_the_engine_alias():
    _, counts = traced(tiny())
    assert counts["jammers.step.calls"] == (HORIZON - 1) * N_FB * REPS
    # Three draws per chain at initialisation, one per later step.
    assert counts["rng.jammer.draws"] == (3 + HORIZON - 1) * N_FB * REPS


def test_batch_workloads_do_no_cli_or_other_policy_work():
    _, counts = traced(tiny())
    for name in ("policies.uniform", "policies.qlearning", "policies.update_q",
                 "cli.run_experiment", "cli.config_from_dict", "cli.export_grid"):
        assert counts[f"{name}.calls"] == 0, name


def test_traced_outputs_match_untraced_and_counts_repeat():
    workload = tiny()
    plain = workload.run_unit(5)
    first, counts_1 = traced(workload)
    second, counts_2 = traced(workload)
    assert first.op_digests == plain.op_digests == second.op_digests
    assert first.shared_digest == plain.shared_digest == second.shared_digest
    assert counts_1 == counts_2


def test_preset_traced_counts_and_digests(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "BUILD", tmp_path)
    plain = TINY_PRESET.run_unit(5)
    unit, counts = traced(TINY_PRESET)
    assert not plain.errors and unit.op_digests == plain.op_digests
    assert unit.shared_digest == plain.shared_digest
    n_wn, steps = 10, 5
    assert counts["fusion.fuse_decisions.calls"] == 0
    for policy in ("pseudo_random", "uniform", "qlearning"):
        # The batch's replication plus the trace's re-run of it.
        assert counts[f"policies.{policy}.calls"] == n_wn * steps * 2
    assert counts["cli.run_experiment.calls"] == 1
    assert counts["cli.export_grid.calls"] == 1
    # Each curve's batch plus its trace's re-run of replication 0.
    assert counts["engine.run.calls"] == 3 * 2
    assert list(tmp_path.iterdir()) == []


def test_tracer_restores_every_name():
    import importlib

    import_jamsense()
    modules = [importlib.import_module(f"jamsense.{m}") for m in MODULES]
    before = [dict(vars(m)) for m in modules]
    lookup = importlib.import_module("jamsense.sensing").ProbabilityGrid.lookup
    with Tracer():
        assert modules[MODULES.index("engine")].step_chain is not before[
            MODULES.index("engine")]["step_chain"]
    assert [dict(vars(m)) for m in modules] == before
    assert importlib.import_module("jamsense.sensing").ProbabilityGrid.lookup is lookup


def test_check_units_counts_failures_per_operation():
    good = UnitResult(10, ["a", "b"], "s")
    assert check_units([good, good], {"shared": "s", "ops": ["a", "b"]})[:2] == (4, 0)
    assert check_units([good], {"shared": "s", "ops": ["a", "x"]})[:2] == (2, 1)
    assert check_units([good], {"shared": "x", "ops": ["a", "b"]})[:2] == (2, 2)
    drifted = UnitResult(10, ["a", "x"], "s")
    assert check_units([good, drifted], None)[:2] == (4, 1)
    broken = UnitResult(10, ["a", "b"], "s", errors=["bad shape"])
    assert check_units([broken], None)[:2] == (2, 2)


def test_full_record_is_one_more_operation_and_catches_a_changed_step():
    workload = tiny()
    digest = workload.record_digest(5)
    assert check_record(workload, 5, {"record": digest}) == (1, 0, [])
    assert check_record(workload, 5, {"record": "x"})[:2] == (1, 1)
    assert check_record(workload, 5, None) == (0, 0, [])
    assert workload.record_digest(6) != digest


def test_full_record_digest_ignores_storage_dtype(monkeypatch):
    import_jamsense()
    from jamsense import engine

    workload = tiny()
    digest = workload.record_digest(5)
    run = engine.run

    def widened(config, replication=0):
        record = run(config, replication)
        record.cohorts = record.cohorts.astype("int32")
        return record

    monkeypatch.setattr(engine, "run", widened)
    assert workload.record_digest(5) == digest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_recorded_digests_hold_at_seed_0(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "BUILD", tmp_path)
    recorded = bench.load_recorded(name, 0)
    unit = WORKLOADS[name].run_unit(0)
    assert check_units([unit], recorded)[:2] == (WORKLOADS[name].ops_per_unit, 0)
    expected = (0, 0, []) if isinstance(WORKLOADS[name], PresetWorkload) else (1, 0, [])
    assert check_record(WORKLOADS[name], 0, recorded) == expected
    assert bench.load_recorded(name, 1) is not None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path, monkeypatch, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    small = {n: (TINY_PRESET if isinstance(w, PresetWorkload) else tiny())
             for n, w in WORKLOADS.items()}
    monkeypatch.setattr(bench, "WORKLOADS", small)
    monkeypatch.setattr(bench, "BUILD", tmp_path)
    monkeypatch.setattr(workloads, "BUILD", tmp_path)
    monkeypatch.setattr(bench, "SETUP_SAMPLES", 1)
    assert bench.main(["--workload", name, "--seed", str(UNRECORDED_SEED),
                       "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    for metric, unit in expected.items():
        assert any(line.startswith(f"{metric} = ") and line.endswith(f" {unit}")
                   for line in lines), metric
    assert "digest_gate = unchecked" in lines


def test_fails_without_a_result_outside_a_full_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ref-awgn", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
