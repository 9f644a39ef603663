"""The benchmark's workloads and the checks on their outputs.

A workload is run in units.  One unit is one call into jamsense that a
user would make: `run_batch` on a generated config, or `cli.main` with a
generated argument list.  The seed is the benchmark's argument; jamsense
only sees the config or arguments built from it.

Every unit yields one sha256 digest per operation (a replication of a
batch, or a curve of a preset) plus one digest of what the operations
share (the batch means, or the preset's summary head and grid files).
These are compared with the digests recorded in `digests.json`, and
every unit of a run must repeat the first unit's digests exactly.  A batch
run also checks, once and untimed, the digest of replication 0's full
step-by-step record, which the curves alone can hide: on `dense-400` the
curves saturate and several seeds give byte-identical ones.

This module imports jamsense only inside functions, so that
`probe_setup` can time the import itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"


def import_jamsense():
    """Import jamsense from this checkout's `src`, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import jamsense

    where = Path(jamsense.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"jamsense imported from {where}, not from {SRC}")
    return jamsense


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


@dataclass
class UnitResult:
    """What one unit did: its work and its output digests."""

    node_steps: int
    op_digests: List[str]
    shared_digest: str
    errors: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class BatchWorkload:
    """`engine.run_batch(config, workers=1)` on a config built from a dict."""

    name: str
    config: Dict

    def sim_config(self, seed: int):
        import_jamsense()
        from jamsense.cli import config_from_dict

        return config_from_dict(dict(self.config, seed=seed), where=self.name)

    @property
    def ops_per_unit(self) -> int:
        return self.config["replications"]

    def node_steps(self) -> int:
        c = self.config
        return c["n_wn"] * c["horizon"] * c["replications"]

    def run_unit(self, seed: int, span=None) -> UnitResult:
        """One `run_batch` call, made inside the context manager `span`."""
        import_jamsense()
        from jamsense import engine

        config = self.sim_config(seed)
        with span if span is not None else contextlib.nullcontext():
            batch = engine.run_batch(config, workers=1)
        errors = []
        reps, horizon = config.replications, config.horizon
        for label, arr, shape in (
            ("jdr_mean", batch.jdr_mean, (horizon,)),
            ("tsr_mean", batch.tsr_mean, (horizon,)),
            ("jdr_final", batch.jdr_final, (reps,)),
            ("tsr_final", batch.tsr_final, (reps,)),
        ):
            if arr.shape != shape or not ((arr >= 0.0) & (arr <= 1.0)).all():
                errors.append(f"{label}: shape {arr.shape} or values outside [0, 1]")
        return UnitResult(
            node_steps=self.node_steps(),
            op_digests=[
                _sha(batch.jdr_final[r].tobytes(), batch.tsr_final[r].tobytes())
                for r in range(reps)
            ],
            shared_digest=_sha(batch.jdr_mean.tobytes(), batch.tsr_mean.tobytes()),
            errors=errors,
        )

    def record_digest(self, seed: int) -> str:
        """Digest of `engine.run(config, 0)`: every per-step log and the world.

        The logs are hashed as int64 values with their shapes, so that a
        change of storage dtype that keeps every value passes.
        """
        import_jamsense()
        import numpy as np
        from jamsense import engine

        rec = engine.run(self.sim_config(seed), 0)
        logs = (rec.truth, rec.actions, rec.observations, rec.cohorts,
                rec.decisions, rec.supers, rec.transmits, rec.outcomes)
        return _sha(
            repr((rec.run_seed, rec.chain_params, rec.snr_db, rec.edges)).encode(),
            *(b"" if log is None else repr(log.shape).encode()
              + np.ascontiguousarray(log, dtype=np.int64).tobytes() for log in logs),
        )


@dataclass(frozen=True)
class PresetWorkload:
    """`jamsense.cli.main(["run", "--preset", ...])` into a fresh directory."""

    name: str
    preset: str
    args: Tuple[str, ...]
    replications: int
    horizon: int

    def argv(self, seed: int, out_dir: Path) -> List[str]:
        return [
            "run", "--preset", self.preset, *self.args,
            "--replications", str(self.replications),
            "--horizon", str(self.horizon),
            "--seed", str(seed), "--out", str(out_dir),
        ]

    def curves(self, seed: int) -> List[Tuple[str, object]]:
        """The (label, SimConfig) curves that `cli.main` resolves from argv."""
        import_jamsense()
        from jamsense import cli

        return cli._curves_for(cli.build_parser().parse_args(self.argv(seed, BUILD)))

    @property
    def ops_per_unit(self) -> int:
        return len(self.curves(0))

    def sim_config(self, seed: int):
        """The preset's first curve, as `cli.main` would build it."""
        return self.curves(seed)[0][1]

    def run_unit(self, seed: int, span=None) -> UnitResult:
        """One `cli.main` call, made inside the context manager `span`."""
        import_jamsense()
        from jamsense import cli

        BUILD.mkdir(exist_ok=True)
        out_dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=BUILD))
        try:
            argv = self.argv(seed, out_dir)
            with contextlib.redirect_stdout(io.StringIO()):
                with span if span is not None else contextlib.nullcontext():
                    code = cli.main(argv)
            return self._check(seed, out_dir, code)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _check(self, seed: int, out_dir: Path, code: int) -> UnitResult:
        curves = self.curves(seed)
        labels = [label for label, _ in curves]
        node_steps = sum(c.n_wn * c.horizon * c.replications for _, c in curves)
        errors = [] if code == 0 else [f"cli.main returned {code}"]
        expected = {"summary.txt", "grid_awgn.csv", "grid_rayleigh.csv"}
        for label in labels:
            expected |= {f"metrics_{label}.csv", f"config_echo_{label}.json",
                         f"trace_{label}.csv"}
        found = {p.name for p in out_dir.iterdir()}
        if found != expected:
            errors.append(f"artifacts {sorted(found ^ expected)} missing or unexpected")
            return UnitResult(node_steps, ["missing"] * len(labels), "missing", errors)

        def read(name: str) -> bytes:
            return (out_dir / name).read_bytes()

        summary = read("summary.txt").decode().splitlines()
        op_digests = []
        for label, config in curves:
            metrics, trace = read(f"metrics_{label}.csv"), read(f"trace_{label}.csv")
            if metrics.count(b"\n") != config.horizon + 1:
                errors.append(f"metrics_{label}.csv: wrong row count")
            if trace.count(b"\n") != config.n_wn * config.horizon + 1:
                errors.append(f"trace_{label}.csv: wrong row count")
            own = [line for line in summary if line.startswith(f"{label}.")]
            op_digests.append(_sha(
                metrics, read(f"config_echo_{label}.json"), trace,
                "\n".join(own).encode(),
            ))
        head = [line for line in summary
                if not any(line.startswith(f"{label}.") for label in labels)]
        shared = _sha("\n".join(head).encode(), read("grid_awgn.csv"),
                      read("grid_rayleigh.csv"))
        return UnitResult(node_steps, op_digests, shared, errors)

    def record_digest(self, seed: int) -> None:
        """None: the trace artifacts already hold replication 0 step by step."""
        return None


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        BatchWorkload(
            name="ref-awgn",
            config={"n_wn": 10, "n_fb": 10, "horizon": 2000, "replications": 1,
                    "fading": "awgn", "policy": "pseudo_random",
                    "use_super_decision": True},
        ),
        PresetWorkload(
            name="preset-rayleigh-local-trace",
            preset="tsr-local",
            args=("--fading", "rayleigh", "--trace", "--workers", "1"),
            replications=2,
            horizon=200,
        ),
        BatchWorkload(
            name="dense-400",
            config={"n_wn": 400, "n_fb": 10, "horizon": 20, "replications": 1,
                    "fading": "awgn", "policy": "pseudo_random",
                    "use_super_decision": True},
        ),
    )
}


def probe_setup(workload, seed: int) -> None:
    """The work a user pays for before the first simulated step.

    Imports jamsense (when not yet imported), builds the workload's
    SimConfig through `config_from_dict`, and makes a one-replication,
    one-step `run()` at the workload's size, which builds the geometry,
    the jammer chains and the probability tables.
    """
    import_jamsense()
    import dataclasses

    from jamsense.engine import run

    config = workload.sim_config(seed)
    run(dataclasses.replace(config, horizon=1, replications=1))


def check_units(
    units: List[UnitResult], recorded: Optional[Dict]
) -> Tuple[int, int, List[str]]:
    """Count (attempted, failed) operations and say why any failed.

    An operation fails if its unit raised or broke an invariant, if its
    digest differs from the first unit's, or, when digests were recorded
    for this seed, if its digest or its unit's shared digest differs from
    the recorded one.
    """
    attempted = failed = 0
    reasons: List[str] = []
    first = units[0]
    for k, unit in enumerate(units):
        unit_bad = list(unit.errors)
        if recorded is not None and unit.shared_digest != recorded["shared"]:
            unit_bad.append("shared digest differs from the recorded one")
        if unit.shared_digest != first.shared_digest:
            unit_bad.append("shared digest differs from the first unit's")
        for i, digest in enumerate(unit.op_digests):
            attempted += 1
            bad = list(unit_bad)
            if recorded is not None and (
                i >= len(recorded["ops"]) or digest != recorded["ops"][i]
            ):
                bad.append(f"op {i}: digest differs from the recorded one")
            if i >= len(first.op_digests) or digest != first.op_digests[i]:
                bad.append(f"op {i}: digest differs from the first unit's")
            if bad:
                failed += 1
                reasons.extend(f"unit {k}: {r}" for r in bad)
    return attempted, failed, reasons


def check_record(workload, seed: int, recorded: Optional[Dict]) -> Tuple[int, int, List[str]]:
    """Check replication 0's full record: (attempted, failed, reasons).

    It is one more operation of the run, made only where a recorded digest
    exists to compare it with.
    """
    if recorded is None or "record" not in recorded:
        return 0, 0, []
    try:
        digest = workload.record_digest(seed)
    except Exception:
        return 1, 1, [traceback.format_exc()]
    if digest != recorded["record"]:
        return 1, 1, ["replication 0's full record differs from the recorded one"]
    return 1, 0, []


def failed_unit(ops: int, error: str) -> UnitResult:
    """A unit that raised: every one of its operations failed."""
    return UnitResult(0, ["raised"] * ops, "raised", [error])
