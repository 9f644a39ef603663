"""Command-line front end: scenario configs, experiment presets, CSV output.

Configs are strict JSON: unknown keys are rejected, every field is
validated, and the resolved configuration is echoed alongside the
results (`config_echo*.json`), so feeding an echo back reproduces the
metrics byte for byte.  Presets bundle the reference scenarios (policy
comparisons for the detection ratio, local versus super-decision
vectors for the success rate, and the wider 20-channel band).

Outputs per curve: `metrics*.csv` with columns
t,jdr_mean,jdr_std,tsr_mean,tsr_std; a key=value `summary.txt`;
`grid_awgn.csv` / `grid_rayleigh.csv` detection-probability tables; and
an optional `trace*.csv` with one row per node-step of replication 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Annotated, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .engine import BatchResult, RunRecord, SimConfig, run, run_batch
from .policies import PolicyKind
from .schema import ConfigError, Range, _brief, _build, _cast, _echo, _hints, _object
from .sensing import FadingKind


# Every preset runs these curves: one per policy.
_POLICY_CURVES = tuple((kind.value, {"policy": kind.value}) for kind in PolicyKind)

# Preset name -> (description, config keys shared by its curves).
PRESETS: Dict[str, Tuple[str, Dict]] = {
    "jdr-awgn": (
        "Detection-ratio comparison of the three policies, AWGN",
        {"fading": "awgn"},
    ),
    "jdr-rayleigh": (
        "Detection-ratio comparison of the three policies, Rayleigh",
        {"fading": "rayleigh"},
    ),
    "jdr-awgn-20ch": (
        "AWGN detection ratio with the band doubled to 20 channels",
        {"fading": "awgn", "n_fb": 20},
    ),
    "tsr-local": (
        "Success rate using local decision vectors only, AWGN",
        {"fading": "awgn", "use_super_decision": False},
    ),
    "tsr-super": (
        "Success rate using super-decision vectors, AWGN",
        {"fading": "awgn", "use_super_decision": True},
    ),
}


# ---------------------------------------------------------------------------
# Config <-> dict


def config_from_dict(data: Dict, where: str = "config") -> SimConfig:
    """Build and validate a SimConfig from a plain dict (strict keys)."""
    return _build(SimConfig, data, where)


def config_to_dict(config: SimConfig) -> Dict:
    """Full round-trippable echo of a config, placement resolved."""
    out = _echo(config)
    out["placement"] = _echo(config.resolved_placement())
    return out


def _no_duplicates(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"duplicate key {_brief(key)}")
        out[key] = value
    return out


def _read_json(path: Path) -> Dict:
    """The top-level object of a strict-JSON config file."""
    if not path.exists():
        raise ConfigError(f"{path}: no such config file")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_no_duplicates)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})")
    except (ValueError, RecursionError) as exc:  # too deep, or too many digits
        raise ConfigError(f"{path}: {exc}")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file ({exc.strerror})")
    return _object(data, str(path))


def parse_config(path) -> SimConfig:
    """Load and validate a strict-JSON scenario config."""
    return config_from_dict(_read_json(Path(path)), where=str(path))


# ---------------------------------------------------------------------------
# Artifact writers


_FLOAT_FMT = "{:.12g}"


def _write_metrics_csv(path: Path, batch: BatchResult) -> None:
    columns = (batch.jdr_mean, batch.jdr_std, batch.tsr_mean, batch.tsr_std)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "jdr_mean", "jdr_std", "tsr_mean", "tsr_std"])
        for t, row in enumerate(zip(*columns)):
            writer.writerow([t] + [_FLOAT_FMT.format(v) for v in row])


# Text of each logged code, indexed by the code.  Beliefs (UNKNOWN, VACANT,
# OCCUPIED) and outcomes (SKIPPED, SUCCESSFUL, JAMMED) are both coded 0, 1, 2.
_BELIEF_BYTES = np.frombuffer(b"UVO", np.uint8)
_OUTCOME_TEXT = np.array(["skipped", "successful", "jammed"], dtype=object)


def _belief_strings(log: np.ndarray) -> np.ndarray:
    """One U/V/O byte string per row of the last axis of a belief log."""
    return _BELIEF_BYTES[log].view(f"S{log.shape[-1]}")[..., 0]


def _write_trace_csv(path: Path, record: RunRecord) -> None:
    """Full node-step trace of one run's record.

    Each column is built for the whole record by array lookups; the rows of
    one step are then written together from `.tolist()` slices.
    """
    tau = _BELIEF_BYTES[record.observations].view("S1")
    transmit = record.transmits.astype(object)
    transmit[record.transmits < 0] = ""
    outcome = _OUTCOME_TEXT[record.outcomes]
    decision = _belief_strings(record.decisions)
    supers = None if record.supers is None else _belief_strings(record.supers)
    nodes = range(record.config.n_wn)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t", "node", "action", "m", "tau", "transmit",
             "outcome", "decision", "super_decision"]
        )
        for t in range(len(record)):
            writer.writerows(
                zip(
                    repeat(t),
                    nodes,
                    record.actions[t].tolist(),
                    record.cohorts[t].tolist(),
                    tau[t].astype(str).tolist(),
                    transmit[t].tolist(),
                    outcome[t].tolist(),
                    decision[t].astype(str).tolist(),
                    repeat("") if supers is None else supers[t].astype(str).tolist(),
                )
            )


@contextmanager
def _removed_on_failure() -> Iterator[List[Path]]:
    """A list to record each output path in before writing it; if the block
    fails, even partway through a file, every recorded file is removed."""
    written: List[Path] = []
    try:
        yield written
    except BaseException:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        raise


def export_grid(config: SimConfig, out_dir) -> List[Path]:
    """Write the AWGN table and the Rayleigh m=1 column as CSV files, after
    checking both and creating `out_dir` (a ConfigError each)."""
    config.check_tables(*FadingKind)
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out_dir}: cannot create directory ({exc.strerror})")
    with _removed_on_failure() as written:
        for kind in FadingKind:
            path = out_dir / f"grid_{kind.value}.csv"
            written.append(path)
            config.grid(kind).to_csv(path)
    return written


_SUMMARY_KEYS = (
    "policy", "fading", "n_wn", "n_fb", "horizon", "replications", "seed",
    "use_super_decision",
)


def _summary_lines(curves: Sequence[Tuple[str, BatchResult]]) -> List[str]:
    lines = [f"version={__version__}"]
    for label, batch in curves:
        prefix = f"{label}." if label else ""
        lines.extend(
            f"{prefix}{key}={_echo(getattr(batch.config, key))}" for key in _SUMMARY_KEYS
        )
        lines.append(f"{prefix}jdr_final_mean={batch.jdr_final_mean:.6f}")
        lines.append(f"{prefix}jdr_final_se={batch.jdr_final_se():.6f}")
        lines.append(f"{prefix}tsr_final_mean={batch.tsr_final_mean:.6f}")
        lines.append(f"{prefix}tsr_final_se={batch.tsr_final_se():.6f}")
        lines.append(f"{prefix}jdr_defined={batch.jamming_occurred}")
        lines.append(f"{prefix}tsr_defined={batch.transmissions_attempted}")
        # The resolved world: SNRs, neighbour edges, replication 0's chains.
        lines.append(f"{prefix}snr_db=" + ",".join(f"{s:.4f}" for s in batch.snr_db))
        lines.append(f"{prefix}edges=" + ";".join(f"{i}-{j}" for i, j in batch.graph.edges()))
        lines.append(f"{prefix}chains_rep0=" + ";".join(
            f"{stay_idle:.6f},{stay_active:.6f},{int(active)}"
            for stay_idle, stay_active, active in batch.chain_params
        ))
    return lines


def run_experiment(
    curves: Sequence[Tuple[str, SimConfig]],
    out_dir,
    trace: bool = False,
    workers: int = 1,
) -> List[Path]:
    """Run every (label, config) curve and write all artifacts.

    `export_grid` writes the tables first, so a table or `--out` error stops
    the call before any run.  On failure partway through, files written so
    far, and the one being written, are removed.
    """
    out_dir = Path(out_dir)
    results: List[Tuple[str, BatchResult]] = []
    with _removed_on_failure() as written:
        written.extend(export_grid(curves[0][1], out_dir))
        for label, config in curves:
            batch = run_batch(config, workers=workers)
            results.append((label, batch))
            suffix = f"_{label}" if label else ""
            path = out_dir / f"metrics{suffix}.csv"
            written.append(path)
            _write_metrics_csv(path, batch)
            path = out_dir / f"config_echo{suffix}.json"
            written.append(path)
            echo = json.dumps(config_to_dict(config), indent=2, sort_keys=True)
            path.write_text(echo + "\n")
            if trace:
                path = out_dir / f"trace{suffix}.csv"
                written.append(path)
                _write_trace_csv(path, run(config, replication=0))
        path = out_dir / "summary.txt"
        written.append(path)
        path.write_text("\n".join(_summary_lines(results)) + "\n")
    return written


# ---------------------------------------------------------------------------
# Argument parsing


_FLAG_KEYS = (
    "seed", "replications", "n_fb", "horizon", "policy", "fading", "epsilon_n",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jamsense",
        description="Seeded simulator of collaborative spectrum sensing "
        "and jammer avoidance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario or preset")
    src = run_p.add_mutually_exclusive_group()
    src.add_argument("--config", type=Path, help="strict-JSON scenario config")
    src.add_argument(
        "--preset", choices=sorted(PRESETS), help="named reference scenario"
    )
    run_p.add_argument("--out", type=Path, required=True, help="output directory")
    # Config-key flags: the dest is the key and the type comes from SimConfig.
    for key in _FLAG_KEYS:
        tp = _hints(SimConfig)[key]
        tp = getattr(tp, "__origin__", tp)  # Annotated[int, Range(1)] -> int
        typed = (
            {"choices": [k.value for k in tp]} if issubclass(tp, Enum) else {"type": tp}
        )
        run_p.add_argument("--" + key.replace("_", "-"), dest=key, **typed)
    run_p.add_argument(
        "--super-decision", choices=["on", "off"], dest="use_super_decision"
    )
    run_p.add_argument("--trace", action="store_true", help="write full node-step traces")
    run_p.add_argument("--workers", type=int, default=1, help="batch processes, >= 1")

    grid_p = sub.add_parser("export-grid", help="write the probability tables only")
    grid_p.add_argument("--config", type=Path, default=None)
    grid_p.add_argument("--out", type=Path, required=True)

    sub.add_parser("presets", help="list available presets")
    return parser


def _curves_for(args: argparse.Namespace) -> List[Tuple[str, SimConfig]]:
    """One (label, config) per curve; flags override preset or file keys."""
    overrides = {
        key: getattr(args, key) for key in _FLAG_KEYS if getattr(args, key) is not None
    }
    if args.use_super_decision is not None:
        overrides["use_super_decision"] = args.use_super_decision == "on"
    if args.preset:
        if args.policy is not None:
            raise ConfigError("--policy applies only without --preset")
        base = PRESETS[args.preset][1]
        where = f"preset {args.preset}"
        return [
            (label, config_from_dict({**base, **deltas, **overrides}, where))
            for label, deltas in _POLICY_CURVES
        ]
    data = _read_json(args.config) if args.config else {}
    where = str(args.config or "command line")
    return [("", config_from_dict({**data, **overrides}, where))]


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            for name, (description, _) in PRESETS.items():
                print(f"{name}: {description}")
            return 0
        if args.command == "export-grid":
            config = parse_config(args.config) if args.config else SimConfig()
            for path in export_grid(config, args.out):
                print(f"wrote {path}")
            return 0
        _cast(Annotated[int, Range(1)], args.workers, "--workers")
        curves = _curves_for(args)
        try:
            written = run_experiment(
                curves, args.out, trace=args.trace, workers=args.workers
            )
        except MemoryError:
            # Every run holds its per-step logs, horizon x n_wn x n_fb entries.
            # The curves share these three values.
            config = curves[0][1]
            raise ValueError(
                f"out of memory for the per-step logs of a run with "
                f"horizon={config.horizon}, n_wn={config.n_wn}, n_fb={config.n_fb}"
            ) from None
        for path in written:
            print(f"wrote {path}")
        summary = Path(args.out) / "summary.txt"
        print(summary.read_text(), end="")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
