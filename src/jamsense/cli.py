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
import dataclasses
import json
import math
import sys
import typing
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import MISSING, dataclass
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__
from .engine import BatchResult, SimConfig, run, run_batch
from .network import Placement
from .policies import PolicyKind, QParams
from .sensing import DetectionParams, FadingKind, FalseAlarmTable


class ConfigError(ValueError):
    """Raised for malformed or invalid scenario configs."""


@dataclass(frozen=True)
class ExperimentPreset:
    """Named scenario bundle: shared deltas, run once per policy curve."""

    name: str
    description: str
    base: Dict


# Every preset runs these curves: one per policy.
_POLICY_CURVES = tuple((kind.value, {"policy": kind.value}) for kind in PolicyKind)

PRESETS: Dict[str, ExperimentPreset] = {
    p.name: p
    for p in (
        ExperimentPreset(
            name="jdr-awgn",
            description="Detection-ratio comparison of the three policies, AWGN",
            base={"fading": "awgn"},
        ),
        ExperimentPreset(
            name="jdr-rayleigh",
            description="Detection-ratio comparison of the three policies, Rayleigh",
            base={"fading": "rayleigh"},
        ),
        ExperimentPreset(
            name="jdr-awgn-20ch",
            description="AWGN detection ratio with the band doubled to 20 channels",
            base={"fading": "awgn", "n_fb": 20},
        ),
        ExperimentPreset(
            name="tsr-local",
            description="Success rate using local decision vectors only, AWGN",
            base={"fading": "awgn", "use_super_decision": False},
        ),
        ExperimentPreset(
            name="tsr-super",
            description="Success rate using super-decision vectors, AWGN",
            base={"fading": "awgn", "use_super_decision": True},
        ),
    )
}


# ---------------------------------------------------------------------------
# Config <-> dict


# The JSON schema is the dataclass fields themselves.
_HINTS = {
    cls: typing.get_type_hints(cls)
    for cls in (SimConfig, QParams, DetectionParams, FalseAlarmTable, Placement)
}
# Leaf type -> (what the JSON value must be, test).  bool is a subclass of
# int in Python, so the tests compare exact types.
_LEAVES = {
    bool: ("true or false", lambda v: type(v) is bool),
    int: ("an integer", lambda v: type(v) is int),
    float: ("a finite number", lambda v: type(v) in (int, float) and math.isfinite(v)),
}


def _object(value, where: str, keys=None) -> Dict:
    """`value` as a JSON object whose keys all lie in `keys` (if given)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {value!r}")
    for key in value:
        if keys is not None and key not in keys:
            raise ConfigError(f"unknown key '{key}' in {where}")
    return value


def _cast(tp, value, where: str):
    """Convert the JSON `value` to the field type `tp`; errors name `where`."""
    if dataclasses.is_dataclass(tp):
        return _build(tp, value, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Union:  # Optional[X]: null selects the None default
        return None if value is None else _cast(args[0], value, where)
    if origin is tuple:  # Tuple[X, ...] or fixed-length Tuple[X, Y]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        types = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(types) != len(value):
            raise ConfigError(f"{where}: expected {len(types)} entries, got {value!r}")
        return tuple(
            _cast(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(types, value))
        )
    if origin is dict:  # Dict[int, float]: JSON object keys are strings
        out = {}
        for key, v in _object(value, where).items():
            try:
                order = int(key)
            except (TypeError, ValueError):
                order = None
            if str(order) != str(key):  # "01", "1_0", " 1" would alias "1"
                raise ConfigError(f"{where}: key {key!r} is not an integer")
            out[order] = _cast(args[1], v, f"{where}.{key}")
        return out
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            raise ConfigError(
                f"{where}: {value!r} is not one of {[k.value for k in tp]}"
            )
    expected, ok = _LEAVES[tp]
    if not ok(value):
        raise ConfigError(f"{where}: expected {expected}, got {value!r}")
    return tp(value)


def _build(cls, data, where: str):
    """Instantiate the config dataclass `cls` from a JSON object."""
    hints = _HINTS[cls]
    kwargs = {
        key: _cast(hints[key], value, f"{where}.{key}")
        for key, value in _object(data, where, hints).items()
    }
    for f in dataclasses.fields(cls):
        required = f.default is MISSING and f.default_factory is MISSING
        if required and f.name not in kwargs:
            raise ConfigError(f"{where}: '{f.name}' is required")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}")


def config_from_dict(data: Dict, where: str = "config") -> SimConfig:
    """Build and validate a SimConfig from a plain dict (strict keys)."""
    return _build(SimConfig, data, where)


def _echo(value):
    """JSON form of a config value; `_cast` reads it back unchanged."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _echo(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_echo(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _echo(v) for k, v in sorted(value.items())}
    return value


def config_to_dict(config: SimConfig) -> Dict:
    """Full round-trippable echo of a config, placement resolved."""
    out = _echo(config)
    out["placement"] = _echo(config.resolved_placement())
    return out


def _no_duplicates(pairs):
    seen = set()
    out = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key '{key}'")
        seen.add(key)
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "jdr_mean", "jdr_std", "tsr_mean", "tsr_std"])
        for t in range(len(batch.jdr_mean)):
            writer.writerow(
                [
                    t,
                    _FLOAT_FMT.format(batch.jdr_mean[t]),
                    _FLOAT_FMT.format(batch.jdr_std[t]),
                    _FLOAT_FMT.format(batch.tsr_mean[t]),
                    _FLOAT_FMT.format(batch.tsr_std[t]),
                ]
            )


# Text of each logged code, indexed by the code.  Beliefs (UNKNOWN, VACANT,
# OCCUPIED) and outcomes (SKIPPED, SUCCESSFUL, JAMMED) are both coded 0, 1, 2.
_BELIEF_BYTES = np.frombuffer(b"UVO", np.uint8)
_OUTCOME_TEXT = np.array(["skipped", "successful", "jammed"], dtype=object)


def _belief_strings(log: np.ndarray) -> np.ndarray:
    """One U/V/O byte string per row of the last axis of a belief log."""
    return _BELIEF_BYTES[log].view(f"S{log.shape[-1]}")[..., 0]


def _write_trace_csv(path: Path, config: SimConfig) -> None:
    """Full node-step trace of replication 0 for the given config.

    Each column is built for the whole record by array lookups; the rows of
    one step are then written together from `.tolist()` slices.
    """
    record = run(config, replication=0)
    tau = _BELIEF_BYTES[record.observations].view("S1")
    transmit = record.transmits.astype(object)
    transmit[record.transmits < 0] = ""
    outcome = _OUTCOME_TEXT[record.outcomes]
    decision = _belief_strings(record.decisions)
    supers = None if record.supers is None else _belief_strings(record.supers)
    nodes = range(config.n_wn)
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


def _check_exportable(config: SimConfig) -> None:
    """Both tables are written whatever the fading, so both must be defined."""
    try:
        config.check_tables(*FadingKind)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _make_out_dir(out_dir) -> Path:
    """Create the output directory; a path that cannot be one is a ConfigError."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out_dir}: cannot create directory ({exc.strerror})")
    return out_dir


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
    """Write the AWGN table and the Rayleigh m=1 column as CSV files."""
    _check_exportable(config)
    out_dir = _make_out_dir(out_dir)
    with _removed_on_failure() as written:
        for kind in FadingKind:
            path = out_dir / f"grid_{kind.value}.csv"
            written.append(path)
            config.grid(kind).to_csv(path)
    return written


def _geometry_lines(prefix: str, batch: BatchResult) -> List[str]:
    """Resolved-world echo: SNRs, neighbor edges, replication-0 chains."""
    return [
        f"{prefix}snr_db=" + ",".join(f"{s:.4f}" for s in batch.snr_db),
        f"{prefix}edges=" + ";".join(f"{i}-{j}" for i, j in batch.edges),
        f"{prefix}chains_rep0=" + ";".join(
            f"{stay_idle:.6f},{stay_active:.6f},{int(active)}"
            for stay_idle, stay_active, active in batch.chain_params
        ),
    ]


_SUMMARY_KEYS = (
    "policy", "fading", "n_wn", "n_fb", "horizon", "replications", "seed",
    "use_super_decision",
)


def _summary_lines(
    curves: Sequence[Tuple[str, SimConfig, BatchResult]]
) -> List[str]:
    lines = [f"version={__version__}"]
    for label, config, batch in curves:
        prefix = f"{label}." if label else ""
        lines.extend(
            f"{prefix}{key}={_echo(getattr(config, key))}" for key in _SUMMARY_KEYS
        )
        lines.append(f"{prefix}jdr_final_mean={batch.jdr_final_mean:.6f}")
        lines.append(f"{prefix}jdr_final_se={batch.jdr_final_se():.6f}")
        lines.append(f"{prefix}tsr_final_mean={batch.tsr_final_mean:.6f}")
        lines.append(f"{prefix}tsr_final_se={batch.tsr_final_se():.6f}")
        lines.append(f"{prefix}jdr_defined={batch.jamming_occurred}")
        lines.append(f"{prefix}tsr_defined={batch.transmissions_attempted}")
        lines.extend(_geometry_lines(prefix, batch))
    return lines


def run_experiment(
    curves: Sequence[Tuple[str, SimConfig]],
    out_dir,
    trace: bool = False,
    workers: int = 1,
) -> List[Path]:
    """Run every (label, config) curve and write all artifacts.

    Both tables and the output directory are checked before any run; on
    failure partway through, files written so far, and the one being
    written, are removed.
    """
    _check_exportable(curves[0][1])
    out_dir = _make_out_dir(out_dir)
    results: List[Tuple[str, SimConfig, BatchResult]] = []
    with _removed_on_failure() as written:
        for label, config in curves:
            batch = run_batch(config, workers=workers)
            results.append((label, config, batch))
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
                _write_trace_csv(path, config)
        path = out_dir / "summary.txt"
        written.append(path)
        path.write_text("\n".join(_summary_lines(results)) + "\n")
        written.extend(export_grid(curves[0][1], out_dir))
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
        tp = _HINTS[SimConfig][key]
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
        preset = PRESETS[args.preset]
        where = f"preset {preset.name}"
        return [
            (label, config_from_dict({**preset.base, **deltas, **overrides}, where))
            for label, deltas in _POLICY_CURVES
        ]
    data = _read_json(args.config) if args.config else {}
    where = str(args.config or "command line")
    return [("", config_from_dict({**data, **overrides}, where))]


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            for preset in PRESETS.values():
                print(f"{preset.name}: {preset.description}")
            return 0
        if args.command == "export-grid":
            config = parse_config(args.config) if args.config else SimConfig()
            for path in export_grid(config, args.out):
                print(f"wrote {path}")
            return 0
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
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
