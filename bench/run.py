"""jamsense benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload ref-awgn --seed 0 --seconds 25 --trace 0

With `--trace 0` the workload runs untraced, unit after unit, until
`--seconds` have passed, and the end-to-end metrics are reported; set-up
time and peak memory come from fresh child processes.  With `--trace 1`
untraced and traced units alternate for `--seconds`, and the per-layer
metrics of the traced units are reported.  Times are reported in reference
seconds (see calibration.py); the raw medians go to the result file.
Human-readable lines and a provenance line come first; the last line of
standard output is the JSON result.  Span files and a copy of each result
go to `.bench_build/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from hashlib import sha256
from pathlib import Path
from time import perf_counter

from calibration import Clock, factor_now
from tracer import Tracer
from workloads import (
    BUILD,
    ROOT,
    SRC,
    WORKLOADS,
    check_record,
    check_units,
    failed_unit,
    import_jamsense,
    probe_setup,
)

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120


def git_sha(root: Path):
    """HEAD of the checkout, or None where it is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.splitlines()
    # A checkout inside some other repository must not report that one's HEAD.
    if proc.returncode != 0 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def source_sha256() -> str:
    h = sha256()
    for path in sorted((SRC / "jamsense").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(ROOT),
        "source_sha256": source_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def probe(kind: str, workload: str, seed: int):
    """Run this script as a fresh child in `--probe` mode; return its last line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe", kind,
         "--workload", workload, "--seed", str(seed), "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_probe(kind: str, workload, seed: int):
    """The child's side of `probe`.

    `setup`: time the set-up, then calibrate, in this process; print
    [raw seconds, reference seconds].  Calibrating only afterwards keeps
    numpy's import inside the timed set-up.  `rss`: run one unit,
    untraced and uncalibrated, and print the peak resident MB less the
    pages mapped from files.  Those are mostly the shared libraries, and how
    many of them are resident depends on the host's page cache: between two
    sets of runs they moved the peak by up to 5 MB.
    """
    if kind == "setup":
        t0 = perf_counter()
        probe_setup(workload, seed)
        raw = perf_counter() - t0
        return [raw, raw * factor_now()]
    workload.run_unit(seed)
    status = {}
    for line in Path("/proc/self/status").read_text().splitlines():
        key, _, value = line.partition(":")
        status[key] = value.split()
    kb = [int(status[key][0]) for key in ("VmHWM", "RssFile", "RssShmem")]
    return (kb[0] - kb[1] - kb[2]) / 1024.0


def safe_unit(clock: Clock, workload, seed: int, tracer=None):
    """Run one unit; return it with the span that timed it."""
    span = clock.span(sample_inside=tracer is None, inner=tracer)
    try:
        unit = workload.run_unit(seed, span)
    except Exception:
        unit = failed_unit(workload.ops_per_unit, traceback.format_exc())
    return unit, span


def load_recorded(workload: str, seed: int):
    with open(HERE / "digests.json") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def end_to_end(name: str, seed: int, seconds: float):
    workload = WORKLOADS[name]
    setup = [probe("setup", name, seed) for _ in range(SETUP_SAMPLES)]
    rss_mb = probe("rss", name, seed)
    clock = Clock()
    runs = []
    start = perf_counter()
    while not runs or perf_counter() - start < seconds:
        runs.append(safe_unit(clock, workload, seed))
    metrics = {
        "node_steps_per_s": (statistics.median(
            u.node_steps / s.ref_s if s.ref_s else 0.0 for u, s in runs), "1/s"),
        "wall_s": (statistics.median(s.ref_s for _, s in runs), "s"),
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    detail = {
        "units": len(runs),
        "raw_wall_s_median": statistics.median(s.raw_s for _, s in runs),
        "raw_setup_s_median": statistics.median(raw for raw, _ in setup),
        "unit_wall_s": [[s.raw_s, s.factor] for _, s in runs],
        "setup_samples_s": [list(pair) for pair in setup],
    }
    return [u for u, _ in runs], metrics, detail


def per_layer(workload, seed: int, seconds: float, spans_path: Path):
    clock = Clock()
    plain, traced, counts, self_times, overheads = [], [], [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        unit, span = safe_unit(clock, workload, seed)
        plain.append(unit)
        tracer = Tracer()
        unit_t, span_t = safe_unit(clock, workload, seed, tracer)
        traced.append(unit_t)
        overheads.append(span_t.ref_s / span.ref_s - 1.0 if span.ref_s else 0.0)
        counts.append(tracer.counts())
        self_times.append({k: v * span_t.factor for k, v in tracer.self_times().items()})
        if len(traced) == 1:
            tracer.write_spans(spans_path)
    errors = [] if all(c == counts[0] for c in counts) else [
        "per-layer counts differ between traced units"]
    metrics = {name: (value, "ratio" if name.endswith("_ratio") else "count")
               for name, value in counts[0].items()}
    for name in self_times[0]:
        metrics[name] = (statistics.median(t[name] for t in self_times), "s")
    metrics["trace.overhead_frac"] = (statistics.median(overheads), "ratio")
    detail = {"units": len(traced), "spans_file": str(spans_path)}
    return plain + traced, metrics, detail, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "rss"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "jamsense" / "__init__.py").is_file():
        print(f"no jamsense sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.probe:
        print(json.dumps(run_probe(args.probe, workload, args.seed)))
        return 0

    load_start = os.getloadavg()
    import_jamsense()
    prov = provenance(args.seed)
    recorded = load_recorded(args.workload, args.seed)
    # Untimed, and before the timed units, so it also finishes lazy set-up.
    rec_attempted, rec_failed, rec_reasons = check_record(workload, args.seed, recorded)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        units, metrics, detail, errors = per_layer(
            workload, args.seed, args.seconds, BUILD / "spans" / f"{tag}.npz")
    else:
        units, metrics, detail = end_to_end(args.workload, args.seed, args.seconds)
        errors = []

    attempted, failed, reasons = check_units(units, recorded)
    attempted, failed = attempted + rec_attempted, failed + rec_failed
    reasons = rec_reasons + reasons
    if not args.trace:
        metrics["ok_frac"] = (1.0 - failed / attempted, "ratio")
    prov["loadavg_start"] = list(load_start)
    prov["loadavg_end"] = list(os.getloadavg())
    gate = "checked" if recorded is not None else "unchecked"
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": prov,
        "digest_gate": gate,
        "failed_frac": failed / attempted,
        "failures": (errors + reasons)[:20],
        **detail,
    }

    print(f"# jamsense benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} units={detail['units']}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"failed_frac = {failed / attempted!r} ratio ({failed} of {attempted})")
    print(f"digest_gate = {gate}")
    for reason in report["failures"]:
        print(f"failure: {reason.strip()}")

    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (BUILD / "results").mkdir(parents=True, exist_ok=True)
    with open(BUILD / "results" / f"{tag}.json", "w") as fh:
        json.dump({**report, "result": result}, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
