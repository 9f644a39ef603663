"""Record the reference output digests that the benchmark checks against.

Run from the root of a checkout whose outputs are the reference:

    python3 bench/record_digests.py

It runs one unit of every workload for seeds 0 .. SEEDS-1, plus the full
record of replication 0 for batch workloads, and rewrites
`bench/digests.json`.  Seed 0 is the default seed and seed 1 the held-out
seed for claims; the others are recorded so that runs on many seeds, as
when the benchmark's spread is measured, are checked too.  Re-recording
changes what counts as a correct output, so it belongs only in a change
that is meant to alter the model's outputs, never in one that claims a
speed-up.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import WORKLOADS, import_jamsense

SEEDS = 32


def main() -> None:
    import_jamsense()
    out = {}
    for name, workload in WORKLOADS.items():
        out[name] = {}
        for seed in range(SEEDS):
            unit = workload.run_unit(seed)
            if unit.errors:
                raise SystemExit(f"{name} seed {seed}: {unit.errors}")
            entry = {"shared": unit.shared_digest, "ops": unit.op_digests}
            record = workload.record_digest(seed)
            if record is not None:
                entry["record"] = record
            out[name][str(seed)] = entry
    path = Path(__file__).resolve().parent / "digests.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
