"""Record the sha256 of each sweep's CSV for seeds 0..SEEDS-1 in digests.json.

    python3 perfbench/record_digests.py

Run it only on code whose CSV output is known to be right: the benchmark
treats any later difference as a failed check.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

SEEDS = 24


def main() -> None:
    table = {}
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        for workload in workloads.SWEEPS:
            table[workload] = {}
            for seed in range(SEEDS):
                bench = workloads.SweepWorkload(workload, seed, Path(tmp))
                bench.run_rep()
                (digest,) = bench.digests
                table[workload][str(seed)] = digest
                print(workload, seed, digest, flush=True)
    workloads.DIGESTS.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
