"""Record the values the benchmark checks outputs against.

    python3 bench/record_expected.py

Runs every job of every workload once (seed 0, both sizes) and writes
``bench/expected.json``.  Run it only on a commit whose outputs are
known to be right: the benchmark treats the record as the truth.  The
Monte Carlo jobs record a reference estimate (frequency and Wilson
radius) where no exact value is available, and the exact tail
``good_probability_exact(m, c)`` where it is.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import coset_ewens  # noqa: E402
import jobs  # noqa: E402


def record(workload: str, size: str) -> dict:
    exact_mc = {f"sample_{m}": (m, c) for m, c, _ in jobs.SIZES[size]["mc"]
                if m in jobs.MC_EXACT_M}
    out = {}
    for job in jobs.build(workload, 0, size):
        if job.key in exact_mc:
            m, c = exact_mc[job.key]
            out[job.key] = str(coset_ewens.good_probability_exact(m, float(c)))
        elif job.key is not None:
            out[job.key] = job.observe(job.run())
    return out


def main() -> None:
    data = {size: {w: record(w, size) for w in jobs.WORKLOADS} for size in ("full", "tiny")}
    with open(ROOT / "bench" / "expected.json", "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
