"""Benchmark driver for coset-ewens.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's fixed job list (``jobs.py``) again and again, each
repetition in a fresh worker process (``worker.py``) so the package's
``lru_cache`` tables start cold as they do for every CLI call, until
``--seconds`` is used up.  Every output is checked.  Prints a summary
table and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end figures (medians over
repetitions).  With ``--trace 1`` untraced and traced repetitions
alternate; the metrics are the per-layer figures of the traced ones and
the tracing overhead (traced over untraced wall time).  Spans of the
last traced repetition are written to ``.bench_build/spans/``.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"

#: set-up is measured this many times per run, on top of each repetition's own
SETUP_PROBES = 5
#: a run never lasts longer than this, whatever --seconds says
RUN_CAP_S = 170.0

#: the workload's headline jobs, and the figure the summary derives from them
HEADLINE = {
    "exact_enum": ("exact_tail_s", "s", "good_probability_exact(m, 2) cold, then (m, 3)"),
    "mc_sample": ("mc_samples_per_s", "1/s", "samples drawn / time in the sample jobs"),
    "series_bounds": ("tails_s", "s", "CLI tails 1000 2"),
    "group_certify": ("reduce_per_s", "1/s", "certified reduce_to_even_support calls per second"),
}

#: end-to-end metrics of the untraced run (must match BENCHMARK.json)
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "headline_s")

#: per-layer metrics of the traced run (must match BENCHMARK.json)
LAYER_UNITS = {
    "partitions.iter_partitions.yielded": "count",
    "partitions.iter_partitions.self_s": "s",
    "partitions.enumerate_partitions.self_s": "s",
    "cosets.predicted_intersection_order.calls": "count",
    "cosets.predicted_intersection_order.self_s": "s",
    "cosets.double_coset_size.self_s": "s",
    "cosets.coset_class.self_s": "s",
    "cosets.reduce_to_even_support.calls": "count",
    "cosets.reduce_to_even_support.self_s": "s",
    "cosets.partition_of.calls": "count",
    "cosets.partition_of.self_s": "s",
    "cosets.intersection_subgroup.self_s": "s",
    "cosets.wreath_model.self_s": "s",
    "cosets.enumerate_double_cosets.self_s": "s",
    "cosets.is_in_H.calls": "count",
    "perm.compose.calls": "count",
    "perm.compose.self_s": "s",
    "perm.disjoint_cycles.calls": "count",
    "perm.disjoint_cycles.self_s": "s",
    "perm.from_cycles.calls": "count",
    "perm.parse_permutation.self_s": "s",
    "ewens.good_probability_exact.self_s": "s",
    "ewens.coset_probability.calls": "count",
    "ewens.coset_probability.self_s": "s",
    "ewens.good_probability_mc.self_s": "s",
    "ewens.f_leq_threshold.calls": "count",
    "ewens.f_leq_threshold.self_s": "s",
    "rng.uniform01_array.calls": "count",
    "rng.uniform01_array.draws": "count",
    "rng.uniform01_array.self_s": "s",
    "series.W_coefficient.calls": "count",
    "series.W_coefficient.self_s": "s",
    "series.left_tail_bound.self_s": "s",
    "series.right_tail_bound.self_s": "s",
    "series.W_series_coeffs.exact_s": "s",
    "series.W_series_coeffs.float_s": "s",
    "series.W_at_one.self_s": "s",
    "series.W_at_one.truncation_N": "count",
    "series.asymptotic_diagnostic.self_s": "s",
    "series.W_direct.self_s": "s",
    "series.log_W_direct.calls": "count",
    "series.log_W_direct.self_s": "s",
    "series.jensen_check.self_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "count",
    "cli.error_envelopes": "count",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("COSET_EWENS_THREADS", None)
    return env


def machine() -> str:
    cpu = "unknown cpu"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"nproc {os.cpu_count()}, {cpu}, python {platform.python_version()}, "
            f"numpy {importlib.metadata.version('numpy')}")


def run_worker(argv: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a worker could start")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv], cwd=ROOT,
                              env=_worker_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {argv} timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {argv} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def rep_figures(rep: dict) -> dict:
    jobs = rep["jobs"]
    head = [j for j in jobs if j["headline"]]
    return {
        "wall_s": sum(j["norm_s"] for j in jobs),
        "raw_wall_s": sum(j["seconds"] for j in jobs),
        "headline_s": sum(j["norm_s"] for j in head),
        "samples": sum(j["samples"] for j in head),
        "headline_jobs": len(head),
    }


def derived_headline(workload: str, fig: dict) -> float:
    if workload == "mc_sample":
        return fig["samples"] / fig["headline_s"]
    if workload == "group_certify":
        return fig["headline_jobs"] / fig["headline_s"]
    return fig["headline_s"]


def measure(args, deadline: float) -> tuple[list[dict], list[dict], list[float]]:
    """Run repetitions until --seconds is used up: returns (untraced reps,
    traced reps, set-up samples)."""
    base = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    if args.corrupt_expected:
        base.append("--corrupt-expected")
    run_worker(["--setup-only"], deadline)  # compiles bytecode; not a sample
    setups = [run_worker(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]

    spans_dir = ROOT / ".bench_build" / "spans"
    plain, traced = [], []
    start = time.monotonic()
    end = start + args.seconds
    while True:
        want_trace = bool(args.trace) and len(traced) < len(plain)
        argv = list(base)
        if want_trace:
            spans_dir.mkdir(parents=True, exist_ok=True)
            argv += ["--trace", "--spans", str(spans_dir / f"{args.workload}.jsonl")]
        t0 = time.monotonic()
        rep = run_worker(argv, deadline)
        rep["cost_s"] = time.monotonic() - t0
        (traced if want_trace else plain).append(rep)
        setups.append(rep["setup_s"])
        enough = plain and (traced or not args.trace)
        # start another repetition only if it should finish inside --seconds
        if enough and time.monotonic() + rep["cost_s"] > end:
            break
    return plain, traced, setups


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=HEADLINE)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the same jobs at small sizes (self-test)")
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="check against a deliberately wrong record (self-test)")
    args = ap.parse_args()
    if not (ROOT / "src" / "coset_ewens" / "__init__.py").is_file():
        print(f"error: no coset_ewens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_CAP_S
    try:
        plain, traced, setups = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    outcomes = [j for rep in reps for j in rep["jobs"]]
    failures = [j for j in outcomes if j["status"] != "ok"]
    wrong = [j for j in outcomes if j["status"] == "wrong"]
    figs = [rep_figures(r) for r in plain]

    print(f"# workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"repetitions {len(plain)} untraced, {len(traced)} traced")
    print(f"# machine: {machine()}")
    for name, status, detail in sorted({(j["name"], j["status"], j["detail"]) for j in failures}):
        print(f"# {status}: {name}: {(detail or '')[:160]}")
    name, unit, meaning = HEADLINE[args.workload]
    summary = [
        ("wall_s", "s", [f["wall_s"] for f in figs]),
        ("raw_wall_s", "s", [f["raw_wall_s"] for f in figs]),
        ("setup_s", "s", setups),
        ("peak_rss_mb", "MiB", [r["peak_rss_mb"] for r in plain]),
        ("headline_s", "s", [f["headline_s"] for f in figs]),
        ("fail_frac", "ratio", [len(failures) / len(outcomes)]),
        (name, unit, [derived_headline(args.workload, f) for f in figs]),
    ]
    if args.trace:
        traced_wall = statistics.median(rep_figures(r)["wall_s"] for r in traced)
        overhead = traced_wall / statistics.median(f["wall_s"] for f in figs)
        summary += [(key, u, [overhead] if key == "trace.overhead"
                     else [r["layers"][key] for r in traced])
                    for key, u in LAYER_UNITS.items()]
    for label, u, values in summary:
        print(f"{label:<45} {statistics.median(values):>14.6g} {u:<6} n={len(values)}"
              f"  min {min(values):.6g}  max {max(values):.6g}")
    print(f"# {name}: {meaning}")

    wanted = LAYER_UNITS if args.trace else END_TO_END
    metrics = {label: {"value": statistics.median(values), "unit": u}
               for label, u, values in summary if label in wanted}
    print(json.dumps({"correct": not wrong, "attempted": len(outcomes),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
