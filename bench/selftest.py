"""Self-test of the benchmark itself (not of the package).

    python3 bench/selftest.py

For every workload, at the tiny size:
  * a normal run passes its output checks;
  * a run checked against a deliberately wrong recorded value fails more
    jobs, so ``fail_frac`` rises above the normal run's;
  * the untraced run emits exactly the end-to-end metrics of
    BENCHMARK.json, and the traced run exactly its per-layer metrics,
    each with its unit, and the summary prints every named metric with
    its unit and sample count.
Finally the benchmark must refuse to run, without printing a result, in
a directory holding only BENCHMARK.json and the benchmark's files.
Exits 0 when every check holds.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
SUMMARY_NAMES = {
    "exact_enum": "exact_tail_s",
    "mc_sample": "mc_samples_per_s",
    "series_bounds": "tails_s",
    "group_certify": "reduce_per_s",
}


def run(workload: str, *extra: str, cwd=ROOT, script=RUN) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "1",
            "--seconds", "1", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """(final JSON object, {summary name: (unit, sample count)})."""
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    summary = {}
    for line in lines[:-1]:
        m = re.match(r"(\S+)\s+\S+\s+(\S+)\s+n=(\d+)", line)
        if m and not line.startswith("#"):
            summary[m.group(1)] = (m.group(2), int(m.group(3)))
    return result, summary


def check_metrics(result: dict, summary: dict, spec: list[dict], problems: list, label: str):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metrics {got} differ from BENCHMARK.json {want}")
    for name, unit in want.items():
        if summary.get(name, (None, 0))[0] != unit or summary[name][1] < 1:
            problems.append(f"{label}: summary lacks {name} with unit {unit} and a sample count")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in SUMMARY_NAMES:
        print(f"selftest {workload}", flush=True)
        base, summary = parse(run(workload, "--size", "tiny", "--trace", "0"))
        check_metrics(base, summary, spec["end_to_end"], problems, f"{workload} trace 0")
        for name in (SUMMARY_NAMES[workload], "fail_frac"):
            if summary.get(name, (None, 0))[1] < 1:
                problems.append(f"{workload}: summary lacks {name} with a sample count")
        if not base["correct"]:
            problems.append(f"{workload}: tiny run is not correct")

        bad, _ = parse(run(workload, "--size", "tiny", "--trace", "0", "--corrupt-expected"))
        if bad["failed"] / bad["attempted"] <= base["failed"] / base["attempted"]:
            problems.append(f"{workload}: a wrong recorded value did not raise fail_frac")

        traced, summary = parse(run(workload, "--size", "tiny", "--trace", "1"))
        check_metrics(traced, summary, spec["per_layer"], problems, f"{workload} trace 1")

    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("exact_enum", "--trace", "0", cwd=bare, script=bare / "bench" / "run.py")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("the benchmark ran without the package sources")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
