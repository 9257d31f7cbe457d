"""One benchmark repetition in a fresh process: set up the package, run
one workload's job list, check every output, print one JSON line.

    python3 bench/worker.py --workload NAME --seed N [--trace] [--size tiny]
    python3 bench/worker.py --setup-only

Set-up (``import coset_ewens`` plus building the CLI parser) is timed
first and excluded from the job times.  All times are reported at the
reference speed of ``calib.py``.  With ``--trace`` every layer
function is wrapped before the jobs run (see ``tracer.py``).
"""
import sys
import time

_t0 = time.perf_counter()
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import coset_ewens  # noqa: E402
import coset_ewens.cli  # noqa: E402

coset_ewens.cli.build_parser()
SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

sys.path.insert(0, str(ROOT / "bench"))
import calib  # noqa: E402
import jobs as jobs_mod  # noqa: E402
from tracer import Tracer  # noqa: E402


def corrupt(value):
    """A deliberately wrong copy of a recorded value (for the self-test)."""
    if isinstance(value, str) and "/" in value:
        num, den = value.split("/")
        return f"{int(num) + 1}/{den}"
    if isinstance(value, str):
        return value[::-1]
    if isinstance(value, float):
        return value * 1.5
    if isinstance(value, list):
        return [corrupt(value[0])] + value[1:]
    if isinstance(value, dict):
        first = next(iter(value))
        return {**value, first: corrupt(value[first])}
    raise TypeError(f"cannot corrupt {value!r}")


def run_jobs(job_list, expected, cal):
    """Run and check every job.  Each result holds the job's time on the
    calibrator's clock, ``seconds``, and the clock interval it ran in."""
    results = []
    output_bytes = 0
    error_envelopes = 0
    for job in job_list:
        start = cal.clock()
        try:
            out = job.run()
            error = None
        except Exception as exc:  # a crashing job is a failed job, not a crashed run
            out, error = None, f"{type(exc).__name__}: {exc}"
        end = cal.clock()
        if isinstance(out, jobs_mod.CliOutput):
            output_bytes += len(out.text.encode())
            if out.code != 0:
                error_envelopes += 1
                err = out.envelope.get("error", {})
                error = f"exit {out.code} ({err.get('code')}): {err.get('message')}"
        status, detail = "ok", None
        if error is not None:
            status, detail = "error", error
        else:
            try:
                problem = job.check(out, expected.get(job.key) if job.key else None)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                problem = f"malformed output: {exc!r}"
            if problem:
                status, detail = "wrong", problem
        results.append({"name": job.name, "seconds": end - start, "status": status,
                        "detail": detail, "headline": job.headline, "samples": job.samples,
                        "window": (start, end)})
    return results, output_bytes, error_envelopes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=jobs_mod.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", choices=sorted(jobs_mod.SIZES), default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="write the trace's spans here (JSON lines)")
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="check against a deliberately wrong record (self-test)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.setup_only:
        print(json.dumps({"setup_s": SETUP_S * calib.speed_median()}))
        return 0

    with open(ROOT / "bench" / "expected.json") as fh:
        expected = json.load(fh)[args.size][args.workload]
    if args.corrupt_expected:
        first = next(iter(expected))
        expected[first] = corrupt(expected[first])
    job_list = jobs_mod.build(args.workload, args.seed, args.size)

    setup_s = SETUP_S * calib.speed_median()
    cal = calib.Calibrator()
    tracer = None
    if args.trace:
        tracer = Tracer(cal.clock_ns)
        tracer.install(coset_ewens)
    with cal:
        results, output_bytes, error_envelopes = run_jobs(job_list, expected, cal)
    for r in results:
        r["norm_s"] = r["seconds"] * cal.scale(*r.pop("window"))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {
        "setup_s": setup_s,
        "jobs": results,
        "peak_rss_mb": peak_kib / 1024.0,
        "layers": None,
    }
    if tracer is not None:
        # layer times at reference speed, like the job times
        scale = sum(r["norm_s"] for r in results) / sum(r["seconds"] for r in results)
        layers = {k: v * scale if k.endswith("_s") else v
                  for k, v in tracer.metrics().items()}
        layers["cli.output_bytes"] = output_bytes
        layers["cli.error_envelopes"] = error_envelopes
        report["layers"] = layers
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
