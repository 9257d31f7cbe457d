"""The benchmark's own output checks, run in-process: every job of every
workload at both sizes must pass ``job.check`` against
``bench/expected.json``, so a value that drifts past a job's tolerance
fails here and not only in a benchmark run."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def jobs():
    spec = importlib.util.spec_from_file_location("bench_jobs", BENCH / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def expected():
    return json.loads((BENCH / "expected.json").read_text())


@pytest.mark.parametrize("workload", ["exact_enum", "mc_sample", "series_bounds",
                                      "group_certify"])
@pytest.mark.parametrize("size", ["tiny", "full"])
def test_every_job_passes_its_check(jobs, expected, size, workload):
    record = expected[size][workload]
    for job in jobs.build(workload, 1, size):
        problem = job.check(job.run(), record.get(job.key))
        assert problem is None, f"{job.name}: {problem}"
