import contextlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coset_ewens import cli, cosets, perm, series
from coset_ewens.cli import main
from coset_ewens.cosets import CosetClass, canonical_cycles, partition_of
from coset_ewens.partitions import Partition, iter_counts
from coset_ewens.perm import Permutation


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def fail(*args, **kwargs):
    raise AssertionError("ran past the cap")


def oracle_double_cosets(m):
    """The list-building payload of ``double-cosets m``: every row is held
    before anything is written, as the command did before it streamed."""
    h_order = 2**m * math.factorial(m)
    classes = []
    for counts, f in iter_counts(m):
        record = CosetClass(Partition.trusted(counts, m), f, h_order * h_order // f,
                            canonical_cycles(counts, m))
        classes.append(record.to_json_dict())
    return {"m": m, "classes": classes}


def oracle_table(m):
    """The list-building payload of ``table m``, ``total`` summed over the held rows."""
    h_order = 2**m * math.factorial(m)
    fact_2m = math.factorial(2 * m)
    rows = []
    mass = 0
    for counts, f in iter_counts(m):
        size = h_order * h_order // f
        prob = Fraction(size, fact_2m)
        mass += size
        rows.append({
            "lambda": str(Partition.trusted(counts, m)),
            "predicted_order": str(f),
            "coset_size": str(size),
            "probability": f"{prob.numerator}/{prob.denominator}",
            "probability_float": float(prob),
        })
    total = Fraction(mass, fact_2m)
    return {"m": m, "rows": rows, "total": f"{total.numerator}/{total.denominator}"}


# command: (oracle payload, key of the rows, CSV columns)
CLASS_TABLES = {
    "table": (oracle_table, "rows",
              ["lambda", "predicted_order", "coset_size", "probability", "probability_float"]),
    "double-cosets": (oracle_double_cosets, "classes",
                      ["lambda", "predicted_order", "coset_size", "canonical"]),
}


def oracle_json(command, m):
    """The whole envelope of ``command m`` as one json.dumps, ``elapsed_ms`` 0."""
    env = {"command": command, "parameters": {"seed": 0, "m": m}, "status": "ok",
           "payload": CLASS_TABLES[command][0](m), "elapsed_ms": 0}
    return json.dumps(env, allow_nan=False) + "\n"


def oracle_csv(command, m):
    oracle, key, fields = CLASS_TABLES[command]
    lines = [",".join(fields)]
    for row in oracle(m)[key]:
        lines.append(",".join(format(row[f], ".17g") if isinstance(row[f], float)
                              else str(row[f]) for f in fields))
    return "\n".join(lines) + "\n"


class TestClassify:
    def test_transposition_m2(self, capsys):
        code, env = run_json(capsys, ["classify", "(1 3)", "2"])
        assert code == 0 and env["status"] == "ok"
        assert env["payload"]["lambda"] == "2^1"
        assert env["payload"]["predicted_order"] == "4"

    def test_identity_m3(self, capsys):
        code, env = run_json(capsys, ["classify", "()", "3"])
        assert code == 0
        assert env["payload"]["lambda"] == "1^3"
        assert env["payload"]["predicted_order"] == "48"

    def test_adjacent_transposition_m3(self, capsys):
        code, env = run_json(capsys, ["classify", "(4 5)", "3"])
        assert code == 0
        assert env["payload"]["lambda"] == "1^1 2^1"
        assert env["payload"]["predicted_order"] == "8"

    def test_builds_no_representative(self, capsys, monkeypatch):
        # input_cycles still walks the input, so only canonical_rep is refused
        expected = run_json(capsys, ["classify", "()", "1000"])[1]["payload"]
        monkeypatch.setattr(cosets, "canonical_rep", fail)
        monkeypatch.setattr(cli, "canonical_rep", fail)
        code, env = run_json(capsys, ["classify", "()", "1000"])
        assert code == 0 and env["payload"] == expected

    def test_parse_failure_exit_2(self, capsys):
        code, env = run_json(capsys, ["classify", "(1 99)", "2"])
        assert code == 2
        assert env["status"] == "error"
        assert env["error"]["code"] == "usage"
        assert "payload" not in env

    def test_one_line_form(self, capsys):
        code, env = run_json(capsys, ["classify", "[3,4,1,2]", "2"])
        assert code == 0
        assert env["payload"]["lambda"] == "1^2"

    def test_large_m_past_int_digit_limit(self, capsys):
        # coset_size has about 5700 digits here
        images = list(range(2000))
        random.Random(11).shuffle(images)
        text = "[" + ",".join(str(v + 1) for v in images) + "]"
        code, env = run_json(capsys, ["classify", text, "1000"])
        assert code == 0
        assert env["payload"]["lambda"] == str(partition_of(Permutation(tuple(images)), 1000))
        assert len(env["payload"]["coset_size"]) > 4300

    def test_m_above_cap_refused_before_parsing(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "parse_permutation", fail)
        start = time.perf_counter()
        code, env = run_json(capsys, ["classify", "()", "100000000"])
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert env["error"]["code"] == "resource_cap"


class TestVerify:
    def test_m3_all_pass(self, capsys):
        code, env = run_json(capsys, ["verify", "3"])
        assert code == 0
        assert env["payload"]["all_ok"]
        assert len(env["payload"]["classes"]) == 3

    def test_m4_orders(self, capsys):
        code, env = run_json(capsys, ["verify", "4"])
        assert code == 0
        orders = sorted(int(c["brute_force_order"]) for c in env["payload"]["classes"])
        assert orders == [8, 12, 32, 32, 384]

    def test_m_too_large_exit_2(self, capsys):
        code, env = run_json(capsys, ["verify", "6"])
        assert code == 2


class TestDoubleCosets:
    def test_m4_record(self, capsys):
        code, env = run_json(capsys, ["double-cosets", "4"])
        assert code == 0
        by_lambda = {c["lambda"]: c for c in env["payload"]["classes"]}
        rec = by_lambda["1^2 2^1"]
        assert rec["predicted_order"] == "32"
        assert rec["coset_size"] == "4608"
        assert rec["canonical"] == "(2 4)"

    def test_no_permutation_walk_for_the_representatives(self, capsys, monkeypatch):
        # the canonical text comes from the partition; the payload must not change
        expected = run_json(capsys, ["double-cosets", "12"])[1]["payload"]
        monkeypatch.setattr(perm, "disjoint_cycles", fail)
        monkeypatch.setattr(cosets, "canonical_rep", fail)
        monkeypatch.setattr(cli, "canonical_rep", fail)
        code, env = run_json(capsys, ["double-cosets", "12"])
        assert code == 0 and env["payload"] == expected

    def test_resource_cap_exit_4(self, capsys):
        code, env = run_json(capsys, ["double-cosets", "95"])
        assert code == 4
        assert env["error"]["code"] == "resource_cap"


class TestTable:
    def test_m2_rows_and_total(self, capsys):
        code, env = run_json(capsys, ["table", "2"])
        assert code == 0
        rows = {r["lambda"]: r["probability"] for r in env["payload"]["rows"]}
        assert rows == {"2^1": "2/3", "1^2": "1/3"}
        assert env["payload"]["total"] == "1/1"

    def test_csv_mode(self, capsys):
        code, out = run(capsys, ["table", "2", "--csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("lambda,")
        assert len(lines) == 3


class TestClassTableCaps:
    @pytest.mark.parametrize("command", ["table", "double-cosets"])
    @pytest.mark.parametrize("m", [cli.CLASS_TABLE_MAX_M + 1, 75])
    def test_m_above_cap_refused_before_enumerating(self, capsys, monkeypatch, tmp_path,
                                                     command, m):
        # refused before the first byte: exactly one error envelope and no row,
        # on stdout, in place of the CSV header, and in the --out file alone
        monkeypatch.setattr(cli, "iter_counts", fail)
        path = tmp_path / "out.json"
        for flags in ([], ["--csv"], ["--out", str(path)]):
            start = time.perf_counter()
            code, out = run(capsys, [command, str(m), *flags])
            assert time.perf_counter() - start < 1.0
            if flags and flags[0] == "--out":
                assert out == ""
                out = path.read_text()
            assert code == 4
            env = json.loads(out)  # raises on anything after the envelope
            assert out.endswith("}\n") and "payload" not in env
            assert env["error"]["code"] == "resource_cap"

    @pytest.mark.parametrize("command", ["table", "double-cosets"])
    def test_negative_m_exit_2(self, capsys, command):
        code, env = run_json(capsys, [command, "-1"])
        assert code == 2
        assert env["error"]["message"] == "m must be nonnegative"


class TestStreamedClassTables:
    """table and double-cosets write their rows as they are enumerated; the
    bytes must be those of the list-building oracles, ``elapsed_ms`` held at 0."""

    @pytest.fixture(autouse=True)
    def frozen_clock(self, monkeypatch):
        monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: 0.0))

    @pytest.mark.parametrize("command", ["table", "double-cosets"])
    @pytest.mark.parametrize("m", [*range(21), 30])  # p(20) = 627 and p(30) = 5604 rows
    def test_bytes_equal_the_oracle(self, capsys, tmp_path, command, m):
        expected = oracle_json(command, m)
        assert run(capsys, [command, str(m)]) == (0, expected)
        path = tmp_path / "out.json"
        assert run(capsys, [command, str(m), "--out", str(path)]) == (0, "")
        assert path.read_text() == expected
        assert run(capsys, [command, str(m), "--csv"]) == (0, oracle_csv(command, m))

    @pytest.mark.parametrize("command", ["table", "double-cosets"])
    @pytest.mark.parametrize("batch", [1, 2, 10, 11, 12])
    def test_batch_size_does_not_change_the_bytes(self, capsys, monkeypatch, command, batch):
        # p(6) = 11 rows: one row a batch, a short last batch, an exact fit, one batch
        monkeypatch.setattr(cli, "ROW_BATCH", batch)
        assert run(capsys, [command, "6"]) == (0, oracle_json(command, 6))
        assert run(capsys, [command, "6", "--csv"]) == (0, oracle_csv(command, 6))

    def test_reader_leaving_early_ends_quietly(self):
        # table 30 is 1.4 MB, far more than a pipe holds, so writing must go on
        # after the reader has gone
        src = pathlib.Path(cli.__file__).parents[1]
        proc = subprocess.Popen([sys.executable, "-m", "coset_ewens.cli", "table", "30"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.stdout.read(50).startswith(b'{"command": "table"')
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 1

    def test_memory_stays_flat(self, tmp_path):
        """double-cosets 40 (37 338 rows) to --out, traced by tracemalloc.

        Measured with CPython 3.11: ``oracle_double_cosets(40)`` holds 22.8 MiB
        traced, and 45.8 MiB at its peak once ``json.dumps`` adds the 11.5 MiB
        envelope; the streamed command peaks at 1.1 MiB.  The bound, 4 MiB, was
        set from the oracle alone, more than 5 times below its rows.
        """
        tracemalloc.start()
        try:
            assert main(["double-cosets", "40", "--out", str(tmp_path / "out.json")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestUnopenableOut:
    """--out is opened before the command runs: a path that cannot be opened
    gives one usage envelope on stdout and exit 2, before any work."""

    COMMANDS = (["table", "3"], ["sample", "10", "2", "100"])

    @pytest.mark.parametrize("argv", COMMANDS, ids=["table", "sample"])
    @pytest.mark.parametrize("target", ["missing/x.json", ""], ids=["missing-dir", "dir"])
    def test_one_usage_envelope_exit_2(self, tmp_path, argv, target):
        path = str(tmp_path / target)
        src = pathlib.Path(cli.__file__).parents[1]
        proc = subprocess.run([sys.executable, "-m", "coset_ewens.cli", *argv, "--out", path],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 2
        assert proc.stderr == ""
        env = json.loads(proc.stdout)  # raises on anything after the envelope
        assert proc.stdout.endswith("}\n") and "payload" not in env
        assert env["command"] == argv[0] and env["error"]["code"] == "usage"
        assert path in env["error"]["message"]

    def test_refused_before_the_work(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "iter_counts", fail)
        monkeypatch.setattr(cli, "good_probability_mc", fail)
        for argv in self.COMMANDS:
            code, env = run_json(capsys, [*argv, "--out", str(tmp_path / "missing" / "x.json")])
            assert code == 2 and env["error"]["code"] == "usage"


class TestSample:
    def test_reproducible_byte_identical(self, capsys):
        code1, env1 = run_json(capsys, ["sample", "200", "3", "5000", "--seed", "7"])
        code2, env2 = run_json(capsys, ["sample", "200", "3", "5000", "--seed", "7"])
        assert code1 == code2 == 0
        assert json.dumps(env1["payload"]) == json.dumps(env2["payload"])

    def test_csv_row(self, capsys):
        code, out = run(capsys, ["sample", "100", "2", "1000", "--seed", "3", "--csv"])
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "m,c,samples,frequency,wilson_radius_95,seed"
        assert row.split(",")[0] == "100"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(["sample", "50", "2", "100", "--seed", "1", "--out", str(path)])
        assert code == 0
        env = json.loads(path.read_text())
        assert env["status"] == "ok"

    def test_m_above_cap_exit_4(self, capsys):
        code, env = run_json(capsys, ["sample", str(10**7 + 1), "2", "10"])
        assert code == 4
        assert env["error"]["code"] == "resource_cap"
        assert "payload" not in env

    def test_m_at_cap(self, capsys):
        code, env = run_json(capsys, ["sample", str(10**7), "2", "10"])
        assert code == 0
        assert env["payload"]["m"] == 10**7

    def test_threads_flag_is_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "50", "2", "100", "--threads", "4"])
        assert exc.value.code == 2


class TestCommonFlags:
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    def test_seed_out_of_range_exit_2(self, capsys, seed):
        code, env = run_json(capsys, ["sample", "50", "2", "100", "--seed", str(seed)])
        assert code == 2
        assert env["error"]["code"] == "usage"
        assert "payload" not in env

    def test_largest_seed_accepted(self, capsys):
        code, env = run_json(capsys, ["sample", "50", "2", "100", "--seed", str(2**64 - 1)])
        assert code == 0

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["sample", "50", "{}", "100"],
        ["tails", "100", "{}"],
        ["tails", "100", "2", "--beta", "{}"],
        ["tails", "100", "2", "--t", "{}"],
        ["series", "{}", "3"],
        ["asymptotics", "{}", "--m-list", "50"],
    ])
    def test_non_finite_float_exit_2(self, capsys, argv, value):
        with pytest.raises(SystemExit) as exc:
            main([a.format(value) for a in argv])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("e_form, plain, argv", [
        ("-1e0", "-1", ["sample", "50", "{}", "100"]),
        ("-1e3", "-1000", ["tails", "100", "{}", "--alpha-points", "4"]),
        ("-2.5E-1", "-0.25", ["series", "{}", "8"]),
        ("-.2e1", "-2", ["asymptotics", "{}", "--m-list", "50"]),
    ])
    def test_negative_e_notation_positional(self, capsys, e_form, plain, argv):
        code, env = run_json(capsys, [a.format(e_form) for a in argv])
        code_plain, env_plain = run_json(capsys, [a.format(plain) for a in argv])
        assert env["parameters"] == env_plain["parameters"]
        assert (code, env.get("payload"), env.get("error")) == \
            (code_plain, env_plain.get("payload"), env_plain.get("error"))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_alpha_grid_exit_2(self, capsys, value):
        code, env = run_json(capsys, ["tails", "100", "2", "--alpha-grid", f"1,{value}"])
        assert code == 2
        assert env["error"]["code"] == "usage"


class TestTails:
    def test_left_bound_below_one_with_argmin(self, capsys):
        code, env = run_json(capsys, ["tails", "100", "2", "--alpha-points", "24"])
        assert code == 0
        left = env["payload"]["left"]
        assert left["bound"] < 1.0
        assert any(a == left["alpha_argmin"] for a, _ in left["grid"])
        assert 0.0 < env["payload"]["right"]["beta"] < 1.0

    def test_m_above_series_cap_exit_4(self, capsys):
        code, env = run_json(capsys, ["tails", "20001", "2"])
        assert code == 4
        assert env["error"]["code"] == "resource_cap"

    def test_alpha_points_above_cap_exit_4_before_allocating(self, capsys, monkeypatch):
        monkeypatch.setattr(series.np, "geomspace", fail)
        start = time.perf_counter()
        code, env = run_json(capsys, ["tails", "3", "2", "--alpha-points", "10000000000000"])
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert env["error"]["code"] == "resource_cap"

    def test_prefactor_overflow_exit_5_before_any_kernel(self, capsys):
        start = time.perf_counter()
        code, env = run_json(capsys, ["tails", "1000", "100"])
        assert time.perf_counter() - start < 1.0
        assert code == 5
        assert env["error"]["code"] == "numeric_range"
        assert "payload" not in env

    def test_bound_overflow_after_kernel_exit_5(self, capsys):
        code, env = run_json(capsys, ["tails", "100", "-154", "--beta", "0.01"])
        assert code == 5
        assert env["error"]["code"] == "numeric_range"


class TestSeriesCommand:
    def test_exact_coefficients(self, capsys):
        code, env = run_json(capsys, ["series", "0", "6"])
        assert code == 0
        assert env["payload"]["exact"]
        assert env["payload"]["coefficients"] == \
            ["1/1", "1/1", "2/1", "3/1", "5/1", "7/1"][:6] + ["11/1"]

    def test_float_mode_csv(self, capsys):
        code, out = run(capsys, ["series", "0.5", "4", "--csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,coefficient"
        assert len(lines) == 6

    def test_cap_exit_4(self, capsys):
        code, env = run_json(capsys, ["series", "1.0", "30000"])
        assert code == 4

    def test_huge_integral_beta_cap_exit_4(self, capsys):
        code, env = run_json(capsys, ["series", "1e300", "5"])
        assert code == 4
        assert env["error"]["code"] == "resource_cap"

    @pytest.mark.parametrize("argv", [
        ["series", "-3", "300"],        # a coefficient (j!)^3 8^j of I_beta overflows math.exp
        ["series", "-0.0486", "2000"],  # every coefficient is finite, the log-series is not
    ])
    def test_negative_beta_overflow_exit_5(self, capsys, argv):
        code, env = run_json(capsys, argv)
        assert code == 5
        assert env["error"]["code"] == "numeric_range"
        assert "payload" not in env


class TestAsymptotics:
    def test_rows(self, capsys):
        code, env = run_json(capsys, ["asymptotics", "2.0", "--m-list", "50,200"])
        assert code == 0
        pay = env["payload"]
        assert pay["product_error_bound"] < 1e-10
        assert len(pay["rows"]) == 2
        assert pay["rows"][1]["relative_deviation"] < pay["rows"][0]["relative_deviation"]

    def test_product_summed_once(self, capsys):
        # the rows' limit and product_at_one come from one W_at_one sum
        series.W_at_one.cache_clear()
        code, env = run_json(capsys, ["asymptotics", "1.7", "--m-list", "50,200"])
        assert code == 0
        assert series.W_at_one.cache_info().misses == 1
        pay = env["payload"]
        assert pay["limit"] == pay["product_at_one"] / 2.0**1.7

    def test_near_one_is_certified(self, capsys):
        code, env = run_json(capsys, ["asymptotics", "1.05", "--m-list", "50,200"])
        assert code == 0
        pay = env["payload"]
        assert pay["product_error_bound"] < 1e-11 * pay["product_at_one"]

    def test_product_overflow_is_numeric_range(self, capsys):
        code, env = run_json(capsys, ["asymptotics", "1.0001", "--m-list", "50"])
        assert code == 5
        assert env["error"]["code"] == "numeric_range"
        assert "payload" not in env

    @pytest.mark.parametrize("argv", [["--m-list=-1,5"], ["--m-list", "0"]])
    def test_m_below_one_is_usage(self, capsys, argv):
        code, env = run_json(capsys, ["asymptotics", "2.0", *argv])
        assert code == 2
        assert env["status"] == "error"
        assert env["error"]["code"] == "usage"
        assert "payload" not in env


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), st.floats()).map(repr)
_ALPHA_GRIDS = st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                        min_size=1, max_size=70).map(lambda xs: ",".join(map(repr, xs)))
_ARGV = st.one_of(
    st.tuples(st.just("sample"), _ints(-2, 60), _FLOATS, _ints(-1, 200)),
    st.tuples(st.just("tails"), _ints(-2, 60), _FLOATS, st.just("--alpha-points"),
              _ints(-1, 8), st.sampled_from(["--beta", "--t"]), _FLOATS),
    st.tuples(st.just("tails"), _ints(-2, 300), st.one_of(_FLOATS, st.floats(-4, 4).map(repr)),
              st.just("--alpha-grid"), _ALPHA_GRIDS),
    st.tuples(st.just("series"), _FLOATS, _ints(-1, 60)),
)


@settings(max_examples=200, deadline=None)
@given(_ARGV)
def test_any_argv_ends_in_strict_json_or_usage_exit(argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    except SystemExit as exc:  # argparse rejected the argv
        assert exc.code == 2
        return
    assert code in (0, 2, 3, 4, 5)
    json.loads(out.getvalue(), parse_constant=_reject_constant)
