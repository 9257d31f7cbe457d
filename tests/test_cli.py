import argparse
import collections
import contextlib
import io
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coset_ewens import cli, cosets, perm, series
from coset_ewens.cli import main
from coset_ewens.cosets import canonical_cycles, canonical_rep, partition_of
from coset_ewens.partitions import enumerate_partitions
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


def partitions_desc(m, most=None):
    """Every partition of ``m`` into parts ``<= most`` as a descending part
    list, in reverse-lexicographic order ({m} first, {1^m} last): plain
    recursion on the largest part, independent of the ZS1 enumerator."""
    if m == 0:
        yield []
        return
    for p in range(min(m, m if most is None else most), 0, -1):
        for rest in partitions_desc(m - p, p):
            yield [p, *rest]


def oracle_classes(m):
    """``(lambda text, f, canonical cycle text)`` of each class of ``m``, from
    its part list alone: f = prod (2i)^{r_i} r_i!, and the parts in descending
    order on consecutive blocks from block 1, part k on blocks j..j+k-1 as the
    even cycle (2j 2j+2 ... 2j+2k-2), as in ``canonical_cycle_oracle``."""
    for parts in partitions_desc(m):
        mult = collections.Counter(parts)
        lam = " ".join(f"{p}^{mult[p]}" for p in sorted(mult))
        f = math.prod((2 * p) ** r * math.factorial(r) for p, r in mult.items())
        cycles, j = "", 1
        for p in parts:
            if p > 1:
                cycles += "(" + " ".join(str(2 * (j + t)) for t in range(p)) + ")"
            j += p
        yield lam, f, cycles or "()"


def oracle_double_cosets(m):
    """The list-building payload of ``double-cosets m``: every row is held
    before anything is written, as the command did before it streamed."""
    h_order = 2**m * math.factorial(m)
    classes = [{"lambda": lam, "predicted_order": str(f),
                "coset_size": str(h_order * h_order // f), "canonical": cycles}
               for lam, f, cycles in oracle_classes(m)]
    return {"m": m, "classes": classes}


def oracle_table(m):
    """The list-building payload of ``table m``, ``total`` summed over the held rows."""
    h_order = 2**m * math.factorial(m)
    fact_2m = math.factorial(2 * m)
    rows = []
    mass = 0
    for lam, f, _ in oracle_classes(m):
        size = h_order * h_order // f
        prob = Fraction(size, fact_2m)
        mass += size
        rows.append({
            "lambda": lam,
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
    env = {"command": command, "parameters": {"m": m}, "status": "ok",
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

    @pytest.mark.parametrize("text", [
        "[" + ",".join(map(str, range(1, 20_001))),
        "(" + " ".join(map(str, range(1, 20_001))) + ") extra",
    ])
    def test_bad_text_message_stays_short(self, capsys, text):
        code, env = run_json(capsys, ["classify", text, "10000"])
        assert code == 2 and env["error"]["code"] == "usage"
        assert len(env["error"]["message"]) < 200

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

    def test_m_too_large_exit_4(self, capsys):
        code, env = run_json(capsys, ["verify", "6"])
        assert code == 4
        assert env["error"] == {"code": "resource_cap", "message": "verify limited to m <= 5"}

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_m_below_one_exit_2_one_message(self, capsys, m):
        # checked before the classes are listed, so -1 is not refused as a weight
        code, env = run_json(capsys, ["verify", m])
        assert code == 2
        assert env["error"]["message"] == "m must be >= 1"


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

    @pytest.mark.parametrize("m", range(15))
    def test_one_placement(self, capsys, m):
        # the rows carry their text on the enumeration stack; it must be the
        # text of canonical_cycles, which canonical_rep parses back into lam
        code, env = run_json(capsys, ["double-cosets", str(m)])
        assert code == 0
        lams = enumerate_partitions(m)
        assert len(env["payload"]["classes"]) == len(lams)
        for row, lam in zip(env["payload"]["classes"], lams):
            assert row["lambda"] == str(lam)
            assert row["canonical"] == canonical_cycles(lam.counts, m)
            if m:  # partition_of needs a degree 2m >= 2
                assert partition_of(canonical_rep(lam, m), m) == lam

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
        monkeypatch.setattr(cli, "_class_rows", fail)
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
    # p(20) = 627, p(30) = 5604 and p(35) = 14 883 rows; 35 is the benchmark's size
    @pytest.mark.parametrize("m", [*range(21), 30, 35])
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


class TestRowTemplate:
    """The class tables are written from one %-template a table: a float by
    repr, a text unescaped, so every text must need no JSON escaping."""

    @pytest.mark.parametrize("x", [0.0, 5e-324, 0.1, 1 / 3, 2.5e-300, 1.0])
    def test_float_field_equals_json_dumps(self, x):
        table = cli._Table(("lambda", "probability_float"), iter([("1^1", x)]))
        assert "".join(cli._json_table(table)) == json.dumps([{"lambda": "1^1",
                                                                "probability_float": x}])

    @pytest.mark.parametrize("command", [cli.cmd_table, cli.cmd_double_cosets])
    @pytest.mark.parametrize("m", range(13))
    def test_every_text_needs_no_escaping(self, command, m):
        payload = command(SimpleNamespace(m=m))
        table = payload["rows"] if command is cli.cmd_table else payload["classes"]
        rows = list(table.rows)
        assert len(rows) == len(enumerate_partitions(m))
        texts = [v for row in rows for v in row if not isinstance(v, float)]
        assert all(isinstance(t, str) and re.fullmatch(r"[0-9^ ()/]*", t) for t in texts)

    @pytest.mark.parametrize("command, key", [("table", "rows"), ("double-cosets", "classes")])
    def test_m0_is_one_row_with_no_leading_separator(self, capsys, command, key):
        code, out = run(capsys, [command, "0"])
        assert code == 0
        assert f'"{key}": [{{"lambda": "", ' in out
        assert len(json.loads(out)["payload"][key]) == 1


def oracle_small_csv(command, payload):
    """CSV of the four one-shot commands from their JSON payload, by the rule
    of the writer the row template replaced: a float as ``.17g``, else str."""
    if command == "sample":
        fields = ["m", "c", "samples", "hits", "frequency", "wilson_radius_95", "seed"]
        rows = [[payload[f] for f in fields]]
    elif command == "series":
        fields, rows = ["m", "coefficient"], list(enumerate(payload["coefficients"]))
    elif command == "asymptotics":
        fields = ["m", "scaled", "limit", "relative_deviation"]
        rows = [[r["m"], r["scaled"], payload["limit"], r["relative_deviation"]]
                for r in payload["rows"]]
    else:
        fields, rows = ["alpha", "left_bound"], payload["left"]["grid"]
    lines = [",".join(fields)] + [",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                                           for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv", [
    ["sample", "100", "2", "1000", "--seed", "3"],
    ["series", "1", "30"],
    ["series", "1.5", "40"],
    ["asymptotics", "2.0", "--m-list", "50,200"],
    ["asymptotics", "1.2", "--m-list", "1,7,1000"],
    ["tails", "100", "2", "--alpha-points", "8"],
    ["tails", "1000", "2", "--alpha-grid", "0.25,1e-3,3"],
])
def test_small_command_csv_bytes_equal_the_oracle(capsys, argv):
    code, env = run_json(capsys, argv)
    assert code == 0
    assert run(capsys, [*argv, "--csv"]) == (0, oracle_small_csv(argv[0], env["payload"]))


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
        monkeypatch.setattr(cli, "_class_rows", fail)
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
        assert header == "m,c,samples,hits,frequency,wilson_radius_95,seed"
        assert row.split(",")[:4] == ["100", "2", "1000", "393"]

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
        code, env = run_json(capsys, ["sample", "50", "2", "100", "--threads", "4"])
        assert code == 2
        assert env["error"] == {"code": "usage",
                                "message": "coset-ewens sample: unrecognized arguments: --threads 4"}


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
        code, out = run(capsys, [a.format(value) for a in argv])
        env = json.loads(out)
        assert code == 2 and env["status"] == "error" and env["error"]["code"] == "usage"
        assert f"expected a finite number, got '{value}'" in env["error"]["message"]
        assert capsys.readouterr().err == ""

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


class TestFlagsWhereTheyAct:
    """Each option exists only on the commands where it acts, and no option
    silently beats another."""

    def test_flag_table(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {name: sorted(o for a in p._actions for o in a.option_strings
                              if o not in ("-h", "--help"))
                 for name, p in sub.choices.items()}
        assert flags == {
            "classify": ["--out"],
            "verify": ["--out"],
            "double-cosets": ["--csv", "--out"],
            "table": ["--csv", "--out"],
            "sample": ["--csv", "--out", "--seed"],
            "tails": ["--alpha-grid", "--alpha-points", "--beta", "--csv", "--out", "--t"],
            "series": ["--csv", "--out"],
            "asymptotics": ["--csv", "--m-list", "--out"],
        }
        assert sum(map(len, flags.values())) == 20
        tails = sub.choices["tails"]
        assert [[a.dest for a in g._group_actions] for g in tails._mutually_exclusive_groups] \
            == [["alpha_grid", "alpha_points"], ["beta", "t"]]
        # a default other than None would let argparse pass "--alpha-grid 1 --alpha-points 64"
        assert all(a.default is None for g in tails._mutually_exclusive_groups
                   for a in g._group_actions)

    @pytest.mark.parametrize("argv", [
        ["table", "3", "--seed", "9"],
        ["verify", "2", "--csv"],
        ["classify", "()", "2", "--csv"],
        ["classify", "()", "2", "--seed", "1"],
        ["tails", "5", "2", "--alpha-grid", "1", "--alpha-points", "64"],
        ["tails", "50", "2", "--beta", "0.5", "--t", "3"],
        ["tails", "50", "2", "--t", "1", "--beta", "0.5"],
    ])
    def test_flag_where_it_does_not_act_exit_2(self, capsys, argv):
        code, out = run(capsys, argv)
        assert code == 2 and capsys.readouterr().err == ""
        # one usage envelope on stdout, naming the command and echoing no parameters
        env = json.loads(out)
        assert (env["command"], env["parameters"], env["status"], env["error"]["code"]) \
            == (argv[0], {}, "error", "usage")
        assert list(env) == ["command", "parameters", "status", "error", "elapsed_ms"]

    @pytest.mark.parametrize("argv, message", [
        ([], "coset-ewens: the following arguments are required: command"),
        (["frob"], "coset-ewens: argument command: invalid choice: 'frob'"),
        (["table"], "coset-ewens table: the following arguments are required: m"),
        (["table", "x"], "coset-ewens table: argument m: invalid int value: 'x'"),
        (["table", "3", "--seed", "9"], "coset-ewens table: unrecognized arguments: --seed 9"),
        (["table", "3", "--out"], "coset-ewens table: argument --out: expected one argument"),
    ])
    def test_argparse_refusal_is_one_usage_envelope(self, capsys, argv, message):
        code, out = run(capsys, argv)
        env = json.loads(out)
        assert code == 2 and env["error"]["code"] == "usage"
        assert env["error"]["message"].startswith(message)
        assert env["command"] == (argv[0] if argv[:1] == ["table"] else None)

    @pytest.mark.parametrize("argv, stray", [
        (["classify", "()", "2"], "--seed 1"),
        (["verify", "2"], "--csv"),
        (["double-cosets", "3"], "--seed 9"),
        (["table", "3"], "--alpha-points 4"),
        (["sample", "10", "2", "100"], "--m-list 5"),
        (["tails", "5", "2"], "--seed 1"),
        (["series", "1", "3"], "--t 1"),
        (["asymptotics", "1.2", "--m-list", "5"], "--beta 0.5"),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_misplaced_option_refused_by_its_command(self, capsys, argv, stray):
        # another command's option: the command's own parser refuses it, so the
        # message names the command, as a bad value's message does
        code, env = run_json(capsys, argv + stray.split())
        assert code == 2 and env["command"] == argv[0] and "payload" not in env
        assert env["error"] == {"code": "usage",
                                "message": f"coset-ewens {argv[0]}: unrecognized arguments: {stray}"}

    def test_refused_argv_answers_on_stdout_not_out(self, capsys, tmp_path):
        # --out is not read from an argv that argparse refuses
        path = tmp_path / "out.json"
        code, out = run(capsys, ["table", "3", "--seed", "9", "--out", str(path)])
        assert code == 2 and json.loads(out)["status"] == "error" and not path.exists()

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: coset-ewens table")

    @pytest.mark.parametrize("argv", [
        ["tails", "5", "2", "--alpha-grid", ""],
        ["tails", "5", "2", "--alpha-grid", "1,,2"],
        ["tails", "5", "2", "--alpha-grid", "1, "],
        ["asymptotics", "1.2", "--m-list", ""],
        ["asymptotics", "1.2", "--m-list", "1,,2"],
        ["asymptotics", "1.2", "--m-list", ",5"],
    ])
    def test_empty_list_or_entry_exit_2(self, capsys, argv):
        code, env = run_json(capsys, argv)
        assert code == 2
        assert env["error"] == {"code": "usage",
                                "message": f"{argv[-2]} must be comma-separated "
                                           f"{'floats' if argv[0] == 'tails' else 'ints'}, "
                                           "none empty"}

    @pytest.mark.parametrize("argv, params", [
        (["table", "3"], {"m": 3}),
        (["sample", "10", "2", "100"], {"m": 10, "c": 2.0, "samples": 100, "seed": 0}),
        (["tails", "100", "2"], {"m": 100, "c": 2.0}),
        (["tails", "100", "2", "--alpha-points", "8", "--t", "2"],
         {"m": 100, "c": 2.0, "alpha_points": 8, "t": 2.0}),
        (["tails", "100", "2", "--alpha-grid", "0.5,1", "--beta", "0.5"],
         {"m": 100, "c": 2.0, "alpha_grid": "0.5,1", "beta": 0.5}),
    ])
    def test_parameters_echo_only_what_took_effect(self, capsys, argv, params):
        code, env = run_json(capsys, argv)
        assert code == 0 and env["parameters"] == params

    def test_default_grid_and_t_are_the_libraries(self, capsys):
        # leaving both options of a pair out gives the same payload as the library's defaults
        code, env = run_json(capsys, ["tails", "100", "2"])
        code_given, env_given = run_json(capsys, ["tails", "100", "2", "--alpha-points", "64",
                                                  "--t", "1"])
        assert code == code_given == 0 and env["payload"] == env_given["payload"]
        assert len(env["payload"]["left"]["grid"]) == 64


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

    def test_right_beta_refused_before_the_left_grid_runs(self, capsys, monkeypatch):
        # t = 1e-320 gives beta = 1.0, outside (0, 1)
        monkeypatch.setattr(series, "_float_product", fail)
        code, env = run_json(capsys, ["tails", "100", "2", "--t", "1e-320"])
        assert code == 2
        assert env["error"]["code"] == "usage" and "beta=1.0" in env["error"]["message"]


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

    def test_exact_integers_past_int_digit_limit(self, capsys):
        # beta * M = 3200, at the exact cap: the last denominator has about 5000 digits
        code, env = run_json(capsys, ["series", "64", "50"])
        assert code == 0 and env["payload"]["exact"]
        texts = env["payload"]["coefficients"]
        assert max(len(t) for t in texts) > 4300
        parsed = [Fraction(*(int(Decimal(d)) for d in t.split("/"))) for t in texts]
        assert parsed == series._exact_coeffs(64, 50)

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

    @pytest.mark.parametrize("argv", [
        ["800", "--m-list", "5"],     # 5^800
        ["1025", "--m-list", "1"],    # 2^1025
        ["1e308", "--m-list", "5"],   # both
    ])
    def test_power_overflow_is_numeric_range(self, capsys, argv):
        code, env = run_json(capsys, ["asymptotics", *argv])
        assert code == 5
        assert env["error"]["code"] == "numeric_range"
        assert "payload" not in env

    @pytest.mark.parametrize("argv", [["--m-list=-1,5"], ["--m-list", "0"]])
    def test_m_below_one_is_usage(self, capsys, argv):
        code, env = run_json(capsys, ["asymptotics", "2.0", *argv])
        assert code == 2
        assert env["status"] == "error"
        assert env["error"]["code"] == "usage"
        assert env["error"]["message"] == "m must be >= 1"
        assert "payload" not in env


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), st.floats()).map(repr)
_ALPHA_GRIDS = st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                        min_size=1, max_size=70).map(lambda xs: ",".join(map(repr, xs)))
# valid lists, and lists with empty, padded, negative and non-integer entries
_M_LISTS = st.one_of(
    st.lists(_ints(1, 300), min_size=1, max_size=4).map(",".join),
    st.lists(st.sampled_from(["", " ", "1", "50", " 3", "-1", "0", "1.5"]),
             min_size=1, max_size=4).map(",".join))
_PERMS = st.one_of(st.sampled_from(["()", "(1 3)", "(1 2)(3 4)", "[3,4,1,2]", "(1 99)", "[1,1]"]),
                   st.text("()[], 0123456789", max_size=16))
_PAIRS = st.sampled_from([[], ["--alpha-grid", "1,2", "--alpha-points", "4"],
                          ["--beta", "0.5", "--t", "1"]])
_ARGV = st.one_of(
    st.tuples(st.just("classify"), _PERMS, _ints(-1, 8)),
    st.tuples(st.just("verify"), st.sampled_from(["-1", "0", "1", "2", "3", "4", "6"])),
    st.tuples(st.sampled_from(["table", "double-cosets"]),
              st.one_of(_ints(-2, 12), st.just(str(cli.CLASS_TABLE_MAX_M + 1)))),
    st.tuples(st.just("sample"), _ints(-2, 60), _FLOATS, _ints(-1, 200)),
    st.tuples(st.just("tails"), _ints(-2, 60), _FLOATS, st.just("--alpha-points"),
              _ints(-1, 8), st.sampled_from(["--beta", "--t"]), _FLOATS),
    st.tuples(st.just("tails"), _ints(-2, 300), st.one_of(_FLOATS, st.floats(-4, 4).map(repr)),
              st.just("--alpha-grid"), _ALPHA_GRIDS),
    st.tuples(st.just("tails"), _ints(3, 60), st.just("2"), _PAIRS),
    st.tuples(st.just("series"), _FLOATS, _ints(-1, 60)),
    st.tuples(st.just("asymptotics"), st.one_of(_FLOATS, st.floats(1, 3).map(repr)),
              st.just("--m-list"), _M_LISTS),
)
# every option on every command, so that each command also meets the ones it lacks
_FLAGS = st.lists(st.sampled_from([("--csv",), ("--out",), ("--seed", "3")]), max_size=2, unique=True)


def _is_csv(text):
    lines = text.split("\n")
    return text.endswith("\n") and len({line.count(",") for line in lines[:-1]}) == 1


@settings(max_examples=300, deadline=None)
@given(_ARGV, _FLAGS)
def test_any_argv_ends_in_strict_json_or_usage_exit(tmp_path_factory, argv, flags):
    argv = [a for arg in argv for a in ([arg] if isinstance(arg, str) else arg)]
    path = tmp_path_factory.getbasetemp() / "argv_out.txt"
    for flag in flags:
        argv += [*flag, str(path)] if flag == ("--out",) else flag
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # argparse's refusals too: no SystemExit
    assert code in (0, 2, 3, 4, 5) and err.getvalue() == ""
    text = out.getvalue()
    # an argv that argparse refuses is answered on stdout: its --out was never read
    refused = code == 2 and text != "" and json.loads(text)["parameters"] == {}
    if ("--out",) in flags and not refused:
        assert text == ""
        text = path.read_text()
    if ("--csv",) in flags and code == 0:
        assert _is_csv(text), text[:200]
    else:
        # one envelope: raises on anything after it
        env = json.loads(text, parse_constant=_reject_constant)
        assert env["command"] == argv[0] and (code == 0) == (env["status"] == "ok")
