"""Golden payloads: the sha256 of each command's payload, serialized as
``json.dumps(payload, sort_keys=True)``, must match the digest recorded in
``golden_payloads.json``.  A refactor that changes any payload byte fails
here.  The three ``sample`` commands cover the float hit test, the
exact-integer guard band (c = 5/4) and the Decimal guard band (c a float
that is not a small-denominator rational).

Re-record (only for a deliberate payload change):
``PYTHONPATH=src python tests/test_golden.py``
"""
import contextlib
import hashlib
import io
import json
import pathlib
import shlex

import pytest

from coset_ewens.cli import build_parser, main

GOLDEN = pathlib.Path(__file__).with_name("golden_payloads.json")
COMMANDS = [
    "sample 1000 3 10000 --seed 7",
    "sample 16 1.25 20000 --seed 3",
    "sample 8 1.3333333333333333 5000 --seed 5",
    "table 6",
    "double-cosets 6",
    "table 20",
    "double-cosets 20",
    "verify 3",
    "series 1 30",
    "series 1.5 200",
    "tails 100 2 --alpha-points 8",
    "asymptotics 2.0 --m-list 50,200",
    "classify [3,5,1,6,2,4,8,7] 4",
    "verify 4",
    "tails 1000 2",
    'classify "(1 3 5)(2 8)(10 12 14 16)" 1000',
    "double-cosets 0",
    "verify 5",
]


def envelope_digest(text: str) -> str:
    payload = json.loads(text)["payload"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def payload_digest(command: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(command))
    assert code == 0, out.getvalue()
    return envelope_digest(out.getvalue())


@pytest.mark.parametrize("command", COMMANDS)
def test_payload_digest(command):
    assert payload_digest(command) == json.loads(GOLDEN.read_text())[command]


def test_shared_parser_keeps_every_digest(tmp_path, capsys):
    """``main`` reuses one parser per process: a usage error and an --out
    run between two passes over the command set change no digest."""
    assert build_parser() is build_parser()
    golden = json.loads(GOLDEN.read_text())
    assert {c: payload_digest(c) for c in COMMANDS} == golden
    with pytest.raises(SystemExit) as info:
        main(shlex.split("sample 50 2 100 --threads 4"))
    assert info.value.code == 2 and "--threads" in capsys.readouterr().err
    out = tmp_path / "verify.json"
    assert main(["verify", "3", "--out", str(out)]) == 0
    assert envelope_digest(out.read_text()) == golden["verify 3"]
    assert {c: payload_digest(c) for c in COMMANDS} == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: payload_digest(c) for c in COMMANDS}, indent=2) + "\n")
