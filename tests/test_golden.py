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

from coset_ewens.cli import main

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


def payload_digest(command: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(command))
    assert code == 0, out.getvalue()
    payload = json.loads(out.getvalue())["payload"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("command", COMMANDS)
def test_payload_digest(command):
    assert payload_digest(command) == json.loads(GOLDEN.read_text())[command]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: payload_digest(c) for c in COMMANDS}, indent=2) + "\n")
