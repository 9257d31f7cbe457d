"""README's "Public API" list names exactly what ``coset_ewens`` exports,
so a new name cannot reach the surface undocumented and a removed one
cannot linger in the list."""
import inspect
import re
from pathlib import Path

import coset_ewens

README = Path(__file__).resolve().parent.parent / "README.md"


def public_names():
    return {name for name, value in vars(coset_ewens).items()
            if not name.startswith("_") and not inspect.ismodule(value)}


def listed_names():
    """The backticked names before the dash of each item of the section."""
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    names = set()
    for item in re.split(r"\n- ", section)[1:]:
        names.update(re.findall(r"`(\w+)`", item.split(" — ", 1)[0]))
    return names


def test_readme_lists_every_export():
    assert listed_names() == public_names()

