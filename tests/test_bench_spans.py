"""Every name the traced bench run wraps is still a wavestring callable.

`bench/run.py --trace 1` wraps each `module.attr` listed in SPANNED and
COUNTED of bench/spans.py; a name that no longer exists breaks that run.
The file is read with ast, not imported, so nothing is written under bench/.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def traced_names() -> dict[str, tuple[str, ...]]:
    """SPANNED and COUNTED as written in bench/spans.py."""
    found = {}
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED"):
                    found[target.id] = ast.literal_eval(node.value)
    return found


def test_both_lists_are_read():
    names = traced_names()
    assert set(names) == {"SPANNED", "COUNTED"}
    assert all(names.values())


@pytest.mark.parametrize("name", [n for names in traced_names().values() for n in names])
def test_traced_name_is_a_callable(name):
    module, attr = name.split(".")
    assert callable(getattr(importlib.import_module(f"wavestring.{module}"), attr, None))
