"""Every name the traced bench run wraps is still a wavestring callable.

`bench/run.py --trace 1` wraps each `module.attr` listed in SPANNED and
COUNTED of bench/spans.py; a name that no longer exists breaks that run.
The file is read with ast, not imported, so nothing is written under bench/.
A name that exists but is never called reads 0 in the trace; the spectral
spans are held live by a waves run here.
"""

import ast
import importlib
import json
import pkgutil
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


def test_inverse_laplace_span_is_live(tmp_path, monkeypatch):
    # The bench wraps waveresponse.inverse_laplace under every name bound to
    # it and counts waveresponse.spectrum_samples from args[1].samples, so a
    # waves run must call it twice (a_n and b_n), with cfg second and
    # positional.
    import wavestring
    from wavestring import cli, waveresponse

    original, calls = waveresponse.inverse_laplace, []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for info in pkgutil.iter_modules(wavestring.__path__):
        module = importlib.import_module(f"wavestring.{info.name}")
        if getattr(module, "inverse_laplace", None) is original:
            monkeypatch.setattr(module, "inverse_laplace", wrapper)
    den = [0, 0, 1, 1 / 3]
    cfg = {
        "dynamics": {"mf": {"num": [4 / 3, 4 / 3], "den": den},
                     "mr": {"num": [4 / 3, 2.5 / 3], "den": den}},
        "topology": {"kind": "path", "n": 6},
        "sim": {"t_final": 5.0, "dt": 0.01},
        "waves": {"agent": 3, "t_final": 5.0, "samples": 1024},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["waves", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 2
    assert all(len(args) == 2 and args[1].samples == 1024 for args in calls)
