"""Every name the traced bench run wraps is still a wavestring callable.

`bench/run.py --trace 1` wraps each `module.attr` listed in SPANNED and
COUNTED of bench/spans.py; a name that no longer exists breaks that run.
The file is read with ast, not imported, so nothing is written under bench/.
A name that exists but is never called reads 0 in the trace; a waves run
holds the inverse-Laplace span live here, and an analyze run the norm
refinement's hinf_estimate.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

from conftest import record_calls

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


DEN = [0, 0, 1, 1 / 3]
FRONT = {"num": [4 / 3, 4 / 3], "den": DEN}


def run_cli(tmp_path, command, cfg):
    from wavestring import cli

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])


def test_inverse_laplace_span_is_live(tmp_path, monkeypatch):
    # The bench wraps waveresponse.inverse_laplace under every name bound to
    # it and counts waveresponse.spectrum_samples from args[1].samples, so a
    # waves run must call it twice (a_n and b_n), with cfg second and
    # positional.
    from wavestring import waveresponse

    calls = record_calls(monkeypatch, waveresponse, "inverse_laplace")
    cfg = {
        "dynamics": {"mf": FRONT, "mr": {"num": [4 / 3, 2.5 / 3], "den": DEN}},
        "topology": {"kind": "path", "n": 6},
        "sim": {"t_final": 5.0, "dt": 0.01},
        "waves": {"agent": 3, "t_final": 5.0, "samples": 1024},
    }
    assert run_cli(tmp_path, "waves", cfg) == 0
    assert len(calls) == 2
    assert all(len(args) == 2 and args[1].samples == 1024 for args in calls)


def test_hinf_estimate_span_is_live(tmp_path, monkeypatch):
    # The bench reads stability.hinf_calls and hinf_estimate_s: a verdict
    # must refine each of its two norm peaks through hinf_estimate, also
    # when g_plus and g_minus share one refinement grid (gain-asym, h = 0).
    from wavestring import stability

    calls = record_calls(monkeypatch, stability, "hinf_estimate")
    cfg = {
        "dynamics": {"mf": FRONT, "mr": {"num": [c * 2.5 / 4 for c in FRONT["num"]],
                                         "den": DEN}},
        "topology": {"kind": "path", "n": 6},
    }
    assert run_cli(tmp_path, "analyze", cfg) == 0
    assert len(calls) == 2
