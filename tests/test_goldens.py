"""Byte-for-byte goldens for truncated projectors and their u-maps.

The files under tests/goldens/ were written by the engine before the
simplifier carried its retract by local updates; the complexes and the
transported u-maps must not change.  Regenerate (only when a change is meant
to alter these outputs) with

    PYTHONPATH=src python tests/test_goldens.py
"""

import json
from pathlib import Path

import pytest

from catsl2.cli import main
from catsl2.projectors import truncated_pn

GOLDENS = Path(__file__).parent / "goldens"
CLI_CASES = {"pn3_w4.json": ["proj", "pn", "--n", "3", "--window", "4"],
             "pn2_w12.json": ["proj", "pn", "--n", "2", "--window", "12"]}
UMAP_CASES = {"umaps_p2_w12.json": (2, 12), "umaps_p3_w2.json": (3, 2),
              "umaps_p3_w4.json": (3, 4)}


def chain_map_json(f) -> dict:
    return {"dh": f.dh, "dq": f.dq,
            "components": [{"h": h, "row": i, "col": j, "morphism": m.to_json()}
                           for h, entries in sorted(f.components.items())
                           for (i, j), m in sorted(entries.items())]}


def umaps_text(n: int, window: int) -> str:
    proj = truncated_pn(n, window)
    payload = {"n": n, "window": window, "unit": chain_map_json(proj.unit),
               "u_maps": {str(k): chain_map_json(u)
                          for k, u in sorted(proj.u_maps.items())}}
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_projector_golden(name, capsys):
    assert main(CLI_CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDENS / name).read_text()


@pytest.mark.parametrize("name", sorted(UMAP_CASES))
def test_umap_golden(name):
    assert umaps_text(*UMAP_CASES[name]) == (GOLDENS / name).read_text()


if __name__ == "__main__":
    import contextlib
    import io
    for name, argv in CLI_CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        (GOLDENS / name).write_text(buf.getvalue())
    for name, args in UMAP_CASES.items():
        (GOLDENS / name).write_text(umaps_text(*args))
