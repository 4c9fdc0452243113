"""Byte-for-byte goldens for `catsl2 homology FILE --field f2`.

The file tests/goldens/homology_f2.json was written while HOM complexes were
still dense integer matrices.  It holds the CLI output (integer groups,
Poincare polynomial and F_2 dimensions) for three closed complexes whose
integer homology has 2-torsion, so the F_2 dimensions differ from the free
ranks.  Regenerate (only when a change is meant to alter these outputs) with

    PYTHONPATH=src python tests/test_goldens_field.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from catsl2.cli import main
from catsl2.complexes import closure
from catsl2.links import ColoredDiagram, bracket_colored
from catsl2.projectors import q3, truncated_pn

GOLDEN = Path(__file__).parent / "goldens" / "homology_f2.json"


def _bracket(strands, word, colors):
    n = len(colors)
    d = ColoredDiagram(strands, word, "trace", colors, (0,) * n, (1,) * n,
                       ((2, (2,)),))
    return bracket_colored(d)[0]


CASES = {"closure_q3": lambda: closure(q3())[0],
         "closure_p2_w6": lambda: closure(truncated_pn(2, 6).complex)[0],
         "trefoil_color2": lambda: _bracket(2, (1, 1, 1), (2,))}


def f2_text(name: str, tmp: Path) -> str:
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(CASES[name]().to_json()))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["homology", str(path), "--field", "f2"]) == 0
    return buf.getvalue()


def _text(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_homology_f2_golden(name, tmp_path):
    got = json.loads(f2_text(name, tmp_path))
    want = json.loads(GOLDEN.read_text())[name]
    assert got == want
    # the F_2 dimensions see the 2-torsion: they are not the free ranks
    ranks = {(g["h"], g["q"]): g["rank"] for g in got["groups"] if g["rank"]}
    assert {(d["h"], d["q"]): d["dim"] for d in got["f2_dims"]} != ranks


def test_golden_file_is_exactly_the_cases():
    text = GOLDEN.read_text()
    assert set(json.loads(text)) == set(CASES)
    assert _text(json.loads(text)) == text


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(_text({name: json.loads(f2_text(name, Path(tmp)))
                                 for name in CASES}))
