"""Byte-for-byte goldens for integer homology with torsion.

The file tests/goldens/ext_homology.json was written while `integer_homology`
still took kernel mod image in every bidegree (a kernel basis, a solve for the
image inside it, and a second Smith normal form).  It holds the bigraded groups
of HOM(a, b) for seven pairs of complexes on two and three strands at fixed
shifts, and of two 2-colored braid closures whose homology has torsion.
Regenerate (only when a change is meant to alter these outputs) with

    PYTHONPATH=src python tests/test_goldens_homology.py
"""

import json
from pathlib import Path

import pytest

from catsl2.complexes import hom_complex, shift, simplify, tensor
from catsl2.homology import integer_homology
from catsl2.links import ColoredDiagram, link_homology
from catsl2.projectors import q2, q3, quasi_projector, truncated_pn

GOLDEN = Path(__file__).parent / "goldens" / "ext_homology.json"


def _complex(name: str):
    if name == "q2":
        return q2()
    if name == "q3":
        return q3()
    if name == "q2q2":
        return simplify(tensor(q2(), q2()))[0]
    if name == "Q323":
        return quasi_projector(3, (2, 3)).complex
    return truncated_pn(2, int(name[3:])).complex  # "P2_<window>"


# (a, shift of a, b, shift of b)
EXT_CASES = [("q2q2", (0, 0), "q2", (1, 2)),
             ("P2_11", (-1, 0), "P2_12", (0, 2)),
             ("q3", (0, 0), "q3", (2, -4)),
             ("P2_12", (2, 4), "P2_11", (0, 0)),
             ("Q323", (0, -2), "q3", (1, 0)),
             ("q3", (-2, 0), "Q323", (0, 4)),
             ("P2_7", (0, 0), "P2_8", (-1, -2))]

# (strands, word, closure, colors, family)
LINK_CASES = {"trefoil_color2": (2, (1, 1, 1), "trace", (2,), ((2, (2,)),)),
              "hopf_colors22": (2, (1, 1), "trace", (2, 2), ((2, (2,)),))}


def _ext_name(case) -> str:
    a, sa, b, sb = case
    return f"ext({a}{sa},{b}{sb})"


def ext_json(case) -> list[dict]:
    a, sa, b, sb = case
    z = hom_complex(shift(_complex(a), *sa), shift(_complex(b), *sb))
    return integer_homology(z).to_json()


def link_json(name: str) -> list[dict]:
    strands, word, closure, colors, family = LINK_CASES[name]
    n = len(colors)
    d = ColoredDiagram(strands, word, closure, colors, (0,) * n, (1,) * n, family)
    return link_homology(d)[0].to_json()


def _payload() -> dict:
    out = {_ext_name(case): ext_json(case) for case in EXT_CASES}
    out.update({f"link_{name}": link_json(name) for name in LINK_CASES})
    return out


def _text(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _golden_entry(key: str) -> str:
    return _text({key: json.loads(GOLDEN.read_text())[key]})


@pytest.mark.parametrize("case", EXT_CASES, ids=_ext_name)
def test_ext_homology_golden(case):
    assert _text({_ext_name(case): ext_json(case)}) == _golden_entry(_ext_name(case))


@pytest.mark.parametrize("name", sorted(LINK_CASES))
def test_link_homology_golden(name):
    assert _text({f"link_{name}": link_json(name)}) == _golden_entry(f"link_{name}")


def test_golden_file_is_exactly_the_cases():
    # every entry of the file is pinned by one of the tests above, and the
    # file is the canonical serialization of its entries
    text = GOLDEN.read_text()
    keys = {_ext_name(case) for case in EXT_CASES} | {f"link_{n}" for n in LINK_CASES}
    assert set(json.loads(text)) == keys
    assert _text(json.loads(text)) == text


if __name__ == "__main__":
    GOLDEN.write_text(_text(_payload()))
