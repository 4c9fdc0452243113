"""Byte-for-byte goldens for the slice folds and strand closures.

The file tests/goldens/fold_steps.json was written while each of these
callers still stacked its slices, closed its strands and carried its maps in
a loop of its own: slices stacked over the accumulator (a bracket front end
since removed, the twist of `framing_check`), pieces stacked under it
(`quasi_projector`, the projector under the twist), and strand closures that
only deloop (now `complexes.closure`, alone and with u_2 carried along).
The `bracket_2_box` case, a twist pair around a flat e slice and a Q2 box,
is now built from an explicit `Slice` list over the identity.
None of these outputs may change.  Regenerate (only when a change is meant
to alter these outputs) with

    PYTHONPATH=src python tests/test_goldens_fold.py
"""

import json
from pathlib import Path

import pytest

from catsl2.complexes import Complex, Slice, closure, fold
from catsl2.links import framing_check
from catsl2.projectors import braid_letter_complex, q2, quasi_projector, truncated_pn

GOLDEN = Path(__file__).parent / "goldens" / "fold_steps.json"


def _map_json(f) -> dict:
    return {"dh": f.dh, "dq": f.dq,
            "components": [{"h": h, "row": i, "col": j, "morphism": m.to_json()}
                           for h, entries in sorted(f.components.items())
                           for (i, j), m in sorted(entries.items())]}


def _quasi(n, indices, window):
    return lambda: quasi_projector(n, indices, window).complex.to_json()


def _bracket_2_box() -> dict:
    slices = [braid_letter_complex(1, True), Complex.generator_complex(1, 2),
              q2(), braid_letter_complex(-1, True)]
    return fold(Complex.identity_complex(2), [Slice(s) for s in slices])[0].to_json()


def _closure_with_u2() -> dict:
    proj = truncated_pn(2, 8)
    closed, (u2,) = closure(proj.complex, [proj.u_maps[2]])
    return {"complex": closed.to_json(), "u2": _map_json(u2)}


CASES = {
    "quasi_2_121_w8": _quasi(2, (1, 2, 1), 8),
    "quasi_3_123_w8": _quasi(3, (1, 2, 3), 8),
    "quasi_2_1_w8": _quasi(2, (1,), 8),
    "bracket_2_box": _bracket_2_box,
    "closure_q2": lambda: closure(q2())[0].to_json(),
    "closure_p2_w8_u2": _closure_with_u2,
    "framing_2_2_w8": lambda: framing_check(2, (2,), 8),
}


def _text(value) -> str:
    return json.dumps(value, indent=1, sort_keys=True)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fold_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert _text(CASES[name]()) == _text(golden[name])


def test_golden_file_has_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    payload = {name: json.loads(_text(make())) for name, make in CASES.items()}
    GOLDEN.write_text(_text(payload) + "\n")
