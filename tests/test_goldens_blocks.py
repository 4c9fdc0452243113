"""Byte-for-byte goldens for the block complexes: sums, cones, convolutions, HOM.

The symmetric-sequence goldens (the pieces and connecting maps fed to the
convolution solver) were written before those maps were built by the
product of complexes instead of by hand.

The files under tests/goldens/ were written by the engine before the block
layouts (direct sum, cone, convolution total complex, periodic model), the
block products and the basis-column loops of HOM and the convolution solver
were each folded into one routine; none of these outputs may change.
Regenerate (only when a change is meant to alter these outputs) with

    PYTHONPATH=src python tests/test_goldens_blocks.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from catsl2.cli import main
from catsl2.complexes import Complex, cone, direct_sum, hom_complex, shift
from catsl2.projectors import q2, symmetric_sequence, truncated_pn

GOLDENS = Path(__file__).parent / "goldens"
CLI_CASES = {"qn2.json": ["proj", "qn", "--n", "2"],
             "qn3_w4.json": ["proj", "qn", "--n", "3", "--window", "4"],
             "quasi1_1.json": ["proj", "quasi", "--n", "1", "--indices", "1"]}


def zcomplex_text(z) -> str:
    # the sparse rows, densified: the files hold one full row per target label
    payload = {"groups": [{"i": i, "j": j, "basis": [list(lab) for lab in basis]}
                          for (i, j), basis in sorted(z.groups.items())],
               "diffs": [{"i": i, "j": j,
                          "matrix": [[row.get(c, 0) for c in range(z.rank(i, j))]
                                     for row in m]}
                         for (i, j), m in sorted(z.diffs.items())]}
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _hom_q2() -> str:
    return zcomplex_text(hom_complex(q2(), q2()))


def _hom_p2() -> str:
    p = truncated_pn(2, 6).complex
    return zcomplex_text(hom_complex(p, p))


def _direct_sum() -> str:
    c = direct_sum(q2(), shift(q2(), 1, 2))
    return json.dumps(c.to_json(), indent=1, sort_keys=True) + "\n"


def _cone_u2() -> str:
    # the shifted source and the target share degrees, so the order of the
    # two summands inside a degree shows
    c = cone(truncated_pn(2, 6).u_maps[2])
    return json.dumps(c.to_json(), indent=1, sort_keys=True) + "\n"


def _symmetric_sequence(k_complex: Complex, n: int) -> str:
    pieces, alphas = symmetric_sequence(k_complex, n)
    payload = {"pieces": [p.to_json() for p in pieces],
               "alphas": [{"dh": f.dh, "dq": f.dq,
                           "components": [{"h": h, "row": i, "col": j,
                                           "morphism": m.to_json()}
                                          for h, entries in sorted(f.components.items())
                                          for (i, j), m in sorted(entries.items())]}
                          for f in alphas]}
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


TEXT_CASES = {"hom_q2_q2.json": _hom_q2, "hom_p2_w6.json": _hom_p2,
              "direct_sum_q2.json": _direct_sum, "cone_u2_p2_w6.json": _cone_u2,
              "symseq_n2.json": lambda: _symmetric_sequence(Complex.identity_complex(1), 2),
              "symseq_p2_w6_n3.json":
                  lambda: _symmetric_sequence(truncated_pn(2, 6).complex, 3)}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_block_golden(name, capsys):
    assert main(CLI_CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDENS / name).read_text()


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_block_golden(name):
    assert TEXT_CASES[name]() == (GOLDENS / name).read_text()


if __name__ == "__main__":
    for name, argv in CLI_CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        (GOLDENS / name).write_text(buf.getvalue())
    for name, make in TEXT_CASES.items():
        (GOLDENS / name).write_text(make())
