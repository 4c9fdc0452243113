import json

import pytest

from catsl2.cli import main
from catsl2.complexes import (Complex, hom_complex, simplify,
                              tautological_complex, tensor)
from catsl2.homology import SafeWindow, closure_complex, integer_homology
from catsl2.projectors import braid_letter_complex, q2
from catsl2.tl import euler_characteristic
from catsl2.verify import run_suite
from catsl2.config import Config
from test_projectors import bracket


def test_khovanov_bracket_with_box():
    # splice the 2-strand quasi-idempotent into a twist pair; closure must
    # match the plain boxed unknot
    b1 = bracket(2, q2())
    b2 = bracket(2, braid_letter_complex(1, True), q2(), braid_letter_complex(-1, True))
    h1 = integer_homology(tautological_complex(closure_complex(b1)))
    h2 = integer_homology(tautological_complex(closure_complex(b2)))
    assert h1 == h2


def test_khovanov_bracket_flat_slice():
    from catsl2.tl import TLElement
    e = Complex.generator_complex(1, 2)
    b = bracket(2, e)
    assert b.graded_ranks() == {(0, 0): 1}
    assert euler_characteristic(b) == TLElement.generator(1, 2)
    # e then e stacks to (q + q^-1) e, delooped into two shifted objects
    b2 = bracket(2, e, e)
    assert b2.graded_ranks() == {(0, 1): 1, (0, -1): 1}


def test_simplify_preserves_euler_characteristic():
    c = tensor(q2(), q2())
    s, _ = simplify(c)
    assert euler_characteristic(s) == euler_characteristic(c)


def test_ext_groups_safe_window_refusal():
    one = Complex.identity_complex(1)
    safe = SafeWindow(h_min=-3)
    groups = integer_homology(hom_complex(one, one)).restrict(safe.contains)
    assert groups.groups == {(0, 0): (1, ()), (0, 2): (1, ())}
    with pytest.raises(ValueError):
        safe.require(-5, 0)
    safe.require(0, 0)


def test_homology_cli_on_closed_complex(tmp_path, capsys):
    closed = closure_complex(q2())
    path = tmp_path / "closed.json"
    path.write_text(json.dumps(closed.to_json()))
    code = main(["homology", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["groups"]
    assert "poincare" in data
    # mod-2 dimensions requested
    code = main(["homology", str(path), "--field", "f2"])
    out = capsys.readouterr().out
    assert code == 0 and "f2_dims" in json.loads(out)
    # a non-closed complex is a usage error
    path2 = tmp_path / "open.json"
    path2.write_text(json.dumps(q2().to_json()))
    assert main(["homology", str(path2)]) == 2


def test_verify_suite_aliases(capsys):
    results = run_suite(Config(), only="q2", out=lambda *_: None)
    assert {r.name for r in results} == {"turnbacks", "euler", "idempotency"}
    assert all(r.ok for r in results)
    with pytest.raises(ValueError):
        run_suite(Config(), only="nonsense", out=lambda *_: None)


def test_object_ceiling_guard(monkeypatch):
    from catsl2.complexes import EngineLimitError
    monkeypatch.setenv("QPE_MAX_OBJECTS", "1")
    with pytest.raises(EngineLimitError):
        tensor(q2(), q2())
    monkeypatch.delenv("QPE_MAX_OBJECTS")


def test_deloop_ceiling_names_stage_degree_and_count(monkeypatch):
    from catsl2.cobordism import FlatTangle, GradedObject
    from catsl2.complexes import EngineLimitError, deloop
    from catsl2.tl import Matching
    # two circles at degree 1 deloop into four objects
    two_circles = GradedObject(FlatTangle(0, Matching(0, ()), 2), 0)
    c = Complex(0, {1: [two_circles]}, {})
    monkeypatch.setenv("QPE_MAX_OBJECTS", "4")
    assert len(deloop(c)[0].objects[1]) == 4
    monkeypatch.setenv("QPE_MAX_OBJECTS", "3")
    with pytest.raises(EngineLimitError) as exc:
        deloop(c)
    assert str(exc.value) == "deloop exceeded object ceiling at degree 1 with 4 objects"
