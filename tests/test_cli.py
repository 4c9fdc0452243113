import json

import pytest

from catsl2.cli import main
from catsl2.complexes import Complex
from catsl2.projectors import q2


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_tl_jw_json(capsys):
    code, out = run(capsys, "tl", "jw", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2
    assert {"matching": [2, 3, 0, 1],
            "series": [[0, 1]]} in data["terms"]
    assert data["window"] == 30


def test_determinism_byte_identical(capsys):
    _, out1 = run(capsys, "tl", "jw", "--n", "3")
    _, out2 = run(capsys, "tl", "jw", "--n", "3")
    assert out1 == out2


def test_proj_and_complex_roundtrip(tmp_path, capsys):
    code, out = run(capsys, "proj", "q2")
    assert code == 0
    path = tmp_path / "q2.json"
    path.write_text(out)
    code, out2 = run(capsys, "complex", "check", str(path))
    assert code == 0 and json.loads(out2)["ok"]
    code, out3 = run(capsys, "complex", "simplify", str(path))
    assert code == 0
    code, out4 = run(capsys, "tl", "euler", "--complex", str(path))
    assert code == 0
    data = json.loads(out4)
    assert any(t["matching"] == [2, 3, 0, 1] for t in data["terms"])


def test_complex_tensor_and_homology(tmp_path, capsys):
    _, out = run(capsys, "proj", "q2")
    a = tmp_path / "a.json"
    a.write_text(out)
    code, out2 = run(capsys, "complex", "tensor", str(a), str(a))
    assert code == 0
    t = json.loads(out2)
    assert t["n"] == 2


def test_homology_checks_strands_before_simplifying(tmp_path, capsys, monkeypatch):
    # delooping the 3-circle object would make 8 objects, over the ceiling
    monkeypatch.setenv("QPE_MAX_OBJECTS", "4")
    path = tmp_path / "open.json"
    path.write_text(json.dumps({"n": 2, "degrees": [{"h": 0, "objects": [
        {"matching": [1, 0, 3, 2], "circles": 3, "qshift": 0}]}]}))
    assert main(["homology", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: homology needs a closed (0-strand) complex\n"


def test_proj_turnback(tmp_path, capsys):
    _, out = run(capsys, "proj", "q2")
    path = tmp_path / "q2.json"
    path.write_text(out)
    code, out2 = run(capsys, "proj", "turnback", str(path))
    assert code == 0
    assert json.loads(out2)["kills_turnbacks"]


def test_colored_homology_file(tmp_path, capsys):
    diagram = {"braid": {"strands": 2, "word": [1, 1, 1]},
               "closure": "trace", "colors": [1], "framings": [0],
               "marks": [1], "family": {"1": {"indices": []}}}
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps(diagram))
    code, out = run(capsys, "colored", "homology", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["exact"] is True
    assert data["marks"] == [1]
    assert {"h": -2, "q": 7, "rank": 0, "torsion": [2]} in data["groups"]
    # table format
    code, out2 = run(capsys, "--format", "table", "colored", "homology",
                     str(path))
    assert code == 0 and "torsion" in out2


def test_field_q_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["homology", "closed.json", "--field", "q"])
    assert exc.value.code == 2
    assert "invalid choice: 'q'" in capsys.readouterr().err


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize("argv, message", [
    (["proj", "pn", "--n", "2", "--window", "0"], "window must be at least 4"),
    (["--precision", "-1", "tl", "jw", "--n", "2"], "precision must be at least 4"),
    (["proj", "quasi", "--n", "2", "--indices", "3"], "indices must lie in 1..2"),
    (["proj", "pn", "--n", "0"], "supports n in 1..3"),
    (["proj", "quasi", "--n", "0"], "supports n in 1..3"),
    (["proj", "quasi", "--n", "2", "--indices", ",2,"],
     "indices: expected comma-separated integers, got ',2,'"),
    (["proj", "quasi", "--n", "2", "--indices", "2,,1"],
     "indices: expected comma-separated integers, got '2,,1'"),
])
def test_bad_values_are_usage_errors_even_under_optimize_flag(run_python, argv,
                                                              message, optimize):
    out = run_python("-m", "catsl2.cli", *argv, optimize=optimize)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and message in out.stderr
    assert out.stderr.count("\n") == 1


def test_missing_file_is_usage_error(capsys):
    code, _ = run(capsys, "complex", "check", "/nonexistent/path.json")
    assert code == 2


@pytest.mark.parametrize("diagram, message", [
    ({"braid": {"strands": 2, "word": [5]}, "colors": [1]},
     "braid generator 5 out of range"),
    ({"braid": {"strands": 1, "word": []}, "colors": [0]},
     "colors must be >= 1"),
    ({"braid": {"strands": 3, "word": [1]}, "closure": "plat", "colors": [1]},
     "plat closure needs an even number of strands"),
    ({"braid": {"strands": 2, "word": [1, 1, 1]}, "colors": "x"},
     "colors: expected a list of integers"),
    ({"braid": [2, [1, 1, 1]], "colors": [1]}, "malformed file"),
    ({"braid": {"strands": 2, "word": [1, 1, 1]}, "colors": [2],
      "family": {"2": {"indices": [2]}, "3": {"indices": [9]}}},
     "family: color 3 is not among the colors [2]"),
    ({"braid": {"strands": 2, "word": [1, True]}, "colors": [1]},
     "braid word: expected an integer, got True"),
    ({"colors": [1]}, "braid: missing field"),
    ({"braid": {"word": [1]}, "colors": [1]}, "braid strands: missing field"),
    ({"braid": {"strands": 2}, "colors": [1]}, "braid word: missing field"),
    ({"braid": {"strands": 2, "word": [1]}}, "colors: missing field"),
    ({"braid": {"strands": 2, "word": [1]}, "colors": [1],
      "family": {"x": {"indices": [1]}}}, "family: color 'x' is not an integer"),
])
def test_colored_homology_bad_diagram_is_usage_error(tmp_path, capsys,
                                                     diagram, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(diagram))
    assert main(["colored", "homology", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_engine_limit_is_one_line(tmp_path, run_python, optimize):
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps({"braid": {"strands": 2, "word": [1, 1, 1]},
                                "colors": [2], "family": {"2": {"indices": [2]}}}))
    script = f"""
import os, sys
os.environ["QPE_MAX_OBJECTS"] = "5"
from catsl2.cli import main
sys.exit(main(["colored", "homology", {str(path)!r}]))
"""
    out = run_python("-c", script, optimize=optimize)
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr == ("error: product exceeded object ceiling at degree 0 "
                          "with 6 objects (QPE_MAX_OBJECTS=5)\n")


@pytest.mark.parametrize("command", [["complex", "simplify"], ["homology"]],
                         ids=["simplify", "homology"])
def test_deloop_ceiling_exits_one_before_expanding(tmp_path, capsys, monkeypatch,
                                                   command):
    from catsl2.cobordism import FlatTangle, GradedObject
    from catsl2.tl import Matching
    from test_extras import bounded_sign_vectors
    built = bounded_sign_vectors(monkeypatch)
    # one object with 30 circles would deloop into 2^30 summands
    circles = GradedObject(FlatTangle(0, Matching(0, ()), 30), 0)
    path = tmp_path / "circles.json"
    path.write_text(json.dumps(Complex(0, {0: [circles]}, {}).to_json()))
    monkeypatch.setenv("QPE_MAX_OBJECTS", "8")
    assert main([*command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and built == []
    assert captured.err == ("error: deloop exceeded object ceiling at degree 0 "
                            f"with {2 ** 30} objects (QPE_MAX_OBJECTS=8)\n")


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize("command, n", [("pn", "2"), ("qn", "3"), ("quasi", "2")])
def test_unbounded_window_is_one_line(run_python, command, n, optimize):
    # the periodic model is refused before any copy is built, although each
    # of its degrees would hold only a few objects
    out = run_python("-m", "catsl2.cli", "proj", command, "--n", n,
                     "--window", "2000000", optimize=optimize)
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.startswith("error: periodic model exceeded object ceiling")
    assert "QPE_MAX_OBJECTS=" in out.stderr and out.stderr.count("\n") == 1


def test_verify_single_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "end11")
    assert code == 0
    assert out.startswith("PASS")


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _ = run(capsys, "--out", str(target), "proj", "q2")
    assert code == 0
    assert json.loads(target.read_text())["n"] == 2


def _q2_edited(edit) -> dict:
    data = q2().to_json()
    edit(data)
    return data


def _set(path, value):
    """An edit that sets data[path[0]][path[1]]... to value."""
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return edit


def _drop_last_degree(data):
    del data["degrees"][-1]


@pytest.mark.parametrize("command", ["check", "simplify"])
@pytest.mark.parametrize("edit, message", [
    (_set(["degrees", 0, "objects", 0, "qshift"], 5), "wrong degree"),
    (_set(["differential", 0, "entries", 0, "col"], 7), "out of range"),
    (_set(["differential", 0, "entries", 0, "row"], -1), "out of range"),
    (_set(["differential", 1, "entries", 0, "morphism", "terms", 0, "dots"], [9]),
     "a dot is off the 2 curves"),
    (_drop_last_degree, "needs objects at h=-1 and h=0"),
    (_set(["degrees", 0, "objects", 0, "matching"], [0, 1, 2, 3]), "non-planar"),
    pytest.param(_set(["degrees", 0, "objects", 0, "matching"], ["a", 0, 3, 2]),
                 "matching: expected an integer, got 'a'", id="edit-matching-str"),
])
def test_bad_complex_file_is_usage_error(tmp_path, capsys, command, edit, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_q2_edited(edit)))
    assert main(["complex", command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


def _one_object_edited(edit) -> dict:
    data = Complex.generator_complex(1, 2, 1).to_json()
    edit(data)
    return data


def _repeat_last_degree(data):
    data["degrees"].append(dict(data["degrees"][-1]))


def _repeat_first_entry(data):
    entries = data["differential"][0]["entries"]
    entries.append(entries[0])


def _repeat_first_term(data):
    terms = data["differential"][0]["entries"][0]["morphism"]["terms"]
    terms.append(terms[0])


_COEFF = ["differential", 0, "entries", 0, "morphism", "terms", 0, "coeff"]
_MATCHING = ["degrees", 0, "objects", 0, "matching"]


@pytest.mark.parametrize("command", [["complex", "check"], ["complex", "simplify"],
                                     ["tl", "euler", "--complex"],
                                     ["proj", "turnback"]],
                         ids=["check", "simplify", "euler", "turnback"])
@pytest.mark.parametrize("data, message", [
    (_one_object_edited(_set(["degrees", 0, "objects", 0, "qshift"], "a")),
     "qshift: expected an integer, got 'a'"),
    (_one_object_edited(_set(["degrees", 0, "objects", 0, "qshift"], True)),
     "qshift: expected an integer, got True"),
    (_one_object_edited(_set(["degrees", 0, "h"], "0")),
     "degree h: expected an integer, got '0'"),
    (_one_object_edited(_set(["degrees", 0, "objects", 0, "circles"], 1.0)),
     "circles: expected an integer, got 1.0"),
    (_one_object_edited(_set(["n"], True)), "n: expected an integer, got True"),
    (_q2_edited(_set(_COEFF, "1")), "coeff: expected an integer, got '1'"),
    (_q2_edited(_set(_COEFF, 1.0)), "coeff: expected an integer, got 1.0"),
    (_q2_edited(_set(["differential", 1, "entries", 0, "morphism", "terms", 1,
                      "dots"], [True])), "dots: expected an integer, got True"),
    (_q2_edited(_repeat_last_degree), "degree h=0 is listed twice"),
    (_q2_edited(_repeat_first_entry), "entry (0,0) at h=-3 is listed twice"),
    (_q2_edited(_repeat_first_term),
     "entry (0,0) at h=-3 lists the term with dots [] twice"),
    (_q2_edited(_set(_MATCHING, [True, 0, 3, 2])), "matching: expected an integer, got True"),
    (_q2_edited(_set(_MATCHING, [1.0, 0, 3, 2])), "matching: expected an integer, got 1.0"),
], ids=["qshift-str", "qshift-bool", "h-str", "circles-float", "n-bool",
        "coeff-str", "coeff-float", "dots-bool", "repeated-h", "repeated-entry",
        "repeated-term", "matching-bool", "matching-float"])
def test_ill_typed_complex_field_is_one_line_usage_error(tmp_path, capsys, command,
                                                         data, message):
    # each was once accepted (some rows silently dropped) or a traceback
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main([*command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_complex_check_d_squared_failure_exits_one(tmp_path, capsys):
    # -(x0 + x1) instead of x1 - x0 at h=-2: degrees stay right, d^2 does not
    path = tmp_path / "bad.json"
    edit = _set(["differential", 1, "entries", 0, "morphism", "terms", 1, "coeff"], -1)
    path.write_text(json.dumps(_q2_edited(edit)))
    assert main(["complex", "check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: d^2 != 0") and err.count("\n") == 1
