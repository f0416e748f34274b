"""End-to-end CLI behavior: documents, exit codes, formats."""

from __future__ import annotations

import json

import pytest

from polykn import FamilyKind, build, build_ordered
from polykn.cli import (
    coloring_from_document,
    coloring_to_document,
    coloring_to_dot,
    run,
)

F1 = FamilyKind.ONE_FACTOR


def _write_doc(tmp_path, coloring, name="c.json"):
    path = tmp_path / name
    path.write_text(json.dumps(coloring_to_document(coloring)))
    return str(path)


def test_json_round_trip_constructions():
    for kind, ns in [
        (FamilyKind.ONE_FACTOR, range(2, 101, 2)),
        (FamilyKind.TWO_FACTOR, range(3, 101)),
        (FamilyKind.HAMILTONIAN_CYCLE, range(3, 101)),
    ]:
        for n in ns:
            c = build(kind, n)
            assert coloring_from_document(coloring_to_document(c)) == c


def test_document_validation():
    doc = coloring_to_document(build(F1, 6))
    doc["edges"][0][2] = 99  # color outside palette
    with pytest.raises(Exception):
        coloring_from_document(doc)
    doc2 = coloring_to_document(build(F1, 6))
    doc2["k"] = 5  # untight palette
    with pytest.raises(Exception):
        coloring_from_document(doc2)


def test_construct_verify_loop(tmp_path, capsys):
    out = tmp_path / "f1.json"
    assert run(["construct", "--family", "f1", "--n", "10", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["k"] == 3 and doc["n"] == 10
    assert run(["verify", "--family", "f1", "--input", str(out)]) == 0
    assert "polychromatic" in capsys.readouterr().out


def test_verify_violation_exits_one(tmp_path, capsys):
    bad = build_ordered((1, 1, 2, 2))
    path = _write_doc(tmp_path, bad)
    assert run(["verify", "--family", "f1", "--input", path]) == 1
    out = capsys.readouterr().out
    assert "violated" in out and "color 2" in out


def test_verify_rainbow_triangle_hc(tmp_path):
    from polykn import EdgeColoring

    tri = EdgeColoring.from_pairs(3, {(1, 2): 1, (1, 3): 3, (2, 3): 2})
    path = _write_doc(tmp_path, tri)
    assert run(["verify", "--family", "hc", "--input", path]) == 0


def test_bad_flags_exit_two(tmp_path, capsys):
    assert run(["construct", "--family", "zz", "--n", "4"]) == 2
    assert run(["construct", "--family", "f1"]) == 2
    assert run(["nonsense"]) == 2
    assert run(["construct", "--family", "f1", "--n", "7"]) == 2  # odd n
    capsys.readouterr()


def test_malformed_document_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 4, "k": 2, "edges": [[1, 2, 1]]}')
    assert run(["verify", "--family", "f1", "--input", str(path)]) == 2
    capsys.readouterr()


_VERIFY = ["verify", "--family", "f1", "--input", "DOC"]
_WITNESS = ["witness", "--family", "f1", "--input", "DOC", "--color"]


@pytest.mark.parametrize("first_edge, argv", [
    pytest.param([1, 2, 2.9], _VERIFY, id="float-color"),
    pytest.param([1, 2, True], _VERIFY, id="bool-color"),
    pytest.param([True, 2, 1], _VERIFY, id="bool-endpoint"),
    pytest.param([1, 2.0, 1], _VERIFY, id="float-endpoint"),
    pytest.param(5, _VERIFY, id="int-entry"),
    pytest.param("121", _VERIFY, id="string-entry"),
    pytest.param(None, _WITNESS + ["0"], id="color-zero"),
    pytest.param(None, _WITNESS + ["-1"], id="color-negative"),
    pytest.param(None, _WITNESS + ["99"], id="color-past-palette"),
    pytest.param(None, ["table", "--family", "f1", "--n-range", "5:2"], id="empty-range"),
])
def test_boundary_inputs_exit_two(tmp_path, capsys, first_edge, argv):
    doc = coloring_to_document(build_ordered((1, 1, 2, 2)))
    if first_edge is not None:
        doc["edges"][0] = first_edge
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert run([str(path) if a == "DOC" else a for a in argv]) == 2
    assert "error:" in capsys.readouterr().err


def test_witness_command(tmp_path, capsys):
    failing = build_ordered((1, 1, 2, 2))
    path = _write_doc(tmp_path, failing)
    out = tmp_path / "witness.json"
    assert run([
        "witness", "--family", "f1", "--input", path, "--color", "2", "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["avoided_color"] == 2
    assert doc["edges"] == [[1, 3], [2, 4]]
    # a satisfied color yields no witness
    assert run(["witness", "--family", "f1", "--input", path, "--color", "1"]) == 1
    capsys.readouterr()


def test_witness_rejects_uncombed_input(tmp_path, capsys):
    from polykn import EdgeColoring

    # neither ordered nor unitary anywhere: no inherited classes exist
    mapping = {
        (1, 2): 1, (1, 3): 2, (1, 4): 3,
        (2, 3): 3, (2, 4): 2, (3, 4): 1,
    }
    c = EdgeColoring.from_pairs(4, mapping)
    from polykn import comb_certificate

    assert comb_certificate(c) is None
    path = _write_doc(tmp_path, c)
    assert run(["witness", "--family", "f1", "--input", path, "--color", "1"]) == 2
    capsys.readouterr()


def test_witness_weak_mode(tmp_path, capsys):
    c = build_ordered((1, 1, 1, 2, 1, 1))
    path = _write_doc(tmp_path, c)
    assert run(["witness", "--family", "hc", "--input", path, "--color", "2"]) == 0
    out = capsys.readouterr().out
    assert "avoided_color" in out


def test_search_command(tmp_path, capsys):
    assert run(["search", "--family", "f2", "--n", "4", "--mode", "full"]) == 0
    out = capsys.readouterr().out
    assert "optimum k = 3" in out
    assert run(["search", "--family", "f1", "--n", "8", "--mode", "ordered"]) == 0
    assert "optimum k = 3" in capsys.readouterr().out


def test_table_csv_schema(capsys):
    assert run(["table", "--family", "f1", "--n-range", "2:12", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,family,construction_k,formula_k,search_k,search_mode,agrees"
    assert lines[1] == "2,f1,1,1,1,full,true"
    assert len(lines) == 7  # six even values of n


def test_dot_output_deterministic(tmp_path):
    c = build(F1, 6)
    first = coloring_to_dot(c)
    second = coloring_to_dot(c)
    assert first == second
    assert first.startswith("graph k6 {")
    assert 'color="#1f77b4"' in first
    out = tmp_path / "c.dot"
    assert run(["construct", "--family", "f1", "--n", "6", "--format", "dot",
                "--out", str(out)]) == 0
    assert out.read_text() == first


def test_transform_improve_command(tmp_path, capsys):
    c = build(FamilyKind.TWO_FACTOR, 6).recolored(3, 4, 1)
    path = _write_doc(tmp_path, c)
    out = tmp_path / "improved.json"
    assert run([
        "transform", "--family", "f2", "--input", path, "--op", "improve",
        "--out", str(out),
    ]) == 0
    printed = capsys.readouterr().out
    assert "combed=true" in printed
    improved = coloring_from_document(json.loads(out.read_text()))
    assert improved.k == c.k


def test_transform_recolor_command(tmp_path, capsys):
    c = build(FamilyKind.TWO_FACTOR, 6)
    path = _write_doc(tmp_path, c)
    assert run([
        "transform", "--family", "f2", "--input", path, "--op", "recolor",
        "--vertices", "4,5,6",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    from polykn import is_unitary

    recolored = coloring_from_document(doc)
    assert is_unitary(recolored, 4) == (1, 2, 5)
    assert run([
        "transform", "--family", "f2", "--input", path, "--op", "recolor",
    ]) == 2  # missing --vertices
    capsys.readouterr()
