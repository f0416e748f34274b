"""End-to-end CLI behavior: documents, exit codes, formats."""

from __future__ import annotations

import copy
import json
import random

import pytest

from polykn import EdgeColoring, FamilyKind, build, build_ordered
from polykn.cli import (
    CliError,
    coloring_from_document,
    coloring_to_document,
    coloring_to_dot,
    run,
)

from helpers import oracle_coloring_from_document

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
    with pytest.raises(CliError, match=r"^color 99 outside 1\.\.2$"):
        coloring_from_document(doc)
    doc2 = coloring_to_document(build(F1, 6))
    doc2["k"] = 5  # untight palette
    with pytest.raises(CliError, match=r"^palette not tight: colors \[1, 2\] vs k=5$"):
        coloring_from_document(doc2)


def test_construct_verify_loop(tmp_path, capsys):
    out = tmp_path / "f1.json"
    assert run(["construct", "--family", "f1", "--n", "10", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["k"] == 3 and doc["n"] == 10
    # compact, one line: indent would cost json's pure-Python encoder
    assert out.read_text() == json.dumps(doc) + "\n"
    assert run(["verify", "--family", "f1", "--input", str(out)]) == 0
    assert "polychromatic" in capsys.readouterr().out


def test_verify_violation_exits_one(tmp_path, capsys):
    bad = build_ordered((1, 1, 2, 2))
    path = _write_doc(tmp_path, bad)
    assert run(["verify", "--family", "f1", "--input", path]) == 1
    out = capsys.readouterr().out
    assert "violated" in out and "color 2" in out


def test_verify_writes_verdict_to_out(tmp_path, capsys):
    for coloring, code, line in [
        (build(F1, 10), 0, "polychromatic: n=10 k=3 family=f1\n"),
        (build_ordered((1, 1, 2, 2)), 1, "violated: color 2 avoided by f1 member [(1, 3), (2, 4)]\n"),
    ]:
        path = _write_doc(tmp_path, coloring)
        out = tmp_path / "verdict.txt"
        assert run(["verify", "--family", "f1", "--input", path, "--out", str(out)]) == code
        assert out.read_text() == line
        assert capsys.readouterr().out == ""


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


def test_deeply_nested_input_exits_two(tmp_path, capsys):
    # json's decoder recurses once per nesting level; past its limit the
    # document is bad input, not a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    assert run(["verify", "--family", "f1", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read coloring from {path}: ")


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
    pytest.param(None, ["table", "--family", "hc", "--n-range", "1:2"], id="no-valid-n-range"),
    pytest.param(None, ["table", "--family", "f1", "--n", "3"], id="no-valid-n"),
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
    # a satisfied color yields no witness, and the line honours --out
    argv = ["witness", "--family", "f1", "--input", path, "--color", "1"]
    line = "no witness: color 1 satisfies the majority condition (j=1)\n"
    assert run(argv) == 1
    assert capsys.readouterr().out == line
    met = tmp_path / "met.txt"
    assert run(argv + ["--out", str(met)]) == 1
    assert met.read_text() == line
    assert capsys.readouterr().out == ""


def test_witness_sets_unitary_classes_aside(tmp_path, capsys):
    # the 2-factor coloring at n = 8 has unitary vertices in classes 1-3:
    # such a class is set aside by the weak rule, not proved by it
    path = str(tmp_path / "f2.json")
    assert run(["construct", "--family", "f2", "--n", "8", "--out", path]) == 0
    for family, color in (("f2", 1), ("hc", 2)):
        argv = ["witness", "--family", family, "--input", path, "--color", str(color)]
        line = f"no witness: class {color} contains a unitary vertex\n"
        assert run(argv) == 1
        assert capsys.readouterr() == (line, "")
        out = tmp_path / f"{family}.txt"
        assert run(argv + ["--out", str(out)]) == 1
        assert out.read_text() == line
        assert capsys.readouterr() == ("", "")


def test_witness_f1_agrees_with_verify_on_unitary_coloring(tmp_path, capsys):
    # classes 1-3 hold the unitary vertices, so the strict rule proves none
    # of them: verify finds color 1 avoided, and witness sets the classes aside
    path = str(tmp_path / "f2.json")
    assert run(["construct", "--family", "f2", "--n", "8", "--out", path]) == 0
    lines = {t: f"no witness: class {t} contains a unitary vertex\n" for t in (1, 2, 3)}
    lines[4] = "no witness: color 4 satisfies the majority condition (j=7)\n"
    for color, line in lines.items():
        assert run(["witness", "--family", "f1", "--input", path, "--color", str(color)]) == 1
        assert capsys.readouterr() == (line, ""), color
    assert run(["verify", "--family", "f1", "--input", path]) == 1
    out = capsys.readouterr().out
    assert out == "violated: color 1 avoided by f1 member [(1, 3), (2, 4), (5, 6), (7, 8)]\n"


def test_witness_f2_answers_for_two_factors(tmp_path, capsys):
    # color 2 meets the weak rule at j = 4, so it is on every Hamiltonian
    # cycle, but the segment walk splits at 4 and leaves it unproved: the
    # witness is a 4-cycle and a triangle, and verify agrees
    path = _write_doc(tmp_path, build_ordered((1, 1, 2, 2, 1, 1, 1)))
    assert run(["witness", "--family", "f2", "--input", path, "--color", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["family"] == "f2" and doc["avoided_color"] == 2
    assert doc["edges"] == [[1, 3], [1, 4], [2, 3], [2, 4], [5, 6], [5, 7], [6, 7]]
    assert run(["verify", "--family", "f2", "--input", path]) == 1
    assert run(["verify", "--family", "hc", "--input", path]) == 0
    capsys.readouterr()
    # after the split at 4, class 2 meets the walk again at 6 with the rest
    # too small: one line names the walk
    path = _write_doc(tmp_path, build_ordered((1, 1, 2, 2, 1, 2, 2)))
    assert run(["witness", "--family", "f2", "--input", path, "--color", "2"]) == 1
    line = "no witness: color 2 satisfies the segment walk (j=6)\n"
    assert capsys.readouterr() == (line, "")
    assert run(["verify", "--family", "f2", "--input", path]) == 0
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


def test_witness_reports_requested_weak_family(tmp_path, capsys):
    # the weak builder returns a Hamiltonian cycle, which is also a 2-factor;
    # the document names the family that was asked for
    path = _write_doc(tmp_path, build_ordered((1, 1, 1, 2, 1, 1)))
    docs = {}
    for family in ("f2", "hc"):
        assert run(["witness", "--family", family, "--input", path, "--color", "2"]) == 0
        docs[family] = json.loads(capsys.readouterr().out)
    assert docs["f2"]["family"] == "f2"
    assert docs["hc"]["family"] == "hc"
    assert docs["f2"]["edges"] == docs["hc"]["edges"]


def test_witness_rejects_n_without_members(tmp_path, capsys):
    # n = 5 has no 1-factor and n = 2 no Hamiltonian cycle: every color of
    # such a document is bad input, as in verify, not "no witness"
    odd = _write_doc(tmp_path, build_ordered((1, 1, 2, 2, 2)), "odd.json")
    k2 = _write_doc(tmp_path, EdgeColoring.from_colors(2, [1]), "k2.json")
    for family, path, color in (("f1", odd, "1"), ("f1", odd, "2"), ("hc", k2, "1")):
        assert run(["witness", "--family", family, "--input", path, "--color", color]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), (family, color)
        assert run(["verify", "--family", family, "--input", path]) == 2
        capsys.readouterr()


def test_unwritable_out_exits_two(tmp_path, capsys):
    out = tmp_path / "missing" / "c.json"
    assert run(["construct", "--family", "f1", "--n", "8", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and str(out) in err
    assert not out.parent.exists()


def test_table_text_format(capsys):
    assert run(["table", "--family", "hc", "--n-range", "3:8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["   n construction formula search agree", "   3            2       2      3    NO"]
    assert lines[4] == "   6            3       3      3   yes"
    assert lines[6] == "   8            4       4      -   yes" and len(lines) == 7


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--n-range", "3-6"], "error: bad range '3-6', expected a:b", id="dash-range"),
    pytest.param([], "error: table needs exactly one of --n and --n-range", id="no-n"),
    pytest.param(["--n", "5", "--n-range", "3:4"],
                 "error: table needs exactly one of --n and --n-range", id="both-n"),
])
def test_table_bad_n_flags_exit_two(capsys, argv, message):
    assert run(["table", "--family", "hc", *argv]) == 2
    assert capsys.readouterr() == ("", message + "\n")


def test_unknown_family_keeps_argparse_message(capsys):
    assert run(["construct", "--family", "f3", "--n", "8"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --family: invalid choice: 'f3'" in err


def test_table_n_zero_is_not_missing(capsys):
    assert run(["table", "--family", "f1", "--n", "0"]) == 2
    assert capsys.readouterr().err == "error: no n in 0..0 is valid for family f1\n"


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


def test_table_json_and_csv_records(capsys):
    # one record per row: JSON keeps None and booleans, CSV writes "" and
    # lowercase text
    def record(n, k, search_k, search_mode, agrees):
        return {"n": n, "family": "hc", "construction_k": k, "formula_k": k,
                "search_k": search_k, "search_mode": search_mode, "agrees": agrees}

    records = [record(3, 2, 3, "full", False), record(4, 3, 3, "full", True),
               record(5, 3, 3, "full", True), record(6, 3, 3, "full", True)]
    assert run(["table", "--family", "hc", "--n-range", "3:6", "--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(records, indent=2) + "\n"
    assert run(["table", "--family", "hc", "--n-range", "3:6", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "n,family,construction_k,formula_k,search_k,search_mode,agrees",
        "3,hc,2,2,3,full,false",
        "4,hc,3,3,3,full,true",
        "5,hc,3,3,3,full,true",
        "6,hc,3,3,3,full,true",
    ]


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
    printed = capsys.readouterr().err
    assert "combed=true" in printed
    improved = coloring_from_document(json.loads(out.read_text()))
    assert improved.k == c.k


def test_transform_improve_prints_only_the_document(tmp_path, capsys):
    # without --out, stdout is the coloring document and nothing else
    c = build(FamilyKind.ONE_FACTOR, 6)
    path = _write_doc(tmp_path, c)
    assert run(["transform", "--family", "f1", "--input", path, "--op", "improve"]) == 0
    captured = capsys.readouterr()
    assert coloring_from_document(json.loads(captured.out)) == c
    assert captured.err.startswith("moves=0 ")


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
        "--vertices", "1,2,99",
    ]) == 2  # vertex outside 1..n
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    pytest.param(["--op", "recolor"], id="recolor-without-vertices"),
    pytest.param(["--op", "improve", "--vertices", "1,2,3"], id="improve-with-vertices"),
    pytest.param(["--vertices", "1,2,3"], id="default-improve-with-vertices"),
])
def test_transform_vertices_only_with_recolor(tmp_path, capsys, argv):
    # refused before the input is read: a missing file gives the same error
    written = _write_doc(tmp_path, build(FamilyKind.TWO_FACTOR, 6))
    for path in (written, str(tmp_path / "missing.json")):
        assert run(["transform", "--family", "f2", "--input", path, *argv]) == 2
        assert capsys.readouterr() == (
            "", "error: --vertices x,y,z goes with --op recolor, and only with it\n"
        )


_FUZZ_NS = {"f1": (4, 6), "f2": (3, 4, 5, 6), "hc": (3, 4, 5, 6)}
_NON_INT = (None, True, 2.5, "1", [1], {})


def _random_document(rng, n):
    """A well-formed document: every edge once, a tight random palette."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    k = rng.randint(1, len(pairs))
    colors = list(range(1, k + 1)) + [rng.randint(1, k) for _ in range(len(pairs) - k)]
    rng.shuffle(colors)
    return {"n": n, "k": k, "edges": [[i, j, col] for (i, j), col in zip(pairs, colors)]}


def _malform(rng, doc):
    """One random defect that the document parser must reject."""
    n, k, edges = doc["n"], doc["k"], doc["edges"]
    idx = rng.randrange(len(edges))
    i, j, _ = edges[idx]
    case = rng.randrange(11)
    if case == 0:
        return rng.choice([None, 7, "doc", [n, k, edges]])
    if case == 1:
        del doc[rng.choice(["n", "k", "edges"])]
    elif case == 2:
        doc[rng.choice(["n", "k"])] = rng.choice(_NON_INT)
    elif case == 3:
        doc["edges"] = rng.choice([None, 3, "edges", {}])
    elif case == 4:
        del edges[idx]
    elif case == 5:
        edges.append(list(edges[idx]))
    elif case == 6:
        edges[idx] = rng.choice([None, 5, "121", {}, [i, j], [i, j, 1, 1]])
    elif case == 7:
        edges[idx][rng.randrange(3)] = rng.choice(_NON_INT)
    elif case == 8:
        edges[idx][:2] = rng.choice([[j, i], [0, j], [i, n + 1], [i, i]])
    elif case == 9:
        edges[idx][2] = rng.choice([0, -1, k + 1])
    else:
        edges[idx] = list(edges[(idx + 1) % len(edges)])  # duplicate, count kept
    return doc


def test_verify_fuzzed_documents(tmp_path, capsys):
    rng = random.Random(2016)
    path = tmp_path / "fuzz.json"
    seen = set()
    for _ in range(300):
        family = rng.choice(sorted(_FUZZ_NS))
        doc = _random_document(rng, rng.choice(_FUZZ_NS[family]))
        malformed = rng.random() < 0.5
        text = json.dumps(_malform(rng, doc) if malformed else doc)
        if malformed and rng.random() < 0.1:
            text = text[: rng.randrange(len(text))]  # truncated JSON
        path.write_text(text)
        code = run(["verify", "--family", family, "--input", str(path)])
        capsys.readouterr()
        assert (code == 2) if malformed else (code in (0, 1)), (family, text)
        seen.add(code)
    assert seen == {0, 1, 2}


class _Row(list):
    """An edge entry of a list subclass; the parser accepts it like a list."""


def _variant(rng, doc):
    """A document reshaped in a way the random malformations do not reach:
    shuffled entries, list-subclass or tuple entries, a bool or float in
    any field, or a gapped palette."""
    edges = doc["edges"]
    case = rng.randrange(6)
    if case == 0:
        rng.shuffle(edges)
    elif case == 1:
        for idx in rng.sample(range(len(edges)), rng.randint(1, len(edges))):
            edges[idx] = _Row(edges[idx])
    elif case == 2:
        idx = rng.randrange(len(edges))
        edges[idx] = tuple(edges[idx])
    elif case == 3:
        field = rng.choice(["n", "k", 0, 1, 2])
        if field in ("n", "k"):
            value = doc[field]
            doc[field] = rng.choice([value == 1, float(value), value + 0.5])
        else:
            entry = edges[rng.randrange(len(edges))]
            value = entry[field]
            entry[field] = rng.choice([value == 1, True, False, float(value), value + 0.5])
    elif case == 4:
        # shift every color from a random one up, leaving a gap
        gap = rng.randint(1, doc["k"])
        for entry in edges:
            entry[2] += entry[2] >= gap
        doc["k"] += rng.choice([0, 1])
    else:
        edges.reverse()
    return doc


def _parse_outcome(parse, doc):
    try:
        return parse(doc)
    except CliError as exc:
        return ("CliError", str(exc))


def _reshapeable(doc):
    """Whether _malform and _variant can take doc: int n and k, and a
    nonempty edge list of entries with three int fields."""
    return (
        isinstance(doc, dict)
        and type(doc.get("n")) is int and type(doc.get("k")) is int
        and isinstance(doc.get("edges"), list) and len(doc["edges"]) > 0
        and all(isinstance(e, list) and len(e) == 3 and all(type(x) is int for x in e)
                for e in doc["edges"])
    )


def test_parser_matches_per_entry_oracle():
    rng = random.Random(1016)
    outcomes = set()
    for _ in range(3000):
        doc = _random_document(rng, rng.randint(2, 12))
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            if not _reshapeable(doc):
                break
            doc = (_malform if rng.random() < 0.5 else _variant)(rng, doc)
        want = _parse_outcome(oracle_coloring_from_document, copy.deepcopy(doc))
        got = _parse_outcome(coloring_from_document, doc)
        assert got == want, doc
        outcomes.add("ok" if isinstance(want, EdgeColoring) else want[1].split(" ")[0])
    # every kind of outcome occurs: accepted, and each rejection message
    assert outcomes == {"ok", "bad", "color", "duplicate", "palette", "expected",
                        "edge", "n", "k", "malformed", "edges"}, outcomes


# pair-order documents, as coloring_to_document writes them, are read by one
# comparison against K_n's endpoint columns; any other order is scattered

def _pair_order_doc(n=8):
    return coloring_to_document(build(F1, n))


@pytest.mark.parametrize("entry, field, value", [
    pytest.param(3, 0, True, id="true-first-endpoint"),
    pytest.param(3, 0, 1.0, id="float-first-endpoint"),
    pytest.param(0, 1, 2.0, id="float-second-endpoint"),
    pytest.param(9, 1, 5.0, id="float-second-endpoint-later-row"),
    pytest.param(6, 2, True, id="true-color"),
])
def test_pair_order_document_rejects_non_int_equal_values(entry, field, value):
    doc = _pair_order_doc()
    assert doc["edges"][entry][field] == value
    doc["edges"][entry][field] = value
    with pytest.raises(CliError, match=rf"^edge entry must be an integer, got {value!r}$"):
        coloring_from_document(doc)


@pytest.mark.parametrize("color", [0, -1, 4, 99])
def test_pair_order_document_checks_color_range(color):
    doc = _pair_order_doc()
    doc["edges"][20][2] = color
    with pytest.raises(CliError, match=rf"^color {color} outside 1\.\.3$"):
        coloring_from_document(doc)


@pytest.mark.parametrize("a, b", [
    pytest.param(1, 4, id="same-first-endpoint"),
    pytest.param(5, 12, id="rows-1-and-2"),
    pytest.param(0, 27, id="first-and-last"),
])
def test_swapped_pairs_take_the_scatter_path(a, b):
    c = build(F1, 8).recolored(1, 3, 3)
    doc = coloring_to_document(c)
    edges = doc["edges"]
    edges[a], edges[b] = edges[b], edges[a]
    assert coloring_from_document(doc) == c
    assert oracle_coloring_from_document(copy.deepcopy(doc)) == c


def test_repeated_pair_in_pair_order_rows_is_rejected():
    # the first column stays K_n's, the second repeats pair (1, 2)
    doc = _pair_order_doc()
    doc["edges"][1] = [1, 2, doc["edges"][1][2]]
    with pytest.raises(CliError, match=r"^duplicate edge \(1, 2\)$"):
        coloring_from_document(doc)


def test_shuffled_document_reads_as_its_pair_order_twin():
    c = build(F1, 128).recolored(5, 77, 1)
    doc = coloring_to_document(c)
    shuffled = copy.deepcopy(doc)
    random.Random(19).shuffle(shuffled["edges"])
    assert shuffled["edges"] != doc["edges"]
    assert coloring_from_document(shuffled) == coloring_from_document(doc) == c
