"""Palette formulas, class sizes, and the three concrete colorings."""

from __future__ import annotations

import pytest

from polykn import (
    FamilyKind,
    VertexOrdering,
    build,
    build_ordered,
    class_sizes,
    inherited_coloring,
    is_unitary,
    majority_certificate,
    palette_size,
)
from polykn.constructions import check_n
from helpers import ref_palette_size

F1 = FamilyKind.ONE_FACTOR
F2 = FamilyKind.TWO_FACTOR
HC = FamilyKind.HAMILTONIAN_CYCLE


def test_members_along_a_sequence():
    # degree 1 pairs consecutive vertices; degree 2 closes the cycle
    assert [kind.degree for kind in (F1, F2, HC)] == [1, 2, 2]
    assert F1.along([3, 1, 4, 2]) == [(3, 1), (4, 2)]
    for kind in (F2, HC):
        assert kind.along([3, 1, 4]) == [(3, 1), (1, 4), (4, 3)]


@pytest.mark.parametrize("kind, bad, good", [
    (F1, (0, 1, 3, 7), (2, 4)), (F2, (0, 1, 2), (3, 4)), (HC, (0, 1, 2), (3, 5)),
], ids=["f1", "f2", "hc"])
def test_check_n_needs_n_past_the_degree_and_an_even_degree_sum(kind, bad, good):
    message = "1-factors need even n >= 2" if kind is F1 else "2-factors and Hamiltonian cycles need n >= 3"
    for n in bad:
        with pytest.raises(ValueError, match=message):
            check_n(kind, n)
    for n in good:
        check_n(kind, n)


@pytest.mark.parametrize(
    "kind,n,want",
    [
        (F1, 8, 3),
        (F1, 2, 1),
        (F1, 16, 4),
        (F2, 15, 5),
        (F2, 3, 3),
        (F2, 7, 4),
        (HC, 13, 5),
        (HC, 3, 2),
        (HC, 7, 4),
    ],
)
def test_palette_size_examples(kind, n, want):
    assert palette_size(kind, n) == want


def test_palette_size_matches_bitlength_formulas():
    for n in range(2, 2000, 2):
        assert palette_size(F1, n) == n.bit_length() - 1
    for n in range(3, 2000):
        assert palette_size(F2, n) == (2 * (n + 1)).bit_length() - 1
        assert palette_size(HC, n) == ((8 * (n - 1)) // 3).bit_length() - 1


def test_palette_size_matches_stepped_inequalities():
    for kind in FamilyKind:
        for n in range(2, 4097, 2) if kind is F1 else range(3, 4097):
            assert palette_size(kind, n) == ref_palette_size(kind, n), (kind, n)


def test_palette_size_rejects_bad_n():
    with pytest.raises(ValueError):
        palette_size(F1, 7)
    with pytest.raises(ValueError):
        palette_size(F1, 0)
    with pytest.raises(ValueError):
        palette_size(F2, 2)
    with pytest.raises(ValueError):
        palette_size(HC, 2)


def test_family_parse():
    assert FamilyKind.parse("HC") is HC and FamilyKind.parse("f2") is F2
    with pytest.raises(ValueError, match=r"^unknown family 'f3' \(expected f1, f2 or hc\)$"):
        FamilyKind.parse("f3")


def test_class_sizes_sum_to_n_up_to_1e4():
    for n in range(2, 10_001, 2):
        assert sum(class_sizes(F1, n)) == n
    for n in range(3, 10_001):
        assert sum(class_sizes(F2, n)) == n
        assert sum(class_sizes(HC, n)) == n


def test_class_size_examples():
    assert class_sizes(F1, 10) == (1, 2, 7)
    assert class_sizes(F2, 15) == (1, 1, 1, 4, 8)
    assert class_sizes(HC, 13) == (1, 1, 1, 3, 7)
    assert class_sizes(F2, 3) == (1, 1, 1)
    assert class_sizes(HC, 3) == (1, 2)
    assert class_sizes(F2, 7) == (1, 1, 1, 4)
    assert class_sizes(HC, 12) == (1, 1, 1, 9)


def test_last_class_dominates():
    for n in range(2, 600, 2):
        sizes = class_sizes(F1, n)
        for t in range(len(sizes)):
            assert sum(sizes[:t]) < sizes[t]
    for kind in (F2, HC):
        for n in range(3, 600):
            sizes = class_sizes(kind, n)
            k = len(sizes)
            for t in range(3, k):
                assert sizes[t] >= sum(sizes[:t])
            if kind is HC and k >= 4:
                assert sizes[k - 1] > sum(sizes[: k - 1])


def test_build_one_factor_layout():
    c = build(F1, 10)
    assert c.k == 3
    # every edge takes the block color of its left endpoint
    blocks = [1] * 1 + [2] * 2 + [3] * 7
    for (i, j, col) in c.edges():
        assert col == blocks[i - 1]


def test_build_two_factor_rainbow_triple():
    for n in (4, 7, 15):
        c = build(F2, n)
        assert c.color(1, 3) == 3
        assert is_unitary(c, 1) == (1, 3, 3)
        assert is_unitary(c, 2) == (2, 1, 1)
        assert is_unitary(c, 3) == (3, 2, 2)
        triangle = {c.color(1, 2), c.color(1, 3), c.color(2, 3)}
        assert triangle == {1, 2, 3}


def test_build_small_cases():
    rainbow = build(F2, 3)
    assert rainbow.k == 3
    assert {rainbow.color(1, 2), rainbow.color(1, 3), rainbow.color(2, 3)} == {1, 2, 3}
    tiny_hc = build(HC, 3)
    assert tiny_hc.k == 2
    c13 = build(HC, 13)
    assert c13.k == 5 and c13.color(1, 3) == 3


def test_build_palette_matches_formula():
    for n in range(2, 41, 2):
        assert build(F1, n).k == palette_size(F1, n)
    for n in range(3, 41):
        assert build(F2, n).k == palette_size(F2, n)
        assert build(HC, n).k == palette_size(HC, n)


def test_build_ordered_definition_unrolled():
    c = build_ordered((1, 2, 2, 2))
    assert [c.color(1, j) for j in (2, 3, 4)] == [1, 1, 1]
    assert c.color(2, 3) == 2 and c.color(2, 4) == 2 and c.color(3, 4) == 2


def test_build_ordered_round_trip():
    for n in (4, 8, 12):
        c = build(F1, n)
        ic = inherited_coloring(c, VertexOrdering.identity(n))
        assert build_ordered(ic.sequence) == c


def test_build_ordered_overrides_last_entry():
    assert build_ordered((1, 2, 3, 9)) == build_ordered((1, 2, 3, 3))
    with pytest.raises(ValueError):
        build_ordered((1,))


def test_build_ordered_strict_failure_fixture():
    c = build_ordered((1, 1, 2, 2))
    ic = inherited_coloring(c, VertexOrdering.identity(4))
    cert = majority_certificate(ic, strict=True)
    assert cert.entry(2).status == "fails"
