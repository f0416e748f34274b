"""Core data model: colorings, orderings, unitary structure, certificates."""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

from polykn import (
    EdgeColoring,
    FamilyKind,
    InheritedColoring,
    VertexOrdering,
    build,
    build_ordered,
    class_sizes,
    comb_certificate,
    inherited_coloring,
    is_ordered_at,
    is_unitary,
    majority_certificate,
)
from polykn.core import all_edges
from polykn.transforms import recolor_unitary_triple
from polykn.verify import PREFIX_RULES
from helpers import (
    all_ordered_colorings,
    oracle_combed,
    ordered_from_seq,
    permute_vertices,
    plant_unitary_quad,
    ref_all_edges,
    ref_comb_certificate,
    ref_from_pairs,
    ref_is_ordered_at,
    ref_is_unitary,
    ref_vertex_color_counts,
    truly_unitary_set,
)

F1 = FamilyKind.ONE_FACTOR
F2 = FamilyKind.TWO_FACTOR
HC = FamilyKind.HAMILTONIAN_CYCLE


def test_edge_coloring_validation():
    with pytest.raises(ValueError):
        EdgeColoring.from_pairs(4, {(1, 2): 1})  # missing edges
    with pytest.raises(ValueError):
        EdgeColoring.from_pairs(2, {(2, 1): 1})  # endpoints out of order
    with pytest.raises(ValueError):
        EdgeColoring.from_pairs(2, {(1, 2): 0})  # colors start at 1


def test_pair_constructors_match_per_pair_reference():
    rng = random.Random(4040)
    for n in range(2, 41):
        pairs = ref_all_edges(n)
        assert all_edges(n) == pairs
        for _ in range(3):
            kmax = rng.randint(1, 6)
            colors = [rng.randint(1, kmax) for _ in pairs]
            order = list(range(len(pairs)))
            rng.shuffle(order)
            mapping = {pairs[t]: colors[t] for t in order}  # shuffled insertion
            c = EdgeColoring.from_pairs(n, mapping)
            assert c == ref_from_pairs(n, mapping)
            assert list(c.edges()) == [(i, j, c.color(i, j)) for (i, j) in pairs]


def test_pair_constructor_errors_match_per_pair_reference():
    for n in (0, 1):
        with pytest.raises(ValueError, match="^need at least 2 vertices$"):
            EdgeColoring.from_pairs(n, {})
    with pytest.raises(ValueError, match=r"^expected 1 edges, got 0$"):
        EdgeColoring.from_pairs(-1, {})
    with pytest.raises(ValueError, match=r"^bad edge \(1, 2\)$"):
        EdgeColoring.from_pairs(-1, {(1, 2): 1})
    with pytest.raises(ValueError, match=r"^bad edge \(3, 2\)$"):
        EdgeColoring.from_pairs(3, {(1, 2): 1, (3, 2): 1, (1, 3): 1})
    rng = random.Random(4041)
    for n in range(2, 9):
        pairs = ref_all_edges(n)
        for _ in range(20):
            mapping = {pair: rng.randint(0, 3) for pair in pairs}
            for _ in range(rng.randint(0, 2)):
                del mapping[rng.choice(list(mapping))]
                i, j = rng.choice([(2, 1), (0, 1), (1, 1), (1, n + 1), (n, n + 1)])
                mapping[(i, j)] = 1
            try:
                want = ref_from_pairs(n, mapping)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    EdgeColoring.from_pairs(n, mapping)
            else:
                assert EdgeColoring.from_pairs(n, mapping) == want


def test_flat_constructor_validates_and_compacts():
    with pytest.raises(ValueError):
        EdgeColoring.from_colors(3, [1, 1])  # one edge short
    with pytest.raises(ValueError):
        EdgeColoring.from_colors(3, [1, 0, 1])  # colors start at 1
    with pytest.raises(ValueError):
        EdgeColoring.from_colors(1, [])
    c = EdgeColoring.from_colors(3, [5, 9, 5])
    assert (c.k, c.colors) == (2, (1, 2, 1))
    assert c == EdgeColoring.from_pairs(3, {(1, 2): 5, (1, 3): 9, (2, 3): 5})
    assert c == EdgeColoring.from_function(3, lambda i, j: 9 if (i, j) == (1, 3) else 5)


def test_direct_constructor_checks_size_and_length():
    # the checks from_colors relies on hold for a direct construction too
    for n in (0, 1):
        with pytest.raises(ValueError, match="^need at least 2 vertices$"):
            EdgeColoring(n, 1, ())
    with pytest.raises(ValueError, match=r"^expected 6 edges, got 5$"):
        EdgeColoring(4, 2, (1,) * 5)
    with pytest.raises(ValueError, match=r"^expected 6 edges, got 7$"):
        EdgeColoring(4, 2, (1, 2) * 3 + (1,))
    with pytest.raises(ValueError, match=r"^expected 3 edges, got 2$"):
        EdgeColoring.from_colors(3, [1, 1])
    assert EdgeColoring(4, 2, (1, 2) * 3) == EdgeColoring.from_colors(4, [1, 2] * 3)


def test_from_colors_reads_k_off_the_colors():
    # direct construction trusts k (EdgeColoring(4, 1, (1, 2) * 3) and
    # EdgeColoring(4, 3, (1,) * 6) are accepted); the checked constructor
    # gives these color tuples their true palettes
    for colors, k in (((1, 2, 1, 2, 1, 2), 2), ((1,) * 6, 1)):
        c = EdgeColoring.from_colors(4, colors)
        assert (c.k, c.colors) == (k, colors)


def test_palette_compaction_and_idempotence():
    c = EdgeColoring.from_pairs(3, {(1, 2): 5, (1, 3): 9, (2, 3): 5})
    assert c.k == 2
    assert c.color(1, 2) == 1 and c.color(1, 3) == 2
    assert EdgeColoring.from_colors(c.n, c.colors) == c


def test_recolored_stays_canonical():
    c = build(F1, 6)
    d = c.recolored(5, 6, 1)
    assert d.color(5, 6) == 1
    assert d.color(1, 2) == c.color(1, 2)
    # dropping the last edge of a color compacts the palette
    mono = EdgeColoring.from_pairs(3, {(1, 2): 1, (1, 3): 1, (2, 3): 2})
    assert mono.recolored(2, 3, 1).k == 1
    assert mono.recolored(3, 2, 7).colors == (1, 1, 2)
    for bad in ((2, 2, 1), (0, 3, 1), (3, 4, 1), (1, 2, 0)):
        with pytest.raises(ValueError):
            mono.recolored(*bad)


def test_is_ordered_at_main_colors():
    c = build(F1, 10)
    o = VertexOrdering.identity(10)
    assert is_ordered_at(c, o, 1) == 1
    # the last two positions report the color of the final edge
    assert is_ordered_at(c, o, 10) == c.color(9, 10)
    assert is_ordered_at(c, o, 9) == c.color(9, 10)


def test_is_ordered_at_rejects_recolored_vertex():
    c = build(F2, 15)
    o = VertexOrdering.identity(15)
    # v1's edge to v3 was recolored, so v1 is not ordered at position 1
    assert is_ordered_at(c, o, 1) is None
    assert is_ordered_at(c, o, 2) == 2


def test_is_unitary_examples():
    c = build(F2, 15)
    assert is_unitary(c, 1) == (1, 3, 3)
    assert is_unitary(c, 2) == (2, 1, 1)
    assert is_unitary(c, 3) == (3, 2, 2)
    assert is_unitary(c, 4) is None
    mono = EdgeColoring.from_function(4, lambda i, j: 1)
    assert all(is_unitary(mono, v) is None for v in range(1, 5))


def test_is_unitary_requires_partner_count():
    # v1 has the right shape but its partner has n-1 edges of the color
    c = EdgeColoring.from_pairs(
        4, {(1, 2): 1, (1, 3): 1, (1, 4): 2, (2, 4): 2, (3, 4): 2, (2, 3): 1}
    )
    assert is_unitary(c, 1) is None


def test_comb_certificate_constructions():
    ic = comb_certificate(build(F1, 10))
    assert ic is not None
    assert ic.class_sizes() == (1, 2, 7)
    assert not ic.unitary_set
    for n in range(2, 31, 2):
        ic = comb_certificate(build(F1, n))
        assert ic is not None and ic.class_sizes() == class_sizes(F1, n)
    for kind in (F2, HC):
        for n in range(3, 31):
            ic = comb_certificate(build(kind, n))
            assert ic is not None
            assert ic.class_sizes() == class_sizes(kind, n)


def test_comb_certificate_rainbow_triangle():
    c = EdgeColoring.from_pairs(3, {(1, 2): 1, (1, 3): 3, (2, 3): 2})
    ic = comb_certificate(c)
    assert ic is not None
    assert len(ic.unitary_set) == 3
    assert sorted(u.main for u in ic.unitary_set) == [1, 2, 3]


def test_comb_certificate_crossed_quad():
    # four unitary vertices in two crossed pairs
    c = EdgeColoring.from_pairs(
        4, {(1, 2): 1, (1, 4): 1, (2, 3): 1, (1, 3): 2, (2, 4): 2, (3, 4): 2}
    )
    ic = comb_certificate(c)
    assert ic is not None
    assert len(ic.unitary_set) == 4
    assert sorted(u.main for u in ic.unitary_set) == [1, 1, 2, 2]


def test_comb_certificate_not_combed_is_none():
    rng = random.Random(99)
    rejected = 0
    for _ in range(300):
        c = EdgeColoring.from_function(6, lambda i, j: rng.randint(1, 3))
        if truly_unitary_set(c):
            continue
        got = comb_certificate(c)
        if got is None:
            # confirm by exhausting all 720 orderings
            assert not oracle_combed(c)
            rejected += 1
            if rejected >= 5:
                return
    raise AssertionError("no non-combed random coloring found")


def test_comb_certificate_agrees_with_exhaustive_oracle():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.choice([4, 5])
        kmax = rng.choice([2, 3, 4])
        c = EdgeColoring.from_function(n, lambda i, j: rng.randint(1, kmax))
        got = comb_certificate(c)
        assert (got is not None) == oracle_combed(c)
        if got is not None:
            # replay the certificate against the definitions
            for p in range(1, n + 1):
                v = got.ordering.vertex_at(p)
                ordered = is_ordered_at(c, got.ordering, p)
                assert ordered is not None or v in {u.vertex for u in got.unitary_set}


def test_inherited_coloring_examples():
    ic = inherited_coloring(build(HC, 13), VertexOrdering.identity(13))
    assert ic.class_sizes() == (1, 1, 1, 3, 7)
    two = inherited_coloring(
        EdgeColoring.from_pairs(2, {(1, 2): 1}), VertexOrdering.identity(2)
    )
    assert two.class_sizes() == (2,)
    ic15 = inherited_coloring(build(F2, 15), VertexOrdering.identity(15))
    assert [v for v, t in zip(ic15.ordering.order, ic15.sequence) if t == 4] == [4, 5, 6, 7]


def test_inherited_coloring_rejects_invalid_ordering():
    c = build(F2, 15)
    bad = VertexOrdering(tuple([4] + [v for v in range(1, 16) if v != 4]))
    with pytest.raises(ValueError):
        inherited_coloring(c, bad)


def test_inherited_coloring_rejects_ordering_of_other_size():
    c = build(F1, 6)
    for m in (5, 7):
        with pytest.raises(ValueError, match=rf"^ordering has {m} vertices, coloring has 6$"):
            inherited_coloring(c, VertexOrdering.identity(m))


def test_is_ordered_at_rejects_ordering_of_other_size():
    c = build_ordered((1, 1, 2, 2, 2, 2))
    for m in (4, 8):
        with pytest.raises(ValueError, match=rf"^ordering has {m} vertices, coloring has 6$"):
            is_ordered_at(c, VertexOrdering.identity(m), 1)
    assert is_ordered_at(c, VertexOrdering.identity(6), 1) == 1


def test_inherited_invariants_on_exhaustive_ordered():
    for n in (4, 6):
        for c in all_ordered_colorings(n):
            ic = inherited_coloring(c, VertexOrdering.identity(n))
            sizes = ic.class_sizes()
            assert sum(sizes) == n
            assert len(ic.unitary_set) in (0, 3, 4)
            # the last two positions share a main color
            assert ic.sequence[n - 1] == ic.sequence[n - 2]


def test_prefix_counts_match_direct_recount():
    c = build(F2, 15)
    ic = inherited_coloring(c, VertexOrdering.identity(15))
    unitary = {u.vertex: u.main for u in ic.unitary_set}
    for t in range(1, ic.k + 1):
        running = 0
        for j in range(1, 16):
            v = ic.ordering.vertex_at(j)
            main = unitary.get(v) or ref_is_ordered_at(c, ic.ordering, j)
            running += 1 if main == t else 0
            assert ic.sequence[:j].count(t) == running


def test_majority_certificate_strict_examples():
    ic = inherited_coloring(build_ordered((1, 1, 2, 2)), VertexOrdering.identity(4))
    cert = majority_certificate(ic, strict=True)
    assert cert.entry(1).status == "prefix" and cert.entry(1).j == 1
    assert cert.entry(2).status == "fails"

    ic2 = inherited_coloring(build_ordered((1, 2, 2, 2)), VertexOrdering.identity(4))
    cert2 = majority_certificate(ic2, strict=True)
    assert cert2.entry(1).j == 1
    assert cert2.entry(2).j == 3
    assert cert2.complete


def test_majority_certificate_weak_unitary_flags():
    ic = comb_certificate(build(F2, 15))
    cert = majority_certificate(ic, strict=False)
    assert [cert.entry(t).status for t in (1, 2, 3)] == ["unitary"] * 3
    assert cert.entry(4).status == "prefix"
    assert cert.entry(5).status == "prefix"


def test_majority_monotone_strict_implies_weak():
    for seq_coloring in all_ordered_colorings(6):
        ic = inherited_coloring(seq_coloring, VertexOrdering.identity(6))
        strict = majority_certificate(ic, strict=True)
        weak = majority_certificate(ic, strict=False)
        for t in range(1, ic.k + 1):
            if strict.entry(t).status == "prefix":
                assert weak.entry(t).status in ("prefix", "unitary")
                if weak.entry(t).status == "prefix":
                    assert weak.entry(t).j <= strict.entry(t).j


def test_majority_moments_match_per_prefix_recount():
    # each color's moment under the 1-factor (s = 1) and Hamiltonian-cycle
    # (s = 0) prefix rules is the smallest j at which its count in the first
    # j positions, recounted from scratch, meets 2|M_t(j)| >= j + s
    rng = random.Random(2121)
    seqs = [(), (1,), (2, 2, 2, 2), (1, 2), (1, 1, 1)]
    for _ in range(300):
        k = rng.randint(1, 5)
        seqs.append(tuple(rng.randint(1, k) for _ in range(rng.randint(1, 14))))
    for seq in seqs:
        for s in (0, 1):
            want = {}
            for t in set(seq):
                js = [j for j in range(1, len(seq) + 1) if 2 * seq[:j].count(t) >= j + s]
                if js:
                    want[t] = min(js)
            assert PREFIX_RULES[F1 if s else HC].walk(len(seq) + 1, seq)[1] == want, (seq, s)


def test_ordering_validation():
    with pytest.raises(ValueError):
        VertexOrdering((1, 1, 2))
    o = VertexOrdering((3, 1, 2))
    assert o.vertex_at(1) == 3


def test_derived_caches_are_not_constructor_parameters():
    # positions and prefix counts are always computed, never taken on trust
    with pytest.raises(TypeError):
        VertexOrdering((2, 1, 3), positions=(0, 1, 2, 3))
    ic = inherited_coloring(build(F2, 7), VertexOrdering.identity(7))
    wrong = tuple((0,) * 8 for _ in range(ic.k))
    with pytest.raises(TypeError):
        InheritedColoring(ic.coloring, ic.ordering, ic.sequence, ic.unitary_set, _prefix=wrong)


def test_lookup_bounds_and_tiny_cases():
    c = build(F1, 4)
    with pytest.raises(ValueError):
        c.color(2, 2)
    with pytest.raises(ValueError):
        c.color(0, 3)
    with pytest.raises(ValueError):
        is_ordered_at(c, VertexOrdering.identity(4), 5)
    with pytest.raises(ValueError):
        is_unitary(EdgeColoring.from_pairs(2, {(1, 2): 1}), 1)
    two = comb_certificate(EdgeColoring.from_pairs(2, {(1, 2): 1}))
    assert two is not None and two.class_sizes() == (2,)


def test_vertex_reads_reject_out_of_range_vertices():
    c = build(F2, 7)
    for v in (0, c.n + 1):
        with pytest.raises(ValueError, match="vertex out of range"):
            c.color(v, 3)
        with pytest.raises(ValueError):
            is_unitary(c, v)


def test_ordering_and_prefix_reads_reject_out_of_range():
    # no read wraps around to the other end of a tuple
    o = VertexOrdering((2, 1, 3))
    for p in (0, -1, 4):
        with pytest.raises(ValueError, match="position"):
            o.vertex_at(p)
    ic = comb_certificate(build(F2, 7))
    assert ic.sequence[:0].count(ic.k) == 0 and ic.sequence.count(1) == ic.class_sizes()[0]
    for t in (0, -1, ic.k + 1):
        with pytest.raises(ValueError, match="color"):
            majority_certificate(ic, strict=False).entry(t)


def _differential_colorings(rng):
    """Seeded colorings at n = 3..14: uniformly random ones, and combed ones
    under shuffled labels, some with a planted unitary triple or quad and
    some with one edge recolored afterwards."""
    for n in range(3, 15):
        for _ in range(12):
            kmax = rng.choice([2, 3, 4])
            yield EdgeColoring.from_function(n, lambda i, j: rng.randint(1, kmax))
        for _ in range(24):
            kmax = rng.choice([2, 3, 4, 5])
            c = build_ordered([rng.randint(1, kmax) for _ in range(n)])
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            c = permute_vertices(c, dict(zip(range(1, n + 1), perm)))
            plant = rng.choice(["triple", "quad", None])
            if plant == "triple" and c.k >= 3:
                c = recolor_unitary_triple(c, *rng.sample(range(1, n + 1), 3))
            elif plant == "quad" and n >= 4 and c.k >= 2:
                a, b = rng.sample(range(1, c.k + 1), 2)
                c = plant_unitary_quad(c, *rng.sample(range(1, n + 1), 4), a, b)
            if rng.random() < 0.3:
                i, j = sorted(rng.sample(range(1, n + 1), 2))
                c = c.recolored(i, j, rng.randint(1, c.k))
            yield c


def test_combing_layer_matches_per_pair_reference():
    rng = random.Random(2024)
    combed = unitary = 0
    for c in _differential_colorings(rng):
        n = c.n
        for v in range(1, n + 1):
            counts = Counter({t: row[v].bit_count() for t, row in enumerate(c.color_masks) if row[v]})
            assert counts == ref_vertex_color_counts(c, v)
            assert is_unitary(c, v) == ref_is_unitary(c, v)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        o = VertexOrdering(tuple(perm))
        for p in range(1, n + 1):
            assert is_ordered_at(c, o, p) == ref_is_ordered_at(c, o, p)
        got = comb_certificate(c)
        want = ref_comb_certificate(c)
        if got is None:
            assert want is None
            continue
        assert want is not None
        unit = tuple(tuple(u) for u in got.unitary_set)
        assert (got.ordering.order, got.sequence, unit) == want
        combed += 1
        unitary += bool(unit)
    # the data reaches both verdicts and both unitary shapes
    assert combed > 100 and unitary > 50


def test_comb_certificate_and_inherited_coloring_write_one_layout():
    # both constructors store the mains in position order: re-reading the
    # comb walk's ordering gives back the same certificate
    rng = random.Random(515)
    combed = 0
    for c in _differential_colorings(rng):
        ic = comb_certificate(c)
        if ic is not None:
            assert inherited_coloring(c, ic.ordering) == ic, c.colors
            combed += 1
    assert combed > 100
    # the sizes of the bench's built ladder (bench/workloads.py LADDER)
    ladder = {F1: (128, 256, 512), F2: (15, 23, 31), HC: (13, 18, 19, 24, 32)}
    for kind, sizes in ladder.items():
        for n in sizes:
            c = build(kind, n)
            ic = comb_certificate(c)
            assert inherited_coloring(c, ic.ordering) == ic, (kind, n)


def test_prefix_counts_match_per_position_recount():
    rng = random.Random(77)
    combed = 0
    for c in _differential_colorings(rng):
        ic = comb_certificate(c)
        if ic is None:
            continue
        combed += 1
        n = ic.n
        unitary = {u.vertex: u.main for u in ic.unitary_set}
        mains = [unitary.get(v) or ref_is_ordered_at(c, ic.ordering, p)
                 for p, v in enumerate(ic.ordering.order, start=1)]
        for t in range(1, ic.k + 1):
            count = 0
            for j in range(n + 1):
                if j:
                    count += mains[j - 1] == t
                got = ic.sequence[:j].count(t)
                assert got == count and type(got) is int, (c.colors, t, j)
    assert combed > 100
    ic = inherited_coloring(build(F2, 7), VertexOrdering.identity(7))
    for bad in (0, ic.k + 1):
        with pytest.raises(ValueError, match="main colors"):
            InheritedColoring(ic.coloring, ic.ordering, (bad,) + ic.sequence[1:], ic.unitary_set)
    with pytest.raises(ValueError, match="^main colors must cover all vertices$"):
        InheritedColoring(ic.coloring, ic.ordering, ic.sequence[1:], ic.unitary_set)
    # build(F2, 7) has a unitary triple; one or two of it is no structure
    assert len(ic.unitary_set) == 3
    for size in (1, 2):
        with pytest.raises(ValueError, match="^unitary vertices always come in groups of 3 or 4$"):
            InheritedColoring(ic.coloring, ic.ordering, ic.sequence, ic.unitary_set[:size])


@pytest.mark.parametrize(
    "kind, n",
    [(F1, n) for n in (128, 256, 512)]
    + [(F2, n) for n in (15, 23, 31)]
    + [(HC, n) for n in (13, 18, 19, 24, 32)],
)
def test_comb_certificate_on_bench_ladder(kind, n):
    ic = comb_certificate(build(kind, n))
    assert ic is not None
    assert ic.class_sizes() == class_sizes(kind, n)
    assert majority_certificate(ic, strict=kind is F1).complete
