"""Twist, 2-switch, max-vertex profiles, triple recoloring, comb improvement."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from polykn import (
    EdgeColoring,
    FamilyKind,
    SubgraphWitness,
    build,
    build_ordered,
    comb_certificate,
    enumerate_members,
    improve_toward_combed,
    is_polychromatic,
    is_unitary,
    max_vertex_profile,
    recolor_unitary_triple,
    twist,
    two_switch,
)
from helpers import (
    ordered_from_seq,
    permute_colors,
    permute_vertices,
    ref_max_vertex_profile,
    ref_recolor_unitary_triple,
    rgs,
    sample_polychromatic,
    triple_from_tail,
)

F1 = FamilyKind.ONE_FACTOR
F2 = FamilyKind.TWO_FACTOR
HC = FamilyKind.HAMILTONIAN_CYCLE


def _disjoint_edge_pairs(edges):
    return [
        (e1, e2)
        for e1, e2 in itertools.combinations(edges, 2)
        if not set(e1) & set(e2)
    ]


def test_twist_example():
    h = SubgraphWitness(HC, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)))
    t = twist(h, (1, 2), (4, 5))
    assert t.edges == tuple(sorted([(1, 4), (3, 4), (2, 3), (2, 5), (5, 6), (1, 6)]))


def test_twist_exhaustive_validity_and_involution():
    for n in (5, 6):
        for h in enumerate_members(HC, n):
            for e1, e2 in _disjoint_edge_pairs(h.edges):
                out = twist(h, e1, e2)
                out.validate(n)
                new_edges = set(out.edges) - set(h.edges)
                assert len(new_edges) == 2
                assert twist(out, *sorted(new_edges)) == h


def test_twist_rejections():
    h = SubgraphWitness(HC, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)))
    with pytest.raises(ValueError):
        twist(h, (1, 2), (2, 3))  # shared vertex
    with pytest.raises(ValueError):
        twist(h, (1, 2), (3, 5))  # not a cycle edge
    pm = SubgraphWitness(F1, ((1, 2), (3, 4)))
    with pytest.raises(ValueError):
        twist(pm, (1, 2), (3, 4))


def test_two_switch_triangles_both_choices():
    f = SubgraphWitness(F2, ((1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)))
    merged0 = two_switch(f, (1, 2), (4, 5), 0)
    merged1 = two_switch(f, (1, 2), (4, 5), 1)
    merged0.validate(6)
    merged1.validate(6)
    assert merged0 != merged1
    # both merge the triangles into one 6-cycle
    assert SubgraphWitness(HC, merged0.edges).validate(6) is None
    assert SubgraphWitness(HC, merged1.edges).validate(6) is None


def test_two_switch_exhaustive_degree_preservation():
    for n in (5, 6):
        for f in enumerate_members(F2, n):
            for e1, e2 in _disjoint_edge_pairs(f.edges):
                for choice in (0, 1):
                    a, b = e1
                    c, d = e2
                    new_pair = [(a, c), (b, d)] if choice == 0 else [(a, d), (b, c)]
                    remaining = [e for e in f.edges if e not in (e1, e2)]
                    legal = all(tuple(sorted(e)) not in remaining for e in new_pair)
                    if legal:
                        out = two_switch(f, e1, e2, choice)
                        out.validate(n)
                    else:
                        with pytest.raises(ValueError):
                            two_switch(f, e1, e2, choice)


def test_two_switch_input_validation():
    pm = SubgraphWitness(FamilyKind.ONE_FACTOR, ((1, 2), (3, 4)))
    with pytest.raises(ValueError):
        two_switch(pm, (1, 2), (3, 4), 0)
    f = SubgraphWitness(F2, ((1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)))
    with pytest.raises(ValueError):
        two_switch(f, (1, 2), (4, 5), 2)  # bad choice
    with pytest.raises(ValueError):
        two_switch(f, (1, 2), (1, 3), 0)  # shared vertex
    with pytest.raises(ValueError):
        two_switch(f, (1, 4), (2, 5), 0)  # edges not in the 2-factor


def test_two_switch_rejects_edge_reuse():
    cycle = SubgraphWitness(F2, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)))
    # choice 1 would re-add (2, 3)
    with pytest.raises(ValueError):
        two_switch(cycle, (1, 2), (3, 4), 1)
    ok = two_switch(cycle, (1, 2), (3, 4), 0)
    ok.validate(6)


def test_max_vertex_profile_monochromatic():
    mono = EdgeColoring.from_function(5, lambda i, j: 1)
    prof = max_vertex_profile(mono, frozenset())
    assert prof.max_degree == 4
    assert prof.max_vertices == (1, 2, 3, 4, 5)
    assert all(s.minority is None for s in prof.stats)


def test_max_vertex_profile_construction():
    c = build(F2, 15)
    prof = max_vertex_profile(c, frozenset())
    s1 = next(s for s in prof.stats if s.vertex == 1)
    assert (s1.degree, s1.color, s1.minority) == (13, 1, 3)


def test_max_vertex_profile_s_t_w_partition():
    # S = {1, 2} are (1,2)-max, T = {3, 4} are (2,1)-max, W = {5, 6}
    mapping = {
        (1, 2): 1, (1, 5): 1, (1, 6): 1, (1, 3): 1, (1, 4): 2,
        (2, 5): 1, (2, 6): 1, (2, 4): 1, (2, 3): 2,
        (3, 4): 2, (3, 5): 2, (3, 6): 2,
        (4, 5): 2, (4, 6): 2,
        (5, 6): 3,
    }
    c = EdgeColoring.from_pairs(6, mapping)
    prof = max_vertex_profile(c, frozenset())
    assert prof.max_degree == 4
    assert prof.s_vertices == (1, 2)
    assert prof.t_vertices == (3, 4)
    assert prof.w_vertices == (5, 6)
    # definition replay: S members have 4 edges of color 1, minority 2
    for v in prof.s_vertices:
        colors = [c.color(v, u) for u in range(1, 7) if u != v]
        assert colors.count(1) == 4 and colors.count(2) == 1


def test_max_vertex_profile_respects_outside_set():
    c = build(F2, 8)
    prof = max_vertex_profile(c, frozenset({1, 2, 3}))
    assert set(s.vertex for s in prof.stats) == {4, 5, 6, 7, 8}
    with pytest.raises(ValueError):
        max_vertex_profile(c, frozenset(range(1, 9)))


def test_max_vertex_profile_matches_pair_scan():
    # popcounts of color_masks against per-pair lookups: seeded colorings
    # with 1..5 colors, one dominant color or two colored halves, ordered
    # ones, and the paper's colorings, each under X empty, a random X and
    # an X that leaves one vertex
    rng = random.Random(15)
    cases = []
    for n in range(2, 15):
        for kmax in (1, 2, 2, 3, 5):
            cases.append(EdgeColoring.from_function(n, lambda i, j: rng.randint(1, kmax)))
        for rare in (2, 3):  # mostly color 1: max-vertices with one minority color
            cases.append(EdgeColoring.from_function(
                n, lambda i, j: 1 if rng.random() < 0.6 else rng.randint(2, rare)))
        for _ in range(6):  # color 1 inside A, 2 inside B, random across: S and T
            A = set(rng.sample(range(1, n + 1), n // 2))
            cases.append(EdgeColoring.from_function(
                n, lambda i, j: rng.randint(1, 2) if (i in A) != (j in A) else 2 - (i in A)))
        cases.append(ordered_from_seq([rng.randint(1, 3) for _ in range(n - 1)]))
        cases += [build(kind, n) for kind in (F1, F2, HC) if (n % 2 == 0 if kind is F1 else n >= 3)]
    split = both = 0
    for c in cases:
        n = c.n
        vs = list(range(1, n + 1))
        lone = rng.choice(vs)
        for X in (frozenset(), frozenset(rng.sample(vs, rng.randint(0, n - 1))),
                  frozenset(vs) - {lone}):
            got = max_vertex_profile(c, X)
            assert got == ref_max_vertex_profile(c, X), (c.colors, sorted(X))
            split += got.s_vertices is not None
            both += bool(got.s_vertices) and bool(got.t_vertices)
    assert split >= 100 and both >= 30  # the S/T/W split is exercised


def test_improve_results_pinned():
    # moves, flags and output colorings of 600 seeded runs, as a digest
    rng = random.Random(2_717)
    results = []
    for _ in range(600):
        c, kind = sample_polychromatic(rng)
        res = improve_toward_combed(c, kind)
        results.append((res.moves, res.combed, res.constant_set_size, res.coloring.colors))
    assert sum(r[0] > 0 for r in results) == 224
    assert hashlib.sha256(repr(results).encode()).hexdigest()[:16] == "2a7e1ccd7089f729"


def test_recolor_unitary_triple_postconditions():
    rng = random.Random(12)
    done = 0
    while done < 100:
        n = rng.choice([5, 6, 7, 8])
        kmax = rng.choice([3, 4])
        c = EdgeColoring.from_function(n, lambda i, j: rng.randint(1, kmax))
        if c.k < 3:
            continue
        done += 1
        verts = rng.sample(range(1, n + 1), 3)
        x, y, z = verts
        out = recolor_unitary_triple(c, x, y, z)
        assert is_unitary(out, x) == (1, 2, y)
        assert is_unitary(out, y) == (2, 3, z)
        assert is_unitary(out, z) == (3, 1, x)
        assert {out.color(x, y), out.color(y, z), out.color(x, z)} == {1, 2, 3}
        assert recolor_unitary_triple(out, x, y, z) == out
        if out.k == c.k:
            for (i, j, col) in c.edges():
                if not {i, j} & {x, y, z}:
                    assert out.color(i, j) == col


def test_recolor_unitary_triple_compacts_the_palette():
    # color 4 lies entirely at the triple, so it vanishes and color 5 shifts down
    c = build_ordered((1, 2, 3, 4, 5, 5, 5, 5))
    out = recolor_unitary_triple(c, 4, 6, 7)
    assert (c.k, c.color(5, 8)) == (5, 5)
    assert (out.k, out.color(5, 8)) == (4, 4)


def test_recolor_unitary_triple_rejections():
    c = build(F2, 6)
    with pytest.raises(ValueError):
        recolor_unitary_triple(c, 1, 1, 2)
    with pytest.raises(ValueError):
        recolor_unitary_triple(c, 1, 2, 7)  # vertex outside 1..6
    two_colors = EdgeColoring.from_function(5, lambda i, j: 1 + (i + j) % 2)
    with pytest.raises(ValueError):
        recolor_unitary_triple(two_colors, 1, 2, 3)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def test_recolor_unitary_triple_matches_dict_build():
    # rewriting the 3(n-1) edges at the triple equals rebuilding every edge,
    # on seeded colorings, on the paper's 2-factor colorings, and on the
    # rejected triples with the same messages
    rng = random.Random(40)
    cases = []
    for n in range(3, 41):
        cases.append(build(F2, n))
        for kmax in (2, 3, 5, 9):
            cases.append(EdgeColoring.from_function(n, lambda i, j: rng.randint(1, kmax)))
    for c in cases:
        n = c.n
        triples = [rng.sample(range(1, n + 1), 3) for _ in range(3)]
        triples += [(1, 2, 3), (n, n - 1, n - 2), (1, 1, 2), (1, 2, n + 1), (0, 1, 2)]
        for x, y, z in triples:
            want = _outcome(ref_recolor_unitary_triple, c, x, y, z)
            assert _outcome(recolor_unitary_triple, c, x, y, z) == want, (c.colors, x, y, z)


def test_recolor_unitary_triple_keeps_polychromaticity_on_max_vertex_fixture():
    # vertex 1 sees only colors {1,2}, vertex 2 only {2,3}, vertex 3 only
    # {3,1}; the off-pattern edge (1,4)=2 disappears under the recoloring
    mapping = {
        (1, 2): 2, (1, 3): 1, (1, 4): 2, (1, 5): 1, (1, 6): 1,
        (2, 3): 3, (2, 4): 2, (2, 5): 2, (2, 6): 2,
        (3, 4): 3, (3, 5): 3, (3, 6): 3,
        (4, 5): 1, (4, 6): 1, (5, 6): 1,
    }
    c = EdgeColoring.from_pairs(6, mapping)
    for kind in (F2, HC):
        assert is_polychromatic(c, kind).polychromatic
        out = recolor_unitary_triple(c, 1, 2, 3)
        assert out != c
        assert out.color(1, 4) == 1
        assert is_polychromatic(out, kind).polychromatic

    # randomized sweep over the same shape: polychromatic inputs stay
    # polychromatic after the recoloring
    rng = random.Random(3)
    allowed_at = {1: (1, 2), 2: (2, 3), 3: (3, 1)}
    for n in (6, 7, 8):
        for _ in range(30):
            draw = {}
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    if (i, j) == (1, 2):
                        draw[(i, j)] = 2
                    elif (i, j) == (2, 3):
                        draw[(i, j)] = 3
                    elif (i, j) == (1, 3):
                        draw[(i, j)] = 1
                    elif i in allowed_at:
                        draw[(i, j)] = rng.choice(allowed_at[i])
                    else:
                        draw[(i, j)] = rng.randint(1, 3)
            rc = EdgeColoring.from_pairs(n, draw)
            if rc.k != 3:
                continue
            for kind in (F2, HC):
                if is_polychromatic(rc, kind).polychromatic:
                    out = recolor_unitary_triple(rc, 1, 2, 3)
                    assert is_polychromatic(out, kind).polychromatic


def test_improve_fixed_point_on_ordered_construction():
    c = build(F1, 8)
    res = improve_toward_combed(c, F1)
    assert res.coloring == c
    assert res.combed and res.moves == 0


def test_improve_reaches_combed_on_perturbed_construction():
    # one safe recoloring away from combed
    base = build(F2, 6)
    c = base.recolored(3, 4, 1)
    assert is_polychromatic(c, F2).polychromatic
    assert comb_certificate(c) is None
    res = improve_toward_combed(c, F2)
    assert res.moves >= 1
    assert res.combed
    assert res.coloring.k == c.k
    assert is_polychromatic(res.coloring, F2).polychromatic


def test_improve_rejects_non_polychromatic_input():
    c = EdgeColoring.from_function(4, lambda i, j: 2 if (i, j) == (1, 2) else 1)
    with pytest.raises(ValueError):
        improve_toward_combed(c, F1)


def test_improve_preserves_poly_and_palette_randomized():
    rng = random.Random(77)
    checked = 0
    while checked < 60:
        n = rng.choice([4, 6])
        seq = tuple(rng.randint(1, 3) for _ in range(n - 1))
        c = EdgeColoring.from_pairs(
            n,
            {
                (i, j): seq[i - 1]
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
            },
        )
        perm = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
        c = permute_vertices(c, perm)
        cperm = dict(zip(range(1, c.k + 1), rng.sample(range(1, c.k + 1), c.k)))
        c = permute_colors(c, cperm)
        kind = rng.choice([F1, F2, HC]) if n % 2 == 0 else rng.choice([F2, HC])
        if not is_polychromatic(c, kind).polychromatic:
            continue
        res = improve_toward_combed(c, kind)
        assert res.coloring.k == c.k
        assert is_polychromatic(res.coloring, kind).polychromatic
        checked += 1
