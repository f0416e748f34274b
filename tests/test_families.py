"""Family engines vs the enumeration oracle and closed-form counts."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from polykn import (
    AllowedGraph,
    CapExceededError,
    EdgeColoring,
    FamilyKind,
    SubgraphWitness,
    enumerate_members,
    find_member,
    find_member_containing,
)
from polykn.core import all_edges
from helpers import double_factorial, two_factor_count_formula

F1 = FamilyKind.ONE_FACTOR
F2 = FamilyKind.TWO_FACTOR
HC = FamilyKind.HAMILTONIAN_CYCLE


def test_allowed_graph_validation():
    with pytest.raises(ValueError):
        AllowedGraph(2, (0, 0b100, 0))  # asymmetric
    with pytest.raises(ValueError):
        AllowedGraph.from_edges(3, [(1, 1)])
    g = AllowedGraph.from_edges(4, [(1, 2), (3, 4)])
    assert g.has_edge(2, 1) and not g.has_edge(1, 3)
    assert g.degree(1) == 1
    assert g.edges() == [(1, 2), (3, 4)]


def test_minus_color():
    from polykn import build

    c = build(F2, 7)
    g = AllowedGraph.minus_color(c, 3)
    assert not g.has_edge(1, 3)
    assert not g.has_edge(3, 4)
    assert g.has_edge(1, 2)


@pytest.mark.parametrize("t", [0, 5, 99, -1], ids=["zero", "k-plus-1", "large", "negative"])
def test_minus_color_rejects_missing_color(t):
    # K_n minus a color the coloring lacks would let find_member report a
    # member "avoiding" it
    from polykn import build

    c = build(F2, 7)
    assert c.k == 4
    with pytest.raises(ValueError, match=rf"color {t} outside 1\.\.4"):
        AllowedGraph.minus_color(c, t)


@pytest.mark.parametrize(
    "n, masks, message",
    [
        (2, (0, 0b100, 0), "adjacency must be symmetric"),
        (2, (0, 0b1100, 0b10), "neighbor bit out of range"),  # bit n + 1
        (2, (0, 0b101, 0b010), "neighbor bit out of range"),  # bit 0
        (3, (0b1110, 0b100, 0b10, 0), "neighbor bit out of range"),  # slot 0
        (3, (0, 0b110, 0b10, 0), "loops are not allowed"),
        (3, (0, 0, 0), "masks must have one entry per vertex plus slot 0"),
    ],
    ids=["asymmetric", "bit-n-plus-1", "bit-0", "slot-0", "loop", "short-masks"],
)
def test_allowed_graph_rejects_invalid_masks(n, masks, message):
    with pytest.raises(ValueError, match=message):
        AllowedGraph(n, masks)


def _random_coloring(rng, n):
    k = rng.randint(1, min(6, n * (n - 1) // 2))
    return EdgeColoring.from_pairs(n, {e: rng.randint(1, k) for e in all_edges(n)})


def test_minus_color_matches_from_edges():
    from polykn import build

    rng = random.Random(707)
    colorings = [_random_coloring(rng, n) for n in range(2, 41)]
    colorings += [build(F1, 16), build(F2, 15), build(HC, 13)]
    for c in colorings:
        for t in range(1, c.k + 1):
            want = AllowedGraph.from_edges(c.n, [(i, j) for (i, j, col) in c.edges() if col != t])
            assert AllowedGraph.minus_color(c, t).masks == want.masks


def test_color_masks_partition_complete_graph():
    from polykn import build

    rng = random.Random(708)
    for c in [_random_coloring(rng, n) for n in range(2, 30)] + [build(F1, 32), build(HC, 19)]:
        union = [0] * (c.n + 1)
        for t in range(1, c.k + 1):
            for v, m in enumerate(c.color_masks[t]):
                assert not union[v] & m  # the color classes are pairwise disjoint
                union[v] |= m
        assert tuple(union) == AllowedGraph.complete(c.n).masks
        assert not any(c.color_masks[0])


def test_one_factor_counts_double_factorial():
    for n in (2, 4, 6, 8, 10):
        assert sum(1 for _ in enumerate_members(F1, n)) == double_factorial(n - 1)


def test_hamiltonian_counts_half_factorial():
    for n in (3, 4, 5, 6, 7, 8):
        assert sum(1 for _ in enumerate_members(HC, n)) == math.factorial(n - 1) // 2


def test_two_factor_counts_partition_formula():
    for n in (3, 4, 5, 6, 7, 8):
        assert sum(1 for _ in enumerate_members(F2, n)) == two_factor_count_formula(n)
    assert sum(1 for _ in enumerate_members(F2, 5)) == 12


def test_enumeration_lexicographic_and_distinct():
    pms = list(enumerate_members(F1, 4))
    assert [w.edges for w in pms] == [
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    ]
    hcs = [w.edges for w in enumerate_members(HC, 4)]
    assert hcs == sorted(hcs)
    assert len(set(hcs)) == 3
    for n in (5, 6):
        seen = [w.edges for w in enumerate_members(F2, n)]
        assert seen == sorted(seen)
        assert len(seen) == len(set(seen))
        for w in enumerate_members(F2, n):
            w.validate(n)


def test_enumeration_matches_edge_subset_scan():
    # the oracle's full member lists, in order, against every n-edge subset
    # of g (n/2 for 1-factors) with the family's degrees, and for cycles
    # one component
    from itertools import combinations

    def connected(n, edges):
        seen, stack = {1}, [1]
        while stack:
            a = stack.pop()
            for e in edges:
                if a in e and (b := e[0] + e[1] - a) not in seen:
                    seen.add(b)
                    stack.append(b)
        return len(seen) == n

    rng, members = random.Random(33_1), []
    for kind, ns in [(F1, (2, 4, 6)), (F2, (3, 4, 5, 6)), (HC, (3, 4, 5, 6))]:
        degree = 1 if kind is F1 else 2
        for n in ns:
            for _ in range(25):
                p = rng.choice([0.5, 0.8, 1])
                g = AllowedGraph.from_edges(n, [e for e in all_edges(n) if rng.random() < p])
                scan = [s for s in combinations(g.edges(), n * degree // 2)
                        if all(Counter(v for e in s for v in e)[v] == degree for v in range(1, n + 1))
                        and (kind is not HC or connected(n, s))]
                members.append(len(scan))
                assert [w.edges for w in enumerate_members(kind, n, allowed=g)] == scan, (kind, g)
    assert members.count(0) >= 50 and sum(members) >= 2_000, members


def test_enumeration_caps():
    with pytest.raises(CapExceededError):
        list(enumerate_members(F2, 13))
    with pytest.raises(CapExceededError):
        sum(1 for _ in enumerate_members(F1, 18))
    # explicit override raises the limit (stream only the first member)
    first = next(iter(enumerate_members(F1, 18, max_n=18)))
    first.validate(18)


def test_find_member_on_complete_graphs():
    for kind, ns in [(F1, (2, 4, 10, 20)), (F2, (3, 5, 9, 12)), (HC, (3, 5, 9, 14))]:
        for n in ns:
            w = find_member(kind, AllowedGraph.complete(n))
            assert w is not None
            w.validate(n)


def test_find_member_missing_edge_matching():
    g = AllowedGraph.from_edges(4, [e for e in all_edges(4) if e != (1, 2)])
    w = find_member(F1, g)
    assert w is not None and (1, 2) not in w.edges
    w.validate(4)


def test_find_member_star_has_no_cycle():
    g = AllowedGraph.from_edges(6, [(1, j) for j in range(2, 7)])
    assert find_member(HC, g) is None


def test_find_member_two_factor_blocked_triangle():
    # removing a triangle leaves vertices 4 and 5 overloaded: no 2-factor
    g = AllowedGraph.from_edges(
        5, [e for e in all_edges(5) if e not in ((1, 2), (1, 3), (2, 3))]
    )
    assert find_member(F2, g) is None
    assert next(iter(enumerate_members(F2, 5, allowed=g)), None) is None


def test_find_member_agrees_with_enumeration_randomized():
    rng = random.Random(4242)
    for kind, ns in [(F1, (4, 6, 8)), (F2, (5, 7)), (HC, (5, 7))]:
        for n in ns:
            for _ in range(120):
                p = rng.choice([0.25, 0.5, 0.75])
                edges = [e for e in all_edges(n) if rng.random() < p]
                g = AllowedGraph.from_edges(n, edges)
                got = find_member(kind, g)
                want = next(iter(enumerate_members(kind, n, allowed=g)), None)
                assert (got is None) == (want is None)
                if got is not None:
                    got.validate(n)
                    assert all(g.has_edge(i, j) for (i, j) in got.edges)


def test_find_member_containing_forced_edge():
    rng = random.Random(11)
    cases = [(F1, 6), (F1, 8), (F2, 6), (HC, 6), (F2, 7), (F2, 8), (HC, 7), (HC, 8)]
    for kind, n in cases:
        for _ in range(60):
            edges = [e for e in all_edges(n) if rng.random() < 0.55]
            g = AllowedGraph.from_edges(n, edges)
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            got = find_member_containing(kind, g, (i, j))
            g2 = AllowedGraph.from_edges(n, g.edges() + [(i, j)])
            want = any((i, j) in w.edges for w in enumerate_members(kind, n, allowed=g2))
            assert (got is not None) == want
            if got is not None:
                got.validate(n)
                assert (i, j) in got.edges


def test_ham_path_matches_enumeration():
    # the closing search from every start vertex against the enumeration
    # oracle: a path exactly when a Hamiltonian cycle exists, starting at
    # start, covering 1..n along allowed edges and ending at a neighbor of
    # start.  Forced queries start at their new vertex, and
    # test_find_member_containing_forced_edge checks those
    from polykn.families import _ham_path

    rng = random.Random(99)
    checked = 0
    for n in range(3, 10):
        for _ in range(300):
            p = rng.choice([0.3, 0.5, 0.7])
            g = AllowedGraph.from_edges(n, [e for e in all_edges(n) if rng.random() < p])
            want = next(enumerate_members(HC, n, allowed=g), None) is not None
            for start in range(1, n + 1):
                path = _ham_path(g.masks, start)
                assert (path is not None) == want, (g.edges(), start)
                if path is not None:
                    assert path[0] == start and sorted(path) == list(range(1, n + 1))
                    assert all(g.has_edge(a, b) for a, b in zip(path, path[1:] + path[:1]))
                checked += 1
    assert checked == 12_600


@pytest.mark.parametrize("m, calls", [(5, 50), (11, 770)])
def test_ham_path_reachability_cut_on_petersen_graphs(monkeypatch, m, calls):
    # the generalized Petersen graphs GP(5, 2) and GP(11, 2) have no
    # Hamiltonian cycle (Alspach 1983); the search refutes them with a
    # pinned number of reachability cuts, which a search that never asks
    # whether every free vertex is still reachable cannot match, nor one
    # without the reversal cut (81 and 1,285) or the closer cut (81 and 1,439)
    from polykn import families

    outer = [(i, i % m + 1) for i in range(1, m + 1)]
    spokes = [(i, m + i) for i in range(1, m + 1)]
    inner = [(m + i + 1, m + (i + 2) % m + 1) for i in range(m)]
    g = AllowedGraph.from_edges(2 * m, outer + spokes + inner)
    reach, counted = families._reach, []
    monkeypatch.setattr(families, "_reach", lambda *a: counted.append(a) or reach(*a))
    assert families._ham_path(list(g.masks), 1) is None
    assert len(counted) == calls


def test_exact_search_refutes_graph_past_every_refutation():
    # three separator vertices over four 4-cliques: deleting them leaves four
    # components, so no Hamiltonian cycle, yet the degree, 2-factor and
    # open-neighborhood separator checks all pass and the exact search decides
    from polykn.families import _degree_constrained_subgraph, _separator_refutes

    n = 19
    cliques = [list(range(4 + 4 * q, 8 + 4 * q)) for q in range(4)]
    edges = [(a, b) for cl in cliques for i, a in enumerate(cl) for b in cl[i + 1:]]
    for i, s in enumerate((1, 2, 3)):
        edges += [(s, cl[(i + d) % 4]) for cl in cliques for d in range(3)]
    g = AllowedGraph.from_edges(n, edges)
    assert min(g.degree(v) for v in range(1, n + 1)) >= 2
    assert _degree_constrained_subgraph(g.masks, 2) is not None
    assert not _separator_refutes(g.masks)
    assert find_member(HC, g) is None


def test_exact_search_finds_long_cycle_without_recursion():
    # a 1,200-vertex cycle with a chord (i, i + 2) at every 7th i: the
    # refutations pass, and the path search holds one frame per path vertex
    n = 1200
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    edges += [(i, i + 2) for i in range(7, n - 1, 7)]
    g = AllowedGraph.from_edges(n, edges)
    w = find_member(HC, g)
    assert w is not None
    w.validate(n)
    assert all(g.has_edge(i, j) for (i, j) in w.edges)


def _planted_matching(rng, n: int, drop: bool):
    """(planted, edges) on 0..n-1: a planted perfect matching under n/2, n
    or 2n random chords, one planted edge removed when drop is set."""
    perm = rng.sample(range(n), n)
    planted = [tuple(sorted(perm[i:i + 2])) for i in range(0, n, 2)]
    edges = set(planted)
    target = len(edges) + rng.choice([n // 2, n, 2 * n])
    while len(edges) < target:
        i, j = sorted(rng.sample(range(n), 2))
        edges.add((i, j))
    if drop:
        edges.discard(rng.choice(planted))
    return planted, edges


def _blossom_graphs():
    """(group, adjacency lists on 0..n-1) for the blossom's tests: random
    graphs, sparse ones, and planted perfect matchings under chords."""

    def random_graph(rng, n, p):
        adj = [[] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    adj[i].append(j)
                    adj[j].append(i)
        return adj

    rng = random.Random(60_1)
    for n in (15, 30, 60):
        for _ in range(12):
            yield "random", random_graph(rng, n, rng.choice([0.08, 0.15, 0.3]))
    # sparse graphs with shuffled rows: free vertices whose searches fail
    rng = random.Random(60_2)
    for n in (30, 60, 120):
        for p in (0.02, 0.04):
            for _ in range(8):
                adj = random_graph(rng, n, p)
                for row in adj:
                    rng.shuffle(row)
                yield "sparse", adj
    # a planted perfect matching under random chords, with shuffled rows,
    # and one planted edge removed on every other graph: the greedy seed
    # takes chords and leaves free vertices, so augmentations and blossom
    # contractions run on the way to a perfect matching
    rng = random.Random(60_3)
    for n in range(30, 121, 6):
        for rep in range(4):
            _, edges = _planted_matching(rng, n, rep % 2)
            adj = [[] for _ in range(n)]
            for (i, j) in edges:
                adj[i].append(j)
                adj[j].append(i)
            for row in adj:
                rng.shuffle(row)
            yield "planted", adj


def test_blossom_against_networkx_at_scale():
    # maximum_matching answers one question: a perfect matching, or None
    # exactly when networkx's maximum matching leaves a vertex free
    nx = pytest.importorskip("networkx")
    from polykn.families import maximum_matching

    def check_perfect(n, adj) -> bool:
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from((v, u) for v in range(n) for u in adj[v])
        perfect = 2 * len(nx.max_weight_matching(G, maxcardinality=True)) == n
        match = maximum_matching(n, adj)
        if not perfect:
            assert match is None
            return False
        assert match is not None and len(match) == n
        for v, u in enumerate(match):
            assert u in adj[v] and match[u] == v
        return True

    outcomes = []
    for group, adj in _blossom_graphs():
        perfect = check_perfect(len(adj), adj)
        if group == "planted":
            outcomes.append(perfect)
    assert outcomes.count(True) >= 30 and outcomes.count(False) >= 10
    # K_n minus each color of the paper's 1-factor coloring: no perfect matching
    from polykn import build

    c = build(F1, 64)
    for t in range(1, c.k + 1):
        g = AllowedGraph.minus_color(c, t)
        adj = [[u - 1 for u in range(1, 65) if g.has_edge(v, u)] for v in range(1, 65)]
        assert not check_perfect(64, adj)


def test_greedy_rung_returns_the_blossoms_pairs(monkeypatch):
    # 1-factor queries forcing 0 or 1 pairs uv, written into the rows as
    # _find writes them (uv the only edge at u and at v): the greedy seed
    # on the rows, and the blossom only where it leaves a vertex free, give
    # exactly the pairs of the blossom on the rows' lists
    from polykn import families
    from polykn.families import _degree_constrained_subgraph, _index_lists, maximum_matching

    calls = []
    monkeypatch.setattr(families, "maximum_matching", lambda *a: calls.append(a) or maximum_matching(*a))
    rng = random.Random(61)
    outcomes = Counter()
    for _, adj in _blossom_graphs():
        n = len(adj)
        for forced in [None] + [rng.sample(range(1, n + 1), 2) for _ in range(3)]:
            rows = [0] + [sum(1 << (u + 1) for u in row) for row in adj]
            if forced is not None:
                u, v = forced
                rows = [m & ~(1 << u | 1 << v) for m in rows]
                rows[u], rows[v] = 1 << v, 1 << u
            match = maximum_matching(n, _index_lists(rows))
            want = None if match is None else [(i + 1, j + 1) for i, j in enumerate(match) if i < j]
            calls.clear()
            assert _degree_constrained_subgraph(rows, 1) == want
            outcomes[want is not None, len(calls)] += 1
    # the greedy alone, the blossom after it, and no perfect matching all occur
    assert {(True, 0), (True, 1)} <= set(outcomes) and outcomes[False, 0] + outcomes[False, 1] > 0


def test_forced_one_factor_queries_at_scale(monkeypatch):
    # planted perfect matchings at n = 30..120, forced on a planted edge
    # and on a random pair that may lie outside g: a member through uv
    # exists exactly when networkx finds a perfect matching of g - u - v,
    # and every witness holds uv.  uv is the only edge at u and at v in the
    # rows the engine sees, so the degree check refutes where g - u - v
    # leaves a vertex bare.  The grid holds greedy-only finds, blossom
    # finds, and refutations that call no blossom although no vertex but u
    # and v is bare in g itself
    nx = pytest.importorskip("networkx")
    from polykn import families

    matching, calls = families.maximum_matching, []
    monkeypatch.setattr(families, "maximum_matching", lambda *a: calls.append(a) or matching(*a))
    rng = random.Random(40_1)
    outcomes = Counter()
    for n in range(30, 121, 6):
        for rep in range(8):
            planted, edges = _planted_matching(rng, n, rep % 2)
            g = AllowedGraph.from_edges(n, [(i + 1, j + 1) for i, j in edges])
            for i, j in (rng.choice(planted), sorted(rng.sample(range(n), 2))):
                u, v = i + 1, j + 1
                rest = nx.Graph(e for e in g.edges() if u not in e and v not in e)
                rest.add_nodes_from(w for w in range(1, n + 1) if w not in (u, v))
                want = 2 * len(nx.max_weight_matching(rest, maxcardinality=True)) == n - 2
                calls.clear()
                got = find_member_containing(F1, g, (u, v))
                assert (got is not None) == want, (n, u, v)
                if got is not None:
                    got.validate(n)
                    assert (u, v) in got.edges
                    assert all(e == (u, v) or g.has_edge(*e) for e in got.edges)
                bare = any(not g.degree(w) for w in range(1, n + 1) if w not in (u, v))
                outcomes[want, len(calls), bare] += 1
    assert outcomes[True, 0, False] and outcomes[True, 1, False] and outcomes[False, 0, False], outcomes


def test_greedy_rung_hands_free_vertices_to_the_blossom(monkeypatch):
    # degrees 1: 2, 2: 2, 3: 4, 4: 1, 5: 4, 6: 3; the greedy pairs 4-3 and
    # 1-5, leaving 2 and 6 free, and the blossom finds {16, 25, 34}
    from polykn import families

    edges = [(1, 5), (1, 6), (2, 3), (2, 5), (3, 4), (3, 5), (3, 6), (5, 6)]
    g = AllowedGraph.from_edges(6, edges)
    blossom, calls = families.maximum_matching, []
    monkeypatch.setattr(families, "maximum_matching", lambda *a: calls.append(a) or blossom(*a))
    assert families._degree_constrained_subgraph(g.masks, 1) == [(1, 6), (2, 5), (3, 4)]
    assert len(calls) == 1
    # a star K_1,3 passes the degree check and has no perfect matching
    calls.clear()
    star = AllowedGraph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
    assert families._degree_constrained_subgraph(star.masks, 1) is None
    assert find_member(F1, star) is None
    assert len(calls) == 2


def test_large_n_hamiltonian_refutations_are_fast():
    # at n = 20 the engine must refute structured non-instances through the
    # polynomial relaxations, not exponential search
    from polykn import build, is_polychromatic

    c = build(HC, 20)
    cert = is_polychromatic(c, HC)  # five refutations, one per color
    assert cert.polychromatic
    w = find_member(HC, AllowedGraph.complete(20))
    w.validate(20)


def test_separator_stops_once_no_vertex_is_left(monkeypatch):
    # K_10 minus the perfect matching {12, 34, ...}: removing N(u) leaves u
    # and its partner, two components, so two flood fills per u
    from polykn import families

    g = AllowedGraph.from_edges(10, [(i, j) for (i, j) in all_edges(10) if not (i % 2 and j == i + 1)])
    reach, counted = families._reach, []
    monkeypatch.setattr(families, "_reach", lambda *a: counted.append(a) or reach(*a))
    assert not families._separator_refutes(g.masks)
    assert len(counted) == 20


def test_separator_refutation_is_sound():
    from polykn.families import _separator_refutes

    rng = random.Random(555)
    for n in (7, 8, 9):
        for _ in range(150):
            edges = [e for e in all_edges(n) if rng.random() < 0.5]
            g = AllowedGraph.from_edges(n, edges)
            if _separator_refutes(g.masks):
                assert find_member(HC, g) is None


def test_relaxation_refutes_bowtie_past_separator(monkeypatch):
    # two triangles sharing vertex 1: every degree is at least 2 and no open
    # neighborhood N(u) separates, but no 2-factor exists, so the 2-factor
    # relaxation refutes and the exact search never runs
    import polykn.families as families

    g = AllowedGraph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (4, 5)])
    assert not families._separator_refutes(g.masks)
    assert families._degree_constrained_subgraph(g.masks, 2) is None
    monkeypatch.setattr(families, "_ham_path", lambda *a: pytest.fail("exact search ran"))
    assert find_member(HC, g) is None


def test_forced_hamiltonian_query_tries_the_cycle_separator_first(monkeypatch):
    # a member through the forced edge uv is a Hamiltonian cycle through
    # the new vertex x of g minus uv plus the path u x v, and the separator
    # test on those rows refutes these queries; an exact search for a u-v
    # path took about 0.3 s at n = 18 and over a minute at n = 64 (2 cores,
    # Python 3.11)
    import polykn.families as families
    from polykn import build

    monkeypatch.setattr(families, "_ham_path", lambda *a: pytest.fail("exact search ran"))
    for n, (u, v) in ((18, (2, 6)), (64, (18, 57))):
        g = AllowedGraph.minus_color(build(HC, n).recolored(u, v, 3), 4)
        assert find_member(HC, g) is None
        assert find_member_containing(HC, g, (u, v)) is None


def test_relaxation_refutes_tutte_barrier_before_exact_search(monkeypatch):
    # S = {1..a} a clique, T = {a+1..3a+2} a perfect matching, every S-T
    # edge: Tutte's 2-factor deficiency 2|S| - 2|T| + sum_T d_{G-S} = -2,
    # so no 2-factor.  Every degree is at least 2, no N(u) separates (for u
    # in T it leaves a + 1 components), and the cover has a perfect
    # matching, but the deficiency needs no parity term, so the capacitated
    # cover flow refutes and the gadget never runs.  The exact search would
    # take tens of seconds here; the relaxation must come first.
    import polykn.families as families

    a = 7
    n = 3 * a + 2
    edges = [(i, j) for i in range(1, a + 1) for j in range(i + 1, n + 1)]
    edges += [(v, v + 1) for v in range(a + 1, n, 2)]
    g = AllowedGraph.from_edges(n, edges)
    assert not families._separator_refutes(g.masks)
    assert families._cover_flow(g.masks, 2) is None
    assert families._degree_constrained_subgraph(g.masks, 2) is None
    gadget, calls = families._tutte_gadget, []
    monkeypatch.setattr(families, "_tutte_gadget", lambda *args: calls.append(args) or gadget(*args))
    monkeypatch.setattr(families, "_ham_path", lambda *args: pytest.fail("exact search ran"))
    assert find_member(HC, g) is None
    assert calls == []


@pytest.mark.parametrize("n", [13, 18, 19, 24, 32])
def test_hamiltonian_refutations_run_cheapest_first(monkeypatch, n):
    # the separator test runs before the 2-factor relaxation and refutes
    # every color of the paper's Hamiltonian coloring, so no blossom runs
    import polykn.families as families
    from polykn import build, is_polychromatic

    calls = []
    matching = families.maximum_matching
    monkeypatch.setattr(families, "maximum_matching", lambda *a: calls.append(a[0]) or matching(*a))
    assert is_polychromatic(build(HC, n), HC).polychromatic
    assert calls == []


@pytest.mark.parametrize("n", [7, 15, 31, 63, 127])
def test_built_two_factor_coloring_is_refuted_on_the_cover(monkeypatch, n):
    # at n = 2^m - 1 the capacitated flow on the double cover refutes a
    # 2-factor avoiding color k: neither the unit flow nor Tutte's gadget
    # runs, so no blossom call is made
    import polykn.families as families
    from polykn import build

    calls, flows = [], []
    matching, flow = families.maximum_matching, families._cover_flow
    monkeypatch.setattr(families, "maximum_matching", lambda *a: calls.append(a[0]) or matching(*a))
    monkeypatch.setattr(families, "_cover_flow", lambda *a: flows.append(flow(*a)) or flows[-1])
    c = build(F2, n)
    assert find_member(F2, AllowedGraph.minus_color(c, c.k)) is None
    assert flows == [None]
    assert calls == []


def test_reach_matches_breadth_first_search():
    from collections import deque

    from polykn.families import _reach

    rng = random.Random(30_7)
    for n in range(1, 31):
        for _ in range(20):
            p = rng.choice([0.05, 0.15, 0.4])
            g = AllowedGraph.from_edges(n, [e for e in all_edges(n) if rng.random() < p])
            within = sum(1 << v for v in range(1, n + 1) if rng.random() < 0.7)
            seeds = [v for v in range(1, n + 1) if rng.random() < 0.1] or [rng.randint(1, n)]
            seen, queue = set(seeds), deque(seeds)
            while queue:
                u = queue.popleft()
                for w in range(1, n + 1):
                    if g.has_edge(u, w) and (within >> w) & 1 and w not in seen:
                        seen.add(w)
                        queue.append(w)
            seed = sum(1 << v for v in seeds)
            assert _reach(g.masks, seed, within) == sum(1 << v for v in seen)


def test_witness_validation_catches_breakage():
    w = SubgraphWitness(F1, ((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        w.validate(4)
    disconnected = SubgraphWitness(HC, ((1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)))
    with pytest.raises(ValueError):
        disconnected.validate(6)
    SubgraphWitness(F2, ((1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6))).validate(6)
    with pytest.raises(ValueError, match=r"^bad witness edge \(0, 1\)$"):
        SubgraphWitness(F1, ((0, 1), (2, 3))).validate(4)
    with pytest.raises(ValueError, match=r"^repeated witness edge \(1, 2\)$"):
        SubgraphWitness(F1, ((1, 2), (1, 2))).validate(4)


def test_find_refuses_a_member_outside_the_rows(monkeypatch):
    # _find's last check: a member that validates but takes an edge the
    # rows lack raises, also once a forced edge's new vertex 5 is read back
    import polykn.families as families

    g = AllowedGraph.from_edges(4, [(1, 3), (2, 4), (3, 4)])
    monkeypatch.setattr(families, "_degree_constrained_subgraph", lambda *a: [(1, 2), (3, 4)])
    with pytest.raises(RuntimeError, match=r"^engine used forbidden edge \(1, 2\)$"):
        find_member(F1, g)
    g = AllowedGraph.from_edges(4, [(2, 3), (3, 4)])
    planted = [(1, 5), (2, 5), (2, 3), (3, 4), (1, 4)]
    monkeypatch.setattr(families, "_degree_constrained_subgraph", lambda *a: planted)
    with pytest.raises(RuntimeError, match=r"^engine used forbidden edge \(1, 4\)$"):
        find_member_containing(F2, g, (1, 2))


def test_find_member_invalid_inputs():
    with pytest.raises(ValueError):
        find_member(F1, AllowedGraph.complete(5))  # odd n
    with pytest.raises(ValueError):
        find_member(HC, AllowedGraph.complete(2))
    with pytest.raises(ValueError):
        find_member_containing(F1, AllowedGraph.complete(5), (1, 2))
    with pytest.raises(ValueError):
        find_member_containing(F2, AllowedGraph.complete(6), (0, 3))
    with pytest.raises(ValueError):
        find_member_containing(HC, AllowedGraph.complete(2), (1, 2))
    with pytest.raises(ValueError, match="^allowed graph size mismatch$"):
        list(enumerate_members(F1, 4, allowed=AllowedGraph.complete(6)))


def _without_forced(g: AllowedGraph, forced):
    """The unforced 2-factor query of _find: g with the forced edge uv
    replaced by a new vertex joined to u and v."""
    if forced is not None:
        u, v = forced
        x = g.n + 1
        g = AllowedGraph.from_edges(x, [e for e in g.edges() if e != forced] + [(u, x), (v, x)])
    return g


def test_double_cover_rung_against_oracle_and_gadget(monkeypatch):
    # the 2-factor engine asks the bipartite double cover first, its flow
    # at 2 units per vertex and then at 1, the cover's perfect
    # matching: each query is refuted by the first flow, found by the
    # second, or falls back to Tutte's gadget, and the blossom runs once per
    # fallback and never on the cover.  A forced edge is a new vertex on it
    # (_without_forced).  The answers match the enumeration oracle at
    # n <= 10 and the gadget alone at n = 30..120, every member found has
    # degree 2 everywhere inside g, and the random grid reaches
    # every outcome
    import polykn.families as families

    gadget, flow, matching = families._tutte_gadget, families._cover_flow, families.maximum_matching
    fell_back, routed, blossoms = [], [], []
    monkeypatch.setattr(families, "_tutte_gadget", lambda *a: fell_back.append(a) or gadget(*a))
    monkeypatch.setattr(families, "_cover_flow", lambda *a: routed.append(flow(*a)) or routed[-1])
    monkeypatch.setattr(families, "maximum_matching", lambda *a: blossoms.append(a[0]) or matching(*a))
    outcomes = []

    def query(g0, forced):
        g = _without_forced(g0, forced)
        fell_back.clear()
        routed.clear()
        blossoms.clear()
        got = families._degree_constrained_subgraph(g.masks, 2)
        assert len(blossoms) == len(fell_back), (blossoms, len(fell_back))
        if got is not None:
            deg = [0] * (g.n + 1)
            assert len(set(got)) == len(got)
            for (a, b) in got:
                assert g.has_edge(a, b)
                deg[a] += 1
                deg[b] += 1
            assert deg == [0] + [2] * g.n
        if any(g.degree(v) < 2 for v in range(1, g.n + 1)):
            outcomes.append("degree")
        elif fell_back or got is not None:
            outcomes.append("fell back" if fell_back else "found")
        else:
            assert routed == [None]  # a 2-unit routing holds a 1-unit one
            outcomes.append("flow")
        return got, g

    rng = random.Random(18_1)
    for n in range(3, 11):
        for _ in range(40):
            p = rng.choice([0.45, 0.6, 0.75])
            g0 = AllowedGraph.from_edges(n, [e for e in all_edges(n) if rng.random() < p])
            for forced in (None, tuple(sorted(rng.sample(range(1, n + 1), 2)))):
                got, _ = query(g0, forced)
                if forced is None:
                    want = next(enumerate_members(F2, n, allowed=g0), None) is not None
                else:
                    g2 = AllowedGraph.from_edges(n, g0.edges() + [forced])
                    members = enumerate_members(F2, n, allowed=g2)
                    want = any(forced in w.edges for w in members)
                assert (got is not None) == want
    # a planted 2-factor (cycles of 3 to 8 vertices) under random chords,
    # one planted edge removed on every other graph, forced on a random edge
    rng = random.Random(18_2)
    for n in range(30, 121, 10):
        for rep in range(4):
            perm = rng.sample(range(1, n + 1), n)
            planted, i = [], 0
            while i < n:
                size = rng.randint(3, 8)
                if n - i - size < 3:
                    size = n - i
                cycle = perm[i:i + size]
                planted += [tuple(sorted(e)) for e in zip(cycle, cycle[1:] + cycle[:1])]
                i += size
            edges = set(planted)
            target = len(edges) + rng.choice([n // 2, 2 * n, 8 * n])
            while len(edges) < target:
                edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
            if rep % 2:
                edges.discard(rng.choice(planted))
            g0 = AllowedGraph.from_edges(n, edges)
            for forced in (None, rng.choice(sorted(edges))):
                got, g = query(g0, forced)
                assert (got is None) == (gadget(g.masks) is None)
    grid = Counter(outcomes)
    # covers with a perfect matching but no 2-factor, where every matching
    # keeps a 2-cycle that no exchange removes: the bowtie, with and without
    # the forced edge (1, 2), K_{2,6} plus a perfect matching on its 6 side,
    # and the n = 14 search leaf, the ordered coloring of 1^6 2^6 1 1 minus
    # color 2, where S = {1..6} saturates the independent {7..12}.  Their
    # fractional relaxations are empty, so the flow refutes them before the
    # unit flow.  A perfect matching alone is short of degree 2 before any
    # cover, and K_{2,5} fails the flow as its cover fails Hall.
    #
    # A hub joined by one edge to each of three K_4's (n = 13) passes the
    # flow (2/3 on each hub edge), yet a 2-factor through the hub would
    # enter and leave a K_4 by its one attaching vertex.  Only the parity
    # of Tutte's condition refutes it, so the gadget must, also with a
    # clique edge or the hub edge (1, 2) forced.  No random graph with
    # n <= 10 needs the gadget to refute, so these are planted
    from polykn import build_ordered

    bowtie = AllowedGraph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (4, 5)])
    k2 = [(a, b) for a in (1, 2) for b in range(3, 9)]
    leaf = AllowedGraph.minus_color(build_ordered((1,) * 6 + (2,) * 6 + (1, 1)), 2)
    hub_edges = []
    for q in range(3):
        clique = list(range(2 + 4 * q, 6 + 4 * q))
        hub_edges += [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]] + [(1, clique[0])]
    hub = AllowedGraph.from_edges(13, hub_edges)
    assert next(enumerate_members(F2, 13, allowed=hub, max_n=13), None) is None
    cases = [
        (bowtie, None, "flow"),
        (bowtie, (1, 2), "flow"),
        (AllowedGraph.from_edges(8, k2 + [(3, 4), (5, 6), (7, 8)]), None, "flow"),
        (leaf, None, "flow"),
        (AllowedGraph.from_edges(6, [(1, 2), (3, 4), (5, 6)]), None, "degree"),
        (AllowedGraph.from_edges(7, [e for e in k2 if e[1] < 8]), None, "flow"),
        (hub, None, "fell back"),
        (hub, (2, 3), "fell back"),
        (hub, (3, 4), "fell back"),
        (hub, (1, 2), "fell back"),
    ]
    for g0, forced, outcome in cases:
        outcomes.clear()
        assert query(g0, forced)[0] is None and outcomes == [outcome], (forced, outcomes)
    assert grid["flow"] >= 5 and grid["found"] >= 100 and grid["fell back"] >= 20, grid


def test_cover_flow_matches_networkx_max_flow():
    # the same network for networkx: a source feeding each out-copy its
    # units, each in-copy draining as many into the sink, and one
    # unit-capacity arc per allowed ordered pair; the flow routes every unit
    # exactly when the maximum flow value is the sum of the supplies.  Each
    # query routes the engine's two supplies, 2 units per vertex and then
    # 1, a forced edge being a new vertex on it.  A routing uses allowed
    # arcs only and meets every supply at both copies
    nx = pytest.importorskip("networkx")
    from polykn.families import _cover_flow

    def routes_all(g, units):
        net = nx.DiGraph()
        for v in range(1, g.n + 1):
            net.add_edge("s", ("out", v), capacity=units)
            net.add_edge(("in", v), "t", capacity=units)
            for w in range(1, g.n + 1):
                if g.has_edge(v, w):
                    net.add_edge(("out", v), ("in", w), capacity=1)
        return nx.maximum_flow_value(net, "s", "t") == units * g.n

    rng = random.Random(25_1)
    outcomes = Counter()
    for n in range(3, 41):
        for _ in range(6):
            p = rng.choice([0.05, 0.1, 0.2, 0.35, 0.6])
            g0 = AllowedGraph.from_edges(n, [e for e in all_edges(n) if rng.random() < p])
            for forced in (None, tuple(sorted(rng.sample(range(1, n + 1), 2)))):
                g = _without_forced(g0, forced)
                for units in (2, 1):
                    used = _cover_flow(g.masks, units)
                    assert (used is not None) == routes_all(g, units), (n, forced, units, g.edges())
                    outcomes[used is not None, forced is None, units] += 1
                    if used is None:
                        continue
                    fed = [0] * (g.n + 1)
                    for v, u in enumerate(used):
                        assert u & ~g.masks[v] == 0, (v, u)
                        for w in range(1, g.n + 1):
                            fed[w] += (u >> w) & 1
                    assert [u.bit_count() for u in used] == fed == [0] + [units] * g.n, (fed, units)
    assert min(outcomes.values()) >= 40, outcomes


def test_cover_flow_never_refutes_a_two_factor():
    # the 3,000-graph oracle grid (n = 3..10, p = 0.3/0.5/0.7, 125 graphs
    # each): every graph with a 2-factor routes.  A graph can route with
    # no 2-factor when only the parity term of Tutte's condition refutes
    # it (see the planted hub above), but none does on this grid, so here
    # the flow decides every query
    from polykn.families import _cover_flow

    rng = random.Random(25_2)
    refuted = 0
    for n in range(3, 11):
        for p in (0.3, 0.5, 0.7):
            for _ in range(125):
                g = AllowedGraph.from_edges(n, [e for e in all_edges(n) if rng.random() < p])
                routes = _cover_flow(g.masks, 2) is not None
                has = next(enumerate_members(F2, n, allowed=g), None) is not None
                assert routes == has, g.edges()
                refuted += not routes
    assert refuted >= 1_000
