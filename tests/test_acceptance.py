"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Exact values only; no tolerances apply anywhere (all quantities are
integers or explicit edge sets).  Run with `pytest tests/test_acceptance.py
-v -s` to see the per-criterion lines and timings.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from polykn import (
    EdgeColoring,
    FamilyKind,
    VertexOrdering,
    adversarial_member,
    brute_force_poly,
    build,
    comb_certificate,
    enumerate_members,
    find_member,
    improve_toward_combed,
    inherited_coloring,
    is_polychromatic,
    majority_certificate,
    palette_size,
    recolor_unitary_triple,
    structured_poly,
    twist,
    two_switch,
)
from polykn.core import all_edges, is_unitary
from polykn.families import AllowedGraph
from polykn.search import _seq_stage
from helpers import (
    all_combed_colorings,
    all_ordered_colorings,
    double_factorial,
    rgs,
    sample_polychromatic,
)

F1 = FamilyKind.ONE_FACTOR
F2 = FamilyKind.TWO_FACTOR
HC = FamilyKind.HAMILTONIAN_CYCLE


@contextmanager
def criterion(number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number} ({label}): FAIL "
              f"({time.perf_counter() - start:.1f}s)")
        raise
    print(f"[ACCEPTANCE] criterion {number} ({label}): PASS "
          f"({time.perf_counter() - start:.1f}s)")


def test_criterion_1_one_factor_construction():
    with criterion(1, "1-factor construction correctness"):
        for n in range(2, 21, 2):
            c = build(F1, n)
            assert c.k == n.bit_length() - 1
            assert is_polychromatic(c, F1).polychromatic


def test_criterion_2_two_factor_and_hamiltonian_constructions():
    with criterion(2, "2-factor and Hamiltonian constructions"):
        for n in range(3, 13):
            c = build(F2, n)
            assert c.k == (2 * (n + 1)).bit_length() - 1
            assert is_polychromatic(c, F2).polychromatic
        for n in range(3, 15):
            c = build(HC, n)
            assert c.k == ((8 * (n - 1)) // 3).bit_length() - 1
            assert is_polychromatic(c, HC).polychromatic


def test_criterion_3_exact_optima_tiny_n():
    expected = {
        (4, F1): 2,
        (6, F1): 2,
        (3, HC): 3,
        (4, HC): 3,
        (3, F2): 3,
        (4, F2): 3,
        (5, F2): 3,
    }
    with criterion(3, "brute-force optima at tiny n"):
        for (n, kind), want in expected.items():
            report = brute_force_poly(n, kind)
            assert report.optimum == want, (n, kind, report.optimum)
            assert report.coloring.k == want
            assert is_polychromatic(report.coloring, kind).polychromatic
        # the optima agree with the palette formulas except at (3, HC),
        # where the single Hamiltonian cycle of K_3 forces the true optimum
        # (3) above the construction formula (2)
        for (n, kind), want in expected.items():
            if (n, kind) == (3, HC):
                assert want == 3 and palette_size(HC, 3) == 2
            else:
                assert want == palette_size(kind, n)


def test_criterion_4_ordered_search_exactness():
    with criterion(4, "ordered-search exactness for 1-factors"):
        for n in range(2, 13, 2):
            want = n.bit_length() - 1
            report = structured_poly(n, F1, "ordered")
            assert report.optimum == want, (n, report.optimum)
            assert is_polychromatic(report.coloring, F1).polychromatic
            # one more color admits no ordered polychromatic coloring
            exhausted, _ = _seq_stage(n, F1, want + 1, "ordered")
            assert exhausted is None


def test_criterion_5_majority_property_suite():
    with criterion(5, "majority property suite"):
        # strict condition over all ordered colorings, even n <= 8
        for n in (2, 4, 6, 8):
            for c in all_ordered_colorings(n):
                ic = inherited_coloring(c, VertexOrdering.identity(n))
                cert = majority_certificate(ic, strict=True)
                poly = is_polychromatic(c, F1).polychromatic
                if poly:
                    assert cert.complete, (n, ic.sequence)
                for t in cert.failing_colors():
                    w = adversarial_member(ic, t, F1)
                    w.validate(n)
                    assert all(c.color(i, j) != t for (i, j) in w.edges)
                    assert not poly
        # weak condition over all combed colorings, n <= 8
        for n in range(3, 9):
            for c in all_combed_colorings(n):
                ic = inherited_coloring(c, VertexOrdering.identity(n))
                cert = majority_certificate(ic, strict=False)
                for kind in (F2, HC):
                    if is_polychromatic(c, kind).polychromatic:
                        assert cert.complete, (n, kind, ic.sequence)
                for t in cert.failing_colors():
                    w = adversarial_member(ic, t, HC)
                    w.validate(n)
                    assert all(c.color(i, j) != t for (i, j) in w.edges)
                    assert not is_polychromatic(c, HC).polychromatic
                    assert not is_polychromatic(c, F2).polychromatic


def test_criterion_6_family_engine_oracles():
    with criterion(6, "family-engine oracles"):
        import math

        for n in range(2, 13, 2):
            assert sum(1 for _ in enumerate_members(F1, n)) == double_factorial(n - 1)
        for n in range(3, 10):
            assert sum(1 for _ in enumerate_members(HC, n)) == math.factorial(n - 1) // 2
        rng = random.Random(20_24)
        plan = [(F1, n) for n in (2, 4, 6, 8)]
        plan += [(F2, n) for n in range(3, 10)]
        plan += [(HC, n) for n in range(3, 10)]
        for kind, n in plan:
            for trial in range(1000):
                p = (0.15, 0.35, 0.55, 0.75, 0.9)[trial % 5]
                edges = [e for e in all_edges(n) if rng.random() < p]
                g = AllowedGraph.from_edges(n, edges)
                got = find_member(kind, g)
                want = next(iter(enumerate_members(kind, n, allowed=g)), None)
                assert (got is None) == (want is None), (kind, n, edges)
                if got is not None:
                    got.validate(n)
                    assert all(g.has_edge(i, j) for (i, j) in got.edges)


def _disjoint_pairs(edges):
    return [
        (e1, e2)
        for e1, e2 in itertools.combinations(edges, 2)
        if not set(e1) & set(e2)
    ]


def test_criterion_7_transform_suite():
    with criterion(7, "transform suite"):
        # twists: exhaustive validity and involution through n = 7
        for n in (5, 6, 7):
            for h in enumerate_members(HC, n):
                for e1, e2 in _disjoint_pairs(h.edges):
                    out = twist(h, e1, e2)
                    out.validate(n)
                    new = sorted(set(out.edges) - set(h.edges))
                    assert twist(out, *new) == h
        # 2-switches: exhaustive degree preservation through n = 6
        for n in (5, 6):
            for f in enumerate_members(F2, n):
                for e1, e2 in _disjoint_pairs(f.edges):
                    for choice in (0, 1):
                        try:
                            out = two_switch(f, e1, e2, choice)
                        except ValueError:
                            continue
                        out.validate(n)
        # triple recoloring postconditions on 100 random colorings
        rng = random.Random(99)
        done = 0
        while done < 100:
            n = rng.choice((5, 6, 7, 8))
            c = EdgeColoring.from_function(n, lambda i, j: rng.randint(1, 4))
            if c.k < 3:
                continue
            x, y, z = rng.sample(range(1, n + 1), 3)
            out = recolor_unitary_triple(c, x, y, z)
            assert is_unitary(out, x) == (1, 2, y)
            assert is_unitary(out, y) == (2, 3, z)
            assert is_unitary(out, z) == (3, 1, x)
            assert recolor_unitary_triple(out, x, y, z) == out
            done += 1
        # comb improvement preserves polychromaticity and palette, 10^3 runs
        rng = random.Random(2_717)
        for _ in range(1000):
            c, kind = sample_polychromatic(rng)
            res = improve_toward_combed(c, kind)
            assert res.coloring.k == c.k
            assert is_polychromatic(res.coloring, kind).polychromatic


def test_criterion_8_ordering_relation():
    # Every Hamiltonian cycle is a 2-factor, so poly_F2(K_n) <= poly_HC(K_n).
    # The palettes are construction lower bounds, so the chain compares the
    # f2 palette with the best certified Hamiltonian value: the exact optimum
    # where it is searched below, the Hamiltonian palette formula beyond.
    with criterion(8, "ordering relation and formula chain"):
        hc_exact = {}
        for n in (3, 4, 5):
            hc_exact[n] = brute_force_poly(n, HC).optimum
            assert brute_force_poly(n, F2).optimum <= hc_exact[n]
        # The two formulas do not nest at n = 3: K_3's single Hamiltonian
        # cycle makes the optimum 3, while the Hamiltonian construction gives 2.
        assert palette_size(HC, 3) == 2 < palette_size(F2, 3) == hc_exact[3] == 3
        for n in range(3, 10_001):
            f2_k = palette_size(F2, n)
            if n in hc_exact:
                hc_k, source = hc_exact[n], "exact brute_force_poly optimum"
            else:
                hc_k, source = palette_size(HC, n), "Hamiltonian palette formula"
            f1_plus = (n.bit_length() - 1) + 4
            assert f2_k <= hc_k <= f1_plus, (
                f"formula chain fails at n={n}: "
                f"{f2_k} <= {hc_k} ({source}) <= {f1_plus} does not hold"
            )
