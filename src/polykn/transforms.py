"""Local moves on witnesses and colorings.

A 2-switch exchanges two disjoint 2-factor edges for a cross pair, where
both reconnections can be legal; a twist is the one 2-switch of a
Hamiltonian cycle that keeps a single cycle.  Max-vertex profiles
read monochromatic degrees outside a frozen vertex set as popcounts of the
per-color bitsets `EdgeColoring.color_masks`, and the greedy
comb-improvement loop recolors off-color edges at max-vertices whenever an
exact feasibility query shows polychromaticity cannot break.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .constructions import FamilyKind
from .core import Edge, EdgeColoring, _greedy_order, comb_certificate, edge_index
from .families import (
    AllowedGraph,
    SubgraphWitness,
    find_member_containing,
)
from .verify import is_polychromatic


def twist(h: SubgraphWitness, e1: Edge, e2: Edge) -> SubgraphWitness:
    """Remove two disjoint cycle edges and reconnect into a single cycle.

    This is the 2-switch whose result is one Hamiltonian cycle: orienting
    the cycle and removing arcs a->b, c->d, the only reconnection
    preserving one cycle adds {a, c} and {b, d} and reverses the b..c arc.
    """
    if h.kind is not FamilyKind.HAMILTONIAN_CYCLE:
        raise ValueError("twist operates on Hamiltonian cycles")
    for choice in (0, 1):
        try:
            out = SubgraphWitness(h.kind, two_switch(h, e1, e2, choice).edges)
            out.validate(len(h.edges))
            return out
        except ValueError:
            if choice:
                raise


def two_switch(f: SubgraphWitness, e1: Edge, e2: Edge, choice: int) -> SubgraphWitness:
    """Exchange two disjoint 2-factor edges for one of the two cross pairs.

    With e1 = (a, b) and e2 = (c, d) endpoint-sorted, choice 0 adds
    {a, c}, {b, d} and choice 1 adds {a, d}, {b, c}.  A choice is illegal
    when a replacement edge already belongs to the 2-factor.
    """
    if f.kind not in (FamilyKind.TWO_FACTOR, FamilyKind.HAMILTONIAN_CYCLE):
        raise ValueError("2-switch operates on 2-factors")
    if choice not in (0, 1):
        raise ValueError("choice must be 0 or 1")
    e1, e2 = tuple(sorted(e1)), tuple(sorted(e2))
    if e1 not in f.edges or e2 not in f.edges:
        raise ValueError("both edges must lie in the 2-factor")
    if set(e1) & set(e2):
        raise ValueError("edges must be disjoint")
    a, b = e1
    c, d = e2
    new_pair = [(a, c), (b, d)] if choice == 0 else [(a, d), (b, c)]
    new_pair = [tuple(sorted(e)) for e in new_pair]
    remaining = [e for e in f.edges if e not in (e1, e2)]
    for e in new_pair:
        if e in remaining:
            raise ValueError(f"replacement edge {e} already present")
    n = max(max(e) for e in f.edges)
    out = SubgraphWitness(FamilyKind.TWO_FACTOR, tuple(sorted(remaining + new_pair)))
    out.validate(n)
    return out


class VertexStats(NamedTuple):
    vertex: int
    degree: int  # maximum monochromatic degree inside the induced coloring
    color: int  # a color attaining it (smallest on ties)
    minority: Optional[int]  # set when all off-color edges share one color


@dataclass(frozen=True)
class MaxVertexProfile:
    """Monochromatic-degree profile of the coloring restricted to V minus X."""

    n: int
    outside: frozenset[int]  # X
    stats: tuple[VertexStats, ...]
    max_degree: int
    max_vertices: tuple[int, ...]
    s_vertices: Optional[tuple[int, ...]]
    t_vertices: Optional[tuple[int, ...]]
    w_vertices: Optional[tuple[int, ...]]


def max_vertex_profile(c: EdgeColoring, outside: frozenset[int] | set[int]) -> MaxVertexProfile:
    """Per-vertex monochromatic degrees in K_n restricted to V minus X.

    Color t's degree at v is the popcount of color_masks[t][v] on the bitset
    of V minus X.  When the minority pairs of the max-vertices use exactly
    two colors, the vertices split into S ((x,y)-max), T ((y,x)-max) and W
    (the rest), mirroring the exchange analysis.
    """
    X = frozenset(outside)
    zs = [v for v in range(1, c.n + 1) if v not in X]
    if not zs:
        raise ValueError("V minus X must be nonempty")
    z = sum(1 << v for v in zs)
    stats = []
    for v in zs:
        counts = [(row[v] & z).bit_count() for row in c.color_masks]
        degree = max(counts)
        color = counts.index(degree)  # row 0 is empty: a lone vertex gets color 0
        others = [t for t, cnt in enumerate(counts) if cnt and t != color]
        stats.append(VertexStats(v, degree, color, others[0] if len(others) == 1 else None))
    max_degree = max(s.degree for s in stats)
    max_vertices = []
    by_pair: dict[tuple[int, int], list[int]] = {}  # (color, minority) -> max-vertices
    for s in stats:
        if s.degree == max_degree:
            max_vertices.append(s.vertex)
            if s.minority is not None:
                by_pair.setdefault((s.color, s.minority), []).append(s.vertex)
    s_set = t_set = w_set = None
    colors = sorted({t for pair in by_pair for t in pair})
    if len(colors) == 2:  # minority != color, so every pair is (x, y) or (y, x)
        x, y = colors
        s_set, t_set = tuple(by_pair.get((x, y), ())), tuple(by_pair.get((y, x), ()))
        w_set = tuple(v for v in zs if v not in s_set and v not in t_set)
    return MaxVertexProfile(
        c.n, X, tuple(stats), max_degree, tuple(max_vertices), s_set, t_set, w_set
    )


def recolor_unitary_triple(c: EdgeColoring, x: int, y: int, z: int) -> EdgeColoring:
    """Recolor all edges at x, y, z so they become a unitary rainbow triple.

    Edges at x turn color 1 except xy; at y color 2 except yz; at z color 3
    except zx.  The triangle ends up colored xy=2, yz=3, zx=1, making x, y,
    z unitary with mains 1, 2, 3.  Edges disjoint from the triple keep
    their colors up to compaction, as in ``EdgeColoring.recolored``: a
    color whose class lay entirely at the triple vanishes, and every
    higher color shifts down.
    """
    if len({x, y, z}) != 3:
        raise ValueError("vertices must be distinct")
    if not all(1 <= v <= c.n for v in (x, y, z)):
        raise ValueError(f"vertices must lie in 1..{c.n}")
    if c.k < 3:
        raise ValueError("colors 1, 2 and 3 must exist before recoloring")
    n = c.n
    colors = list(c.colors)
    for v, main in ((x, 1), (y, 2), (z, 3)):
        for u in range(1, n + 1):
            if u != v:
                colors[edge_index(n, min(u, v), max(u, v))] = main
    for (u, v), col in (((x, y), 2), ((y, z), 3), ((z, x), 1)):
        colors[edge_index(n, min(u, v), max(u, v))] = col
    return EdgeColoring.from_colors(n, colors)


@dataclass(frozen=True)
class ImproveResult:
    coloring: EdgeColoring
    combed: bool
    moves: int
    constant_set_size: int


def _safe_move(c: EdgeColoring, kind: FamilyKind, profile: MaxVertexProfile, zs: list[int]):
    """The first safe recoloring, checked, or None.  Max-vertices v go in
    ascending order, then u ascending over Z; an edge uv of color t other
    than v's majority color a turns a when no member through uv avoids the
    other color-t edges.  The result must keep the palette and
    polychromaticity and raise the max monochromatic degree."""
    for v, degree, a, _ in profile.stats:
        if degree < profile.max_degree:
            continue
        for u in zs:
            if u == v or (t := c.color(u, v)) == a:
                continue
            lone = find_member_containing(kind, AllowedGraph.minus_color(c, t), (u, v))
            if lone is not None:
                continue  # some member would lose its only t edge
            candidate = c.recolored(u, v, a)
            if candidate.k != c.k:
                raise RuntimeError("palette changed by a safe recoloring")
            if not is_polychromatic(candidate, kind).polychromatic:
                raise RuntimeError("polychromaticity lost by a safe recoloring")
            if max_vertex_profile(candidate, profile.outside).max_degree <= profile.max_degree:
                raise RuntimeError("accepted move did not raise the measure")
            return candidate
    return None


def improve_toward_combed(c: EdgeColoring, kind: FamilyKind) -> ImproveResult:
    """Greedy polychromaticity-preserving push toward a combed coloring.

    Vertices whose edges to the rest of Z are monochromatic accrete into a
    constant set X.  Then, at a max-vertex v of Z with majority color a, an
    off-color edge uv may be recolored to a whenever every family member
    through uv keeps a second edge of its color - checked exactly by asking
    for a member forced through uv in the graph of other-colored edges.
    Each accepted move raises (|X|, max monochromatic degree), so the loop
    terminates; the output need not be combed and is reported with a flag.
    """
    cert = is_polychromatic(c, kind)
    if not cert.polychromatic:
        raise ValueError("input coloring is not polychromatic for this family")
    current = c
    x_set: list[int] = []
    moves = 0
    while True:
        # accretion: monochromatic-toward-Z vertices join X
        x_set, zs, _ = _greedy_order(current, x_set)
        if len(zs) <= 2:
            break
        moved = _safe_move(current, kind, max_vertex_profile(current, frozenset(x_set)), zs)
        if moved is None:
            break
        current = moved
        moves += 1
    combed = comb_certificate(current) is not None
    return ImproveResult(current, combed, moves, len(x_set))
