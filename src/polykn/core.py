"""Edge-colorings of complete graphs and their structural certificates.

The central objects are surjective edge-colorings of K_n, vertex orderings,
and the "inherited" vertex coloring obtained by assigning each vertex its
main color.  A vertex is *ordered* at position i if all its edges to later
vertices share one color; it is *unitary* if all but one of its incident
edges share one color and the single off-color edge leads to a partner
vertex with the mirrored property.  A coloring is *combed* when some
ordering makes every vertex ordered or unitary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Iterator, NamedTuple, Optional

Edge = tuple[int, int]


def edge_index(n: int, i: int, j: int) -> int:
    """Index of pair (i, j), 1 <= i < j <= n, in lexicographic pair order."""
    return (i - 1) * (2 * n - i) // 2 + (j - i - 1)


def _endpoint_columns(n: int) -> tuple[Iterator[int], Iterator[int]]:
    """The first and the second endpoints of all pairs in lexicographic order."""
    first = chain.from_iterable(map(repeat, range(1, n), range(n - 1, 0, -1)))
    second = chain.from_iterable(map(range, range(2, n + 1), repeat(n + 1)))
    return first, second


def all_edges(n: int) -> list[Edge]:
    return list(zip(*_endpoint_columns(n)))


@dataclass(frozen=True)
class EdgeColoring:
    """A surjective coloring of the edges of K_n with colors 1..k.

    Colors are stored once per unordered pair in a flat triangular tuple so
    lookup is O(1).  Instances are canonical: every color in 1..k occurs on
    at least one edge.  Constructors compact gapped palettes (used colors
    are relabelled in ascending order).

    Direct construction checks only n and the length of `colors`; it trusts
    `k` to be the palette, since checking it needs a scan of every color.
    `from_colors` (which the other constructors call) is the checked
    constructor: it reads k off the colors.
    """

    n: int
    k: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 vertices")
        m = self.n * (self.n - 1) // 2
        if len(self.colors) != m:
            raise ValueError(f"expected {m} edges, got {len(self.colors)}")

    @staticmethod
    def from_colors(n: int, colors) -> "EdgeColoring":
        """Coloring from a flat list of colors in lexicographic pair order.

        Every color must be at least 1; a gapped palette is compacted.  The
        other constructors all end here.
        """
        used = sorted(set(colors))
        if used == list(range(1, len(used) + 1)):
            return EdgeColoring(n, len(used), tuple(colors))
        if used[0] < 1:
            raise ValueError(f"bad color {used[0]}")
        relabel = {c: t for t, c in enumerate(used, start=1)}
        return EdgeColoring(n, len(used), tuple(map(relabel.__getitem__, colors)))

    @staticmethod
    def from_pairs(n: int, mapping: dict[Edge, int]) -> "EdgeColoring":
        m = n * (n - 1) // 2
        if len(mapping) != m:
            raise ValueError(f"expected {m} edges, got {len(mapping)}")
        pairs = all_edges(n)
        try:
            colors = list(map(mapping.__getitem__, pairs))
        except KeyError:
            colors = []
        if len(colors) != m:
            # m keys miss a pair of K_n only when one of them is no pair
            valid = set(pairs)
            i, j = next(e for e in mapping if e not in valid)
            raise ValueError(f"bad edge ({i}, {j})")
        return EdgeColoring.from_colors(n, colors)

    @staticmethod
    def from_function(n: int, fn) -> "EdgeColoring":
        return EdgeColoring.from_colors(n, [fn(i, j) for (i, j) in all_edges(n)])

    def color(self, i: int, j: int) -> int:
        if i == j:
            raise ValueError("no loops in K_n")
        if i > j:
            i, j = j, i
        if not (1 <= i and j <= self.n):
            raise ValueError(f"vertex out of range: ({i}, {j})")
        return self.colors[edge_index(self.n, i, j)]

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Iterate (i, j, color) in lexicographic pair order."""
        return zip(*_endpoint_columns(self.n), self.colors)

    @cached_property
    def color_masks(self) -> tuple[tuple[int, ...], ...]:
        """Per-color vertex bitsets: bit u of color_masks[t][v] is set when
        edge vu has color t.  Row 0 and slot 0 of every row are empty."""
        n = self.n
        masks = [[0] * (n + 1) for _ in range(self.k + 1)]
        bits = [1 << v for v in range(n + 1)]
        pos = 0
        for i in range(1, n):
            for j, t in zip(range(i + 1, n + 1), self.colors[pos : pos + n - i]):
                masks[t][i] |= bits[j]
                masks[t][j] |= bits[i]
            pos += n - i
        return tuple(map(tuple, masks))

    def recolored(self, i: int, j: int, c: int) -> "EdgeColoring":
        """New coloring with one edge changed; result is re-canonicalized."""
        i, j = min(i, j), max(i, j)
        if not (1 <= i < j <= self.n):
            raise ValueError(f"bad edge ({i}, {j})")
        colors = list(self.colors)
        colors[edge_index(self.n, i, j)] = c
        return EdgeColoring.from_colors(self.n, colors)


@dataclass(frozen=True)
class VertexOrdering:
    """A permutation of 1..n; order[p-1] is the vertex at position p."""

    order: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.order) != list(range(1, len(self.order) + 1)):
            raise ValueError("ordering must be a permutation of 1..n")

    @staticmethod
    def identity(n: int) -> "VertexOrdering":
        return VertexOrdering(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.order)

    def vertex_at(self, p: int) -> int:
        if not 1 <= p <= len(self.order):
            raise ValueError(f"position out of range: {p}")
        return self.order[p - 1]


class UnitaryVertex(NamedTuple):
    vertex: int
    main: int
    minority: int
    partner: int


@dataclass(frozen=True)
class InheritedColoring:
    """Vertex mains of a combed coloring, in position order.

    ``sequence[p-1]`` is the main color of the vertex at position p of
    ``ordering``; prefix counts |M_t(j)| and majority moments are read off
    it.  ``unitary_set`` lists the unitary vertices (0, 3, or 4 of them)
    with their main color, minority color and partner.
    """

    coloring: EdgeColoring
    ordering: VertexOrdering
    sequence: tuple[int, ...]
    unitary_set: tuple[UnitaryVertex, ...]

    def __post_init__(self):
        if len(self.sequence) != self.coloring.n:
            raise ValueError("main colors must cover all vertices")
        if len(self.unitary_set) not in (0, 3, 4):
            raise ValueError("unitary vertices always come in groups of 3 or 4")
        if min(self.sequence) < 1 or max(self.sequence) > self.k:
            raise ValueError(f"main colors must lie in 1..{self.k}")

    @property
    def n(self) -> int:
        return self.coloring.n

    @property
    def k(self) -> int:
        return self.coloring.k

    def class_sizes(self) -> tuple[int, ...]:
        counts = Counter(self.sequence)
        return tuple(counts.get(t, 0) for t in range(1, self.k + 1))


class MajorityEntry(NamedTuple):
    color: int
    status: str  # "prefix" | "unitary" | "fails"
    j: Optional[int]


@dataclass(frozen=True)
class MajorityCertificate:
    """Per-color result of the prefix-majority check.

    A class containing a unitary vertex is flagged "unitary".  Any other
    color t is witnessed by the smallest j with |M_t(j)| > j/2 in strict
    mode, |M_t(j)| >= j/2 in weak mode.
    """

    n: int
    mode: str  # "strict" | "weak"
    entries: tuple[MajorityEntry, ...]

    @property
    def complete(self) -> bool:
        return all(e.status != "fails" for e in self.entries)

    def entry(self, t: int) -> MajorityEntry:
        if not 1 <= t <= len(self.entries):
            raise ValueError(f"color {t} outside 1..{len(self.entries)}")
        return self.entries[t - 1]

    def failing_colors(self) -> tuple[int, ...]:
        return tuple(e.color for e in self.entries if e.status == "fails")

    def unitary_colors(self) -> tuple[int, ...]:
        return tuple(e.color for e in self.entries if e.status == "unitary")


# ---------------------------------------------------------------------------
# operations


def _color_into(c: EdgeColoring, v: int, targets: int) -> Optional[int]:
    """The one color of every edge from v into the nonempty vertex bitset
    targets (v not in it), or None when those edges carry two colors:
    the color of the edge to the lowest target, if its bitset at v holds
    every target."""
    u = (targets & -targets).bit_length() - 1
    i, j = (u, v) if u < v else (v, u)
    t = c.colors[edge_index(c.n, i, j)]
    return t if c.color_masks[t][v] & targets == targets else None


def is_ordered_at(c: EdgeColoring, o: VertexOrdering, i: int) -> Optional[int]:
    """Main color at position i, or None if the rightward edges disagree.

    The last vertex has no later one and takes the color of its edge to
    the vertex before it, so positions n-1 and n report the same color.
    """
    n = c.n
    if o.n != n:
        raise ValueError(f"ordering has {o.n} vertices, coloring has {n}")
    if not (1 <= i <= n):
        raise ValueError(f"position {i} out of range")
    later = 0
    for u in o.order[i:]:
        later |= 1 << u
    return _color_into(c, o.order[i - 1], later or 1 << o.order[-2])


def is_unitary(c: EdgeColoring, v: int) -> Optional[tuple[int, int, int]]:
    """Return (main, minority, partner) if v is unitary, else None.

    v qualifies when exactly n-2 of its edges share a color a and the one
    remaining edge vu has a color b != a with u itself carrying n-2 edges
    of color b.  For n = 3 both color splits can qualify; the smallest main
    color wins.
    """
    n = c.n
    if n < 3:
        raise ValueError("unitary vertices need n >= 3")
    if not (1 <= v <= n):
        raise ValueError(f"vertex out of range: {v}")
    masks = c.color_masks
    present = [t for t in range(1, c.k + 1) if masks[t][v]]
    if len(present) != 2:
        return None
    for a, b in (present, present[::-1]):
        # v's n-1 edges split n-2 / 1, so masks[b][v] holds the partner alone
        if masks[a][v].bit_count() == n - 2:
            u = masks[b][v].bit_length() - 1
            if masks[b][u].bit_count() == n - 2:
                return (a, b, u)
    return None


def _unitary_structure(c: EdgeColoring) -> dict[int, UnitaryVertex]:
    """Map every truly unitary vertex to its UnitaryVertex record.

    ``is_unitary`` is a one-step shape check; genuine unitarity additionally
    requires the partner chain to close (the partner must itself be unitary).
    After discarding vertices whose chain dies, the survivors form a single
    partner cycle of length 3 (distinct mains) or 4 (two alternating mains),
    or there are none at all (always for n = 2).
    """
    n = c.n
    if n == 2:
        return {}
    if n == 3:
        p, q, r = c.color(1, 2), c.color(1, 3), c.color(2, 3)
        if len({p, q, r}) == 3:
            # rainbow triangle: every vertex is unitary; fix the partner
            # cycle 1 -> 3 -> 2 -> 1 so mains are deterministic
            cycle = UnitaryVertex(1, p, q, 3), UnitaryVertex(2, r, p, 1), UnitaryVertex(3, q, r, 2)
            return {u.vertex: u for u in cycle}
        return {}
    info = {}
    # column v holds v's bitset per color; is_unitary needs two colors at v
    for v, column in enumerate(zip(*c.color_masks)):
        if v and column.count(0) == c.k - 1:
            res = is_unitary(c, v)
            if res is not None:
                info[v] = UnitaryVertex(v, *res)
    # drop shape-only vertices until partners are closed under the map
    changed = True
    while changed:
        changed = False
        for v in list(info):
            if info[v].partner not in info:
                del info[v]
                changed = True
    if not info:
        return info
    # survivors can only be one partner cycle on 3 or 4 vertices
    seen: set[int] = set()
    v = min(info)
    while v not in seen:
        seen.add(v)
        v = info[v].partner
    if len(seen) != len(info) or len(info) not in (3, 4):
        raise RuntimeError(f"inconsistent unitary structure: {info}")
    return info


def _greedy_order(
    c: EdgeColoring, prefix: list[int]
) -> tuple[list[int], list[int], list[int]]:
    """Extend prefix, always taking the smallest remaining vertex whose
    edges to the other remaining vertices are monochromatic, until two
    vertices remain or none qualifies.  Returns (placed, remaining, mains),
    mains holding the color of each vertex placed after prefix."""
    n = c.n
    remaining = sorted(set(range(1, n + 1)).difference(prefix))
    rest = 0  # bitset of remaining
    for v in remaining:
        rest |= 1 << v
    placed = list(prefix)
    mains: list[int] = []
    while len(remaining) > 2:
        for v in remaining:
            t = _color_into(c, v, rest ^ (1 << v))
            if t is not None:
                break
        else:
            break
        placed.append(v)
        mains.append(t)
        remaining.remove(v)
        rest ^= 1 << v
    return placed, remaining, mains


def comb_prefix(
    c: EdgeColoring,
) -> tuple[tuple[UnitaryVertex, ...], list[int], list[int]]:
    """(unitary, order, mains): the comb search's ordering as far as it is
    certified.  order holds the unitary vertices in label order, then the
    greedy's picks, then the last two vertices once at most two remain;
    it covers all n vertices exactly when c is combed.  The vertex
    order[p-1] has main color mains[p-1], and each of its edges to a later
    vertex carries that color, apart from a unitary vertex's partner edge.
    """
    unitary = _unitary_structure(c)
    first = sorted(unitary)
    placed, remaining, picked = _greedy_order(c, first)
    mains = [unitary[v].main for v in first] + picked
    if len(remaining) <= 2:
        placed += remaining
        mains += [c.color(*placed[-2:])] * len(remaining)
    return tuple(map(unitary.__getitem__, first)), placed, mains


def inherited_coloring(c: EdgeColoring, o: VertexOrdering) -> InheritedColoring:
    """Inherited coloring of c under ordering o.

    Every vertex must be ordered at its position or unitary; unitary mains
    take precedence (the two agree wherever both apply).  The last vertex
    takes the color of its edge to the vertex before it, as in is_ordered_at.
    """
    n = c.n
    if o.n != n:
        raise ValueError(f"ordering has {o.n} vertices, coloring has {n}")
    unitary = _unitary_structure(c)
    mains = [0] * n
    later = 0  # bitset of the vertices after position p
    bad = None  # the lowest position that is neither ordered nor unitary
    for p, v in zip(range(n, 0, -1), reversed(o.order)):
        if v in unitary:
            mains[p - 1] = unitary[v].main
        else:
            mains[p - 1] = _color_into(c, v, later or 1 << o.order[-2])
            if mains[p - 1] is None:
                bad = (v, p)
        later |= 1 << v
    if bad is not None:
        raise ValueError(f"vertex {bad[0]} is neither ordered at position {bad[1]} nor unitary")
    return InheritedColoring(c, o, tuple(mains), tuple(sorted(unitary.values())))


def comb_certificate(c: EdgeColoring) -> Optional[InheritedColoring]:
    """Search for an ordering under which c is combed.

    A valid unitary prefix (3 or 4 vertices, placed first in label order) is
    extracted when present, then remaining vertices are ordered greedily
    (comb_prefix).  Returns None when no combing ordering exists.
    """
    unitary, order, mains = comb_prefix(c)
    if len(order) < c.n:
        return None
    return InheritedColoring(c, VertexOrdering(tuple(order)), tuple(mains), unitary)

