"""Exact existence and enumeration engines for spanning subgraph families.

Existence queries run against an allowed edge set (typically K_n minus one
color class), validated once as an `AllowedGraph` (or built valid by
`AllowedGraph.minus_color`); the engines read its per-vertex bitset rows
alone.  All three families go through one function that turns a forced
edge uv into an unforced query on a copy of the rows: a 1-factor edge
becomes the only edge at u and at v, and any other edge gives way to a
new vertex joined only to u and v.  The engines then take the rows and
the member degree d, 1 or 2, and nothing else:

* 1-factors and 2-factors via one degree-constrained subgraph engine: at
  d = 1 the blossom's greedy seed runs on the rows, and blossom maximum
  matching runs only when the seed leaves a vertex free.  At d = 2 a query
  passes the degree check and then goes to one bitset flow on the
  bipartite double cover (an out-copy and an in-copy per vertex): at 2
  units it refutes every query whose fractional relaxation is empty; at 1
  unit it is the cover's perfect matching, whose 2-cycles one exchange
  each removes to give the member.  The rest goes to Tutte's compact
  reduction (two external nodes per allowed edge, two core nodes per
  vertex), which the blossom solves exactly,
* Hamiltonian cycles via a ladder of refutations, cheapest first, at
  every n: the separator test (which cuts off every vertex of degree
  below 2), then the degree check and the 2-factor relaxation, then one
  exact search for a Hamiltonian path that closes the cycle, from vertex 1
  or from a forced edge's new vertex: a pruned depth-first search, run on
  an explicit stack, that never expands a failed (free set, current
  vertex) state twice.

Enumeration is a separate brute-force oracle that emits members in
lexicographic order of their sorted edge lists.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress
from typing import Iterator, Optional

from .constructions import FamilyKind, check_n
from .core import Edge, EdgeColoring

ENUMERATION_CAPS = {
    FamilyKind.ONE_FACTOR: 16,
    FamilyKind.TWO_FACTOR: 12,
    FamilyKind.HAMILTONIAN_CYCLE: 12,
}


class CapExceededError(ValueError):
    pass


@dataclass(frozen=True)
class AllowedGraph:
    """Symmetric loop-free edge set over vertices 1..n, as per-vertex bitsets.

    Direct construction and `from_edges` check the rows; `minus_color`
    builds them from a coloring's color classes, valid by construction,
    and skips the check.
    """

    n: int
    masks: tuple[int, ...]  # index v holds neighbor bits; index 0 unused

    def __post_init__(self):
        n, masks = self.n, self.masks
        if len(masks) != n + 1:
            raise ValueError("masks must have one entry per vertex plus slot 0")
        full = (2 << n) - 2  # bits 1..n
        if masks[0] or any(m & ~full for m in masks):
            raise ValueError("neighbor bit out of range")
        if any((m >> v) & 1 for v, m in enumerate(masks)):
            raise ValueError("loops are not allowed")
        # character u of row v is bit u: symmetric iff the rows are the columns
        rows = [format(m, f"0{n + 1}b")[::-1] for m in masks]
        if rows != list(map("".join, zip(*rows))):
            raise ValueError("adjacency must be symmetric")

    @staticmethod
    def from_edges(n: int, edges) -> "AllowedGraph":
        masks = [0] * (n + 1)
        for (i, j) in edges:
            if i == j or not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"bad edge ({i}, {j})")
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return AllowedGraph(n, tuple(masks))

    @staticmethod
    def complete(n: int) -> "AllowedGraph":
        full = (2 << n) - 2  # bits 1..n
        return AllowedGraph(n, tuple(0 if v == 0 else full & ~(1 << v) for v in range(n + 1)))

    @staticmethod
    def minus_color(c: EdgeColoring, t: int) -> "AllowedGraph":
        """K_n minus the color-t edges of c (t in 1..c.k), from its per-color bitsets."""
        if not 1 <= t <= c.k:
            raise ValueError(f"color {t} outside 1..{c.k}")
        full = (2 << c.n) - 2
        drop = c.color_masks[t]
        masks = (full & ~(1 << v) & ~drop[v] for v in range(1, c.n + 1))
        # color_masks rows are symmetric and loop-free, and so is K_n minus them
        g = object.__new__(AllowedGraph)
        object.__setattr__(g, "n", c.n)
        object.__setattr__(g, "masks", (0, *masks))
        return g

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.masks[i] >> j) & 1)

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def edges(self) -> list[Edge]:
        return _edges(self.masks)


def _edges(masks) -> list[Edge]:
    out = []
    for i in range(1, len(masks)):
        m = masks[i] >> (i + 1)
        j = i + 1
        while m:
            if m & 1:
                out.append((i, j))
            m >>= 1
            j += 1
    return out


@dataclass(frozen=True)
class SubgraphWitness:
    """An edge set certified as a member of one of the three families.

    Edges are normalized on construction: endpoints sorted within a pair,
    pairs sorted lexicographically.
    """

    kind: FamilyKind
    edges: tuple[Edge, ...]

    def __post_init__(self):
        normalized = tuple(sorted(tuple(sorted(e)) for e in self.edges))
        if normalized != self.edges:
            object.__setattr__(self, "edges", normalized)

    def validate(self, n: int) -> None:
        masks = [0] * (n + 1)
        for (i, j) in self.edges:
            if not (1 <= i < j <= n):
                raise ValueError(f"bad witness edge ({i}, {j})")
            if (masks[i] >> j) & 1:
                raise ValueError(f"repeated witness edge ({i}, {j})")
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        target = self.kind.degree
        for v in range(1, n + 1):
            deg = masks[v].bit_count()
            if deg != target:
                raise ValueError(f"vertex {v} has degree {deg}, expected {target}")
        all_bits = (2 << n) - 2
        if self.kind is FamilyKind.HAMILTONIAN_CYCLE and _reach(masks, 2, all_bits) != all_bits:
            raise ValueError("Hamiltonian cycle witness is disconnected")


# ---------------------------------------------------------------------------
# perfect matching with blossom contraction (0-based internally)


def maximum_matching(n: int, adj: list[list[int]]) -> Optional[list[int]]:
    """A perfect matching (match[v] is the partner of v), or None if none exists.

    Edmonds' blossom algorithm after a greedy seed that takes the vertices
    of lowest degree first: one breadth-first search per free root.  The
    search tree keeps its vertices grouped by blossom base, so a contraction
    relabels only the vertices of the blossoms it merges, never all n.  The
    first search that fails decides the answer: if a perfect matching P
    existed, the component of the root in the symmetric difference of P and
    the current matching would be an augmenting path from the root (Berge
    1957), which the search finds whenever one exists (Edmonds 1965).
    """
    match = [-1] * n
    # a vertex whose few neighbors are taken early stays free, so the
    # greedy seed matches low degrees first and needs fewer searches;
    # _degree_constrained_subgraph runs this same seed on bitset rows and
    # relies on the two choosing identical pairs
    for v in sorted(range(n), key=lambda v: len(adj[v])):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v], match[u] = u, v
                    break
    parent = [-1] * n
    base = list(range(n))
    outer = [False] * n  # even vertices of the current tree

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: dict[int, None]) -> None:
        while base[v] != b:
            blossom[base[v]] = None
            blossom[base[match[v]]] = None
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting_path(root: int, members: dict[int, list[int]]) -> bool:
        outer[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    cur = lca(v, to)
                    blossom: dict[int, None] = {}  # bases on the cycle below cur, in path order
                    mark_path(v, cur, to, blossom)
                    mark_path(to, cur, v, blossom)
                    into = members[cur]
                    for b in blossom:
                        for i in members.pop(b):
                            base[i] = cur
                            if not outer[i]:
                                outer[i] = True
                                queue.append(i)
                            into.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    members[to] = [to]
                    if match[to] == -1:
                        u = to
                        while u != -1:
                            pv = parent[u]
                            ppv = match[pv]
                            match[u], match[pv] = pv, u
                            u = ppv
                        return True
                    members[match[to]] = [match[to]]
                    outer[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            members = {v: [v]}  # the tree's vertices by their blossom base
            if not find_augmenting_path(v, members):
                return None
            for group in members.values():
                for i in group:
                    parent[i], base[i], outer[i] = -1, i, False
    return match


# ---------------------------------------------------------------------------
# degree-constrained subgraphs: 1-factors and 2-factors


def _index_lists(masks) -> list[list[int]]:
    """Adjacency lists for the blossom, 0-based: entry v - 1 lists the
    neighbors w of v as w - 1."""
    flags = bytes.maketrans(b"01", b"\0\1")
    # byte u of the reversed binary string is bit u, vertex u, entry u - 1
    return [list(compress(range(-1, len(masks)), format(m, "b")[::-1].encode().translate(flags)))
            for m in masks[1:]]


def _cover_flow(masks, units: int) -> Optional[list[int]]:
    """Route the double cover: the out-copy of each vertex supplies
    `units`, the in-copy of each absorbs as many, and each allowed edge vw
    carries at most one unit on each of v->w and w->v.  Returns used
    (used[v]: the in-copies v's out-copy feeds) when every unit routes,
    else None.

    At 2 units a routing exists exactly when {0 <= x <= 1, x(delta(v)) = 2}
    is nonempty, so None refutes every 2-factor (Anstee 1987); at 1 unit a
    routing is a perfect matching of the cover.  A greedy seed takes the
    lowest degrees first; each missing unit then takes one breadth-first
    augmenting path, with bitset frontiers and per-vertex parents.
    """
    n = len(masks) - 1
    used = [0] * (n + 1)  # used[v]: the in-copies fed by v's out-copy
    fed = [0] * (n + 1)  # fed[w]: the out-copies feeding w's in-copy
    short = (2 << n) - 2  # in-copies with room
    spare = 0  # out-copies with units left
    for v in sorted(range(1, n + 1), key=lambda v: masks[v].bit_count()):
        need, m = units, masks[v] & short
        while need and m:
            bit = m & -m
            m ^= bit
            w = bit.bit_length() - 1
            used[v] |= bit
            fed[w] |= 1 << v
            if fed[w].bit_count() == units:
                short ^= bit
            need -= 1
        if need:
            spare |= 1 << v
    via_in = [0] * (n + 1)  # the out-copy whose unused arc reached w's in-copy
    via_out = [0] * (n + 1)  # the in-copy whose used arc reached v's out-copy
    while spare:
        seen_out = frontier = spare
        seen_in = end = 0
        while frontier and not end:
            nxt = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                v = bit.bit_length() - 1
                m = masks[v] & ~used[v] & ~seen_in
                seen_in |= m
                if m & short:
                    end = (m & short).bit_length() - 1
                    via_in[end] = v
                    break
                while m:
                    b = m & -m
                    m ^= b
                    w = b.bit_length() - 1
                    via_in[w] = v
                    new = fed[w] & ~seen_out
                    seen_out |= new
                    nxt |= new
                    while new:
                        b = new & -new
                        new ^= b
                        via_out[b.bit_length() - 1] = w
            frontier = nxt
        if not end:
            return None
        # each inner in-copy gains one feeder and loses one: only the ends change
        w = end
        while True:
            v = via_in[w]
            used[v] |= 1 << w
            fed[w] |= 1 << v
            if (spare >> v) & 1:
                break
            w = via_out[v]
            used[v] ^= 1 << w
            fed[w] ^= 1 << v
        if fed[end].bit_count() == units:
            short ^= 1 << end
        if used[v].bit_count() == units:
            spare ^= 1 << v
    return used


def _split_two_cycles(masks, succ: list[int]) -> bool:
    """Remove the 2-cycles of the permutation succ of 1..n in place, one
    exchange each; False if one of them stays.

    For a 2-cycle succ[u] = v, succ[v] = u, a vertex a outside it with
    b = succ[a], ub allowed and av allowed gives succ[u] = b, succ[a] = v.
    The exchange closes no new 2-cycle: u's only preimage is v, and b != v
    because v's only preimage was u != a; v maps to u, not to a.
    """
    n = len(succ) - 1
    for x in range(1, n + 1):
        y = succ[x]
        if y < x or succ[y] != x:
            continue  # not a 2-cycle, or one already seen from y
        for u, v in ((x, y), (y, x)):
            a = next((a for a in range(1, n + 1)
                      if a != u and (masks[v] >> a) & 1 and (masks[u] >> succ[a]) & 1), 0)
            if a:
                succ[u], succ[a] = succ[a], v
                break
        else:
            return False
    return True


def _degree_constrained_subgraph(masks, d: int) -> Optional[list[Edge]]:
    """Spanning subgraph of the rows with degree d at every vertex, or None.

    At d = 1 this is a perfect matching.  The blossom's own greedy seed
    runs first on the rows (the fewest neighbors first, ties by label, each
    taking its lowest free neighbor); a seed that leaves no vertex free is
    the blossom's answer, so only a seed that does builds the blossom's
    lists.

    At d = 2, after the degree check, the rungs run on the bipartite double
    cover (`_cover_flow`): an out-copy and an in-copy per vertex, the arcs
    v->w and w->v per allowed edge vw.  A member, doubled, routes 2 units
    per vertex, so a failed routing refutes.  Such a routing is 2-regular
    on the cover, so it holds a perfect matching (Konig), and the flow at
    1 unit finds one: a permutation of the vertices along allowed edges.
    Once `_split_two_cycles` has exchanged away its 2-cycles, the
    permutation's arcs are the member.  A 2-cycle that no exchange removes
    hands the question to Tutte's gadget, the exact step.
    """
    n = len(masks) - 1
    if any(masks[v].bit_count() < d for v in range(1, n + 1)):
        return None
    if d == 1:
        free = (2 << n) - 2
        pairs = []
        for v in sorted(range(1, n + 1), key=lambda v: masks[v].bit_count()):
            m = masks[v] & free
            if (free >> v) & 1 and m:
                u = (m & -m).bit_length() - 1
                free ^= 1 << v | 1 << u
                pairs.append((v, u) if v < u else (u, v))
        if not free:
            return sorted(pairs)
        match = maximum_matching(n, _index_lists(masks))
        return None if match is None else [(i + 1, j + 1) for i, j in enumerate(match) if i < j]
    if _cover_flow(masks, 2) is None:
        return None
    succ = [u.bit_length() - 1 for u in _cover_flow(masks, 1)]
    if _split_two_cycles(masks, succ):
        return [(v, w) if v < w else (w, v) for v, w in enumerate(succ) if v]
    return _tutte_gadget(masks)


def _tutte_gadget(masks) -> Optional[list[Edge]]:
    """Exact 2-factor by Tutte's reduction to perfect matching.

    Each allowed edge becomes two joined external nodes, one per endpoint,
    and each vertex gets two core nodes joined to all of its external
    nodes.  The gadget has 2|E| + 2n nodes and about 5|E| edges.  An edge
    is left out exactly when its two external nodes are matched to each
    other; otherwise both are matched into the cores of their endpoints.
    """
    n = len(masks) - 1
    adj: list[list[int]] = []
    edges = _edges(masks)
    incident: list[list[int]] = [[] for _ in range(n + 1)]  # external nodes at v
    for k, (a, b) in enumerate(edges):
        incident[a].append(2 * k)
        incident[b].append(2 * k + 1)
        adj += [[2 * k + 1], [2 * k]]
    for v in range(1, n + 1):
        for _ in range(2):
            core = len(adj)
            adj.append(list(incident[v]))
            for x in incident[v]:
                adj[x].append(core)
    match = maximum_matching(len(adj), adj)
    return None if match is None else [e for k, e in enumerate(edges) if match[2 * k] != 2 * k + 1]


# ---------------------------------------------------------------------------
# Hamiltonian cycles: polynomial refutations first, exact search second


def _reach(masks, seed: int, within: int) -> int:
    """Bitset flood fill: the seed bits plus every vertex of `within`
    reachable from them through vertices of `within`."""
    reach = frontier = seed
    while frontier:
        nxt = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            nxt |= masks[bit.bit_length() - 1]
        frontier = nxt & within & ~reach
        reach |= frontier
    return reach


def _ham_path(adj, start: int) -> Optional[list[int]]:
    """Hamiltonian path from start to a neighbor of start, so that it
    closes into a cycle, or None.

    Depth-first on an explicit stack, so the path may be longer than the
    recursion limit: free neighbors with the fewest free neighbors go first.
    The closers are the neighbors of start that may still end the path.
    Once a first step a has been tried, a is no closer: a cycle closing at
    a would, reversed, have started with a (the reversal cut).  A step
    cur -> v is cut when no closer stays free to end the path, or v ends it
    and is no closer (the closer cut); when another free neighbor of cur
    keeps fewer than 2 usable neighbors (free, v or start); or when some
    free vertex is no longer reachable from v through free vertices.  A
    failed (free set, current vertex) state is never expanded twice, so at
    most n * 2^(n-1) states are searched, the bound of the Held-Karp
    bitmask DP.  Fewer closers never revive a failed state.
    """
    target = 1 << start
    closers = adj[start]
    dead: set[tuple[int, int]] = set()

    def viable(cur: int, v: int, rest: int) -> bool:
        here = 1 << v
        if not closers & (rest or here):
            return False
        usable = rest | here | target
        m = adj[cur] & rest  # cur's free neighbors lost a usable one
        while m:
            bit = m & -m
            m ^= bit
            if (adj[bit.bit_length() - 1] & usable).bit_count() < 2:
                return False
        return not rest & ~_reach(adj, here, rest)

    def candidates(cur: int, free: int) -> Iterator[int]:
        m = adj[cur] & free
        cands = []
        while m:
            bit = m & -m
            m ^= bit
            cands.append(bit.bit_length() - 1)
        cands.sort(key=lambda v: (adj[v] & free).bit_count())
        return iter(cands)

    # one frame (path vertex, free set, untried candidates) per path vertex
    free = ((2 << (len(adj) - 1)) - 2) & ~target
    stack = [(start, free, candidates(start, free))]
    while stack:
        cur, free, cands = stack[-1]
        for v in cands:
            if cur == start:
                closers &= ~(1 << v)
            rest = free & ~(1 << v)
            if (rest, v) in dead:
                continue
            if viable(cur, v, rest):
                if not rest:
                    return [frame[0] for frame in stack] + [v]
                stack.append((v, rest, candidates(v, rest)))
                break
            dead.add((rest, v))
        else:  # every candidate failed, so the state (free, cur) did
            stack.pop()
            dead.add((free, cur))
    return None


def _separator_refutes(masks) -> bool:
    """Hamiltonian refutation: removing S must leave at most |S| components.
    Tries S = N(u), the open neighborhood of u, for every u."""
    n = len(masks) - 1
    all_bits = (2 << n) - 2
    for u in range(1, n + 1):
        s_bits = masks[u]
        size = s_bits.bit_count()
        if size >= n - 1:
            continue
        left = all_bits & ~s_bits
        for _ in range(size):  # drop the allowed number of components
            if not left:
                break
            left &= ~_reach(masks, left & -left, left)
        if left:
            return True
    return False


# ---------------------------------------------------------------------------
# public existence API


def _find(kind: FamilyKind, g: AllowedGraph, forced: Optional[Edge]) -> Optional[SubgraphWitness]:
    """Member of the family in g, containing `forced` when given, or None;
    Hamiltonian queries go down the refutation ladder, cheapest first.

    The engines see rows and the family's degree d alone, so a forced edge
    uv becomes rows whose members are exactly the members through uv.  At
    d = 1, uv becomes the only edge at u and at v, and u and v leave every
    other row.  At d = 2, uv leaves the rows and a vertex x = n + 1 joins
    u and v alone: read ux and xv back as uv.
    """
    n = g.n
    check_n(kind, n)
    masks = g.masks
    if forced is not None:
        u, v = forced
        ends = (1 << u) | (1 << v)
        if kind.degree == 1:
            masks = [m & ~ends for m in masks]
            masks[u], masks[v] = 1 << v, 1 << u
        else:
            x = 1 << (n + 1)
            masks = [*masks, ends]
            masks[u], masks[v] = masks[u] & ~ends | x, masks[v] & ~ends | x
    if kind is not FamilyKind.HAMILTONIAN_CYCLE:
        found = _degree_constrained_subgraph(masks, kind.degree)
    elif _separator_refutes(masks) or _degree_constrained_subgraph(masks, 2) is None:
        found = None
    else:
        path = _ham_path(masks, 1 if forced is None else n + 1)
        found = None if path is None else kind.along(path)
    if found is None:
        return None
    if forced is not None and kind.degree == 2:  # ux and xv become uv
        found = [e for e in found if n + 1 not in e] + [forced]
    witness = SubgraphWitness(kind, tuple(found))
    witness.validate(n)
    for e in witness.edges:
        if e != forced and not (masks[e[0]] >> e[1]) & 1:
            raise RuntimeError(f"engine used forbidden edge {e}")
    return witness


def find_member(kind: FamilyKind, g: AllowedGraph) -> Optional[SubgraphWitness]:
    """A member of the family inside the allowed graph, or None. Exact."""
    return _find(kind, g, None)


def find_member_containing(kind: FamilyKind, g: AllowedGraph, edge: Edge) -> Optional[SubgraphWitness]:
    """Member using edges of g plus `edge`, forced to contain `edge`. Exact."""
    u, v = min(edge), max(edge)
    if not (1 <= u < v <= g.n):
        raise ValueError(f"bad edge ({u}, {v})")
    return _find(kind, g, (u, v))


# ---------------------------------------------------------------------------
# enumeration oracle


def _degree_regular_members(kind: FamilyKind, rows) -> Iterator[tuple[Edge, ...]]:
    """All members of the family inside the rows, lexicographically.

    Completes vertices in increasing order, so the edge list is built
    already sorted and members stream in lexicographic order of their
    sorted edge lists.  The member's own rows give its degrees.
    """
    n = len(rows) - 1
    target = kind.degree
    all_bits = (2 << n) - 2
    mem = [0] * (n + 1)
    edges: list[Edge] = []

    def rec(v: int) -> Iterator[tuple[Edge, ...]]:
        while v <= n and mem[v].bit_count() == target:
            v += 1
        if v > n:
            if kind is not FamilyKind.HAMILTONIAN_CYCLE or _reach(mem, 2, all_bits) == all_bits:
                yield tuple(edges)
            return
        start = max(v + 1, mem[v].bit_length())  # past v's last partner
        m, partners = rows[v] >> start << start, []
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            if mem[w].bit_count() < target:
                partners.append(w)
        if len(partners) < target - mem[v].bit_count():
            return
        for w in partners:  # each branch restores mem, so the list stays valid
            mem[v] |= 1 << w
            mem[w] |= 1 << v
            edges.append((v, w))
            yield from rec(v)
            edges.pop()
            mem[v] ^= 1 << w
            mem[w] ^= 1 << v

    yield from rec(1)


def enumerate_members(
    kind: FamilyKind,
    n: int,
    allowed: Optional[AllowedGraph] = None,
    max_n: Optional[int] = None,
) -> Iterator[SubgraphWitness]:
    """Every member exactly once, in lexicographic order of sorted edge lists.

    Pure recursive generation, independent of the search engines, so it can
    serve as their oracle.  `allowed` restricts the usable edges (default
    K_n).  A cap guards against runaway enumeration.
    """
    cap = max_n if max_n is not None else ENUMERATION_CAPS[kind]
    if n > cap:
        raise CapExceededError(f"enumeration cap exceeded: n={n} > {cap}")
    check_n(kind, n)
    g = allowed if allowed is not None else AllowedGraph.complete(n)
    if g.n != n:
        raise ValueError("allowed graph size mismatch")
    for edges in _degree_regular_members(kind, g.masks):
        yield SubgraphWitness(kind, edges)
