"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the package's engines:
counting formulas, exhaustive ordering checks and canonical sequence
generators recompute expectations from first principles.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter

from polykn import EdgeColoring, FamilyKind, VertexOrdering, build_ordered, is_polychromatic
from polykn.cli import CliError
from polykn.constructions import check_n
from polykn.core import Edge, all_edges, edge_index, is_ordered_at, is_unitary
from polykn.families import AllowedGraph, CapExceededError, SubgraphWitness, find_member
from polykn.search import _PATTERNS, STRUCTURED_CAP, SearchReport, _pattern_coloring, _seq_stage
from polykn.transforms import MaxVertexProfile, VertexStats
from polykn.verify import PolyCertificate


def ref_is_polychromatic(c, kind: FamilyKind) -> PolyCertificate:
    """is_polychromatic with no prefix proofs: one engine query per color,
    in ascending order."""
    check_n(kind, c.n)
    for t in range(1, c.k + 1):
        allowed = AllowedGraph.minus_color(c, t)
        witness = find_member(kind, allowed)
        if witness is not None:
            return PolyCertificate(False, t, witness)
    if kind is FamilyKind.ONE_FACTOR:
        edges = [(i, i + 1) for i in range(1, c.n, 2)]
    else:
        edges = [(i, i + 1) for i in range(1, c.n)] + [(1, c.n)]
    member = SubgraphWitness(kind, tuple(edges))
    member.validate(c.n)
    first: dict[int, Edge] = {}  # color -> its first edge on the member
    for (i, j) in member.edges:
        first.setdefault(c.color(i, j), (i, j))
    if len(first) < c.k:
        raise RuntimeError("spot-check member misses a color on a verified coloring")
    return PolyCertificate(True, spot_checks=tuple(sorted(first.items())))


def rgs(length: int, used0: int = 0, max_colors: int | None = None) -> list[tuple[int, ...]]:
    """Restricted growth strings: canonical first-occurrence color sequences."""
    out: list[tuple[int, ...]] = []

    def rec(seq, used):
        if len(seq) == length:
            out.append(tuple(seq))
            return
        top = used + 1 if max_colors is None else min(used + 1, max_colors)
        for c in range(1, top + 1):
            seq.append(c)
            rec(seq, max(used, c))
            seq.pop()

    rec([], used0)
    return out


def ordered_from_seq(seq) -> EdgeColoring:
    """Ordered coloring from the mains of positions 1..n-1."""
    return build_ordered(list(seq) + [seq[-1]])


def pattern_coloring(n: int, mains, recolorings) -> EdgeColoring:
    mapping = {(i, j): mains[i - 1] for (i, j) in all_edges(n)}
    for (edge, c) in recolorings:
        mapping[edge] = c
    return EdgeColoring.from_pairs(n, mapping)


def triple_from_tail(n: int, tail) -> EdgeColoring:
    """Combed coloring with the 3-vertex unitary prefix and the given tail."""
    mains = [1, 2, 3] + list(tail)
    mains.append(mains[-1])
    return pattern_coloring(n, mains[:n], (((1, 3), 3),))


def quad_from_tail(n: int, tail) -> EdgeColoring:
    """Combed coloring with the 4-vertex unitary prefix and the given tail."""
    mains = [1, 1, 2, 2] + list(tail)
    mains.append(mains[-1])
    return pattern_coloring(n, mains[:n], (((1, 3), 2), ((2, 4), 2)))


def all_ordered_colorings(n: int):
    for seq in rgs(n - 1):
        yield ordered_from_seq(seq)


def all_combed_colorings(n: int):
    """Ordered colorings plus both unitary-prefix families; may repeat."""
    yield from all_ordered_colorings(n)
    if n == 3:
        yield triple_from_tail(3, [])
        return
    if n >= 4:
        for tail in rgs(max(0, n - 4), used0=3):
            yield triple_from_tail(n, tail)
        for tail in rgs(max(0, n - 5), used0=2):
            yield quad_from_tail(n, tail)


def majority_moment(mains, t: int, s: int):
    """The smallest j < n = len(mains) with 2|M_t(j)| >= j + s (s = 1
    strict, 0 weak), recounting each prefix of mains, or None."""
    return next((j for j in range(1, len(mains)) if 2 * mains[:j].count(t) >= j + s), None)


def two_factor_walk_moment(mains, t: int):
    """The position at which the segment walk over the class-t positions
    below n puts t on every 2-factor of K_n minus color t of
    build_ordered(mains), or None when some 2-factor avoids t."""
    n = len(mains)
    cls = [p for p in range(1, n) if mains[p - 1] == t]
    a = 0
    while True:
        p = next((p for p in range(a + 1, n) if 2 * sum(a < x <= p for x in cls) >= p - a), None)
        if p is None or p - a <= 2 or n - p < 3:
            return p
        a = p


def walk_on_every_two_factor(mains, t: int) -> bool:
    """Whether every 2-factor of K_n minus color t of build_ordered(mains)
    uses t, by the segment walk over the class-t positions below n."""
    return two_factor_walk_moment(mains, t) is not None


def permute_vertices(c: EdgeColoring, perm: dict[int, int]) -> EdgeColoring:
    mapping = {}
    for (i, j, col) in c.edges():
        a, b = perm[i], perm[j]
        mapping[(min(a, b), max(a, b))] = col
    return EdgeColoring.from_pairs(c.n, mapping)


def permute_colors(c: EdgeColoring, perm: dict[int, int]) -> EdgeColoring:
    return EdgeColoring.from_pairs(c.n, {(i, j): perm[col] for (i, j, col) in c.edges()})


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _partitions_min3(n: int, lo: int = 3):
    if n == 0:
        yield ()
        return
    for part in range(lo, n + 1):
        if n - part not in (1, 2):
            for rest in _partitions_min3(n - part, part):
                yield (part,) + rest


def two_factor_count_formula(n: int) -> int:
    """Number of 2-factors of K_n by summing over cycle-type partitions."""
    total = 0
    for parts in _partitions_min3(n):
        ways = math.factorial(n)
        mult: dict[int, int] = {}
        for p in parts:
            mult[p] = mult.get(p, 0) + 1
        for lam, m in mult.items():
            ways //= (lam ** m) * math.factorial(m)
        ways //= 2 ** len(parts)
        total += ways
    return total


def truly_unitary_set(c: EdgeColoring) -> set[int]:
    """Shape vertices whose partner chains close, by direct fixpoint."""
    n = c.n
    if n == 3:
        cols = {c.color(1, 2), c.color(1, 3), c.color(2, 3)}
        return {1, 2, 3} if len(cols) == 3 else set()
    shaped = {}
    for v in range(1, n + 1):
        r = is_unitary(c, v)
        if r is not None:
            shaped[v] = r[2]
    while True:
        drop = [v for v, u in shaped.items() if u not in shaped]
        if not drop:
            break
        for v in drop:
            del shaped[v]
    return set(shaped)


def oracle_combed(c: EdgeColoring) -> bool:
    """Exhaustive check over all orderings, using only local definitions."""
    unit = truly_unitary_set(c)
    n = c.n
    for perm in itertools.permutations(range(1, n + 1)):
        o = VertexOrdering(perm)
        if all(
            perm[p - 1] in unit or is_ordered_at(c, o, p) is not None
            for p in range(1, n + 1)
        ):
            return True
    return False


def plant_unitary_quad(c: EdgeColoring, w: int, x: int, y: int, z: int, a: int, b: int):
    """c with a unitary quad on w, x, y, z: w and x keep main a, y and z main
    b, and the minority edges wy, xz, yx, zw close the partner cycle
    w -> y -> x -> z -> w."""
    quad = {w: a, x: a, y: b, z: b}
    inside = {frozenset((w, x)): a, frozenset((w, y)): b, frozenset((w, z)): a,
              frozenset((x, y)): a, frozenset((x, z)): b, frozenset((y, z)): b}
    mapping = {}
    for (i, j, col) in c.edges():
        if i in quad and j in quad:
            col = inside[frozenset((i, j))]
        elif i in quad or j in quad:
            col = quad[i if i in quad else j]
        mapping[(i, j)] = col
    return EdgeColoring.from_pairs(c.n, mapping)


# ---------------------------------------------------------------------------
# per-pair references: the combing definitions read through c.color only


def ref_vertex_color_counts(c: EdgeColoring, v: int) -> Counter:
    return Counter(c.color(v, u) for u in range(1, c.n + 1) if u != v)


def ref_is_ordered_at(c: EdgeColoring, o: VertexOrdering, i: int):
    n = c.n
    if i >= n - 1:
        return c.color(o.vertex_at(n - 1), o.vertex_at(n))
    v = o.vertex_at(i)
    colors = {c.color(v, o.vertex_at(p)) for p in range(i + 1, n + 1)}
    return colors.pop() if len(colors) == 1 else None


def ref_is_unitary(c: EdgeColoring, v: int):
    n = c.n
    counts = ref_vertex_color_counts(c, v)
    if len(counts) != 2:
        return None
    for a in sorted(counts):
        (b,) = [x for x in counts if x != a]
        if counts[a] != n - 2 or counts[b] != 1:
            continue
        u = next(w for w in range(1, n + 1) if w != v and c.color(v, w) == b)
        if sum(1 for w in range(1, n + 1) if w != u and c.color(u, w) == b) == n - 2:
            return (a, b, u)
    return None


def ref_comb_certificate(c: EdgeColoring):
    """(ordering, mains in position order, sorted unitary (vertex, main,
    minority, partner)) of the combing certificate, or None: unitary vertices first in label
    order, then always the smallest vertex monochromatic to the rest."""
    n = c.n
    unitary: dict[int, tuple[int, int, int]] = {}
    if n == 3:
        p, q, r = c.color(1, 2), c.color(1, 3), c.color(2, 3)
        if len({p, q, r}) == 3:
            unitary = {1: (p, q, 3), 2: (r, p, 1), 3: (q, r, 2)}
    elif n > 3:
        unitary = {v: ref_is_unitary(c, v) for v in range(1, n + 1)}
        unitary = {v: r for v, r in unitary.items() if r is not None}
        while any(r[2] not in unitary for r in unitary.values()):
            unitary = {v: r for v, r in unitary.items() if r[2] in unitary}
    order = sorted(unitary)
    rest = [v for v in range(1, n + 1) if v not in unitary]
    while len(rest) > 2:
        pick = next(
            (v for v in rest if len({c.color(v, u) for u in rest if u != v}) == 1), None
        )
        if pick is None:
            return None
        order.append(pick)
        rest.remove(pick)
    o = VertexOrdering(tuple(order + rest))
    mains = [unitary[v][0] if v in unitary else ref_is_ordered_at(c, o, p)
             for p, v in enumerate(o.order, start=1)]
    return o.order, tuple(mains), tuple((v, *r) for v, r in sorted(unitary.items()))


# ---------------------------------------------------------------------------
# per-edge references for the coloring data path


def ref_all_edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def ref_from_pairs(n: int, mapping: dict) -> EdgeColoring:
    """EdgeColoring.from_pairs one pair at a time."""
    m = n * (n - 1) // 2
    if len(mapping) != m:
        raise ValueError(f"expected {m} edges, got {len(mapping)}")
    colors = [0] * m
    for (i, j), c in mapping.items():
        if not (1 <= i < j <= n):
            raise ValueError(f"bad edge ({i}, {j})")
        colors[edge_index(n, i, j)] = c
    return EdgeColoring.from_colors(n, colors)


def _oracle_int_field(value, what: str) -> int:
    if type(value) is not int:
        raise CliError(f"{what} must be an integer, got {value!r}")
    return value


def oracle_coloring_from_document(doc) -> EdgeColoring:
    """The CLI document parser one entry at a time: every entry in order,
    the first bad one named, then the palette."""
    try:
        n = _oracle_int_field(doc["n"], "n")
        k = _oracle_int_field(doc["k"], "k")
        edges = doc["edges"]
    except (KeyError, TypeError) as exc:
        raise CliError(f"malformed coloring document: {exc}")
    if not isinstance(edges, list):
        raise CliError("edges must be a list")
    if n < 2 or len(edges) != n * (n - 1) // 2:
        raise CliError(f"expected {n * (n - 1) // 2} edges for n={n}, got {len(edges)}")
    mapping = {}
    seen_colors = set()
    for item in edges:
        if not isinstance(item, list) or len(item) != 3:
            raise CliError(f"bad edge entry {item!r}")
        i, j, col = (_oracle_int_field(x, "edge entry") for x in item)
        if not (1 <= i < j <= n):
            raise CliError(f"bad edge endpoints ({i}, {j})")
        if not (1 <= col <= k):
            raise CliError(f"color {col} outside 1..{k}")
        if (i, j) in mapping:
            raise CliError(f"duplicate edge ({i}, {j})")
        mapping[(i, j)] = col
        seen_colors.add(col)
    if seen_colors != set(range(1, k + 1)):
        raise CliError(f"palette not tight: colors {sorted(seen_colors)} vs k={k}")
    return ref_from_pairs(n, mapping)


def ref_recolor_unitary_triple(c: EdgeColoring, x: int, y: int, z: int) -> EdgeColoring:
    """recolor_unitary_triple through a per-pair dict over all m edges."""
    if len({x, y, z}) != 3:
        raise ValueError("vertices must be distinct")
    if not all(1 <= v <= c.n for v in (x, y, z)):
        raise ValueError(f"vertices must lie in 1..{c.n}")
    if c.k < 3:
        raise ValueError("colors 1, 2 and 3 must exist before recoloring")
    trip = {x, y, z}
    mapping = {}
    for (i, j, col) in c.edges():
        pair = {i, j}
        if pair == {x, y}:
            col = 2
        elif pair == {y, z}:
            col = 3
        elif pair == {z, x}:
            col = 1
        elif x in pair and not (pair & trip - {x}):
            col = 1
        elif y in pair and not (pair & trip - {y}):
            col = 2
        elif z in pair and not (pair & trip - {z}):
            col = 3
        mapping[(i, j)] = col
    return EdgeColoring.from_pairs(c.n, mapping)


def sample_polychromatic(rng) -> tuple[EdgeColoring, FamilyKind]:
    """A seeded polychromatic input for improve_toward_combed: an ordered,
    triple- or quad-tailed coloring, vertex- and color-permuted, with one
    edge recolored 30% of the time, for a random family it satisfies."""
    F1, F2, HC = FamilyKind.ONE_FACTOR, FamilyKind.TWO_FACTOR, FamilyKind.HAMILTONIAN_CYCLE
    while True:
        kind = rng.choice((F1, F2, HC))
        n = rng.choice((4, 6, 8)) if kind is F1 else rng.choice((4, 5, 6, 7, 8))
        style = rng.random()
        if kind is F1 or style < 0.5:
            mains = [rng.randint(1, 3) for _ in range(n - 1)]
            c = EdgeColoring.from_function(n, lambda i, j: mains[i - 1])
        elif style < 0.8:
            c = triple_from_tail(n, [rng.randint(1, 4) for _ in range(n - 4)])
        elif n >= 5:
            c = quad_from_tail(n, [rng.randint(1, 3) for _ in range(n - 5)])
        else:
            continue
        vperm = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
        c = permute_vertices(c, vperm)
        cperm = dict(zip(range(1, c.k + 1), rng.sample(range(1, c.k + 1), c.k)))
        c = permute_colors(c, cperm)
        if rng.random() < 0.3:
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            c2 = c.recolored(i, j, rng.randint(1, c.k))
            if c2.k == c.k:
                c = c2
        if is_polychromatic(c, kind).polychromatic:
            return c, kind


def ref_max_vertex_profile(c: EdgeColoring, outside) -> MaxVertexProfile:
    """max_vertex_profile by per-pair color lookups over V minus X."""
    X = frozenset(outside)
    zs = [v for v in range(1, c.n + 1) if v not in X]
    if not zs:
        raise ValueError("V minus X must be nonempty")
    stats = []
    for v in zs:
        counts = Counter(c.color(v, u) for u in zs if u != v)
        if not counts:
            stats.append(VertexStats(v, 0, 0, None))
            continue
        degree = max(counts.values())
        color = min(t for t, cnt in counts.items() if cnt == degree)
        rest = [c.color(v, u) for u in zs if u != v and c.color(v, u) != color]
        minority = rest[0] if rest and len(set(rest)) == 1 else None
        stats.append(VertexStats(v, degree, color, minority))
    max_degree = max(s.degree for s in stats)
    max_vertices = tuple(s.vertex for s in stats if s.degree == max_degree)
    pairs = {
        (s.color, s.minority)
        for s in stats
        if s.vertex in max_vertices and s.minority is not None
    }
    s_set = t_set = w_set = None
    if pairs:
        colors = sorted({x for p in pairs for x in p})
        if len(colors) == 2 and pairs <= {(colors[0], colors[1]), (colors[1], colors[0])}:
            fwd, back = (colors[0], colors[1]), (colors[1], colors[0])
            s_set = tuple(
                s.vertex for s in stats
                if s.vertex in max_vertices and (s.color, s.minority) == fwd
            )
            t_set = tuple(
                s.vertex for s in stats
                if s.vertex in max_vertices and (s.color, s.minority) == back
            )
            w_set = tuple(v for v in zs if v not in s_set and v not in t_set)
    return MaxVertexProfile(
        c.n, X, tuple(stats), max_degree, max_vertices, s_set, t_set, w_set
    )


# ---------------------------------------------------------------------------
# the palette of build(kind, n), one color at a time


def ref_palette_size(kind: FamilyKind, n: int) -> int:
    """Largest k >= 1 with 2^k <= n (1-factors), 2^k <= 2(n+1) (2-factors)
    or 3*2^k <= 8(n-1) (Hamiltonian cycles), stepped up one k at a time."""
    k = 1
    if kind is FamilyKind.ONE_FACTOR:
        while 2 ** (k + 1) <= n:
            k += 1
    elif kind is FamilyKind.TWO_FACTOR:
        while 2 ** (k + 1) <= 2 * (n + 1):
            k += 1
    else:
        while 3 * 2 ** (k + 1) <= 8 * (n - 1):
            k += 1
    return k


# ---------------------------------------------------------------------------
# the counting bound of a complete majority certificate, one color at a time


def ref_majority_upper_bound(n: int, strict: bool, excluded: int) -> int:
    """The counting bound stepped up one color at a time: strict, the
    largest k with 2^k <= n rounded up to even, plus excluded; weak, the
    smallest k with 2^(k - excluded) > n."""
    if strict:
        limit = n if n % 2 == 0 else n + 1
        k = 0
        while 2 ** (k + 1) <= limit:
            k += 1
        return k + excluded
    k = 0
    while True:
        exp = k - excluded  # chain needs n >= 2^((k+1) - excluded - 1)
        if exp >= 0 and 2 ** exp > n:
            return k
        k += 1


# ---------------------------------------------------------------------------
# reference searches: the plain depth-first searches, which the package's
# searches must agree with; the sequence search keeps its own state
# bookkeeping, with the strict and weak majority tests written out apart,
# shares the package's engines and takes none of its shortcuts


class RefSeqState:
    """Per-color counts and majority flags of the main-color sequence
    search; colors made unitary by the pattern prefix are exempt."""

    def __init__(self, n, kind, k, pattern):
        self.n = n
        self.k = k
        self.strict = kind is FamilyKind.ONE_FACTOR
        self.last = n - 1  # free positions 1..n-1; position n copies n-1
        fixed, self.recolorings = _PATTERNS[pattern]
        self.fixed = fixed
        self.counts = [0] * (n + 2)
        self.satisfied = [False] * (n + 2)
        self.used = 0
        for t in fixed:
            self.satisfied[t] = True
            self.used = max(self.used, t)

    def push(self, pos, c):
        self.counts[c] += 1
        self.used = max(self.used, c)
        was = self.satisfied[c]
        if 2 * self.counts[c] > pos or (not self.strict and 2 * self.counts[c] >= pos):
            self.satisfied[c] = True
        return was

    def pop(self, c, was, used_before):
        self.counts[c] -= 1
        self.satisfied[c] = was
        self.used = used_before

    def viable(self, j):
        """Can every pending color still reach its majority moment?"""
        left = self.last - j
        for t in range(1, self.used + 1):
            if self.satisfied[t]:
                continue
            top = 2 * (self.counts[t] + left)
            if (self.strict and top <= self.last) or (not self.strict and top < self.last):
                return False
        if self.used < self.k:
            if self.k - self.used > left:
                return False
            if (self.strict and 2 * j >= self.last) or (not self.strict and 2 * j > self.last):
                return False
        return True

    def complete(self):
        return self.used == self.k and all(
            self.satisfied[t] for t in range(1, self.used + 1)
        )


def ref_minimal_blockers(members):
    """Every minimal edge set meeting all members, by Berge's algorithm
    with each extension b + e tested against every kept set through e.

    Returns the blockers as bitmasks sorted by (size, mask).
    """
    blockers = [0]
    for mem in members:
        kept = [b for b in blockers if b & mem]
        missed = [b for b in blockers if not b & mem]
        extended = []
        bit = mem
        while bit:
            e = bit & -bit
            bit ^= e
            through = [s for s in kept if s & e]
            extended += [b | e for b in missed if all(s & ~(b | e) for s in through)]
        blockers = kept + extended
    return sorted(blockers, key=lambda b: (b.bit_count(), b))


def ref_bf_stage(members, m, k):
    """First (lex) polychromatic k-coloring of the m edges, by one DFS.

    A member is fully assigned at its highest edge, so the node coloring
    edge `pos` checks only the members completed there, against every
    used color.  Every member completed before `pos` already meets every
    used color, and misses a color first used at `pos`: a new color is
    dead once any member has been completed.

    Returns (full color tuple or None, nodes explored).
    """
    completes = [[] for _ in range(m)]
    for mem in members:
        completes[mem.bit_length() - 1].append(mem)
    first_done = min(mem.bit_length() for mem in members) - 1
    class_masks = [0] * (k + 1)
    colors = [0] * m
    nodes = 0

    def rec(pos, used):
        nonlocal nodes
        if pos == m:
            return used == k
        if used + (m - pos) < k:
            return False
        bit = 1 << pos
        done = completes[pos]
        for c in range(1, min(used + 1, k) + 1):
            nodes += 1
            if c > used and pos > first_done:
                break
            class_masks[c] |= bit
            top = max(used, c)
            masks = class_masks[1 : top + 1]
            if all(mem & cm for mem in done for cm in masks):
                colors[pos] = c
                if rec(pos + 1, top):
                    return True
            class_masks[c] &= ~bit
        return False

    if rec(0, 0):
        return tuple(colors), nodes
    return None, nodes


def ref_seq_stage(n, kind, k, pattern):
    """First (lex) main-color sequence completing the pattern at palette size
    k, by a DFS that walks every viable sequence and verifies every complete
    one with the engines.

    Returns (the verified EdgeColoring or None, nodes explored).
    """
    state = RefSeqState(n, kind, k, pattern)
    fixed = state.fixed
    if state.used > k or len(fixed) > n:
        return None, 0
    seq = []
    # position n colors no edge; the leaf copies position n-1 into it
    for p, c in enumerate(fixed[: state.last], start=1):
        state.push(p, c)
        seq.append(c)
    nodes = 0

    def leaf():
        mains = seq + [seq[-1]]
        coloring = _pattern_coloring(n, mains, state.recolorings)
        if coloring.k != k:
            return None
        if is_polychromatic(coloring, kind).polychromatic:
            return coloring
        return None

    def rec(j):
        nonlocal nodes
        if j == state.last:
            return leaf() if state.complete() else None
        pos = j + 1
        used_before = state.used
        for c in range(1, min(used_before + 1, k) + 1):
            nodes += 1
            was = state.push(pos, c)
            seq.append(c)
            if state.viable(pos):
                res = rec(pos)
                if res is not None:
                    return res
            seq.pop()
            state.pop(c, was, used_before)
        return None

    j0 = len(seq)
    if j0 == state.last:
        return (leaf() if state.complete() else None), 1
    if not state.viable(j0):
        return None, 0
    return rec(j0), nodes


def ref_structured_poly(n, kind, mode):
    """structured_poly with the ascending palette loop: k = 1, 2, ... up to
    the counting bound, checking every stage's hit; ordered mode stops at
    its first k with no hit, combed mode runs every k."""
    if mode not in ("ordered", "combed"):
        raise ValueError(f"unknown mode {mode!r}")
    if kind is FamilyKind.ONE_FACTOR and mode == "combed":
        raise ValueError("combed search applies to 2-factors and Hamiltonian cycles")
    check_n(kind, n)
    if n > STRUCTURED_CAP:
        raise CapExceededError(f"{mode} search cap exceeded: n={n} > {STRUCTURED_CAP}")
    patterns = ("ordered",) if mode == "ordered" else ("ordered", "triple", "quad")
    start = time.perf_counter()
    total_nodes = 0
    best = None
    k_hi = min((n.bit_length() - 1) + 4, n * (n - 1) // 2)
    for k in range(1, k_hi + 1):
        found = None
        for pattern in patterns:
            coloring, nodes = _seq_stage(n, kind, k, pattern)
            total_nodes += nodes
            if coloring is not None:
                found = coloring
                break
        if found is not None:
            if found.k != k or not is_polychromatic(found, kind).polychromatic:
                raise RuntimeError(f"structured search hit at k={k} is not polychromatic")
            best = found
        elif mode == "ordered":
            break  # merging two colors keeps ordered colorings polychromatic
    if best is None:
        raise RuntimeError("structured search produced no verified optimum")
    return SearchReport(n, kind, mode, best.k, best, total_nodes, time.perf_counter() - start)
