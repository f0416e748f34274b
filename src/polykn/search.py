"""Exact polychromatic numbers at desk scale.

Full mode packs blockers.  Every color class of a polychromatic coloring
meets every family member, so the optimum is the largest number of pairwise
disjoint minimal blockers (edge sets meeting every member).  Berge's
incremental algorithm lists those of at most c edges, c rising from the
near-star size until the packing's residual bound meets a lower bound, and
one branch-and-bound depth-first search packs them; the node count sums
over the caps tried.

Ordered and combed modes search main-color sequences instead, with an
exact rule per family for when a sequence puts a color on every member,
so a complete sequence is a hit.  The unitary-prefix patterns live in
constructions, where build reads the paper's rainbow triple from the same
table; _seq_stage keeps the sequence's per-color state in its own locals.
Palette sizes are tried from the counting bound down, and the first size
with a hit is the optimum.  Each size is one serial depth-first search from
the root that stops at its first (lexicographically least) hit.  Two exact
shortcuts keep it small: a count state is entered only if one counting
chain over all its pending colors (_chain_viable) lets each of them still
reach its majority moment, and a count state whose subtree reached no
complete sequence is remembered as dead and never entered again.  The node
count covers the choices tried, outside dead states, at every size from
the bound down to the optimum's hit.  The tests keep the plain searches
over edge colorings and over main-color sequences as references.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .constructions import _PATTERNS, FamilyKind, _pattern_coloring, build, check_n, palette_size
from .core import EdgeColoring, edge_index
from .families import CapExceededError, enumerate_members
from .verify import PREFIX_RULES, is_polychromatic

BRUTE_CAPS = {
    FamilyKind.ONE_FACTOR: 8,
    FamilyKind.TWO_FACTOR: 7,
    FamilyKind.HAMILTONIAN_CYCLE: 7,
}
STRUCTURED_CAP = 128


@dataclass(frozen=True)
class SearchReport:
    n: int
    kind: FamilyKind
    mode: str  # "full" | "ordered" | "combed"
    optimum: int
    coloring: EdgeColoring
    nodes: int
    wall_time: float


@dataclass(frozen=True)
class TheoremRow:
    n: int
    kind: FamilyKind
    construction_k: int
    formula_k: int
    search_k: Optional[int]
    search_mode: Optional[str]
    agrees: bool


# ---------------------------------------------------------------------------
# full search: the blocker packing


def _member_masks(n, kind):
    """Every member of the family on K_n as a bitmask over the edge indices."""
    return tuple(
        sum(1 << edge_index(n, i, j) for (i, j) in w.edges)
        for w in enumerate_members(kind, n, max_n=n)
    )


def _minimal_blockers(members, cap):
    """Every minimal edge set meeting all members, by Berge's algorithm.

    Members are folded in one at a time.  A minimal blocker of the members
    so far either already meets the new member and is kept, or is extended
    by one edge of it.  An extended set b + e can only fail to be minimal
    by containing a kept set s.  Since b misses the member, s then meets it
    in e alone (e is private to s), so each extension is tested only
    against the kept sets with private edge e, as s - e inside b; with none,
    every extension by e is kept untested.  Sets never shrink, so dropping
    missed sets of `cap` edges leaves exactly the blockers of at most `cap`.
    Returns the blockers as bitmasks sorted by (size, mask).
    """
    blockers = [0]
    for mem in members:
        missed = [b for b in blockers if not b & mem]
        if not missed:
            continue  # every set meets mem, so none changes
        kept = [b for b in blockers if b & mem]
        missed = [b for b in missed if b.bit_count() < cap]
        private = {}  # edge e -> s minus e, for each kept s meeting mem in e alone
        for s in kept:
            hit = s & mem
            if not hit & (hit - 1):
                private.setdefault(hit, []).append(s ^ hit)
        extended = []
        bit = mem
        while bit:
            e = bit & -bit
            bit ^= e
            rest = private.get(e)
            if rest:
                extended += [b | e for b in missed if all(r & ~b for r in rest)]
            else:
                extended += [b | e for b in missed]
        blockers = kept + extended
    return sorted(blockers, key=lambda b: (b.bit_count(), b))


def _pack(blockers, m, cap, floor):
    """Largest set of pairwise disjoint blockers, and a bound on any packing.

    One branch-and-bound DFS over index-increasing choices: a node with
    `chosen` blockers and `free` uncovered edges can reach at most
    chosen + free // (smallest remaining blocker size).  Blockers left out
    have over `cap` edges, so the bound is the largest chosen +
    free // (cap + 1), or `floor`, a known lower bound on the optimum, if
    larger; a branch that cannot pass the floor is cut.

    Returns (the chosen blockers, the bound, nodes explored).
    """
    best = []
    bound = floor
    chosen = []
    nodes = 0

    def rec(cands, free):
        nonlocal best, bound, nodes
        nodes += 1
        if len(chosen) > len(best):
            best = chosen[:]
        bound = max(bound, len(chosen) + free // (cap + 1))
        for i, b in enumerate(cands):
            size = b.bit_count()
            reach = len(chosen) + free // size
            # go on only to raise the bound or to meet it with a real packing
            if reach <= max(len(best), floor) or reach < bound:
                return
            chosen.append(b)
            rec([c for c in cands[i + 1 :] if not c & b], free - size)
            chosen.pop()

    rec(blockers, m)
    return best, bound, nodes


def brute_force_poly(
    n: int,
    kind: FamilyKind,
    max_n: Optional[int] = None,
) -> SearchReport:
    """Exact optimum over all colorings, as a packing of minimal blockers.

    A coloring is polychromatic exactly when every color class meets every
    member, so the optimum is the largest number of pairwise disjoint
    minimal blockers (edge sets meeting every member).  Blockers of at
    most c edges are packed, c rising from the near-star size, until the
    bound meets the packing or build's palette.  Blocker t takes color t
    and every edge left over takes color 1; a short packing returns build.
    """
    cap = max_n if max_n is not None else BRUTE_CAPS[kind]
    if n > cap:
        raise CapExceededError(f"brute-force cap exceeded: n={n} > {cap}")
    m = n * (n - 1) // 2
    start = time.perf_counter()
    members = _member_masks(n, kind)
    built = build(kind, n)
    nodes = 0
    for c in range(n - 1 if kind is FamilyKind.ONE_FACTOR else n - 2, m + 1):
        packing, bound, tried = _pack(_minimal_blockers(members, c), m, c, built.k)
        nodes += tried
        if bound == max(len(packing), built.k):
            break
    if len(packing) == bound:
        colors = [1] * m
        for t, b in enumerate(packing, start=1):
            for idx in range(m):
                if b >> idx & 1:
                    colors[idx] = t
        coloring = EdgeColoring.from_colors(n, colors)
    else:
        coloring = built
    if not is_polychromatic(coloring, kind).polychromatic:
        raise RuntimeError("search produced a non-polychromatic optimum")
    return SearchReport(
        n, kind, "full", bound, coloring, nodes, time.perf_counter() - start
    )


# ---------------------------------------------------------------------------
# ordered / combed search over main-color sequences


def _chain_viable(pending, j, s, last):
    """Can every pending color still reach its majority moment by `last`?

    `pending` holds, at position j, 2c + a for each color that has not yet
    met 2c >= p - a + s, c counting its placements since its segment start
    a (0 but under the 2-factor walk): the unsatisfied used colors, and 0
    for each color not used yet.  Order them by their moments
    p_1 < p_2 < ...  The i-th needs x_i >= (p_i - a + s)/2 - c placements
    in (j, p_i], disjoint from those of the colors before it, so
    p_i >= j + x_1 + ... + x_i.  With q = x_1 + ... + x_{i-1} that gives
    x_i >= q + j + s - (2c + a), and x_i >= 1 since a color meets the rule
    first at one of its own placements.  The state is viable only if
    p_r <= last, that is j + q <= last after the last color.  Descending
    2c + a gives the smallest q over all orders (the rearrangement
    inequality), so that order decides.
    """
    q = 0
    for w in sorted(pending, reverse=True):
        q += max(1, q + j + s - w)
    return j + q <= last


def _seq_stage(n, kind, k, pattern):
    """First (lex) main-color sequence completing the pattern at palette size k.

    A color is satisfied once the sequence puts it on every member; colors
    made unitary by the pattern prefix are exempt.  Each placement goes
    through the family's prefix rule (verify.PREFIX_RULES), which is exact
    on ordered and combed sequences, so a complete sequence is
    polychromatic.

    Returns (the first complete sequence's EdgeColoring or None, nodes
    explored).
    """
    fixed, recolorings = _PATTERNS[pattern]
    used = max(fixed, default=0)
    if used > k or len(fixed) > n:
        return None, 0
    rule = PREFIX_RULES[kind]
    step, s = rule.step, rule.s
    last = n - 1  # free positions 1..n-1; position n copies n-1
    counts = [0] * (n + 2)
    starts = [0] * (n + 2)  # segment starts a; counts are of (a, p]
    satisfied = [t in fixed for t in range(n + 2)]
    seq = []
    nodes = 0
    dead = set()  # keys whose subtree held no complete sequence

    def place(pos, c):  # returns c's (count, start, flag) before pos
        before = counts[c], starts[c], satisfied[c]
        if satisfied[c]:
            counts[c] += 1
        else:
            counts[c], starts[c], satisfied[c] = step(n, pos, counts[c], starts[c])
        seq.append(c)
        return before

    for p, c in enumerate(fixed[:last], start=1):
        place(p, c)

    def viable(j):
        # at j == last this holds only with every color used and satisfied,
        # since the chain adds at least 1 for each pending entry
        pending = [2 * counts[t] + starts[t] for t in range(1, used + 1) if not satisfied[t]]
        return _chain_viable(pending + [0] * (k - used), j, s, last)

    def coloring():
        # position n colors no edge; the sequence copies position n-1 into it
        return _pattern_coloring(n, seq + [seq[-1]], recolorings)

    def rec(j):
        nonlocal nodes, used
        if j == last:
            return coloring()
        # the loop's update and viable read only the states of colors
        # 1..used and treat those colors alike, so the key drops their names
        top = used + 1
        key = (j, used, tuple(sorted(zip(counts[1:top], satisfied[1:top], starts[1:top]))))
        if key in dead:
            return None
        pos = j + 1
        used_before = used
        for c in range(1, min(used_before + 1, k) + 1):
            nodes += 1
            was = place(pos, c)
            used = max(used_before, c)
            if viable(pos):
                res = rec(pos)
                if res is not None:
                    return res
            seq.pop()
            counts[c], starts[c], satisfied[c] = was
        used = used_before
        dead.add(key)
        return None

    j0 = len(seq)
    if j0 == last:
        return (coloring() if viable(j0) else None), 1
    if not viable(j0):
        return None, 0
    return rec(j0), nodes


def structured_poly(n: int, kind: FamilyKind, mode: str) -> SearchReport:
    """Optimum over the ordered or combed class of colorings.

    Ordered colorings are exactly the images of main-color sequences; combed
    mode additionally tries the 3- and 4-vertex unitary prefixes.  For
    1-factors the ordered optimum equals the true optimum; for the other
    families the value is exact only for the restricted class.  Palette
    sizes are tried from the counting bound down and the search stops at
    the first hit, which gets one exact check (is_polychromatic); a hit
    that fails it raises RuntimeError.
    """
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
    # majority_upper_bound's largest value: the weak base n.bit_length() plus
    # 3 set-aside unitary classes, capped by m; the search starts there
    k_hi = min(n.bit_length() + 3, n * (n - 1) // 2)
    for k in range(k_hi, 0, -1):
        for pattern in patterns:
            found, nodes = _seq_stage(n, kind, k, pattern)
            total_nodes += nodes
            if found is not None:
                if found.k != k or not is_polychromatic(found, kind).polychromatic:
                    raise RuntimeError(f"structured search hit at k={k} is not polychromatic")
                return SearchReport(n, kind, mode, k, found, total_nodes, time.perf_counter() - start)
    raise RuntimeError("structured search produced no verified optimum")


def theorem_table(kind: FamilyKind, n_range) -> list[TheoremRow]:
    """One row per valid n: construction palette vs formula vs tiny-n search.

    `agrees` is false where the construction formula is below the exact
    optimum, which is Hamiltonian cycles at n = 3.
    """
    rows = []
    for n in n_range:
        try:
            check_n(kind, n)
        except ValueError:
            continue
        construction_k = build(kind, n).k
        formula_k = palette_size(kind, n)
        search_k = None
        search_mode = None
        if n <= BRUTE_CAPS[kind]:
            search_k = brute_force_poly(n, kind).optimum
            search_mode = "full"
        agrees = construction_k == formula_k and (search_k is None or search_k == formula_k)
        rows.append(TheoremRow(n, kind, construction_k, formula_k, search_k, search_mode, agrees))
    return rows
