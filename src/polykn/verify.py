"""Polychromaticity verdicts and the majority-certificate machinery.

A coloring is polychromatic for a family when every member carries every
color.  The paper's counting argument settles most colors first: along
the comb prefix, each family's prefix rule (PREFIX_RULES) names the colors
on every member, as a unitary vertex's main is for 2-regular members, and
no engine runs for them.  The other colors are decided exactly: color t
is avoidable iff the family has a member inside K_n minus the color-t
edges.  On a combed coloring, a color that the rule does not prove gets
an avoiding member written down in the edge layout of its family; a
complete certificate bounds the palette.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .constructions import FamilyKind, check_n
from .core import Edge, InheritedColoring, MajorityCertificate, MajorityEntry, comb_prefix
from .families import AllowedGraph, SubgraphWitness, find_member


@dataclass(frozen=True)
class PolyCertificate:
    """Outcome of a polychromaticity check.

    On violation: the avoided color and a verified member avoiding it.
    On success: one example edge per color, all taken from one fixed
    member of the family, the one written along 1..n (FamilyKind.along);
    no engine runs for it.  The spot checks only illustrate the verdict:
    it rests on the prefix proofs and the engine refutations, which the
    certificate does not record.
    """

    polychromatic: bool
    violating_color: Optional[int] = None
    witness: Optional[SubgraphWitness] = None
    spot_checks: tuple[tuple[int, Edge], ...] = ()


@dataclass(frozen=True)
class PrefixRule:
    """When a comb prefix puts color t on every member of a family.

    Edges from a prefix vertex to later ones carry its main color, so K_n
    minus color t joins each class-t prefix vertex (T; t no unitary main)
    only to earlier vertices outside T.  With c the T vertices of (a, p],
    a member avoiding t needs 2c <= p for 1-factors and 2c < p at p < n
    for Hamiltonian cycles, so the rule proves t at the first p with
    2c >= p - a + s, a = 0 (strict s = 1, weak s = 0).  For 2-factors that
    first p (s = 0) is tight: the T vertices of (a, p] use up the degree
    left on its others, so every member splits into a 2-regular bipartite
    piece on (a, p], which needs 2 T vertices, and a rest of n - p >= 3
    vertices; else t is proved, and the walk restarts at a = p with c = 0.
    On an ordered coloring K_n minus t is a threshold graph (Chvatal and
    Hammer 1977; Mahadev and Peled 1995); adversarial_member builds a
    member avoiding each color its family's rule does not prove.
    """

    name: str  # as the no-witness line names it
    s: int
    restarts: bool

    def step(self, n: int, p: int, count: int, start: int) -> tuple[int, int, bool]:
        """(count, start, proved) of an unproved color after it is placed at
        position p < n, from its count since its segment start."""
        count += 1
        if 2 * count < p - start + self.s:
            return count, start, False
        if self.restarts and p - start > 2 and n - p >= 3:
            return 0, p, False
        return count, start, True

    def walk(self, n: int, mains) -> tuple[dict[int, tuple[int, ...]], dict[int, int]]:
        """(starts, moments) over positions 1..n-1 of mains: the segment
        starts (from 0) of each color that restarts, and each proved color's p."""
        counts: dict[int, int] = {}
        starts: dict[int, tuple[int, ...]] = {}
        moments: dict[int, int] = {}
        for p, t in enumerate(mains[: n - 1], start=1):
            if t not in moments:
                seg = starts.get(t, (0,))
                counts[t], a, proved = self.step(n, p, counts.get(t, 0), seg[-1])
                if proved:
                    moments[t] = p
                elif a > seg[-1]:
                    starts[t] = seg + (a,)
        return starts, moments


PREFIX_RULES = {
    FamilyKind.ONE_FACTOR: PrefixRule("majority condition", 1, False),
    FamilyKind.TWO_FACTOR: PrefixRule("segment walk", 0, True),
    FamilyKind.HAMILTONIAN_CYCLE: PrefixRule("weak majority condition", 0, False),
}


def _prefix_proofs(c, kind: FamilyKind) -> set[int]:
    """The colors kind's rule proves along the comb prefix, and at degree 2
    the classes holding a unitary vertex: it has one edge off its main, so
    every 2-regular member takes the main there, as a 1-factor need not."""
    unitary, _, mains = comb_prefix(c)
    _, moments = PREFIX_RULES[kind].walk(c.n, mains)
    held = {u.main for u in unitary}
    return moments.keys() | held if kind.degree == 2 else moments.keys() - held


def is_polychromatic(c, kind: FamilyKind) -> PolyCertificate:
    """Exact polychromaticity check.

    The comb prefix proves what colors it can (_prefix_proofs) with no
    engine call.  The other colors go to the engines in ascending order;
    the first with an avoiding member is the violated color.
    """
    check_n(kind, c.n)
    proved = _prefix_proofs(c, kind)
    for t in sorted(set(range(1, c.k + 1)) - proved):
        witness = find_member(kind, AllowedGraph.minus_color(c, t))
        if witness is not None:
            return PolyCertificate(False, t, witness)
    member = SubgraphWitness(kind, tuple(kind.along(range(1, c.n + 1))))
    member.validate(c.n)
    first: dict[int, Edge] = {}  # color -> its first edge on the member
    for (i, j) in member.edges:
        first.setdefault(c.color(i, j), (i, j))
    if len(first) < c.k:
        raise RuntimeError("spot-check member misses a color on a verified coloring")
    return PolyCertificate(True, spot_checks=tuple(sorted(first.items())))


class NoWitness(ValueError):
    """No adversarial member applies: the color's class holds a unitary
    vertex, or its family's rule puts it on every member.  Bad input
    raises plain ValueError."""


def adversarial_member(ic: InheritedColoring, t: int, kind: FamilyKind) -> SubgraphWitness:
    """A member of kind avoiding color t, validated, when kind's prefix
    rule does not prove t and class t holds no unitary vertex (else
    NoWitness).

    Each segment of the rule's walk (one but for 2-factors) lists its
    class-t vertices x_1..x_m and the others y_1.. in position order; the
    rule failing puts y_i, and for cycles y_(i+1) unless x_i ends a tight
    segment, left of x_i.  kind.along writes each segment's member along
    y_1 x_1 .. y_m x_m y_(m+1) ..: its pairs at degree 1, its cycle at
    degree 2.  Every edge at an x goes left and every other edge carries
    its earlier end's main (or, at a unitary vertex's partner edge, the
    partner's), so none carries t.
    """
    check_n(kind, ic.n)
    if not (1 <= t <= ic.k):
        raise ValueError(f"color {t} out of range")
    if t in {u.main for u in ic.unitary_set}:
        raise NoWitness(f"class {t} contains a unitary vertex")
    rule = PREFIX_RULES[kind]
    starts, moments = rule.walk(ic.n, ic.sequence)
    if t in moments:
        raise NoWitness(f"color {t} satisfies the {rule.name} (j={moments[t]})")
    if t not in ic.sequence:
        raise ValueError(f"color {t} is not present")
    bounds = (*starts.get(t, (0,)), ic.n)
    edges = []
    for a, b in zip(bounds, bounds[1:]):
        xs, ys = [], []
        for v, main in zip(ic.ordering.order[a:b], ic.sequence[a:b]):
            (xs if main == t else ys).append(v)
        edges += kind.along([v for pair in zip(ys, xs) for v in pair] + ys[len(xs):])
    witness = SubgraphWitness(kind, tuple(edges))
    witness.validate(ic.n)
    for (i, j) in witness.edges:
        if ic.coloring.color(i, j) == t:
            raise RuntimeError(f"constructed {kind.value} member contains color {t} on ({i}, {j})")
    return witness


def majority_certificate(ic: InheritedColoring, strict: bool) -> MajorityCertificate:
    """Prefix-majority certificate over all colors of the coloring.

    Classes holding a unitary vertex are flagged "unitary", in both modes:
    a unitary vertex's partner edge breaks the counting argument.  Every
    other class gets the position at which PREFIX_RULES proves it, else
    "fails": the 1-factor rule in strict mode and the Hamiltonian-cycle
    rule in weak mode, so each mode proves what _prefix_proofs proves for
    that family outside the unitary classes.
    """
    kind = FamilyKind.ONE_FACTOR if strict else FamilyKind.HAMILTONIAN_CYCLE
    _, moments = PREFIX_RULES[kind].walk(ic.n, ic.sequence)
    exempt = {u.main for u in ic.unitary_set}
    entries = tuple(
        MajorityEntry(t, "unitary", None) if t in exempt
        else MajorityEntry(t, "prefix" if t in moments else "fails", moments.get(t))
        for t in range(1, ic.k + 1)
    )
    return MajorityCertificate(ic.n, "strict" if strict else "weak", entries)


def majority_upper_bound(cert: MajorityCertificate) -> int:
    """Largest color count allowed by the counting chain of a complete cert.

    One rule in both modes: the classes cert flags unitary are set aside (3
    unitary vertices span 3 colors, 4 span 2; so 0, 2 or 3 classes), and
    the bound is a base for the other r classes plus the excluded ones.
    Order the r classes by majority moment a_1 < ... < a_r <= n - 1 and
    let S_i = c_1 + ... + c_i with c_i = |M_i(a_i)|.  The first a_i
    positions hold c_i and S_{i-1} more, wherever the unitary vertices sit:
    strict: c_i >= S_{i-1} + 1, so 2^r - 1 <= S_r <= n - 1; the base is
            floor(log2 n), with odd n rounded up to n + 1;
    weak:   c_i >= S_{i-1}, so c_i >= 2^(i-2); the base is floor(log2 n) + 1.
    """
    if not cert.complete:
        raise ValueError(f"certificate incomplete: colors {cert.failing_colors()} fail")
    excluded = len(cert.unitary_colors())
    if excluded not in (0, 2, 3):
        raise ValueError(f"{cert.mode} certificate flags {excluded} unitary classes")
    n = cert.n
    base = (n + n % 2).bit_length() - 1 if cert.mode == "strict" else n.bit_length()
    return base + excluded
