"""Polychromaticity verdicts and the majority-certificate machinery.

A coloring is polychromatic for a family when every member carries every
color.  The paper's counting argument settles most colors first: along
the comb prefix, a color whose class holds a majority of some prefix is
on every member, and no engine runs for it.  The other colors are decided
exactly: color t is avoidable iff the family has a member inside K_n
minus the color-t edges.  When a color fails the
prefix-majority rule, one builder writes down an avoiding member in the
edge layout of its family; a complete certificate bounds the palette.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .constructions import FamilyKind, check_n
from .core import (
    Edge,
    InheritedColoring,
    MajorityCertificate,
    comb_prefix,
    majority_certificate,
    majority_moments,
)
from .families import AllowedGraph, SubgraphWitness, find_member


@dataclass(frozen=True)
class PolyCertificate:
    """Outcome of a polychromaticity check.

    On violation: the avoided color and a verified member avoiding it.
    On success: one example edge per color, all taken from one fixed
    member of the family, (1,2),(3,4),... for 1-factors and the cycle
    1-2-...-n-1 otherwise; no engine runs for it.  The spot checks only
    illustrate the verdict: it rests on the prefix proofs and the engine
    refutations, which the certificate does not record.
    """

    polychromatic: bool
    violating_color: Optional[int] = None
    witness: Optional[SubgraphWitness] = None
    spot_checks: tuple[tuple[int, Edge], ...] = ()


def _prefix_proofs(c, kind: FamilyKind) -> set[int]:
    """The colors that the comb prefix puts on every member of kind.

    Every edge from a prefix vertex to a later vertex carries its main
    color, so a member avoiding a color t whose class holds no unitary
    vertex joins each class-t vertex of the first j positions only to
    earlier vertices of other classes.  Hence 2|M_t(j)| >= j + 1 at some j
    puts t on every member; for Hamiltonian cycles 2|M_t(j)| >= j with
    j < n does too, since the prefix would close into cycles.
    """
    unitary, _, mains = comb_prefix(c)
    s = 0 if kind is FamilyKind.HAMILTONIAN_CYCLE else 1
    return majority_moments(mains[: c.n - 1], s).keys() - {u.main for u in unitary}


def is_polychromatic(c, kind: FamilyKind) -> PolyCertificate:
    """Exact polychromaticity check.

    The comb prefix proves what colors it can (_prefix_proofs) with no
    engine call.  The other colors go to the engines in ascending order;
    the first with an avoiding member is the violated color.
    """
    check_n(kind, c.n)
    proved = _prefix_proofs(c, kind)
    for t in range(1, c.k + 1):
        if t in proved:
            continue
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


class NoWitness(ValueError):
    """No adversarial member applies to the color: its class holds a unitary
    vertex, or it meets the builder's majority rule, which puts it on every
    member that rule covers (every 1-factor for the strict rule, every
    Hamiltonian cycle for the weak one).  Bad input raises plain ValueError."""


def _adversarial(ic: InheritedColoring, t: int, kind: FamilyKind, layout) -> SubgraphWitness:
    """The member of kind that layout(xs, ys) makes of the class-t vertices
    xs and the others ys, in position order; it is validated and checked to
    avoid t.  Raises NoWitness for the colors that _prefix_proofs sets aside
    or proves under kind's rule (strict for 1-factors, weak for cycles)."""
    strict = kind is FamilyKind.ONE_FACTOR
    if not (1 <= t <= ic.k):
        raise ValueError(f"color {t} out of range")
    entry = majority_certificate(ic, strict).entry(t)
    if entry.status == "unitary":
        raise NoWitness(f"class {t} contains a unitary vertex")
    if entry.status == "prefix":
        weak = "" if strict else "weak "
        raise NoWitness(f"color {t} satisfies the {weak}majority condition (j={entry.j})")
    xs, ys = [], []  # class t and the other vertices, in position order
    for v, main in zip(ic.ordering.order, ic.sequence):
        (xs if main == t else ys).append(v)
    if not xs:
        raise ValueError(f"color {t} is not present")
    witness = SubgraphWitness(kind, tuple(layout(xs, ys)))
    witness.validate(ic.n)
    for (i, j) in witness.edges:
        if ic.coloring.color(i, j) == t:
            member = "matching" if strict else "cycle"
            raise RuntimeError(f"constructed {member} contains color {t} on ({i}, {j})")
    return witness


def adversarial_matching(ic: InheritedColoring, t: int) -> SubgraphWitness:
    """A 1-factor avoiding color t when the strict majority condition fails
    and class t holds no unitary vertex (else NoWitness).

    With x_1..x_m the class-t vertices in order and y_1..y_{n-m} the rest,
    the matching pairs y_i with x_i (y_i is guaranteed to sit left of x_i)
    and pairs the leftover y's consecutively.  An edge carries the main of
    its earlier end, or on a unitary vertex's partner edge the partner's
    main; neither is t, so no edge carries t.
    """
    check_n(FamilyKind.ONE_FACTOR, ic.n)

    def layout(xs, ys):
        m = len(xs)
        edges = [(ys[i], xs[i]) for i in range(m)]
        leftovers = ys[m:]
        edges.extend((leftovers[i], leftovers[i + 1]) for i in range(0, len(leftovers), 2))
        return edges

    return _adversarial(ic, t, FamilyKind.ONE_FACTOR, layout)


def adversarial_hamcycle(ic: InheritedColoring, t: int) -> SubgraphWitness:
    """A Hamiltonian cycle avoiding color t when the weak condition fails.

    Requires |M_t(j)| < j/2 for every j < n and no unitary vertex in class
    t, else NoWitness.
    The cycle y_1 x_1 y_2 x_2 .. y_m x_m y_{m+1} .. y_{n-m} y_1 interleaves
    class-t vertices with earlier outsiders; every edge at a class-t vertex
    goes left, so none carries t.
    """
    check_n(FamilyKind.HAMILTONIAN_CYCLE, ic.n)

    def layout(xs, ys):
        m = len(xs)
        seq = []
        for i in range(m):
            seq.append(ys[i])
            seq.append(xs[i])
        seq.extend(ys[m:])
        return [(seq[i], seq[i + 1]) for i in range(ic.n - 1)] + [(seq[-1], seq[0])]

    return _adversarial(ic, t, FamilyKind.HAMILTONIAN_CYCLE, layout)


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
