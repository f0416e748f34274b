"""Polychromaticity verdicts and the majority-certificate machinery.

A coloring is polychromatic for a family when every member carries every
color.  Violations are found exactly: color t is avoidable iff the family
has a member inside K_n minus the color-t edges.  When the prefix-majority
condition fails for a color, an explicit avoiding member can be written
down directly; both constructions are implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .constructions import FamilyKind, check_n
from .core import (
    Edge,
    InheritedColoring,
    MajorityCertificate,
)
from .families import AllowedGraph, SubgraphWitness, find_member


@dataclass(frozen=True)
class PolyCertificate:
    """Outcome of a polychromaticity check.

    On violation: the avoided color and a verified member avoiding it.
    On success: one example edge per color, all taken from one fixed
    member of the family, (1,2),(3,4),... for 1-factors and the cycle
    1-2-...-n-1 otherwise; no engine runs for it.
    """

    polychromatic: bool
    violating_color: Optional[int] = None
    witness: Optional[SubgraphWitness] = None
    spot_checks: tuple[tuple[int, Edge], ...] = ()

    @property
    def verdict(self) -> str:
        return "polychromatic" if self.polychromatic else "violated"


def is_polychromatic(c, kind: FamilyKind) -> PolyCertificate:
    """Exact polychromaticity check; colors are tried in ascending order."""
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
    spot = []
    for t in range(1, c.k + 1):
        example = next(((i, j) for (i, j) in member.edges if c.color(i, j) == t), None)
        if example is None:
            raise RuntimeError("spot-check member misses a color on a verified coloring")
        spot.append((t, example))
    return PolyCertificate(True, spot_checks=tuple(spot))


def _class_split(ic: InheritedColoring, t: int) -> tuple[list[int], list[int]]:
    """Vertices of class t and the remaining vertices, in position order."""
    xs, ys = [], []
    for p in range(1, ic.n + 1):
        v = ic.ordering.vertex_at(p)
        (xs if ic.main[v - 1] == t else ys).append(v)
    return xs, ys


def adversarial_matching(ic: InheritedColoring, t: int) -> SubgraphWitness:
    """A 1-factor avoiding color t when the strict majority condition fails.

    With x_1..x_m the class-t vertices in order and y_1..y_{n-m} the rest,
    the matching pairs y_i with x_i (y_i is guaranteed to sit left of x_i)
    and pairs the leftover y's consecutively; no edge can then carry t.
    """
    n = ic.n
    check_n(FamilyKind.ONE_FACTOR, n)
    if ic.unitary_set:
        raise ValueError("adversarial 1-factor needs an ordered coloring")
    if not (1 <= t <= ic.k):
        raise ValueError(f"color {t} out of range")
    for j in range(1, n):
        if 2 * ic.prefix_count(t, j) > j:
            raise ValueError(f"majority condition holds for color {t} at j={j}")
    xs, ys = _class_split(ic, t)
    if not xs:
        raise ValueError(f"color {t} is not present")
    m = len(xs)
    edges = [(ys[i], xs[i]) for i in range(m)]
    leftovers = ys[m:]
    edges.extend((leftovers[i], leftovers[i + 1]) for i in range(0, len(leftovers), 2))
    witness = SubgraphWitness(FamilyKind.ONE_FACTOR, tuple(edges))
    witness.validate(n)
    for (i, j) in witness.edges:
        if ic.coloring.color(i, j) == t:
            raise RuntimeError(f"constructed matching contains color {t} on ({i}, {j})")
    return witness


def adversarial_hamcycle(ic: InheritedColoring, t: int) -> SubgraphWitness:
    """A Hamiltonian cycle avoiding color t when the weak condition fails.

    Requires |M_t(j)| < j/2 for every j and no unitary vertex in class t.
    The cycle y_1 x_1 y_2 x_2 .. y_m x_m y_{m+1} .. y_{n-m} y_1 interleaves
    class-t vertices with earlier outsiders; every edge at a class-t vertex
    goes left, so none carries t.
    """
    n = ic.n
    check_n(FamilyKind.HAMILTONIAN_CYCLE, n)
    if not (1 <= t <= ic.k):
        raise ValueError(f"color {t} out of range")
    if ic.class_has_unitary(t):
        raise ValueError(f"class {t} contains a unitary vertex")
    for j in range(1, n):
        if 2 * ic.prefix_count(t, j) >= j:
            raise ValueError(f"weak majority condition holds for color {t} at j={j}")
    xs, ys = _class_split(ic, t)
    if not xs:
        raise ValueError(f"color {t} is not present")
    m = len(xs)
    seq = []
    for i in range(m):
        seq.append(ys[i])
        seq.append(xs[i])
    seq.extend(ys[m:])
    edges = [(seq[i], seq[i + 1]) for i in range(n - 1)] + [(seq[-1], seq[0])]
    witness = SubgraphWitness(FamilyKind.HAMILTONIAN_CYCLE, tuple(edges))
    witness.validate(n)
    for (i, j) in witness.edges:
        if ic.coloring.color(i, j) == t:
            raise RuntimeError(f"constructed cycle contains color {t} on ({i}, {j})")
    return witness


def majority_upper_bound(cert: MajorityCertificate, mode: str, unitary_count: int) -> int:
    """Largest color count allowed by the majority counting chain.

    strict: sorted prefix witnesses force |M_t| >= 2^(t-1), so
            2^k - 1 <= n, and 2^k <= n when n is even.
    weak:   classes holding unitary vertices are set aside (3 vertices span
            3 colors, 4 span 2); the rest force |M_t| >= 2^(t-2), giving
            k <= floor(log2 n) + 1 + excluded.
    """
    if mode not in ("strict", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode != cert.mode:
        raise ValueError(f"certificate was computed in {cert.mode} mode, not {mode}")
    if not cert.complete:
        raise ValueError(f"certificate incomplete: colors {cert.failing_colors()} fail")
    n = cert.n
    if mode == "strict":
        if unitary_count != 0:
            raise ValueError("strict mode has no unitary escape")
        limit = n if n % 2 == 0 else n + 1
        k = 0
        while 2 ** (k + 1) <= limit:
            k += 1
        return k
    excluded_by_count = {0: 0, 3: 3, 4: 2}
    if unitary_count not in excluded_by_count:
        raise ValueError("unitary vertex count must be 0, 3 or 4")
    excluded = excluded_by_count[unitary_count]
    if len(cert.unitary_colors()) != excluded:
        raise ValueError(
            f"certificate flags {len(cert.unitary_colors())} unitary classes, "
            f"expected {excluded}"
        )
    k = 0
    while True:
        exp = k - excluded  # chain needs n >= 2^((k+1) - excluded - 1)
        if exp >= 0 and 2 ** exp > n:
            return k
        k += 1
