"""Builders for polychromatic colorings of K_n.

Three concrete colorings, one per subgraph family, plus the generic
ordered-coloring builder and the unitary-prefix patterns that build and
the combed search share.  Palette sizes come from integer inequalities,
never from floating-point logs.
"""

from __future__ import annotations

import enum
from itertools import chain, repeat

from .core import Edge, EdgeColoring, edge_index


class FamilyKind(enum.Enum):
    ONE_FACTOR = "f1"
    TWO_FACTOR = "f2"
    HAMILTONIAN_CYCLE = "hc"

    @property
    def degree(self) -> int:
        """The degree d of a member at every vertex: 1 for 1-factors, else 2."""
        return 1 if self is FamilyKind.ONE_FACTOR else 2

    def along(self, seq) -> list[Edge]:
        """The member written along a vertex sequence: its consecutive pairs
        at degree 1, the cycle through it at degree 2."""
        seq = list(seq)
        if self.degree == 1:
            return list(zip(seq[::2], seq[1::2]))
        return list(zip(seq, seq[1:] + seq[:1]))

    @staticmethod
    def parse(code: str) -> "FamilyKind":
        for kind in FamilyKind:
            if kind.value == code.lower():
                return kind
        raise ValueError(f"unknown family {code!r} (expected f1, f2 or hc)")


def check_n(kind: FamilyKind, n: int) -> None:
    """Raise ValueError unless K_n has members of the family: n > d, d*n even."""
    d = kind.degree
    if n <= d or d * n % 2:
        raise ValueError("1-factors need even n >= 2" if d == 1
                         else "2-factors and Hamiltonian cycles need n >= 3")


def palette_size(kind: FamilyKind, n: int) -> int:
    """Number of colors used by build(kind, n).

    Largest k satisfying, respectively: 2^k <= n; 2^(k-1) - 1 <= n;
    3*2^(k-3) + 1 <= n.  Cleared of fractions these read 2^k <= n,
    2^k <= 2(n+1) and 2^k <= floor(8(n-1)/3), so k is one less than the
    bit length of the right-hand side; integers only, no logs.
    """
    check_n(kind, n)
    if kind is FamilyKind.ONE_FACTOR:
        return n.bit_length() - 1
    if kind is FamilyKind.TWO_FACTOR:
        return (2 * (n + 1)).bit_length() - 1
    return (8 * (n - 1) // 3).bit_length() - 1


def class_sizes(kind: FamilyKind, n: int) -> tuple[int, ...]:
    """Sizes of the inherited color classes of build(kind, n).

    One-factor: 1, 2, 4, ..., 2^(k-2), n - 2^(k-1) + 1.
    Two-factor: 1, 1, 1, 4, 8, ..., 2^(k-3), n - 2^(k-2) + 1 (k >= 4).
    Hamiltonian: 1, 1, 1, 3, 6, ..., 3*2^(k-5), n - 3*2^(k-4) (k >= 4).
    Small palettes degenerate to (1, 1, n-2) at k = 3 and (1, n-1) at k = 2,
    the last class always absorbing the remainder.
    """
    k = palette_size(kind, n)
    if kind is FamilyKind.ONE_FACTOR:
        sizes = [2 ** (t - 1) for t in range(1, k)] + [n - 2 ** (k - 1) + 1]
        return tuple(sizes)
    if k == 2:
        return (1, n - 1)
    if k == 3:
        return (1, 1, n - 2)
    if kind is FamilyKind.TWO_FACTOR:
        middle = [2 ** (t - 2) for t in range(4, k)]
        last = n - 2 ** (k - 2) + 1
    else:
        middle = [3 * 2 ** (t - 4) for t in range(4, k)]
        last = n - 3 * 2 ** (k - 4)
    return (1, 1, 1, *middle, last)


def _ordered_colors(main) -> tuple[int, ...]:
    """Flat pair-order colors in which edge v_i v_j (i < j) gets main[i-1].

    Built straight into the tuple that EdgeColoring keeps, with no list to
    copy from: at n = 512 either one takes about 1 MB.
    """
    n = len(main)
    return tuple(chain.from_iterable(repeat(main[i - 1], n - i) for i in range(1, n)))


# the unitary prefixes of combed colorings: pattern name -> (fixed leading
# mains, whose colors are exempt as the prefix vertices are unitary, edge
# recolorings applied after the ordered build); "triple" is the rainbow
# triangle on v_1, v_2, v_3 and "quad" the 4-vertex unitary prefix
_PATTERNS = {
    "ordered": ((), ()),
    "triple": ((1, 2, 3), (((1, 3), 3),)),
    "quad": ((1, 1, 2, 2), (((1, 3), 2), ((2, 4), 2))),
}


def _pattern_coloring(n, mains, recolorings) -> EdgeColoring:
    """The ordered coloring of mains with the given edges recolored."""
    colors = _ordered_colors(mains)
    if recolorings:
        colors = list(colors)
        for ((i, j), c) in recolorings:
            colors[edge_index(n, i, j)] = c
    return EdgeColoring.from_colors(n, colors)


def build_ordered(main: tuple[int, ...] | list[int]) -> EdgeColoring:
    """Ordered coloring determined by a main-color sequence.

    Edge v_i v_j (i < j) receives main[i-1].  The final entry colors no
    edge, so it acts as a copy of main[n-2]; the palette is compacted.
    """
    n = len(main)
    if n < 2:
        raise ValueError("need at least 2 main colors")
    return EdgeColoring.from_colors(n, _ordered_colors(main))


def build(kind: FamilyKind, n: int) -> EdgeColoring:
    """The polychromatic coloring of K_n for the given family.

    Inherited class sizes follow class_sizes(kind, n); classes occupy
    consecutive vertex blocks.  Families of degree 2 with at least 3 colors
    take the "triple" pattern's recoloring of edge v_1 v_3 from 1 to 3,
    which makes v_1, v_2, v_3 unitary with a rainbow triangle between them.
    """
    sizes = class_sizes(kind, n)
    mains = [t for t, size in enumerate(sizes, start=1) for _ in range(size)]
    triple = kind.degree == 2 and len(sizes) >= 3
    return _pattern_coloring(n, mains, _PATTERNS["triple" if triple else "ordered"][1])
