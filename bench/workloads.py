"""The benchmark's three workloads: seeded inputs, timed ops and output checks.

Every workload is closed loop: one caller makes one call at a time and
waits for it.  A workload yields *passes*; a pass is a sequence of ops.
Each op counts toward one end-to-end group metric (``construct_s``,
``verify_f2_s``, ...), has a group label (ops with one label are alike),
and a check that reads the op's output independently of the engines and
returns the verdict that goes into the digest.

The untraced path calls only public names with their defaults, plus
``max_n``.  Names are looked up on their module at call time, so the traced
run can wrap them there.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

FAMILIES = ("f1", "f2", "hc")

# n values of the built ladder, per family (full size and smoke size)
LADDER = {"f1": (128, 256, 512), "f2": (15, 23, 31), "hc": (13, 18, 19, 24, 32)}
SMOKE_LADDER = {"f1": (8, 16), "f2": (7, 9), "hc": (7, 9)}

# perturbed: (family, n) inputs, perturbation types per (family, n), the
# seed the types are drawn from, and passes of realizations generated
PERTURBED = (("f1", 128), ("f2", 23), ("hc", 18), ("hc", 24))
SMOKE_PERTURBED = (("f1", 12), ("f2", 11), ("hc", 11))
PERTURBATION_TYPES = 6
TYPE_SEED = 0
PERTURBED_PASSES = 4  # a run that uses them all stops early

# search: (mode, family, n, extra kwargs, optimum, provenance of the optimum).
# "tests" values are asserted by the test suite; "anchor" values are what
# the seed commit computes, pinned as regression anchors.
SEARCHES = (
    ("full", "f1", 6, {}, 2, "tests"),
    ("full", "hc", 5, {}, 3, "anchor"),
    ("full", "f2", 6, {"max_n": 6}, 3, "anchor"),
    ("ordered", "f1", 16, {}, 4, "anchor"),
    ("ordered", "f2", 14, {}, 4, "anchor"),
    ("combed", "f2", 14, {}, 4, "anchor"),
    ("ordered", "hc", 14, {}, 4, "anchor"),
    ("combed", "hc", 14, {}, 5, "anchor"),
)
SMOKE_SEARCHES = (
    ("full", "f1", 4, {}, 2, "tests"),
    ("full", "hc", 4, {}, 3, "tests"),
    ("full", "f2", 4, {}, 3, "tests"),
    ("ordered", "f1", 8, {}, 3, "tests"),
    ("combed", "f2", 6, {}, 3, "tests"),
    ("combed", "hc", 6, {}, 3, "tests"),
)

WHY = {
    "built-ladder": "the paper's colourings over an n-ladder: all combed and polychromatic, so the engines must refute every colour; hc n spans HC_DP_MAX_N",
    "perturbed": "1-2 recoloured edges give uncombed, mostly violated inputs: early witness search, CLI parsing, and forced-edge queries in improve",
    "search": "full searches at and past their caps plus ordered/combed searches: search-tree throughput, engines only on structured leaves",
}


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass
class Op:
    metric: str  # end-to-end group metric the op counts toward
    label: str  # ops with one label (plus verdict) are alike
    key: str  # input id for the verdict digest
    call: Callable[[], Any]
    check: Callable[[Any], Optional[tuple[str, Optional[int]]]]
    result: Any = None
    ok: bool = False


# ---------------------------------------------------------------------------
# independent output checks: they read the coloring, never the engines


def _color(c, i: int, j: int) -> int:
    """Color of edge (i, j), i < j, read from the flat triangular tuple."""
    return c.colors[(i - 1) * (2 * c.n - i) // 2 + (j - i - 1)]


def palette_formula(family: str, n: int) -> int:
    """The paper's palette sizes: 2^k <= n; 2^k <= 2(n+1); 3*2^k <= 8(n-1)."""
    if family == "f1":
        return n.bit_length() - 1
    if family == "f2":
        return (2 * (n + 1)).bit_length() - 1
    return ((8 * (n - 1)) // 3).bit_length() - 1


def is_member(family: str, n: int, edges) -> bool:
    """Spanning member of the family on 1..n: degrees, and one cycle for hc."""
    deg = [0] * (n + 1)
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    if len(set(edges)) != len(edges):
        return False
    for (i, j) in edges:
        if not (1 <= i < j <= n):
            return False
        deg[i] += 1
        deg[j] += 1
        adj[i].append(j)
        adj[j].append(i)
    want = 1 if family == "f1" else 2
    if any(deg[v] != want for v in range(1, n + 1)):
        return False
    if family == "hc":
        seen, stack = {1}, [1]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n
    return True


def check_verdict(c, family: str, cert) -> tuple[str, Optional[int]]:
    """A violated verdict needs a member avoiding its color; a polychromatic
    one needs an example edge of every color."""
    if cert.polychromatic:
        spots = dict(cert.spot_checks)
        if sorted(spots) != list(range(1, c.k + 1)):
            raise CheckFailed("spot checks do not cover every color")
        for t, (i, j) in spots.items():
            if _color(c, min(i, j), max(i, j)) != t:
                raise CheckFailed(f"spot-check edge ({i}, {j}) does not carry color {t}")
        return "polychromatic", None
    t = cert.violating_color
    edges = list(cert.witness.edges)
    if not (1 <= t <= c.k) or not is_member(family, c.n, edges):
        raise CheckFailed(f"witness for color {t} is not a spanning {family} member")
    if any(_color(c, i, j) == t for (i, j) in edges):
        raise CheckFailed(f"witness uses color {t}")
    return "violated", t


def check_polychromatic_by_enumeration(c, family: str) -> None:
    """Every member of K_n sees every color; brute force, for n <= 6 only."""
    n = c.n
    size = n // 2 if family == "f1" else n
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for edges in itertools.combinations(pairs, size):
        if is_member(family, n, edges) and len({_color(c, i, j) for (i, j) in edges}) != c.k:
            raise CheckFailed(f"member {edges} misses a color")


# ---------------------------------------------------------------------------
# workloads


class BuiltLadder:
    """Construct, certify and verify build(kind, n) over the n-ladder.

    The seed fixes the order of the ops; the inputs themselves are the
    paper's colorings.  Certify is comb_certificate then
    majority_certificate (strict for f1, weak for f2/hc).
    """

    name = "built-ladder"
    why = WHY[name]

    def __init__(self, pk, seed: int, smoke: bool):
        self.pk = pk
        ladder = SMOKE_LADDER if smoke else LADDER
        self.inputs = [(fam, n) for fam in FAMILIES for n in ladder[fam]]
        random.Random(seed).shuffle(self.inputs)
        self.colorings: dict = {}
        self.combed: dict = {}

    def _ops(self, fam: str, n: int) -> Iterator[Op]:
        pk = self.pk
        kind = pk.FamilyKind.parse(fam)
        key = f"{fam}-n{n}"

        def construct():
            return pk.build(kind, n)

        def check_construct(c):
            if c.n != n or c.k != palette_formula(fam, n):
                raise CheckFailed(f"build({fam}, {n}) has k={c.k}, expected {palette_formula(fam, n)}")
            self.colorings[key] = c
            return None

        def certify():
            c = self.colorings[key]
            ic = pk.comb_certificate(c)
            return ic, (None if ic is None else pk.majority_certificate(ic, strict=fam == "f1"))

        def check_certify(res):
            ic, cert = res
            self.combed[key] = ic is not None
            mode = "strict" if fam == "f1" else "weak"
            if cert is None or cert.mode != mode or not cert.complete \
                    or len(cert.entries) != self.colorings[key].k:
                raise CheckFailed(f"no complete majority certificate for {key}")
            return None

        def verify():
            return pk.is_polychromatic(self.colorings[key], kind)

        def check_verify(cert):
            verdict = check_verdict(self.colorings[key], fam, cert)
            if verdict[0] != "polychromatic":
                raise CheckFailed(f"{key} verified {verdict}")
            return verdict

        yield Op("construct_s", f"construct {key}", key, construct, check_construct)
        yield Op("certify_s", f"certify {key}", key, certify, check_certify)
        yield Op(f"verify_{fam}_s", f"verify {key}", key, verify, check_verify)

    def passes(self) -> Iterator[Iterator[Op]]:
        while True:
            yield (op for fam, n in self.inputs for op in self._ops(fam, n))

    def combed_share(self) -> Optional[float]:
        shares = list(self.combed.values())
        return sum(shares) / len(shares) if shares else None


class Perturbed:
    """Recolor 1-2 edges of build(kind, n); keep uncombed inputs only.

    The workload fixes PERTURBATION_TYPES perturbation types per (family, n),
    drawn once from TYPE_SEED: 1 or 2 random vertex-disjoint edges get a
    random other color, and the result must keep its palette and be
    uncombed.  A type records which color blocks each
    recolored edge joins and its new color.  The run's seed draws the
    concrete edges of every type afresh for every pass.  Vertices of one
    block are interchangeable in build(kind, n), so every realization of a
    type is isomorphic: the verdict and the violated/polychromatic mix are
    the same for every seed, while the labels the engines see differ.

    Each input travels as a CLI document: the verify op parses it with
    cli.coloring_from_document and runs is_polychromatic; an input that
    verifies polychromatic then goes through improve_toward_combed.
    """

    name = "perturbed"
    why = WHY[name]

    def __init__(self, pk, seed: int, smoke: bool):
        self.pk = pk
        rng = random.Random(seed)
        self.groups = []
        for fam, n in (SMOKE_PERTURBED if smoke else PERTURBED):
            kind = pk.FamilyKind.parse(fam)
            base = pk.build(kind, n)
            blocks, start = [], 1
            for size in pk.class_sizes(kind, n):
                blocks.append(list(range(start, start + size)))
                start += size
            types = self._types(base, blocks)
            passes = [[self._realize(rng, base, blocks, spec) for spec in types]
                      for _ in range(PERTURBED_PASSES)]
            self.groups.append((fam, n, kind, passes))

    def _recolor(self, base, change):
        """base with edges (i, j) recolored to t, if it keeps its palette and
        is uncombed; else None."""
        mapping = {(i, j): col for (i, j, col) in base.edges()}
        mapping.update({(i, j): t for (i, j, t) in change})
        c = self.pk.EdgeColoring.from_pairs(base.n, mapping)
        if c.k != base.k or self.pk.comb_certificate(c) is not None:
            return None
        return c

    def _types(self, base, blocks) -> list:
        rng = random.Random(TYPE_SEED)
        block_of = {v: b for b, vs in enumerate(blocks) for v in vs}
        edges = [(i, j) for (i, j, _) in base.edges()]
        types: list = []
        for _ in range(1000 * PERTURBATION_TYPES):
            if len(types) == PERTURBATION_TYPES:
                break
            chosen = rng.sample(edges, rng.choice((1, 2)))
            if len({v for e in chosen for v in e}) != 2 * len(chosen):
                continue
            change = [(i, j, rng.choice([t for t in range(1, base.k + 1) if t != base.color(i, j)]))
                      for (i, j) in chosen]
            if self._recolor(base, change) is not None:
                types.append(tuple((block_of[i], block_of[j], t) for (i, j, t) in change))
        return types

    def _realize(self, rng, base, blocks, spec):
        """Fresh vertices for every edge of the type, drawn within its blocks."""
        free: dict[int, list[int]] = {}
        change = []
        for (a, b, t) in spec:
            i = free.setdefault(a, rng.sample(blocks[a], len(blocks[a]))).pop()
            j = free.setdefault(b, rng.sample(blocks[b], len(blocks[b]))).pop()
            change.append((min(i, j), max(i, j), t))
        c = self._recolor(base, change)
        if c is None:
            raise RuntimeError(f"realization {change} of type {spec} is not isomorphic to it")
        key = f"{base.n}:" + ",".join(f"{i}-{j}={t}" for (i, j, t) in change)
        return key, c, self.pk.cli.coloring_to_document(c)

    def _pass(self, p: int) -> Iterator[Op]:
        pk = self.pk
        for fam, n, kind, passes in self.groups:
            for key, c, doc in passes[p]:
                key = f"{fam}-n{key}"

                def verify(doc=doc, kind=kind):
                    return pk.is_polychromatic(pk.cli.coloring_from_document(doc), kind)

                def check_verify(cert, c=c, fam=fam):
                    return check_verdict(c, fam, cert)

                op = Op(f"verify_{fam}_s", f"verify {fam}-n{n}", key, verify, check_verify)
                yield op
                if not (op.ok and op.result.polychromatic):
                    continue

                def improve(c=c, kind=kind):
                    return pk.improve_toward_combed(c, kind)

                def check_improve(res, c=c):
                    if res.coloring.n != c.n or res.coloring.k != c.k or res.moves < 0:
                        raise CheckFailed("improve changed the palette")
                    return None

                yield Op("improve_s", f"improve {fam}-n{n}", key, improve, check_improve)

    def passes(self) -> Iterator[Iterator[Op]]:
        return (self._pass(p) for p in range(PERTURBED_PASSES))

    def combed_share(self) -> float:
        return 0.0  # comb_certificate filtered every input out


class Search:
    """Full brute-force searches at and past their caps, then ordered and
    combed structured searches; optima are checked against pinned values."""

    name = "search"
    why = WHY[name]

    def __init__(self, pk, seed: int, smoke: bool):
        self.pk = pk
        self.searches = list(SMOKE_SEARCHES if smoke else SEARCHES)
        random.Random(seed).shuffle(self.searches)
        self.combed: dict = {}

    def _op(self, mode, fam, n, kwargs, want, source) -> Op:
        pk = self.pk
        kind = pk.FamilyKind.parse(fam)
        key = f"{mode}-{fam}-n{n}"

        if mode == "full":
            def call():
                return pk.brute_force_poly(n, kind, **kwargs)
        else:
            def call():
                return pk.structured_poly(n, kind, mode)

        def check(report):
            if report.optimum != want or report.coloring.k != want or report.coloring.n != n:
                raise CheckFailed(f"{key}: optimum {report.optimum}, pinned {want} ({source})")
            if mode == "full":
                check_polychromatic_by_enumeration(report.coloring, fam)
            if key not in self.combed:
                self.combed[key] = pk.comb_certificate(report.coloring) is not None
            return f"optimum={report.optimum}", None

        metric = "search_full_s" if mode == "full" else "search_structured_s"
        return Op(metric, key, key, call, check)

    def passes(self) -> Iterator[Iterator[Op]]:
        while True:
            yield (self._op(*s) for s in self.searches)

    def combed_share(self) -> Optional[float]:
        shares = list(self.combed.values())
        return sum(shares) / len(shares) if shares else None


WORKLOADS = {w.name: w for w in (BuiltLadder, Perturbed, Search)}
