"""Brute-force and structured searches plus the comparison table."""

from __future__ import annotations

import functools
import random

import pytest

from polykn import (
    CapExceededError,
    FamilyKind,
    PolyCertificate,
    brute_force_poly,
    build,
    build_ordered,
    is_polychromatic,
    palette_size,
    structured_poly,
    theorem_table,
)
from polykn import families, search
from polykn.core import EdgeColoring
from polykn.families import AllowedGraph, find_member, maximum_matching
from polykn.search import (
    _PATTERNS,
    BRUTE_CAPS,
    _chain_viable,
    _member_masks,
    _minimal_blockers,
    _pack,
    _pattern_coloring,
    _seq_stage,
)
from helpers import (
    pattern_coloring,
    quad_from_tail,
    ref_bf_stage,
    ref_minimal_blockers,
    ref_seq_stage,
    ref_structured_poly,
    rgs,
    triple_from_tail,
    walk_on_every_two_factor,
)

F1 = FamilyKind.ONE_FACTOR
F2 = FamilyKind.TWO_FACTOR
HC = FamilyKind.HAMILTONIAN_CYCLE

# every (kind, n) the packing is checked at against the coloring DFS
DIFFERENTIAL = [(F1, n) for n in (2, 4, 6)] + [(kind, n) for kind in (F2, HC) for n in range(3, 7)]

# every (kind, n, patterns) the memoized sequence search is checked at
# against the plain one, at k = 1..6; the plain search's f1 stages at n=14
# take seconds, so f1 stops at n=12
SEQ_DIFFERENTIAL = [(F1, n, ("ordered",)) for n in range(2, 13, 2)] + [
    (kind, n, tuple(sorted(_PATTERNS))) for kind in (F2, HC) for n in range(3, 14)
]


@functools.cache
def uncapped_blockers(kind, n):
    return _minimal_blockers(_member_masks(n, kind), n * (n - 1) // 2)


@functools.cache
def reference_blockers(kind, n):
    return ref_minimal_blockers(_member_masks(n, kind))


def coloring_dfs_optimum(n, kind):
    """(optimum, nodes) of the reference search over edge colorings.

    Runs `ref_bf_stage` for k = 1, 2, ... up to the first infeasible k and sums
    its nodes (merging two color classes keeps a coloring polychromatic, so
    feasibility is monotone in k).
    """
    members = _member_masks(n, kind)
    m = n * (n - 1) // 2
    best = total = 0
    for k in range(1, m + 1):
        solution, nodes = ref_bf_stage(members, m, k)
        total += nodes
        if solution is None:
            break
        best = k
    return best, total


@pytest.mark.parametrize(
    "n,kind,want",
    [(4, F1, 2), (3, HC, 3), (4, HC, 3), (3, F2, 3), (4, F2, 3), (8, F1, 3), (7, F2, 4), (7, HC, 4)],
)
def test_brute_force_values(n, kind, want):
    report = brute_force_poly(n, kind)
    assert report.optimum == want
    # at hc n = 3 build gives 2 colors, so this coloring is the packing's;
    # everywhere else build's palette meets the bound and build is returned
    assert report.coloring.k == want
    assert (report.coloring == build(kind, n)) == ((kind, n) != (HC, 3))
    assert is_polychromatic(report.coloring, kind).polychromatic
    assert report.mode == "full"
    assert report.nodes > 0


def test_brute_force_at_least_construction():
    for kind, ns in [(F1, (2, 4, 6)), (F2, (3, 4, 5)), (HC, (3, 4, 5))]:
        for n in ns:
            assert brute_force_poly(n, kind).optimum >= palette_size(kind, n)


def test_brute_force_wall_time_includes_member_enumeration(monkeypatch):
    # the clock advances only while the members are enumerated
    from types import SimpleNamespace

    clock = [0.0]
    monkeypatch.setattr(search, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    member_masks = search._member_masks

    def slow_member_masks(*args):
        clock[0] += 5.0
        return member_masks(*args)

    monkeypatch.setattr(search, "_member_masks", slow_member_masks)
    assert brute_force_poly(4, F1).wall_time == 5.0


def test_brute_force_cap():
    with pytest.raises(CapExceededError):
        brute_force_poly(10, F1)
    for kind in (F2, HC):
        with pytest.raises(CapExceededError):
            brute_force_poly(8, kind)


def test_structured_ordered_one_factor():
    for n, want in [(2, 1), (4, 2), (6, 2), (8, 3)]:
        report = structured_poly(n, F1, "ordered")
        assert report.optimum == want
        assert is_polychromatic(report.coloring, F1).polychromatic
        assert report.mode == "ordered"


def test_structured_ordered_equals_full_search_for_one_factors():
    # the ordered class attains the true optimum for 1-factors
    for n in (2, 4, 6):
        assert structured_poly(n, F1, "ordered").optimum == brute_force_poly(n, F1).optimum


def test_structured_combed_matches_brute_force_at_tiny_n():
    for kind in (F2, HC):
        for n in (3, 4, 5):
            combed = structured_poly(n, kind, "combed").optimum
            full = brute_force_poly(n, kind).optimum
            assert combed == full


def test_structured_combed_restricted_values():
    # restricted optima over the combed class, pinned as regression anchors;
    # beyond the brute-force caps they are not certified as true optima
    f2_vals = [structured_poly(n, F2, "combed").optimum for n in range(3, 11)]
    hc_vals = [structured_poly(n, HC, "combed").optimum for n in range(3, 11)]
    assert f2_vals == [3, 3, 3, 3, 4, 4, 4, 4]
    assert hc_vals == [3, 3, 3, 3, 4, 4, 4, 4]
    # every value coincides with the construction formula, except that the
    # combed search finds the rainbow triangle at n=3 where the Hamiltonian
    # formula undershoots
    assert f2_vals == [palette_size(F2, n) for n in range(3, 11)]
    assert hc_vals[1:] == [palette_size(HC, n) for n in range(4, 11)]
    assert hc_vals[0] == 3 and palette_size(HC, 3) == 2


def test_structured_validation():
    with pytest.raises(ValueError):
        structured_poly(5, F1, "ordered")  # odd n
    with pytest.raises(ValueError):
        structured_poly(6, F1, "combed")
    with pytest.raises(ValueError):
        structured_poly(6, F2, "everything")
    for kind, n in ((F1, 130), (F2, 129), (HC, 129)):
        with pytest.raises(CapExceededError):
            structured_poly(n, kind, "ordered")
    for kind, n in ((F2, 129), (HC, 129)):
        with pytest.raises(CapExceededError):
            structured_poly(n, kind, "combed")


def test_structured_one_factor_at_ordered_cap():
    # the paper's 1-factor value floor(log2 n) at its jump to 5
    report = structured_poly(32, F1, "ordered")
    assert report.optimum == report.coloring.k == 5 == (32).bit_length() - 1
    assert is_polychromatic(report.coloring, F1).polychromatic
    # the memoized search's node count, pinned at a depth the small pins
    # of test_search_node_counts_pinned never reach
    assert report.nodes == 129


@pytest.mark.parametrize("kind", [F2, HC])
def test_structured_combed_at_combed_cap(kind):
    # n = 20, where both palette formulas give 5
    report = structured_poly(20, kind, "combed")
    assert report.optimum == report.coloring.k == palette_size(kind, 20) == 5
    assert is_polychromatic(report.coloring, kind).polychromatic
    assert report.nodes == {F2: 77, HC: 72}[kind]


# each family's structured cap in each mode: (mode, kind, n, optimum, nodes)
CAP_SEARCHES = [
    ("ordered", F1, 128, 7, 769),
    ("ordered", F2, 128, 7, 762),
    ("ordered", HC, 128, 7, 748),
    ("combed", F2, 128, 8, 881),
    ("combed", HC, 128, 8, 863),
]
CAP_ROWS = [(kind, mode, n) for mode, kind, n, _, _ in CAP_SEARCHES]


@pytest.mark.parametrize("mode, kind, n, want, nodes", CAP_SEARCHES)
def test_structured_at_cap(mode, kind, n, want, nodes):
    # each family's cap in each mode: the optimum and the first-hit search's
    # node count; ordered f1 at n = 128 is the paper's floor(log2 n)
    assert n == search.STRUCTURED_CAP
    report = structured_poly(n, kind, mode)
    assert report.optimum == report.coloring.k == want
    assert is_polychromatic(report.coloring, kind).polychromatic
    assert report.nodes == nodes
    if kind is F1:
        assert want == n.bit_length() - 1


def test_theorem_table_one_factor():
    rows = theorem_table(F1, range(2, 13))
    assert [r.n for r in rows] == [2, 4, 6, 8, 10, 12]
    assert [r.formula_k for r in rows] == [1, 2, 2, 3, 3, 3]
    assert all(r.construction_k == r.formula_k for r in rows)
    assert [r.search_k for r in rows] == [1, 2, 2, 3, None, None]
    assert all(r.agrees for r in rows)


def test_theorem_table_hamiltonian_small_n_disagrees():
    # K_3 has a single Hamiltonian cycle, so the true optimum (3) exceeds
    # the construction formula (2): the table reports the mismatch
    rows = theorem_table(HC, range(3, 6))
    by_n = {r.n: r for r in rows}
    assert by_n[3].construction_k == 2 and by_n[3].search_k == 3
    assert not by_n[3].agrees
    assert by_n[4].agrees and by_n[5].agrees


def test_two_factor_never_beats_hamiltonian():
    for n in (3, 4, 5):
        assert brute_force_poly(n, F2).optimum <= brute_force_poly(n, HC).optimum


def reference_structured_nodes(monkeypatch, n, kind, mode):
    """Node count of structured_poly with the plain sequence search."""
    with monkeypatch.context() as m:
        m.setattr(search, "_seq_stage", ref_seq_stage)
        return structured_poly(n, kind, mode).nodes


def test_search_node_counts_pinned(monkeypatch):
    # node counts of the reference coloring DFS, of the blocker packing
    # (summed over every cap tried) and of the first-hit structured
    # searches, as (plain sequence search, memoized one); pruning changes
    # that keep the same tree must keep these exactly
    full = {(F1, 4): 67, (F1, 6): 22_000, (F2, 4): 234, (F2, 5): 8_324, (HC, 5): 8_324}
    for (kind, n), nodes in full.items():
        assert coloring_dfs_optimum(n, kind)[1] == nodes, (kind, n)
    # build's palette is the packing's floor, so the search stops at the
    # root wherever the near-star bound already equals it
    packing = {(F1, 4): 1, (F1, 6): 7, (F1, 8): 9, (F2, 4): 1, (F2, 5): 1, (HC, 3): 4,
               (HC, 5): 1, (F2, 7): 1, (HC, 7): 1}
    for (kind, n), nodes in packing.items():
        assert brute_force_poly(n, kind).nodes == nodes, (kind, n)
    combed = {
        (F2, 3): (1, 1), (F2, 4): (10, 7), (HC, 3): (1, 1), (HC, 4): (10, 7),
        (HC, 10): (407, 26), (F2, 10): (457, 28),
    }
    ordered = {(F1, 12): (1_614, 26), (F2, 8): (105, 14)}
    for mode, pins in (("combed", combed), ("ordered", ordered)):
        for (kind, n), (plain, memo) in pins.items():
            assert reference_structured_nodes(monkeypatch, n, kind, mode) == plain, (kind, n)
            assert structured_poly(n, kind, mode).nodes == memo, (kind, n)


def test_structured_optimum_verified_once(monkeypatch):
    # the hit leaf's verdict is the optimum's one verification
    verdicts = []

    def counting(c, kind):
        cert = is_polychromatic(c, kind)
        verdicts.append((c, cert.polychromatic))
        return cert

    monkeypatch.setattr(search, "is_polychromatic", counting)
    for kind, n, mode in ((F1, 12, "ordered"), (F2, 10, "combed"), (HC, 10, "combed")):
        verdicts.clear()
        report = structured_poly(n, kind, mode)
        assert [ok for c, ok in verdicts if c is report.coloring] == [True], (kind, n)


def test_structured_refuted_hit_raises(monkeypatch):
    # the first hit from the top (k = 3, f1's optimum at n = 12) is checked
    # once, outside the search, and a refuted hit is an error, not a reason
    # to search on
    calls = []

    def refuting(c, kind):
        calls.append(c)
        return PolyCertificate(False, 1, None)

    monkeypatch.setattr(search, "is_polychromatic", refuting)
    with pytest.raises(RuntimeError, match="k=3 is not polychromatic"):
        structured_poly(12, F1, "ordered")
    assert len(calls) == 1


def test_ordered_one_factor_leaves_need_no_matching(monkeypatch):
    # a complete main-color sequence meets the strict rule for every color,
    # so its leaf is proved polychromatic with no blossom call
    calls = []

    def counting(*args):
        calls.append(args)
        return maximum_matching(*args)

    monkeypatch.setattr(families, "maximum_matching", counting)
    report = structured_poly(16, F1, "ordered")
    assert report.optimum == 4
    assert calls == []


@pytest.mark.parametrize("kind, n, patterns", SEQ_DIFFERENTIAL)
def test_seq_stage_matches_plain_search(monkeypatch, kind, n, patterns):
    # the dead-state memo and the 2-factor walk skip no hit: every stage
    # returns the plain search's first hit, which the plain search checks
    # with the engines at every complete sequence and _seq_stage never does
    def no_engines(c, kind):
        raise AssertionError("_seq_stage called is_polychromatic")

    monkeypatch.setattr(search, "is_polychromatic", no_engines)
    for k in range(1, 7):
        for pattern in patterns:
            want = ref_seq_stage(n, kind, k, pattern)[0]
            assert _seq_stage(n, kind, k, pattern)[0] == want, (k, pattern)


def count_states(last, s, k, exempt, walk=False):
    """Every count state the sequence search can reach, with a flag saying
    whether some extension to position `last` completes it.

    A state is (j, used, the sorted (count, satisfied, start) triples of
    colors 1..used); the root has `exempt` satisfied colors and no position
    filled.  The start stays 0 but under the 2-factor walk (`walk`, with
    s = 0), where a crossing at pos either satisfies the color or restarts
    its count at pos.  Yields (j, used, triples, completes).
    """
    n = last + 1
    memo = {}

    def children(j, used, pairs):
        pos = j + 1
        options = [(i, pairs[i]) for i in range(len(pairs)) if pairs[i] not in pairs[:i]]
        if used < k:
            options.append((None, (0, False, 0)))
        for i, (count, sat, start) in options:
            placed = (count + 1, sat, start)
            if not sat and 2 * (count + 1) >= pos - start + s:
                if walk and pos - start > 2 and n - pos >= 3:
                    placed = (0, False, pos)
                else:
                    placed = (count + 1, True, start)
            rest = list(pairs) if i is None else list(pairs[:i] + pairs[i + 1 :])
            yield used + (i is None), tuple(sorted(rest + [placed]))

    def completes(j, used, pairs):
        key = (j, used, pairs)
        if key not in memo:
            if j == last:
                memo[key] = used == k and all(sat for _, sat, _ in pairs)
            else:
                memo[key] = any(completes(j + 1, u, p) for u, p in children(j, used, pairs))
        return memo[key]

    root = (0, exempt, ((0, True, 0),) * exempt)
    completes(*root)
    for (j, used, pairs), done in memo.items():
        yield j, used, pairs, done


def test_chain_viable_on_every_count_state():
    # the chain accepts every state some extension completes, and rejects
    # every state one of the three earlier checks rejects: a pending color
    # that cannot reach its moment even at every position left, more new
    # colors than positions left, a new color's moment past last; the rules
    # are the strict (s = 1), the weak (s = 0) and the 2-factor walk
    stronger = {}
    for s, walk in ((0, False), (1, False), (0, True)):
        stronger[s, walk] = 0
        for last in range(1, 11):
            for k in range(1, 6):
                for exempt in (0, 2, 3):
                    if exempt > k:
                        continue
                    for j, used, pairs, done in count_states(last, s, k, exempt, walk):
                        pending = [2 * count + start for count, sat, start in pairs if not sat]
                        chain = _chain_viable(pending + [0] * (k - used), j, s, last)
                        left = last - j
                        earlier = all(w + 2 * left >= last + s for w in pending) and (
                            used >= k or (k - used <= left and 2 * j + s <= last)
                        )
                        where = (last, s, walk, k, j, used, pairs)
                        assert chain or not done, where
                        assert earlier or not chain, where
                        stronger[s, walk] += earlier and not chain
    assert all(stronger.values()), stronger


def k_ceiling(n):
    """The counting bound structured_poly starts from: majority_upper_bound's
    largest value, the weak base n.bit_length() plus 3 unitary classes,
    capped by the number of edges."""
    return min(n.bit_length() + 3, n * (n - 1) // 2)


def structured_grid(top):
    """(kind, mode, n) for every structured search with n <= top."""
    return [(F1, "ordered", n) for n in range(2, top + 1, 2)] + [
        (kind, mode, n) for kind in (F2, HC) for mode in ("ordered", "combed") for n in range(3, top + 1)
    ]


def test_structured_leaves_never_refuted():
    # every family's count-state rule is exact, so the first complete
    # sequence of every stage, at every palette size up to the counting
    # bound and in every pattern, is polychromatic
    verdicts = []
    for kind in (F1, F2, HC):
        patterns = ("ordered",) if kind is F1 else ("ordered", "triple", "quad")
        for n in range(2, 25, 2) if kind is F1 else range(3, 25):
            for k in range(1, k_ceiling(n) + 1):
                for pattern in patterns:
                    hit = _seq_stage(n, kind, k, pattern)[0]
                    if hit is not None:
                        verdicts.append((kind, n, k, pattern, is_polychromatic(hit, kind).polychromatic))
    # the ascending search checked 395 hits over the same ranges
    assert len(verdicts) >= 395
    assert [v for v in verdicts if not v[-1]] == []


def test_structured_matches_ascending_reference():
    # walking down from the counting bound finds the optimum and the coloring
    # of the ascending loop, which checks every palette size's hit
    for kind, mode, n in structured_grid(64) + CAP_ROWS:
        got, want = structured_poly(n, kind, mode), ref_structured_poly(n, kind, mode)
        assert (got.optimum, got.coloring) == (want.optimum, want.coloring), (kind, mode, n)


def test_counting_bound_stage_never_hits():
    # from n = 4 on the top stage dies in every pattern, so starting there
    # never truncates the optimum; below, only f1 at n = 2 and combed n = 3
    # hit at the ceiling, where it is the number of edges
    for kind, mode, n in structured_grid(search.STRUCTURED_CAP):
        patterns = ("ordered",) if mode == "ordered" else ("ordered", "triple", "quad")
        hits = [p for p in patterns if _seq_stage(n, kind, k_ceiling(n), p)[0] is not None]
        if n >= 4:
            assert hits == [], (kind, mode, n)
        elif hits:
            assert k_ceiling(n) == n * (n - 1) // 2, (kind, mode, n)


def assert_walk_matches_engine(c, mains, exempt=()):
    # exempt colors are unitary, so on every member; the others follow the
    # walk over the full mains
    for t in range(1, c.k + 1):
        walked = t in exempt or walk_on_every_two_factor(mains, t)
        assert walked == (find_member(F2, AllowedGraph.minus_color(c, t)) is None), (mains, t)
    return c.k


def test_two_factor_walk_matches_engine():
    pairs = 0
    for n in range(3, 10):
        for seq in rgs(n - 1, max_colors=4):
            mains = seq + seq[-1:]
            pairs += assert_walk_matches_engine(build_ordered(mains), mains)
    assert pairs == 13_176
    for n in range(5, 10):
        for tail in rgs(n - 4, used0=3, max_colors=5):
            mains = (1, 2, 3) + tail
            mains += mains[-1:]
            assert_walk_matches_engine(triple_from_tail(n, tail), mains, (1, 2, 3))
        for tail in rgs(n - 5, used0=2, max_colors=4):
            mains = (1, 1, 2, 2) + tail
            mains += mains[-1:]
            assert_walk_matches_engine(quad_from_tail(n, tail), mains, (1, 2))
    rng = random.Random(26)
    for _ in range(300):
        n = rng.randint(12, 48)
        runs = []
        while len(runs) < n - 1:
            runs += [rng.randint(1, 6)] * rng.randint(1, max(1, n // 4))
        first = {}
        seq = tuple(first.setdefault(c, len(first) + 1) for c in runs[: n - 1])
        mains = seq + seq[-1:]
        assert_walk_matches_engine(build_ordered(mains), mains)


@pytest.mark.parametrize("kind, n", DIFFERENTIAL)
def test_packing_matches_coloring_dfs(kind, n):
    report = brute_force_poly(n, kind, max_n=6)
    assert report.optimum == coloring_dfs_optimum(n, kind)[0], (kind, n)
    assert report.coloring.k == report.optimum
    assert is_polychromatic(report.coloring, kind).polychromatic


@pytest.mark.parametrize("kind, n", [(kind, n) for kind, n in DIFFERENTIAL if n * (n - 1) <= 20])
def test_minimal_blockers_match_subset_scan(kind, n):
    members = _member_masks(n, kind)
    m = n * (n - 1) // 2
    blockers = _minimal_blockers(members, m)

    def meets_all(s):
        return all(s & mem for mem in members)

    def minimal_blocker(s):
        # meets every member, and no set with one edge removed still does
        return meets_all(s) and not any(meets_all(s & ~(1 << e)) for e in range(m) if s >> e & 1)

    assert all(minimal_blocker(b) for b in blockers)
    scan = [s for s in range(1 << m) if minimal_blocker(s)]
    assert len(blockers) == len(set(blockers)) == len(scan)
    assert set(blockers) == set(scan)
    assert blockers == sorted(blockers, key=lambda b: (b.bit_count(), b))


@pytest.mark.parametrize("kind, n", DIFFERENTIAL + [(F2, 7), (HC, 7)])
def test_minimal_blockers_match_reference(kind, n):
    # the private-edge rule drops exactly the extensions the test against
    # every kept set through e drops
    assert uncapped_blockers(kind, n) == reference_blockers(kind, n)


# every (kind, n) under the full-search caps
UNDER_CAPS = [
    (kind, n)
    for kind in (F1, F2, HC)
    for n in range(2 if kind is F1 else 3, BRUTE_CAPS[kind] + 1, 2 if kind is F1 else 1)
]


@pytest.mark.parametrize("kind, n", UNDER_CAPS)
def test_capped_blockers_are_the_uncapped_list_cut(kind, n):
    # a set never shrinks as members are folded in, so the capped run lists
    # exactly the minimal blockers of at most c edges, at every c
    members = _member_masks(n, kind)
    full, ref = uncapped_blockers(kind, n), reference_blockers(kind, n)
    for c in range(1, full[-1].bit_count() + 1):
        cut = [b for b in full if b.bit_count() <= c]
        assert _minimal_blockers(members, c) == cut, (kind, n, c)
        assert [b for b in ref if b.bit_count() <= c] == cut, (kind, n, c)


@pytest.mark.parametrize("kind, n", UNDER_CAPS)
def test_capped_search_matches_uncapped_packing(kind, n):
    m = n * (n - 1) // 2
    best, bound, _ = _pack(uncapped_blockers(kind, n), m, m, 0)
    assert bound == len(best)  # at cap m with floor 0 the bound is the packing
    report = brute_force_poly(n, kind)
    assert report.optimum == report.coloring.k == len(best), (kind, n)
    assert is_polychromatic(report.coloring, kind).polychromatic


def test_full_search_raises_the_cap_past_a_weak_lower_bound(monkeypatch):
    # every real case stops at the near-star cap; a construction with its
    # top two colors merged forces the loop to list larger blockers until a
    # real packing meets the bound
    def weak_build(kind, n):
        c = build(kind, n)
        weak = EdgeColoring.from_colors(n, [min(t, max(c.k - 1, 1)) for t in c.colors])
        assert is_polychromatic(weak, kind).polychromatic
        return weak

    caps = []

    def recording(members, cap):
        caps.append(cap)
        return _minimal_blockers(members, cap)

    monkeypatch.setattr(search, "build", weak_build)
    monkeypatch.setattr(search, "_minimal_blockers", recording)
    raised = {}
    for kind, n in UNDER_CAPS:
        caps.clear()
        m = n * (n - 1) // 2
        want = len(_pack(uncapped_blockers(kind, n), m, m, 0)[0])
        report = brute_force_poly(n, kind)
        assert report.optimum == report.coloring.k == want, (kind, n)
        assert is_polychromatic(report.coloring, kind).polychromatic
        first = n - 1 if kind is F1 else n - 2
        assert caps == list(range(first, first + len(caps))), (kind, n)
        assert caps[-1] <= n * (n - 1) // 2
        if len(caps) > 1:
            raised[kind, n] = caps[:]
    assert raised == {(F1, 6): [5, 6], (F1, 8): [7, 8, 9, 10, 11], (F2, 7): [5, 6], (HC, 7): [5, 6]}


@pytest.mark.parametrize("pattern", sorted(_PATTERNS))
def test_pattern_coloring_matches_dict_build(pattern):
    fixed, recolorings = _PATTERNS[pattern]
    rng = random.Random(len(pattern))
    for n in range(4, 11):
        for _ in range(20):
            # like the search, the free positions 1..n-1 take the prefix first
            seq = (list(fixed) + [rng.randint(1, 5) for _ in range(n)])[: n - 1]
            mains = seq + [seq[-1]]
            assert _pattern_coloring(n, mains, recolorings) == pattern_coloring(
                n, mains, recolorings
            )
