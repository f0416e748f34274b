"""Polychromaticity checks, adversarial witnesses, and the counting bound."""

from __future__ import annotations

import random

import pytest

from polykn import (
    EdgeColoring,
    FamilyKind,
    InheritedColoring,
    MajorityCertificate,
    NoWitness,
    SubgraphWitness,
    VertexOrdering,
    adversarial_member,
    build,
    build_ordered,
    comb_certificate,
    inherited_coloring,
    is_polychromatic,
    majority_certificate,
    majority_upper_bound,
    palette_size,
)
from polykn import verify
from polykn.constructions import check_n
from polykn.core import MajorityEntry
from polykn.families import AllowedGraph, find_member
from polykn.verify import _prefix_proofs
import helpers
from helpers import (
    all_combed_colorings,
    all_ordered_colorings,
    ordered_from_seq,
    ref_is_polychromatic,
    ref_majority_upper_bound,
    rgs,
    sample_polychromatic,
)

F1 = FamilyKind.ONE_FACTOR
F2 = FamilyKind.TWO_FACTOR
HC = FamilyKind.HAMILTONIAN_CYCLE


def test_constructions_verify():
    assert is_polychromatic(build(F1, 12), F1).polychromatic
    assert is_polychromatic(build(F2, 9), F2).polychromatic
    assert is_polychromatic(build(HC, 10), HC).polychromatic


def test_monochromatic_is_polychromatic():
    mono = EdgeColoring.from_function(6, lambda i, j: 1)
    cert = is_polychromatic(mono, F1)
    assert cert.polychromatic and cert.spot_checks == ((1, cert.spot_checks[0][1]),)


def test_single_off_color_edge_is_violated():
    c = EdgeColoring.from_function(4, lambda i, j: 2 if (i, j) == (1, 2) else 1)
    cert = is_polychromatic(c, F1)
    assert not cert.polychromatic
    assert cert.violating_color == 2
    cert.witness.validate(4)
    assert all(c.color(i, j) != 2 for (i, j) in cert.witness.edges)
    assert cert.witness.edges in (((1, 3), (2, 4)), ((1, 4), (2, 3)))


def test_violation_witness_reverifies():
    rng = random.Random(31)
    hits = 0
    for _ in range(80):
        c = EdgeColoring.from_function(6, lambda i, j: rng.randint(1, 3))
        cert = is_polychromatic(c, F1)
        if not cert.polychromatic:
            cert.witness.validate(6)
            t = cert.violating_color
            assert all(c.color(i, j) != t for (i, j) in cert.witness.edges)
            hits += 1
    assert hits > 0


def test_spot_checks_cover_every_color():
    c = build(F2, 12)
    cert = is_polychromatic(c, F2)
    assert cert.polychromatic
    assert [t for (t, _) in cert.spot_checks] == list(range(1, c.k + 1))
    for (t, (i, j)) in cert.spot_checks:
        assert c.color(i, j) == t


def test_spot_check_refuses_a_member_missing_a_color(monkeypatch):
    # a verdict's last check: color 2 is the edge (1, 3) alone, so were the
    # engine to miss the 1-factors avoiding it, the spot-check member
    # (1, 2), (3, 4) would still miss it, and the verdict raises, not passes
    c = EdgeColoring.from_pairs(4, {(1, 2): 1, (1, 3): 2, (1, 4): 1, (2, 3): 1, (2, 4): 1, (3, 4): 1})
    assert is_polychromatic(c, F1).violating_color == 2
    monkeypatch.setattr(verify, "find_member", lambda *a: None)
    with pytest.raises(RuntimeError, match="^spot-check member misses a color on a verified coloring$"):
        is_polychromatic(c, F1)


def _has_members(kind, n):
    try:
        check_n(kind, n)
    except ValueError:
        return False
    return True


def _prefix_proof_inputs():
    """(coloring, family) pairs: the built colorings up to n = 69, 600
    seeded polychromatic samples, 1-2-edge recolorings of the built
    colorings up to n = 25, and every combed coloring of K_8.  The
    recolored edges join vertices of the upper half, so the greedy gets
    stuck late and leaves a prefix that proves colors."""
    for kind in FamilyKind:
        for n in range(2, 70):
            if _has_members(kind, n):
                yield build(kind, n), kind
    rng = random.Random(71)
    for _ in range(600):
        yield sample_polychromatic(rng)
    for kind in FamilyKind:
        for n in range(2, 26):
            if not _has_members(kind, n):
                continue
            base = build(kind, n)
            for _ in range(10):
                c = base
                for _ in range(rng.choice((1, 2))):
                    i, j = sorted(rng.sample(range(max(1, n // 2), n + 1), 2))
                    c = c.recolored(i, j, rng.randint(1, base.k))
                yield c, kind
    for c in all_combed_colorings(8):
        for kind in FamilyKind:
            yield c, kind


def test_prefix_proofs_match_engines(monkeypatch):
    # the prefix proofs change no certificate, and never claim a color
    # that the engines can avoid.  find_member is deterministic on a given
    # allowed graph, so one engine query per (input, color) serves the
    # reference, is_polychromatic and the check of the proved colors
    members: dict = {}

    class ByColor:
        @staticmethod
        def minus_color(coloring, t):
            return coloring, t

    def find_once(kind, query):
        if query not in members:
            members[query] = find_member(kind, AllowedGraph.minus_color(*query))
        return members[query]

    for module in (helpers, verify):
        monkeypatch.setattr(module, "AllowedGraph", ByColor)
        monkeypatch.setattr(module, "find_member", find_once)
    uncombed_proofs = 0
    for c, kind in _prefix_proof_inputs():
        members.clear()
        want = ref_is_polychromatic(c, kind)
        assert is_polychromatic(c, kind) == want, (kind, c.n, c.colors)
        proved = _prefix_proofs(c, kind)
        for t in proved:
            assert find_once(kind, (c, t)) is None, (kind, t, c.colors)
        ic = comb_certificate(c)
        if ic is not None:
            # verdicts read the strict and weak certificates' moments for
            # 1-factors and cycles, and the segment walk for 2-factors; for
            # 2-factors and cycles the unitary classes are proved as well
            unitary = {u.main for u in ic.unitary_set}
            if kind is F2:
                prefix = {
                    t for t in range(1, c.k + 1)
                    if t not in unitary and helpers.walk_on_every_two_factor(ic.sequence, t)
                }
            else:
                cert = majority_certificate(ic, strict=kind is F1)
                prefix = {e.color for e in cert.entries if e.status == "prefix"}
            if kind is not F1:
                prefix |= unitary
            assert proved == prefix, (kind, c.colors)
        if proved and ic is None:
            uncombed_proofs += 1
    assert uncombed_proofs >= 100


def _engine_colors(monkeypatch, c, kind):
    """The colors is_polychromatic hands to find_member, in order, and
    the number of find_member calls."""
    queried, calls = [], []

    class Spy:
        @staticmethod
        def minus_color(coloring, t):
            queried.append(t)
            return AllowedGraph.minus_color(coloring, t)

    def counting(*args):
        calls.append(args)
        return find_member(*args)

    monkeypatch.setattr(verify, "AllowedGraph", Spy)
    monkeypatch.setattr(verify, "find_member", counting)
    assert is_polychromatic(c, kind).polychromatic
    monkeypatch.undo()
    return queried, len(calls)


def test_built_one_factor_colorings_need_no_engine(monkeypatch):
    # the prefix rule proves every color of build(F1, n); n = 256 is the CI
    # round trip's
    for n in (2, 16, 128, 256, 512):
        assert _engine_colors(monkeypatch, build(F1, n), F1) == ([], 0), n


def test_built_colorings_send_only_unitary_colors_to_engines(monkeypatch):
    # the family's prefix rule proves every color outside the 3 unitary
    # classes, and their vertices' mains prove those, so none is left for
    # the engines.  Below n = 4 only build(F2, 3) has unitary vertices
    for kind in (F2, HC):
        for n in range(3, 130):
            c = build(kind, n)
            unitary = {u.main for u in comb_certificate(c).unitary_set}
            assert len(unitary) == (0 if (kind, n) == (HC, 3) else 3), (kind, n)
            queried, calls = _engine_colors(monkeypatch, c, kind)
            assert set(queried) <= unitary, (kind, n)
            assert (queried, calls) == ([], 0), (kind, n)


def test_one_factors_may_avoid_a_unitary_class():
    # a perfect matching may take the unitary vertices' off-main edges, so
    # the 1-factor proofs leave their classes to the engines; in the combed
    # colorings of K_4, K_6 and K_8 most unitary classes are avoidable
    classes = avoided = 0
    for n in (4, 6, 8):
        for c in all_combed_colorings(n):
            proved = _prefix_proofs(c, F1)
            for t in {u.main for u in comb_certificate(c).unitary_set}:
                classes += 1
                if find_member(F1, AllowedGraph.minus_color(c, t)) is not None:
                    avoided += 1
                    assert t not in proved, (t, c.colors)
    assert (avoided, classes) == (1154, 1252)


def test_odd_n_one_factor_rejected():
    with pytest.raises(ValueError):
        is_polychromatic(build(F2, 5), F1)


def test_adversarial_matching_example():
    ic = inherited_coloring(build_ordered((1, 1, 2, 2)), VertexOrdering.identity(4))
    w = adversarial_member(ic, 2, F1)
    assert w.edges == ((1, 3), (2, 4))
    assert all(ic.coloring.color(i, j) == 1 for (i, j) in w.edges)


def test_adversarial_matching_shifted_blocks():
    for m in (2, 3, 4):
        seq = [1] * m + [2] * m
        ic = inherited_coloring(build_ordered(seq), VertexOrdering.identity(2 * m))
        w = adversarial_member(ic, 2, F1)
        assert w.edges == tuple((i, m + i) for i in range(1, m + 1))


def test_adversarial_matching_rejects_satisfied_color():
    ic = inherited_coloring(build_ordered((1, 2, 2, 2)), VertexOrdering.identity(4))
    with pytest.raises(ValueError, match=r"^color 2 satisfies the majority condition \(j=3\)$"):
        adversarial_member(ic, 2, F1)
    with pytest.raises(ValueError, match=r"^color 1 satisfies the majority condition \(j=1\)$"):
        adversarial_member(ic, 1, F1)


def test_adversarial_matching_randomized_failing_instances():
    rng = random.Random(17)
    produced = 0
    while produced < 200:
        n = rng.choice([4, 6, 8])
        seq = [rng.randint(1, 3) for _ in range(n - 1)]
        c = ordered_from_seq(tuple(seq))
        ic = inherited_coloring(c, VertexOrdering.identity(n))
        cert = majority_certificate(ic, strict=True)
        for t in cert.failing_colors():
            w = adversarial_member(ic, t, F1)
            w.validate(n)
            assert all(c.color(i, j) != t for (i, j) in w.edges)
            assert not is_polychromatic(c, F1).polychromatic
            produced += 1


def test_adversarial_hamcycle_example():
    c = build_ordered((1, 1, 1, 2, 1, 1))
    ic = inherited_coloring(c, VertexOrdering.identity(6))
    w = adversarial_member(ic, 2, HC)
    assert w.edges == ((1, 4), (1, 6), (2, 3), (2, 4), (3, 5), (5, 6))
    assert all(c.color(i, j) != 2 for (i, j) in w.edges)


def test_adversarial_hamcycle_rejections():
    c = build_ordered((1, 1, 1, 2, 1, 1))
    ic = inherited_coloring(c, VertexOrdering.identity(6))
    with pytest.raises(ValueError, match=r"^color 3 out of range$"):
        adversarial_member(ic, 3, HC)
    with pytest.raises(ValueError, match=r"^color 1 satisfies the weak majority condition \(j=1\)$"):
        adversarial_member(ic, 1, HC)
    comb = comb_certificate(build(F2, 8))
    with pytest.raises(ValueError, match=r"^class 1 contains a unitary vertex$"):
        adversarial_member(comb, 1, HC)


def test_adversarial_rejection_messages():
    # the ValueErrors the two tests above leave out, word for word;
    # (1, 2, 2, 2) meets the weak rule for color 2 at j=2, one position
    # before the strict rule
    ic = inherited_coloring(build_ordered((1, 2, 2, 2)), VertexOrdering.identity(4))
    for kind in (F1, HC):
        for t in (0, 3):
            with pytest.raises(ValueError, match=rf"^color {t} out of range$"):
                adversarial_member(ic, t, kind)
    with pytest.raises(ValueError, match=r"^color 2 satisfies the weak majority condition \(j=2\)$"):
        adversarial_member(ic, 2, HC)
    # mains that leave class 2 empty fail both rules for color 2
    c = build_ordered((1, 1, 2, 2))
    empty = InheritedColoring(c, VertexOrdering.identity(4), (1, 1, 1, 1), ())
    for kind in (F1, HC):
        with pytest.raises(ValueError, match=r"^color 2 is not present$"):
            adversarial_member(empty, 2, kind)
    comb = comb_certificate(build(F2, 8))
    with pytest.raises(NoWitness, match=r"^color 4 satisfies the majority condition \(j=7\)$"):
        adversarial_member(comb, 4, F1)


def test_adversarial_hamcycle_randomized_failing_instances():
    rng = random.Random(23)
    produced = 0
    while produced < 200:
        n = rng.choice([5, 6, 7, 8])
        seq = [rng.randint(1, 3) for _ in range(n - 1)]
        c = ordered_from_seq(tuple(seq))
        ic = inherited_coloring(c, VertexOrdering.identity(n))
        cert = majority_certificate(ic, strict=False)
        for t in cert.failing_colors():
            w = adversarial_member(ic, t, HC)
            w.validate(n)
            assert all(c.color(i, j) != t for (i, j) in w.edges)
            assert not is_polychromatic(c, HC).polychromatic
            assert not is_polychromatic(c, F2).polychromatic
            produced += 1


def test_witness_builders_agree_with_prefix_proofs():
    # the contract polykn witness relies on, on every combed coloring up to
    # n = 8: a built member avoids t; NoWitness names a class holding a
    # unitary vertex, or a color _prefix_proofs proves under the family's
    # rule; nothing else is raised
    unitary_f1 = 0
    rules = {F1: "majority condition", F2: "segment walk", HC: "weak majority condition"}
    for n in range(3, 9):
        for c in all_combed_colorings(n):
            ic = comb_certificate(c)
            unitary = {u.main for u in ic.unitary_set}
            for kind in (F1, F2, HC) if n % 2 == 0 else (F2, HC):
                proved = _prefix_proofs(c, kind)
                if kind is F2:
                    moments = {t: helpers.two_factor_walk_moment(ic.sequence, t) for t in proved}
                else:
                    s = 1 if kind is F1 else 0
                    moments = {t: helpers.majority_moment(ic.sequence, t, s) for t in proved}
                for t in range(1, c.k + 1):
                    try:
                        w = adversarial_member(ic, t, kind)
                    except NoWitness as exc:
                        if t in unitary:
                            assert str(exc) == f"class {t} contains a unitary vertex"
                        else:
                            line = f"color {t} satisfies the {rules[kind]} (j={moments[t]})"
                            assert t in proved and str(exc) == line, (kind, t, c.colors)
                        continue
                    assert t not in unitary and t not in proved, (kind, t, c.colors)
                    SubgraphWitness(kind, w.edges).validate(n)
                    assert all(c.color(i, j) != t for (i, j) in w.edges), (kind, t, c.colors)
                    unitary_f1 += kind is F1 and bool(unitary)
    assert unitary_f1 >= 400


def test_two_factor_witness_is_exact():
    # on every combed coloring up to n = 8 the 2-factor builder writes down
    # an avoiding member exactly when the engine finds one, outside the
    # classes holding a unitary vertex
    built = proved = 0
    for n in range(3, 9):
        for c in all_combed_colorings(n):
            ic = comb_certificate(c)
            unitary = {u.main for u in ic.unitary_set}
            for t in range(1, c.k + 1):
                engine = find_member(F2, AllowedGraph.minus_color(c, t))
                try:
                    w = adversarial_member(ic, t, F2)
                except NoWitness as exc:
                    if t in unitary:
                        assert str(exc) == f"class {t} contains a unitary vertex"
                    else:
                        assert engine is None, (t, c.colors, str(exc))
                        proved += 1
                    continue
                assert engine is not None, (t, c.colors)
                w.validate(n)
                assert all(c.color(i, j) != t for (i, j) in w.edges), (t, c.colors)
                built += 1
    assert (built, proved) == (2533, 2154)  # generator repeats included


def test_majority_upper_bound_strict():
    ic = inherited_coloring(build(F1, 8), VertexOrdering.identity(8))
    cert = majority_certificate(ic, strict=True)
    assert majority_upper_bound(cert) == 3
    tiny = inherited_coloring(EdgeColoring.from_pairs(2, {(1, 2): 1}), VertexOrdering.identity(2))
    assert majority_upper_bound(majority_certificate(tiny, strict=True)) == 1
    # mains 1,2,3,4,4,4,4,4: three unitary classes set aside, and color 4
    # holds a strict majority of the first 7 positions
    hc = comb_certificate(build(HC, 8))
    cert = majority_certificate(hc, strict=True)
    assert hc.sequence == (1, 2, 3, 4, 4, 4, 4, 4)
    assert cert.unitary_colors() == (1, 2, 3) and cert.entry(4).j == 7
    assert majority_upper_bound(cert) == 6  # floor(log2 8) + 3


def test_majority_upper_bound_weak():
    ic = comb_certificate(build(F2, 12))
    cert = majority_certificate(ic, strict=False)
    bound = majority_upper_bound(cert)
    assert bound == 7  # floor(log2 12) + 4
    assert bound >= palette_size(F2, 12)
    ordered = inherited_coloring(build(F1, 8), VertexOrdering.identity(8))
    weak = majority_certificate(ordered, strict=False)
    assert majority_upper_bound(weak) == 4  # floor(log2 8) + 1


def test_majority_upper_bound_rejections():
    ic = inherited_coloring(build_ordered((1, 1, 2, 2)), VertexOrdering.identity(4))
    incomplete = majority_certificate(ic, strict=True)
    with pytest.raises(ValueError):
        majority_upper_bound(incomplete)
    # only 3 or 4 unitary vertices exist, spanning 3 or 2 classes, in
    # either mode
    for mode, excluded in (("weak", 1), ("weak", 4), ("strict", 1), ("strict", 4)):
        with pytest.raises(ValueError, match=f"{mode} certificate flags {excluded} unitary"):
            majority_upper_bound(hand_certificate(8, mode, excluded))


def hand_certificate(n, mode, excluded):
    """A complete certificate with `excluded` unitary classes and one
    prefix class."""
    entries = [MajorityEntry(t, "unitary", None) for t in range(1, excluded + 1)]
    entries.append(MajorityEntry(excluded + 1, "prefix", 1))
    return MajorityCertificate(n, mode, tuple(entries))


def test_majority_upper_bound_matches_counting_loops():
    # the closed forms against the loops that step k up one color at a time
    for n in range(1, 4097):
        for excluded in (0, 2, 3):
            strict = majority_upper_bound(hand_certificate(n, "strict", excluded))
            assert strict == ref_majority_upper_bound(n, True, excluded), (n, excluded)
            weak = majority_upper_bound(hand_certificate(n, "weak", excluded))
            assert weak == ref_majority_upper_bound(n, False, excluded), (n, excluded)


def test_majority_upper_bound_covers_every_complete_certificate():
    # the counting chain holds wherever the unitary vertices sit, so every
    # complete certificate, unitary classes or not, bounds its own palette
    unitary_strict = 0
    for n in range(3, 9):
        for c in all_combed_colorings(n):
            ic = comb_certificate(c)
            for strict in (True, False):
                cert = majority_certificate(ic, strict)
                if cert.complete:
                    assert majority_upper_bound(cert) >= c.k, (n, strict, c.colors)
                    unitary_strict += strict and bool(cert.unitary_colors())
    assert unitary_strict == 139


def test_majority_biconditional_small_exhaustive():
    # ordered colorings of K_6: polychromatic iff the strict certificate closes
    for seq in rgs(5):
        c = ordered_from_seq(seq)
        ic = inherited_coloring(c, VertexOrdering.identity(6))
        cert = majority_certificate(ic, strict=True)
        assert cert.complete == is_polychromatic(c, F1).polychromatic


def test_strict_condition_sweep_n10():
    # every ordered coloring of K_10: the certificate closes exactly on the
    # polychromatic ones, and each failure yields a verified avoiding matching
    count = 0
    for c in all_ordered_colorings(10):
        ic = inherited_coloring(c, VertexOrdering.identity(10))
        cert = majority_certificate(ic, strict=True)
        assert cert.complete == ref_is_polychromatic(c, F1).polychromatic
        for t in cert.failing_colors():
            w = adversarial_member(ic, t, F1)
            assert all(c.color(i, j) != t for (i, j) in w.edges)
        count += 1
    assert count == 21147  # set partitions of the 9 free positions


def test_weak_condition_sweep_n9():
    for c in all_combed_colorings(9):
        ic = inherited_coloring(c, VertexOrdering.identity(9))
        cert = majority_certificate(ic, strict=False)
        for kind in (F2, HC):
            if ref_is_polychromatic(c, kind).polychromatic:
                assert cert.complete
        for t in cert.failing_colors():
            w = adversarial_member(ic, t, HC)
            w.validate(9)
            assert all(c.color(i, j) != t for (i, j) in w.edges)


def test_majority_upper_bound_dominates_search():
    from polykn import brute_force_poly, comb_certificate

    for n in (4, 5):
        optimum = brute_force_poly(n, F2).optimum
        ic = comb_certificate(build(F2, n))
        cert = majority_certificate(ic, strict=False)
        assert majority_upper_bound(cert) >= optimum


def test_majority_upper_bound_weak_with_quad_prefix():
    from polykn import comb_certificate
    from helpers import quad_from_tail

    # four unitary vertices span two main colors; both classes are exempt
    c = quad_from_tail(9, (3, 3, 3, 3))
    ic = comb_certificate(c)
    assert len(ic.unitary_set) == 4
    cert = majority_certificate(ic, strict=False)
    assert cert.complete
    assert len(cert.unitary_colors()) == 2
    assert majority_upper_bound(cert) == 6  # floor(log2 9) + 3

    plain = quad_from_tail(6, (1,))
    cert2 = majority_certificate(comb_certificate(plain), strict=False)
    assert majority_upper_bound(cert2) == 5


def test_majority_upper_bound_strict_odd_n():
    c = build_ordered((1, 2, 2, 2, 2, 2, 2))
    ic = inherited_coloring(c, VertexOrdering.identity(7))
    cert = majority_certificate(ic, strict=True)
    assert cert.complete
    # odd n only forces 2^k - 1 <= n
    assert majority_upper_bound(cert) == 3
