"""The augmentation step against references that decide every child.

_child_records takes the children of forb(K3), H(2, 0) and P(J) from the
masks the family reads off the parent (Family._member_children), and for Forb
skips a child when an earlier rejected sibling's witness set W of parent
vertices already decides it; these tests check that the masks are exact,
that the skips change nothing (the records equal those of a loop that
decides every orbit representative), that every witness really is one, and
that the members and labeled counts agree with a frozen digest and with an
independent double count.
"""

import functools
import hashlib
import random

import pytest

import hfspeed.enumeration as enumeration
from hfspeed.critical import verify_kpr, verify_star_speed
from hfspeed.enumeration import (
    _child_records, _labeled_counts, enumerate_family,
)
from hfspeed.families import ALL, AtomC, AtomM, Forb, HST, PartitionProduct
from hfspeed.graph6 import decode
from hfspeed.graphs import (
    Graph, add_vertex, complete, cycle, induced_subgraph, matching,
)
from hfspeed.stars import (
    Constellation, PJFamily, is_member_PJ, minimal_nonstar_scan,
)
from hfspeed.structure import ReducedFamily
from oracles import (
    all_reps_child_records, double_count_labeled, naive_member,
)
from test_acceptance import SIX

FORB_K3 = Forb([complete(3)])
FORB_C5 = Forb([cycle(5)])
FORB_K4 = Forb([complete(4)])
FORB_C4_2K2 = Forb([cycle(4), matching(2)])


def _pj(spec):
    g6, *fields = spec.split(";")
    return PJFamily(Constellation(decode(g6), *(
        tuple(map(int, x)) for x in fields)))


# a two-vertex core; DOM; one-vertex cores whose second part has no core
# vertex, so a missing core vertex alone tells two empty parts apart; a
# three-part core; the empty core
PJ_LISTED = [_pj(x) for x in ("A?;01;11;00", "@;0;1;0", "@;1;1;00",
                              "@;1;0;11", "@;2;0;110", "?;;;01")]


@functools.lru_cache(maxsize=None)
def _table8(fam):
    return enumerate_family(fam, 8)


@pytest.mark.parametrize("fam", SIX + [FORB_C5, FORB_K4, FORB_C4_2K2,
                                 _pj("A?;01;11;00"), _pj("@;1;1;00")],
                         ids=lambda f: f.text())
def test_child_records_equal_deciding_every_rep(fam):
    empty = Graph(0)
    level = [(empty.rows, (), 1)] if fam.membership(empty).member else []
    for n in range(7):
        want = all_reps_child_records(fam, level, n, None, False)
        assert _child_records(fam, level, n, None, False) == want, n
        level = sorted(want, key=lambda r: r[0])


@pytest.mark.parametrize("fam", SIX + [FORB_C5, FORB_K4, FORB_C4_2K2,
                                 _pj("A?;01;11;00"), _pj("@;1;1;00")],
                         ids=lambda f: f.text())
def test_counted_records_equal_deciding_every_rep(fam):
    # a counted level takes |Aut| of a child whose new vertex alone has
    # the maximum invariant from the parent's group, with no canonical form;
    # forb(K3) tallies H(2, 0), whose masks decide its children outside it,
    # and forb(K4) H(3, 0), which decides every child
    within = {"forb(K3)": HST(2, 0), "forb(K4)": HST(3, 0)}.get(fam.text())
    empty = Graph(0)
    level = [(empty.rows, (), 1)] if fam.membership(empty).member else []
    for n in range(7):
        want = all_reps_child_records(fam, level, n, None, True, within)
        assert _child_records(fam, level, n, None, True, within) == want, n
        level = sorted(_child_records(fam, level, n, None, False),
                       key=lambda r: r[0])


@pytest.mark.parametrize("fam", [FORB_K3, FORB_C5], ids=lambda f: f.text())
def test_rejection_support_is_a_witness(fam):
    rng = random.Random(6)
    table = enumerate_family(fam, 7)
    checked = 0
    for n in range(1, 8):
        for parent in table.members[n]:
            for _ in range(8):
                child = add_vertex(parent, rng.getrandbits(n))
                res = fam.membership(child, new_vertex_only=True)
                if res.member:
                    continue
                w = fam._rejection_support(child, res)
                assert w is not None and not w >> n
                keep = [v for v in range(n) if w >> v & 1] + [n]
                assert not naive_member(induced_subgraph(child, keep), fam)
                checked += 1
    assert checked > 100


@pytest.mark.parametrize("fam", [FORB_K3, HST(2, 0)], ids=lambda f: f.text())
def test_member_children_are_exact(fam):
    # every class to n = 7 against all 2^n masks, decided naively
    for n in range(8):
        for parent in _table8(fam).members[n]:
            got = fam._member_children(parent.rows)
            assert sorted(got) == [
                s for s in range(1 << n)
                if naive_member(add_vertex(parent, s), fam)], parent
    # a parent outside the family has no child in it (C5 is in forb(K3))
    k3 = complete(3)
    outside = [p for p in (cycle(5), k3, add_vertex(k3, 0),
                           add_vertex(add_vertex(k3, 0), 0))
               if not naive_member(p, fam)]
    assert len(outside) >= 3
    for parent in outside:
        assert fam._member_children(parent.rows) == [], parent


@pytest.mark.parametrize("fam", PJ_LISTED, ids=lambda f: f.text())
def test_pj_member_children_are_exact(fam):
    # every class to n = 6 against all 2^n masks, decided by is_member_PJ;
    # parents to n = 4 against the naive definition chase
    table = enumerate_family(ALL, 6)
    c = fam.constellation
    outside = 0
    for n in range(7):
        for parent in table.members[n]:
            got = fam._member_children(parent.rows)
            if not is_member_PJ(parent, c).member:
                assert got == [], parent
                outside += 1
                continue
            assert got == [s for s in range(1 << n)
                           if is_member_PJ(add_vertex(parent, s), c).member
                           ], parent
            if n <= 4:
                assert got == [s for s in range(1 << n)
                               if naive_member(add_vertex(parent, s), fam)
                               ], parent
    assert outside > 0


@pytest.mark.parametrize("fam", [
    FORB_K4, FORB_C5, FORB_C4_2K2, Forb([complete(3), cycle(5)]), HST(3, 0),
    HST(1, 1), PartitionProduct((AtomM(), AtomC())),
], ids=lambda f: f.text())
def test_member_children_none_keeps_the_no_good_route(fam):
    assert fam._member_children(cycle(5).rows) is None


def _rejected_calls(monkeypatch):
    """Patch the enumerator's membership calls; the returned list collects
    (family text, order, graph rows) of every rejection."""
    rejected = []
    decide = enumeration._membership

    def spy(family, g, *args):
        res = decide(family, g, *args)
        if not res.member:
            rejected.append((family.text(), g.n, g.rows))
        return res
    monkeypatch.setattr(enumeration, "_membership", spy)
    return rejected


@pytest.mark.parametrize("fam", [FORB_K3, HST(2, 0)], ids=lambda f: f.text())
def test_no_rejected_membership_call(fam, monkeypatch):
    rejected = _rejected_calls(monkeypatch)
    table = enumerate_family(fam, 8)
    assert table.unlabeled == _table8(fam).unlabeled
    assert rejected == []


def test_kpr_top_level_makes_no_rejected_call(monkeypatch):
    rejected = _rejected_calls(monkeypatch)
    report = verify_kpr(2, 8)
    assert report.rows[-1]["covered"] == "2922446"
    assert rejected and not [r for r in rejected if r[1] == 8]


def _called_orders(monkeypatch):
    """Patch the enumerator's membership calls; the returned list collects
    the order of every graph decided."""
    orders = []
    decide = enumeration._membership

    def spy(family, g, *args):
        orders.append(g.n)
        return decide(family, g, *args)
    monkeypatch.setattr(enumeration, "_membership", spy)
    return orders


@pytest.mark.parametrize("fam,n_max,unlabeled", [
    (FORB_K3, 8, [1, 1, 2, 3, 7, 14, 38, 107, 410]),
    (HST(2, 0), 8, [1, 1, 2, 3, 7, 13, 35, 88, 303]),
    (_pj("A?;01;11;00"), 7, [1, 1, 2, 4, 10, 28, 107, 464]),
    (ALL, 7, [1, 1, 2, 4, 11, 34, 156, 1044]),
], ids=["forb(K3)", "H(2, 0)", "pj(A?;01;11;00)", "ALL"])
def test_listed_children_make_no_membership_call(fam, n_max, unlabeled,
                                                 monkeypatch):
    # a listed child is taken from its list: only the empty graph, which
    # no parent lists, is decided by a call
    orders = _called_orders(monkeypatch)
    assert enumerate_family(fam, n_max).unlabeled == unlabeled
    assert orders == [0]


@pytest.mark.parametrize("n", range(10))
def test_all_labeled_counts_take_the_listed_route(n, monkeypatch):
    # every labelled graph: level n is read off level n - 1's lists
    orders = _called_orders(monkeypatch)
    labeled, within = _labeled_counts(ALL, n, None, 1)
    assert labeled == [2 ** (k * (k - 1) // 2) for k in range(n + 1)]
    assert within is None and orders == [0]


def test_star_speed_makes_no_rejected_call(monkeypatch):
    # P(J) and H(2, 0) list their member children, and the top level is
    # read off its parents, so no graph above order 0 is decided
    orders = _called_orders(monkeypatch)
    report = verify_star_speed(_pj("A?;01;11;00").constellation, 2, 7)
    assert report.rows[-1]["labeled"] == "1010668"
    assert set(orders) == {0}


def test_kpr_tally_reads_the_within_masks(monkeypatch):
    # H(2, 0) lists its member children exactly, so the counted top level
    # of the tally decides no child of order 8 by a call
    calls = []
    decide = enumeration._membership

    def spy(family, g, *args):
        if family.text() == "H(2, 0)" and g.n == 8:
            calls.append(g.rows)
        return decide(family, g, *args)
    monkeypatch.setattr(enumeration, "_membership", spy)
    report = verify_kpr(2, 8)
    assert report.rows[-1]["covered"] == "2922446"
    assert calls == []


def test_counted_tally_reads_the_parents_lists(monkeypatch):
    # a counted level takes a listing `within`'s verdict off each parent's
    # list, so no graph of the top order is decided by a call
    orders = _called_orders(monkeypatch)
    t = enumerate_family(FORB_K3, 8, keep_members=False, within=HST(2, 0))
    assert t.within_labeled[8] == 2922446
    assert 8 not in orders and 7 in orders


def _enumerator_forms(monkeypatch):
    """Patch the enumerator's canonical forms; the returned list collects
    the order of every graph canonicalised."""
    orders = []
    real = enumeration._canonical_form

    def spy(g, *args):
        orders.append(g.n)
        return real(g, *args)
    monkeypatch.setattr(enumeration, "_canonical_form", spy)
    return orders


def test_kpr_counts_its_next_to_top_level(monkeypatch):
    # level 8 of forb(K3) is counted, so most of its classes take no
    # canonical form: fewer forms than the 583 classes to order 8, and
    # none for a child whose maximum-invariant vertices are twins
    forms = _enumerator_forms(monkeypatch)
    report = verify_kpr(2, 9)
    assert report.rows[-1]["covered"] == "116011231"
    assert len(forms) < 583
    assert len(forms) == 313


def test_nonstar_scan_counts_its_top_order(monkeypatch):
    # order 7 is counted, so most of its classes take no canonical form:
    # fewer forms than the 1,253 classes ALL has to order 7, and none for
    # a child whose maximum-invariant vertices are twins
    forms = _enumerator_forms(monkeypatch)
    report = minimal_nonstar_scan(1, 7)
    assert report.scanned[-1] == (7, 1044)
    assert len(forms) < 1253
    assert len(forms) == 436


# sha256 over (n, unlabeled, labeled, member rows) at every level to n = 8,
# recorded before children were skipped by witnesses
MEMBERS_DIGEST = {
    "H(2, 0)":
        "afa6c60529502b1518af7ac8280e11639d9c747451a8f637d6e25e87b6c4f9cd",
    "H(1, 1)":
        "798b1c68cce13fc9af6c9a2f7befe06e10913ca9721394a4eee138789aec0a9c",
    "forb(K3)":
        "fd40fc8e56a8a42dc3a5e990475a3ed8c8b44b98ff2c2e25bb293ae701534b4c",
    "forb(2K2)":
        "caa28d6b535ee132add678d64da2ccd01bf57c5555d34d4a252c459f90a2379b",
    "M":
        "43cfb729f1283d19d4f4008d827993770268425e210bf32fe627fa26f3618ccc",
    "P(M, C)":
        "8000322424d4bb19944176747935c061cf9f3d7fdc277e9b4976b690481266a7",
}


@pytest.mark.parametrize("fam", SIX, ids=lambda f: f.text())
def test_members_digest(fam):
    table = _table8(fam)
    h = hashlib.sha256()
    for n in range(9):
        h.update(repr((n, table.unlabeled[n], table.labeled[n],
                       [g.rows for g in table.members[n]])).encode())
    assert h.hexdigest() == MEMBERS_DIGEST[fam.text()]


@pytest.mark.parametrize("fam", SIX + [FORB_C5], ids=lambda f: f.text())
def test_double_count(fam):
    table = _table8(fam)
    for n in range(8):
        assert (double_count_labeled(fam, table.members[n], n)
                == table.labeled[n + 1]), n


# P(J) with a two-vertex core (A?;01;11;00), DOM's P(J) (@;0;1;0) and a
# reduced family, each to the largest n its membership keeps cheap
@pytest.mark.parametrize("fam, top", [
    (PJFamily(Constellation(decode("A?"), (0, 1), (1, 1), (0, 0))), 7),
    (PJFamily(Constellation(decode("@"), (0,), (1,), (0,))), 8),
    (ReducedFamily(Forb([cycle(5)]), 2), 7),
], ids=["pj(A?;01;11;00)", "pj(@;0;1;0)", "red(forb(C5)),l=2"])
def test_double_count_pj_and_reduced(fam, top):
    table = enumerate_family(fam, top)
    for n in range(top):
        assert (double_count_labeled(fam, table.members[n], n)
                == table.labeled[n + 1]), n
