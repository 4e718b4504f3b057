import json
import math
from fractions import Fraction

import pytest

from hfspeed.critical import (
    CriticalityVerdict, ExperimentReport, FIRST_PART_MENU, _labeled_counts,
    criticality_tuples, is_critical, verify_constellation_cover, verify_kpr,
    verify_partition_fraction, verify_star_speed,
)
from hfspeed.enumeration import enumerate_family
from hfspeed.errors import (
    ResourceLimitError, UnsupportedOperationError, ValidationError,
)
from hfspeed.families import (
    ALL, Apex, C, Forb, HST, Iota, M, PartitionProduct, S, family_contains,
)
from hfspeed.canon import canonical_graph
from hfspeed.graphs import Graph, complete, cycle, edgeless, matching, path
from hfspeed.stars import (
    Constellation, PJFamily, StarSystem, generate_constellations,
    is_member_PJ, is_s_star,
)
from hfspeed import graph6, stars
from oracles import (
    brute_embeds_induced, naive_member, verify_partition_certificate,
)

K0 = Graph.from_rows([])
K1 = complete(1)
FORB_K3 = Forb([complete(3)])
FORB_2K2 = Forb([matching(2)])
FORB_C5 = Forb([cycle(5)])

# frozen exact fractions |H(2,0)^n| / |Forb(K3)^n|, n = 1..7, reduced
KPR2_FRACS = ["1", "1", "1", "1", "94/97", "5177/5789", "103237/133501"]


class TestIsCritical:
    def test_forb_k3(self):
        v = is_critical(FORB_K3)
        assert v.critical and bool(v)
        assert v.l == 2 and v.s == 0 and v.n_check == 8
        assert v.witness is None
        assert len(v.refutations) == 16

    def test_forb_2k2(self):
        v = is_critical(FORB_2K2)
        assert v.critical and v.l == 2 and v.s == 0

    def test_forb_c5_witness(self):
        v = is_critical(FORB_C5)
        assert not v.critical and v.l == 2 and v.s is None
        assert [f.text() for f in v.witness] == ["M", "C"]
        assert v.refutations is None

    def test_budget_error_names_product_level_and_graph(self):
        # budget 8 lasts through chi_c but not through P(M, C) on C5
        with pytest.raises(ResourceLimitError) as info:
            is_critical(FORB_C5, budget_limit=8)
        assert str(info.value) == ("P(M, C) at level 5, graph Dhc: "
                                   "membership search exceeded node budget 8")

    def test_witness_soundness(self):
        # the witness product really is contained in the family, by the
        # library rule and by brute force on every member up to 6
        v = is_critical(FORB_C5)
        prod = PartitionProduct(v.witness)
        ok, evidence = family_contains(prod, FORB_C5)
        assert ok and evidence is None
        table = enumerate_family(prod, 6)
        for n in range(7):
            for g in table.members[n]:
                assert not brute_embeds_induced(cycle(5), g)

    def test_refutations_sound(self):
        # every scanned tuple is refuted by a pattern the product accepts;
        # re-check each certificate with the definition-chasing oracle
        for fam, npat in ((FORB_K3, complete(3)), (FORB_2K2, matching(2))):
            v = is_critical(fam)
            assert len(v.refutations) == 16
            seen = []
            for fams, k, cert in v.refutations:
                assert canonical_graph(k).rows == canonical_graph(npat).rows
                prod = PartitionProduct(fams)
                assert naive_member(k, prod)
                assert verify_partition_certificate(k, prod, cert)
                seen.append(tuple(f.text() for f in fams))
            assert len(set(seen)) == 16

    def test_scan_order(self):
        ts = criticality_tuples(2)
        assert len(ts) == 16
        texts = [tuple(f.text() for f in t) for t in ts]
        assert texts[:4] == [("M", "C"), ("M", "S"),
                             ("du(C, C)", "C"), ("du(C, C)", "S")]
        assert texts[-1] == ("apex(S)", "S")
        assert len(criticality_tuples(1)) == 8
        assert len(criticality_tuples(3)) == 32
        with pytest.raises(ValidationError):
            criticality_tuples(0)

    def test_menu(self):
        assert [f.text() for f in FIRST_PART_MENU] == [
            "M", "du(C, C)", "du(C, S)", "apex(C)",
            "co(M)", "co(du(C, C))", "co(du(C, S))", "apex(S)"]

    def test_first_witness_in_scan_order(self):
        # matchings are their own first seed, so the witness is (M,)
        v = is_critical(Forb([path(3), complete(3)]))
        assert not v.critical and v.l == 1
        assert [f.text() for f in v.witness] == ["M"]

    def test_json(self):
        v = is_critical(FORB_C5)
        assert v.to_json_obj() == {"critical": False, "l": 2, "s": None,
                                   "n_check": 8, "witness": ["M", "C"]}
        obj = is_critical(FORB_K3).to_json_obj()
        assert obj["critical"] is True and obj["s"] == 0
        assert obj["refutations"][0] == {"tuple": ["M", "C"],
                                         "pattern": "Bw"}
        json.dumps(obj)

    def test_knobs_validated_on_either_side(self):
        # the non-critical side never enumerates, so it checks threads
        # itself; a budget below 1 is refused at the first membership call
        for fam in (FORB_C5, FORB_K3):
            with pytest.raises(ValidationError):
                is_critical(fam, threads=0)
            with pytest.raises(ValidationError):
                is_critical(fam, budget_limit=0)

    def test_repr(self):
        assert "non-critical" in repr(is_critical(FORB_C5))
        assert "s=0" in repr(is_critical(FORB_K3))

    def test_unsupported(self):
        with pytest.raises(UnsupportedOperationError):
            is_critical(ALL)
        with pytest.raises(UnsupportedOperationError):
            is_critical(Forb([K1]))
        with pytest.raises(UnsupportedOperationError):
            is_critical(Iota(complete(2)))


def _star_like_at_horizon(f, n_max=8, s_cap=4):
    """Definitional route: some s makes every member up to n_max an s-star."""
    table = enumerate_family(f, n_max)
    return any(
        all(is_s_star(g, s)
            for n in range(n_max + 1) for g in table.members[n])
        for s in range(s_cap + 1))


class TestLevelOneEquivalence:
    """Critical at chi_c = 1 should coincide with star-likeness."""

    def test_forb_form_families(self):
        cases = [
            (Forb([complete(2)]), True),            # edgeless
            (Forb([edgeless(2)]), True),            # complete
            (Forb([path(3), complete(3)]), False),  # matchings
            (Forb([path(3)]), False),               # cliques, disjointly
        ]
        for fam, expect in cases:
            v = is_critical(fam)
            assert v.l == 1
            assert v.critical is expect
            assert _star_like_at_horizon(fam) is expect

    def test_matchings_not_star_like(self):
        # the minimal core of k disjoint edges has 2k-2 vertices, so no
        # fixed s works; at the horizon s_cap=4 the 4-edge matching fails
        assert not is_s_star(matching(4), 4)
        assert is_s_star(matching(3), 4)

    def test_bounded_hosts(self):
        # iota families are finite, so no seed product (each contains
        # edgeless or complete graphs of every order) fits inside:
        # critical for free, and star-likeness must agree
        for host in (complete(2), cycle(5)):
            fam = Iota(host)
            big_e, big_k = edgeless(host.n + 1), complete(host.n + 1)
            for seed in FIRST_PART_MENU:
                member = (big_e if naive_member(big_e, seed) else big_k)
                assert naive_member(member, seed)
                assert not naive_member(member, fam)
            assert _star_like_at_horizon(fam)


class TestVerifyKpr:
    def test_frozen_fractions(self):
        r = verify_kpr(2, 7)
        assert [row["fraction"] for row in r.rows] == KPR2_FRACS
        assert r.rows[2] == {"n": 3, "total": "7", "covered": "7",
                             "fraction": "1"}
        assert r.verdicts == {"trend_up": False, "trend_pair": [4, 7]}
        assert r.extras["fractions"][6] == Fraction(5177, 5789)
        assert r.extras["fractions"][0] is None

    def test_l3(self):
        r = verify_kpr(3, 6)
        assert [row["fraction"] for row in r.rows] == [
            "1", "1", "1", "1", "1", "13777/13813"]
        # the gap at n=6 is exactly the labelings of the 5-wheel
        assert int(r.rows[5]["total"]) - int(r.rows[5]["covered"]) == 72
        assert r.rows[5]["total"] == "27626"

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("l, n_max", [(2, 9), (3, 7)])
    def test_counts_match_separate_enumerations(self, l, n_max, threads):
        # the two-enumeration route: H(l, 0) enumerated on its own, not
        # read off the K_{l+1}-free classes
        r = verify_kpr(l, n_max, threads=threads)
        sub = enumerate_family(HST(l, 0), n_max, keep_members=False)
        sup = enumerate_family(Forb([complete(l + 1)]), n_max,
                               keep_members=False)
        assert [int(row["covered"]) for row in r.rows] == sub.labeled[1:]
        assert [int(row["total"]) for row in r.rows] == sup.labeled[1:]

    def test_top_level_is_counted(self, monkeypatch):
        # forb(K3) and H(2, 0) list their member children, so the top level
        # is read off the classes below: no augmentation, no membership
        # call and no canonical form at n = 8, and level 7's H(2, 0)
        # verdicts come from its parents' lists, with no membership call
        import hfspeed.enumeration as enumeration
        from hfspeed.families import Family
        forms, levels, decided = [], [], []
        real_form, real_records = (enumeration._canonical_form,
                                   enumeration._child_records)
        real_membership = Family.membership

        def form(g, *rest):
            forms.append(g.n)
            return real_form(g, *rest)

        def records(family, parents, n, *rest):
            levels.append(n)
            return real_records(family, parents, n, *rest)

        def membership(self, g, *rest):
            decided.append(g.n)
            return real_membership(self, g, *rest)

        monkeypatch.setattr(enumeration, "_canonical_form", form)
        monkeypatch.setattr(enumeration, "_child_records", records)
        monkeypatch.setattr(Family, "membership", membership)
        r = verify_kpr(2, 8)
        assert 7 not in levels and max(levels) == 6
        assert forms.count(8) == 0 and decided.count(8) == 0
        assert max(decided) == 6
        assert r.rows[7]["total"] == "4682270"

    def test_listed_top_level_needs_no_budget(self):
        # forb(K3) and H(2, 0) list their member children, so no child is
        # decided by a call and only the empty graph spends a node
        assert verify_kpr(2, 6, budget_limit=1).rows == verify_kpr(2, 6).rows

    @pytest.mark.parametrize("threads", [1, 2])
    def test_top_level_budget_error_names_the_colouring(self, threads):
        # budget 7 lasts through level 4 but not through the colourings of
        # the counted top level, which run in the pool workers at 2 threads
        t = enumerate_family(Forb([complete(4)]), 4, budget_limit=7,
                             threads=threads, within=HST(3, 0))
        assert t.within_labeled == t.labeled
        with pytest.raises(ResourceLimitError) as info:
            verify_kpr(3, 5, budget_limit=7, threads=threads)
        msg = str(info.value)
        assert msg.startswith("H(3, 0) at level 5, graph ")
        assert msg.endswith("membership search exceeded node budget 7")

    def test_budget_error_names_the_colouring(self):
        # budget 7 lasts through forb(K4) to n = 6 (n + 1 nodes per
        # anchored check) but not through every 3-colouring search
        with pytest.raises(ResourceLimitError) as info:
            verify_kpr(3, 6, budget_limit=7)
        assert str(info.value) == ("H(3, 0) at level 5, graph DR[: "
                                   "membership search exceeded node "
                                   "budget 7")
        assert info.value.__cause__ is not None

    def test_validation(self):
        for args in ((1, 8), (4, 8), (2, 3), (2, 11)):
            with pytest.raises(ValidationError):
                verify_kpr(*args)

    def test_report_shape(self):
        r = verify_kpr(2, 4)
        assert set(r.to_json_obj()) == {"experiment", "params", "rows",
                                        "verdicts"}
        assert r.experiment == "kpr" and r.params == {"l": 2, "n_max": 4}
        assert r.runtime >= 0.0
        lines = r.to_csv().splitlines()
        assert lines[0] == "n,total,covered,fraction"
        assert len(lines) == 5


class TestLabeledCounts:
    # _labeled_counts against a whole enumeration, on the listed route
    # (forb(K3), H(2, 0), P(J)) and the unlisted one

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("f, within", [
        (FORB_K3, HST(2, 0)), (HST(2, 0), None),
        (PJFamily(Constellation(edgeless(2), (0, 1), (1, 1), (0, 0))),
         None)])
    def test_listed_route(self, f, within, threads):
        # a counted level 9 of P(J) decides its children for seconds
        n_max = 7 if isinstance(f, PJFamily) else 9
        t = enumerate_family(f, n_max, threads=threads, keep_members=False,
                             within=within)
        got = _labeled_counts(f, n_max, None, threads, within)
        assert got == (t.labeled, t.within_labeled)

    @pytest.mark.parametrize("f, within, n_max", [
        (Forb([complete(4)]), HST(3, 0), 7),
        (PartitionProduct((M, C)), None, 6)])
    def test_unlisted_route(self, f, within, n_max):
        assert f._member_children(()) is None
        t = enumerate_family(f, n_max, keep_members=False, within=within)
        got = _labeled_counts(f, n_max, None, 1, within)
        assert got == (t.labeled, t.within_labeled)

    def test_low_orders(self):
        for n_max in range(3):
            t = enumerate_family(FORB_K3, n_max, keep_members=False,
                                 within=HST(2, 0))
            got = _labeled_counts(FORB_K3, n_max, None, 1, HST(2, 0))
            assert got == (t.labeled, t.within_labeled)

    def test_low_orders_in_the_pool(self):
        # from n_max = 4 on, the counted level n_max - 1 has more than one
        # parent, so its reader runs in the pool workers
        for n_max in range(6):
            t = enumerate_family(FORB_K3, n_max, keep_members=False,
                                 within=HST(2, 0))
            got = _labeled_counts(FORB_K3, n_max, None, 2, HST(2, 0))
            assert got == (t.labeled, t.within_labeled)


class TestVerifyPartitionFraction:
    def test_bipartition_matches_clique_benchmark(self):
        r = verify_partition_fraction(FORB_K3, S, 2, 7)
        assert [row["fraction"] for row in r.rows] == KPR2_FRACS
        assert [row["unique_balanced"] for row in r.rows] == [
            "1", "1/2", "3/7", "19/41", "195/376", "3031/5177",
            "67263/103237"]

    def test_all_parts_cover_everything(self):
        r = verify_partition_fraction(FORB_K3, ALL, 2, 5)
        assert all(row["fraction"] == "1" for row in r.rows)
        assert [row["unique_balanced"] for row in r.rows] == [
            "1", "0", "0", "0", "0"]

    def test_spots_replay(self):
        r = verify_partition_fraction(FORB_K3, S, 2, 6)
        spots = r.verdicts["spots"]
        assert [s["n"] for s in spots] == [1, 2, 3, 4, 5, 6]
        for spot in spots:
            g = graph6.decode(spot["graph"])
            parts = spot["parts"]
            assert sorted(v for p in parts for v in p) == list(range(g.n))
            assert len(parts) == 2
            for p in parts:
                assert all(not g.rows[u] >> v & 1 for u in p for v in p)
            assert not brute_embeds_induced(complete(3), g)

    def test_budget_error_names_product_level_and_graph(self):
        # the enumeration of forb(K3) lists its children and spends no
        # node, so budgets 1-47 all run out in a partition walk
        for b in range(1, 48):
            with pytest.raises(ResourceLimitError) as info:
                verify_partition_fraction(FORB_K3, S, 2, 5, budget_limit=b)
            msg = str(info.value)
            assert msg.startswith("P(S, S) at level "), (b, msg)
            assert ", graph " in msg and info.value.__cause__ is not None
            assert msg.endswith(f": membership search exceeded node budget "
                                f"{b}")
        r = verify_partition_fraction(FORB_K3, S, 2, 5, budget_limit=48)
        assert [row["fraction"] for row in r.rows] == KPR2_FRACS[:5]

    def test_validation(self):
        with pytest.raises(ValidationError):
            verify_partition_fraction(FORB_K3, Apex(C), 2, 5)
        with pytest.raises(ValidationError):
            verify_partition_fraction(FORB_K3, S, 0, 5)
        with pytest.raises(ValidationError):
            verify_partition_fraction(FORB_K3, S, 2, 11)
        for eps in (0, 1, Fraction(3, 2), -1):
            with pytest.raises(ValidationError):
                verify_partition_fraction(FORB_K3, S, 2, 5, eps=eps)

    def test_params_record_eps(self):
        r = verify_partition_fraction(FORB_K3, S, 2, 4, eps=Fraction(1, 3))
        assert r.params["eps"] == "1/3"
        assert r.params["part_family"] == "S"


class TestVerifyConstellationCover:
    def test_triangle_free(self):
        r = verify_constellation_cover(FORB_K3, 2, 0, 7)
        sel = r.extras["selected"]
        assert len(sel) == 1 and sel[0].beta == (0, 0)
        assert [row["fraction"] for row in r.rows] == KPR2_FRACS
        assert r.verdicts["selected"] == 1

    def test_selection_rule(self):
        # selected iff no forbidden pattern lies in the constellation's
        # family; recheck both sides of the cut
        r = verify_constellation_cover(FORB_K3, 2, 0, 4)
        selected = {c.canonical_key() for c in r.extras["selected"]}
        for c in generate_constellations(2, 0):
            fits = not is_member_PJ(complete(3), c).member
            assert (c.canonical_key() in selected) is fits

    def test_selection_budget_error_names_pj_level_and_graph(self):
        with pytest.raises(ResourceLimitError) as info:
            verify_constellation_cover(FORB_K3, 2, 0, 6, budget_limit=1)
        assert str(info.value).startswith("pj(?;;;11) at level 3, graph Bw: ")

    def test_pair_of_edges(self):
        r = verify_constellation_cover(FORB_2K2, 2, 0, 7)
        sel = r.extras["selected"]
        assert len(sel) == 1 and sorted(sel[0].beta) == [0, 1]
        assert [row["fraction"] for row in r.rows] == [
            "1", "1", "1", "58/61", "316/417", "4827/9629",
            "202484/711359"]
        assert r.verdicts["trend_up"] is False

    def test_three_parts(self):
        r = verify_constellation_cover(Forb([complete(4)]), 3, 0, 5)
        sel = r.extras["selected"]
        assert len(sel) == 1 and sel[0].beta == (0, 0, 0)
        assert all(row["fraction"] == "1" for row in r.rows)

    def test_fractions_bounded(self):
        r = verify_constellation_cover(FORB_2K2, 2, 0, 6)
        assert all(0 <= f <= 1 for f in r.extras["fractions"][1:])

    def test_c5_free_one_vertex_fibers(self, monkeypatch):
        # rows, verdicts and the selected set are the same whatever the
        # generation order; only params.selected follows that order.  The
        # constellations cost one gadget form per assembly with cross
        # pairs, and no canonical key
        forms = []
        gadget = stars._gadget_form
        monkeypatch.setattr(stars, "_gadget_form",
                            lambda *a: forms.append(a) or gadget(*a))

        def no_key(self):
            raise AssertionError("canonical_key called")
        monkeypatch.setattr(Constellation, "canonical_key", no_key)
        r = verify_constellation_cover(FORB_C5, 2, 1, 6)
        assert len(forms) == 3
        assert [(row["n"], row["total"], row["covered"], row["fraction"])
                for row in r.rows] == [
            (1, "1", "1", "1"), (2, "2", "2", "1"), (3, "8", "8", "1"),
            (4, "64", "64", "1"), (5, "1012", "1012", "1"),
            (6, "30824", "30824", "1")]
        assert r.verdicts == {"selected": 7, "trend_pair": [3, 6],
                              "trend_up": False}
        sel = [c.to_json() for c in r.extras["selected"]]
        assert [json.dumps(c, sort_keys=True, separators=(",", ":"))
                for c in r.params["selected"]] == sel
        assert sorted(sel) == [
            '{"alpha":[0,0],"beta":[1,1],"j":"A?","phi":[0,1]}',
            '{"alpha":[0],"beta":[1,1],"j":"@","phi":[1]}',
            '{"alpha":[1,1],"beta":[0,0],"j":"A_","phi":[0,1]}',
            '{"alpha":[1],"beta":[0,0],"j":"@","phi":[1]}',
            '{"alpha":[],"beta":[0,0],"j":"?","phi":[]}',
            '{"alpha":[],"beta":[1,0],"j":"?","phi":[]}',
            '{"alpha":[],"beta":[1,1],"j":"?","phi":[]}']

    def test_validation(self):
        with pytest.raises(UnsupportedOperationError):
            verify_constellation_cover(ALL, 2, 0, 5)
        with pytest.raises(ValidationError):
            verify_constellation_cover(FORB_K3, 2, 0, 11)


DOM = StarSystem(K1, (1,), 0)


class TestVerifyStarSpeed:
    def test_dominating_apex(self):
        r = verify_star_speed(DOM, 1, 12, n_min=6)
        assert [row["labeled"] for row in r.rows] == [
            "1", "2", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13"]
        assert all(row["bench_labeled"] == "1" for row in r.rows)
        # counts are n+1 from n=3 on, so the drift over [6,12] is exactly
        # log2(7/6) - log2(13/12): an independent closed form
        want = math.log2(Fraction(7, 6)) - math.log2(Fraction(13, 12))
        assert r.verdicts["drift_bits"] == pytest.approx(want, abs=1e-12)
        assert r.verdicts["within_tolerance"] is True
        assert r.verdicts["window"] == [6, 12] and r.verdicts["k"] == 1

    def test_default_window_is_top_half(self):
        r = verify_star_speed(DOM, 1, 12)
        assert r.verdicts["window"] == [7, 12]
        want = math.log2(Fraction(8, 7)) - math.log2(Fraction(13, 12))
        assert r.verdicts["drift_bits"] == pytest.approx(want, abs=1e-12)

    def test_empty_core_is_the_benchmark(self):
        r = verify_star_speed(Constellation(K0, (), (), (0, 0)), 2, 8)
        assert r.verdicts["drift_bits"] == 0.0
        assert all(row["delta_bits"] == 0.0 for row in r.rows)
        r1 = verify_star_speed(Constellation(K0, (), (), (0,)), 1, 8)
        assert r1.verdicts["drift_bits"] == 0.0
        assert r1.verdicts["window"] == [5, 8]

    def test_empty_core_enumerates_each_family_once(self, monkeypatch):
        import hfspeed.enumeration as enumeration
        seen = []
        real = enumeration._enumerate

        def counting(f, n_max, *rest):
            seen.append(f.text())
            return real(f, n_max, *rest)

        monkeypatch.setattr(enumeration, "_enumerate", counting)
        r = verify_star_speed(Constellation(K0, (), (), (0, 0)), 2, 6)
        assert seen == ["H(2, 0)"]
        split = Constellation(K0, (), (), (0, 1))
        r = verify_star_speed(split, 2, 6)
        assert seen[1:] == ["pj(?;;;01)", "H(2, 0)"]
        want = enumerate_family(PJFamily(split), 6).labeled
        assert [row["labeled"] for row in r.rows] == [str(x) for x in want[1:]]

    def test_listing_spends_no_budget(self):
        # P(J) and H(2, 0) list their member children, so no child is
        # decided by a call and only the empty graph spends a node
        two = Constellation(edgeless(2), (0, 1), (1, 1), (0, 0))
        r = verify_star_speed(two, 2, 7, budget_limit=1)
        assert r.to_json_obj() == verify_star_speed(two, 2, 7).to_json_obj()

    def test_residual_at_one(self):
        r = verify_star_speed(DOM, 1, 6)
        assert r.rows[0]["delta_bits"] == r.rows[0]["residual_bits"]

    def test_validation(self):
        with pytest.raises(ValidationError):
            verify_star_speed(DOM, 1, 13)
        with pytest.raises(ValidationError):
            verify_star_speed(DOM, 2, 8)
        with pytest.raises(ValidationError):
            verify_star_speed(DOM, 1, 8, n_min=8)
        with pytest.raises(ValidationError):
            verify_star_speed(StarSystem(K1, (0,), 0), 1, 8)  # reducible
        with pytest.raises(ValidationError):
            verify_star_speed(
                Constellation(K0, (), (), (0, 0)), 2, 11)
        with pytest.raises(ValidationError):
            verify_star_speed(K1, 1, 8)  # neither system nor constellation

    def test_params(self):
        r = verify_star_speed(DOM, 1, 6)
        assert r.params["k"] == 1 and r.params["l"] == 1
        assert r.params["system"] == DOM.as_constellation().to_json_obj()


class TestReportMechanics:
    def test_runtime_and_extras_not_serialized(self):
        r = verify_kpr(2, 5)
        assert r.runtime > 0.0
        obj = r.to_json_obj()
        assert "runtime" not in json.dumps(obj)
        assert "extras" not in obj
        assert r.extras["fractions"][3] == 1

    def test_bit_reproducible(self):
        dump = lambda rep: json.dumps(rep.to_json_obj(), sort_keys=True)
        assert dump(verify_kpr(2, 6)) == dump(verify_kpr(2, 6, threads=2))
        a = verify_partition_fraction(FORB_K3, S, 2, 5)
        b = verify_partition_fraction(FORB_K3, S, 2, 5)
        assert dump(a) == dump(b) and a.to_csv() == b.to_csv()
        c1 = verify_constellation_cover(FORB_2K2, 2, 0, 5)
        c2 = verify_constellation_cover(FORB_2K2, 2, 0, 5, threads=2)
        assert dump(c1) == dump(c2)

    def test_csv_quoting(self):
        r = ExperimentReport("x", {}, [{"a": "p,q", "b": None}], {})
        assert r.to_csv() == 'a,b\n"p,q",\n'
        assert ExperimentReport("x", {}, [], {}).to_csv() == "\n"

    def test_star_rows_floats(self):
        r = verify_star_speed(DOM, 1, 6)
        cells = r.to_csv().splitlines()[3].split(",")
        assert cells[3] == repr(r.rows[2]["delta_bits"])
