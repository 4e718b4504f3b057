import pickle

import pytest

from hfspeed.canon import canonical_graph
from hfspeed.enumeration import enumerate_family, SpeedTable
from hfspeed.errors import (
    CapacityError, ResourceLimitError, UnsupportedOperationError,
    ValidationError,
)
from hfspeed.families import (
    ALL, C, Forb, HST, Iota, M, PartitionProduct, S, family_contains,
)
from hfspeed.graphs import (
    complement, complete, cycle, delete_vertex, edgeless, matching, path,
    star,
)
from hfspeed.structure import (
    ApexFreeResult, ColoringNumberResult, MeagerResult,
    ReducedClassification, ReducedFamily,
    coloring_number, enumerate_reduced, is_apex_free, is_balanced,
    is_extendable_upto, is_meager, is_reduced, reduced_product,
    smoothness_report, substar,
)
from oracles import all_labeled_graphs, naive_member, verify_partition_certificate


def brute_chi_c(patterns, l_cap=6):
    """max l with some H(s, l-s) free of all patterns, via the naive engine."""
    best = None
    for l in range(l_cap + 1):
        if any(all(not naive_member(k, HST(s, l - s)) for k in patterns)
               for s in range(l + 1)):
            best = l
        else:
            return best
    raise AssertionError("cap hit")


class TestColoringNumber:
    def test_contract_examples(self):
        r = coloring_number(Forb([complete(3)]))
        assert (r.l, r.witness_s) == (2, 2)
        r = coloring_number(Forb([complete(2)]))
        assert (r.l, r.witness_s) == (1, 1)
        r = coloring_number(Forb([matching(2)]))
        assert (r.l, r.witness_s) == (2, 1)

    def test_complete_patterns(self):
        for m in range(2, 6):
            assert coloring_number(Forb([complete(m)])).l == m - 1

    def test_edge_cases(self):
        assert coloring_number(ALL).l == float("inf")
        r = coloring_number(Forb([complete(1)]))
        assert (r.l, r.witness_s) == (0, 0)

    @pytest.mark.parametrize("patterns", [
        [complete(3)], [matching(2)], [cycle(5)], [path(4)], [complete(2)],
        [star(3)], [path(3), complete(3)], [cycle(4)],
        [complete(4), matching(2)], [path(4), cycle(4)],
    ], ids=lambda ps: "+".join(repr(p.n) for p in ps))
    def test_against_naive_oracle(self, patterns):
        assert coloring_number(Forb(patterns)).l == brute_chi_c(patterns)

    @pytest.mark.parametrize("fam", [
        Forb([complete(3)]), Forb([matching(2)]), Forb([cycle(5)]),
    ], ids=lambda f: f.text())
    def test_result_reverifies(self, fam):
        r = coloring_number(fam)
        ok, _ = family_contains(HST(r.witness_s, r.l - r.witness_s), fam)
        assert ok
        for s in range(r.l + 2):
            ok, witness = family_contains(HST(s, r.l + 1 - s), fam)
            assert not ok and witness is not None
        # one refutation per level-(l+1) shape, each certificate replays
        assert [s for s, _, _ in r.refutations] == list(range(r.l + 2))
        for s, idx, cert in r.refutations:
            assert verify_partition_certificate(
                fam.patterns[idx], HST(s, r.l + 1 - s), cert)

    def test_rejects_wrong_forms(self):
        with pytest.raises(UnsupportedOperationError):
            coloring_number(HST(2, 0))
        with pytest.raises(ValidationError):
            coloring_number(Forb([edgeless(0)]))

    def test_budget_propagates(self):
        with pytest.raises(ResourceLimitError):
            coloring_number(Forb([complete(4)]), budget_limit=1)

    def test_budget_error_names_family_level_and_graph(self):
        with pytest.raises(ResourceLimitError) as info:
            coloring_number(Forb([complete(4)]), budget_limit=1)
        assert str(info.value) == ("H(0, 2) at level 4, graph C~: membership "
                                   "search exceeded node budget 1")
        assert info.value.__cause__ is not None


class TestIsReduced:
    def test_contract_examples(self):
        f3 = Forb([complete(3)])
        for m in range(5):
            assert is_reduced(edgeless(m), f3, 2).reduced
        rc = is_reduced(complete(2), f3, 2)
        assert not rc.reduced and len(rc.violations) == 2
        f22 = Forb([matching(2)])
        assert not is_reduced(path(3), f22, 2).reduced
        for m in range(2, 6):
            rc = is_reduced(complete(m), f22, 2)
            assert rc.reduced and rc.witness_s == 1

    def test_violations_reverify(self):
        rc = is_reduced(complete(2), Forb([complete(3)]), 2)
        for s, idx, cert in rc.violations:
            prod = reduced_product(complete(2), s, 1)
            assert verify_partition_certificate(complete(3), prod, cert)

    def test_witness_reverifies_by_containment(self):
        f22 = Forb([matching(2)])
        rc = is_reduced(complete(4), f22, 2)
        ok, _ = family_contains(reduced_product(complete(4), rc.witness_s, 1),
                                f22)
        assert ok

    @pytest.mark.parametrize("fam,l", [
        (Forb([complete(3)]), 2),
        (Forb([matching(2)]), 2),
        (Forb([cycle(5)]), 2),
        (Forb([complete(2)]), 1),
    ], ids=lambda x: x.text() if hasattr(x, "text") else str(x))
    def test_against_naive_oracle(self, fam, l):
        for n in range(4):
            for h in all_labeled_graphs(n):
                expected = any(
                    all(not naive_member(
                            k, PartitionProduct(
                                [Iota(h)] + [S] * s + [C] * (l - 1 - s)))
                        for k in fam.patterns)
                    for s in range(l))
                assert is_reduced(h, fam, l).reduced == expected

    def test_budget_error_names_family_level_and_graph(self):
        with pytest.raises(ResourceLimitError) as info:
            is_reduced(cycle(5), Forb([cycle(5)]), 2, budget_limit=3)
        assert str(info.value).startswith(
            "P(iota(C5), C) at level 5, graph Dhc: ")

    def test_nonmember_is_dangerous(self):
        assert not is_reduced(complete(3), Forb([complete(3)]), 2).reduced

    def test_l_one_reduces_to_membership(self):
        f = Forb([complete(2)])
        assert is_reduced(edgeless(3), f, 1).reduced
        assert not is_reduced(path(2), f, 1).reduced

    def test_validation(self):
        with pytest.raises(ValidationError):
            is_reduced(edgeless(1), Forb([complete(3)]), 0)
        with pytest.raises(UnsupportedOperationError):
            is_reduced(edgeless(1), HST(2, 0), 2)


class TestEnumerateReduced:
    def test_red_of_triangle_free_is_edgeless(self):
        t = enumerate_reduced(Forb([complete(3)]), 2, 6)
        assert t.unlabeled == [1] * 7
        assert t.labeled == [1] * 7
        for n in range(7):
            assert t.members[n] == [edgeless(n)]

    def test_red_of_2k2_free_is_cliques_and_edgeless(self):
        # s=0 excludes 2K2 exactly when h is edgeless, s=1 exactly when h
        # is complete, so red(F) = S union C at every order
        t = enumerate_reduced(Forb([matching(2)]), 2, 6)
        assert t.unlabeled == [1, 1, 2, 2, 2, 2, 2]
        for n in range(2, 7):
            assert edgeless(n) in t.members[n]
            assert complete(n) in t.members[n]

    def test_matches_filter_route(self):
        fam = Forb([matching(2)])
        t = enumerate_reduced(fam, 2, 4)
        everything = enumerate_family(ALL, 4)
        for n in range(5):
            keep = [g for g in everything.members[n]
                    if is_reduced(g, fam, 2).reduced]
            assert t.members[n] == keep

    def test_heredity_verification_runs(self):
        # default-on verifier walks all one-vertex deletions without raising
        enumerate_reduced(Forb([cycle(5)]), 2, 5)

    @pytest.mark.parametrize("fam,bad", [
        (Forb([matching(2)]), complete(3)),
        (Forb([cycle(5)]), path(3)),
    ], ids=["K3-in-red(forb(2K2))", "P3-in-red(forb(C5))"])
    def test_heredity_failure_raises(self, fam, bad, monkeypatch):
        # the re-check deletes one vertex per Aut orbit; a class called
        # dangerous must still be met whichever vertex of it is deleted
        import hfspeed.structure as structure
        real = structure.is_reduced
        key = canonical_graph(bad)
        hits = []

        def one_class_dangerous(h, f, l, budget_limit=None):
            if canonical_graph(h) == key:
                hits.append(h)
                return ReducedClassification(h, False, None, ())
            return real(h, f, l, budget_limit)

        monkeypatch.setattr(structure, "is_reduced", one_class_dangerous)
        with pytest.raises(RuntimeError, match="heredity"):
            enumerate_reduced(fam, 2, 5)
        assert len(hits) == 1

    def test_heredity_recheck_runs_once_per_vertex_orbit(self, monkeypatch):
        # red(forb(2K2)) is edgeless(n) and K_n from n = 2 on, one orbit
        # each: 1 + 2 * 9 calls to n = 10, where every vertex made 109
        import hfspeed.structure as structure
        real = structure.is_reduced
        calls = []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(structure, "is_reduced", counted)
        enumerate_reduced(Forb([matching(2)]), 2, 10)
        assert len(calls) == 19

    def test_reduced_family_object(self):
        fam = ReducedFamily(Forb([matching(2)]), 2)
        assert fam.text() == "red(forb(2K2))"
        assert fam.hereditary
        assert fam.contains(complete(3))
        assert not fam.contains(path(3))
        back = pickle.loads(pickle.dumps(fam))
        assert back == fam and back.contains(complete(3))
        with pytest.raises(ValidationError):
            ReducedFamily(HST(2, 0), 2)


class TestApexFree:
    def test_contract_examples(self):
        assert is_apex_free(Forb([complete(3)]), 2).apex_free
        assert is_apex_free(Forb([complete(2)]), 1).apex_free
        # P4 is two adjacent K2 parts, so it sits in H(0,2) and every
        # s has a witness; dang(Forb(C5)) holds the substar P3 and the
        # antisubstar co(K2+K1) = P3, so the definition agrees
        assert is_apex_free(Forb([cycle(5)]), 2).apex_free

    def test_c5_definitional_route(self):
        # dang(Forb(C5)) holds a substar and an antisubstar, the original
        # definition of apex-freeness: K_{1,2} plus an isolate works on
        # both sides (P3 alone does not: C5 minus two nonadjacent vertices
        # is K2+K1, which P3 has no room for)
        f = Forb([cycle(5)])
        assert is_reduced(path(3), f, 2).reduced
        g = substar(2, 1)
        assert f.contains(g) and f.contains(complement(g))
        assert not is_reduced(g, f, 2).reduced
        assert not is_reduced(complement(g), f, 2).reduced

    def test_witnesses_reverify(self):
        f = Forb([cycle(5)])
        r = is_apex_free(f, 2)
        assert [s for s, _, _, _ in r.witnesses] == [0, 1, 2]
        for s, idx, u, cert in r.witnesses:
            assert verify_partition_certificate(
                delete_vertex(f.patterns[idx], u), HST(s, 2 - s), cert)

    def test_failure_reports_first_s(self):
        # K2 minus a vertex is K1, absent from H(0,0)={K0} only; at l=0
        # the single shape is H(0,0), so the scan fails immediately
        r = is_apex_free(Forb([complete(2)]), 0)
        assert not r.apex_free and r.failed_s == 0

    @pytest.mark.parametrize("fam,l,cap", [
        (Forb([complete(3)]), 2, 4),
        (Forb([matching(2)]), 2, 5),
        (Forb([cycle(5)]), 2, 6),
    ], ids=lambda x: x.text() if hasattr(x, "text") else str(x))
    def test_against_direct_bounded_search(self, fam, l, cap):
        hosts = enumerate_family(ALL, cap)
        r = is_apex_free(fam, l)
        for s in range(l + 1):
            direct = any(
                not fam.contains(h) and any(
                    HST(s, l - s).contains(delete_vertex(h, u))
                    for u in range(h.n))
                for n in range(cap + 1) for h in hosts.members[n])
            if r.apex_free or s < r.failed_s:
                assert direct
            elif s == r.failed_s:
                assert not direct

    def test_rejects_wrong_form(self):
        with pytest.raises(UnsupportedOperationError):
            is_apex_free(HST(2, 0), 2)


class TestMeager:
    def test_edgeless_family(self):
        r = is_meager(S)
        assert r.meager is True
        assert r.substar_witness == complete(2)
        assert not S.contains(r.substar_witness)
        assert not S.contains(r.antisubstar_witness)

    def test_matchings(self):
        r = is_meager(M)
        assert r.meager is True
        assert not M.contains(r.substar_witness)
        assert not M.contains(r.antisubstar_witness)

    def test_all_graphs_unknown(self):
        for cap in (2, 5, 8):
            assert is_meager(ALL, cap=cap).meager is None

    def test_split_graphs_unknown(self):
        # every substar is a split graph (leaves plus isolates independent,
        # center a clique), and split graphs are complement-closed, so no
        # witness can exist on either side at any cap
        h11 = HST(1, 1)
        for total in range(7):
            for j in range(total + 1):
                g = substar(j, total - j)
                assert h11.contains(g)
                assert h11.contains(complement(g))
        assert is_meager(h11, cap=6).meager is None

    def test_triangle_free_unknown(self):
        # stars are bipartite, so the substar side never finds a witness
        r = is_meager(Forb([complete(3)]), cap=5)
        assert r.meager is None
        assert r.substar_witness is None
        assert r.antisubstar_witness is not None

    def test_substar_shape(self):
        g = substar(2, 2)
        assert g.n == 5
        assert sorted(g.degrees()) == [0, 0, 1, 1, 2]


class TestExtendable:
    def test_contract_examples(self):
        assert is_extendable_upto(C, 8).extendable
        assert is_extendable_upto(Forb([complete(2)]), 8).extendable
        r = is_extendable_upto(Iota(complete(3)), 8)
        assert not r.extendable
        assert r.failing == complete(3)

    def test_cap(self):
        with pytest.raises(CapacityError):
            is_extendable_upto(C, 9)

    def test_bipartite(self):
        assert is_extendable_upto(HST(2, 0), 6).extendable


class TestSmoothness:
    def test_bipartite_table(self):
        t = enumerate_family(HST(2, 0), 8, keep_members=False)
        rep = smoothness_report(t, 2, 0.1)
        assert rep.rows[0] == (1, False)
        assert all(ok for n, ok in rep.rows if n >= 2)
        assert rep.all_ok_from() == 2
        assert rep.to_json_obj()["last_violation"] == 1

    def test_degenerate_l1(self):
        t = enumerate_family(Forb([complete(2)]), 6, keep_members=False)
        rep = smoothness_report(t, 1, 0.5)
        assert all(ok for _, ok in rep.rows)
        assert rep.last_violation is None

    def test_exact_boundary(self):
        # slope (2/3 - 1/6) * n hits exactly 1 bit at n = 2: equality passes,
        # one less labeled graph fails
        t_eq = SpeedTable("synthetic", 2, [1, 1, 1], [1, 4, 8])
        t_lt = SpeedTable("synthetic", 2, [1, 1, 1], [1, 4, 7])
        from fractions import Fraction
        assert smoothness_report(t_eq, 3, Fraction(1, 6)).rows[1] == (2, True)
        assert smoothness_report(t_lt, 3, Fraction(1, 6)).rows[1] == (2, False)

    def test_empty_levels_pass_trivially(self):
        t = SpeedTable("synthetic", 2, [1, 0, 0], [1, 0, 0])
        rep = smoothness_report(t, 2, 0.1)
        assert rep.rows == [(1, False), (2, True)]

    def test_validation(self):
        t = SpeedTable("synthetic", 1, [1, 1], [1, 1])
        with pytest.raises(ValidationError):
            smoothness_report(t, 0, 0.1)
        with pytest.raises(ValidationError):
            smoothness_report(t, 2, 0)


class TestBalanced:
    def test_contract_examples(self):
        assert is_balanced([5, 5], 0.5)
        assert not is_balanced([1, 9], 0.5)
        assert is_balanced([4, 6], 0.5)

    def test_exact_boundary(self):
        # n=16, k=2, eps=1/2: the bound n**(1-eps) = 4 is hit exactly
        assert is_balanced([4, 12], 0.5)
        assert not is_balanced([3, 13], 0.5)

    def test_partition_certificate_input(self):
        res = HST(2, 0).membership(cycle(6))
        assert res.member
        assert is_balanced(res.certificate, 0.5)

    def test_edge_cases(self):
        assert is_balanced([], 0.5)
        assert is_balanced([0, 0], 0.5)

    def test_validation(self):
        for bad in (0, 1, -0.5, 1.5):
            with pytest.raises(ValidationError):
                is_balanced([5, 5], bad)
        with pytest.raises(ValidationError):
            is_balanced([-1, 3], 0.5)


class TestResultReprs:
    def test_reprs_do_not_crash(self):
        r = coloring_number(Forb([complete(3)]))
        assert "witness_s=2" in repr(r)
        assert repr(is_apex_free(Forb([complete(3)]), 2))
        assert "unknown" in repr(is_meager(ALL, cap=2))
        assert repr(is_extendable_upto(C, 4))
        assert isinstance(r.to_json_obj()["chi_c"], int)
        assert coloring_number(ALL).to_json_obj()["chi_c"] == "infinity"
