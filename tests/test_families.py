from __future__ import annotations

import hashlib

import pytest

import hfspeed as hf
from hfspeed import graph6, parse_family
from hfspeed.enumeration import FORMAT_VERSION, enumerate_family
from hfspeed.errors import (
    ResourceLimitError, UnsupportedOperationError, ValidationError,
)
from hfspeed.families import (
    ALL, DEFAULT_NODE_BUDGET, Apex, Budget, C, ComplementFamily,
    DisjointUnionFam, Forb, HST, IntersectionFam, Iota, JoinFam,
    M, PartitionCertificate, PartitionProduct, S, UnionFam, family_contains,
    graph_from_name, graph_name,
)
from hfspeed.graphs import (
    Graph, add_vertex, bits, complete, cycle, edgeless, induced_subgraph,
    matching, path, star,
)
from hfspeed.stars import Constellation, PJFamily, StarSystem
from hfspeed.structure import ReducedFamily
from oracles import (
    all_labeled_graphs, count_partitions, naive_member,
    verify_partition_certificate,
)


def battery():
    """One family per constructor, plus a few composites."""
    return [
        S, C, M, ALL,
        Forb([complete(3)]),
        Forb([path(4), matching(2)]),
        HST(2, 0), HST(1, 1), HST(0, 2), HST(2, 1),
        PartitionProduct([M, S]),
        PartitionProduct([M, C]),
        PartitionProduct([Iota(path(4)), S]),
        Iota(cycle(5)),
        Apex(C),
        ComplementFamily(M),
        DisjointUnionFam(C, C),
        JoinFam(S, S),
        UnionFam(S, C),
        IntersectionFam(HST(2, 0), Forb([cycle(4)])),
    ]


class TestEngineAgainstNaiveOracle:
    @pytest.mark.parametrize("fam", battery(), ids=lambda f: f.text())
    def test_all_graphs_up_to_4(self, fam):
        for n in range(5):
            for g in all_labeled_graphs(n):
                assert fam.contains(g) == naive_member(g, fam), \
                    f"{fam.text()} disagrees on {g!r}"

    @pytest.mark.parametrize("fam", [
        HST(2, 1), PartitionProduct([M, S]), Apex(C),
        DisjointUnionFam(C, S), Forb([complete(3)]),
    ], ids=lambda f: f.text())
    def test_all_graphs_at_5(self, fam):
        for g in all_labeled_graphs(5):
            assert fam.contains(g) == naive_member(g, fam)


class TestContractExamples:
    def test_c5_in_p_m_s_but_not_p_m_c(self):
        c5 = cycle(5)
        res = PartitionProduct([M, S]).membership(c5)
        assert res.member
        assert verify_partition_certificate(c5, PartitionProduct([M, S]),
                                            res.certificate)
        assert not PartitionProduct([M, C]).contains(c5)

    def test_bipartite(self):
        assert HST(2, 0).contains(cycle(6))
        assert not HST(2, 0).contains(cycle(5))
        assert HST(2, 1).contains(cycle(5))

    def test_split_graphs(self):
        # H(1,1) = split graphs; C4 and C5 are the classic non-members
        assert not HST(1, 1).contains(cycle(4))
        assert not HST(1, 1).contains(cycle(5))
        assert HST(1, 1).contains(path(4))

    def test_forb_witness_checks_out(self):
        res = Forb([complete(3)]).membership(complete(4))
        assert not res.member
        kind, idx, eta = res.certificate
        assert kind == "pattern" and idx == 0
        assert induced_subgraph(complete(4), eta) == complete(3)

    def test_iota(self):
        assert Iota(path(4)).contains(path(3))
        assert Iota(path(4)).contains(edgeless(2))
        assert not Iota(path(4)).contains(complete(3))
        assert Iota(path(4)).contains(edgeless(0))

    def test_apex(self):
        assert Apex(C).contains(path(3))       # drop an endpoint
        assert Apex(C).contains(complete(4))
        assert not Apex(C).contains(cycle(5))
        assert not Apex(C).contains(edgeless(0))  # no vertex to remove

    def test_atoms_contain_k0(self):
        k0 = edgeless(0)
        for fam in (S, C, M, ALL, HST(0, 0)):
            assert fam.contains(k0)

    def test_hst00_is_only_k0(self):
        assert not HST(0, 0).contains(edgeless(1))

    def test_complement_family(self):
        assert ComplementFamily(S).contains(complete(4))
        assert not ComplementFamily(S).contains(path(3))

    def test_du_join(self):
        assert DisjointUnionFam(C, C).contains(
            hf.disjoint_union(complete(3), complete(2)))
        assert not DisjointUnionFam(C, C).contains(
            hf.disjoint_union(complete(2), matching(2)))
        assert JoinFam(S, S).contains(cycle(4))  # C4 = E2 join E2
        assert not JoinFam(S, S).contains(cycle(5))


class TestCertificates:
    def test_hst_certificates_verify(self):
        fam = HST(2, 1)
        for g in all_labeled_graphs(5):
            res = fam.membership(g)
            if res.member:
                assert isinstance(res.certificate, PartitionCertificate)
                assert verify_partition_certificate(g, fam, res.certificate)
            else:
                assert res.certificate is None
                assert res.transcript_hash is not None

    def test_partition_product_certificates_verify(self):
        fam = PartitionProduct([M, S])
        for g in all_labeled_graphs(5):
            res = fam.membership(g)
            if res.member:
                assert verify_partition_certificate(g, fam, res.certificate)

    def test_transcript_hash_is_reproducible(self):
        r1 = HST(2, 0).membership(cycle(5))
        r2 = HST(2, 0).membership(cycle(5))
        assert r1.transcript_hash == r2.transcript_hash

    def test_transcript_hash_matches_eager_formula(self):
        # hex values as computed eagerly, before the hash became lazy
        cases = [
            (Forb([complete(3)]), cycle(5),
             "1a08bc1c0c9718fe1a1b06c65f6831d6b40a04fad65c50edabc45c70e855dd1c"),
            (HST(2, 0), cycle(5),
             "1653c4999743ce24e9d0b047779d384f4e46ea8d0d560e9410a107c2c76c1088"),
        ]
        for fam, g, pinned in cases:
            res = fam.membership(g)
            assert res.certificate is None
            blob = f"{fam.text()}|{graph6.encode(g)}|{res.nodes}"
            assert res.transcript_hash == hashlib.sha256(blob.encode()).hexdigest()
            assert res.transcript_hash == pinned

    def test_nodes_accounted(self):
        res = HST(2, 1).membership(cycle(5))
        assert res.nodes > 0


class TestPartitionWalk:
    """The product walk's leaves against an independent partition count."""

    @pytest.mark.parametrize("l", [1, 2, 3])
    @pytest.mark.parametrize("part", [S, C, M, ALL, DisjointUnionFam(C, S)],
                             ids=lambda f: f.text())
    def test_leaves_match_oracle_count(self, part, l):
        prod = PartitionProduct((part,) * l)
        table = enumerate_family(ALL, 6, keep_members=True)
        for n in range(7):
            for g in table.members[n]:
                leaves = prod._partitions(g, Budget(), 2)
                assert len(leaves) == min(2, count_partitions(g, part, l)), \
                    f"{prod.text()} on {graph6.encode(g)}"
                res = prod.membership(g)
                assert res.member == bool(leaves)
                if leaves:
                    assert [tuple(bits(m)) for m in leaves[0][0]] == \
                        list(res.certificate.parts)


class TestBudget:
    def test_limit_none_is_default_and_below_one_refused(self):
        assert Budget().limit == Budget(None).limit == DEFAULT_NODE_BUDGET
        assert Budget(1).limit == 1
        for bad in (0, -1):
            with pytest.raises(ValidationError):
                Budget(bad)

    def test_budget_exhaustion_raises(self):
        g = cycle(9)
        with pytest.raises(ResourceLimitError):
            PartitionProduct([Forb([complete(3)]), S, S]).membership(
                g, Budget(3))

    def test_budget_is_never_a_wrong_answer(self):
        fam = HST(2, 1)
        for g in all_labeled_graphs(4):
            try:
                res = fam.membership(g, Budget(10))
            except ResourceLimitError:
                continue
            assert res.member == naive_member(g, fam)


class TestIncrementalMembership:
    @pytest.mark.parametrize("fam", [
        Forb([complete(3)]),
        Forb([path(4), matching(2)]),
        HST(2, 0),
    ], ids=lambda f: f.text())
    def test_new_vertex_only_agrees_on_extensions(self, fam):
        # whenever the parent is a member, the anchored check must agree
        # with the full one on every one-vertex extension
        for n in range(5):
            for g in all_labeled_graphs(n):
                if not fam.contains(g):
                    continue
                for sub in range(1 << n):
                    child = add_vertex(g, sub)
                    fast = fam.membership(child, new_vertex_only=True).member
                    full = fam.membership(child).member
                    assert fast == full


class TestFamilyContains:
    def test_bipartite_inside_triangle_free(self):
        ok, witness = family_contains(HST(2, 0), Forb([complete(3)]))
        assert ok and witness is None

    def test_all_is_not_triangle_free(self):
        ok, witness = family_contains(ALL, Forb([complete(3)]))
        assert not ok
        k, res = witness
        assert k == complete(3) and res.member

    def test_budget_error_names_family_level_and_graph(self):
        with pytest.raises(ResourceLimitError) as info:
            family_contains(PartitionProduct((M, C)), Forb([cycle(5)]),
                            budget_limit=1)
        assert str(info.value) == ("P(M, C) at level 5, graph Dhc: "
                                   "membership search exceeded node budget 1")

    def test_rejects_non_forb_target(self):
        with pytest.raises(UnsupportedOperationError):
            family_contains(S, HST(2, 0))

    def test_rejects_non_hereditary_source(self):
        with pytest.raises(UnsupportedOperationError):
            family_contains(Apex(C), Forb([complete(3)]))

    def test_m_equals_forb_p3_k3(self):
        # matchings are exactly the {P3, K3}-free graphs; check both ways
        # at small order through the two engines
        forb_form = Forb([path(3), complete(3)])
        for n in range(5):
            for g in all_labeled_graphs(n):
                assert M.contains(g) == forb_form.contains(g)


class TestValidationAndFlags:
    def test_apex_nesting_rejected(self):
        with pytest.raises(ValidationError):
            Apex(Apex(C))
        with pytest.raises(ValidationError):
            Apex(PartitionProduct([Apex(C), S]))

    def test_hereditary_flags(self):
        assert Forb([complete(3)]).hereditary
        assert HST(3, 2).hereditary
        assert Iota(path(4)).hereditary
        assert not Apex(C).hereditary
        assert PartitionProduct([S, C]).hereditary
        assert not PartitionProduct([Apex(C), S]).hereditary
        assert ComplementFamily(Apex(C)).hereditary is False
        assert UnionFam(S, Apex(C)).hereditary is False

    def test_empty_forb_rejected(self):
        with pytest.raises(ValidationError):
            Forb([])

    def test_structural_equality(self):
        assert Forb([complete(3)]) == Forb([complete(3)])
        assert HST(2, 0) == HST(2, 0)
        assert HST(2, 0) != HST(0, 2)
        assert PartitionProduct([S, C]) != PartitionProduct([C, S])

    def test_constructors_refuse_mistyped_fields(self):
        # each used to build, or to fail with a TypeError, or to print
        # differently from a family it equals
        k3 = Forb([complete(3)])
        for build in (
            lambda: UnionFam(S, 3),
            lambda: IntersectionFam(S, "x"),
            lambda: HST(True, 0),
            lambda: HST("1", 0),
            lambda: HST(2, -1),
            lambda: HST(33, 32),
            lambda: ReducedFamily(k3, 1.5),
            lambda: ReducedFamily(k3, 0),
            lambda: ReducedFamily(HST(2, 0), 1),
            lambda: Forb(complete(3)),
            lambda: Forb([complete(3), "K3"]),
            lambda: PartitionProduct([]),
            lambda: PartitionProduct([S, complete(2)]),
            lambda: Iota("C5"),
            lambda: ComplementFamily(complete(3)),
            lambda: PJFamily(S),
        ):
            with pytest.raises(ValidationError):
                build()

    def test_key_text_and_checkpoint_stem_pins(self):
        # checkpoint names hash key() and transcripts hash text(), so
        # neither may move; recorded before constructors declared fields
        fams = [parse_family(e) for e in (
            "S", "C", "M", "ALL", "forb(K13, g6:DQc)", "H(2, 1)",
            "P(M, iota(P4), S)", "iota(C5)", "apex(co(M))", "co(M)",
            "du(C, forb(K3))", "join(S, H(1, 1))", "(S or C)",
            "(H(2, 0) and forb(C4))",
            "P(apex(C), (S or du(C, join(iota(E2), M))), (co(S) and H(0, 2)))",
        )]
        fams += [ReducedFamily(Forb([cycle(5)]), 1),
                 ReducedFamily(Forb([cycle(5)]), 2),
                 PJFamily(StarSystem(complete(1), (1,), 0)),
                 PJFamily(Constellation(path(3), (0, 0, 1), (1, 0, 1), (1, 0)))]
        got = [(f.text(), f.key(), hashlib.sha256(
            repr((FORMAT_VERSION, f.key())).encode()).hexdigest()[:16])
            for f in fams]
        assert got == KEY_TEXT_STEM_PINS

    def test_pickle_roundtrip(self):
        import pickle
        extra = [ReducedFamily(Forb([cycle(5)]), 2),
                 PJFamily(Constellation(path(3), (0, 0, 1), (1, 0, 1), (1, 0)))]
        for fam in battery() + extra:
            blob = pickle.dumps(fam)
            back = pickle.loads(blob)
            assert back == fam
            assert hash(back) == hash(fam)
            assert back.text() == fam.text()
            assert back.contains(path(3)) == fam.contains(path(3))


KEY_TEXT_STEM_PINS = [
    ("S",
     ("S",),
     "8ef8cfd2e37420f6"),
    ("C",
     ("C",),
     "4b3f8e0b5042bc36"),
    ("M",
     ("M",),
     "6a45ea020e88ebc5"),
    ("ALL",
     ("ALL",),
     "8c1eca305bf3af56"),
    ("forb(K13, g6:DQc)",
     ("forb", (4, (14, 1, 1, 1)), (5, (20, 8, 1, 18, 9))),
     "b5e72d6b2a8986d0"),
    ("H(2, 1)",
     ("H", 2, 1),
     "01a8204e287d910e"),
    ("P(M, iota(P4), S)",
     ("P", ("M",), ("iota", 4, (2, 5, 10, 4)), ("S",)),
     "b983421360b95de5"),
    ("iota(C5)",
     ("iota", 5, (18, 5, 10, 20, 9)),
     "b1541b39ff545836"),
    ("apex(co(M))",
     ("apex", ("co", ("M",))),
     "a7d651f05fd2b09f"),
    ("co(M)",
     ("co", ("M",)),
     "4bc7ec0ad30ee7f0"),
    ("du(C, forb(K3))",
     ("du", ("C",), ("forb", (3, (6, 5, 3)))),
     "d94cc83eeb4a9d58"),
    ("join(S, H(1, 1))",
     ("join", ("S",), ("H", 1, 1)),
     "a52300a46499cbf1"),
    ("(S or C)",
     ("or", ("S",), ("C",)),
     "3001b34d2f0b6179"),
    ("(H(2, 0) and forb(C4))",
     ("and", ("H", 2, 0), ("forb", (4, (10, 5, 10, 5)))),
     "7204ee9473e7df76"),
    ("P(apex(C), (S or du(C, join(iota(2K1), M))), (co(S) and H(0, 2)))",
     ("P",
      ("apex", ("C",)),
      ("or",
       ("S",),
       ("du", ("C",), ("join", ("iota", 2, (0, 0)), ("M",)))),
      ("and", ("co", ("S",)), ("H", 0, 2))),
     "88b9508cac5c32f7"),
    ("red(forb(C5))",
     ("red", ("forb", (5, (18, 5, 10, 20, 9))), 1),
     "9ee5ca759dffa90d"),
    ("red(forb(C5))",
     ("red", ("forb", (5, (18, 5, 10, 20, 9))), 2),
     "8e300c5eb563c9d7"),
    ("pj(@;0;1;0)",
     ("pj", 1, (0,), (0,), (1,), (0,)),
     "3b56361189013a65"),
    ("pj(Bg;001;101;10)",
     ("pj", 3, (2, 5, 2), (0, 0, 1), (1, 0, 1), (1, 0)),
     "1657efb87b97694d"),
]


class TestGraphNames:
    def test_k13_is_the_claw(self):
        assert graph_from_name("K13") == star(3)

    def test_structural_names(self):
        assert graph_from_name("K5") == complete(5)
        assert graph_from_name("C6") == cycle(6)
        assert graph_from_name("P2") == path(2)
        assert graph_from_name("E4") == edgeless(4)
        assert graph_from_name("2K2") == matching(2)
        assert graph_from_name("3K1") == edgeless(3)
        assert graph_from_name("K10") == complete(10)

    def test_g6_names(self):
        assert graph_from_name("g6:Bw") == complete(3)
        assert graph_name(complete(3)) == "K3"
        assert graph_name(star(3)) == "K13"
        g = Graph(4, [(0, 1), (2, 3), (0, 2)])
        assert graph_from_name(graph_name(g)) == g

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            graph_from_name("Q17")
