import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
from itertools import combinations

import pytest

from hfspeed import graph6, stars
from hfspeed.canon import canonical_graph
from hfspeed.enumeration import enumerate_family, labeled_count_direct
from hfspeed.errors import CapacityError, ResourceLimitError, ValidationError
from hfspeed.families import ALL, HST
from hfspeed.graphs import (
    Graph, complement, complete, cycle, delete_vertex,
    disjoint_union, edgeless, find_induced_embedding, induced_subgraph,
    join, matching, path, relabel, star,
)
from hfspeed.stars import (
    Constellation, PJFamily, StarSystem, Template,
    constellation_irreducible, find_template, generate_constellations,
    irreducible_star_systems, is_crown, is_member_PJ, is_minimal_nonstar,
    is_s_star, minimal_core, minimal_nonstar_scan,
    star_system_irreducible, verify_pj_certificate, verify_template,
)
from oracles import (
    all_labeled_graphs, brute_constellation_class_count, constellation_host,
    irreducible_by_vertex, is_clique_mask, is_independent_mask,
)

K0 = Graph.from_rows([])


def system_order(sy):
    """irreducible_star_systems' documented sort key."""
    abits = sum(a << v for v, a in enumerate(sy.alpha))
    return (sy.j.n, -sy.beta, -sum(sy.alpha), sy.j.rows, abits)


def small_graphs(n_max):
    table = enumerate_family(ALL, n_max)
    return [g for n in range(n_max + 1) for g in table.members[n]]


def classes_and_relabellings(n_max, seed):
    """Every class of ALL to n_max, each followed by a seeded relabelling."""
    rng = random.Random(seed)
    for g in small_graphs(n_max):
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield g
        yield relabel(g, perm)


def brute_crown(g, mask):
    # the two-clause definition: outside all-or-none, inside homogeneous
    for v in range(g.n):
        if mask >> v & 1:
            continue
        hit = g.rows[v] & mask
        if hit and hit != mask:
            return False
    inside = [v for v in range(g.n) if mask >> v & 1]
    kinds = {(g.rows[u] >> v & 1) for u in inside for v in inside if u != v}
    return len(kinds) <= 1


def brute_minimal_core(g):
    for size in range(g.n):
        for sub in combinations(range(g.n), size):
            m = 0
            for v in sub:
                m |= 1 << v
            if brute_crown(g, g.full_mask() ^ m):
                return size, sub
    return g.n, tuple(range(g.n))


# frequently used systems
DOM = StarSystem(complete(1), (1,), 0)       # dominating apex, independent crown
ISO = StarSystem(complete(1), (0,), 1)       # isolated apex over a clique
E2J = StarSystem(edgeless(2), (1, 1), 1)     # nonedge joined to a clique
K2J = StarSystem(complete(2), (1, 1), 0)     # edge joined to an independent set
BIP = Constellation(K0, (), (), (0, 0))
SPLIT = Constellation(K0, (), (), (0, 1))
COCLUSTER = Constellation(K0, (), (), (1, 1))


class TestCrownsAndCores:
    def test_is_crown_basics(self):
        c4 = cycle(4)
        assert is_crown(c4, 0)
        assert is_crown(c4, 0b0101)          # opposite pair
        assert not is_crown(c4, 0b0011)      # adjacent pair: 2 sees 1 only
        assert is_crown(complete(4), 0b1111)
        assert all(is_crown(cycle(5), 1 << v) for v in range(5))
        assert not any(is_crown(cycle(5), m) for m in range(32)
                       if m.bit_count() == 2)

    def test_is_crown_matches_two_clause_oracle(self):
        for g in classes_and_relabellings(7, 34):
            for mask in range(1 << g.n):
                assert is_crown(g, mask) == brute_crown(g, mask), (g.rows, mask)

    def test_is_crown_refuses_absent_vertices(self):
        # a bit at or above n, or a negative mask, names no vertex set
        for g in (K0, complete(3), cycle(5)):
            for mask in (-1, -(1 << g.n), 1 << g.n, (1 << g.n + 1) - 1):
                with pytest.raises(ValidationError):
                    is_crown(g, mask)

    def test_minimal_core_contract_examples(self):
        assert minimal_core(star(3)) == (1, (0,))
        assert minimal_core(path(4))[0] == 3
        assert minimal_core(complete(5)) == (0, ())
        assert minimal_core(cycle(4)) == (2, (0, 2))
        assert minimal_core(cycle(5))[0] == 4
        assert minimal_core(edgeless(6)) == (0, ())

    def test_minimal_core_matches_brute(self):
        for g in classes_and_relabellings(7, 34):
            best = brute_minimal_core(g)
            assert minimal_core(g) == best, g.rows
            for max_size in range(-1, g.n + 1):
                want = best if best[0] <= max_size else (None, None)
                assert minimal_core(g, max_size) == want, (g.rows, max_size)

    def test_minimal_core_size_bound(self):
        for g in small_graphs(5):
            size, core = minimal_core(g)
            assert size <= max(g.n - 1, 0)
            m = 0
            for v in core:
                m |= 1 << v
            assert brute_crown(g, g.full_mask() ^ m)

    def test_minimal_core_scans_no_subsets(self, monkeypatch):
        # the twin classes give the core at once; a subset scan would
        # take 2^39 steps on P40
        def refuse(*args):
            raise AssertionError("minimal_core scanned subsets")

        monkeypatch.setattr(stars, "combinations", refuse)
        assert minimal_core(path(40)) == (39, tuple(range(39)))
        assert minimal_core(edgeless(64)) == (0, ())

    def test_max_size_early_stop(self):
        assert minimal_core(cycle(5), max_size=3) == (None, None)
        assert minimal_core(cycle(5), max_size=4)[0] == 4

    def test_twin_classes_match_brute_cores(self):
        # is_s_star and is_minimal_nonstar read cores off twin classes;
        # the reference scans subsets for a crown by the two-clause
        # definition, on every class of ALL to 7 and a seeded relabelling
        rng = random.Random(31)
        for g in small_graphs(7):
            perm = list(range(g.n))
            rng.shuffle(perm)
            for h in (g, relabel(g, perm)):
                core = brute_minimal_core(h)[0]
                cores = [brute_minimal_core(delete_vertex(h, v))[0]
                         for v in range(h.n)]
                for s in range(h.n + 1):
                    assert is_s_star(h, s) == (core <= s), (h.rows, s)
                    assert is_minimal_nonstar(h, s) == (
                        core > s and all(c <= s for c in cores)), (h.rows, s)

    def test_is_s_star_examples(self):
        assert not is_s_star(cycle(4), 0)
        assert is_s_star(cycle(4), 2)
        assert is_s_star(edgeless(7), 0)
        assert not is_s_star(path(4), 2)
        assert is_s_star(path(4), 3)


class TestStarSystems:
    def test_validation(self):
        with pytest.raises(ValidationError):
            StarSystem(complete(2), (1,), 0)
        with pytest.raises(ValidationError):
            StarSystem(complete(1), (2,), 0)
        with pytest.raises(ValidationError):
            StarSystem(complete(1), (1,), 2)

    def test_irreducibility_contract_examples(self):
        assert star_system_irreducible(DOM)
        assert not star_system_irreducible(StarSystem(complete(1), (0,), 0))
        assert not star_system_irreducible(StarSystem(complete(1), (1,), 1))
        assert star_system_irreducible(ISO)

    def test_mask_rule_matches_the_per_vertex_rule(self):
        # every labelled J to 5 vertices, every alpha, both betas
        for k in range(6):
            for j in all_labeled_graphs(k):
                for abits in range(1 << k):
                    alpha = tuple(abits >> v & 1 for v in range(k))
                    for beta in (0, 1):
                        assert star_system_irreducible(
                            StarSystem(j, alpha, beta)) == \
                            irreducible_by_vertex(j.rows, alpha, beta), (
                                j.rows, alpha, beta)

    def test_nonedge_over_clique_is_irreducible(self):
        # moving either vertex into a clique crown would force it adjacent
        # to the other core vertex, which it is not; equivalently the
        # crown-3 host is K5 minus an edge, whose minimum core is exactly
        # the nonadjacent pair
        assert star_system_irreducible(E2J)
        host = constellation_host(E2J.as_constellation(), [3])
        assert host == complement(disjoint_union(complete(2), edgeless(3)))
        assert brute_minimal_core(host)[0] == 2
        with pytest.raises(ValidationError):
            constellation_host(E2J.as_constellation(), [-1])

    def test_irreducible_iff_host_core_minimal(self):
        # the semantic reading, replayed host-side for every system with
        # core at most 2 and crowns of several sizes
        table = enumerate_family(ALL, 2)
        for k in range(3):
            for j in table.members[k]:
                for abits in range(1 << k):
                    alpha = tuple(abits >> v & 1 for v in range(k))
                    for beta in (0, 1):
                        sys = StarSystem(j, alpha, beta)
                        irr = star_system_irreducible(sys)
                        for crown in (2, 3, 5):
                            host = constellation_host(
                                sys.as_constellation(), [crown])
                            assert (brute_minimal_core(host)[0] == k) == irr, (
                                j.rows, alpha, beta, crown)

    def test_irreducible_star_systems_counts(self):
        assert len(irreducible_star_systems(0)) == 2
        assert len(irreducible_star_systems(1)) == 4
        systems = irreducible_star_systems(2)
        assert len(systems) == 12
        assert all(sy.j.n <= 2 for sy in systems)
        assert all(star_system_irreducible(sy) for sy in systems)
        keys = [sy.canonical_key() for sy in systems]
        assert len(set(keys)) == 12
        assert [sy.canonical_key() for sy in irreducible_star_systems(2)] == keys

    def test_irreducible_star_systems_key_only_the_classes(self):
        # the classes and representatives of a scan over every
        # (J, alpha, beta) deduplicated by canonical key, in the
        # documented order
        for s in range(5):
            table = enumerate_family(ALL, s)
            scan = {}
            for size in range(s + 1):
                for j in table.members[size]:
                    for abits in range(1 << size):
                        alpha = tuple(abits >> v & 1 for v in range(size))
                        for beta in (0, 1):
                            sy = StarSystem(j, alpha, beta)
                            if star_system_irreducible(sy):
                                scan.setdefault(sy.canonical_key(), sy)
            want = sorted(scan.values(), key=system_order)
            assert irreducible_star_systems(s) == want

    def test_order_rule_and_distinct_classes(self):
        systems = irreducible_star_systems(6)
        keys = [sy.canonical_key() for sy in systems]
        assert len(set(keys)) == len(keys)
        # both crown types may share one (J, alpha); within a type the
        # pairs are distinct
        assert len({(sy.j.rows, sy.alpha, sy.beta)
                    for sy in systems}) == len(systems)
        assert systems == sorted(systems, key=system_order)

    def test_irreducible_star_systems_classes_digest(self):
        # the classes for every s up to the guard, whatever the order:
        # sorted canonical keys
        h = hashlib.sha256()
        for s in range(7):
            h.update(f"{s}\n".encode())
            keys = sorted(sy.canonical_key()
                          for sy in irreducible_star_systems(s))
            for key in keys:
                h.update(repr(key).encode() + b"\n")
        assert h.hexdigest() == (
            "5d3f48fa5be769ade6528b910ce5e37754e377791244628109e2ff7c440562d2")

    def test_no_canonical_form_for_one_part_systems(self, monkeypatch):
        def no_form(*a):
            raise AssertionError("canonical_form called")
        monkeypatch.setattr(stars, "canonical_form", no_form)
        assert len(irreducible_star_systems(6)) == len(
            generate_constellations(1, 6))

    def test_as_constellation(self):
        c = E2J.as_constellation()
        assert (c.l, c.s) == (1, 2)
        assert c.systems() == (E2J,)
        assert constellation_irreducible(c)


class TestConstellations:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Constellation(complete(2), (0, 2), (1, 1), (0, 0))
        with pytest.raises(ValidationError):
            Constellation(complete(2), (0,), (1, 1), (0, 0))
        with pytest.raises(ValidationError):
            Constellation(K0, (), (), ())

    def test_fibers_and_systems(self):
        c = Constellation(path(3), (1, 0, 1), (1, 0, 0), (0, 1))
        assert c.fiber(0) == (1,) and c.fiber(1) == (0, 2)
        assert c.system(0) == StarSystem(complete(1), (0,), 0)
        assert c.system(1) == StarSystem(edgeless(2), (1, 0), 1)
        assert (c.l, c.s) == (2, 2)

    def test_serialization_round_trip(self):
        c = Constellation(path(3), (1, 0, 1), (1, 0, 0), (0, 1))
        obj = c.to_json_obj()
        assert set(obj) == {"j", "phi", "alpha", "beta"}
        c2 = Constellation(graph6.decode(obj["j"]), obj["phi"],
                           obj["alpha"], obj["beta"])
        assert c2 == c
        assert json.loads(c.to_json()) == obj

    def test_canonical_key_invariance(self):
        # relabeling the core and permuting equal-beta parts preserves the
        # key; flipping a beta changes it
        c = Constellation(path(3), (0, 0, 1), (1, 0, 0), (0, 0))
        perm = (2, 1, 0)  # path(3) automorphism-free relabel: 0<->2
        j2 = Graph.from_rows([0b010, 0b101, 0b010])
        c2 = Constellation(j2, (1, 0, 0), (0, 0, 1), (0, 0))
        assert c2.canonical_key() == c.canonical_key()
        c3 = Constellation(c.j, c.phi, c.alpha, (0, 1))
        assert c3.canonical_key() != c.canonical_key()
        swapped = Constellation(path(3), (1, 1, 0), (1, 0, 0), (0, 0))
        assert swapped.canonical_key() == c.canonical_key()


class TestTemplates:
    def test_contract_examples(self):
        t = find_template(cycle(4), BIP)
        assert t is not None and t.psi == ()
        assert sorted(map(sorted, t.parts)) == [[0, 2], [1, 3]]
        assert find_template(cycle(5), BIP) is None
        t = find_template(star(3), DOM)
        assert t is not None and t.psi == (0,)
        assert find_template(path(4), DOM) is None

    def test_failed_reverification_raises_under_optimize(self):
        # the re-verification is a raise, not an assert, so it survives -O
        code = (
            "import hfspeed.stars as st\n"
            "from hfspeed.graphs import complete, star\n"
            "st.verify_template = lambda *a: False\n"
            "DOM = st.StarSystem(complete(1), (1,), 0)\n"
            "try:\n"
            "    st.find_template(star(3), DOM)\n"
            "except RuntimeError as e:\n"
            "    print('raised:', e)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.startswith("raised:")

    def test_returned_templates_reverify(self):
        battery = [
            (cycle(4), BIP), (star(4), DOM),
            (disjoint_union(complete(4), complete(1)), ISO.as_constellation()),
            (path(4), SPLIT), (join(complete(2), edgeless(3)), K2J.as_constellation()),
            (constellation_host(E2J.as_constellation(), [4]),
             E2J.as_constellation()),
        ]
        for g, c in battery:
            t = find_template(g, c)
            assert t is not None
            assert verify_template(g, c, t)

    def test_verify_template_rejects(self):
        g = star(3)
        assert verify_template(g, DOM, Template((0,), ((0, 1, 2, 3),)))
        assert not verify_template(g, DOM, Template((1,), ((0, 1, 2, 3),)))
        assert not verify_template(g, DOM, Template((0,), ((0, 1, 2),)))
        assert not verify_template(g, DOM, Template((0,), ((0, 1, 2, 3), (1,))))
        # crown must be independent for beta = 0
        assert not verify_template(complete(3), DOM, Template((0,), ((0, 1, 2),)))

    def test_degenerate_crowns_accepted(self):
        assert find_template(complete(1), DOM) == Template((0,), ((0,),))
        assert find_template(complete(2), DOM) == Template((0,), ((0, 1),))
        # an empty part is fine too
        c = Constellation(K0, (), (), (0, 0))
        t = find_template(complete(1), c)
        assert t is not None and verify_template(complete(1), c, t)

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            find_template(cycle(7), BIP, budget_limit=2)


class TestMembership:
    def test_contract_examples(self):
        assert is_member_PJ(star(3), DOM).member
        assert not is_member_PJ(complete(3), DOM).member
        assert is_member_PJ(cycle(4), BIP).member
        assert not is_member_PJ(cycle(5), BIP).member

    def test_empty_graph_member_everywhere(self):
        for c in (DOM, E2J, BIP, SPLIT):
            r = is_member_PJ(K0, c)
            assert r.member and verify_pj_certificate(K0, c, r.certificate)

    def test_characterizations(self):
        # independent routes for four hand-analyzed families
        def in_dom(g):
            if g.n == 0 or not any(g.rows):
                return True
            full = g.full_mask()
            return any(g.rows[v] == full ^ (1 << v)
                       and not any(g.rows[u] & ~(1 << v)
                                   for u in range(g.n) if u != v)
                       for v in range(g.n))

        def in_iso(g):
            if is_clique_mask(g, g.full_mask()):
                return True
            return any(g.rows[v] == 0
                       and is_clique_mask(g, g.full_mask() ^ (1 << v))
                       for v in range(g.n))

        def in_e2j(g):
            missing = g.n * (g.n - 1) // 2 - sum(r.bit_count() for r in g.rows) // 2
            return missing <= 1

        def in_k2j(g):
            for size in (0, 1, 2):
                for sub in combinations(range(g.n), size):
                    m = 0
                    for v in sub:
                        m |= 1 << v
                    rest = g.full_mask() ^ m
                    if (is_clique_mask(g, m) and is_independent_mask(g, rest)
                            and all(g.rows[v] & rest == rest for v in sub)):
                        return True
            return False

        for g in small_graphs(6):
            assert is_member_PJ(g, DOM).member == in_dom(g), g.rows
            assert is_member_PJ(g, ISO).member == in_iso(g), g.rows
            assert is_member_PJ(g, E2J).member == in_e2j(g), g.rows
            assert is_member_PJ(g, K2J).member == in_k2j(g), g.rows

    def test_empty_core_matches_hst(self):
        pairs = [(BIP, HST(2, 0)), (SPLIT, HST(1, 1)), (COCLUSTER, HST(0, 2))]
        for g in small_graphs(6):
            for c, f in pairs:
                r = is_member_PJ(g, c)
                assert r.member == f.membership(g).member, (g.rows, c.beta)
                if r.member:
                    assert verify_pj_certificate(g, c, r.certificate)

    def test_against_bounded_host_search(self):
        # the in-graph rule vs. explicit host search: any host on <= 7
        # vertices admitting a template, containing g induced
        battery = [
            DOM.as_constellation(), ISO.as_constellation(),
            E2J.as_constellation(), K2J.as_constellation(), BIP, SPLIT,
            Constellation(complete(2), (0, 1), (1, 0), (0, 1)),
            Constellation(edgeless(2), (0, 1), (1, 1), (0, 0)),
            Constellation(complete(2), (0, 0), (1, 0), (1, 0)),
        ]
        hosts = small_graphs(7)
        for c in battery:
            admitting = [h for h in hosts if find_template(h, c) is not None]
            for g in small_graphs(4):
                direct = is_member_PJ(g, c)
                oracle = any(find_induced_embedding(g, h) is not None
                             for h in admitting)
                assert direct.member == oracle, (c.to_json(), g.rows)
                if direct.member:
                    assert verify_pj_certificate(g, c, direct.certificate)

    def test_certificates_and_transcripts(self):
        r = is_member_PJ(star(3), DOM)
        assert r.certificate[0] == "pj" and r.transcript_hash is None
        assert not verify_pj_certificate(complete(3), DOM, r.certificate)
        r = is_member_PJ(complete(3), DOM)
        assert r.certificate is None and r.transcript_hash
        assert r.nodes > 0

    def test_malformed_certificates_are_false(self):
        g = star(3)
        _, pairs, part_of = is_member_PJ(g, DOM).certificate
        assert verify_pj_certificate(g, DOM, ("pj", pairs, part_of))
        bad = [("pj", "ab", part_of), ("pj", ((0,),), part_of),
               ("pj", None, part_of), ("pj", ((0, 0.0),), part_of),
               ("pj", ((0.0, 0),), part_of), ("pj", pairs, None),
               ("pj", pairs, ("0",) + part_of[1:]),
               ("pj", pairs, (0.0,) + part_of[1:])]
        for cert in bad:
            assert verify_pj_certificate(g, DOM, cert) is False, cert

    def test_transcript_hash_matches_eager_formula(self):
        r = is_member_PJ(complete(3), DOM)
        c = DOM.as_constellation()
        blob = f"pj|{c.to_json()}|{graph6.encode(complete(3))}|{r.nodes}"
        assert r.transcript_hash == hashlib.sha256(blob.encode()).hexdigest()
        # hex value as computed eagerly, before the hash became lazy
        assert r.transcript_hash == (
            "3049251be2c6c8e361cf10a7b02dd160b03f8f97324418c66a7a4fb1d4ac9e4d")

    def test_heredity(self):
        battery = [E2J.as_constellation(), K2J.as_constellation(), SPLIT,
                   Constellation(complete(2), (0, 1), (1, 0), (0, 1))]
        for c in battery:
            for g in small_graphs(6):
                if not is_member_PJ(g, c).member:
                    continue
                for v in range(g.n):
                    assert is_member_PJ(delete_vertex(g, v), c).member, (
                        c.to_json(), g.rows, v)

    def test_host_subgraphs_are_members(self):
        for c in generate_constellations(2, 1):
            h = constellation_host(c, [2] * c.l)
            for k in range(h.n + 1):
                for sub in combinations(range(h.n), k):
                    assert is_member_PJ(induced_subgraph(h, sub), c).member

    def test_budget(self):
        c = Constellation(complete(2), (0, 1), (1, 0), (0, 1))
        with pytest.raises(ResourceLimitError):
            is_member_PJ(cycle(7), c, budget_limit=2)

    def test_budget_refusal_names_family_level_and_graph(self):
        # both entry points build their own budget; an exhausted one is
        # refused as the enumerator refuses it, chained from the original
        for search in (is_member_PJ, find_template):
            with pytest.raises(ResourceLimitError) as info:
                search(star(5), DOM, budget_limit=1)
            assert str(info.value).startswith(
                f"pj(@;0;1;0) at level 6, graph {graph6.encode(star(5))}: ")
            assert isinstance(info.value.__cause__, ResourceLimitError)

    def test_accepts_star_system_directly(self):
        assert is_member_PJ(star(5), DOM).member


class TestPJFamily:
    def test_enumeration_and_direct_oracle(self):
        fam = PJFamily(DOM)
        t = enumerate_family(fam, 8)
        assert t.unlabeled == [1, 1, 2, 2, 2, 2, 2, 2, 2]
        assert t.labeled == [1, 1, 2, 4, 5, 6, 7, 8, 9]
        for n in range(6):
            assert labeled_count_direct(fam, n) == t.labeled[n]

    def test_complement_symmetry(self):
        # P(iso) is the complement family of P(dom)
        t = enumerate_family(PJFamily(ISO), 7)
        assert t.labeled == [1, 1, 2, 4, 5, 6, 7, 8]

    def test_pickle_and_text(self):
        fam = PJFamily(Constellation(complete(2), (0, 1), (1, 0), (0, 1)))
        back = pickle.loads(pickle.dumps(fam))
        assert back.key() == fam.key()
        assert fam.text() == "pj(A_;01;10;01)"
        assert PJFamily(BIP).text() == "pj(?;;;00)"


class TestGeneration:
    def test_beta_only_grids(self):
        for l in range(1, 5):
            cs = generate_constellations(l, 0)
            assert len(cs) == l + 1
            assert all(c.j.n == 0 and c.l == l for c in cs)

    def test_grid_1_1(self):
        cs = generate_constellations(1, 1)
        assert len(cs) == 4
        keys = {c.canonical_key() for c in cs}
        assert DOM.canonical_key() in keys
        assert ISO.canonical_key() in keys

    def test_grid_counts_frozen(self):
        assert len(generate_constellations(1, 2)) == 12
        assert len(generate_constellations(2, 1)) == 13
        assert len(generate_constellations(3, 1)) == 42
        assert len(generate_constellations(2, 2)) == 382

    def test_all_irreducible_and_distinct(self):
        for l, s in [(2, 1), (1, 2), (2, 2)]:
            cs = generate_constellations(l, s)
            assert all(constellation_irreducible(c) for c in cs)
            assert all(c.s <= s and c.l == l for c in cs)
            keys = [c.canonical_key() for c in cs]
            assert len(set(keys)) == len(keys)
            again = [c.canonical_key() for c in generate_constellations(l, s)]
            assert again == keys

    def test_one_part_grids_are_the_star_systems(self):
        for s in range(7):
            assert generate_constellations(1, s) == [
                sy.as_constellation() for sy in irreducible_star_systems(s)]

    def test_internal_builds_match_public_constructors(self):
        # systems and constellations built inside, without the checks, are
        # the objects the public constructors make from the same fields
        def same(got, pub):
            assert type(got) is type(pub)
            assert got == pub and pub == got and hash(got) == hash(pub)
            assert repr(got) == repr(pub)
            assert got.to_json_obj() == pub.to_json_obj()
            assert got.__reduce__() == pub.__reduce__()
            assert pickle.loads(pickle.dumps(got)) == pub
            for name in type(pub)._fields:
                a, b = getattr(got, name), getattr(pub, name)
                assert type(a) is type(b)
                if isinstance(b, tuple):
                    assert all(type(x) is int for x in a)

        grids = [generate_constellations(l, s) for l, s in
                 [(1, 3), (2, 2), (3, 1), (2, 0)]]
        systems = irreducible_star_systems(3) + [
            sy for cs in grids for c in cs for sy in c.systems()]
        for sy in systems:
            same(sy, StarSystem(sy.j, list(sy.alpha), sy.beta))
            same(sy.as_constellation(), Constellation(
                sy.j, [0] * sy.j.n, list(sy.alpha), [sy.beta]))
        for c in (c for cs in grids for c in cs):
            same(c, Constellation(c.j, list(c.phi), list(c.alpha),
                                  list(c.beta)))
            assert c.to_json() == Constellation(
                c.j, c.phi, c.alpha, c.beta).to_json()
        # the public constructors still refuse bad phi, alpha and beta
        bad = [lambda: StarSystem(complete(2), (1, 2), 0),
               lambda: StarSystem(complete(2), (1,), 0),
               lambda: StarSystem(complete(2), (1, 0), 2),
               lambda: Constellation(complete(2), (0, 2), (1, 1), (0, 0)),
               lambda: Constellation(complete(2), (0, -1), (1, 1), (0, 0)),
               lambda: Constellation(complete(2), (0, 1), (1, 3), (0, 0)),
               lambda: Constellation(complete(2), (0, 1), (1, 1), (0, 2)),
               lambda: Constellation(complete(2), (0, 1), (1, 1), ())]
        for make in bad:
            with pytest.raises(ValidationError):
                make()

    GRIDS = ([(1, s) for s in range(6)] + [(2, s) for s in range(3)]
             + [(3, 1), (5, 1), (6, 1)])

    def test_grids_digest(self):
        # members and order of every grid below: the order of
        # irreducible_star_systems at l = 1, assembly order at l >= 2
        h = hashlib.sha256()
        for l, s in self.GRIDS:
            h.update(f"{l},{s}\n".encode())
            for c in generate_constellations(l, s):
                h.update(c.to_json().encode() + b"\n")
        assert h.hexdigest() == (
            "af1b1d014928dce131aaf98f59024eca8d3d88720522103df7f6b00d7023ed40")

    def test_grids_classes_digest(self):
        # the classes of every grid below, whatever the order: sorted
        # canonical keys, pairwise distinct; recorded before the output
        # at l >= 2 left key order
        h = hashlib.sha256()
        for l, s in self.GRIDS:
            h.update(f"{l},{s}\n".encode())
            keys = sorted(c.canonical_key()
                          for c in generate_constellations(l, s))
            assert len(set(keys)) == len(keys), (l, s)
            for key in keys:
                h.update(repr(key).encode() + b"\n")
        assert h.hexdigest() == (
            "97864a27d4c81febec10d9fd28ae54aa1bfe7c09fee40329483a6f50039aa323")

    def test_class_counts_match_brute_force(self):
        grids = [(l, s) for l in range(1, 5) for s in range(5) if l * s <= 4]
        for l, s in grids:
            assert len(generate_constellations(l, s)) == \
                brute_constellation_class_count(l, s), (l, s)

    def test_no_key_per_class(self, monkeypatch):
        # at (5, 1) one gadget form per assembly with cross pairs (its
        # generators reduce the codes), and no canonical key at all
        forms = []
        gadget = stars._gadget_form
        monkeypatch.setattr(stars, "_gadget_form",
                            lambda *a: forms.append(a) or gadget(*a))

        def no_key(self):
            raise AssertionError("canonical_key called")
        monkeypatch.setattr(Constellation, "canonical_key", no_key)
        assert len(generate_constellations(5, 1)) == 824
        assert len(forms) == 40

    def test_one_part_grid_builds_no_star_system(self, monkeypatch):
        # the l = 1 grid is built from the fields of each system
        def no_system(self):
            raise AssertionError("as_constellation called")
        monkeypatch.setattr(StarSystem, "as_constellation", no_system)
        assert len(generate_constellations(1, 6)) == 10192

    def test_guards(self):
        with pytest.raises(CapacityError):
            generate_constellations(4, 2)
        with pytest.raises(ValidationError):
            generate_constellations(0, 1)
        with pytest.raises(ValidationError):
            generate_constellations(2, -1)

    def test_star_observation_exhaustive(self):
        # G is an s-star iff it lies in P(J) for some irreducible s-system
        for s in (0, 1, 2):
            systems = irreducible_star_systems(s)
            for g in small_graphs(6):
                direct = is_s_star(g, s)
                via = any(is_member_PJ(g, sy).member for sy in systems)
                assert direct == via, (s, g.rows)


class TestScans:
    def test_is_minimal_nonstar_examples(self):
        assert is_minimal_nonstar(path(3), 0)
        assert is_minimal_nonstar(disjoint_union(complete(2), complete(1)), 0)
        assert not is_minimal_nonstar(cycle(5), 0)
        assert is_minimal_nonstar(cycle(4), 1)
        assert is_minimal_nonstar(matching(2), 1)
        assert is_minimal_nonstar(path(4), 1)
        assert not is_minimal_nonstar(cycle(5), 1)

    def test_exhaustive_scan_s0(self):
        rep = minimal_nonstar_scan(0, 8)
        assert rep.max_order == 3 <= 5
        got = sorted(graph6.encode(canonical_graph(g))
                     for g in (path(3), disjoint_union(complete(2), complete(1))))
        assert rep.witnesses == got
        assert rep.scanned[-1] == (8, 12346)

    @pytest.mark.parametrize("n_max", range(1, 8))
    @pytest.mark.parametrize("s", range(3))
    def test_exhaustive_scan_equals_a_loop_over_members(self, s, n_max):
        # the scan tests its top order where each class is found; the
        # reference tests every kept member of every order
        table = enumerate_family(ALL, n_max, keep_members=True)
        found = set()
        scanned = []
        for n in range(1, n_max + 1):
            scanned.append((n, len(table.members[n])))
            for g in table.members[n]:
                if is_minimal_nonstar(g, s):
                    found.add(graph6.encode(g))
        rep = minimal_nonstar_scan(s, n_max)
        assert rep.scanned == scanned
        assert rep.witnesses == sorted(found)

    def test_scan_builds_no_deletion_graph(self, monkeypatch):
        # each g - v is read off g's rows
        def no_graph(*a):
            raise AssertionError("delete_vertex called")
        monkeypatch.setattr(stars, "delete_vertex", no_graph, raising=False)
        assert minimal_nonstar_scan(1, 7).max_order == 4

    def test_exhaustive_cap(self):
        with pytest.raises(CapacityError):
            minimal_nonstar_scan(0, 9)

    def test_random_order_cap(self):
        # past MAX_VERTICES the draw would build graphs over the cap
        with pytest.raises(CapacityError):
            minimal_nonstar_scan(0, 65, samples=1)
        rep = minimal_nonstar_scan(0, 64, samples=1)
        assert rep.n_max == 64 and rep.mode == "random"

    def test_random_scan_reproducible(self):
        a = minimal_nonstar_scan(1, 12, samples=500, seed=11)
        b = minimal_nonstar_scan(1, 12, samples=500, seed=11)
        assert a.to_json_obj() == b.to_json_obj()
        assert a.max_order <= 9
        assert a.mode == "random" and a.seed == 11

    def test_report_shape(self):
        rep = minimal_nonstar_scan(1, 6, samples=50, seed=3)
        obj = rep.to_json_obj()
        assert obj["s"] == 1 and obj["samples"] == 50
        assert all(len(row) == 2 for row in obj["scanned"])
