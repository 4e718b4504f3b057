from __future__ import annotations

import hashlib
import math
import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import hfspeed.canon as canon
from hfspeed.canon import (
    _refine, _twin_class, canonical_form, canonical_graph, group_order,
    subset_orbits, vertex_invariant, vertex_orbit,
)
from hfspeed.enumeration import enumerate_family
from hfspeed.errors import ValidationError
from hfspeed.families import ALL
from hfspeed.graphs import (
    Graph, bits, complement, complete, complete_bipartite, copies, cycle,
    edgeless, path, relabel, star,
)
from oracles import (
    all_labeled_graphs, apply_perm_to_mask, bfs_subset_orbit_reps,
    bfs_subset_orbits, brute_aut_order, brute_isomorphic, brute_twin_class,
    naive_refine,
)
from test_graphs import graphs_strategy

UNLABELED_COUNTS = [1, 1, 2, 4, 11, 34]  # graphs on 0..5 vertices


class TestCanonicalForm:
    def test_classes_match_brute_force_iso(self):
        # bucketing all labeled graphs by canonical form must (a) produce
        # the known number of classes and (b) agree with permutation-scan
        # isomorphism inside every bucket
        for n in range(6):
            buckets = {}
            for g in all_labeled_graphs(n):
                buckets.setdefault(canonical_graph(g), []).append(g)
            assert len(buckets) == UNLABELED_COUNTS[n]
            for rep, members in buckets.items():
                assert brute_isomorphic(rep, members[0])
                for m in members[1:3]:
                    assert brute_isomorphic(members[0], m)

    def test_orbit_counting_identity(self):
        # sum over classes of n!/|Aut| recovers the number of labeled graphs
        for n in range(6):
            seen = {}
            for g in all_labeled_graphs(n):
                cf = canonical_form(g)
                seen[cf.canon] = cf.aut_order
            total = sum(math.factorial(n) // a for a in seen.values())
            assert total == 1 << (n * (n - 1) // 2)

    def test_aut_order_matches_brute_force(self):
        for n in range(6):
            reps = {canonical_graph(g) for g in all_labeled_graphs(n)}
            for g in reps:
                assert canonical_form(g).aut_order == brute_aut_order(g)

    def test_search_tree_aut_order_matches_oracles_to_n7(self):
        # |Aut| read off the first path against Schreier-Sims over the same
        # generators and against a full permutation scan, on every class up
        # to n = 7 and on a relabelled copy of each
        rng = random.Random(7)
        table = enumerate_family(ALL, 7)
        for n in range(8):
            for g in table.members[n]:
                want = brute_aut_order(g)
                perm = list(range(n))
                rng.shuffle(perm)
                for h in (g, relabel(g, perm)):
                    cf = canonical_form(h)
                    assert cf.aut_order == group_order(cf.generators, n) == want

    def test_search_tree_aut_order_with_random_cells(self):
        rng = random.Random(11)
        for _ in range(400):
            n = rng.randint(1, 10)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            g = Graph(n, edges)
            k = rng.randint(1, n)
            color = [rng.randrange(k) for _ in range(n)]
            cells = [m for m in (sum(1 << v for v in range(n) if color[v] == c)
                                 for c in range(k)) if m]
            cf = canonical_form(g, cells)
            assert cf.aut_order == group_order(cf.generators, n)

    @pytest.mark.parametrize("g,order", [
        (cycle(5), 10),
        (cycle(6), 12),
        (path(4), 2),
        (edgeless(6), 720),
        (complete(6), 720),
        (complete_bipartite(3, 3), 72),
        (star(4), 24),
        (Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9),
                    (9, 6), (6, 8), (8, 5), (0, 5), (1, 6), (2, 7), (3, 8),
                    (4, 9)]), 120),  # Petersen
    ])
    def test_known_groups(self, g, order):
        assert canonical_form(g).aut_order == order

    @given(graphs_strategy(8), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_relabeling_invariance(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert canonical_graph(relabel(g, perm)) == canonical_graph(g)

    @given(graphs_strategy(8))
    @settings(max_examples=60)
    def test_generators_are_automorphisms(self, g):
        cf = canonical_form(g)
        for p in cf.generators:
            assert relabel(g, p) == g
        # and the canonical labeling really produces the canonical graph
        assert relabel(g, cf.labeling) == cf.canon

    def test_highest_position_has_max_invariant(self):
        # the enumerator's cheap rejection rule depends on this
        for g in all_labeled_graphs(5):
            cf = canonical_form(g)
            inv = vertex_invariant(g)
            w = cf.labeling.index(g.n - 1) if g.n else None
            if w is not None:
                assert inv[w] == max(inv)


class TestColoredCanon:
    def test_cells_are_respected(self):
        # P3 with the centre distinguished vs undistinguished endpoints
        p3 = path(3)
        cf = canonical_form(p3, cells=[0b010, 0b101])
        assert cf.aut_order == 2
        cf = canonical_form(p3, cells=[0b001, 0b110])  # endpoint singled out
        assert cf.aut_order == 1

    def test_colored_equivalence(self):
        # K2: both vertices same color vs different colors
        k2 = complete(2)
        same = canonical_form(k2, cells=[0b11])
        assert same.aut_order == 2
        diff = canonical_form(k2, cells=[0b01, 0b10])
        assert diff.aut_order == 1

    def test_color_classes_of_same_sizes_compare(self):
        # two 2-colorings of C4: opposite vertices same color vs adjacent
        c4 = cycle(4)
        opp = canonical_form(c4, cells=[0b0101, 0b1010])
        adj = canonical_form(c4, cells=[0b0011, 0b1100])
        assert opp.canon != adj.canon or opp.aut_order != adj.aut_order

    def test_bad_cells(self):
        with pytest.raises(ValidationError):
            canonical_form(path(3), cells=[0b001])

    def test_overlapping_cells(self):
        # sizes add up to n, but the cells overlap and miss vertex 2
        with pytest.raises(ValidationError):
            canonical_form(path(3), cells=[0b011, 0b001])


def _random_graph(rng, n):
    p = rng.random()
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def _random_cells(rng, n):
    """A seeded random ordered partition of range(n) into nonempty cells."""
    k = rng.randint(min(1, n), n)
    color = [rng.randrange(k) for _ in range(n)]
    return [m for m in (sum(1 << v for v in range(n) if color[v] == c)
                        for c in range(k)) if m]


def _labeling_battery():
    """Every class to n = 7 plus a relabelled copy of each, 3000 seeded
    random graphs at n = 8..16, and cycles, complete and edgeless graphs,
    mK_k and the complements of all of these."""
    rng = random.Random(2014)
    graphs = []
    classes = enumerate_family(ALL, 7).members
    for n in range(8):
        for g in classes[n]:
            perm = list(range(n))
            rng.shuffle(perm)
            graphs += [g, relabel(g, perm)]
    graphs += [_random_graph(rng, rng.randint(8, 16)) for _ in range(3000)]
    named = [cycle(n) for n in range(3, 17)]
    named += [complete(n) for n in range(1, 17)]
    named += [edgeless(n) for n in range(1, 17)]
    named += [copies(m, complete(k)) for k in range(2, 9)
              for m in range(2, 16 // k + 1)]
    return graphs + named + [complement(g) for g in named], rng


@pytest.fixture(scope="module")
def labeling_battery():
    """The battery's size and its (graph, cells, canonical form) triples,
    each graph once plain and once with seeded random cells."""
    graphs, rng = _labeling_battery()
    return len(graphs), [(g, cells, canonical_form(g, cells)) for g in graphs
                         for cells in (None, _random_cells(rng, g.n))]


def _battery_digest(battery, fields):
    size, forms = battery
    h = hashlib.sha256()
    for _, _, cf in forms:
        h.update(repr(fields(cf)).encode())
    return size, h.hexdigest()[:16]


class TestPinnedLabeling:
    # recorded before refinement skipped the no-op splitters and again
    # before the search backjumped at its first automorphism: the
    # canonical labeling and |Aut| must not move
    PINNED_FORM = (5636, "8668b131fcce5aca")
    # the generators as well; re-recorded when the backjump stopped
    # collecting automorphisms of subtrees already known to be images
    PINNED = (5636, "dcc3eb23a1d7d0a9")

    def test_pinned_forms(self, labeling_battery):
        assert _battery_digest(labeling_battery, lambda cf: (
            cf.canon.rows, cf.labeling, cf.aut_order)) == self.PINNED_FORM

    def test_pinned_battery(self, labeling_battery):
        assert _battery_digest(labeling_battery, lambda cf: (
            cf.canon.rows, cf.labeling, cf.aut_order,
            cf.generators)) == self.PINNED

    def test_generators_generate_aut(self, labeling_battery):
        for g, cells, cf in labeling_battery[1]:
            for p in cf.generators:
                assert relabel(g, p) == g
                for c in cells or ():
                    assert sum(1 << p[v] for v in bits(c)) == c
            assert group_order(cf.generators, g.n) == cf.aut_order

    @pytest.mark.parametrize("n", range(2, 17))
    def test_edgeless_needs_n_minus_1_generators(self, n):
        # one transposition per first-path node; without the backjump every
        # leaf equal to the first added one, C(n, 2) in all
        cf = canonical_form(edgeless(n))
        assert len(cf.generators) == n - 1
        assert group_order(cf.generators, n) == math.factorial(n)

    @pytest.mark.parametrize("g, leaves, gens, aut", [
        (edgeless(8), 1, 7, math.factorial(8)),
        (complete_bipartite(3, 4), 1, 5, 6 * 24),
        (copies(3, complete(3)), 5, 8, 6 ** 4),
    ], ids=["edgeless(8)", "K3,4", "3K3"])
    def test_twin_heavy_leaves_generators_and_aut(self, g, leaves, gens, aut,
                                                  monkeypatch):
        # every first-path target cell of edgeless(8) and K3,4 is a twin
        # class, so the chain reaches the only leaf; 3K3's root cell and
        # its cell of the two other triangles are not, and each twin
        # sibling of their first-path vertex costs a leaf
        seen = []
        real = canon._encode_discrete

        def spy(rows, cells):
            seen.append(1)
            return real(rows, cells)

        monkeypatch.setattr(canon, "_encode_discrete", spy)
        cf = canonical_form(g)
        assert len(seen) == leaves
        assert len(cf.generators) == gens
        assert cf.aut_order == aut

    @pytest.mark.parametrize("g", [edgeless(16), complete(16), star(15)],
                             ids=["edgeless(16)", "K16", "K1,15"])
    def test_twin_cells_descend_without_refining(self, g, monkeypatch):
        # every target cell is a twin class, so the first path is taken at
        # once below the root: one refinement instead of 16, 16 and 15
        calls = []
        real = canon._refine

        def spy(rows, cells, queue=None):
            calls.append(1)
            return real(rows, cells, queue)

        monkeypatch.setattr(canon, "_refine", spy)
        cf = canonical_form(g)
        assert len(calls) == 1
        assert group_order(cf.generators, g.n) == cf.aut_order


def _twin_heavy_graph(rng, n):
    """A seeded random graph on n vertices blown up from a random quotient
    on fewer vertices, each class a clique or independent set, relabelled."""
    k = rng.randint(1, n - 1)
    quotient = _random_graph(rng, k)
    part = [rng.randrange(k) for _ in range(n)]
    clique = [rng.random() < 0.5 for _ in range(k)]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (clique[part[u]] if part[u] == part[v]
                 else quotient.rows[part[u]] >> part[v] & 1)]
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(Graph(n, edges), perm)


class TestTwinChain:
    def test_chain_equals_the_descent_it_skips(self, monkeypatch):
        # with no cell taken for a twin class every sibling is descended
        # into; rows, labeling, |Aut| and generators must not move.  The
        # enumerator binds its own _twin_class, so ALL's classes do not
        # depend on the patch
        rng = random.Random(33)
        inputs = []
        for n, level in enumerate(enumerate_family(ALL, 7).members):
            for g in level:
                perm = list(range(n))
                rng.shuffle(perm)
                inputs += [(g, None), (relabel(g, perm), None)]
        for i in range(300):
            g = _twin_heavy_graph(rng, rng.randint(9, 16))
            inputs.append((g, _random_cells(rng, g.n) if i % 2 else None))

        def fields(cf):
            return cf.canon.rows, cf.labeling, cf.aut_order, cf.generators

        chained = [fields(canonical_form(g, cells)) for g, cells in inputs]
        monkeypatch.setattr(canon, "_twin_class", lambda rows, mask: False)
        descended = [fields(canonical_form(g, cells)) for g, cells in inputs]
        assert descended == chained


class TestTwinClass:
    def test_matches_pairwise_oracle(self):
        # every nonempty vertex subset of every class to n = 6, and of a
        # seeded relabelled copy of each
        rng = random.Random(32)
        for level in enumerate_family(ALL, 6).members:
            for g in level:
                perm = list(range(g.n))
                rng.shuffle(perm)
                for h in (g, relabel(g, perm)):
                    for mask in range(1, 1 << h.n):
                        assert (_twin_class(h.rows, mask)
                                == brute_twin_class(h.rows, mask))


def _is_equitable(rows, cells):
    return all(len({(rows[v] & other).bit_count() for v in bits(cell)}) == 1
               for cell in cells for other in cells)


class TestRefine:
    def test_matches_naive_refine(self):
        rng = random.Random(5)
        for _ in range(1500):
            n = rng.randint(1, 12)
            g = _random_graph(rng, n)
            cells = _random_cells(rng, n)
            rng.shuffle(cells)
            assert _refine(g.rows, cells) == naive_refine(g.rows, cells)

    def test_reduced_queue_below_root(self):
        # a child partition built from an equitable one refines the same
        # with only the two new cells queued as with every cell queued
        rng = random.Random(6)
        checked = 0
        for _ in range(3000):
            n = rng.randint(2, 12)
            g = _random_graph(rng, n)
            cells = _refine(g.rows, _random_cells(rng, n))
            assert _is_equitable(g.rows, cells)
            targets = [i for i, c in enumerate(cells) if c & (c - 1)]
            if not targets:
                continue
            t = rng.choice(targets)
            v = rng.choice(list(bits(cells[t])))
            new = [1 << v, cells[t] ^ 1 << v]
            child = cells[:t] + new + cells[t + 1:]
            got = _refine(g.rows, child, list(new))
            assert got == _refine(g.rows, child) == naive_refine(g.rows, child)
            assert _is_equitable(g.rows, got)
            checked += 1
        assert checked > 1000


class TestGroupOrder:
    def test_trivial(self):
        assert group_order([], 5) == 1
        assert group_order([tuple(range(5))], 5) == 1

    def test_small_groups(self):
        assert group_order([(1, 0, 2)], 3) == 2
        assert group_order([(1, 2, 0)], 3) == 3
        assert group_order([(1, 0, 2), (0, 2, 1)], 3) == 6
        # symmetric group via two standard generators, n = 8
        cyc = tuple(list(range(1, 8)) + [0])
        swap = (1, 0) + tuple(range(2, 8))
        assert group_order([cyc, swap], 8) == math.factorial(8)

    def test_against_brute_force_on_graph_groups(self):
        for g in all_labeled_graphs(4):
            gens = canonical_form(g).generators
            assert group_order(gens, 4) == brute_aut_order(g)


class TestOrbits:
    def test_vertex_orbit(self):
        gens = canonical_form(star(3)).generators
        assert vertex_orbit(1, gens, 4) == 0b1110
        assert vertex_orbit(0, gens, 4) == 0b0001

    def test_apply_perm_to_mask(self):
        assert apply_perm_to_mask(0b011, (2, 0, 1)) == 0b101

    def test_subset_orbit_reps_full_symmetry(self):
        gens = canonical_form(edgeless(3)).generators
        reps = list(subset_orbits(3, gens))
        assert reps == [0b000, 0b001, 0b011, 0b111]

    def test_subset_orbit_reps_trivial_group(self):
        assert list(subset_orbits(3, ())) == list(range(8))

    def test_subset_orbit_reps_partition(self):
        # reps plus their orbits tile the powerset exactly
        g = cycle(4)
        gens = canonical_form(g).generators
        reps = list(subset_orbits(4, gens))
        seen = set()
        for r in reps:
            orbit = {r}
            frontier = [r]
            while frontier:
                x = frontier.pop()
                for p in gens:
                    y = apply_perm_to_mask(x, p)
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
            assert not (orbit & seen)
            assert min(orbit) == r
            seen |= orbit
        assert len(seen) == 16

    def test_subset_orbit_reps_match_bfs_oracle(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 9)
            gens = []
            for _ in range(rng.randint(0, 3)):
                p = list(range(n))
                rng.shuffle(p)
                gens.append(tuple(p))
            assert list(subset_orbits(n, gens)) == bfs_subset_orbit_reps(n, gens)
            # a union of orbits: popcount is invariant under every perm
            sizes = {k for k in range(n + 1) if rng.random() < 0.5}
            masks = [m for m in range(1 << n) if m.bit_count() in sizes]
            assert (list(subset_orbits(n, gens, masks))
                    == bfs_subset_orbit_reps(n, gens, masks))

    def test_subset_orbit_sizes_match_bfs_oracle(self):
        rng = random.Random(4)
        for _ in range(60):
            n = rng.randint(1, 9)
            gens = []
            for _ in range(rng.randint(0, 3)):
                p = list(range(n))
                rng.shuffle(p)
                gens.append(tuple(p))
            sizes = {k for k in range(n + 1) if rng.random() < 0.5}
            masks = [m for m in range(1 << n) if m.bit_count() in sizes]
            for ms in (None, masks):
                got = subset_orbits(n, gens, ms)
                assert got == bfs_subset_orbits(n, gens, ms)
                assert list(got) == sorted(got)
                assert sum(got.values()) == (1 << n if ms is None
                                             else len(ms))
