"""Independent reference implementations used only by the tests.

Everything here is written the dumb way on purpose: full permutation scans,
no pruning, no memoization, no fast paths.  If the engine and these agree
on every graph of a given order, both would have to share a bug to be
wrong together.
"""

import math
from itertools import combinations, permutations, product

from hfspeed.canon import (
    canonical_form, subset_orbit_reps, vertex_invariant, vertex_orbit,
)
from hfspeed.families import (
    ALL, Apex, AtomAll, AtomC, AtomM, AtomS, Budget,
    ComplementFamily, DisjointUnionFam, Forb, HST,
    IntersectionFam, Iota, JoinFam, PartitionProduct, UnionFam,
)
from hfspeed.errors import ValidationError
from hfspeed.graphs import Graph, add_vertex, complement, induced_subgraph
from hfspeed.stars import PJFamily
from hfspeed.structure import ReducedFamily


def all_labeled_graphs(n):
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        rows = [0] * n
        for k, (u, v) in enumerate(pairs):
            if code >> k & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        yield Graph.from_rows(rows)


def brute_isomorphic(g, h):
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    for perm in permutations(range(g.n)):
        if all(h.rows[perm[u]] >> perm[v] & 1 == g.rows[u] >> v & 1
               for u in range(g.n) for v in range(g.n) if u != v):
            return True
    return g.n == 0


def brute_aut_order(g):
    count = 0
    for perm in permutations(range(g.n)):
        if all(g.rows[perm[u]] >> perm[v] & 1 == g.rows[u] >> v & 1
               for u in range(g.n) for v in range(g.n) if u != v):
            count += 1
    return max(count, 1)


def is_clique_mask(g, mask):
    vs = [v for v in range(g.n) if mask >> v & 1]
    return all(g.rows[u] >> v & 1 for u, v in combinations(vs, 2))


def is_independent_mask(g, mask):
    vs = [v for v in range(g.n) if mask >> v & 1]
    return not any(g.rows[u] >> v & 1 for u, v in combinations(vs, 2))


def brute_embeds_induced(pattern, host):
    k = pattern.n
    if k > host.n:
        return False
    if k == 0:
        return True
    for image in permutations(range(host.n), k):
        if all(host.rows[image[u]] >> image[v] & 1 == pattern.rows[u] >> v & 1
               for u in range(k) for v in range(k) if u != v):
            return True
    return False


def naive_member(g, fam):
    """Reference membership: definition-chasing recursion, no shortcuts."""
    n = g.n
    if isinstance(fam, AtomS):
        return g.edge_count() == 0
    if isinstance(fam, AtomC):
        return g.edge_count() == n * (n - 1) // 2
    if isinstance(fam, AtomM):
        return all(g.degree(v) <= 1 for v in range(n))
    if isinstance(fam, AtomAll):
        return True
    if isinstance(fam, Forb):
        return not any(brute_embeds_induced(p, g) for p in fam.patterns)
    if isinstance(fam, HST):
        kinds = ["independent"] * fam.s + ["clique"] * fam.t
        return _naive_partition(g, kinds, lambda part, kind: _homog(g, part, kind))
    if isinstance(fam, PartitionProduct):
        return _naive_partition(
            g, list(fam.factors),
            lambda part, f: naive_member(induced_subgraph(g, sorted(part)), f))
    if isinstance(fam, Iota):
        return brute_embeds_induced(g, fam.host)
    if isinstance(fam, Apex):
        return any(
            naive_member(induced_subgraph(g, [u for u in range(n) if u != v]),
                         fam.base)
            for v in range(n))
    if isinstance(fam, ComplementFamily):
        return naive_member(complement(g), fam.base)
    if isinstance(fam, DisjointUnionFam):
        for pick in range(1 << n):
            left = [v for v in range(n) if pick >> v & 1]
            right = [v for v in range(n) if not pick >> v & 1]
            if any(g.rows[u] >> v & 1 for u in left for v in right):
                continue
            if (naive_member(induced_subgraph(g, left), fam.left)
                    and naive_member(induced_subgraph(g, right), fam.right)):
                return True
        return False
    if isinstance(fam, JoinFam):
        for pick in range(1 << n):
            left = [v for v in range(n) if pick >> v & 1]
            right = [v for v in range(n) if not pick >> v & 1]
            if not all(g.rows[u] >> v & 1 for u in left for v in right):
                continue
            if (naive_member(induced_subgraph(g, left), fam.left)
                    and naive_member(induced_subgraph(g, right), fam.right)):
                return True
        return False
    if isinstance(fam, UnionFam):
        return naive_member(g, fam.left) or naive_member(g, fam.right)
    if isinstance(fam, IntersectionFam):
        return naive_member(g, fam.left) and naive_member(g, fam.right)
    if isinstance(fam, PJFamily):
        return _naive_pj(g, fam.constellation)
    if isinstance(fam, ReducedFamily):
        return any(not any(_naive_in_reduced_product(k, g, s, fam.l - 1 - s)
                           for k in fam.base.patterns)
                   for s in range(fam.l))
    raise TypeError(f"no naive rule for {type(fam).__name__}")


def _homog(g, part, kind):
    part = sorted(part)
    for i, u in enumerate(part):
        for v in part[i + 1:]:
            edge = bool(g.rows[u] >> v & 1)
            if kind == "independent" and edge:
                return False
            if kind == "clique" and not edge:
                return False
    return True


def _naive_pj(g, c):
    """A template restricted to g: some W of core vertices with an induced
    copy of J[W] in g, and a part for every other vertex, such that each
    copied core vertex v meets the vertices of part phi(v) all or none as
    alpha(v) says, and each part is a clique (beta 1) or independent
    (beta 0).  The missing core vertices can always be added back, so this
    is P(J) membership."""
    n, k, l = g.n, c.j.n, c.l
    kinds = ["clique" if b else "independent" for b in c.beta]
    for size in range(min(k, n) + 1):
        for w in combinations(range(k), size):
            for img in permutations(range(n), size):
                pairs = list(zip(w, img))
                if any(c.j.rows[a] >> b & 1 != g.rows[x] >> y & 1
                       for (a, x), (b, y) in combinations(pairs, 2)):
                    continue
                rest = [x for x in range(n) if x not in img]
                for assign in product(range(l), repeat=len(rest)):
                    parts = [[x for x, i in zip(rest, assign) if i == p]
                             for p in range(l)]
                    if (all(_homog(g, parts[p], kinds[p]) for p in range(l))
                            and all(g.rows[x] >> y & 1 == c.alpha[v]
                                    for v, x in pairs
                                    for y in parts[c.phi[v]])):
                        return True
    return False


def _naive_in_reduced_product(k, h, s, t):
    """k in P(iota(h), H(s, t)): some assignment of k's vertices to s
    independent parts, t clique parts and one part inducing a graph that
    embeds in h (checked last, as it is the dearest)."""
    return _naive_partition(
        k, ["independent"] * s + ["clique"] * t + ["iota"],
        lambda part, kind: (brute_embeds_induced(induced_subgraph(k, part), h)
                            if kind == "iota" else _homog(k, part, kind)))


def _naive_partition(g, slots, check):
    n = g.n
    # product(range(k), repeat=0) yields one empty assignment, which is the
    # all-empty partition; empty parts still get checked (K0 membership).
    for assign in product(range(len(slots)), repeat=n):
        parts = [[v for v in range(n) if assign[v] == i]
                 for i in range(len(slots))]
        if all(check(tuple(parts[i]), slots[i]) for i in range(len(slots))):
            return True
    return False


def count_partitions(g, fam, l):
    """Unordered partitions of V(g) into l parts (empty ones allowed), each
    inducing a member of fam.  Every assignment whose parts open in
    first-use order stands for one unordered partition; all l parts are
    checked with naive_member."""
    n = g.n
    count = 0
    for assign in product(range(l), repeat=n):
        if any(assign[v] > max(assign[:v], default=-1) + 1 for v in range(n)):
            continue
        parts = [[v for v in range(n) if assign[v] == i] for i in range(l)]
        if all(naive_member(induced_subgraph(g, p), fam) for p in parts):
            count += 1
    return count


def verify_partition_certificate(g, fam, cert):
    """Re-check a PartitionCertificate against the graph, independently."""
    parts = cert.parts
    allv = sorted(v for p in parts for v in p)
    if allv != list(range(g.n)):
        return False
    if isinstance(fam, HST):
        kinds = ["independent"] * fam.s + ["clique"] * fam.t
        return all(_homog(g, p, k) for p, k in zip(parts, kinds))
    if isinstance(fam, PartitionProduct):
        return all(naive_member(induced_subgraph(g, sorted(p)), f)
                   for p, f in zip(parts, fam.factors))
    return False


def bfs_subset_orbit_reps(n, generators, masks=None):
    """Least mask of each subset orbit, ascending, by a plain BFS that
    images each mask one bit at a time (only the orbits meeting masks)."""
    return sorted(bfs_subset_orbits(n, generators, masks))


def bfs_subset_orbits(n, generators, masks=None):
    """{least mask of the orbit: orbit size} for each subset orbit meeting
    masks, by the same BFS."""
    reps = {}
    seen = set()
    for m in (range(1 << n) if masks is None else masks):
        if m in seen:
            continue
        orbit = {m}
        frontier = [m]
        while frontier:
            x = frontier.pop()
            for p in generators:
                y = 0
                for v in range(n):
                    if x >> v & 1:
                        y |= 1 << p[v]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        reps[min(orbit)] = len(orbit)
    return reps


def bfs_two_color(g):
    """[mask0, mask1] of a proper 2-coloring by a dict-keyed BFS from
    each component's least uncoloured vertex (coloured 0), or None."""
    color = {}
    for root in range(g.n):
        if root in color:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v in range(g.n):
                if not g.rows[u] >> v & 1:
                    continue
                if v not in color:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    return [sum(1 << v for v in color if color[v] == c) for c in (0, 1)]


def brute_first_embedding(pattern, host, pin=None):
    """The first image tuple in itertools.permutations order, which is the
    lexicographically least witness, under which host induces pattern.

    image[v] is the host vertex of pattern vertex v.  pin = (v, w) demands
    image[v] == w.  None when no image works.
    """
    k = pattern.n
    pairs = list(combinations(range(k), 2))
    for image in permutations(range(host.n), k):
        if pin is not None and image[pin[0]] != pin[1]:
            continue
        if all(host.rows[image[u]] >> image[v] & 1 == pattern.rows[u] >> v & 1
               for u, v in pairs):
            return image
    return None


def naive_refine(rows, cells):
    """Equitable refinement counted vertex by vertex, with every cell
    queued: pop a splitter, group each cell's vertices by their neighbour
    count against it, replace the cell by its groups in ascending count
    order and queue them."""
    queue = list(cells)
    while queue:
        splitter = queue.pop()
        newcells = []
        touched = False
        for cell in cells:
            if cell.bit_count() <= 1:
                newcells.append(cell)
                continue
            groups = {}
            m = cell
            while m:
                b = m & -m
                m ^= b
                k = (rows[b.bit_length() - 1] & splitter).bit_count()
                groups[k] = groups.get(k, 0) | b
            if len(groups) == 1:
                newcells.append(cell)
            else:
                touched = True
                for k in sorted(groups):
                    sub = groups[k]
                    newcells.append(sub)
                    queue.append(sub)
        if touched:
            cells = newcells
    return cells


def brute_twin_class(rows, mask):
    """Are the vertices of mask pairwise twins, N(u) - {v} = N(v) - {u}?"""
    vs = [v for v in range(len(rows)) if mask >> v & 1]
    return all(rows[u] & ~(1 << v) == rows[v] & ~(1 << u)
               for u, v in combinations(vs, 2))


def apply_perm_to_mask(mask, perm):
    """Image of a vertex mask under perm, one bit at a time."""
    out = 0
    for v in range(len(perm)):
        if mask >> v & 1:
            out |= 1 << perm[v]
    return out


def all_reps_child_records(family, parents, n, budget_limit, counted,
                           within=None):
    """The augmentation step that decides the membership of every orbit
    representative: the (rows, gens, aut) records of the accepted children
    of the parent records, in the order the enumerator produces them, or
    when counted their (None, inside, aut), inside being the verdict of
    `within` on the child (None without one).  It shares the degree
    filter, the orbit reduction and the canonicity test with the
    enumerator, so it pins the no-good skips, the children read off the
    parent (Family._member_children), the counted level's |Aut| and its
    `within` verdicts and nothing else: every child it accepts has a
    canonical form, and every one is decided in `within`."""
    out = []
    nb = n + 1
    for rows, gens, _ in parents:
        degs = [r.bit_count() for r in rows]
        maxdeg = max(degs, default=0)
        deg_mask = [0] * (n + 2)
        for v, d in enumerate(degs):
            for t in range(d + 1):
                deg_mask[t] |= 1 << v
        survivors = []
        for sub in range(1 << n):
            t = sub.bit_count()
            if t >= maxdeg and not sub & deg_mask[t]:
                survivors.append(sub)
        parent = Graph.from_rows(rows)
        for sub in subset_orbit_reps(n, gens, survivors):
            child = add_vertex(parent, sub)
            if not family.membership(child, Budget(budget_limit),
                                     new_vertex_only=True).member:
                continue
            inv = vertex_invariant(child)
            if inv[n] != max(inv):
                continue
            cf = canonical_form(child)
            w = cf.labeling.index(nb - 1)
            if w != n and not vertex_orbit(n, cf.generators, nb) >> w & 1:
                continue
            lab = cf.labeling
            inv_lab = [0] * nb
            for i, p in enumerate(lab):
                inv_lab[p] = i
            gens_c = tuple(tuple(lab[p[inv_lab[q]]] for q in range(nb))
                           for p in cf.generators)
            out.append((cf.canon.rows, gens_c, cf.aut_order))
    if counted:
        return [(None, None if within is None else within.membership(
                    Graph.from_rows(rows), Budget(budget_limit)).member, aut)
                for rows, _, aut in out]
    return out


def double_count_labeled(family, members, n):
    """labeled(n + 1) of family by double counting over its level-n classes.

    A labeled member on n + 1 vertices is a labeled member P on the first n
    plus the neighbourhood r of the last one, so labeled(n + 1) is the sum
    over the classes P of (n! / |Aut P|) * ext(P), where ext(P) counts the
    subsets r with P + r in the family: orbit sizes of the Aut(P)-orbit
    representatives, found by BFS, each decided once by membership of the
    new vertex (P is a member).  It shares membership and the parents' generators and |Aut| with the
    enumerator, and neither its degree filter, its canonicity test nor the
    children's |Aut|.
    """
    total = 0
    for p in members:
        cf = canonical_form(p)
        ext = sum(size for rep, size in
                  bfs_subset_orbits(n, cf.generators).items()
                  if family.membership(add_vertex(p, rep),
                                    new_vertex_only=True).member)
        total += math.factorial(n) // cf.aut_order * ext
    return total


def constellation_host(c, crown_sizes):
    """A host admitting a template of the constellation c: each fiber
    system gets its own crown, no edges across parts beyond those of J.
    Part i occupies the fiber vertices (J labels) followed by its crown
    block."""
    crown_sizes = list(crown_sizes)
    if len(crown_sizes) != c.l or any(m < 0 for m in crown_sizes):
        raise ValidationError("need one crown size >= 0 per part")
    k = c.j.n
    n = k + sum(crown_sizes)
    rows = list(c.j.rows) + [0] * (n - k)
    base = k
    for i in range(c.l):
        m = crown_sizes[i]
        cmask = ((1 << m) - 1) << base
        for v in range(k):
            if c.phi[v] == i and c.alpha[v]:
                rows[v] |= cmask
                for w in range(base, base + m):
                    rows[w] |= 1 << v
        if c.beta[i]:
            for w in range(base, base + m):
                rows[w] |= cmask ^ (1 << w)
        base += m
    return Graph.from_rows(rows)


def brute_constellation_class_count(l, s):
    """Irreducible (l, s)-constellations up to equivalence, from the
    definitions alone: list every labeled one whose parts are opened in
    first-use order (so at most l parts, each of at most s vertices),
    and keep the least relabelling of each.  A part with an empty fiber
    is irreducible whatever its beta; such parts differ only in how many
    of them have beta 1."""
    classes = set()
    for k in range(l * s + 1):
        pairs = list(combinations(range(k), 2))
        for phi in _first_use_maps(k, l, s):
            used = max(phi, default=-1) + 1
            for ecode, acode, bcode in product(range(1 << len(pairs)),
                                               range(1 << k),
                                               range(1 << used)):
                rows = [0] * k
                for b, (u, v) in enumerate(pairs):
                    if ecode >> b & 1:
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
                alpha = [acode >> v & 1 for v in range(k)]
                beta = [bcode >> i & 1 for i in range(used)]
                if any(_removable(rows, phi, alpha, beta, v)
                       for v in range(k)):
                    continue
                least = _least_relabelling(rows, phi, alpha, beta)
                for ones in range(l - used + 1):
                    classes.add((least, ones))
    return len(classes)


def irreducible_by_vertex(rows, alpha, beta):
    """Star system irreducibility by the per-vertex rule: no core vertex v
    has alpha(v) = beta with N(v) exactly the other vertices of alpha 1."""
    ones = 0
    for v, a in enumerate(alpha):
        ones |= a << v
    return not any(a == beta and rows[v] == ones & ~(1 << v)
                   for v, a in enumerate(alpha))


def _first_use_maps(k, l, s):
    """Maps of vertices 0..k-1 to parts, a part opened only after every
    lower one, at most l parts and at most s vertices in each."""
    if k == 0:
        yield ()
        return
    for head in _first_use_maps(k - 1, l, s):
        opened = max(head, default=-1) + 1
        for i in range(min(opened + 1, l)):
            if head.count(i) < s:
                yield head + (i,)


def _removable(rows, phi, alpha, beta, v):
    """Core vertex v could join its part's crown: it meets the crown as
    the crown meets itself, and each other vertex of its part meets v
    as that vertex meets the crown."""
    return alpha[v] == beta[phi[v]] and all(
        (rows[u] >> v & 1) == alpha[u]
        for u in range(len(rows)) if u != v and phi[u] == phi[v])


def _least_relabelling(rows, phi, alpha, beta):
    """The least (rows, parts, alpha, betas) over every order of the
    vertices, parts renamed in order of first use."""
    best = None
    for order in permutations(range(len(rows))):
        at = {v: p for p, v in enumerate(order)}
        parts = {}
        for v in order:
            parts.setdefault(phi[v], len(parts))
        code = (tuple(sum(1 << at[u] for u in range(len(rows))
                          if rows[v] >> u & 1) for v in order),
                tuple(parts[phi[v]] for v in order),
                tuple(alpha[v] for v in order),
                tuple(beta[i] for i in sorted(parts, key=parts.get)))
        if best is None or code < best:
            best = code
    return best
