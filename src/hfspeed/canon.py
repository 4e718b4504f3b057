"""Canonical labelings, automorphism groups, orbit machinery.

Individualization-refinement in the style of nauty, scaled down to n <= 16:
equitable refinement by neighbour counts, target cell = first non-singleton,
leaves compared by the packed upper triangle of the relabeled graph, subtree
pruning via automorphisms discovered at repeated leaves.  The canonical form
is the least leaf encoding.

A leaf equal to the first one gives an automorphism fixing the path prefix
the two share, so the subtree below their branching is an image of one
searched in full and holds no smaller leaf: the search backjumps to the
first-path node it branched from (nauty's rule), and a symmetric group on
n points costs n - 1 generators.  A first-path sibling v that is a twin
of the first-path vertex w (same neighbours apart from each other) is not
descended into: its leftmost leaf is the (w v)-image of the first, which
would give the generator (w v) and the same backjump, unless a deeper
first-path target cell holds v and a vertex between w and v.  When a
first-path target cell T = {t1 < ... < tk} is a twin class, every other
cell sees all of T or none, so individualizing t1, t2, ... splits
nothing: the search descends once, unrefined, to T's singletons, then
records (t(k-1) tk), ..., (t1 t2) as those levels' twin siblings would.

Refinement splits cells by bit masks and skips splitters that cannot
split anything.  A singleton splitter splits each cell with two mask
operations; a larger splitter's neighbour counts are summed in bit planes
and cells split plane by plane, which keeps the subcells in ascending
count order.  Below the root only the two cells made by individualizing a
vertex are queued: every other cell of the child is a cell of the
equitable partition just refined, and a cell of an equitable partition
cannot split any cell of a refinement of it, whenever it is popped.  The
splitters that remain are popped in the same order as with every cell
queued, so the ordered partitions, the leaves, the generators and |Aut|
are the ones that full queueing gives.  A leaf's encoding reads each
row's later neighbours by their bits rather than testing every pair.

Initial cells are ordered by a cheap vertex invariant (degree, then sorted
neighbour degrees) ascending, and refinement only ever splits cells in
place, so the vertex in the highest canonical position always carries the
maximum invariant.  The enumerator relies on that to reject most candidate
children without running this search.

|Aut| is read off the search tree, as nauty's grpsize: the product over
the first path of the orbit size of each individualized vertex under the
discovered generators that fix the path before it.  The orbit pruning
guarantees those generators are complete at every first-path node by the
time the search returns, so no group computation is needed.  group_order
(a small deterministic Schreier-Sims) remains a public helper and the
tests' oracle for that product.

subset_orbits images masks through two half-width lookup tables per
generator, so one image costs two table reads instead of a bit loop, and
counts each orbit's size as it walks it.
"""

from __future__ import annotations

from .graphs import Graph, bits, relabel


class CanonicalForm:
    """Canonically relabeled copy plus the data the enumerator needs."""

    __slots__ = ("canon", "labeling", "aut_order", "generators")

    def __init__(self, canon, labeling, aut_order, generators):
        self.canon = canon            # Graph on canonical labels
        self.labeling = labeling      # labeling[old] = canonical position
        self.aut_order = aut_order    # |Aut| of the input graph
        self.generators = generators  # Aut generators on the input labels

    def __repr__(self):
        return f"CanonicalForm(n={self.canon.n}, aut={self.aut_order})"


def vertex_invariant(g: Graph):
    """Per-vertex (degree, sorted neighbour degrees); isomorphism-invariant."""
    rows = g.rows
    deg = [r.bit_count() for r in rows]
    out = []
    for m in rows:
        nd = []
        while m:
            b = m & -m
            m ^= b
            nd.append(deg[b.bit_length() - 1])
        nd.sort()
        out.append((len(nd), tuple(nd)))
    return tuple(out)


def _refine(rows, cells, queue=None):
    """Equitable refinement of an ordered partition (list of cell masks).

    Splitters are popped from the end of `queue` (all cells by default).
    Each pop splits every cell in place into subcells ordered by neighbour
    count against the splitter, ascending, and pushes the subcells in that
    order.  The rule is isomorphism-invariant, so two isomorphic colored
    graphs refine along mirror-image partitions.

    Four shortcuts leave that sequence of partitions unchanged:
    - a singleton splitter {s} splits a cell into its non-neighbours and
      its neighbours of s (counts 0 and 1) with two mask operations;
    - a larger splitter's counts are added up in bit planes (ripple carry
      over masks), and a cell is split by the planes from the most
      significant down, low half first, which lists the subcells in
      ascending count order;
    - below the root, search queues only the two new cells of the child:
      every other cell belongs to the equitable parent partition, so it
      splits nothing whenever it would have been popped;
    - refinement stops once the partition is discrete.
    The first two make the same splits with fewer operations and the last
    two skip only pops that split nothing, so the result is the one that
    queueing every cell and counting vertex by vertex gives.
    """
    n = len(rows)
    if queue is None:
        queue = list(cells)
    while queue and len(cells) < n:
        splitter = queue.pop()
        newcells = []
        if not splitter & (splitter - 1):
            row = rows[splitter.bit_length() - 1]
            for cell in cells:
                hi = cell & row
                if hi and hi != cell:
                    lo = cell ^ hi
                    newcells += (lo, hi)
                    queue += (lo, hi)
                else:
                    newcells.append(cell)
            cells = newcells
            continue
        # planes[i] holds bit i of every vertex's count into the splitter
        planes = []
        m = splitter
        while m:
            b = m & -m
            m ^= b
            carry = rows[b.bit_length() - 1]
            for i, p in enumerate(planes):
                planes[i] = p ^ carry
                carry &= p
                if not carry:
                    break
            else:
                if carry:
                    planes.append(carry)
        planes.reverse()
        for cell in cells:
            for p in planes:
                hi = cell & p
                if hi and hi != cell:
                    break
            else:
                newcells.append(cell)
                continue
            parts = [cell]
            for p in planes:
                split = []
                for part in parts:
                    hi = part & p
                    if hi and hi != part:
                        split += (part ^ hi, hi)
                    else:
                        split.append(part)
                parts = split
            newcells += parts
            queue += parts
        cells = newcells
    return cells


def _encode_discrete(rows, cells):
    """Packed upper triangle of the graph relabeled by a discrete ordered
    partition, row-major over positions, most significant bit first."""
    n = len(cells)
    order = [c.bit_length() - 1 for c in cells]
    # weight[v]: the bit that v's position takes in a row segment
    weight = [0] * n
    for p, v in enumerate(order):
        weight[v] = 1 << (n - 1 - p)
    enc = 0
    later = (1 << n) - 1
    for p, v in enumerate(order):
        later ^= 1 << v
        m = rows[v] & later
        seg = 0
        while m:
            b = m & -m
            m ^= b
            seg |= weight[b.bit_length() - 1]
        enc = enc << (n - 1 - p) | seg
    return enc


def _twin_class(rows, mask):
    """Are the vertices of mask pairwise twins (rows equal outside mask,
    mask independent or a clique), so that swapping two is in Aut?"""
    top = rows[mask.bit_length() - 1]
    outside, clique = top & ~mask, top & mask
    return all(rows[v] & ~mask == outside
               and rows[v] & mask == (mask ^ 1 << v if clique else 0)
               for v in bits(mask))


def _compose(a, b):
    """Permutation a after b: (a*b)[i] = a[b[i]]."""
    return tuple(map(a.__getitem__, b))


def _inverse(a):
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def canonical_form(g: Graph, cells=None) -> CanonicalForm:
    """Canonical form of g, optionally respecting an initial ordered partition.

    With `cells` (ordered list of vertex masks covering V) the search only
    considers labelings whose position order refines the given cell order,
    i.e. canonical forms of the colored graph.  Generators then preserve the
    coloring.
    """
    return _canonical_form(g, cells, vertex_invariant(g))


def _canonical_form(g, cells, inv):
    """canonical_form(g, cells), given g's vertex_invariant inv."""
    n = g.n
    if n == 0:
        return CanonicalForm(g, (), 1, ())
    rows = g.rows

    if cells is None:
        groups = {}
        for v in range(n):
            groups.setdefault(inv[v], 0)
            groups[inv[v]] |= 1 << v
        initial = [groups[k] for k in sorted(groups)]
    else:
        union = 0
        for c in cells:
            union |= c
        if (union != (1 << n) - 1
                or sum(c.bit_count() for c in cells) != n):
            raise ValueError("initial cells must partition the vertex set")
        initial = []
        for cell in cells:
            groups = {}
            for v in bits(cell):
                groups.setdefault(inv[v], 0)
                groups[inv[v]] |= 1 << v
            initial.extend(groups[k] for k in sorted(groups))

    best = None          # (enc, labeling)
    first = None         # (enc, labeling, path) at the first leaf
    first_cells = []     # first_cells[d]: target cell of the first path at d
    gens = []
    fixed = []           # fixed[i]: mask of the points gens[i] fixes

    # sigma: a^-1 b for labelings a, b giving the same labeled graph, or
    # the swap of two twins
    def record_aut(sigma):
        if sigma not in gens:
            fm = 0
            for i in range(n):
                if sigma[i] == i:
                    fm |= 1 << i
            if fm != (1 << n) - 1:
                gens.append(sigma)
                fixed.append(fm)

    def orbit_hit(v, tried, pmask):
        # is v in the orbit of a tried vertex under gens fixing the prefix?
        fixers = [p for p, fm in zip(gens, fixed) if fm & pmask == pmask]
        if not fixers:
            return False
        seen = set(tried)
        frontier = list(tried)
        while frontier:
            x = frontier.pop()
            for p in fixers:
                y = p[x]
                if y not in seen:
                    if y == v:
                        return True
                    seen.add(y)
                    frontier.append(y)
        return v in seen

    def swap(a, b):
        p = list(range(n))
        p[a], p[b] = b, a
        return tuple(p)

    def search(cells, prefix, pmask):  # cells come refined
        nonlocal best, first
        if len(cells) == n:
            enc = _encode_discrete(rows, cells)
            if first is not None and enc > best[0] and enc != first[0]:
                return
            lab = [0] * n
            for pos, cell in enumerate(cells):
                lab[cell.bit_length() - 1] = pos
            lab = tuple(lab)
            if first is None:
                first = (enc, lab, prefix)
                best = (enc, lab)
                return
            # best only moves to a smaller leaf, so a leaf equal to the
            # first one is equal to best only while best is the first
            if enc == first[0]:
                record_aut(_compose(_inverse(first[1]), lab))
                # back to the first-path node this path branched from
                k = 0
                while prefix[k] == first[2][k]:
                    k += 1
                return k
            elif enc < best[0]:
                best = (enc, lab)
            elif enc == best[0] and lab != best[1]:
                record_aut(_compose(_inverse(best[1]), lab))
            return
        target = 0
        while not cells[target] & (cells[target] - 1):
            target += 1
        cell = cells[target]
        head = cells[:target]
        tail = cells[target + 1:]
        on_first = first is None
        if on_first:
            first_cells.append(cell)
            if _twin_class(rows, cell):
                # individualizing a twin splits nothing: take t1..t(k-1)
                # at once, then record what each level's sibling would
                chain = list(bits(cell))
                rest = cell
                for t in chain[:-2]:
                    rest ^= 1 << t
                    first_cells.append(rest)
                k = search(head + [1 << t for t in chain] + tail,
                           prefix + tuple(chain[:-1]),
                           pmask | cell ^ 1 << chain[-1])
                if k is not None and k < len(prefix):
                    return k
                for i in range(len(chain) - 1, 0, -1):
                    record_aut(swap(chain[i - 1], chain[i]))
                return
        tried = []
        m = cell
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            if tried and gens and orbit_hit(v, tried, pmask):
                continue
            tried.append(v)
            if on_first and len(tried) > 1:
                w = tried[0]
                between = (1 << v) - (2 << w)
                if (rows[v] & ~(1 << w) == rows[w] & ~(1 << v)
                        and not any(c >> v & 1 and c & between
                                    for c in first_cells[len(prefix) + 1:])):
                    # twins: the descent would only record (w v)
                    record_aut(swap(w, v))
                    continue
            # every other cell of the child is a cell of the equitable
            # partition just refined, so it cannot split anything
            k = search(_refine(rows, head + [b, cell ^ b] + tail,
                               [b, cell ^ b]),
                       prefix + (v,), pmask | b)
            if k is not None and k < len(prefix):
                return k

    search(_refine(rows, initial), (), 0)
    lab = best[1]
    canon = relabel(g, lab)
    return CanonicalForm(canon, lab, _first_path_order(first[2], gens, n),
                         tuple(gens))


def _first_path_order(path, gens, n):
    """|<gens>| as the product over the first path of |orbit of path[i]|
    under the generators fixing path[:i] pointwise.

    Every first-path child not pruned by orbit_hit either is a twin of
    path[i] (a sibling or in a twin chain), whose transposition fixes
    path[:i] and maps path[i] onto it,
    or had its subtree searched up to a leaf equal to the first one, if
    any, whose automorphism does the same; the backjump skips only the
    rest of that subtree.  So these orbits are the full stabilizer orbits,
    and the stabilizer of the whole path is trivial (a discrete partition).
    """
    order = 1
    fixers = gens
    for v in path:
        order *= vertex_orbit(v, fixers, n).bit_count()
        fixers = [p for p in fixers if p[v] == v]
    return order


def canonical_graph(g: Graph) -> Graph:
    return canonical_form(g).canon


# ---------------------------------------------------------------------------
# permutation groups

def group_order(generators, n: int) -> int:
    """Order of the group generated by `generators` (Schreier-Sims).

    Deterministic incremental version with sifting; degree is tiny here so
    no bells, no whistles.
    """
    ident = tuple(range(n))
    gens = sorted({tuple(p) for p in generators} - {ident})
    if not gens:
        return 1

    base = []      # base points
    gens_at = []   # gens_at[i]: strong generators fixing base[:i]
    orbits = []    # orbits[i]: point -> transversal perm taking base[i] there

    def rebuild_orbit(i):
        orb = orbits[i]
        frontier = list(orb)
        while frontier:
            x = frontier.pop()
            tx = orb[x]
            for p in gens_at[i]:
                y = p[x]
                if y not in orb:
                    orb[y] = _compose(p, tx)
                    frontier.append(y)

    def sift(p):
        for i, b in enumerate(base):
            x = p[b]
            if x != b:
                if x not in orbits[i]:
                    return p, i
                p = _compose(_inverse(orbits[i][x]), p)
        return p, len(base)

    def add_gen(p):
        # the deepest level that p's residue changed, or -1
        residue, level = sift(p)
        if residue == ident:
            return -1
        if level == len(base):
            pt = min(i for i in range(n) if residue[i] != i)
            base.append(pt)
            gens_at.append([])
            orbits.append({pt: ident})
        for j in range(level + 1):
            gens_at[j].append(residue)
            rebuild_orbit(j)
        return level

    for p in gens:
        add_gen(p)

    # verify the Schreier condition from the deepest level up: the levels
    # deeper than i are complete, and an addition at level j changes the
    # levels 0..j only, so the check resumes at j.  Orbits only grow and
    # keep their transversal entries, so a Schreier generator that once
    # sifted to the identity still does: done[i] holds its (point,
    # generator) pairs
    done = [set() for _ in range(n)]
    i = len(base) - 1
    while i >= 0:
        j = -1
        for x, tx in list(orbits[i].items()):
            for k, p in enumerate(gens_at[i]):
                if (x, k) in done[i]:
                    continue
                j = add_gen(_compose(_inverse(orbits[i][p[x]]), _compose(p, tx)))
                if j >= 0:
                    break
                done[i].add((x, k))
            if j >= 0:
                break
        i = j if j >= 0 else i - 1

    order = 1
    for orb in orbits:
        order *= len(orb)
    return order


def vertex_orbit(v: int, generators, n: int):
    """Orbit of vertex v under the group generated by `generators`, as a mask."""
    seen = 1 << v
    frontier = [v]
    while frontier:
        x = frontier.pop()
        for p in generators:
            y = p[x]
            if not seen >> y & 1:
                seen |= 1 << y
                frontier.append(y)
    return seen


def _mask_tables(perm, n):
    """Half-width image tables: the image of x is lo[x & lomask] | hi[x >> h]."""
    def table(offset, width):
        t = [0] * (1 << width)
        for x in range(1, 1 << width):
            low = x & -x
            t[x] = t[x ^ low] | 1 << perm[offset + low.bit_length() - 1]
        return t
    h = n // 2
    return table(0, h), table(h, n - h)


def subset_orbits(n: int, generators, masks=None):
    """{least mask of the orbit: orbit size} for each orbit of subsets of
    [n] under the generated group, in ascending order of the least mask.

    masks, when given, must be an ascending list closed under the group
    (a union of orbits); only its orbits are reported, and their sizes
    sum to len(masks).  Without it the whole powerset is reduced.  With
    no generators every mask is its own orbit.
    """
    if masks is None:
        masks = range(1 << n)
    if not generators:
        return dict.fromkeys(masks, 1)
    h = n // 2
    lomask = (1 << h) - 1
    tables = [_mask_tables(p, n) for p in generators]
    orbits = {}
    seen = bytearray(1 << n)
    for m in masks:
        if seen[m]:
            continue
        seen[m] = 1
        size = 1
        frontier = [m]
        while frontier:
            x = frontier.pop()
            xl = x & lomask
            xh = x >> h
            for lo, hi in tables:
                y = lo[xl] | hi[xh]
                if not seen[y]:
                    seen[y] = 1
                    size += 1
                    frontier.append(y)
        orbits[m] = size
    return orbits


def subset_orbit_reps(n: int, generators, masks=None):
    """The least mask of each orbit of subset_orbits, listed ascending."""
    return list(subset_orbits(n, generators, masks))
