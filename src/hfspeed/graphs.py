"""Small graphs as immutable bitset adjacency rows.

A graph on n vertices has vertex set 0..n-1.  Row v is a Python int whose
bit u is set iff uv is an edge, so adjacency tests, neighbourhood
intersections and subset logic are single int operations.  The hard cap of
64 vertices keeps rows word-sized; everything at desk scale (n <= 16 for
enumeration) is far below it.

Two backtracks serve the whole package.  Every induced-embedding search
(forbidden patterns, pinned or not, iota, and the core embeddings of P(J)
and templates) runs on _embed.  Every split of vertices into parts that
must each stay independent or a clique (H(s, t) and the crowns of P(J)
and templates) runs on _typed_parts.
"""

from __future__ import annotations

from itertools import combinations

from .errors import CapacityError, ValidationError

MAX_VERTICES = 64


def bits(mask: int):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Immutable undirected graph, no loops, no multi-edges."""

    __slots__ = ("n", "rows", "_hash")

    def __init__(self, n: int, edges=()):
        if n < 0 or n > MAX_VERTICES:
            raise CapacityError(f"graph order {n} outside 0..{MAX_VERTICES}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValidationError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "_hash", hash((n,) + tuple(rows)))

    @classmethod
    def from_rows(cls, rows) -> "Graph":
        """Build from a symmetric adjacency row tuple (trusted caller)."""
        g = object.__new__(cls)
        rows = tuple(rows)
        object.__setattr__(g, "n", len(rows))
        object.__setattr__(g, "rows", rows)
        object.__setattr__(g, "_hash", hash((len(rows),) + rows))
        return g

    def __setattr__(self, *a):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return (Graph.from_rows, (self.rows,))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self):
        return tuple(r.bit_count() for r in self.rows)

    def edges(self):
        for u in range(self.n):
            m = self.rows[u] >> (u + 1) << (u + 1)
            for v in bits(m):
                yield (u, v)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph({self.n}, {sorted(self.edges())})"


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph induced on `vertices`, whose order fixes the new labels;
    row bits map through {1 << u: 1 << label}.  Repeats are refused."""
    vs = list(vertices)
    label = {}
    vmask = 0
    for i, u in enumerate(vs):
        label[1 << u] = 1 << i
        vmask |= 1 << u
    if len(label) != len(vs):
        raise ValidationError("repeated vertex in induced_subgraph")
    rows = []
    for u in vs:
        m = g.rows[u] & vmask
        r = 0
        while m:
            x = m & -m
            r |= label[x]
            m ^= x
        rows.append(r)
    return Graph.from_rows(rows)


def delete_vertex(g: Graph, v: int) -> Graph:
    return induced_subgraph(g, [u for u in range(g.n) if u != v])


def complement(g: Graph) -> Graph:
    full = g.full_mask()
    return Graph.from_rows(tuple((full ^ r ^ (1 << v)) for v, r in enumerate(g.rows)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    if g.n + h.n > MAX_VERTICES:
        raise CapacityError(f"union order {g.n + h.n} exceeds {MAX_VERTICES}")
    rows = list(g.rows) + [r << g.n for r in h.rows]
    return Graph.from_rows(rows)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides."""
    if g.n + h.n > MAX_VERTICES:
        raise CapacityError(f"join order {g.n + h.n} exceeds {MAX_VERTICES}")
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    rows = [r | hmask for r in g.rows] + [(r << g.n) | gmask for r in h.rows]
    return Graph.from_rows(rows)


def relabel(g: Graph, perm) -> Graph:
    """Image of g under the permutation perm, with perm[old] = new."""
    rows = [0] * g.n
    for v, r in enumerate(g.rows):
        m = 0
        while r:
            b = r & -r
            r ^= b
            m |= 1 << perm[b.bit_length() - 1]
        rows[perm[v]] = m
    return Graph.from_rows(rows)


def add_vertex(g: Graph, neighbours_mask: int) -> Graph:
    """Extend g by one vertex (new label n) with the given neighbourhood."""
    n = g.n
    if n + 1 > MAX_VERTICES:
        raise CapacityError("extension exceeds vertex cap")
    if neighbours_mask >> n:
        raise ValidationError("neighbourhood mask out of range")
    rows = list(g.rows)
    for u in bits(neighbours_mask):
        rows[u] |= 1 << n
    rows.append(neighbours_mask)
    return Graph.from_rows(rows)


def components(g: Graph):
    """Connected components as vertex masks, ordered by least vertex."""
    seen = 0
    out = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= g.rows[u]
            frontier = nxt & ~comp
            comp |= frontier
        out.append(comp)
        seen |= comp
    return out


def co_components(g: Graph):
    return components(complement(g))


# ---------------------------------------------------------------------------
# named constructions

def edgeless(n: int) -> Graph:
    return Graph(n)


def complete(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def path(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValidationError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves: int) -> Graph:
    """K_{1,leaves}: vertex 0 is the centre."""
    return Graph(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def matching(k: int) -> Graph:
    """k disjoint edges."""
    return Graph(2 * k, ((2 * i, 2 * i + 1) for i in range(k)))


def copies(k: int, g: Graph) -> Graph:
    out = Graph(0)
    for _ in range(k):
        out = disjoint_union(out, g)
    return out


# ---------------------------------------------------------------------------
# induced embeddings

def _embed(prow, host: Graph, order, pin=None, budget=None, accept=None):
    """The one induced-embedding backtrack.

    Maps the pattern vertices of `order`, in that order, injectively into
    host so that each pair is an edge exactly when it is one in the
    pattern rows prow.  pin fixes the host vertex of order[0].
    Candidates are tried in increasing order, so the first witness is the
    lexicographically least; a candidate needs host degree at least its
    pattern degree among `order`.  With a budget, one node is spent per
    unused candidate passing that filter, before the adjacency test.

    eta[v] is the image of pattern vertex v (entries outside `order` are
    unused).  A complete eta goes to accept, whose first non-None answer
    ends the search; without accept that answer is tuple(eta).  Returns
    None when nothing is accepted.
    """
    k, n = len(order), host.n
    if k > n:
        return None
    hrow, hdeg = host.rows, host.degrees()
    placed = mask_of(order)
    eta = [0] * len(prow)
    full = (1 << n) - 1

    def extend(i, used):
        if i == k:
            return tuple(eta) if accept is None else accept(eta)
        v = order[i]
        row = prow[v]
        need = (row & placed).bit_count()
        free = fits = full & ~used
        for j in range(i):
            w = order[j]
            fits &= hrow[eta[w]] if row >> w & 1 else ~hrow[eta[w]]
        scan = fits if budget is None else free
        while scan:
            b = scan & -scan
            scan ^= b
            c = b.bit_length() - 1
            if hdeg[c] < need:
                continue
            if budget is not None:
                budget.spend()
                if not fits & b:
                    continue
            eta[v] = c
            got = extend(i + 1, used | b)
            if got is not None:
                return got
        return None

    if pin is None:
        return extend(0, 0)
    if hdeg[pin] < (prow[order[0]] & placed).bit_count():
        return None
    eta[order[0]] = pin
    return extend(1, 1 << pin)


def _typed_parts(rows, beta, ok, cored, todo, budget, accept=None):
    """The one typed-part backtrack.

    Places the vertices of the mask todo, lowest bit first, into parts:
    part i stays an independent set (beta[i] = 0) or a clique
    (beta[i] = 1) in the graph with adjacency rows, and takes only
    vertices in the mask ok[i].  Each vertex goes to the first part that
    takes it.  Empty parts outside the `cored` mask with equal beta are
    interchangeable, so only the first of each beta is tried.  One budget
    node per recursion step, none without a budget.  A complete split
    goes to accept, whose first true answer ends the search; without
    accept the first split does.  Returns the part masks or None.
    """
    l = len(beta)
    parts = [0] * l

    def rec(todo):
        if budget is not None:
            budget.spend()
        if not todo:
            return accept is None or accept(parts)
        b = todo & -todo
        row = rows[b.bit_length() - 1]
        todo ^= b
        tried_empty = 0
        for i in range(l):
            if not ok[i] & b:
                continue
            part = parts[i]
            if not part and not cored >> i & 1:
                tb = 1 << beta[i]
                if tried_empty & tb:
                    continue
                tried_empty |= tb
            if beta[i]:
                if row & part != part:
                    continue
            elif row & part:
                continue
            parts[i] = part | b
            if rec(todo):
                return True
            parts[i] = part
        return False

    return parts if rec(todo) else None


def find_induced_embedding(pattern: Graph, host: Graph):
    """First injective map eta with host[eta(V)] inducing exactly pattern.

    Pattern vertices are assigned in label order, candidates are tried in
    increasing order, so the witness is the lexicographically least one.
    Returns a tuple, or None.
    """
    return _embed(pattern.rows, host, range(pattern.n))
