"""The embedding kernel and the 2-colouring against brute force, and
pinned search results.

The brute-force checks compare first witnesses, not just existence: the
witness is a certificate, so the kernel must return the lexicographically
least one.  The pinned battery records (witness or certificate, nodes) for
every caller of the kernel and of the crown assignment; node counts feed
budget-exhaustion points and transcript hashes, so they must not move.
"""

import hashlib
import random

from hfspeed.enumeration import enumerate_family
from hfspeed.errors import ResourceLimitError
from hfspeed.families import ALL, Forb, Iota, _two_color
from hfspeed.graphs import (
    Graph, _embed, complement, complete, copies, cycle, edgeless,
    find_induced_embedding, induced_subgraph, path, relabel, star,
)
from hfspeed.stars import (
    Constellation, StarSystem, find_template, is_member_PJ,
)
from oracles import (
    all_labeled_graphs, bfs_two_color, brute_first_embedding,
    constellation_host,
)

PATTERNS = [g for n in range(5) for g in all_labeled_graphs(n)]
# every labeled host to 4 vertices, one host per class at 5 and 6
_CLASSES = enumerate_family(ALL, 6).members
HOSTS = ([g for n in range(5) for g in all_labeled_graphs(n)]
         + _CLASSES[5] + _CLASSES[6])


def test_induced_first_witness_matches_brute_force():
    for p in PATTERNS:
        for h in HOSTS:
            assert find_induced_embedding(p, h) == brute_first_embedding(p, h)


def test_pinned_first_witness_matches_brute_force():
    for p in PATTERNS:
        for h in HOSTS[:-len(_CLASSES[6])]:  # hosts up to 5 vertices
            for pv in range(p.n):
                order = [pv] + [v for v in range(p.n) if v != pv]
                for hv in range(h.n):
                    got = _embed(p.rows, h, order, pin=hv)
                    want = brute_first_embedding(p, h, pin=(pv, hv))
                    assert got == want, (p, h, pv, hv)


def test_two_color_matches_bfs():
    # every class to 7 vertices, then seeded random graphs to 12, half of
    # them bipartite by construction so that both answers get exercised
    graphs = [g for level in enumerate_family(ALL, 7).members for g in level]
    rng = random.Random(24)
    for i in range(2000):
        n = rng.randint(1, 12)
        side = [rng.randint(0, 1) for _ in range(n)]
        rows = [0] * n
        for u in range(n):
            for v in range(u):
                if (i % 2 or side[u] != side[v]) and rng.random() < 0.3:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        graphs.append(Graph.from_rows(rows))
    assert sum(bfs_two_color(g) is not None for g in graphs) > 1000
    for g in graphs:
        assert _two_color(g) == bfs_two_color(g), g.rows


# ---------------------------------------------------------------------------
# pinned battery

DOM = StarSystem(complete(1), (1,), 0)
K2J = StarSystem(complete(2), (1, 1), 0)
BIP = Constellation(Graph(0), (), (), (0, 0))
CONSTELLATIONS = [
    DOM.as_constellation(), K2J.as_constellation(), BIP,
    Constellation(complete(2), (0, 1), (1, 0), (0, 1)),
    Constellation(edgeless(2), (0, 1), (1, 1), (0, 0)),
    Constellation(path(3), (0, 0, 1), (1, 0, 1), (1, 0)),
]
FORBS = [Forb([complete(3)]), Forb([cycle(4), path(4)]),
         Forb([copies(2, complete(2)), cycle(5)]), Forb([star(3)])]


def _hosts():
    """Named graphs, seeded random graphs, and shuffled template hosts."""
    rng = random.Random(20201)
    out = [cycle(7), complement(cycle(7)), star(4), path(6), complete(4)]
    for n in (6, 7, 7, 8, 8):
        out.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < 0.5]))
    for c in CONSTELLATIONS:
        h = constellation_host(c, [2] * c.l)
        perm = list(range(h.n))
        rng.shuffle(perm)
        out.append(relabel(h, perm))
    return out


def _template_nodes(g, c):
    """(template, least budget that finds it)."""
    lo, hi = 1, 1
    while True:
        try:
            t = find_template(g, c, budget_limit=hi)
            break
        except ResourceLimitError:
            lo, hi = hi + 1, hi * 2
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            find_template(g, c, budget_limit=mid)
            hi = mid
        except ResourceLimitError:
            lo = mid + 1
    return t, hi


def _battery():
    """Search results per kind: (witness or certificate, nodes) rows."""
    hosts = _hosts()
    rows = {"forb": [], "iota": [], "pj": [], "template": []}
    for g in hosts:
        for f in FORBS:
            for anchored in (False, True):
                r = f.membership(g, new_vertex_only=anchored)
                rows["forb"].append((r.certificate, r.nodes))
        for c in CONSTELLATIONS:
            r = is_member_PJ(g, c)
            rows["pj"].append((r.certificate, r.nodes))
            t, nodes = _template_nodes(g, c)
            rows["template"].append(
                (None if t is None else (t.psi, t.parts), nodes))
        for h in hosts[:5]:
            r = Iota(h).membership(induced_subgraph(g, range(min(g.n, 5))))
            rows["iota"].append((r.certificate, r.nodes))
    return rows


def _digest(rows):
    """(rows, members, total nodes, hash of every row) for one kind."""
    blob = repr(rows).encode()
    return (len(rows), sum(r[0] is not None for r in rows),
            sum(r[1] for r in rows), hashlib.sha256(blob).hexdigest()[:16])


# recorded before the searches moved onto the shared kernels
PINNED = {
    "forb": (128, 56, 1341, "dc718b4ce8da28e9"),
    "iota": (80, 18, 455, "894997aee2af9c6f"),
    "pj": (96, 43, 7796, "74a65ab99490c8d4"),
    "template": (96, 24, 3608, "bb2040728ac8b1af"),
}


def test_pinned_battery():
    got = {kind: _digest(rows) for kind, rows in _battery().items()}
    assert got == PINNED
