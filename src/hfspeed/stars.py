"""Crowns, cores, star systems and constellations.

A crown is a homogeneous set that induces a complete or edgeless graph;
a core is what is left when a crown is removed.  Star systems (J, alpha,
beta) and their l-part generalization, constellations (J, phi, alpha,
beta), encode graphs with small cores; P(J) is the hereditary family of
induced subgraphs of all hosts admitting a template.

Membership in P(J) is decided without unbounded host search: a graph g
lies in P(J) iff some subset W of the core embeds into g and the rest of
g splits into crowns satisfying the alpha/beta conditions restricted to
g.  Everything a host adds outside g (missing core vertices, crown
padding) can be wired freely, so the restricted conditions are exact;
see is_member_PJ for the two-directional argument.  The core subset is
embedded by the induced-embedding kernel of hfspeed.graphs (_embed) and
the rest split into crowns by its typed-part kernel (_typed_parts, set up
by _assign_crowns); find_template is the same search with W = V(J).

Irreducible star systems, the components every grid is assembled
from, are sorted by (|J|, -beta, -|A1|, J's rows, alpha mask): J comes
canonically labelled from the enumeration of ALL and alpha is the least
mask of its Aut(J)-orbit, so that tuple already tells the classes apart
and no canonical form is computed per (J, alpha).  Core vertex v is
removable iff alpha's ones are N[v] (beta 1) or N(v) (beta 0), so one
set lookup in J's closed or open rows decides a system's irreducibility.

The crown definition quantifies over every vertex, including crown
vertices themselves; for those the "adjacent to all" branch is read as
all of the crown minus the vertex, which is the reading forced by the
requirement that the crown induce a complete or edgeless graph.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from functools import partial
from itertools import chain, combinations, combinations_with_replacement

from .canon import _twin_class, canonical_form, subset_orbits
from .errors import CapacityError, ResourceLimitError, ValidationError
from .families import (ALL, Budget, Family, HST, MembershipResult, _Kind,
                       _refusal)
from .graphs import (
    MAX_VERTICES, Graph, _embed, _typed_parts, bits, induced_subgraph,
    mask_of,
)
from . import graph6


# ---------------------------------------------------------------------------
# crowns and cores

def is_crown(g: Graph, mask: int) -> bool:
    """Is the vertex set `mask` a crown of g: are its vertices pairwise
    twins (canon._twin_class; see is_s_star)?  The empty set and single
    vertices are; a negative mask, or one with a bit at or above g.n,
    is refused."""
    if mask < 0 or mask >> g.n:
        raise ValidationError(f"mask {mask} is not within g's {g.n} vertices")
    return not mask or _twin_class(g.rows, mask)


def minimal_core(g: Graph, max_size: int | None = None):
    """(|S|, S) for the lex-least smallest S with V(G) - S a crown, or
    (None, None) when |S| exceeds max_size.

    V(G) - S is a largest twin class, keyed by open rows (false twins)
    and closed rows (true twins) as in _core_size.  Two such classes of
    2 or more vertices are disjoint, so the lex-least S leaves out the
    one whose least vertex is largest; with no twins that is vertex n - 1.
    """
    classes = {}
    for v, r in enumerate(g.rows):
        for key in (r, r | 1 << v):
            classes[key] = classes.get(key, 0) | 1 << v
    crown = max(classes.values(), default=0,
                key=lambda m: (m.bit_count(), m & -m))
    core = tuple(bits(g.full_mask() ^ crown))
    if max_size is not None and len(core) > max_size:
        return None, None
    return len(core), core


def _core_size(rows, drop=0) -> int:
    """Minimum core size of the graph on rows less the vertices in drop,
    n minus its largest twin class (one count takes both kinds: N(u) is
    never N[w], as w in N(u) would put u in N[w] = N(u))."""
    vs = [v for v in range(len(rows)) if not drop >> v & 1]
    twins = Counter(rows[v] & ~drop for v in vs)
    twins.update((rows[v] | 1 << v) & ~drop for v in vs)
    return len(vs) - max(twins.values(), default=0)


def is_s_star(g: Graph, s: int) -> bool:
    """Does g have a core of at most s vertices?

    A crown is exactly a set of pairwise false twins (equal rows: it is
    edgeless) or true twins (equal closed rows: complete), as every other
    vertex sees two crown vertices alike.  Both are equivalences, so a
    minimum core leaves out a largest twin class: n minus it is <= s.
    """
    return s >= 0 and _core_size(g.rows) <= s


# ---------------------------------------------------------------------------
# star systems

class StarSystem(namedtuple("StarSystem", "j alpha beta")):
    """A star system (J, alpha, beta).

    J is the core pattern; alpha[v] = 1 means core vertex v is joined to
    the whole crown (0: to none of it); beta = 1 means the crown is a
    clique (0: independent).  The constructor checks its fields; _make
    (and _replace, which goes through it) builds from fields already
    checked (alpha a 0/1 tuple, beta an int) without the checks.
    """

    __slots__ = ()

    def __new__(cls, j: Graph, alpha, beta):
        if not isinstance(j, Graph):
            raise ValidationError("star system needs a core graph")
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != j.n or any(a not in (0, 1) for a in alpha):
            raise ValidationError("alpha must map V(J) to {0,1}")
        if beta not in (0, 1):
            raise ValidationError("beta must be 0 or 1")
        return super().__new__(cls, j, alpha, int(beta))

    def as_constellation(self) -> "Constellation":
        return Constellation._make((self.j, (0,) * self.j.n, self.alpha,
                                    (self.beta,)))

    def to_json_obj(self):
        return {"j": graph6.encode(self.j), "alpha": list(self.alpha),
                "beta": self.beta}

    def canonical_key(self):
        return self.as_constellation().canonical_key()

    def __repr__(self):
        return (f"StarSystem({graph6.encode(self.j)!r}, "
                f"alpha={list(self.alpha)}, beta={self.beta})")


def star_system_irreducible(sys: StarSystem) -> bool:
    """Does the system correspond to a minimal core?

    Core vertex v is removable iff alpha(v) = beta (its attachment
    matches the crown's internal type) and every other core vertex u
    relates to v exactly as alpha(u) forces u to relate to crown
    vertices: uv an edge iff alpha(u) = 1.  Moving such a v into the
    crown keeps every template condition, so the core was not minimal;
    conversely an irreducible system has no removable vertex and its
    template image is a minimal core in any host with crown >= 2.  On
    masks: v is removable iff alpha's ones are N[v] (beta 1) or N(v)
    (beta 0), either of which already fixes alpha(v) = beta.

    The definition's literal text reads "uv not in E(J)" in both of its
    branches, which collapses to "some u nonadjacent to v" and breaks
    the minimal-core reading it claims to paraphrase; the operational
    meaning wins here and the host cross-check in the test suite replays
    every verdict against an explicit host.
    """
    ones = mask_of(v for v, a in enumerate(sys.alpha) if a)
    return all(r | sys.beta << v != ones for v, r in enumerate(sys.j.rows))


# ---------------------------------------------------------------------------
# constellations

class Constellation(namedtuple("Constellation", "j phi alpha beta")):
    """An (l, s)-constellation (J, phi, alpha, beta).

    phi maps each core vertex to a part (0-based; l = len(beta)), alpha
    gives crown attachments as in star systems, beta[i] the crown type
    of part i.  Fiber i induces the component system
    J_i = (J[phi^-1(i)], alpha restricted, beta[i]); the fiber size
    bound s is contextual, exposed as the property `s`.  The constructor
    checks its fields; _make (and _replace, which goes through it) builds
    from int tuples already checked.
    """

    __slots__ = ()

    def __new__(cls, j: Graph, phi, alpha, beta):
        if not isinstance(j, Graph):
            raise ValidationError("constellation needs a core graph")
        phi = tuple(int(i) for i in phi)
        alpha = tuple(int(a) for a in alpha)
        beta = tuple(int(b) for b in beta)
        if not beta or any(b not in (0, 1) for b in beta):
            raise ValidationError("beta must be a nonempty 0/1 tuple")
        if len(phi) != j.n or any(not 0 <= i < len(beta) for i in phi):
            raise ValidationError("phi must map V(J) into the parts")
        if len(alpha) != j.n or any(a not in (0, 1) for a in alpha):
            raise ValidationError("alpha must map V(J) to {0,1}")
        return super().__new__(cls, j, phi, alpha, beta)

    @property
    def l(self) -> int:
        return len(self.beta)

    @property
    def s(self) -> int:
        sizes = [0] * self.l
        for i in self.phi:
            sizes[i] += 1
        return max(sizes)

    def fiber(self, i: int):
        return tuple(v for v in range(self.j.n) if self.phi[v] == i)

    def system(self, i: int) -> StarSystem:
        vs = self.fiber(i)
        return StarSystem._make((induced_subgraph(self.j, vs),
                                 tuple(self.alpha[v] for v in vs),
                                 self.beta[i]))

    def systems(self):
        return tuple(self.system(i) for i in range(self.l))

    def to_json_obj(self):
        return {"j": graph6.encode(self.j), "phi": list(self.phi),
                "alpha": list(self.alpha), "beta": list(self.beta)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True,
                          separators=(",", ":"))

    def transcript_head(self) -> str:
        """Leading field of an uncertified P(J) verdict's transcript blob."""
        return "pj|" + self.to_json()

    def canonical_key(self):
        """Invariant of the equivalence class: canonical form of the
        gadget graph (J plus one anchor per part, core vertices tied to
        their fiber's anchor) colored by (anchor beta, core alpha).
        Isomorphisms of the colored gadget are exactly the equivalence
        moves: J-isomorphism respecting alpha and fibers plus part
        permutations preserving beta."""
        cf, groups = _gadget_form(self.j.rows, self.phi, self.alpha,
                                  self.beta)
        sizes = tuple(m.bit_count() for m in groups)
        return (self.j.n, self.l, sizes, cf.canon.rows)

    def __repr__(self):
        return (f"Constellation({graph6.encode(self.j)!r}, phi={list(self.phi)}, "
                f"alpha={list(self.alpha)}, beta={list(self.beta)})")


def constellation_irreducible(c: Constellation) -> bool:
    """Componentwise: every fiber system must be irreducible."""
    return all(star_system_irreducible(c.system(i)) for i in range(c.l))


# ---------------------------------------------------------------------------
# templates

class Template(namedtuple("Template", "psi parts")):
    """A verified embedding: psi maps core vertices into the host and
    parts[i] lists the host vertices of X_i (core images included), both
    tuples."""

    __slots__ = ()

    def to_json_obj(self):
        return {"psi": list(self.psi), "parts": [list(p) for p in self.parts]}

    def __repr__(self):
        return f"Template(psi={list(self.psi)}, parts={[list(p) for p in self.parts]})"


def _as_constellation(c) -> Constellation:
    if isinstance(c, StarSystem):
        return c.as_constellation()
    if not isinstance(c, Constellation):
        raise ValidationError("expected a star system or constellation")
    return c


def verify_template(g: Graph, c, t: Template) -> bool:
    """Re-check every template condition from scratch.

    Parts partition V(g); psi is an injective induced embedding of J
    with psi(v) in its fiber's part; alpha controls attachment of each
    core image to its own part's crown; beta controls each crown's
    internal type.  Any violation, including shape mismatches, is False.
    """
    c = _as_constellation(c)
    k, l = c.j.n, c.l
    if len(t.psi) != k or len(t.parts) != l:
        return False
    seen = 0
    for p in t.parts:
        m = mask_of(p)
        if len(p) != m.bit_count() or m & seen or m >> g.n:
            return False
        seen |= m
    if seen != g.full_mask():
        return False
    if len(set(t.psi)) != k or any(not 0 <= x < g.n for x in t.psi):
        return False
    for v in range(k):
        if t.psi[v] not in t.parts[c.phi[v]]:
            return False
    if induced_subgraph(g, t.psi).rows != c.j.rows:
        return False
    z = set(t.psi)
    for v in range(k):
        for w in t.parts[c.phi[v]]:
            if w in z:
                continue
            if (g.rows[t.psi[v]] >> w & 1) != c.alpha[v]:
                return False
    for i in range(l):
        crown = [w for w in t.parts[i] if w not in z]
        for a in range(len(crown)):
            for b in range(a + 1, len(crown)):
                if (g.rows[crown[a]] >> crown[b] & 1) != c.beta[i]:
                    return False
    return True


def find_template(g: Graph, c, budget_limit: int | None = None):
    """First template of the constellation in g, or None.

    The P(J) search with the whole core as W: embed J (vertices in label
    order, candidate hosts ascending, degree-prefiltered), then assign
    the remaining vertices to parts in label order (_assign_crowns, on
    the typed-part kernel graphs._typed_parts).  The returned template
    is re-verified; an exhausted budget is refused as in is_member_PJ.
    """
    c = _as_constellation(c)
    try:
        hit = _pj_search(g, c, [range(c.j.n)], Budget(budget_limit))
    except ResourceLimitError as e:
        raise _refusal(PJFamily(c), g, e) from e
    if hit is None:
        return None
    pairs, crowns = hit
    psi = tuple(w for _, w in pairs)
    parts = tuple(tuple(bits(crowns[i] | mask_of(psi[v] for v in c.fiber(i))))
                  for i in range(c.l))
    t = Template(psi, parts)
    if not verify_template(g, c, t):
        raise RuntimeError("found template failed re-verification")
    return t


# ---------------------------------------------------------------------------
# P(J) membership

def _assign_crowns(g: Graph, c: Constellation, pairs, budget, accept=None,
                   cored=0):
    """Crown masks, one per part, for the vertices of g outside the core
    images, or None.

    pairs lists (core vertex, g vertex) for the embedded part of the
    core.  Only the vertices in ok[i], those meeting every embedded core
    vertex of fiber i as alpha says, may join part i; a vertex in no
    ok[i] rejects at once.  The rest is graphs._typed_parts: crowns typed
    by beta, the parts holding a core image, or in the mask cored, never
    treated as interchangeable empties; accept and budget pass through.
    """
    phi, alpha, beta = c.phi, c.alpha, c.beta
    l, grow = len(beta), g.rows
    rest = (1 << g.n) - 1
    ok = [rest] * l
    for v, w in pairs:
        i = phi[v]
        ok[i] &= grow[w] if alpha[v] else ~grow[w]
        cored |= 1 << i
        rest &= ~(1 << w)
    any_ok = 0
    for m in ok:
        any_ok |= m
    if rest & ~any_ok:
        return None
    return _typed_parts(grow, beta, ok, cored, rest, budget, accept)


def _pj_search(g: Graph, c: Constellation, wsets, budget: Budget):
    """First (core_pairs, crowns) over the core subsets W in wsets, taken
    in order: an induced embedding of J[W] into g, in lex order, whose
    crown assignment succeeds.  None when there is none."""
    for wset in wsets:
        def accept(eta, wset=wset):
            pairs = tuple((v, eta[v]) for v in wset)
            crowns = _assign_crowns(g, c, pairs, budget)
            return None if crowns is None else (pairs, crowns)

        hit = _embed(c.j.rows, g, wset, budget=budget, accept=accept)
        if hit is not None:
            return hit
    return None


def _core_subsets(k, n):
    """Core subsets W with |W| <= n, by size, each size in lex order."""
    return (wset for size in range(min(k, n) + 1)
            for wset in combinations(range(k), size))


def _pj_decide(g: Graph, c: Constellation, budget: Budget):
    """Certificate ("pj", core_pairs, part_of) or None.

    core_pairs lists (core vertex, g vertex) for the part of the core
    embedded inside g; part_of assigns every g vertex its part.  The
    search runs over core subsets W by increasing size, injective
    induced embeddings of J[W] in lex order, then a part-coloring
    backtrack over the remaining vertices.
    """
    k, l, n = c.j.n, c.l, g.n
    if k == 0:
        s_idx = [i for i in range(l) if c.beta[i] == 0]
        t_idx = [i for i in range(l) if c.beta[i] == 1]
        res = HST(len(s_idx), len(t_idx)).membership(g, budget)
        if not res.member:
            return None
        part_of = [0] * n
        for pos, i in enumerate(s_idx + t_idx):
            for w in res.certificate.parts[pos]:
                part_of[w] = i
        return ("pj", (), tuple(part_of))
    hit = _pj_search(g, c, _core_subsets(k, n), budget)
    if hit is None:
        return None
    pairs, crowns = hit
    part_of = [0] * n
    for i in range(l):
        for w in bits(crowns[i]):
            part_of[w] = i
    for v, w in pairs:
        part_of[w] = c.phi[v]
    return ("pj", pairs, tuple(part_of))


def is_member_PJ(g: Graph, c, budget_limit: int | None = None) -> MembershipResult:
    """Is g an induced subgraph of some host admitting a template?

    Decided inside g: choose W subseteq V(J) and an injective induced
    embedding sigma of J[W] into g, then assign the remaining vertices
    to parts so that (a) each embedded core vertex meets its own part's
    crown-in-g fully or not at all per alpha, and (b) each part's
    crown-in-g is a clique or independent per beta.  This is exact in
    both directions: restricting any host template to g yields such a
    (sigma, parts), and conversely g plus the missing core vertices of
    J - W (wired to match J, and to crowns per alpha) is itself a host,
    so no crown padding is ever needed; certificates replay through
    verify_pj_certificate.  An exhausted budget is refused naming pj(c).
    """
    c = _as_constellation(c)
    budget = Budget(budget_limit)
    try:
        cert = _pj_decide(g, c, budget)
    except ResourceLimitError as e:
        raise _refusal(PJFamily(c), g, e) from e
    return MembershipResult(cert is not None, cert, budget.used, c, g)


def verify_pj_certificate(g: Graph, c, cert) -> bool:
    """Rebuild the host described by the certificate and re-verify.

    The host is g plus one fresh vertex per missing core vertex, wired
    to match J exactly and to each in-g crown per alpha; the template
    it should admit is then checked bullet by bullet via
    verify_template, plus g must come back as the induced subgraph on
    its own labels.  A malformed certificate is False, never an error.
    """
    c = _as_constellation(c)
    seqs = (tuple, list)
    if not (isinstance(cert, tuple) and len(cert) == 3 and cert[0] == "pj"
            and isinstance(cert[1], seqs) and isinstance(cert[2], seqs)):
        return False
    _, pairs, part_of = cert
    k, n = c.j.n, g.n
    if not (len(part_of) == n and _all_below(part_of, c.l)
            and all(isinstance(p, seqs) and len(p) == 2 for p in pairs)
            and _all_below((v for v, _ in pairs), k)
            and _all_below((w for _, w in pairs), n)):
        return False
    inside = dict(pairs)
    if len(inside) != len(pairs):
        return False
    missing = [v for v in range(k) if v not in inside]
    place = {v: n + off for off, v in enumerate(missing)}
    place.update(inside)
    rows = list(g.rows) + [0] * len(missing)
    zs = set(inside.values())
    for v in missing:
        x = place[v]
        for u in bits(c.j.rows[v]):
            rows[x] |= 1 << place[u]
            rows[place[u]] |= 1 << x
        if c.alpha[v]:
            for w in range(n):
                if part_of[w] == c.phi[v] and w not in zs:
                    rows[x] |= 1 << w
                    rows[w] |= 1 << x
    host = Graph.from_rows(rows)
    parts = [[] for _ in range(c.l)]
    for w in range(n):
        parts[part_of[w]].append(w)
    for v in missing:
        parts[c.phi[v]].append(place[v])
    t = Template(tuple(place[v] for v in range(k)),
                 tuple(tuple(sorted(p)) for p in parts))
    if not verify_template(host, c, t):
        return False
    return induced_subgraph(host, range(n)) == g


def _all_below(xs, hi) -> bool:
    return all(isinstance(x, int) and 0 <= x < hi for x in xs)


# P(J)'s field: key (n, rows, phi, alpha, beta), text g6;phi;alpha;beta
_CONSTELLATION = _Kind(
    "a star system or constellation", _as_constellation,
    lambda c: (c.j.n, c.j.rows, c.phi, c.alpha, c.beta),
    lambda c: [";".join([graph6.encode(c.j)] + [
        "".join(map(str, x)) for x in (c.phi, c.alpha, c.beta)])])


class PJFamily(Family):
    """P(J) as a family expression: hereditary by definition (induced
    subgraphs of hosts), usable by the enumerator.  The decision has no
    incremental shortcut, so new_vertex_only is ignored.

    The children of a parent P are listed instead, from P's templates
    (W, sigma, crowns), to which a child's template restricts (see
    is_member_PJ).  The new vertex x joins part i, F = crown_i |
    sigma(fiber i & W), or becomes sigma(v) for a core vertex v outside
    W, F = sigma(W) | crown_phi(v); each placement allows the cube
    {S : S & F == V}, V as beta, alpha and J say, other bits free.
    Every template is walked, with no budget, until a cube with F = 0
    allows every mask.  The parts phi(v) of the missing v count as
    cored: x may become v there, so two empty parts of equal beta are
    not interchangeable.  A P outside P(J) lists [].
    """

    __slots__ = ("constellation",)
    _tag = "pj"
    _kinds = (_CONSTELLATION,)
    hereditary = True

    def _decide(self, g, budget, new_vertex_only):
        cert = _pj_decide(g, self.constellation, budget)
        return cert is not None, cert

    def _member_children(self, rows):
        c = self.constellation
        jrows, phi, alpha, beta = c.j.rows, c.phi, c.alpha, c.beta
        g = Graph.from_rows(rows)
        cubes = set()
        for wset in _core_subsets(c.j.n, g.n):
            missing = [v for v in range(c.j.n) if v not in wset]

            def embedded(eta, wset=wset, missing=missing):
                img, on = [0] * c.l, [0] * c.l
                for v in wset:
                    img[phi[v]] |= 1 << eta[v]
                    on[phi[v]] |= alpha[v] << eta[v]
                core = sum(img)
                nbrs = [mask_of(eta[u] for u in wset if jrows[v] >> u & 1)
                        for v in missing]

                def split(crowns):
                    for i, cr in enumerate(crowns):
                        cubes.add((cr | img[i], cr * beta[i] | on[i]))
                    for v, nb in zip(missing, nbrs):
                        cr = crowns[phi[v]]
                        cubes.add((core | cr, nb | cr * alpha[v]))
                    return (0, 0) in cubes  # every mask: done

                return _assign_crowns(g, c, [(v, eta[v]) for v in wset],
                                      None, split,
                                      mask_of(phi[v] for v in missing))

            if _embed(jrows, g, wset, accept=embedded) is not None:
                break
        hit = 0  # bit S set for each mask S in a cube
        for f, v in cubes:
            m = 1 << v
            for b in bits(g.full_mask() & ~f):
                m |= m << (1 << b)
            hit |= m
        return [s for s in range(1 << g.n) if hit >> s & 1]


# ---------------------------------------------------------------------------
# systematic generation

def irreducible_star_systems(s: int) -> list[StarSystem]:
    """All irreducible systems with core at most s, one per isomorphism
    class (alpha-respecting, beta-exact), sorted by (|J|, -beta, -|A1|,
    J's rows, alpha mask), with A1 the core vertices of alpha 1.

    Canonical augmentation already separates the classes, so no key is
    built: J runs over ALL's members, one canonically labelled graph
    per isomorphism class (distinct J are never isomorphic), and alpha
    over the least mask of each Aut(J)-orbit of subsets (J's generators
    from the same enumeration).  So (J's rows, alpha mask) is a complete
    class invariant, and each class is represented by the first system
    a scan of every alpha over that J would meet.
    """
    if s < 0:
        raise ValidationError("s must be >= 0")
    if s > 6:
        raise CapacityError("star system generation is guarded at s <= 6")
    return [StarSystem._make(f) for f in _irreducible_fields(s)]


def _irreducible_fields(s):
    """The (J, alpha, beta) of irreducible_star_systems(s), in its order:
    per |J|, buckets keyed (-beta, -|A1|) in sort order, filled as J runs
    in rows order and alpha ascending, with each alpha mask that is no
    closed (beta 1) or open (beta 0) row of J (star_system_irreducible)."""
    from .enumeration import enumerate_family
    table = enumerate_family(ALL, s, keep_members=True)
    for size in range(s + 1):
        alphas = [tuple(m >> v & 1 for v in range(size))
                  for m in range(1 << size)]
        buckets = {(-b, -k): [] for b in (1, 0) for k in range(size, -1, -1)}
        for j, gens in zip(table.members[size], table.gens[size]):
            opened = set(j.rows)
            closed = {r | 1 << v for v, r in enumerate(j.rows)}
            for m in subset_orbits(size, gens):
                for b, removable in ((1, closed), (0, opened)):
                    if m not in removable:
                        buckets[-b, -m.bit_count()].append((j, alphas[m], b))
        yield from chain.from_iterable(buckets.values())


def generate_constellations(l: int, s: int) -> list[Constellation]:
    """All irreducible (l, s)-constellations up to equivalence, one per
    class, in assembly order.

    Assembly: a multiset of l irreducible component systems, laid out in
    consecutive fiber blocks, plus an arbitrary bigraph between every
    pair of fiber blocks.  Two cross-edge codes give equivalent
    constellations iff they lie in the same orbit of the assembly's
    automorphism group (part permutations between identical components
    and alpha-respecting fiber automorphisms), and distinct multisets
    can never collide, so one orbit representative per code orbit is
    exactly one constellation per class, with no key to deduplicate by.
    Output order: the multisets in combinations_with_replacement order
    over the component systems, in the order of irreducible_star_systems
    (|J|, -beta, -|A1|, J's rows, alpha mask), and within a multiset its
    orbit-representative codes ascending.  At l = 1 that is the order
    of irreducible_star_systems.
    """
    if l < 1:
        raise ValidationError("constellations need at least one part")
    if s < 0:
        raise ValidationError("fiber bound must be >= 0")
    if l * s > 6:
        raise CapacityError(
            f"grid l*s = {l * s} beyond the generation guard of 6")
    if l == 1:
        # one system: no cross pairs
        return [Constellation._make((j, (0,) * j.n, alpha, (b,)))
                for j, alpha, b in _irreducible_fields(s)]
    # never empty: both systems with an empty core are irreducible
    comps = irreducible_star_systems(s)
    out = []
    for combo in combinations_with_replacement(range(len(comps)), l):
        systems = [comps[ix] for ix in combo]
        sizes = [sy.j.n for sy in systems]
        offs = [0] * l
        for i in range(1, l):
            offs[i] = offs[i - 1] + sizes[i - 1]
        total = sum(sizes)
        beta = tuple(sy.beta for sy in systems)
        phi = tuple(i for i in range(l) for _ in range(sizes[i]))
        alpha = tuple(a for sy in systems for a in sy.alpha)
        base = [0] * total
        for i, sy in enumerate(systems):
            for v in range(sizes[i]):
                base[offs[i] + v] = sy.j.rows[v] << offs[i]
        pairs = [(offs[i] + u, offs[jx] + v)
                 for i in range(l) for jx in range(i + 1, l)
                 for u in range(sizes[i]) for v in range(sizes[jx])]
        pair_idx = {}
        for idx, (u, v) in enumerate(pairs):
            pair_idx[(u, v)] = idx
            pair_idx[(v, u)] = idx
        # Aut of the cross-edge-free assembly, on the core vertices: the
        # colored-gadget group, so exactly fiber-block permutations between
        # identical systems composed with internal alpha-preserving
        # automorphisms; without cross pairs the one code is 0
        gens = () if not pairs else _gadget_form(
            base, phi, alpha, beta)[0].generators
        pperms = [tuple(pair_idx[(p[u], p[v])] for u, v in pairs)
                  for p in gens]
        for code in subset_orbits(len(pairs), pperms):
            rows = list(base)
            for b in bits(code):
                u, v = pairs[b]
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            out.append(Constellation._make((Graph.from_rows(rows), phi,
                                            alpha, beta)))
    return out


def _gadget_form(jrows, phi, alpha, beta):
    """Canonical form of the colored gadget and its four color cells.

    The gadget is J plus one anchor per part, each core vertex tied to its
    fiber's anchor; the cells are the anchors of beta 0 and 1, then the
    core vertices of alpha 0 and 1 (empty cells are left out of the
    refinement but kept in the returned list).
    """
    k, l = len(jrows), len(beta)
    rows = list(jrows) + [0] * l
    for v in range(k):
        a = k + phi[v]
        rows[v] |= 1 << a
        rows[a] |= 1 << v
    groups = [0, 0, 0, 0]
    for i in range(l):
        groups[beta[i]] |= 1 << (k + i)
    for v in range(k):
        groups[2 + alpha[v]] |= 1 << v
    cells = [m for m in groups if m]
    return canonical_form(Graph.from_rows(rows), cells), groups


# ---------------------------------------------------------------------------
# minimal non-star scans

class NonStarScanReport(namedtuple(
        "NonStarScanReport", "s mode n_max seed samples scanned witnesses")):
    """Vertex-minimal non-s-stars found by a scan.

    witnesses is a list of canonical graph6 strings; scanned is a list of
    (n, count) pairs so serialization order is fixed.  max_order is 0
    when the scan found nothing.
    """

    __slots__ = ()

    @property
    def max_order(self):
        return max((graph6.decode(w).n for w in self.witnesses), default=0)

    def to_json_obj(self):
        obj = {"s": self.s, "mode": self.mode, "n_max": self.n_max,
               "scanned": [list(row) for row in self.scanned],
               "witnesses": self.witnesses, "max_order": self.max_order}
        if self.mode == "random":
            obj["seed"] = self.seed
            obj["samples"] = self.samples
        return obj

    def __repr__(self):
        return (f"NonStarScanReport(s={self.s}, mode={self.mode!r}, "
                f"max_order={self.max_order}, witnesses={len(self.witnesses)})")


def is_minimal_nonstar(g: Graph, s: int) -> bool:
    """Not an s-star, but every one-vertex deletion is: g - v is read off
    g's rows with bit v masked out, as in is_s_star; no graph is built."""
    if is_s_star(g, s):
        return False
    return all(_core_size(g.rows, 1 << v) <= s for v in range(g.n))


def _witness(s, g):
    """Canonical graph6 of g when g is a minimal non-s-star, else None.
    g less its last vertex is tested first: in the exhaustive scan that is
    the parent, and a non-star parent rules g out in one count."""
    if g.n and _core_size(g.rows, 1 << g.n - 1) > s:
        return None
    return graph6.encode(canonical_form(g).canon) if is_minimal_nonstar(
        g, s) else None


def minimal_nonstar_scan(s: int, n_max: int, *, samples: int | None = None,
                         seed: int = 0) -> NonStarScanReport:
    """Hunt for vertex-minimal non-s-stars.

    Exhaustive mode (samples is None) walks every unlabeled graph up to
    n_max (capped at 8 by enumeration cost), order n_max where each class
    is found, so only its witnesses there take a canonical form.  Random
    mode (n_max capped at MAX_VERTICES) draws `samples` graphs: order
    uniform in 1..n_max, then each edge an independent fair coin from
    random.Random(seed), pairs in lexicographic order; the seed lands in
    the report so runs are reproducible.  Witnesses are canonical graph6,
    deduplicated, sorted.
    """
    if s < 0:
        raise ValidationError("s must be >= 0")
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    found = set()
    if samples is None:
        if n_max > 8:
            raise CapacityError("exhaustive non-star scan is capped at n = 8")
        from .enumeration import _enumerate
        table, top = _enumerate(ALL, n_max, None, 1, True, None, None,
                                partial(_witness, s))
        found.update(w for w, _, _ in top if w)
        found.update(graph6.encode(g) for level in table.members[1:]
                     for g in level if is_minimal_nonstar(g, s))
        scanned = [(n, table.unlabeled[n]) for n in range(1, n_max + 1)]
        return NonStarScanReport(s, "exhaustive", n_max, None, None,
                                 scanned, sorted(found))
    import random
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    if n_max > MAX_VERTICES:
        raise CapacityError(f"random non-star scan is capped at n = "
                            f"{MAX_VERTICES}")
    rng = random.Random(seed)
    per_n = {}
    for _ in range(samples):
        n = rng.randint(1, n_max)
        per_n[n] = per_n.get(n, 0) + 1
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.getrandbits(1):
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        w = _witness(s, Graph.from_rows(rows))
        if w:
            found.add(w)
    scanned = sorted(per_n.items())
    return NonStarScanReport(s, "random", n_max, seed, samples,
                             scanned, sorted(found))
