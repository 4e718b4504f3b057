"""Family expressions and the exact membership engine.

A family is a closed expression over the constructors below.  Membership is
decided exactly by backtracking with a node budget; exceeding the budget
raises ResourceLimitError, it never degrades to a guess.  Positive
partition-style decisions carry a certificate that can be re-verified
independently; exhaustive negative searches are certified by a transcript
hash (family text, graph, node count), which pins the run for reproducing.
The hash is computed on first read, so the enumerator, which reads only
the verdict, never pays for it.

Each constructor declares its fields, one kind per field (family, graph, a
tuple of those, or a bounded int), and a tag; the Family base validates,
keys, prints, compares and pickles every constructor from that declaration.
Hereditariness is tracked *by construction*: a family is hereditary iff
every family-valued field is, so the leaves (atoms, forb, H, iota) are, and
apex is the one constructor that breaks it.
"""

from __future__ import annotations

import hashlib
import re
from collections import namedtuple

from .errors import ResourceLimitError, UnsupportedOperationError, ValidationError
from . import graph6
from .graphs import (
    MAX_VERTICES,
    Graph,
    _embed,
    _typed_parts,
    bits,
    complement,
    components,
    co_components,
    complete,
    copies,
    cycle,
    delete_vertex,
    edgeless,
    find_induced_embedding,
    induced_subgraph,
    mask_of,
    path,
    star,
)

DEFAULT_NODE_BUDGET = 10_000_000


class Budget:
    """Search-node allowance shared across one top-level membership call.

    limit None means DEFAULT_NODE_BUDGET; a limit below 1 is refused.
    """

    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None = None):
        if limit is None:
            limit = DEFAULT_NODE_BUDGET
        elif limit < 1:
            raise ValidationError(f"node budget {limit} is below 1")
        self.limit = limit
        self.used = 0

    def spend(self, k: int = 1):
        self.used += k
        if self.used > self.limit:
            raise ResourceLimitError(
                f"membership search exceeded node budget {self.limit}")


def _refusal(family, g, e):
    """e, raised deciding g, named by family, level (g's order) and g."""
    return ResourceLimitError(f"{family.text()} at level {g.n}, graph "
                              f"{graph6.encode(g)}: {e}")


def _membership(family, g, budget_limit, new_vertex_only=False):
    """family's verdict on g under a fresh budget; an exhausted budget
    raises the _refusal."""
    try:
        return family.membership(g, Budget(budget_limit), new_vertex_only)
    except ResourceLimitError as e:
        raise _refusal(family, g, e) from e


def _first_member(f, graphs, budget_limit):
    """(label, result) for the first (label, graph) pair whose graph f
    accepts, each decided by _membership, or None when f accepts none."""
    for label, g in graphs:
        res = _membership(f, g, budget_limit)
        if res.member:
            return label, res
    return None


class MembershipResult:
    """Exact verdict plus evidence.

    certificate is present on the constructive side (a partition, an
    embedding, a component split, depending on the constructor); when the
    verdict rests on an exhausted search instead, transcript_hash pins it.
    The hash is computed on first read, from the deciding source's
    transcript_head(), the graph and the node count.
    """

    __slots__ = ("member", "certificate", "nodes", "_source", "_graph",
                 "_hash")

    def __init__(self, member, certificate, nodes, source=None, graph=None):
        self.member = member
        self.certificate = certificate
        self.nodes = nodes
        self._source = source
        self._graph = graph
        self._hash = None

    @property
    def transcript_hash(self):
        if self.certificate is not None:
            return None
        if self._hash is None:
            blob = (f"{self._source.transcript_head()}|"
                    f"{graph6.encode(self._graph)}|{self.nodes}")
            self._hash = hashlib.sha256(blob.encode()).hexdigest()
        return self._hash

    def __bool__(self):
        return self.member

    def __repr__(self):
        return (f"MembershipResult(member={self.member}, "
                f"certificate={self.certificate!r}, nodes={self.nodes})")


class PartitionCertificate:
    """Parts (vertex tuples, in factor order) with per-part evidence."""

    __slots__ = ("parts", "sub")

    def __init__(self, parts, sub):
        self.parts = tuple(tuple(p) for p in parts)
        self.sub = tuple(sub)

    def __repr__(self):
        return f"PartitionCertificate(parts={self.parts})"


class Family:
    """Base class: a constructor applied to declared fields.

    A constructor lists its fields as the leading entries of __slots__,
    with one _Kind per field in _kinds and its key/text tag in _tag.  The
    base validates each argument by its kind, then runs the class's
    _validate, and stores the key, so equality, hashing and checkpoint
    names never rebuild it.  text() is tag(arg, ...), or the bare tag for
    a constructor without fields.  A family is hereditary by construction
    iff every family-valued field is; the leaves say True outright and
    apex says False.
    """

    __slots__ = ("_key",)
    _tag = None
    _kinds = ()

    def __init__(self, *args):
        if len(args) != len(self._kinds):
            raise TypeError(f"{type(self).__name__} takes {len(self._kinds)} "
                            f"arguments, got {len(args)}")
        key = [self._tag]
        for name, kind, value in zip(self.__slots__, self._kinds, args):
            got = kind.take(value)
            if got is None:
                raise ValidationError(
                    f"{self._tag}: {name} must be {kind.what}, got {value!r}")
            object.__setattr__(self, name, got)
            key += kind.key(got)
        self._validate()
        object.__setattr__(self, "_key", tuple(key))

    def _validate(self):
        """The constructor's check beyond its field kinds."""

    def _fields(self):
        return tuple(getattr(self, name)
                     for name in self.__slots__[:len(self._kinds)])

    def _subfamilies(self):
        """The family-valued fields, tuples flattened."""
        return [f for kind, value in zip(self._kinds, self._fields())
                for f in kind.subs(value)]

    def __setattr__(self, *a):
        raise AttributeError("Family is immutable")

    def __reduce__(self):
        return (type(self), self._fields())

    @property
    def hereditary(self):
        return all(f.hereditary for f in self._subfamilies())

    def key(self):
        return self._key

    def text(self) -> str:
        args = [t for kind, value in zip(self._kinds, self._fields())
                for t in kind.text(value)]
        return f"{self._tag}({', '.join(args)})" if args else self._tag

    def transcript_head(self) -> str:
        """Leading field of an uncertified verdict's transcript blob."""
        return self.text()

    def __eq__(self, other):
        return isinstance(other, Family) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return self.text()

    def _decide(self, g: Graph, budget: Budget, new_vertex_only: bool):
        """(member, certificate-or-None).  new_vertex_only may be honored by
        constructors with local structure (forb) when the caller guarantees
        the graph minus its last vertex is already a member."""
        raise NotImplementedError

    def _rejection_support(self, g: Graph, res: MembershipResult):
        """A witness of the rejection res of g, whose last vertex is new and
        whose other vertices induce a member: a mask W of those other
        vertices such that g induced on W plus the new vertex is already
        outside the family, or None when the constructor names none."""
        return None

    def _member_children(self, rows):
        """Every mask s with add_vertex(P, s) in the family, for the graph P
        with these rows ([] when P is outside it), or None when the
        constructor does not read them off P; its answer on the empty
        graph () tells whether it does.  The enumerator takes a listed
        child as a member with no membership call, so the list must be
        exact."""
        return None

    def membership(self, g: Graph, budget: Budget | None = None,
                   new_vertex_only: bool = False) -> MembershipResult:
        if budget is None:
            budget = Budget()
        start = budget.used
        member, cert = self._decide(g, budget, new_vertex_only)
        return MembershipResult(member, cert, budget.used - start, self, g)

    def contains(self, g: Graph, budget: Budget | None = None) -> bool:
        return self.membership(g, budget).member


# ---------------------------------------------------------------------------
# field kinds

# what a declared field holds: take(value) returns the value to store, or
# refuses it by returning None or raising ValidationError; key(value) gives
# the field's items of the family key, text(value) its arguments in the
# family text and subs(value) the families in it
_Kind = namedtuple("_Kind", "what take key text subs",
                   defaults=(lambda v: (),))


def _one(cls):
    return lambda v: v if isinstance(v, cls) else None


def _some(cls):
    def take(v):
        try:
            v = tuple(v)
        except TypeError:
            return None
        return v if v and all([isinstance(x, cls) for x in v]) else None
    return take


def _int_from(low):
    return _Kind(f"an int >= {low}",
                 lambda v: v if type(v) is int and v >= low else None,
                 lambda v: (v,), lambda v: [str(v)])


_FAMILY = _Kind("a family", _one(Family),
                lambda f: (f.key(),), lambda f: [f.text()], lambda f: (f,))
_FAMILIES = _Kind("one or more families", _some(Family),
                  lambda fs: tuple([f.key() for f in fs]),
                  lambda fs: [f.text() for f in fs], lambda fs: fs)
_GRAPH = _Kind("a graph", _one(Graph),
               lambda g: (g.n, g.rows), lambda g: [graph_name(g)])
_GRAPHS = _Kind("one or more graphs", _some(Graph),
                lambda gs: tuple([(g.n, g.rows) for g in gs]),
                lambda gs: [graph_name(g) for g in gs])
_NAT = _int_from(0)
_POS = _int_from(1)


# ---------------------------------------------------------------------------
# atoms

class AtomS(Family):
    """Edgeless graphs."""
    __slots__ = ()
    _tag = "S"
    hereditary = True

    def _decide(self, g, budget, new_vertex_only):
        budget.spend()
        return all(r == 0 for r in g.rows), None


class AtomC(Family):
    """Complete graphs."""
    __slots__ = ()
    _tag = "C"
    hereditary = True

    def _decide(self, g, budget, new_vertex_only):
        budget.spend()
        full = g.full_mask()
        return all(r == full ^ (1 << v) for v, r in enumerate(g.rows)), None


class AtomM(Family):
    """Matchings: maximum degree at most 1."""
    __slots__ = ()
    _tag = "M"
    hereditary = True

    def _decide(self, g, budget, new_vertex_only):
        budget.spend()
        return all(r.bit_count() <= 1 for r in g.rows), None


class AtomAll(Family):
    """All graphs."""
    __slots__ = ()
    _tag = "ALL"
    hereditary = True

    def _decide(self, g, budget, new_vertex_only):
        budget.spend()
        return True, None

    def _member_children(self, rows):
        return range(1 << len(rows))


S = AtomS()
C = AtomC()
M = AtomM()
ALL = AtomAll()


# ---------------------------------------------------------------------------
# forbidden induced subgraphs

class Forb(Family):
    """Graphs with no induced copy of any pattern in the list."""

    __slots__ = ("patterns", "_pattern_reps")
    _tag = "forb"
    _kinds = (_GRAPHS,)
    hereditary = True

    def _anchored_reps(self):
        # orbit representatives of each pattern's vertices, for anchored
        # scans; computed on first use, not pickled
        reps = getattr(self, "_pattern_reps", None)
        if reps is None:
            from .canon import canonical_form, vertex_orbit
            reps = []
            for p in self.patterns:
                gens = canonical_form(p).generators
                seen = 0
                mine = []
                for v in range(p.n):
                    if not seen >> v & 1:
                        mine.append(v)
                        seen |= vertex_orbit(v, gens, p.n)
                reps.append(tuple(mine))
            object.__setattr__(self, "_pattern_reps", tuple(reps))
        return reps

    def _decide(self, g, budget, new_vertex_only):
        if new_vertex_only and g.n > 0:
            anchor = g.n - 1
            for idx, p in enumerate(self.patterns):
                for pv in self._anchored_reps()[idx]:
                    budget.spend(g.n + 1)
                    order = [pv] + [v for v in range(p.n) if v != pv]
                    eta = _embed(p.rows, g, order, pin=anchor)
                    if eta is not None:
                        return False, ("pattern", idx, eta)
            return True, None
        for idx, p in enumerate(self.patterns):
            budget.spend(g.n + 1)
            eta = find_induced_embedding(p, g)
            if eta is not None:
                return False, ("pattern", idx, eta)
        return True, None

    def _rejection_support(self, g, res):
        # the image of the pattern found
        return mask_of(res.certificate[2]) & ~(1 << (g.n - 1))

    def _member_children(self, rows):
        # forb(K3): the independent sets of a triangle-free P, ascending
        if self.patterns != (complete(3),):
            return None
        if any(rows[u] & rows[v] for u in range(len(rows))
               for v in bits(rows[u])):
            return []
        out = [0]
        for v, r in enumerate(rows):
            out += [s | 1 << v for s in out if not s & r]
        return out


# ---------------------------------------------------------------------------
# H(s, t): s independent parts plus t clique parts

class HST(Family):
    """Graphs partitionable into s independent sets and t cliques."""

    __slots__ = ("s", "t")
    _tag = "H"
    _kinds = (_NAT, _NAT)
    hereditary = True

    def _validate(self):
        # a decision builds s + t parts; H(s, t) with s + t = MAX_VERTICES
        # already holds every graph, so more parts only cost memory
        if self.s + self.t > MAX_VERTICES:
            raise ValidationError(f"H: s + t must be at most {MAX_VERTICES}, "
                                  f"got {self.s} + {self.t}")

    def _decide(self, g, budget, new_vertex_only):
        budget.spend()
        s, t = self.s, self.t
        if g.n == 0:
            return True, PartitionCertificate([()] * (s + t),
                                              ["independent"] * s + ["clique"] * t)
        if s + t == 0:
            return False, None
        if (s, t) == (1, 0):
            ok = all(r == 0 for r in g.rows)
            return (True, _hst_cert([g.full_mask()], 1, 0)) if ok else (False, None)
        if (s, t) == (0, 1):
            full = g.full_mask()
            ok = all(r == full ^ (1 << v) for v, r in enumerate(g.rows))
            return (True, _hst_cert([g.full_mask()], 0, 1)) if ok else (False, None)
        if (s, t) == (2, 0):
            parts = _two_color(g)
            return (True, _hst_cert(parts, 2, 0)) if parts is not None else (False, None)
        if s < t:
            # complements swap independent and clique parts
            got, cert = HST(t, s)._decide(complement(g), budget, False)
            if not got:
                return False, None
            masks = [mask_of(p) for p in cert.parts]
            return True, _hst_cert(masks[t:] + masks[:t], s, t)
        full = g.full_mask()
        masks = _typed_parts(g.rows, (0,) * s + (1,) * t, [full] * (s + t),
                             0, full, budget)
        if masks is None:
            return False, None
        return True, _hst_cert(masks, s, t)

    def _member_children(self, rows):
        # H(2, 0): per component of a bipartite P, a subset of one side
        if (self.s, self.t) != (2, 0):
            return None
        g = Graph.from_rows(rows)
        parts = _two_color(g)
        if parts is None:
            return []
        out = [0]
        for c in components(g):
            a, b = (_submasks(m & c) for m in parts)
            out = [s | o for s in out for o in a + b[1:]]
        return out


def _hst_cert(masks, s, t):
    parts = [tuple(bits(m)) for m in masks]
    return PartitionCertificate(parts, ["independent"] * s + ["clique"] * t)


def _two_color(g):
    """Proper 2-coloring as [mask0, mask1], or None: each component is
    walked layer by layer from its least vertex, even layers in mask0,
    and the coloring is proper iff no edge joins two vertices of a side."""
    rows = g.rows
    sides = [0, 0]
    todo = g.full_mask()
    while todo:
        front = seen = todo & -todo
        side = 0
        while front:
            sides[side] |= front
            reach = 0
            for v in bits(front):
                reach |= rows[v]
            front = reach & ~seen
            seen |= front
            side ^= 1
        todo &= ~seen
    if any(rows[v] & m for m in sides for v in bits(m)):
        return None
    return sides


def _submasks(m):
    """Every subset of mask m, ascending."""
    out = [0]
    for v in bits(m):
        out += [s | 1 << v for s in out]
    return out


# ---------------------------------------------------------------------------
# partition products over arbitrary factor families

class PartitionProduct(Family):
    """P(F_1, ..., F_l): graphs whose vertex set splits into l (possibly
    empty) parts with part i inducing a member of F_i."""

    __slots__ = ("factors",)
    _tag = "P"
    _kinds = (_FAMILIES,)

    def _decide(self, g, budget, new_vertex_only):
        leaves = self._partitions(g, budget, 1)
        if not leaves:
            return False, None
        part_masks, subs = leaves[0]
        parts = [tuple(bits(m)) for m in part_masks]
        return True, PartitionCertificate(parts, [r.certificate for r in subs])

    def _partitions(self, g, budget, cap):
        """The first cap leaves of the part walk, each as (part masks,
        part membership results).

        Vertices go in label order; of the empty parts only the first of
        each factor family is tried, so with equal factors parts open in
        first-use order and each unordered partition is one leaf.
        Hereditary factors prune on every prefix of a part.
        """
        n = g.n
        fs = self.factors
        l = len(fs)
        memo = {}

        def part_ok(i, mask):
            got = memo.get((i, mask))
            if got is None:
                sub = fs[i].membership(induced_subgraph(g, bits(mask)), budget)
                memo[(i, mask)] = sub
                return sub
            return got

        prune = [f.hereditary for f in fs]
        masks = [0] * l
        found = []

        def rec(v):
            budget.spend()
            if v == n:
                subs = []
                for i in range(l):
                    res = part_ok(i, masks[i])
                    if not res.member:
                        return False
                    subs.append(res)
                found.append((tuple(masks), tuple(subs)))
                return len(found) >= cap
            b = 1 << v
            seen_empty = set()
            for i in range(l):
                if masks[i] == 0:
                    fk = fs[i].key()
                    if fk in seen_empty:
                        continue
                    seen_empty.add(fk)
                if prune[i]:
                    if not part_ok(i, masks[i] | b).member:
                        continue
                masks[i] |= b
                if rec(v + 1):
                    return True
                masks[i] ^= b
            return False

        rec(0)
        return found


# ---------------------------------------------------------------------------
# closures and one-vertex operations

class Iota(Family):
    """All graphs isomorphic to an induced subgraph of one fixed graph."""

    __slots__ = ("host",)
    _tag = "iota"
    _kinds = (_GRAPH,)
    hereditary = True

    def _decide(self, g, budget, new_vertex_only):
        budget.spend(g.n + 1)
        eta = find_induced_embedding(g, self.host)
        if eta is None:
            return False, None
        return True, ("embedding", eta)


class Apex(Family):
    """Graphs with a vertex whose removal lands in the base family.

    Not hereditary by construction; a graph on 0 vertices has no removable
    vertex, so it is never a member.  Nesting apex is rejected.
    """

    __slots__ = ("base",)
    _tag = "apex"
    _kinds = (_FAMILY,)
    hereditary = False

    def _validate(self):
        if _contains_apex(self.base):
            raise ValidationError("apex cannot be nested")

    def _decide(self, g, budget, new_vertex_only):
        for v in range(g.n):
            budget.spend()
            res = self.base.membership(delete_vertex(g, v), budget)
            if res.member:
                return True, ("apex", v, res.certificate)
        return False, None


def _contains_apex(f: Family) -> bool:
    return isinstance(f, Apex) or any(map(_contains_apex, f._subfamilies()))


class ComplementFamily(Family):
    """co(F): graphs whose complement lies in F."""

    __slots__ = ("base",)
    _tag = "co"
    _kinds = (_FAMILY,)

    def _decide(self, g, budget, new_vertex_only):
        budget.spend()
        res = self.base.membership(complement(g), budget)
        if res.member:
            return True, ("complement", res.certificate)
        return False, None


class DisjointUnionFam(Family):
    """F1 v F2: graphs splitting into two vertex-disjoint halves with no
    edges between, half i in F_i.  Halves are unions of components."""

    __slots__ = ("left", "right")
    _tag = "du"
    _kinds = (_FAMILY, _FAMILY)

    def _decide(self, g, budget, new_vertex_only):
        return _split_decide(g, budget, components(g), self.left, self.right, "du")


class JoinFam(Family):
    """F1 ^ F2: complete join of a member of F1 and a member of F2.
    Halves are unions of co-components."""

    __slots__ = ("left", "right")
    _tag = "join"
    _kinds = (_FAMILY, _FAMILY)

    def _decide(self, g, budget, new_vertex_only):
        return _split_decide(g, budget, co_components(g), self.left, self.right, "join")


def _split_decide(g, budget, blocks, fl, fr, kind):
    """Try every split of the blocks into a left and a right union."""
    k = len(blocks)
    for pick in range(1 << k):
        budget.spend()
        lmask = rmask = 0
        for i in range(k):
            if pick >> i & 1:
                lmask |= blocks[i]
            else:
                rmask |= blocks[i]
        lres = fl.membership(induced_subgraph(g, bits(lmask)), budget)
        if not lres.member:
            continue
        rres = fr.membership(induced_subgraph(g, bits(rmask)), budget)
        if rres.member:
            return True, (kind, tuple(bits(lmask)), tuple(bits(rmask)),
                          lres.certificate, rres.certificate)
    return False, None


class UnionFam(Family):
    """Set union."""

    __slots__ = ("left", "right")
    _tag = "or"
    _kinds = (_FAMILY, _FAMILY)

    def text(self):
        return f"({self.left.text()} or {self.right.text()})"

    def _decide(self, g, budget, new_vertex_only):
        budget.spend()
        res = self.left.membership(g, budget)
        if res.member:
            return True, ("left", res.certificate)
        res = self.right.membership(g, budget)
        if res.member:
            return True, ("right", res.certificate)
        return False, None


class IntersectionFam(Family):
    """Set intersection."""

    __slots__ = ("left", "right")
    _tag = "and"
    _kinds = (_FAMILY, _FAMILY)

    def text(self):
        return f"({self.left.text()} and {self.right.text()})"

    def _decide(self, g, budget, new_vertex_only):
        budget.spend()
        lres = self.left.membership(g, budget)
        if not lres.member:
            return False, None
        rres = self.right.membership(g, budget)
        if not rres.member:
            return False, None
        return True, ("both", lres.certificate, rres.certificate)


# ---------------------------------------------------------------------------
# containment in a finitely generated family

def family_contains(f_sub: Family, f_super: Family,
                    budget_limit: int | None = None):
    """Decide f_sub subseteq f_super for f_super = forb(K_1..K_m).

    Sound because f_sub is hereditary: if any member of f_sub contains some
    K_i induced then K_i itself is a member of f_sub.  Each K_i is decided
    on a fresh budget of budget_limit nodes, in pattern order.  Returns
    (True, None) or (False, (pattern_graph, membership_result)).
    """
    if not isinstance(f_super, Forb):
        raise UnsupportedOperationError(
            "containment target must be a forb(...) family")
    if not f_sub.hereditary:
        raise UnsupportedOperationError(
            "containment source must be hereditary by construction")
    hit = _first_member(f_sub, ((k, k) for k in f_super.patterns),
                        budget_limit)
    return (True, None) if hit is None else (False, hit)


# ---------------------------------------------------------------------------
# graph naming for DSL round-trips

# the names graph_name prefers, each one a literal graph_from_name reads
_NAMED = {}


def _register_named():
    if _NAMED:
        return
    _NAMED["K13"] = star(3)
    for n in range(0, 10):
        _NAMED[f"K{n}"] = complete(n)
        _NAMED[f"E{n}"] = edgeless(n)
        if n >= 1:
            _NAMED[f"P{n}"] = path(n)
        if n >= 3:
            _NAMED[f"C{n}"] = cycle(n)
        if n >= 1:
            for m in range(2, 7):
                if m * n <= 24:
                    _NAMED[f"{m}K{n}"] = copies(m, complete(n))


def graph_from_name(name: str) -> Graph:
    """Resolve a graph literal: K13 (the claw), Kn, Cn, Pn, En, mKn or g6:...

    K13 is the lone historical alias; every other Kxx parses as a complete
    graph on xx vertices.
    """
    name = name.strip()
    if name.startswith("g6:"):
        return graph6.decode(name[3:])
    if name == "K13":
        return star(3)
    m = re.fullmatch(r"(\d*)K(\d+)", name)
    if m:
        cnt = int(m.group(1)) if m.group(1) else 1
        return copies(cnt, complete(int(m.group(2))))
    m = re.fullmatch(r"C(\d+)", name)
    if m:
        return cycle(int(m.group(1)))
    m = re.fullmatch(r"P(\d+)", name)
    if m:
        return path(int(m.group(1)))
    m = re.fullmatch(r"E(\d+)", name)
    if m:
        return edgeless(int(m.group(1)))
    raise ValidationError(f"unknown graph literal {name!r}")


def graph_name(g: Graph) -> str:
    """Preferred printable name: a named literal when the labeled graph
    matches one exactly, else a g6 literal."""
    _register_named()
    for name, h in _NAMED.items():
        if g == h:
            return name
    return "g6:" + graph6.encode(g)
