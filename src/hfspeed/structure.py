"""Classification layer on top of the membership engine.

Everything here reduces an "for all graphs" definition to a finite battery
of membership tests: the coloring number via forbidden-pattern checks
against H(s, t), reduced/dangerous classification via partition products
anchored at a concrete graph (certified) or forbidden patterns derived
from the family, apex-freeness via a derived finite witness rule, and
the small predicate zoo (meager, extendable, smooth, balanced).

Comparisons that feed verdicts are exact: integer powers for the smooth
inequality, cross-multiplied fractions for balancedness.  Floats appear
only in reports.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .canon import canonical_graph
from .errors import CapacityError, UnsupportedOperationError, ValidationError
from .families import (
    AtomAll,
    C,
    Family,
    Forb,
    HST,
    Iota,
    PartitionCertificate,
    PartitionProduct,
    S,
    _FAMILY,
    _POS,
    _first_member,
    _membership,
)
from .graphs import (
    Graph, _typed_parts, add_vertex, bits, complement, delete_vertex,
    disjoint_union, edgeless, induced_subgraph, star,
)
from .enumeration import SpeedTable, enumerate_family


# ---------------------------------------------------------------------------
# coloring number

class ColoringNumberResult(namedtuple("ColoringNumberResult",
                                     "l witness_s refutations")):
    """chi_c with its witness and the refutations one level up.

    witness_s: the s with H(witness_s, l - witness_s) contained in the
    family.  refutations: for every s' in [0, l+1], a triple
    (s', pattern_index, certificate) showing that forbidden pattern sits
    inside H(s', l+1-s'), so no containment exists at level l+1.
    """

    __slots__ = ()

    def to_json_obj(self):
        return {"chi_c": self.l if self.l != math.inf else "infinity",
                "witness_s": self.witness_s,
                "refuted_levels": [s for s, _, _ in self.refutations]}

    def __repr__(self):
        return f"ColoringNumberResult(l={self.l}, witness_s={self.witness_s})"


def coloring_number(f: Family, budget_limit: int | None = None) -> ColoringNumberResult:
    """chi_c(f) = max l such that H(s, l-s) is contained in f for some s.

    f must be in forbidden-pattern form with non-null patterns; ALL is the
    empty-pattern spelling and yields the infinity sentinel.  Containment
    of H(s, t) reduces to pattern checks: H(s, t) lies inside Forb(K...)
    iff no pattern is itself in H(s, t), by heredity.  Feasibility is
    monotone in l (drop a part), so the first infeasible level ends the
    scan; it arrives by l = max |V(K)| because singleton parts absorb any
    pattern with at most l vertices, which the scan verifies by membership
    rather than assuming.
    """
    if isinstance(f, AtomAll):
        return ColoringNumberResult(math.inf, None, ())
    if not isinstance(f, Forb):
        raise UnsupportedOperationError(
            f"coloring_number needs forbidden-pattern form, got {f.text()}")
    if any(p.n == 0 for p in f.patterns):
        raise ValidationError("null pattern makes the family empty")

    bound = max(p.n for p in f.patterns)

    def scan(l):
        # the smallest s with H(s, l-s) inside f, else one
        # (s, pattern_index, certificate) per s refuting it
        refutations = []
        for s in range(l + 1):
            hit = _first_member(HST(s, l - s), enumerate(f.patterns),
                                budget_limit)
            if hit is None:
                return s
            refutations.append((s, hit[0], hit[1].certificate))
        return refutations

    l, witness_s = 0, scan(0)
    if not isinstance(witness_s, int):
        # H(0,0) = {K0} and K0 is never a pattern
        raise RuntimeError("chi_c scan found no witness at level 0")
    while True:
        nxt = scan(l + 1)
        if not isinstance(nxt, int):
            return ColoringNumberResult(l, witness_s, tuple(nxt))
        l, witness_s = l + 1, nxt
        if l > bound:
            raise RuntimeError("chi_c scan exceeded its termination bound")


# ---------------------------------------------------------------------------
# reduced vs dangerous

class ReducedClassification(namedtuple(
        "ReducedClassification", "graph reduced witness_s violations")):
    """Verdict for one graph h against a family at level l.

    reduced: some s in [0, l-1] keeps every forbidden pattern out of
    P(iota(h), H(s, l-1-s)); witness_s is the smallest such s.  dangerous:
    violations holds one (s, pattern_index, certificate) per s, the
    certificate placing that pattern inside the product.
    """

    __slots__ = ()

    def __bool__(self):
        return self.reduced

    def __repr__(self):
        tag = f"reduced via s={self.witness_s}" if self.reduced else "dangerous"
        return f"ReducedClassification({self.graph!r}: {tag})"


def reduced_product(h: Graph, s: int, parts_after: int) -> PartitionProduct:
    """P(iota(h), H(s, parts_after - s)) flattened into one product."""
    return PartitionProduct([Iota(h)] + [S] * s + [C] * (parts_after - s))


def is_reduced(h: Graph, f: Family, l: int,
               budget_limit: int | None = None) -> ReducedClassification:
    """Classify h as reduced or dangerous for f with chi_c(f) = l.

    A graph outside f is automatically dangerous: the violated pattern
    embeds into the iota part with everything else empty.
    """
    if not isinstance(f, Forb):
        raise UnsupportedOperationError(
            f"is_reduced needs forbidden-pattern form, got {f.text()}")
    if l < 1:
        raise ValidationError("is_reduced needs l >= 1")
    violations = []
    for s in range(l):
        hit = _first_member(reduced_product(h, s, l - 1),
                            enumerate(f.patterns), budget_limit)
        if hit is None:
            return ReducedClassification(h, True, s, ())
        violations.append((s, hit[0], hit[1].certificate))
    return ReducedClassification(h, False, None, tuple(violations))


class ReducedFamily(Family):
    """red(f): the reduced graphs of f, as an enumerable family.

    red(f) is the union over s of forb(Q_s) (see _minimal_parts), so it
    is hereditary by construction.  Each Q_s is computed once per bound
    on its graphs' order, never pickled or keyed.  The text omits l; the
    key, and so the checkpoint name, keeps it.
    """

    __slots__ = ("base", "l", "_obstructions")
    _tag = "red"
    _kinds = (_FAMILY, _POS)
    hereditary = True

    def _validate(self):
        if not isinstance(self.base, Forb):
            raise ValidationError("red() needs forbidden-pattern form")

    def text(self):
        return f"red({self.base.text()})"

    def _forbs(self, n):
        """forb(Q_s), or ALL for an empty Q_s, for each s admitting a graph,
        from the parts on at most min(n, largest pattern order) vertices."""
        m = min(n, max(p.n for p in self.base.patterns))
        if getattr(self, "_obstructions", None) is None:
            object.__setattr__(self, "_obstructions", {})
        if m not in self._obstructions:
            qs = [_minimal_parts(self.base.patterns, s, self.l - 1 - s, m)
                  for s in range(self.l)]
            # K0 sorts first, and an s with K0 in Q_s admits no graph
            self._obstructions[m] = [Forb(q) if q else AtomAll()
                                     for q in qs if not q or q[0].n]
        return self._obstructions[m]

    def _decide(self, g, budget, new_vertex_only):
        # full checks: g minus its new vertex may pass under another s
        return any(forb.membership(g, budget).member
                   for forb in self._forbs(g.n)), None


def _minimal_parts(patterns, s, t, m):
    """Q_s: k[A] up to isomorphism, by order, for each pattern k and each
    A on at most m vertices minimal with k - A in H(s, t).  iota(h) is
    closed under induced subgraphs and H(s, t) is hereditary, so k is in
    P(iota(h), H(s, t)) iff some k[A] embeds in h (K0 if k is in H(s, t)).
    Vertices go in label order to the kept set while it stays in H(s, t),
    or to A while each a in A stays needed (k - A + a outside H(s, t)):
    both tests are monotone, so the leaves are exactly the minimal A."""
    beta = (0,) * s + (1,) * t
    q = set()
    for k in patterns:
        full, cuts = k.full_mask(), [0]
        inside = functools.cache(lambda x: _typed_parts(
            k.rows, beta, [full] * (s + t), 0, x, None) is not None)
        for v in range(k.n):
            b, nxt = 1 << v, []
            for cut in cuts:
                if inside((2 * b - 1) & ~cut):
                    nxt.append(cut)
                cut |= b
                if cut.bit_count() <= m and not any(
                        inside(full & ~cut | 1 << a) for a in bits(cut)):
                    nxt.append(cut)
            cuts = nxt
        # isomorphic parts often induce the same rows: canonicalise once
        q |= {canonical_graph(h)
              for h in {induced_subgraph(k, bits(a)) for a in cuts}}
    return sorted(q, key=lambda h: (h.n, h.rows))


def enumerate_reduced(f: Family, l: int, n_max: int, *,
                      budget_limit: int | None = None,
                      threads: int = 1) -> SpeedTable:
    """Exhaustive enumeration of red(f) up to n_max vertices, members kept:
    enumerate_family(ReducedFamily(f, l), ...).  red(f) is a union of
    forb(Q_s), hereditary by construction, so its members' deletions are
    not re-checked here; the tests compare them with is_reduced."""
    return enumerate_family(ReducedFamily(f, l), n_max,
                            budget_limit=budget_limit, threads=threads)


# ---------------------------------------------------------------------------
# apex-freeness

class ApexFreeResult(namedtuple("ApexFreeResult",
                               "apex_free witnesses failed_s")):
    __slots__ = ()

    def __bool__(self):
        return self.apex_free

    def __repr__(self):
        if self.apex_free:
            return f"ApexFreeResult(True, {len(self.witnesses)} witnesses)"
        return f"ApexFreeResult(False, failed_s={self.failed_s})"


def is_apex_free(f: Family, l: int,
                 budget_limit: int | None = None) -> ApexFreeResult:
    """Apex-freeness of f with chi_c(f) = l, by the finite witness rule.

    The definition asks, for every s in [0, l], for a graph H outside f
    with H minus u in H(s, l-s) for some vertex u.  It suffices to scan
    the forbidden patterns themselves: if any H works, H contains some
    pattern K induced; whether or not u meets the copy, K minus one vertex
    sits inside H minus u, and H(s, l-s) is hereditary, so K is a witness
    too.  Conversely every pattern is outside f.  Hence the scan over
    (pattern, deleted vertex) pairs is exact, and each hit is recorded
    with its partition certificate.
    """
    if not isinstance(f, Forb):
        raise UnsupportedOperationError(
            f"is_apex_free needs forbidden-pattern form, got {f.text()}")
    witnesses = []
    for s in range(l + 1):
        hit = _first_member(HST(s, l - s),
                            (((idx, u), delete_vertex(k, u))
                             for idx, k in enumerate(f.patterns)
                             for u in range(k.n)), budget_limit)
        if hit is None:
            return ApexFreeResult(False, tuple(witnesses), s)
        (idx, u), res = hit
        witnesses.append((s, idx, u, res.certificate))
    return ApexFreeResult(True, tuple(witnesses), None)


# ---------------------------------------------------------------------------
# meagerness

def substar(j: int, i: int) -> Graph:
    """K_{1,j} plus i isolated vertices (every subgraph of a star has this
    shape up to isomorphism)."""
    return disjoint_union(star(j), edgeless(i))


class MeagerResult(namedtuple(
        "MeagerResult", "meager cap substar_witness antisubstar_witness")):
    """meager is True or None, never False: a finite scan can verify an
    exclusion but not that every substar lies inside the family, so the
    negative side stays an honest unknown at the given cap."""

    __slots__ = ()

    def __repr__(self):
        tag = "meager" if self.meager else f"unknown(cap={self.cap})"
        return f"MeagerResult({tag})"


def is_meager(f: Family, cap: int = 8,
              budget_limit: int | None = None) -> MeagerResult:
    """f is meager iff some substar and some antisubstar are outside f.

    Scans the grid j + i <= cap in (j+i, j) order; the first excluded
    graph on each side is the witness.
    """
    sub_w = anti_w = None
    for total in range(cap + 1):
        for j in range(total + 1):
            g = substar(j, total - j)
            if sub_w is None and not _membership(f, g, budget_limit).member:
                sub_w = g
            if anti_w is None:
                cg = complement(g)
                if not _membership(f, cg, budget_limit).member:
                    anti_w = cg
            if sub_w is not None and anti_w is not None:
                return MeagerResult(True, cap, sub_w, anti_w)
    return MeagerResult(None, cap, sub_w, anti_w)


# ---------------------------------------------------------------------------
# extendability

class ExtendableResult(namedtuple("ExtendableResult",
                                 "extendable failing n_check")):
    __slots__ = ()

    def __bool__(self):
        return self.extendable

    def __repr__(self):
        if self.extendable:
            return f"ExtendableResult(True, n_check={self.n_check})"
        return f"ExtendableResult(False, failing={self.failing!r})"


def is_extendable_upto(f: Family, n_check: int,
                       budget_limit: int | None = None) -> ExtendableResult:
    """Does every member with fewer than n_check vertices extend inside f?

    Exhaustive over unlabeled members; reports the earliest failure (by
    order, then canonical encoding).  Capped at n_check = 8.
    """
    if n_check > 8:
        raise CapacityError("extendability check is capped at n_check = 8")
    table = enumerate_family(f, n_check - 1, budget_limit=budget_limit)
    for n in range(n_check):
        for g in table.members[n]:
            if not any(_membership(f, add_vertex(g, sub), budget_limit).member
                       for sub in range(1 << g.n)):
                return ExtendableResult(False, g, n_check)
    return ExtendableResult(True, None, n_check)


# ---------------------------------------------------------------------------
# smoothness (finite-n evidence only)

def _as_fraction(x) -> Fraction:
    # floats go through their decimal repr: 0.1 means a tenth, not the
    # nearest binary double
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def _speed_step_ok(a: int, b: int, coef: Fraction) -> bool:
    """Exact test of a >= b * 2**coef for nonnegative integers a, b."""
    if b == 0:
        return True
    if a == 0:
        return False
    p, q = coef.numerator, coef.denominator
    if p >= 0:
        return a ** q >= b ** q << p
    return a ** q << -p >= b ** q


class SmoothnessReport(namedtuple("SmoothnessReport",
                                 "family_text l delta rows")):
    """Per-n truth of the speed growth inequality.  Finite-n evidence for
    an asymptotic predicate; it never claims smoothness itself."""

    __slots__ = ()

    @property
    def last_violation(self):
        """The largest n whose row fails, or None."""
        bad = [n for n, ok in self.rows if not ok]
        return bad[-1] if bad else None

    def all_ok_from(self):
        """Smallest n0 with every row at n >= n0 true."""
        return 1 if self.last_violation is None else self.last_violation + 1

    def to_json_obj(self):
        return {
            "family": self.family_text,
            "l": self.l,
            "delta": str(self.delta),
            "rows": [{"n": n, "ok": ok} for n, ok in self.rows],
            "last_violation": self.last_violation,
            "note": "finite-n evidence, not a proof of smoothness",
        }


def smoothness_report(table: SpeedTable, l: int, delta) -> SmoothnessReport:
    """Check h(n) >= h(n-1) + ((l-1)/l - delta) * n on exact counts.

    Equivalently labeled(n) >= labeled(n-1) * 2**(((l-1)/l - delta) * n),
    compared via integer powers so no float ever decides a row.
    """
    if l < 1:
        raise ValidationError("smoothness needs l >= 1")
    d = _as_fraction(delta)
    if d <= 0:
        raise ValidationError("delta must be positive")
    slope = Fraction(l - 1, l) - d
    rows = []
    for n in range(1, table.n_max + 1):
        rows.append((n, _speed_step_ok(table.labeled[n], table.labeled[n - 1],
                                       slope * n)))
    return SmoothnessReport(table.family_text, l, d, rows)


# ---------------------------------------------------------------------------
# balanced partitions

def is_balanced(parts, eps) -> bool:
    """Every part size within n**(1-eps) of n/k, checked exactly.

    parts: a PartitionCertificate or an iterable of part sizes; eps in
    (0,1).  With eps = p/q the test |size - n/k| <= n**(1-eps) becomes
    |size*k - n|**q <= n**(q-p) * k**q, all integers.
    """
    e = _as_fraction(eps)
    if not 0 < e < 1:
        raise ValidationError("eps must lie in (0,1)")
    if isinstance(parts, PartitionCertificate):
        sizes = [len(p) for p in parts.parts]
    else:
        sizes = [int(x) for x in parts]
        if any(x < 0 for x in sizes):
            raise ValidationError("part sizes must be nonnegative")
    k = len(sizes)
    n = sum(sizes)
    if k == 0:
        return n == 0
    p, q = e.numerator, e.denominator
    return all(abs(sz * k - n) ** q <= n ** (q - p) * k ** q for sz in sizes)
