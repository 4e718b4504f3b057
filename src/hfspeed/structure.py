"""Classification layer on top of the membership engine.

Everything here reduces an "for all graphs" definition to a finite battery
of membership tests: the coloring number via forbidden-pattern checks
against H(s, t), reduced/dangerous classification via partition products
anchored at a concrete graph, apex-freeness via a derived finite witness
rule, and the small predicate zoo (meager, extendable, smooth, balanced).

Comparisons that feed verdicts are exact: integer powers for the smooth
inequality, cross-multiplied fractions for balancedness.  Floats appear
only in reports.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .canon import vertex_orbit
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
    Graph, add_vertex, complement, delete_vertex, disjoint_union, edgeless,
    star,
)
from .enumeration import SpeedTable, enumerate_family


# ---------------------------------------------------------------------------
# coloring number

class ColoringNumberResult:
    """chi_c with its witness and the refutations one level up.

    witness_s: the s with H(witness_s, l - witness_s) contained in the
    family.  refutations: for every s' in [0, l+1], a triple
    (s', pattern_index, certificate) showing that forbidden pattern sits
    inside H(s', l+1-s'), so no containment exists at level l+1.
    """

    __slots__ = ("l", "witness_s", "refutations")

    def __init__(self, l, witness_s, refutations):
        self.l = l
        self.witness_s = witness_s
        self.refutations = tuple(refutations)

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
            return ColoringNumberResult(l, witness_s, nxt)
        l, witness_s = l + 1, nxt
        if l > bound:
            raise RuntimeError("chi_c scan exceeded its termination bound")


# ---------------------------------------------------------------------------
# reduced vs dangerous

class ReducedClassification:
    """Verdict for one graph h against a family at level l.

    reduced: some s in [0, l-1] keeps every forbidden pattern out of
    P(iota(h), H(s, l-1-s)); witness_s is the smallest such s.  dangerous:
    violations holds one (s, pattern_index, certificate) per s, the
    certificate placing that pattern inside the product.
    """

    __slots__ = ("graph", "reduced", "witness_s", "violations")

    def __init__(self, graph, reduced, witness_s, violations):
        self.graph = graph
        self.reduced = reduced
        self.witness_s = witness_s
        self.violations = tuple(violations)

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
    return ReducedClassification(h, False, None, violations)


class ReducedFamily(Family):
    """red(f): the reduced graphs of f, as an enumerable family.

    Heredity is a theorem about red(f), not a construction, so the
    enumerator takes it on trust here; enumerate_reduced re-verifies it on
    every emitted member.  The text omits l; the key, and so the
    checkpoint name, keeps it.
    """

    __slots__ = ("base", "l")
    _tag = "red"
    _kinds = (_FAMILY, _POS)
    hereditary = True

    def _validate(self):
        if not isinstance(self.base, Forb):
            raise ValidationError("red() needs forbidden-pattern form")

    def text(self):
        return f"red({self.base.text()})"

    def _decide(self, g, budget, new_vertex_only):
        # the reduced predicate has no one-vertex shortcut; always full
        for s in range(self.l):
            prod = reduced_product(g, s, self.l - 1)
            if not any(prod.membership(k, budget).member
                       for k in self.base.patterns):
                return True, None
        return False, None


def enumerate_reduced(f: Family, l: int, n_max: int, *,
                      budget_limit: int | None = None,
                      threads: int = 1) -> SpeedTable:
    """Exhaustive enumeration of red(f) up to n_max vertices, members kept.

    Every emitted member has its one-vertex-deleted subgraphs re-checked
    as reduced, one deletion per Aut orbit of vertices: deletions in one
    orbit give isomorphic graphs.  A violation would invalidate the
    augmentation scheme itself, so it raises.
    """
    fam = ReducedFamily(f, l)
    table = enumerate_family(fam, n_max, budget_limit=budget_limit,
                             threads=threads)
    for n in range(1, n_max + 1):
        for g, gens in zip(table.members[n], table.gens[n]):
            left = (1 << n) - 1
            while left:
                v = (left & -left).bit_length() - 1
                left &= ~vertex_orbit(v, gens, n)
                if not is_reduced(delete_vertex(g, v), f, l,
                                  budget_limit).reduced:
                    raise RuntimeError(
                        f"heredity of {fam.text()} fails at "
                        f"{g!r} minus vertex {v}")
    return table


# ---------------------------------------------------------------------------
# apex-freeness

class ApexFreeResult:
    __slots__ = ("apex_free", "witnesses", "failed_s")

    def __init__(self, apex_free, witnesses, failed_s):
        self.apex_free = apex_free
        self.witnesses = tuple(witnesses)
        self.failed_s = failed_s

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
            return ApexFreeResult(False, witnesses, s)
        (idx, u), res = hit
        witnesses.append((s, idx, u, res.certificate))
    return ApexFreeResult(True, witnesses, None)


# ---------------------------------------------------------------------------
# meagerness

def substar(j: int, i: int) -> Graph:
    """K_{1,j} plus i isolated vertices (every subgraph of a star has this
    shape up to isomorphism)."""
    return disjoint_union(star(j), edgeless(i))


class MeagerResult:
    """meager is True or None, never False: a finite scan can verify an
    exclusion but not that every substar lies inside the family, so the
    negative side stays an honest unknown at the given cap."""

    __slots__ = ("meager", "cap", "substar_witness", "antisubstar_witness")

    def __init__(self, meager, cap, substar_witness, antisubstar_witness):
        self.meager = meager
        self.cap = cap
        self.substar_witness = substar_witness
        self.antisubstar_witness = antisubstar_witness

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

class ExtendableResult:
    __slots__ = ("extendable", "failing", "n_check")

    def __init__(self, extendable, failing, n_check):
        self.extendable = extendable
        self.failing = failing
        self.n_check = n_check

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


class SmoothnessReport:
    """Per-n truth of the speed growth inequality.  Finite-n evidence for
    an asymptotic predicate; it never claims smoothness itself."""

    __slots__ = ("family_text", "l", "delta", "rows", "last_violation")

    def __init__(self, family_text, l, delta, rows):
        self.family_text = family_text
        self.l = l
        self.delta = delta
        self.rows = list(rows)
        bad = [n for n, ok in self.rows if not ok]
        self.last_violation = bad[-1] if bad else None

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
