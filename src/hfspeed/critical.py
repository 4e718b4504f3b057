"""Criticality decisions and the desk-scale verification experiments.

A family f with chi_c(f) = l is critical when its speed stays within a
bounded factor of the benchmark H(l, 0); the working criterion here is
the tuple scan: f is critical iff no partition product P(F1, ..., Fl),
with F1 drawn from the eight-seed menu below and every later part C or
S, is contained in f.  Containment of a product in forb(K_1, ..., K_m)
is the finite rule: every K_i a non-member of the product.

The finite rule needs the product hereditary on nonempty graphs.  The
non-apex seeds are hereditary outright.  An apex seed fails heredity
only when deleting a vertex empties its part, and a re-partition
repairs that case: the deleted graph is still nonempty, so some other
part owns a vertex w, and {w} lands in apex(C) and apex(S) both (one
vertex, remove it, the empty graph is complete and edgeless) while the
donor part stays in C or S.  Deleting any other vertex keeps the part
in its seed because the seed bases are hereditary.  So a pattern
induced in a product member is itself a product member, which is all
the rule uses; the empty graph needs no care because forb with
non-null patterns always keeps it.

The experiments (verify_*) freeze exact counts into ExperimentReport
rows.  Fractions are exact rationals serialized as "p/q" strings;
wall-clock runtime is kept on the report object but deliberately left
out of every serialized form, so artifacts are byte-identical across
runs, thread counts, and machines.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from fractions import Fraction

from .enumeration import (_bench_counts, _csv_table, _labeled_counts,
                          enumerate_family)
from .errors import (ResourceLimitError, UnsupportedOperationError,
                     ValidationError)
from .families import (Apex, Budget, C, ComplementFamily, DisjointUnionFam,
                       Forb, HST, M, PartitionProduct, S, _first_member,
                       _membership, _refusal, family_contains)
from .graphs import bits, complete
from .stars import (PJFamily, _as_constellation, constellation_irreducible,
                    generate_constellations, is_s_star)
from .structure import coloring_number, enumerate_reduced, is_balanced
from . import graph6


# the eight first-part seeds, in scan order; later parts range over (C, S)
# with C first.  du is disjoint union, co is complementation, apex(F) adds
# one unrestricted vertex.  co(apex(C)) is apex(S), spelled directly.
_DU_CC = DisjointUnionFam(C, C)
_DU_CS = DisjointUnionFam(C, S)
FIRST_PART_MENU = (
    M,
    _DU_CC,
    _DU_CS,
    Apex(C),
    ComplementFamily(M),
    ComplementFamily(_DU_CC),
    ComplementFamily(_DU_CS),
    Apex(S),
)


class CriticalityVerdict(namedtuple(
        "CriticalityVerdict", "critical l s witness refutations n_check")):
    """Outcome of a criticality decision.

    critical: the boolean verdict at level l = chi_c(f).
    s: on the critical side, the least s whose reduced members in the
       window [4s+6, n_check] are all s-stars.  The window is empty for
       large s, which the horizon reads as vacuously fine, so s is only
       trusted up to n_check; None on the non-critical side.
    witness: on the non-critical side, the factor tuple whose product
       sits inside f.
    refutations: on the critical side, one entry per scanned tuple:
       (factors, pattern, certificate) where pattern is a forbidden
       graph of f that the product accepts, with its partition
       certificate.
    """

    __slots__ = ()

    def __bool__(self):
        return self.critical

    def to_json_obj(self):
        obj = {"critical": self.critical, "l": self.l, "s": self.s,
               "n_check": self.n_check}
        if self.witness is not None:
            obj["witness"] = [f.text() for f in self.witness]
        if self.refutations is not None:
            obj["refutations"] = [
                {"tuple": [f.text() for f in fams],
                 "pattern": graph6.encode(k)}
                for fams, k, _cert in self.refutations]
        return obj

    def __repr__(self):
        if self.critical:
            return (f"CriticalityVerdict(critical, l={self.l}, s={self.s} "
                    f"at horizon {self.n_check})")
        inner = ", ".join(f.text() for f in self.witness)
        return f"CriticalityVerdict(non-critical, l={self.l}, P({inner}))"


def criticality_tuples(l):
    """The scan order: eight seeds times (C, S)^(l-1), C before S."""
    if l < 1:
        raise ValidationError("tuples need l >= 1")
    tuples = []
    rest_choices = [()]
    for _ in range(l - 1):
        rest_choices = [r + (t,) for r in rest_choices for t in (C, S)]
    for f1 in FIRST_PART_MENU:
        for rest in rest_choices:
            tuples.append((f1,) + rest)
    return tuples


def is_critical(f, *, n_check: int = 8, budget_limit: int | None = None,
                threads: int = 1) -> CriticalityVerdict:
    """Criticality of f at its own level l = chi_c(f).

    f must be in forbidden-pattern form with non-null patterns and
    finite chi_c; a family of unbounded coloring number has no level to
    be critical at.  Non-critical verdicts carry the witness tuple;
    critical verdicts carry the full refutation table and the horizon-s
    described on CriticalityVerdict.
    """
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    res = coloring_number(f, budget_limit)
    l = res.l
    if l == math.inf:
        raise UnsupportedOperationError(
            "criticality is undefined at unbounded coloring number")
    if l < 1:
        raise UnsupportedOperationError(
            "criticality needs chi_c >= 1; this family excludes a "
            "one-vertex graph")
    refutations = []
    for fams in criticality_tuples(l):
        # the finite rule of the module docstring; an apex seed keeps the
        # product out of family_contains, which asks for heredity by
        # construction
        hit = _first_member(PartitionProduct(fams),
                            ((k, k) for k in f.patterns), budget_limit)
        if hit is None:
            # every pattern avoids the product, so the product sits
            # inside f and f is not critical
            return CriticalityVerdict(False, l, None, fams, None, n_check)
        refutations.append((fams, hit[0], hit[1].certificate))
    s = _s_at_horizon(f, l, n_check, budget_limit, threads)
    return CriticalityVerdict(True, l, s, None, tuple(refutations), n_check)


def _s_at_horizon(f, l, n_check, budget_limit, threads):
    """Least s whose reduced members in [4s+6, n_check] are all s-stars.

    Minimal non-s-stars have at most 4s+5 vertices, so a family whose
    reduced members are s-stars from 4s+6 on keeps that property for
    every order the horizon reached.  An empty window is vacuously
    fine; the verdict records n_check so the caller knows how far the
    evidence goes.
    """
    table = enumerate_reduced(f, l, n_check, budget_limit=budget_limit,
                              threads=threads)
    s = 0
    while True:
        if all(is_s_star(g, s)
               for n in range(4 * s + 6, n_check + 1)
               for g in table.members[n]):
            return s
        s += 1


# ---------------------------------------------------------------------------
# experiment reports

class ExperimentReport(namedtuple(
        "ExperimentReport", "experiment params rows verdicts runtime extras",
        defaults=(0.0, None))):
    """One experiment's exact rows plus its verdicts.

    rows is a list of flat dicts with a fixed key order; counts are
    decimal strings, fractions are "p/q" strings, bit quantities are
    floats.  runtime (wall seconds) and extras (in-memory conveniences
    such as Fraction lists or certificate objects) are excluded from
    both serialized forms on purpose: artifacts must not depend on the
    clock or the process.
    """

    __slots__ = ()

    def to_json_obj(self):
        return {"experiment": self.experiment, "params": self.params,
                "rows": self.rows, "verdicts": self.verdicts}

    def to_csv(self) -> str:
        if not self.rows:
            return "\n"
        header = list(self.rows[0])
        rows = [header] + [[r.get(k) for k in header] for r in self.rows]
        return _csv_table(rows)

    def __repr__(self):
        return (f"ExperimentReport({self.experiment!r}, "
                f"rows={len(self.rows)}, verdicts={self.verdicts})")


def _fraction_rows(totals, covers, n_max):
    """The exact fractions covers[n] / totals[n] for n = 1..n_max (None at
    0), their flat n/total/covered/fraction rows, and the trend verdict:
    the last fraction against the one three orders earlier."""
    fracs = [None] + [Fraction(covers[n], totals[n])
                      for n in range(1, n_max + 1)]
    rows = [{"n": n, "total": str(totals[n]), "covered": str(covers[n]),
             "fraction": str(fracs[n])} for n in range(1, n_max + 1)]
    lo = n_max - 3
    if lo < 1:
        return fracs, rows, {"trend_up": None, "trend_pair": None}
    return fracs, rows, {"trend_up": fracs[n_max] > fracs[lo],
                         "trend_pair": [lo, n_max]}


# ---------------------------------------------------------------------------
# benchmark fraction of the clique-free family

def verify_kpr(l: int, n_max: int, *, budget_limit: int | None = None,
               threads: int = 1) -> ExperimentReport:
    """Exact fraction |H(l,0)^n| / |forb(K_{l+1})^n| for n up to n_max.

    One enumeration of forb(K_{l+1}) that tallies H(l, 0) as it goes
    (enumerate_family's `within`).  Every l-colourable graph is
    K_{l+1}-free, so the classes of H(l, 0) are exactly the l-colourable
    classes of forb(K_{l+1}), and each adds n!/|Aut| to both labeled
    counts.  At l = 2 both families list their member children: no
    child of forb(K3) is decided by a membership call (only the H(2, 0)
    tally of each class below the top spends a node), and the top level
    is read off the classes below (_labeled_counts).  At l = 3 the top
    level is only counted and its children are tested for colourability
    on their own labels, in the pool workers when threads > 1; under a
    tight budget_limit that level may be refused where a test on
    canonical labels would pass, or the other way round.
    The asymptotic claim this probes says the fraction tends to 1, and
    the trend verdict honestly reports whether the last value beats the
    one three orders earlier, which at desk scale it may not.
    """
    if l not in (2, 3):
        raise ValidationError("the clique benchmark runs at l in {2, 3}")
    if not 4 <= n_max <= 10:
        raise ValidationError("n_max must lie in [4, 10]")
    start = time.perf_counter()
    totals, covers = _labeled_counts(Forb([complete(l + 1)]), n_max,
                                     budget_limit, threads, HST(l, 0))
    for n in range(1, n_max + 1):
        if not 0 < covers[n] <= totals[n]:
            raise RuntimeError(f"kpr count at n={n}: covered {covers[n]} "
                               f"outside (0, {totals[n]}]")
    fracs, rows, verdicts = _fraction_rows(totals, covers, n_max)
    return ExperimentReport("kpr", {"l": l, "n_max": n_max}, rows, verdicts,
                            time.perf_counter() - start,
                            extras={"fractions": fracs})


# ---------------------------------------------------------------------------
# partitioned fraction of an arbitrary family

def verify_partition_fraction(f, t_family, l: int, n_max: int, *,
                              eps: Fraction = Fraction(1, 2),
                              budget_limit: int | None = None,
                              threads: int = 1) -> ExperimentReport:
    """Fraction of f^n (labeled) splitting into l parts from t_family,
    plus the sub-fraction whose partition is unique up to part
    permutation and eps-balanced.

    Weights are n!/|Aut|, so the labeled fractions are exact.  Each
    member's verdict reads the first two leaves of the product's own
    part walk: one leaf or more means covered, exactly one means
    unique, and balance is judged on the first leaf's part sizes.  Both
    leaves are charged to the member's one budget.  One spot
    certificate per order (the first partitioned member in canonical
    order) lands in verdicts["spots"] for replay; rows stay flat so the
    CSV form is a plain table.
    """
    if not t_family.hereditary:
        raise ValidationError("the part family must be hereditary")
    if l < 1:
        raise ValidationError("need l >= 1 parts")
    if not 1 <= n_max <= 10:
        raise ValidationError("n_max must lie in [1, 10]")
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValidationError("eps must lie strictly between 0 and 1")
    start = time.perf_counter()
    prod = PartitionProduct((t_family,) * l)
    table = enumerate_family(f, n_max, budget_limit=budget_limit,
                             threads=threads, keep_members=True)
    covers, uniques, spots = [None], [None], []
    for n in range(1, n_max + 1):
        covered = unique_balanced = 0
        spot = None
        fact = math.factorial(n)
        for g, aut in zip(table.members[n], table.auts[n]):
            try:
                leaves = prod._partitions(g, Budget(budget_limit), 2)
            except ResourceLimitError as e:
                raise _refusal(prod, g, e) from e
            if not leaves:
                continue
            w = fact // aut
            covered += w
            parts = [list(bits(m)) for m in leaves[0][0]]
            if len(leaves) == 1 and is_balanced(map(len, parts), eps):
                unique_balanced += w
            if spot is None:
                spot = {"n": n, "graph": graph6.encode(g), "parts": parts}
        covers.append(covered)
        uniques.append(unique_balanced)
        if spot is not None:
            spots.append(spot)
    fracs, rows, verdicts = _fraction_rows(table.labeled, covers, n_max)
    for row, c, u in zip(rows, covers[1:], uniques[1:]):
        row["unique_balanced"] = str(Fraction(u, c)) if c else None
    # one replayable certificate per order: the first partitioned member
    # in canonical enumeration order
    verdicts["spots"] = spots
    params = {"family": f.text(), "part_family": t_family.text(), "l": l,
              "n_max": n_max, "eps": str(eps)}
    return ExperimentReport("partition-fraction", params, rows, verdicts,
                            time.perf_counter() - start,
                            extras={"fractions": fracs})


# ---------------------------------------------------------------------------
# constellation coverage

def verify_constellation_cover(f, l: int, s: int, n_max: int, *,
                               budget_limit: int | None = None,
                               threads: int = 1) -> ExperimentReport:
    """Coverage of f^n (labeled) by the P(J) of every generated
    constellation at (l, s) whose family fits inside f.

    Selection is family_contains(P(J), f), the finite rule (P(J) is
    hereditary): J is kept iff no forbidden pattern of f is a member of
    P(J).  Coverage of a graph means membership in at least one selected
    P(J).
    """
    if not isinstance(f, Forb):
        raise UnsupportedOperationError(
            "coverage needs forbidden-pattern form")
    if not 1 <= n_max <= 10:
        raise ValidationError("n_max must lie in [1, 10]")
    start = time.perf_counter()
    pjs = [pj for pj in map(PJFamily, generate_constellations(l, s))
           if family_contains(pj, f, budget_limit)[0]]
    selected = [pj.constellation for pj in pjs]
    table = enumerate_family(f, n_max, budget_limit=budget_limit,
                             threads=threads, keep_members=True)
    covers = [None] + [
        sum(math.factorial(n) // aut
            for g, aut in zip(table.members[n], table.auts[n])
            if any(_membership(pj, g, budget_limit).member for pj in pjs))
        for n in range(1, n_max + 1)]
    fracs, rows, verdicts = _fraction_rows(table.labeled, covers, n_max)
    verdicts["selected"] = len(selected)
    params = {"family": f.text(), "l": l, "s": s, "n_max": n_max,
              "selected": [c.to_json_obj() for c in selected]}
    return ExperimentReport("constellation-cover", params, rows, verdicts,
                            time.perf_counter() - start,
                            extras={"fractions": fracs,
                                    "selected": tuple(selected)})


# ---------------------------------------------------------------------------
# star and constellation speed drift

def verify_star_speed(sys, l: int, n_max: int, *, n_min: int | None = None,
                      budget_limit: int | None = None,
                      threads: int = 1) -> ExperimentReport:
    """Drift of h(P(J), n) - h(H(l, 0), n) - k log2 n with k = |V(J)|.

    The speed of P(J) should exceed the benchmark by k log2 n plus a
    bounded term, so the residual over the window [n_min, n_max]
    (default: the top half) should move by less than the declared two
    bits.  k is the true core size, not a fitted slope; the drift is
    an honest measurement, not a regression.  Only labeled counts are
    read (_labeled_counts).
    """
    c = _as_constellation(sys)
    if not constellation_irreducible(c):
        raise ValidationError("speed drift needs an irreducible system")
    if l != c.l:
        raise ValidationError(f"l={l} does not match the system's {c.l}")
    cap = 12 if c.l == 1 else 10
    if not 2 <= n_max <= cap:
        raise ValidationError(f"n_max must lie in [2, {cap}] at l={c.l}")
    lo = max(1, n_max // 2 + 1) if n_min is None else n_min
    if not 1 <= lo < n_max:
        raise ValidationError("the drift window needs at least two orders")
    start = time.perf_counter()
    k = c.j.n
    # P(J) with an empty core and beta all 0 is the benchmark H(l, 0), so
    # one enumeration serves both sides; any other P(J) lists its children
    fam = HST(l, 0) if k == 0 and not any(c.beta) else PJFamily(c)
    tp = _labeled_counts(fam, n_max, budget_limit, threads)[0]
    tb = _bench_counts(fam, l, n_max, budget_limit, threads, tp)
    rows = []
    residuals = {}
    for n in range(1, n_max + 1):
        lab, blab = tp[n], tb[n]
        # both sides keep at least one graph per order: the all-in-one-
        # crown split works for edgeless or complete depending on beta
        if not (lab > 0 and blab > 0):
            raise RuntimeError(f"star-speed count at n={n} is zero: "
                               f"{lab} labeled, {blab} benchmark")
        delta = math.log2(lab) - math.log2(blab)
        resid = delta - k * math.log2(n)
        residuals[n] = resid
        rows.append({"n": n, "labeled": str(lab), "bench_labeled": str(blab),
                     "delta_bits": delta, "residual_bits": resid})
    window = [residuals[n] for n in range(lo, n_max + 1)]
    drift = max(window) - min(window)
    verdicts = {"drift_bits": drift, "within_tolerance": drift < 2.0,
                "window": [lo, n_max], "k": k}
    params = {"system": c.to_json_obj(), "l": l, "n_max": n_max,
              "n_min": lo, "k": k}
    return ExperimentReport("star-speed", params, rows, verdicts,
                            time.perf_counter() - start)
