"""Isomorph-free exhaustive enumeration of hereditary families.

Canonical augmentation: level n+1 is produced from level n by attaching a
new vertex to every Aut(parent)-orbit representative of neighbourhood
subsets, and a child is accepted iff the new vertex lies in the Aut(child)
orbit of the canonical deletion vertex (the one in the highest canonical
position).  Parents are stored canonically, so each unlabeled child arrives
exactly once; no hashing against previously seen graphs is ever needed.

Because the canonical labeling puts the vertex of maximum invariant
(degree, then sorted neighbour degrees) in the highest position, a child
whose new vertex is not of maximum invariant can be rejected before any
canonical computation.  The degree part of that filter is O(1) per subset
via precomputed degree-threshold masks.

Children read off the parent: forb(K3), H(2, 0) and P(J) list, from a
member parent P alone, every neighbourhood of x that gives a member child
(the independent sets of P; a subset of one side of each component of P;
the cubes of x's placements in P's templates, see PJFamily).  The list
is the verdict: a listed child is only orbit-reduced and checked for
canonicity, with no membership call, no no-good and no budget spent.
Their labeled counts need no top level (_labeled_counts): a member on
[n] minus vertex n - 1 is a member on [n - 1], so each class P of level
n - 1 adds (n - 1)!/|Aut P| per child it lists.

Hereditary no-goods, for the other families: when the family rejects
child(P, sub), its _rejection_support may name a witness W, a set of
parent vertices on which the child plus its new vertex x already induces
a non-member.  A later child(P, sub') with sub' & W == sub & W induces the
same graph on W + x, so, the family being hereditary, it is rejected too
and is skipped before add_vertex and membership.  No-goods live for one
parent's loop.  Forb gives the image of the pattern it found.

A counted level (the top of a run that keeps no members and writes no
checkpoint) reads only how many classes there are, their |Aut| and, when
the run tallies a second family `within`, whether each lies in it.  A
child there whose new vertex x alone has the maximum invariant needs no
canonical form: x is the canonical deletion vertex, Aut fixes it, and
|Aut(child)| is |Aut(parent)| over the orbit size of x's neighbourhood.
Its `within` test runs where the child is found, on the child's own
labels; a level below the top tests its records on their canonical graphs.

A level is one map of _child_records over chunks of the level below, the
family, `within` and the budget passed with each: one chunk in process,
about 4 x workers chunks on a pool of min(threads, CPUs) processes when
the level below has more than one member.  Records are merged sorted.

Labeled counts are exact: sum over classes of n!/|Aut|.  Each child is
decided once, by the family's list or else by its membership engine, and
the direct labeled scan (labeled_count_direct) decides every graph by the
engine, so the two routes agree only if both are right; tests exploit
that.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import pickle
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, repeat

from .canon import canonical_form, subset_orbits, vertex_invariant, vertex_orbit
from .errors import (CapacityError, ResourceLimitError,
                     UnsupportedOperationError, ValidationError)
from .families import HST, Family, _membership
from .graphs import Graph, add_vertex

ENUM_MAX_N = 16
# part of every checkpoint header: bump it when the level records change
# shape, and files of another version fail the check and are recomputed
FORMAT_VERSION = 1


def _csv_line(cells):
    """One CSV line: None as an empty cell, a cell holding a comma, a quote
    or a newline quoted with its quotes doubled."""
    out = []
    for c in cells:
        c = "" if c is None else str(c)
        if any(ch in c for ch in ",\"\n"):
            c = '"' + c.replace('"', '""') + '"'
        out.append(c)
    return ",".join(out)


def _csv_table(rows):
    """The CSV lines of rows, each ended by a newline."""
    return "".join(_csv_line(r) + "\n" for r in rows)


class SpeedTable(namedtuple(
        "SpeedTable", "family_text n_max unlabeled labeled members auts gens "
        "within_labeled", defaults=(None, None, None, None))):
    """Per-order counts of a family: unlabeled classes, labeled graphs, h.

    h(n) = log2(labeled[n]) as a float for display; every consumer that
    needs to *compare* speeds works on the exact integers instead.
    members[n] holds the canonical representatives, sorted by adjacency
    encoding, when the run kept them; auts[n][i] is |Aut| of members[n][i]
    and gens[n][i] generates its Aut on canonical labels, so a weighted
    count or an orbit over members needs no canonical form.  All three
    are None when members were not kept; such a run also skips the
    canonical form of most top-level children (see enumerate_family).
    within_labeled[n] is the labeled count of the members on [n] that also
    lie in the run's `within` family, and None when no `within` was given.
    """

    __slots__ = ()

    @property
    def h_bits(self):
        return [math.log2(c) if c > 0 else float("-inf")
                for c in self.labeled]

    def to_csv(self) -> str:
        h = self.h_bits
        rows = [["n", "unlabeled", "labeled", "h_bits"]] + [
            [n, self.unlabeled[n], self.labeled[n], f"{h[n]:.12f}"]
            for n in range(self.n_max + 1)]
        return _csv_table(rows)

    def to_json_obj(self):
        h = self.h_bits
        return {
            "family": self.family_text,
            "n_max": self.n_max,
            "rows": [
                {"n": n, "unlabeled": self.unlabeled[n],
                 "labeled": str(self.labeled[n]),
                 "h_bits": h[n] if self.labeled[n] else None}
                for n in range(self.n_max + 1)
            ],
        }

    def __repr__(self):
        return (f"SpeedTable({self.family_text!r}, n_max={self.n_max}, "
                f"unlabeled={self.unlabeled})")


# one class per level entry: canonical rows, Aut generators (canonical
# labels), |Aut|
def _child_records(family, parents, n, budget_limit, counted, within=None):
    """All accepted (rows, gens, aut) children of the given parent records;
    on a counted level (None, inside, aut), where inside is the child's
    verdict in `within`, None without one (see the module docstring)."""

    def inside(child):
        if within is not None:
            return _membership(within, child, budget_limit).member

    out = []
    nb = n + 1
    for rows, gens, aut in parents:
        degs = [r.bit_count() for r in rows]
        maxdeg = max(degs, default=0)
        # deg_mask[t] = vertices of parent degree >= t
        deg_mask = [0] * (n + 2)
        for v, d in enumerate(degs):
            for t in range(d + 1):
                deg_mask[t] |= 1 << v
        listed = family._member_children(rows)
        survivors = []
        for sub in range(1 << n) if listed is None else sorted(listed):
            t = sub.bit_count()
            # new vertex needs the maximum degree in the child
            if t >= maxdeg and not sub & deg_mask[t]:
                survivors.append(sub)
        orbits = subset_orbits(n, gens, survivors)
        parent = Graph.from_rows(rows)
        # no-goods: witness mask W -> the traces sub & W of rejected children
        nogoods = {}
        for sub, size in orbits.items():
            if nogoods and any(sub & w in traces
                               for w, traces in nogoods.items()):
                continue
            child = add_vertex(parent, sub)
            if listed is None:
                res = _membership(family, child, budget_limit, True)
                if not res.member:
                    w = family._rejection_support(child, res)
                    if w is not None:
                        nogoods.setdefault(w, set()).add(sub & w)
                    continue
            inv = vertex_invariant(child)
            vmax = max(inv)
            if inv[n] != vmax:
                continue
            if counted and inv.count(vmax) == 1:
                out.append((None, inside(child), aut // size))
                continue
            cf = canonical_form(child)
            w = cf.labeling.index(nb - 1)
            if w != n and not vertex_orbit(n, cf.generators, nb) >> w & 1:
                continue
            if counted:
                out.append((None, inside(child), cf.aut_order))
                continue
            lab = cf.labeling
            inv_lab = [0] * nb
            for i, p in enumerate(lab):
                inv_lab[p] = i
            gens_c = tuple(tuple(lab[p[inv_lab[q]]] for q in range(nb))
                           for p in cf.generators)
            out.append((cf.canon.rows, gens_c, cf.aut_order))
    return out


def _write_atomic(path, write):
    """Call write(fh) on a temporary file next to path, then move it onto
    path, so an interrupted write never leaves a partial file there."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


class _PlainUnpickler(pickle.Unpickler):
    """Loads tuples, lists, strings, ints and bytes, and refuses anything
    that names a class or a function, so reading a checkpoint runs no
    code (the "restricting globals" recipe of the pickle docs)."""

    def find_class(self, module, name):
        raise pickle.UnpicklingError(f"{module}.{name} is not plain data")


def _read_level(path, header):
    """The records of a level file, or None when it is missing, damaged,
    not plain data or another family's or level's: the level is then
    recomputed.  The digest is checked before anything is unpickled,
    because one flipped byte can make even a plain-data load allocate
    gigabytes (a memo index)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        body = data[:-32]
        if hashlib.sha256(body).digest() == data[-32:]:
            head, recs = _PlainUnpickler(io.BytesIO(body)).load()
            if head == header:
                return recs
    except (OSError, pickle.UnpicklingError, ValueError, TypeError):
        pass
    return None


def _level_records(f, n, below, budget_limit, pool, workers, counted, within):
    """The records of level n, sorted by rows unless counted, computed
    from the records of level n - 1 (none for n = 0), in chunks as the
    module docstring says."""
    if n == 0:
        empty = Graph(0)
        member0 = _membership(f, empty, budget_limit).member
        return [(empty.rows, (), 1)] if member0 else []
    run, chunks = map, [below]
    if pool is not None and len(below) > 1:
        step = max(1, len(below) // (workers * 4))
        run = pool.map
        chunks = [below[i:i + step] for i in range(0, len(below), step)]
    recs = [r for part in run(_child_records, repeat(f), chunks, repeat(n - 1),
                              repeat(budget_limit), repeat(counted),
                              repeat(within))
            for r in part]
    if not counted:
        recs.sort(key=lambda r: r[0])
    return recs


def enumerate_family(f: Family, n_max: int, *, budget_limit: int | None = None,
                     threads: int = 1, keep_members: bool = True,
                     checkpoint_dir: str | None = None,
                     within: Family | None = None) -> SpeedTable:
    """Exhaustive unlabeled enumeration of f up to n_max vertices.

    Refuses families that are not hereditary by construction (the
    augmentation scheme would silently undercount).  threads > 1 maps
    _child_records over about 4 x workers chunks of each level's parents
    on a pool of min(threads, os.cpu_count()) worker processes (a level
    of one parent stays in process); records are merged by sorted
    canonical encoding, so any worker count produces identical output.
    Checkpoints, when enabled, hold one file per level, named by a hash of
    the format version and the structural family key: a pickle of the
    header (that pair's repr, n) and the level's records, then its sha256.
    A level is loaded when its digest and header match and it is plain
    data, and is otherwise computed from the level below and written back
    atomically.  Loaded records are not re-canonicalised, so a forged file
    with a matching digest is taken on trust.
    With keep_members=False and no checkpoint_dir the top level is only
    counted: most of its children are accepted without a canonical form,
    their |Aut| read off the parent's group, for the same counts.
    A `within` family is tallied alongside: within_labeled[n] counts the
    members on [n] that lie in it, each class tested once on a fresh
    budget (a counted top level tests its children on their own labels).
    A budget is spent per decided graph, so a child that f lists spends
    none.  An exhausted membership budget raises ResourceLimitError naming
    the family (f or within), the level and the graph being decided; so
    does a pool worker that dies, naming f and the level.
    """
    if not f.hereditary:
        raise UnsupportedOperationError(
            f"enumeration needs a hereditary-by-construction family, "
            f"got {f.text()}")
    if n_max < 0 or n_max > ENUM_MAX_N:
        raise CapacityError(f"n_max {n_max} outside 0..{ENUM_MAX_N}")
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")

    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
        ident = repr((FORMAT_VERSION, f.key()))
        stem = hashlib.sha256(ident.encode()).hexdigest()[:16]

    # fork starts every worker at the first submit, so never more than
    # the CPUs; a pool still runs at threads > 1 on one CPU
    workers = min(threads, os.cpu_count() or 1)
    pool, broken = None, ()
    if threads > 1:
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool as broken
        pool = ProcessPoolExecutor(workers, mp.get_context("fork"))

    unlabeled, labeled = [], []
    members = [] if keep_members else None
    auts = [] if keep_members else None
    gens = [] if keep_members else None
    within_labeled = [] if within is not None else None
    recs = []
    try:
        for n in range(n_max + 1):
            # the top level of a run that keeps and writes nothing is only
            # counted (level 0 is built whole, never from parents)
            counted = 0 < n == n_max and not (keep_members or checkpoint_dir)
            recs_below, recs = recs, None
            if checkpoint_dir:
                path = os.path.join(checkpoint_dir, f"enum-{stem}-{n:02d}.pkl")
                recs = _read_level(path, (ident, n))
            if recs is None:
                recs = _level_records(f, n, recs_below, budget_limit, pool,
                                      workers, counted, within)
                if checkpoint_dir:
                    out = io.BytesIO()
                    pickle.dump(((ident, n), recs), out)
                    out.write(hashlib.sha256(out.getvalue()).digest())
                    _write_atomic(path, lambda fh: fh.write(out.getvalue()))
            unlabeled.append(len(recs))
            fact = math.factorial(n)
            labeled.append(sum(fact // aut for _, _, aut in recs))
            if within is not None:
                # a counted level's records carry their children's verdicts
                within_labeled.append(sum(
                    fact // aut for rows, inside, aut in recs
                    if (inside if counted else _membership(
                        within, Graph.from_rows(rows), budget_limit).member)))
            if members is not None:
                members.append([Graph.from_rows(rows) for rows, _, _ in recs])
                auts.append([aut for _, _, aut in recs])
                gens.append([g for _, g, _ in recs])
    except broken as e:
        raise ResourceLimitError(f"{f.text()} at level {n}: a worker "
                                 f"process died") from e
    finally:
        if pool is not None:
            # nothing is pending after a whole run; after an error the
            # queued chunks are dropped
            pool.shutdown(cancel_futures=True)

    return SpeedTable(f.text(), n_max, unlabeled, labeled, members, auts,
                      gens, within_labeled)


def _labeled_counts(f, n_max, budget_limit, threads, within=None):
    """enumerate_family(f, n_max, within=within)'s labeled counts.  When
    f and `within` list their member children, level n_max is not built:
    a member minus its last vertex is a member (heredity), so each class
    P below adds (n_max - 1)!/|Aut P| per child that both lists hold.  An
    n_max outside 0..ENUM_MAX_N is refused, as enumerate_family does."""
    listed = 0 < n_max <= ENUM_MAX_N and all(
        x._member_children(()) is not None
        for x in (f, within) if x is not None)
    t = enumerate_family(f, n_max - 1 if listed else n_max,
                         budget_limit=budget_limit, threads=threads,
                         keep_members=listed, within=within)
    if not listed:
        return t.labeled, t.within_labeled
    w = math.factorial(n_max - 1)
    top = inside = 0
    for g, aut in zip(t.members[-1], t.auts[-1]):
        kids = set(f._member_children(g.rows))
        top += w // aut * len(kids)
        if within is not None:
            inside += w // aut * len(
                kids.intersection(within._member_children(g.rows)))
    return (t.labeled + [top],
            None if within is None else t.within_labeled + [inside])


def _bench_counts(f, l, n_max, budget_limit, threads, counts):
    """The benchmark H(l, 0)'s labeled counts to n_max: `counts`, which
    are f's own, when f is H(l, 0), else _labeled_counts'."""
    bench = HST(l, 0)
    return (counts if f == bench
            else _labeled_counts(bench, n_max, budget_limit, threads)[0])


# ---------------------------------------------------------------------------
# the independent counting route

def labeled_count_direct(f: Family, n: int, budget_limit: int | None = None) -> int:
    """Count labeled members on [n] by scanning all 2^C(n,2) graphs.

    Exponential on purpose; it shares nothing with the augmentation scheme
    except the membership engine, which makes it the oracle of choice for
    cross-checking counts at small n.
    """
    if n < 0 or n > 7:
        raise CapacityError("direct labeled scan is capped at n = 7")
    pairs = list(combinations(range(n), 2))
    total = 0
    for code in range(1 << len(pairs)):
        rows = [0] * n
        for k, (u, v) in enumerate(pairs):
            if code >> k & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        if _membership(f, Graph.from_rows(rows), budget_limit).member:
            total += 1
    return total


# ---------------------------------------------------------------------------
# speed deltas against the benchmark H(l) = H(l, 0)

class DeltaReport(namedtuple("DeltaReport",
                            "family_text l n_max delta k_fit drift fit_ns")):
    """delta(n) = h(F, n) - h(H(l), n), a fitted log coefficient and the
    residual drift over the top half of the range."""

    __slots__ = ()

    def to_json_obj(self):
        return {
            "family": self.family_text,
            "l": self.l,
            "n_max": self.n_max,
            "delta": self.delta,
            "k_fit": self.k_fit,
            "drift": self.drift,
            "fit_ns": list(self.fit_ns),
        }


def speed_delta(f: Family, l: int, n_max: int, *, budget_limit=None,
                threads: int = 1, table: SpeedTable | None = None,
                bench: SpeedTable | None = None) -> DeltaReport:
    """Fit delta(n) = h(F,n) - h(H(l),n) ~ k*log2(n) + O(1) over the top
    half of the range; k is rounded and clamped at 0, drift is the spread
    of the residual delta(n) - k*log2(n) there.  The labeled counts are
    _labeled_counts' unless a table (of f) or bench (of H(l)) is given;
    when f is H(l) itself and no table is given, f's counts serve both
    sides."""
    tl = (_labeled_counts(f, n_max, budget_limit, threads)[0]
          if table is None else table.labeled)
    # a given table is not f's counts, so it never stands in for H(l)
    bl = (_bench_counts(f if table is None else None, l, n_max,
                        budget_limit, threads, tl)
          if bench is None else bench.labeled)
    delta = [None] * (n_max + 1)
    for n in range(n_max + 1):
        if tl[n] > 0 and bl[n] > 0:
            delta[n] = math.log2(Fraction(tl[n], bl[n]))
    fit_ns = [n for n in range(max(1, n_max // 2 + 1), n_max + 1)
              if delta[n] is not None]
    if len(fit_ns) < 2:
        raise ValidationError("not enough points to fit a delta slope")
    xs = [math.log2(n) for n in fit_ns]
    ys = [delta[n] for n in fit_ns]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx if sxx else 0.0
    k_fit = max(0, round(slope))
    resid = [delta[n] - k_fit * math.log2(n) for n in fit_ns]
    drift = max(resid) - min(resid)
    return DeltaReport(f.text(), l, n_max, delta, k_fit, drift, fit_ns)
