"""Reference computations that share no code with hfspeed.

Graphs are tuples of rows: rows[v] is the adjacency bitmask of vertex v.
Everything is written from the definitions, favouring obviousness over
speed; the benchmark calls these outside its timed region.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial, gcd

# Triangle-free graphs on n unlabeled vertices, n = 0..10: OEIS A006785,
# computed by B. D. McKay with geng (https://oeis.org/A006785).
A006785_TRIANGLE_FREE = (1, 1, 2, 3, 7, 14, 38, 107, 410, 1897, 12172)


def labeled_bipartite_counts(n_max):
    """Labeled bipartite graphs (H(2,0)) on n = 0..n_max vertices.

    b(n) = sum_k C(n,k) 2^{k(n-k)} counts graphs with an ordered
    2-colouring; its EGF is the square of the EGF of bipartite graphs
    (each component has exactly two colourings), so the answer is the
    power-series square root, taken with exact rationals.
    """
    b = [Fraction(sum(comb(n, k) * 2 ** (k * (n - k)) for k in range(n + 1)),
                  factorial(n)) for n in range(n_max + 1)]
    c = [Fraction(1)]
    for n in range(1, n_max + 1):
        c.append((b[n] - sum(c[i] * c[n - i] for i in range(1, n))) / 2)
    out = []
    for n in range(n_max + 1):
        v = c[n] * factorial(n)
        if v.denominator != 1:
            raise ArithmeticError(f"non-integral bipartite count at n={n}")
        out.append(int(v))
    return out


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def unlabeled_graph_counts(n_max):
    """Graphs on n unlabeled vertices by Polya counting.

    Averages 2^(cycles of the induced permutation on pairs) over S_n,
    grouping permutations by cycle type: a cycle of length L contributes
    floor(L/2) pair cycles, two cycles of lengths a and b contribute
    gcd(a, b).
    """
    out = []
    for n in range(n_max + 1):
        total = Fraction(0)
        for lam in _partitions(n):
            z = 1
            for k in set(lam):
                m = lam.count(k)
                z *= k ** m * factorial(m)
            cyc = sum(x // 2 for x in lam)
            cyc += sum(gcd(lam[i], lam[j]) for i in range(len(lam))
                       for j in range(i + 1, len(lam)))
            total += Fraction(2 ** cyc, z)
        if total.denominator != 1:
            raise ArithmeticError(f"non-integral graph count at n={n}")
        out.append(int(total))
    return out


def labeled_graphs(n):
    """Every labeled graph on [n], as rows tuples."""
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        rows = [0] * n
        for k, (u, v) in enumerate(pairs):
            if code >> k & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        yield tuple(rows)


def triangle_free(rows):
    return all(not rows[u] & rows[v]
               for u in range(len(rows)) for v in range(u)
               if rows[u] >> v & 1)


def labeled_triangle_free_count(n):
    return sum(1 for rows in labeled_graphs(n) if triangle_free(rows))


def aut_order(rows):
    """|Aut| by orbit-stabilizer: for each vertex in turn, the number of
    images it can take under automorphisms fixing the earlier vertices.
    A vertex can only map to one of equal degree and equal multiset of
    neighbour degrees."""
    n = len(rows)
    deg = [r.bit_count() for r in rows]
    inv = [(deg[v], sorted(deg[u] for u in range(n) if rows[v] >> u & 1))
           for v in range(n)]

    def extends(fixed, v, w):
        image = {x: x for x in fixed}
        image[v] = w
        used = set(image.values())
        rest = [x for x in range(n) if x not in image]

        def consistent(x, y):
            return inv[x] == inv[y] and all(
                (rows[x] >> a & 1) == (rows[y] >> b & 1)
                for a, b in image.items() if a != x)

        if not consistent(v, w):
            return False

        def rec(i):
            if i == len(rest):
                return True
            x = rest[i]
            for y in range(n):
                if y in used or not consistent(x, y):
                    continue
                image[x] = y
                used.add(y)
                if rec(i + 1):
                    return True
                used.discard(y)
                del image[x]
            return False

        return rec(0)

    order = 1
    fixed = []
    for v in range(n):
        order *= sum(1 for w in range(n) if w not in fixed
                     and extends(fixed, v, w))
        fixed.append(v)
    return order


def relabel(rows, perm):
    """The graph with vertex v renamed perm[v]."""
    out = [0] * len(rows)
    for v, r in enumerate(rows):
        m = 0
        for u in range(len(rows)):
            if r >> u & 1:
                m |= 1 << perm[u]
        out[perm[v]] = m
    return tuple(out)


def delete_vertex(rows, v):
    keep = [u for u in range(len(rows)) if u != v]
    return induced(rows, keep)


def induced(rows, vs):
    vs = list(vs)
    return tuple(sum(1 << j for j, u in enumerate(vs) if rows[w] >> u & 1)
                 for w in vs)


# ---------------------------------------------------------------------------
# crowns, s-stars and star systems, read off the definitions

def is_crown(rows, crown):
    """Every vertex is adjacent to all of the crown (itself excepted) or
    to none of it."""
    for v in range(len(rows)):
        others = [u for u in crown if u != v]
        hits = sum(rows[v] >> u & 1 for u in others)
        if hits not in (0, len(others)):
            return False
    return True


def is_s_star(rows, s):
    """Some set of at most s vertices leaves a crown when removed."""
    n = len(rows)
    for size in range(min(s, n) + 1):
        for core in combinations(range(n), size):
            if is_crown(rows, [v for v in range(n) if v not in core]):
                return True
    return False


def is_minimal_nonstar(rows, s):
    return (not is_s_star(rows, s)
            and all(is_s_star(delete_vertex(rows, v), s)
                    for v in range(len(rows))))


def system_irreducible(j_rows, alpha, beta):
    """No core vertex can move into the crown: vertex v could iff its
    crown attachment alpha(v) equals the crown type beta and every other
    core vertex u meets v the way it meets the crown (edge iff alpha(u))."""
    k = len(j_rows)
    for v in range(k):
        if alpha[v] == beta and all((j_rows[u] >> v & 1) == alpha[u]
                                    for u in range(k) if u != v):
            return False
    return True


def constellation_irreducible(j_rows, phi, alpha, beta):
    """Every fiber system (J restricted to a part, with its beta) is
    irreducible."""
    for i, b in enumerate(beta):
        vs = [v for v in range(len(j_rows)) if phi[v] == i]
        if not system_irreducible(induced(j_rows, vs),
                                  [alpha[v] for v in vs], b):
            return False
    return True


def _class_code(j_rows, phi, alpha, beta):
    """Least encoding over all relabellings of the core; parts are renamed
    in order of first use, unused parts kept as a sorted list of betas, so
    part permutations are quotiented out."""
    k = len(j_rows)
    best = None
    for perm in permutations(range(k)):
        inv = [0] * k
        for v, p in enumerate(perm):
            inv[p] = v
        rows = relabel(j_rows, perm)
        rename = {}
        for p in range(k):
            rename.setdefault(phi[inv[p]], len(rename))
        code = (rows,
                tuple(rename[phi[inv[p]]] for p in range(k)),
                tuple(alpha[inv[p]] for p in range(k)),
                tuple(beta[i] for i in sorted(rename, key=rename.get)),
                tuple(sorted(beta[i] for i in range(len(beta))
                             if i not in rename)))
        if best is None or code < best:
            best = code
    return best


def constellation_class_count(l, s):
    """Irreducible (l, s)-constellations up to equivalence, by listing
    every labeled one with parts used in first-use order and keeping the
    least relabelling of each."""
    classes = set()
    for k in range(l * s + 1):
        for phi in _restricted_growth(k, l, s):
            used = max(phi, default=-1) + 1
            for j_rows in labeled_graphs(k):
                for a in range(1 << k):
                    alpha = tuple(a >> v & 1 for v in range(k))
                    for bcode in range(1 << used):
                        head = tuple(bcode >> i & 1 for i in range(used))
                        if not constellation_irreducible(j_rows, phi, alpha,
                                                         head):
                            continue
                        for tail_ones in range(l - used + 1):
                            beta = head + (0,) * (l - used - tail_ones) \
                                + (1,) * tail_ones
                            classes.add(_class_code(j_rows, phi, alpha, beta))
    return len(classes)


def _restricted_growth(k, l, s):
    """Maps of k core vertices to parts, parts opened in first-use order,
    at most l parts and at most s vertices per part."""
    def rec(prefix, sizes):
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for i in range(min(len(sizes) + 1, l)):
            if i < len(sizes) and sizes[i] >= s:
                continue
            if i == len(sizes):
                if s == 0:
                    continue
                yield from rec(prefix + [i], sizes + [1])
            else:
                sizes[i] += 1
                yield from rec(prefix + [i], sizes)
                sizes[i] -= 1
    yield from rec([], [])


def in_PJ(rows, j_rows, phi, alpha, beta):
    """Is the graph an induced subgraph of a host admitting a template of
    the constellation (J, phi, alpha, beta)?

    Restricted to the graph, a template is: an induced copy of J[W] for
    some W of core vertices, and a part for every other vertex, such that
    each copied core vertex v meets the vertices of part phi(v) all or
    none as alpha(v) says, and each part's vertices form a clique
    (beta 1) or an independent set (beta 0).  Core vertices outside W can
    always be added back, wired as J and alpha say, so this is exact.
    """
    n, k, l = len(rows), len(j_rows), len(beta)
    for wsize in range(min(k, n) + 1):
        for w in combinations(range(k), wsize):
            for img in permutations(range(n), wsize):
                if any((j_rows[a] >> b & 1) != (rows[x] >> y & 1)
                       for (a, x) in zip(w, img) for (b, y) in zip(w, img)
                       if a != b):
                    continue
                rest = [x for x in range(n) if x not in img]
                for code in range(l ** len(rest)):
                    parts = [[] for _ in range(l)]
                    c = code
                    for x in rest:
                        parts[c % l].append(x)
                        c //= l
                    if _template_ok(rows, w, img, parts, phi, alpha, beta):
                        return True
    return False


def _template_ok(rows, w, img, parts, phi, alpha, beta):
    for i, part in enumerate(parts):
        want = beta[i]
        if any((rows[x] >> y & 1) != want
               for x in part for y in part if x != y):
            return False
    for v, x in zip(w, img):
        if any((rows[x] >> y & 1) != alpha[v] for y in parts[phi[v]]):
            return False
    return True


# ---------------------------------------------------------------------------
# the factor families of the criticality menu, from their definitions

def _complete(rows, vs):
    return all(rows[u] >> v & 1 for u in vs for v in vs if u != v)


def _edgeless(rows, vs):
    return all(not rows[u] >> v & 1 for u in vs for v in vs)


def _du(rows, vs, left, right):
    """vs splits into two sides with no edges across, one side in each
    family."""
    vs = list(vs)
    for code in range(1 << len(vs)):
        a = [v for i, v in enumerate(vs) if code >> i & 1]
        b = [v for i, v in enumerate(vs) if not code >> i & 1]
        if any(rows[x] >> y & 1 for x in a for y in b):
            continue
        if left(rows, a) and right(rows, b):
            return True
    return False


def _complemented(rows):
    n = len(rows)
    full = (1 << n) - 1
    return tuple(full & ~r & ~(1 << v) for v, r in enumerate(rows))


FACTORS = {
    "S": _edgeless,
    "C": _complete,
    "M": lambda rows, vs: all(sum(rows[u] >> v & 1 for v in vs) <= 1
                              for u in vs),
    "du(C, C)": lambda rows, vs: _du(rows, vs, _complete, _complete),
    "du(C, S)": lambda rows, vs: _du(rows, vs, _complete, _edgeless),
    "apex(C)": lambda rows, vs: not vs or any(
        _complete(rows, [u for u in vs if u != a]) for a in vs),
    "apex(S)": lambda rows, vs: not vs or any(
        _edgeless(rows, [u for u in vs if u != a]) for a in vs),
    "co(M)": lambda rows, vs: FACTORS["M"](_complemented(rows), vs),
    "co(du(C, C))": lambda rows, vs: FACTORS["du(C, C)"](_complemented(rows),
                                                         vs),
    "co(du(C, S))": lambda rows, vs: FACTORS["du(C, S)"](_complemented(rows),
                                                         vs),
}
