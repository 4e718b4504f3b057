"""Frozen verdicts of the three partition-style deciders.

P(J) membership, partition products and H(s, t) answer with a
certificate or an exhausted search whose node count feeds the transcript
hash, so each pin hashes (family, graph, certificate, nodes) over every
class to n = 6 and over a seeded relabelled copy of each.  The digests
were recorded on the per-vertex crown assignment, the pair-loop
induced_subgraph and H(s, t)'s own backtrack, before it shared the
crowns' typed-part kernel, so a faster search must walk the same tree to
keep them.
"""

import hashlib
import random

from hfspeed.critical import criticality_tuples
from hfspeed.enumeration import enumerate_family
from hfspeed.families import (ALL, C, HST, M, PartitionCertificate,
                              PartitionProduct)
from hfspeed.graph6 import decode
from hfspeed.graphs import cycle, relabel
from hfspeed.stars import Constellation, is_member_PJ
from hfspeed.structure import reduced_product


def _classes_and_copies(n_max, seed):
    rng = random.Random(seed)
    table = enumerate_family(ALL, n_max)
    for n in range(n_max + 1):
        for g in table.members[n]:
            perm = list(range(n))
            rng.shuffle(perm)
            yield g
            yield relabel(g, perm)


def _plain(cert):
    if isinstance(cert, PartitionCertificate):
        return (cert.parts, tuple(_plain(s) for s in cert.sub))
    if isinstance(cert, tuple):
        return tuple(_plain(x) for x in cert)
    return cert


def _digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


CONSTELLATIONS = [
    Constellation(decode("A?"), (0, 1), (1, 1), (0, 0)),   # A?;01;11;00
    Constellation(decode("@"), (0,), (1,), (0,)),           # DOM, @;0;1;0
    # two members of generate_constellations(3, 1): mixed beta with two
    # core-free parts of equal beta, and mixed beta with every part cored
    Constellation(decode("@"), (2,), (1,), (1, 1, 0)),
    Constellation(decode("Bo"), (0, 1, 2), (0, 0, 1), (1, 1, 0)),
]

PJ_DIGEST = (
    "65e5541302c0ce0ba043c01accdccbafdba759da48f4ab7a70e394a2c85a90b3")


def test_pj_verdicts_digest():
    rows = []
    for c in CONSTELLATIONS:
        for g in _classes_and_copies(6, 8):
            r = is_member_PJ(g, c)
            rows.append((c.to_json(), g.rows, r.certificate, r.nodes))
    assert _digest(rows) == PJ_DIGEST


def _products():
    tuples = criticality_tuples(2)
    return [PartitionProduct((M, C)),
            reduced_product(cycle(5), 0, 1), reduced_product(cycle(5), 1, 1),
            PartitionProduct(tuples[3]), PartitionProduct(tuples[14])]


PRODUCT_DIGEST = (
    "f2aac120591c63b47f9b53551cf81a6e254fdeae6b29a6b057381fc220090ddf")


def test_partition_product_verdicts_digest():
    rows = []
    for f in _products():
        for g in _classes_and_copies(6, 9):
            r = f.membership(g)
            rows.append((f.text(), g.rows, _plain(r.certificate), r.nodes))
    assert _digest(rows) == PRODUCT_DIGEST


HST_PAIRS = [(3, 0), (2, 1), (1, 2), (0, 3), (3, 1), (2, 2), (1, 3), (4, 0)]

HST_DIGEST = (
    "e2a8914acdd363b24d4682ae1d3f83bb753783fbf3a27cbd09e35e2ca035cc7c")


def test_hst_verdicts_digest():
    # H(s, t)'s general case (s >= t, other than the (2, 0) colouring)
    # and, for s < t, its complement route into it
    rows = []
    for s, t in HST_PAIRS:
        f = HST(s, t)
        for g in _classes_and_copies(6, 8):
            r = f.membership(g)
            parts = r.certificate.parts if r.member else None
            rows.append((s, t, g.rows, r.member, parts, r.nodes))
    assert _digest(rows) == HST_DIGEST
