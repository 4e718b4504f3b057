import pytest

from hfspeed.dsl import format_family, parse_family
from hfspeed.errors import ValidationError
from hfspeed.families import (
    ALL, Apex, C, ComplementFamily, DisjointUnionFam, Forb, HST,
    IntersectionFam, Iota, JoinFam, M, PartitionProduct, S, UnionFam,
)
from hfspeed.graphs import complete, cycle, matching, path, star


CASES = [
    ("S", S),
    ("C", C),
    ("M", M),
    ("ALL", ALL),
    ("forb(K3)", Forb([complete(3)])),
    ("forb(K3, C5)", Forb([complete(3), cycle(5)])),
    ("forb(K13)", Forb([star(3)])),
    ("forb(2K2)", Forb([matching(2)])),
    ("H(2, 0)", HST(2, 0)),
    ("H(0, 3)", HST(0, 3)),
    ("P(M, S)", PartitionProduct([M, S])),
    ("P(iota(P4), S, C)", PartitionProduct([Iota(path(4)), S, C])),
    ("iota(C5)", Iota(cycle(5))),
    ("apex(C)", Apex(C)),
    ("co(M)", ComplementFamily(M)),
    ("du(C, C)", DisjointUnionFam(C, C)),
    ("join(S, S)", JoinFam(S, S)),
    ("(S or C)", UnionFam(S, C)),
    ("(H(2, 0) and forb(C4))", IntersectionFam(HST(2, 0), Forb([cycle(4)]))),
]


@pytest.mark.parametrize("text,fam", CASES, ids=[t for t, _ in CASES])
def test_parse(text, fam):
    assert parse_family(text) == fam


@pytest.mark.parametrize("text,fam", CASES, ids=[t for t, _ in CASES])
def test_round_trip(text, fam):
    assert parse_family(format_family(fam)) == fam


def test_whitespace_insensitive():
    assert parse_family("P( M,S )") == parse_family("P(M, S)")
    assert parse_family("  H(2,1)  ") == HST(2, 1)


def test_and_binds_tighter_than_or():
    e = parse_family("S or C and M")
    assert e == UnionFam(S, IntersectionFam(C, M))


def test_nested():
    text = "P(co(du(C, C)), apex(S) or M)"
    e = parse_family(text)
    assert e == PartitionProduct([
        ComplementFamily(DisjointUnionFam(C, C)),
        UnionFam(Apex(S), M),
    ])
    assert parse_family(format_family(e)) == e


def test_g6_literal():
    assert parse_family("forb(g6:Bw)") == Forb([complete(3)])


def test_format_is_stable_text():
    # artifact naming hashes this string, so pin the exact spellings
    assert format_family(HST(2, 1)) == "H(2, 1)"
    assert format_family(PartitionProduct([M, S])) == "P(M, S)"
    assert format_family(Forb([complete(3), cycle(5)])) == "forb(K3, C5)"
    assert format_family(UnionFam(S, C)) == "(S or C)"


@pytest.mark.parametrize("bad", [
    "",
    "forb()",
    "H(2)",
    "H(2, )",
    "P()",
    "forb(K3",
    "S C",
    "S or",
    "apex",
    "du(S)",
    "forb(Q9)",
    "H(a, b)",
    "$money",
    # each field is read by its declared kind, and nothing else fits it
    "H(2, S)",
    "iota(S)",
    "P(K3)",
    "forb(S)",
    "S(M)",
    "H(2, 0, 1)",
    "du(S, C, M)",
    # red(...) and pj(...) texts are print-only
    "red(forb(K3))",
    "pj(K1)",
])
def test_errors(bad):
    with pytest.raises(ValidationError):
        parse_family(bad)


def test_error_carries_position():
    with pytest.raises(ValidationError) as ei:
        parse_family("forb(K3) $")
    assert "position" in str(ei.value)
