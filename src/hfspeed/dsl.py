"""Text form for family expressions.

Grammar (case-sensitive, whitespace-insensitive between tokens):

    expr    := orexpr
    orexpr  := andexpr ("or" andexpr)*
    andexpr := primary ("and" primary)*
    primary := TAG | TAG "(" field ("," field)* ")" | "(" expr ")"
    field   := int | graph | expr | graph ("," graph)* | expr ("," expr)*
    graph   := NAME | "g6:" <graph6 chars>

The prefix forms are read from the constructors' declarations: TAG is the
_tag of one of S, C, M, ALL, forb, H, P, iota, apex, co, du and join, a
constructor without fields stands alone, and any other reads one field per
declared kind (an int, a graph, a family, or a list of graphs or families)
before the constructor validates them.  So the parser reads what
Family.text() prints.  "and" binds tighter than "or".

Graph literals: K13 is the claw K_{1,3} (the one aliased name); otherwise
Kn, Cn, Pn, En and mKn (m disjoint complete graphs) parse structurally, and
g6:... takes anything else.
"""

from __future__ import annotations

import re

from .errors import ValidationError
from .families import (
    _FAMILIES, _FAMILY, _GRAPH, _GRAPHS, _NAT, Apex, AtomAll, AtomC, AtomM,
    AtomS, ComplementFamily, DisjointUnionFam, Family, Forb, HST,
    IntersectionFam, Iota, JoinFam, PartitionProduct, UnionFam,
    graph_from_name,
)

_TOKEN = re.compile(r"""
    \s*(
      g6:[?-~]+              # graph6 literal, printable ASCII, no spaces
    | \d*[A-Za-z][A-Za-z0-9]*  # names: tags, "or", "and", graph literals (2K2)
    | \d+
    | [(),]
    )""", re.VERBOSE)

# the constructors with a prefix form, by tag
_PREFIX = {cls._tag: cls for cls in (
    AtomS, AtomC, AtomM, AtomAll, Forb, HST, PartitionProduct, Iota, Apex,
    ComplementFamily, DisjointUnionFam, JoinFam)}


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValidationError(
                f"bad character at position {pos}: {text[pos:pos+10]!r}")
        out.append((m.group(1), pos))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def next(self):
        if self.i >= len(self.toks):
            raise ValidationError(f"unexpected end of input in {self.text!r}")
        tok = self.toks[self.i]
        self.i += 1
        return tok[0]

    def expect(self, want):
        got = self.next()
        if got != want:
            raise ValidationError(
                f"expected {want!r}, got {got!r} in {self.text!r}")
        return got

    def parse(self):
        e = self.or_expr()
        if self.i != len(self.toks):
            raise ValidationError(
                f"trailing input from token {self.peek()!r} in {self.text!r}")
        return e

    def or_expr(self):
        e = self.and_expr()
        while self.peek() == "or":
            self.next()
            e = UnionFam(e, self.and_expr())
        return e

    def and_expr(self):
        e = self.primary()
        while self.peek() == "and":
            self.next()
            e = IntersectionFam(e, self.primary())
        return e

    def int_lit(self):
        tok = self.next()
        if not tok.isdigit():
            raise ValidationError(f"expected integer, got {tok!r}")
        return int(tok)

    def graph_lit(self):
        tok = self.next()
        return graph_from_name(tok)

    def field(self, kind):
        read = {_NAT: self.int_lit, _GRAPH: self.graph_lit,
                _GRAPHS: self.graph_lit, _FAMILY: self.or_expr,
                _FAMILIES: self.or_expr}[kind]
        if kind not in (_GRAPHS, _FAMILIES):
            return read()
        items = [read()]
        while self.peek() == ",":
            self.next()
            items.append(read())
        return items

    def primary(self):
        tok = self.next()
        if tok == "(":
            e = self.or_expr()
            self.expect(")")
            return e
        cls = _PREFIX.get(tok)
        if cls is None:
            raise ValidationError(f"unexpected token {tok!r} in {self.text!r}")
        args = []
        if cls._kinds:
            self.expect("(")
            for kind in cls._kinds:
                if args:
                    self.expect(",")
                args.append(self.field(kind))
            self.expect(")")
        return cls(*args)


def parse_family(text: str) -> Family:
    """Parse the family DSL; raises ValidationError with a position."""
    return _Parser(text).parse()


def format_family(f: Family) -> str:
    """Canonical text of a family expression.  parse_family reads it back
    to an equal family, except for red(...) and pj(...), whose texts are
    print-only: red's leaves out l, and pj's holds ';', which the
    tokenizer refuses."""
    if not isinstance(f, Family):
        raise ValidationError("format_family takes a family")
    return f.text()
