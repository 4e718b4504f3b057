"""Command-line front end.

Every subcommand delegates to one library operation and renders its
result as JSON (sorted keys, two-space indent) or CSV.  Output goes to
stdout; with --out DIR the same bytes also land in a file named
{subcommand}-{hash}.{ext}, where the hash is taken over the semantic
run configuration (family text, orders, seeds...) and deliberately not
over --out, --format, --threads, or --budget: those change where or
how fast the answer appears, never what it is, so reruns can reuse the
artifact.  Nothing here emits a timestamp; byte-identical runs are the
point.

Exit codes: 0 success, 2 parse or validation failure (a --budget or
--threads below 1 included, on every subcommand), 3 budget exhaustion.
The artifact is written to a temporary file and moved into place, so an
interrupted run leaves no partial artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction

from .canon import canonical_graph
from .critical import (is_critical, verify_constellation_cover, verify_kpr,
                       verify_partition_fraction, verify_star_speed)
from .dsl import parse_family
from .enumeration import _csv_table, _write_atomic, enumerate_family
from .errors import (CapacityError, ResourceLimitError,
                     UnsupportedOperationError, ValidationError)
from .graphs import Graph
from .stars import Constellation, generate_constellations, minimal_nonstar_scan
from .structure import coloring_number, is_reduced
from . import graph6


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_system(text):
    """'g6;phi;alpha;beta' with digit strings, e.g. '@;0;1;0'."""
    parts = text.split(";")
    if len(parts) != 4:
        raise ValidationError(
            "system spec needs four ';'-separated fields: g6;phi;alpha;beta")
    j = graph6.decode(parts[0])
    try:
        phi = tuple(int(ch) for ch in parts[1])
        alpha = tuple(int(ch) for ch in parts[2])
        beta = tuple(int(ch) for ch in parts[3])
    except ValueError:
        raise ValidationError("phi, alpha, beta must be digit strings")
    return Constellation(j, phi, alpha, beta)


def _read_graphs(args):
    """graph6 strings from positional args, else stdin lines."""
    tokens = list(args.graphs)
    if not tokens:
        tokens = [ln.strip() for ln in sys.stdin if ln.strip()]
    if not tokens:
        raise ValidationError("no input graphs (arguments or stdin)")
    return tokens


# ---------------------------------------------------------------------------
# subcommand runners: each returns (text, extension, semantic config)

def _run_speed(args):
    fam = parse_family(args.family)
    table = enumerate_family(fam, args.n_max, budget_limit=args.budget,
                             threads=args.threads, keep_members=False)
    config = {"family": args.family, "n_max": args.n_max}
    if args.format == "json":
        return _json_text(table.to_json_obj()), "json", config
    return table.to_csv(), "csv", config


def _run_chi_c(args):
    res = coloring_number(parse_family(args.family), args.budget)
    config = {"family": args.family}
    if args.format == "csv":
        chi = "infinity" if res.l == float("inf") else res.l
        rows = [["chi_c", "witness_s"], [chi, res.witness_s]]
        return _csv_table(rows), "csv", config
    return _json_text(res.to_json_obj()), "json", config


def _run_classify(args):
    fam = parse_family(args.family)
    l = args.l if args.l is not None else coloring_number(fam, args.budget).l
    if l == float("inf"):
        raise UnsupportedOperationError(
            "classification needs a finite level; pass --l")
    rows = []
    for token in _read_graphs(args):
        g = graph6.decode(token)
        res = is_reduced(g, fam, l, args.budget)
        rows.append({"graph": token, "reduced": res.reduced,
                     "dangerous": not res.reduced,
                     "witness_s": res.witness_s})
    config = {"family": args.family, "l": l,
              "graphs": [r["graph"] for r in rows]}
    if args.format == "csv":
        lines = [["graph", "reduced", "dangerous", "witness_s"]] + [
            [r["graph"], str(r["reduced"]).lower(),
             str(r["dangerous"]).lower(), r["witness_s"]] for r in rows]
        return _csv_table(lines), "csv", config
    return _json_text({"family": args.family, "l": l, "rows": rows}), \
        "json", config


def _run_stars(args):
    report = minimal_nonstar_scan(args.s, args.n_max, samples=args.samples,
                                  seed=args.seed)
    config = {"s": args.s, "n_max": args.n_max, "mode": report.mode}
    if report.mode == "random":
        config["samples"] = args.samples
        config["seed"] = args.seed
    if args.format == "csv":
        by_order = {}
        for w in report.witnesses:
            by_order.setdefault(graph6.decode(w).n, []).append(w)
        rows = [["n", "scanned", "witnesses"]] + [
            [n, count, ";".join(by_order.get(n, []))]
            for n, count in report.scanned]
        return _csv_table(rows), "csv", config
    return _json_text(report.to_json_obj()), "json", config


def _run_constellations(args):
    cons = generate_constellations(args.l, args.s)
    config = {"l": args.l, "s": args.s}
    if args.format == "csv":
        rows = [["j", "phi", "alpha", "beta"]] + [
            [graph6.encode(c.j)]
            + ["".join(map(str, x)) for x in (c.phi, c.alpha, c.beta)]
            for c in cons]
        return _csv_table(rows), "csv", config
    obj = {"l": args.l, "s": args.s, "count": len(cons),
           "constellations": [c.to_json_obj() for c in cons]}
    return _json_text(obj), "json", config


def _run_critical(args):
    verdict = is_critical(parse_family(args.family), n_check=args.n_check,
                          budget_limit=args.budget, threads=args.threads)
    config = {"family": args.family, "n_check": args.n_check}
    if args.format == "csv":
        witness = ";".join(f.text() for f in verdict.witness) \
            if verdict.witness else ""
        rows = [["critical", "l", "s", "n_check", "witness"],
                [str(verdict.critical).lower(), verdict.l, verdict.s,
                 verdict.n_check, witness]]
        return _csv_table(rows), "csv", config
    return _json_text(verdict.to_json_obj()), "json", config


def _require(args, names):
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise ValidationError(
                f"--experiment {args.experiment} needs --{name}")


def _run_verify(args):
    exp = args.experiment
    if exp == "kpr":
        _require(args, ["l", "n-max"])
        report = verify_kpr(args.l, args.n_max, budget_limit=args.budget,
                            threads=args.threads)
        config = {"experiment": exp, "l": args.l, "n_max": args.n_max}
    elif exp == "partition":
        _require(args, ["family", "part-family", "l", "n-max"])
        try:
            eps = Fraction(args.eps)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(
                f"--eps must be a fraction, got {args.eps!r}")
        report = verify_partition_fraction(
            parse_family(args.family), parse_family(args.part_family),
            args.l, args.n_max, eps=eps, budget_limit=args.budget,
            threads=args.threads)
        config = {"experiment": exp, "family": args.family,
                  "part_family": args.part_family, "l": args.l,
                  "n_max": args.n_max, "eps": str(eps)}
    elif exp == "cover":
        _require(args, ["family", "l", "s", "n-max"])
        report = verify_constellation_cover(
            parse_family(args.family), args.l, args.s, args.n_max,
            budget_limit=args.budget, threads=args.threads)
        config = {"experiment": exp, "family": args.family, "l": args.l,
                  "s": args.s, "n_max": args.n_max}
    else:  # star-speed
        _require(args, ["system", "l", "n-max"])
        report = verify_star_speed(
            _parse_system(args.system), args.l, args.n_max,
            n_min=args.n_min, budget_limit=args.budget,
            threads=args.threads)
        config = {"experiment": exp, "system": args.system, "l": args.l,
                  "n_max": args.n_max,
                  "n_min": report.params["n_min"]}
    if args.format == "csv":
        return report.to_csv(), "csv", config
    return _json_text(report.to_json_obj()), "json", config


def _decode_line(g):
    cells = " ".join(f"{u}-{v}" for u in range(g.n)
                     for v in range(u + 1, g.n) if g.rows[u] >> v & 1)
    return f"{g.n}:" + (" " + cells if cells else "")


def _encode_line(line):
    head, _, rest = line.partition(":")
    try:
        n = int(head)
    except ValueError:
        raise ValidationError(f"bad graph line {line!r}: want 'n: u-v ...'")
    edges = []
    for tok in rest.split():
        u, _, v = tok.partition("-")
        try:
            edges.append((int(u), int(v)))
        except ValueError:
            raise ValidationError(f"bad edge token {tok!r}")
    # Graph refuses an order outside 0..64, an edge out of range and a loop
    return graph6.encode(Graph(n, edges))


def _run_graph6(args):
    tokens = _read_graphs(args)
    if args.mode == "canon":
        out = [graph6.encode(canonical_graph(graph6.decode(t)))
               for t in tokens]
    elif args.mode == "decode":
        out = [_decode_line(graph6.decode(t)) for t in tokens]
    else:  # encode
        out = [_encode_line(t) for t in tokens]
    config = {"mode": args.mode, "input": tokens}
    return "\n".join(out) + "\n", "txt", config


_RUNNERS = {
    "speed": _run_speed,
    "chi-c": _run_chi_c,
    "classify": _run_classify,
    "stars": _run_stars,
    "constellations": _run_constellations,
    "critical": _run_critical,
    "verify": _run_verify,
    "graph6": _run_graph6,
}


def _add_common(p, default_format=None):
    p.add_argument("--budget", type=int, default=None,
                   help="search-node allowance per membership call")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default=None, metavar="DIR",
                   help="also write the artifact into DIR")
    if default_format is not None:
        p.add_argument("--format", choices=("csv", "json"),
                       default=default_format)


def build_parser():
    top = argparse.ArgumentParser(
        prog="hfspeed",
        description="exact desk-scale analysis of hereditary graph families")
    subs = top.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("speed", help="enumerate a family's speed table")
    p.add_argument("--family", required=True, help="family expression")
    p.add_argument("--n-max", type=int, required=True)
    _add_common(p, "csv")

    p = subs.add_parser("chi-c", help="coloring number with witness")
    p.add_argument("--family", required=True)
    _add_common(p, "json")

    p = subs.add_parser("classify",
                        help="reduced/dangerous verdicts for graphs")
    p.add_argument("--family", required=True)
    p.add_argument("--l", type=int, default=None,
                   help="level; defaults to chi_c of the family")
    p.add_argument("graphs", nargs="*", metavar="G6",
                   help="graph6 strings (stdin lines when omitted)")
    _add_common(p, "json")

    p = subs.add_parser("stars", help="minimal non-star scan")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--samples", type=int, default=None,
                   help="randomized mode: graphs to draw")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, "json")

    p = subs.add_parser("constellations",
                        help="generate constellations at (l, s)")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    _add_common(p, "json")

    p = subs.add_parser("critical", help="criticality verdict")
    p.add_argument("--family", required=True)
    p.add_argument("--n-check", type=int, default=8,
                   help="horizon for the reduced-member star check")
    _add_common(p, "json")

    p = subs.add_parser("verify", help="run a verification experiment")
    p.add_argument("--experiment", required=True,
                   choices=("kpr", "partition", "cover", "star-speed"))
    p.add_argument("--family", default=None)
    p.add_argument("--part-family", default=None)
    p.add_argument("--system", default=None,
                   help="constellation as g6;phi;alpha;beta")
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--eps", default="1/2",
                   help="balance exponent, a fraction in (0, 1)")
    _add_common(p, "json")

    p = subs.add_parser("graph6", help="encode/decode/canonicalize")
    p.add_argument("mode", choices=("canon", "decode", "encode"))
    p.add_argument("graphs", nargs="*", metavar="INPUT",
                   help="tokens (stdin lines when omitted)")
    _add_common(p)  # plain text pipeline, no --format
    return top


def _artifact_path(out_dir, subcommand, config, ext):
    blob = json.dumps({"subcommand": subcommand, **config},
                      sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()[:12]
    return os.path.join(out_dir, f"{subcommand}-{digest}.{ext}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        for name in ("budget", "threads"):
            value = getattr(args, name)
            if value is not None and value < 1:
                raise ValidationError(f"--{name} must be >= 1, got {value}")
        text, ext, config = _RUNNERS[args.subcommand](args)
    except ResourceLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValidationError, UnsupportedOperationError, CapacityError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = _artifact_path(args.out, args.subcommand, config, ext)
        _write_atomic(path, lambda fh: fh.write(text.encode()))
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
