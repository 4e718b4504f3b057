"""Frozen answers of the library scans built on the finite containment
rule: the coloring number with its refutations, reduced/dangerous
verdicts, apex-freeness, meagerness, extendability and criticality.

Each scan tries its patterns in a fixed order, each on a fresh budget,
and the digest hashes every verdict with its certificates, so a scan
that reorders its patterns or shares a budget across them moves it.
"""

from hfspeed.critical import is_critical
from hfspeed.dsl import parse_family
from hfspeed.structure import (coloring_number, is_apex_free,
                               is_extendable_upto, is_meager, is_reduced)
from oracles import all_labeled_graphs
from test_membership_pins import _digest, _plain


def _triples(items):
    return tuple(tuple(_plain(x) for x in item) for item in items)


SCAN_FAMILIES = ("forb(K3)", "forb(2K2)", "forb(C5)")
DRIFT_FAMILIES = ("forb(K3)", "forb(2K2)", "forb(C4)", "forb(C5)",
                  "forb(K13)", "forb(K4)", "forb(C4, 2K2)")

SCAN_DIGEST = (
    "69457a6f6d979b88d9a2ed995093e0496f752edf57f2e7bb7411f88ff25a3803")


def test_scan_verdicts_digest():
    rows = []
    for text in SCAN_FAMILIES:
        f = parse_family(text)
        cn = coloring_number(f)
        rows.append((text, "chi_c", cn.l, cn.witness_s,
                     _triples(cn.refutations)))
        for l in (1, 2):
            for n in range(6):
                for g in all_labeled_graphs(n):
                    r = is_reduced(g, f, l)
                    rows.append((text, l, g.rows, r.reduced, r.witness_s,
                                 _triples(r.violations)))
        af = is_apex_free(f, cn.l)
        rows.append((text, "apex", af.apex_free, af.failed_s,
                     _triples(af.witnesses)))
        mg = is_meager(f)
        rows.append((text, "meager", mg.meager,
                     *(w.rows if w is not None else None
                       for w in (mg.substar_witness,
                                 mg.antisubstar_witness))))
        ex = is_extendable_upto(f, 6)
        rows.append((text, "extendable", ex.extendable,
                     ex.failing.rows if ex.failing is not None else None))
    for text in DRIFT_FAMILIES:
        v = is_critical(parse_family(text))
        certs = (None if v.refutations is None else
                 tuple((k.rows, _plain(cert))
                       for _fams, k, cert in v.refutations))
        rows.append((text, "critical", repr(sorted(v.to_json_obj().items())),
                     certs))
    assert _digest(rows) == SCAN_DIGEST
