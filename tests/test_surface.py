"""hfspeed's public surface, pinned so that a name is added or removed
on purpose."""

import ast
import inspect
import os
import pickle
import subprocess
import sys
import types

import pytest

import hfspeed

PUBLIC = [
    "ALL", "Apex", "ApexFreeResult", "Budget", "C", "CanonicalForm",
    "CapacityError", "ColoringNumberResult", "ComplementFamily",
    "Constellation", "CriticalityVerdict", "DeltaReport",
    "DisjointUnionFam", "ExperimentReport", "ExtendableResult",
    "FIRST_PART_MENU", "Family", "Forb", "Graph", "HST", "IntersectionFam",
    "Iota", "JoinFam", "M", "MeagerResult", "MembershipResult",
    "NonStarScanReport", "PJFamily", "PartitionCertificate",
    "PartitionProduct", "ReducedClassification", "ReducedFamily",
    "ResourceLimitError", "S", "SmoothnessReport", "SpeedTable",
    "StarSystem", "Template", "UnionFam", "UnsupportedOperationError",
    "ValidationError", "canonical_form", "canonical_graph",
    "coloring_number", "complement", "complete", "complete_bipartite",
    "constellation_irreducible", "criticality_tuples", "cycle",
    "disjoint_union", "edgeless",
    "enumerate_family", "enumerate_reduced", "family_contains",
    "find_induced_embedding", "find_template", "format_family",
    "generate_constellations", "graph_from_name", "graph_name",
    "group_order", "induced_subgraph", "irreducible_star_systems",
    "is_apex_free", "is_balanced", "is_critical", "is_crown",
    "is_extendable_upto", "is_meager", "is_member_PJ",
    "is_minimal_nonstar", "is_reduced", "is_s_star", "join",
    "labeled_count_direct", "matching", "minimal_core",
    "minimal_nonstar_scan", "parse_family", "path", "smoothness_report",
    "speed_delta", "star", "star_system_irreducible",
    "substar", "verify_constellation_cover", "verify_kpr",
    "verify_partition_fraction", "verify_pj_certificate",
    "verify_star_speed", "verify_template",
]


def test_public_names():
    got = sorted(n for n in dir(hfspeed) if not n.startswith("_")
                 and not isinstance(getattr(hfspeed, n), types.ModuleType))
    assert got == PUBLIC


def test_enumeration_parameters():
    # a knob of the enumerators is added or removed on purpose
    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(hfspeed.enumerate_family) == [
        "f", "n_max", "budget_limit", "threads", "keep_members",
        "checkpoint_dir", "within"]
    assert names(hfspeed.enumerate_reduced) == [
        "f", "l", "n_max", "budget_limit", "threads"]


def test_family_contains_parameters():
    # the containment test takes a budget limit, as every scan does
    assert list(inspect.signature(hfspeed.family_contains).parameters) == [
        "f_sub", "f_super", "budget_limit"]


# every result record, its fields in order; a field is added or removed
# on purpose
RECORD_FIELDS = {
    "SpeedTable": ("family_text", "n_max", "unlabeled", "labeled",
                   "members", "auts", "gens", "within_labeled"),
    "DeltaReport": ("family_text", "l", "n_max", "delta", "k_fit", "drift",
                    "fit_ns"),
    "CriticalityVerdict": ("critical", "l", "s", "witness", "refutations",
                           "n_check"),
    "ExperimentReport": ("experiment", "params", "rows", "verdicts",
                         "runtime", "extras"),
    "ColoringNumberResult": ("l", "witness_s", "refutations"),
    "ReducedClassification": ("graph", "reduced", "witness_s", "violations"),
    "ApexFreeResult": ("apex_free", "witnesses", "failed_s"),
    "MeagerResult": ("meager", "cap", "substar_witness",
                     "antisubstar_witness"),
    "ExtendableResult": ("extendable", "failing", "n_check"),
    "SmoothnessReport": ("family_text", "l", "delta", "rows"),
    "StarSystem": ("j", "alpha", "beta"),
    "Constellation": ("j", "phi", "alpha", "beta"),
    "Template": ("psi", "parts"),
    "NonStarScanReport": ("s", "mode", "n_max", "seed", "samples", "scanned",
                          "witnesses"),
}


def _record_samples():
    """One record of each kind, as the library builds it, holding only
    values compared by value (no certificates)."""
    h = hfspeed
    k3 = h.Forb([h.complete(3)])
    dom = h.StarSystem(h.complete(1), (1,), 0)
    table = h.enumerate_family(k3, 4)
    return [
        table,
        h.speed_delta(k3, 2, 5),
        h.is_critical(h.Forb([h.cycle(5)])),
        h.verify_kpr(2, 5),
        h.coloring_number(h.ALL),
        h.is_reduced(h.edgeless(2), k3, 2),
        h.is_apex_free(h.Forb([h.complete(2)]), 0),
        h.is_meager(k3),
        h.is_extendable_upto(k3, 4),
        h.smoothness_report(table, 2, 0.5),
        dom,
        dom.as_constellation(),
        h.find_template(h.star(3), dom),
        h.minimal_nonstar_scan(0, 5),
    ]


def test_result_records():
    samples = _record_samples()
    assert sorted(type(r).__name__ for r in samples) == sorted(RECORD_FIELDS)
    for rec in samples:
        cls = type(rec)
        assert cls._fields == RECORD_FIELDS[cls.__name__]
        # immutable: neither a field nor a new attribute can be set
        for name in (cls._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
        # Constellation crosses the worker pool inside PJFamily
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is cls and back == rec


def test_import_is_stdlib_only():
    # no runtime dependency: importing the package loads only the
    # standard library, and not dataclasses (its import cost shows in
    # every command's start-up)
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hfspeed\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
        "print('dataclasses' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(hfspeed.__file__)))
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    added, dataclasses_loaded = out.stdout.splitlines()
    added = added.split()
    assert "hfspeed" in added
    outside = [m for m in added if m.split(".")[0] != "hfspeed"
               and m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
    assert dataclasses_loaded == "False"


def test_no_assert_statement():
    # python -O drops assert statements, so no check may rest on one
    src = os.path.dirname(hfspeed.__file__)
    names = sorted(n for n in os.listdir(src) if n.endswith(".py"))
    found = []
    for name in names:
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert "enumeration.py" in names and found == []
