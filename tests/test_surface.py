"""hfspeed's public surface, pinned so that a name is added or removed
on purpose."""

import inspect
import types

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
