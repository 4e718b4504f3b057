"""Exact desk-scale analysis of hereditary graph families.

Speeds by exhaustive isomorph-free enumeration, coloring numbers, the
reduced/dangerous split, star systems and constellations, and criticality
checks, all over a small family-expression language.  Everything is exact
integer arithmetic; searches carry node budgets and certificates.
"""

from .errors import (
    CapacityError,
    ResourceLimitError,
    UnsupportedOperationError,
    ValidationError,
)
from .graphs import (
    Graph,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    edgeless,
    find_induced_embedding,
    induced_subgraph,
    join,
    matching,
    path,
    star,
)
from . import graph6
from .canon import CanonicalForm, canonical_form, canonical_graph, group_order
from .families import (
    ALL,
    Apex,
    Budget,
    C,
    ComplementFamily,
    DisjointUnionFam,
    Family,
    Forb,
    HST,
    IntersectionFam,
    Iota,
    JoinFam,
    M,
    MembershipResult,
    PartitionCertificate,
    PartitionProduct,
    S,
    UnionFam,
    family_contains,
    graph_from_name,
    graph_name,
)
from .dsl import format_family, parse_family
from .enumeration import (
    DeltaReport,
    SpeedTable,
    enumerate_family,
    labeled_count_direct,
    speed_delta,
)
from .structure import (
    ApexFreeResult,
    ColoringNumberResult,
    ExtendableResult,
    MeagerResult,
    ReducedClassification,
    ReducedFamily,
    SmoothnessReport,
    coloring_number,
    enumerate_reduced,
    is_apex_free,
    is_balanced,
    is_extendable_upto,
    is_meager,
    is_reduced,
    smoothness_report,
    substar,
)
from .stars import (
    Constellation,
    NonStarScanReport,
    PJFamily,
    StarSystem,
    Template,
    constellation_irreducible,
    find_template,
    generate_constellations,
    irreducible_star_systems,
    is_crown,
    is_member_PJ,
    is_minimal_nonstar,
    is_s_star,
    minimal_core,
    minimal_nonstar_scan,
    star_system_irreducible,
    verify_pj_certificate,
    verify_template,
)
from .critical import (
    CriticalityVerdict,
    ExperimentReport,
    FIRST_PART_MENU,
    criticality_tuples,
    is_critical,
    verify_constellation_cover,
    verify_kpr,
    verify_partition_fraction,
    verify_star_speed,
)

__version__ = "0.1.0"
