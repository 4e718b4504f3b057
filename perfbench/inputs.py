"""The workloads' inputs, built from their texts.

Importing this module imports hfspeed; build() parses the family texts and
decodes the system specs of one workload.  A fresh interpreter doing both is
what the benchmark times as setup_s.
"""

from hfspeed import Constellation, ReducedFamily, graph6, parse_family

# (spec, l, n_max, n_min): the empty core P(empty) at l = 2, DOM at l = 1
# and a two-vertex core at l = 2.  Specs are 'g6;phi;alpha;beta'.
DRIFT_SYSTEMS = (("?;;;00", 2, 9, None),
                 ("@;0;1;0", 1, 12, 6),
                 ("A?;01;11;00", 2, 7, None))
CRITICAL_FAMILIES = ("forb(K3)", "forb(2K2)", "forb(C4)", "forb(C5)",
                     "forb(K13)", "forb(K4)", "forb(C4, 2K2)")
CRITICAL_N_CHECK = 10
KPR = (2, 9)
EXTEND_FAMILY, EXTEND_FROM, EXTEND_TO = "forb(K3)", 8, 9
COLLISION_FAMILY, COLLISION_N = "forb(C5)", 6
CONSTELLATION_GRIDS = ((1, 6), (5, 1))
NONSTAR_SCAN = (1, 7)


def decode_system(spec):
    g6, phi, alpha, beta = spec.split(";")
    return Constellation(graph6.decode(g6), [int(c) for c in phi],
                         [int(c) for c in alpha], [int(c) for c in beta])


def build(workload):
    """Inputs of one workload as a dict; fresh objects on every call, so
    no membership cache carries over from one pass to the next."""
    if workload == "kpr":
        return {"kpr": KPR}
    if workload == "extend-2w":
        base = parse_family(COLLISION_FAMILY)
        return {"family": parse_family(EXTEND_FAMILY),
                "orders": (EXTEND_FROM, EXTEND_TO),
                "reduced": (ReducedFamily(base, 1), ReducedFamily(base, 2)),
                "collision_n": COLLISION_N}
    if workload == "constellations":
        return {"grids": CONSTELLATION_GRIDS, "scan": NONSTAR_SCAN}
    if workload == "drift":
        return {"systems": [(spec, decode_system(spec), l, n, n_min)
                            for spec, l, n, n_min in DRIFT_SYSTEMS],
                "critical": [parse_family(t) for t in CRITICAL_FAMILIES],
                "n_check": CRITICAL_N_CHECK}
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("kpr", "extend-2w", "constellations", "drift")
