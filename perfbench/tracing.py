"""Spans around hfspeed's public functions, patched in from outside.

A span records calls, inclusive seconds and self seconds (its duration
minus the time of the spans it directly encloses).  Inclusive seconds count
only the outermost span of a name, so a function that calls itself is not
counted twice.  Spans are aggregated in memory per name.

A from-import copies the function reference into the importing module, so
installing a wrapper replaces every binding of the original in every
hfspeed module.  The benchmark's own modules call through module
attributes, so they need no patching.
"""

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name); the attribute may be Class.method
SPANS = (
    ("hfspeed.graph6", "encode", "graph6.encode"),
    ("hfspeed.canon", "canonical_form", "canon.canonical_form"),
    ("hfspeed.canon", "group_order", "canon.group_order"),
    ("hfspeed.graphs", "find_induced_embedding",
     "graphs.find_induced_embedding"),
    ("hfspeed.enumeration", "enumerate_family", "enumeration.enumerate_family"),
    ("hfspeed.stars", "generate_constellations", "stars.generate_constellations"),
    ("hfspeed.stars", "Constellation.canonical_key",
     "stars.Constellation.canonical_key"),
    ("hfspeed.stars", "irreducible_star_systems",
     "stars.irreducible_star_systems"),
    ("hfspeed.stars", "is_s_star", "stars.is_s_star"),
    ("hfspeed.structure", "coloring_number", "structure.coloring_number"),
    ("hfspeed.structure", "enumerate_reduced", "structure.enumerate_reduced"),
    ("hfspeed.critical", "verify_kpr", "critical.verify_kpr"),
    ("hfspeed.critical", "verify_star_speed", "critical.verify_star_speed"),
    ("hfspeed.critical", "is_critical", "critical.is_critical"),
)

# membership spans are named by constructor; the rest pool as "other"
CONSTRUCTORS = ("Forb.anchored", "Forb.full", "HST", "PartitionProduct",
                "PJFamily", "ReducedFamily", "AtomAll", "other")
_NAMED_CONSTRUCTORS = {"HST", "PartitionProduct", "PJFamily", "ReducedFamily",
                       "AtomAll"}


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.counts = Counter()
        self._stack = []          # [child seconds] of each open span
        self._open = Counter()    # open spans per name
        self._membership_depth = 0

    def span(self, name, fn, *args, **kwargs):
        frame = [0.0]
        self._stack.append(frame)
        self._open[name] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - start
            self._stack.pop()
            self._open[name] -= 1
            self.calls[name] += 1
            self.own[name] += dur - frame[0]
            if not self._open[name]:
                self.total[name] += dur
            if self._stack:
                self._stack[-1][0] += dur

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if name == "enumeration.enumerate_family":
                self.counts["enumeration.classes"] += sum(result.unlabeled)
            return result
        return wrapper

    def _wrap_membership(self, fn):
        tracer = self

        @functools.wraps(fn)
        def membership(family, g, *args, **kwargs):
            kind = type(family).__name__
            if kind == "Forb":
                anchored = kwargs.get("new_vertex_only",
                                      args[1] if len(args) > 1 else False)
                kind = ("Forb.anchored" if anchored and g.n > 0
                        else "Forb.full")
            elif kind not in _NAMED_CONSTRUCTORS:
                kind = "other"
            top = tracer._membership_depth == 0
            tracer._membership_depth += 1
            try:
                res = tracer.span("families.membership." + kind, fn,
                                  family, g, *args, **kwargs)
            finally:
                tracer._membership_depth -= 1
            if res.certificate is None:
                tracer.counts["families.membership.uncertified"] += 1
            if top:
                tracer.counts["families.membership.calls"] += 1
                tracer.counts["families.membership.nodes"] += res.nodes
            return res
        return membership

    @contextmanager
    def installed(self):
        """Patch every binding of every traced function; undo on exit."""
        import hfspeed.families
        targets = [(hfspeed.families.Family, "membership",
                    self._wrap_membership(hfspeed.families.Family.membership))]
        originals = {}
        for modname, attr, name in SPANS:
            owner = sys.modules[modname]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            fn = getattr(owner, attr)
            if isinstance(owner, type):
                targets.append((owner, attr, self._wrap(name, fn)))
            else:
                originals[id(fn)] = (fn, self._wrap(name, fn))
        for mod in [m for k, m in list(sys.modules.items())
                    if k == "hfspeed" or k.startswith("hfspeed.")]:
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    targets.append((mod, attr, hit[1]))
        undo = [(owner, attr, getattr(owner, attr))
                for owner, attr, _ in targets]
        try:
            for owner, attr, wrapper in targets:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, fn in undo:
                setattr(owner, attr, fn)

    def metrics(self):
        """Every per-layer figure of the pass, by name."""
        out = {}
        for _, _, name in SPANS:
            out[name + ".calls"] = self.calls[name]
            out[name + ".s"] = self.total[name]
            out[name + ".self_s"] = self.own[name]
        for kind in CONSTRUCTORS:
            name = "families.membership." + kind
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.own[name]
        for name in ("families.membership.calls", "families.membership.nodes",
                     "families.membership.uncertified", "enumeration.classes"):
            out[name] = self.counts[name]
        return out
