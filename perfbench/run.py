"""Benchmark of hfspeed's exact experiments.

    python3 perfbench/run.py --workload kpr --seed 1 --seconds 15 --trace 0

Runs whole passes of one workload's operations until their timed regions add
up to --seconds, checks every pass's outputs outside the timed region, and
prints a table followed, as the last line, by one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
passes run on one worker under spans and the metrics are per layer.
See perfbench/README.md.
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 11
# the traced run compares the counts of its passes, so it makes two at least
MIN_TRACED_PASSES = 2

# per-layer metrics printed on the JSON line; a time is listed only where
# every workload reaches its layer, the rest are printed in the table
LAYER_COUNTS = (
    "graph6.encode.calls", "families.membership.uncertified",
    "canon.canonical_form.calls", "canon.group_order.calls",
    "families.membership.calls", "families.membership.nodes",
    "families.membership.Forb.anchored.calls",
    "families.membership.Forb.full.calls", "families.membership.HST.calls",
    "families.membership.PartitionProduct.calls",
    "families.membership.PJFamily.calls",
    "families.membership.ReducedFamily.calls",
    "families.membership.AtomAll.calls", "families.membership.other.calls",
    "graphs.find_induced_embedding.calls",
    "enumeration.enumerate_family.calls", "enumeration.classes",
    "enumeration.checkpoint_bytes",
    "stars.Constellation.canonical_key.calls", "stars.is_s_star.calls",
)
LAYER_TIMES = (
    "graph6.encode.s", "canon.canonical_form.self_s", "canon.group_order.s",
    "enumeration.enumerate_family.s", "enumeration.enumerate_family.self_s",
)
TABLE_TIMES = (
    "families.membership.Forb.anchored.self_s",
    "families.membership.Forb.full.self_s", "families.membership.HST.self_s",
    "families.membership.PartitionProduct.self_s",
    "families.membership.PJFamily.self_s",
    "families.membership.ReducedFamily.self_s",
    "families.membership.AtomAll.self_s", "families.membership.other.self_s",
    "graphs.find_induced_embedding.s", "stars.generate_constellations.s",
    "stars.Constellation.canonical_key.s", "stars.irreducible_star_systems.s",
    "stars.is_s_star.s", "structure.coloring_number.s",
    "structure.enumerate_reduced.s", "critical.verify_kpr.s",
    "critical.verify_star_speed.s", "critical.is_critical.s",
)

# a fresh interpreter times the speed kernel, then imports hfspeed and builds
# the inputs; it prints the speed factor and the kernel's total seconds
PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import speed; "
         "k = [speed.kernel_seconds() for _ in range(5)]; import inputs; "
         "inputs.build(sys.argv[3]); print(speed.speed_factor(k), sum(k))")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def import_program():
    """Import hfspeed from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "hfspeed", "__init__.py")):
        fail(f"no hfspeed sources under {SRC}")
    sys.path[:0] = [SRC, BENCH]
    import hfspeed
    if os.path.dirname(os.path.abspath(hfspeed.__file__)) != \
            os.path.join(SRC, "hfspeed"):
        fail(f"imported hfspeed from {hfspeed.__file__}, not {SRC}")


def setup_seconds(workload):
    """Median wall time, speed-corrected, of fresh interpreters that import
    hfspeed and build the workload's inputs; one unmeasured probe first
    compiles bytecode.  Returns (corrected, raw) medians."""
    cmd = [sys.executable, "-c", PROBE, SRC, BENCH, workload]
    raw, corrected = [], []
    for i in range(SETUP_PROBES + 1):
        t0 = perf_counter()
        out = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True,
                             text=True).stdout
        wall = perf_counter() - t0
        factor, k_total = map(float, out.split())
        if i:
            raw.append(wall)
            corrected.append((wall - k_total) * factor)
    return statistics.median(corrected), statistics.median(raw)


def cpu_seconds():
    """User plus system seconds of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib():
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    import_program()
    import inputs
    import speed
    import tracing
    import workloads
    if args.workload not in inputs.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(inputs.WORKLOADS)}")
    rng = random.Random(args.seed)

    setup = None if args.trace else setup_seconds(args.workload)
    # the traced run stays on one worker: spans in pool workers are lost
    threads = 1 if args.trace else 2
    tracer = tracing.Tracer()

    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_run"))
    walls, cpus, layers = [], [], []
    ref_walls, ref_cpus, factors = [], [], []
    attempted = failed = 0
    correct = True
    peak = None
    first = None          # (summaries, errors) of the first pass
    try:
        while True:
            inp = inputs.build(args.workload)
            passdir = tempfile.mkdtemp(dir=workdir)
            todo = workloads.ops(args.workload, inp, threads, passdir)
            results, raised = {}, {}
            tracer.reset()
            # spans would count the speed probe's time, so a traced pass
            # runs without it
            probe = speed.Probe()
            with (tracer.installed() if args.trace else probe):
                c0, t0 = cpu_seconds(), perf_counter()
                for name, thunk in todo:
                    try:
                        results[name] = thunk()
                    except Exception as exc:  # counted, reported, not fatal
                        raised[name] = f"{type(exc).__name__}: {exc}"
                wall, cpu = perf_counter() - t0, cpu_seconds() - c0
            walls.append(wall)
            cpus.append(cpu)
            if args.trace:
                layer = tracer.metrics()
                layer["enumeration.checkpoint_bytes"] = dir_bytes(passdir)
                layers.append(layer)
            else:
                f = probe.factor()
                factors.append(f)
                ref_walls.append((wall - probe.spent()) * f)
                ref_cpus.append((cpu - probe.spent()) * f)
            shutil.rmtree(passdir)
            if peak is None:
                # before the checks, whose own runs would raise the mark
                peak = peak_rss_mib()

            summaries = {n: workloads.summary(r) for n, r in results.items()}
            if first is None:
                # the checks need every output; an operation that raised
                # is a fault of its own
                errors = {} if raised else workloads.check(
                    args.workload, inp, results, rng, workdir)
                first = (summaries, errors)
            correct = correct and not raised
            errors = dict(first[1])
            for name in results:
                if summaries[name] != first[0].get(name):
                    errors[name] = ["output differs from the first pass"]
            for name, msg in raised.items():
                errors[name] = [msg]
            for name, _ in todo:
                attempted += 1
                if errors.get(name):
                    failed += 1
                    if name not in workloads.KNOWN_FAULTS:
                        correct = False
                    if len(walls) == 1:
                        for e in errors[name]:
                            print(f"FAIL {name}: {e}", file=sys.stderr)
            if sum(walls) >= args.seconds and (
                    not args.trace or len(walls) >= MIN_TRACED_PASSES):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(walls)}  "
          f"trace {args.trace}  python {sys.version.split()[0]}  "
          f"cpus {os.cpu_count()}")
    print("pass raw wall_s " + " ".join(f"{w:.4f}" for w in walls))
    print("pass raw cpu_s  " + " ".join(f"{c:.4f}" for c in cpus))
    if args.trace:
        metrics = {}
        base = layers[0]
        for other in layers[1:]:
            for name in LAYER_COUNTS:
                if other[name] != base[name]:
                    correct = False
                    print(f"COUNT DIFFERS {name}: {base[name]} then "
                          f"{other[name]}", file=sys.stderr)
        for name in LAYER_COUNTS:
            metrics[name] = {"value": base[name],
                             "unit": "B" if name.endswith("_bytes") else "count"}
        for name in LAYER_TIMES + TABLE_TIMES:
            value = statistics.median(layer[name] for layer in layers)
            if name in LAYER_TIMES:
                metrics[name] = {"value": value, "unit": "s"}
            else:
                print(f"{name:48s} {value:.6f} s")
        print(f"{'traced wall_s':48s} {statistics.median(walls):.6f} s")
    else:
        print("pass speed      " + " ".join(f"{f:.4f}" for f in factors))
        print(f"raw setup_s {setup[1]:.4f}")
        metrics = {
            "wall_s": {"value": statistics.median(ref_walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(ref_cpus), "unit": "s"},
            "setup_s": {"value": setup[0], "unit": "s"},
            "peak_rss_mib": {"value": peak, "unit": "MiB"},
        }
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']} {m['unit']}")
    print(f"attempted {attempted}  failed {failed}  correct {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
