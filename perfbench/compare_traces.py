"""Report per-layer counts that differ between two traced runs.

    python3 perfbench/run.py --workload kpr --seed 1 --seconds 15 --trace 1 > a
    python3 perfbench/run.py --workload kpr --seed 2 --seconds 15 --trace 1 > b
    python3 perfbench/compare_traces.py a b

Reads the JSON line that ends each output.  Exits 1 and names every
count-valued metric that differs (times are expected to differ), 0 when all
counts repeat exactly.
"""

import json
import sys


def last_json(path):
    with open(path) as fh:
        return json.loads(fh.read().strip().splitlines()[-1])["metrics"]


def main(a, b):
    ma, mb = last_json(a), last_json(b)
    differ = [name for name in sorted(set(ma) | set(mb))
              if (ma.get(name) or mb.get(name))["unit"] != "s"
              and ma.get(name, {}).get("value") != mb.get(name, {}).get("value")]
    for name in differ:
        print(f"{name}: {ma.get(name, {}).get('value')} then "
              f"{mb.get(name, {}).get('value')}")
    print("counts repeat exactly" if not differ else
          f"{len(differ)} counts differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
