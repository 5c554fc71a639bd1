"""Summarize benchmark records: spread per metric, byte-identity per seed.

    python3 perfbench/compare.py [RECORD.json ...]

With no arguments it reads every record under .perfbench/results/. For
each workload and trace mode it prints, per metric, the median of the
runs and the quartile spread (Q3 - Q1) / median that the benchmark's
bounds are judged against. For each workload and seed run more than
once it says whether the artifact digests (set-up outputs, checkpoint,
manifest, traces) were byte-identical across all runs.
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median

from tracing import quartile_spread


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(Path(".perfbench/results").glob("*.json"))
    records = [json.loads(p.read_text()) for p in paths]
    if not records:
        print("no records", file=sys.stderr)
        return 1
    runs = defaultdict(list)
    for r in records:
        runs[(r["workload"], r["trace"])].append(r)
    for (workload, trace), group in sorted(runs.items()):
        failed = sum(len(r["failures"]) for r in group)
        attempted = sum(r["attempted"] for r in group)
        seeds = sorted({r["seed"] for r in group})
        print(f"{workload} trace={trace}: {len(group)} runs, seeds {seeds}, failed {failed}/{attempted}")
        values = defaultdict(list)
        for r in group:
            for name, value in r.get("per_layer" if trace else "end_to_end", {}).items():
                values[name].append(value)
        for name, vs in values.items():
            spread = quartile_spread(vs) if len(vs) >= 2 else float("nan")
            print(f"  {name:<30} median {median(vs):>12.6g}  spread {spread:7.4f}  n={len(vs)}")
    by_seed = defaultdict(list)
    for r in records:
        by_seed[(r["workload"], r["seed"])].append(r)
    for (workload, seed), group in sorted(by_seed.items()):
        if len(group) < 2:
            continue
        digests = defaultdict(set)
        for r in group:
            for key, values in r["digests"].items():
                digests[key].update(values)
        quality = {json.dumps([r["quality"], r["training_epochs"]], sort_keys=True) for r in group}
        flags = " ".join(f"{k}={'identical' if len(v) == 1 else 'DIFFER'}" for k, v in sorted(digests.items()))
        print(f"{workload} seed {seed}: {len(group)} runs {flags} "
              f"quality={'identical' if len(quality) == 1 else 'DIFFER'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
