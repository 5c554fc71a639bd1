"""Run the benchmark on this tree and another in alternating pairs.

    python scripts/bench_pairs.py OTHER_TREE --workload W --seeds A-B

Run it from the root of this tree. For each seed A..B it runs
`perfbench/run.py --workload W --seed N --seconds S --trace 0` once from
each tree's root, one process at a time, S being the `run_seconds` of
this tree's `BENCHMARK.json`. This tree goes first on odd pair numbers
and the other tree on even ones, so a drift of the host's speed falls on
both sides alike. Each run's record is the new file it
writes under its tree's `.perfbench/results/`.

It prints, for the four end-to-end metrics:

- each pair's ratio, this tree's value over the other's;
- each side's median and quartiles, the number of pairs this tree wins
  (lower is better for all four), and whether the medians differ by more
  than the other side's quartile spread Q3 - Q1;
- per seed, whether the two sides' set-up, trace, checkpoint and manifest
  digests are equal as sets. A faster side fits more stage passes in the
  same seconds, so its digest lists are longer.

The last line is the same as one JSON object. The exit code is 1 if a
run failed or wrote no record.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("setup_s", "stage_s", "step_ms_p90", "peak_rss_mb")
DIGESTS = ("setup", "traces", "checkpoint", "manifest")
SECONDS = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["run_seconds"]


def parse_seeds(text: str) -> list[int]:
    """'A-B' as the seeds A..B, both included; 'A' as [A]."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise ValueError(f"seed range {text!r} is empty")
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), as statistics.quantiles(n=4) gives them; perfbench
    judges spread with the same quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(this: list[float], other: list[float]) -> dict:
    """Paired comparison of one lower-is-better metric: this tree's value
    over the other's per pair, each side's quartiles, this tree's wins,
    and whether the medians lie further apart than the other side's
    quartile spread."""
    ours, theirs = quartiles(this), quartiles(other)
    return {
        "ratios": [a / b for a, b in zip(this, other)],
        "this": dict(zip(("q1", "median", "q3"), ours)),
        "other": dict(zip(("q1", "median", "q3"), theirs)),
        "median_ratio": ours[1] / theirs[1],
        "wins": sum(a < b for a, b in zip(this, other)),
        "pairs": len(this),
        "clear": abs(ours[1] - theirs[1]) > theirs[2] - theirs[0],
    }


def digests_equal(this: dict, other: dict) -> dict[str, bool]:
    """Per digest key, whether both records wrote the same set of digests."""
    return {key: set(this.get(key, ())) == set(other.get(key, ())) for key in DIGESTS}


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run from tree's root: the record it wrote, or {} when
    it wrote none."""
    results = tree / ".perfbench" / "results"
    before = set(results.glob("*.json")) if results.is_dir() else set()
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL, check=False)
    new = sorted(set(results.glob(f"{workload}-seed{seed}-trace0-*.json")) - before)
    return json.loads(new[-1].read_text()) if new else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path)
    parser.add_argument("--workload", required=True, choices=("train", "live", "replay"))
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    args = parser.parse_args(argv)
    trees = {"this": Path.cwd().resolve(), "other": args.other.resolve()}
    pairs, ok, environment = [], True, None
    for k, seed in enumerate(args.seeds):
        order = ("this", "other") if k % 2 == 0 else ("other", "this")
        records = {side: run_once(trees[side], args.workload, seed) for side in order}
        failed = {side: len(r["failures"]) if r else None for side, r in records.items()}
        environment = environment or records["this"].get("environment")
        if not all(r and r["end_to_end"] for r in records.values()):
            print(f"seed {seed}: a run failed or wrote no record: {failed}")
            ok = False
            continue
        pair = {
            "seed": seed,
            "first": order[0],
            "failed": failed,
            "this": records["this"]["end_to_end"],
            "other": records["other"]["end_to_end"],
            "digests_equal": digests_equal(records["this"]["digests"], records["other"]["digests"]),
        }
        pairs.append(pair)
        ratios = " ".join(f"{m} {pair['this'][m] / pair['other'][m]:.3f}" for m in METRICS)
        equal = " ".join(f"{key}={'equal' if v else 'DIFFER'}" for key, v in pair["digests_equal"].items())
        print(f"seed {seed} ({order[0]} first): {ratios}  {equal}", flush=True)
    summary = {}
    if pairs:
        for m in METRICS:
            s = summary[m] = summarize([p["this"][m] for p in pairs], [p["other"][m] for p in pairs])
            print(f"{m:<12} this {s['this']['median']:.6g} [{s['this']['q1']:.6g}, {s['this']['q3']:.6g}]"
                  f"  other {s['other']['median']:.6g} [{s['other']['q1']:.6g}, {s['other']['q3']:.6g}]"
                  f"  ratio {s['median_ratio']:.3f}  wins {s['wins']}/{s['pairs']}"
                  f"  {'clear' if s['clear'] else 'within the spread'}")
    print(json.dumps({"workload": args.workload, "seconds": SECONDS, "trees": {k: str(v) for k, v in trees.items()},
                      "environment": environment, "pairs": pairs, "summary": summary}))
    return 0 if ok and pairs else 1


if __name__ == "__main__":
    sys.exit(main())
