"""Tracing overhead: untraced and traced stage repetitions in turn.

    python3 perfbench/overhead.py --workload train|live|replay --pairs N [--seed S]

Run from the repository root. After one set-up, the workload's stage
runs 2N times in one process, untraced and traced in turn. The order
flips every pair, so a slow drift of the host's speed falls on both
sides alike. Prints, for each side, the median stage time and the step
median and 90th percentile, and each pair's stage-time ratio.
"""
from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path
from statistics import median

from run import THREAD_VARS, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "scoopgp" / "__init__.py").is_file():
        print(f"error: {root}/src/scoopgp not found; run from the repository root", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    import bench
    from layers import Layers
    from tracing import percentile

    work = root / ".perfbench" / "work" / f"overhead-{args.workload}-{os.getpid()}"
    run = bench.Run(args.workload, args.seed, 0.0, work)
    layers = Layers()
    sides = {"untraced": ([], []), "traced": ([], [])}
    try:
        setup_root = bench.setup(run, 0)
        for pair in range(args.pairs):
            for side in ("untraced", "traced")[:: 1 if pair % 2 == 0 else -1]:
                run.stage_s, run.steps_s = [], []
                if side == "traced":
                    with layers.recording():
                        stage(bench, run, setup_root, pair)
                else:
                    stage(bench, run, setup_root, pair)
                sides[side][0].extend(run.stage_s)
                sides[side][1].extend(run.steps_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if run.ledger.failures:
        print("\n".join(run.ledger.failures), file=sys.stderr)
        return 1

    (u_stage, u_steps), (t_stage, t_steps) = sides["untraced"], sides["traced"]
    print(f"workload {args.workload} seed {args.seed} pairs {args.pairs}")
    for name, untraced, traced in (
        ("stage_s (median)", median(u_stage), median(t_stage)),
        ("step_ms_p50", 1e3 * median(u_steps), 1e3 * median(t_steps)),
        ("step_ms_p90", 1e3 * percentile(u_steps, 90), 1e3 * percentile(t_steps, 90)),
    ):
        print(f"  {name:<18} {untraced:10.6g} untraced  {traced:10.6g} traced  "
              f"({100.0 * (traced / untraced - 1.0):+.1f}%)")
    ratios = " ".join(f"{100.0 * (t / u - 1.0):+.1f}%" for u, t in zip(u_stage, t_stage))
    print(f"  pair stage ratios  {ratios}")
    return 0


def stage(bench, run, setup_root: Path, rep: int) -> None:
    if run.workload == "train":
        bench.train_stage(run, setup_root, rep)
    else:
        bench.deploy_stage(run, setup_root)


if __name__ == "__main__":
    sys.exit(main())
