"""Print the sha256 of every artifact of a small fixed-seed pipeline.

Each step runs in a fresh `python -m scoopgp.cli` process that imports
scoopgp from ./src:

- gen-data for one small suite whose four test tasks hold one of
  each composition, Layers included;
- train for sl, dkmt, kcmd-ot, kcmd-random and kcmd-manual at small
  epoch flags (checkpoint and manifest of each);
- for each checkpoint, eval-deploy in replay and in live mode, and
  eval-kshot;
- report over every trace and MAE file (summary, tables, plot data and
  charts).

The output is one `sha256  path` line per file written, paths relative
to the work directory, sorted. Two source trees that print the same
lines wrote the same bytes, which is the behaviour check for a refactor.
Run it from the root of the tree to check (a checkout or a worktree of
another commit works the same way):

    python scripts/artifact_digests.py [--work DIR]

Without --work the artifacts go to a temporary directory that is
removed afterwards. The exit code is 1 if a step fails.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

METHODS = ("sl", "dkmt", "kcmd-ot", "kcmd-random", "kcmd-manual")
GEN_DATA = ["--seed", "3", "--n-train", "6", "--n-test", "4", "--samples", "40"]
TRAIN = ["--seed", "1", "--k-folds", "3", "--patience", "3", "--batch-size", "32",
         "--max-epochs-mean", "12", "--max-epochs-meta", "10"]
EVALS = {
    "replay.jsonl": ["eval-deploy", "--mode", "replay", "--max-attempts", "20", "--reps", "1"],
    "live.jsonl": ["eval-deploy", "--mode", "live", "--max-attempts", "5", "--reps", "1"],
    "kshot.json": ["eval-kshot", "--shots", "0,2,5"],
}


def steps(work: Path):
    data = str(work / "data")
    yield ["gen-data", "--out", data, *GEN_DATA]
    for method in METHODS:
        ckpt = str(work / method / "model.json")
        yield ["train", "--method", method, "--data", data, "--out", ckpt, *TRAIN]
        for name, argv in EVALS.items():
            yield [*argv, "--model", ckpt, "--data", data, "--out", str(work / method / name)]
    outputs = {name: [str(work / method / name) for method in METHODS] for name in EVALS}
    yield ["report", "--traces", *outputs["replay.jsonl"], *outputs["live.jsonl"],
           "--mae", *outputs["kshot.json"], "--out", str(work / "report")]


def run_pipeline(root: Path, work: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for argv in steps(work):
        proc = subprocess.run(
            [sys.executable, "-m", "scoopgp.cli", *argv], env=env, cwd=work,
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv[:3])} exited {proc.returncode}:\n{proc.stderr}")


def digests(work: Path) -> list[str]:
    return [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(work)}"
        for path in sorted(work.rglob("*"))
        if path.is_file()
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--work", help="keep the artifacts in this new directory")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "scoopgp" / "__init__.py").is_file():
        print(f"error: {root}/src/scoopgp not found; run from the repository root", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work).resolve() if args.work else Path(tmp)
        try:
            work.mkdir(parents=True, exist_ok=not args.work)
            run_pipeline(root, work)
        except FileExistsError:
            print(f"error: {work} exists; --work takes a new directory", file=sys.stderr)
            return 1
        except RuntimeError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        print("\n".join(digests(work)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
