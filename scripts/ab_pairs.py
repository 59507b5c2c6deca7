"""Interleaved A/B timing of score_pair between two source trees.

Each tree's `comic` package is copied into one temporary directory under
its own name (the package imports itself only relatively), so both load
into this one process. The same pairs, generated by the base tree, are then
scored by both sides, alternating which side goes first from pair to pair,
so drift in machine speed falls on both sides alike. The default config is
the scoring config of perfbench's desk-n500 workload: n = 500, hidden width
50, 100 MAP + 100 VI epochs with a warm-up of 10, 64 MC samples.

Prints one JSON line: each side's median and quartiles of per-pair seconds,
the median of the per-pair ratio change/base, how many pairs the change
scored faster, and whether every repr(final_delta) matched. Exits with
status 1 when they did not, so a change meant to keep the scores can be
checked by the exit code alone.

Example, comparing a checkout of the parent commit with this tree:
    python scripts/ab_pairs.py --base ../parent/src --change src --seed 1
"""

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path


def load_package(src: Path, name: str, into: Path):
    shutil.copytree(src / "comic", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", type=Path, required=True,
                        help="source directory holding the base comic package")
    parser.add_argument("--change", type=Path, required=True,
                        help="source directory holding the changed comic package")
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated pairs")
    parser.add_argument("--pairs-per-family", type=int, default=2)
    parser.add_argument("--n", type=int, default=500, help="rows per pair")
    parser.add_argument("--hidden-width", type=int, default=50)
    parser.add_argument("--epochs", type=int, default=100,
                        help="MAP and VI epochs each; the warm-up is a tenth")
    parser.add_argument("--mc-samples", type=int, default=64)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = {"base": load_package(args.base, "comic_base", Path(tmp)),
                 "change": load_package(args.change, "comic_change", Path(tmp))}
        base = sides["base"]
        pairs = [p for fam in base.data.FAMILIES for p in base.data.generate_dataset(
            base.data.GeneratorSpec(fam, args.pairs_per_family, args.n, args.seed))]
        configs = {name: pkg.codelength.TrainConfig(
            hidden_width=args.hidden_width, map_epochs=args.epochs, vi_epochs=args.epochs,
            warmup_epochs=max(1, args.epochs // 10), mc_eval_samples=args.mc_samples, seed=0)
            for name, pkg in sides.items()}
        seconds = {name: [] for name in sides}
        deltas = {name: [] for name in sides}
        for i, pair in enumerate(pairs):
            for name in ("base", "change") if i % 2 == 0 else ("change", "base"):
                pkg = sides[name]
                own = pkg.data.PairDataset(pair.x.copy(), pair.y.copy(), label=pair.label)
                start = time.perf_counter()
                report = pkg.codelength.score_pair(own, configs[name])
                seconds[name].append(time.perf_counter() - start)
                deltas[name].append(repr(report.final_delta))

    ratios = [c / b for b, c in zip(seconds["base"], seconds["change"])]
    scores_match = deltas["base"] == deltas["change"]
    print(json.dumps({
        "pairs": len(pairs),
        "base_s": quartiles(seconds["base"]),
        "change_s": quartiles(seconds["change"]),
        "ratio_median": statistics.median(ratios),
        "change_wins": sum(c < b for b, c in zip(seconds["base"], seconds["change"])),
        "scores_match": scores_match,
    }))
    return 0 if scores_match else 1


if __name__ == "__main__":
    sys.exit(main())
