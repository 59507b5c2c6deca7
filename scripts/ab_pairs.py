"""Interleaved A/B timing of score_pair between two source trees.

Each tree's `comic` package is copied into one temporary directory under
its own name (the package imports itself only relatively), so both load
into this one process. The same pairs, generated by the base tree, are then
scored by both sides, alternating which side goes first from pair to pair,
so drift in machine speed falls on both sides alike. Both sides score at
CONFIG, the scoring config of perfbench's desk-n500 workload: hidden width
50, 100 MAP + 100 VI epochs with a warm-up of 10, 64 MC samples, seed 0.
--n takes one or more pair lengths and defaults to that workload's 500
rows.

Prints one JSON line per seed and length: the seed, the length n, each
side's median and quartiles of per-pair seconds, the median of the
per-pair ratio change/base, how many pairs the change scored faster, and
whether every repr(final_delta) matched. Exits with status 1 when any did
not, so a change meant to keep the scores can be checked by the exit code
alone. With --out PATH the lines are also written to PATH as
{"runs": [...], "context": {...}}; the context holds the CPU count, the
CPUs this process may run on, the BLAS and OpenMP thread variables as
found (None when unset), the list of --n, --pairs-per-family, the config
and the change side's machine block (numpy version, dispatch targets,
OpenBLAS core), so the change tree must have evaluation.machine_info.
Which trees were compared is not recorded: the commit that adds a result
file names them.

Example, comparing a checkout of the parent commit with this tree:
    python scripts/ab_pairs.py --base ../parent/src --change src --seed 1 2 \
        --n 500 2000 --out BENCH_label.json
"""

import argparse
import dataclasses
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# the TrainConfig both sides score at: perfbench's desk-n500 config
CONFIG = {"hidden_width": 50, "map_epochs": 100, "vi_epochs": 100, "warmup_epochs": 10,
          "mc_eval_samples": 64, "seed": 0}

# the thread counts of numpy's BLAS and of OpenMP code, which set how many
# CPUs one scoring process keeps busy
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_package(src: Path, name: str, into: Path):
    shutil.copytree(src / "comic", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def quartiles(values):
    """Median and quartiles of values; all three are the value itself for one."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def ab_run(sides, configs, pairs_per_family, seed, n):
    """The result line for the n-row pairs the base tree generates at seed."""
    base = sides["base"]
    pairs = [p for fam in base.data.FAMILIES for p in base.data.generate_dataset(
        base.data.GeneratorSpec(fam, pairs_per_family, n, seed))]
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
    return {
        "seed": seed,
        "n": n,
        "pairs": len(pairs),
        "base_s": quartiles(seconds["base"]),
        "change_s": quartiles(seconds["change"]),
        "ratio_median": statistics.median(ratios),
        "change_wins": sum(c < b for b, c in zip(seconds["base"], seconds["change"])),
        "scores_match": deltas["base"] == deltas["change"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", type=Path, required=True,
                        help="source directory holding the base comic package")
    parser.add_argument("--change", type=Path, required=True,
                        help="source directory holding the changed comic package")
    parser.add_argument("--seed", type=int, nargs="+", default=[1],
                        help="seeds of the generated pairs, one result line each")
    parser.add_argument("--pairs-per-family", type=int, default=2)
    parser.add_argument("--n", type=int, nargs="+", default=[500],
                        help="rows per pair, one result line per seed and length")
    parser.add_argument("--out", type=Path,
                        help="also write the result lines, with their context, to this file")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = {"base": load_package(args.base, "comic_base", Path(tmp)),
                 "change": load_package(args.change, "comic_change", Path(tmp))}
        configs = {name: pkg.codelength.TrainConfig(**CONFIG) for name, pkg in sides.items()}
        runs = []
        for seed in args.seed:
            for n in args.n:
                runs.append(ab_run(sides, configs, args.pairs_per_family, seed, n))
                print(json.dumps(runs[-1]), flush=True)
        if args.out is not None:
            context = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
                       "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
                       "n": args.n,
                       "pairs_per_family": args.pairs_per_family,
                       "config": dataclasses.asdict(configs["change"]),
                       "machine": sides["change"].evaluation.machine_info()}
            args.out.write_text(json.dumps({"runs": runs, "context": context}, indent=2) + "\n")
    return 0 if all(run["scores_match"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
