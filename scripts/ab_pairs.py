"""Interleaved A/B timing of score_pair between two source trees.

Each tree's `comic` package is copied into one temporary directory under
its own name (the package imports itself only relatively), so both load
into this one process; the base tree is copied twice, as "base" and
"base_again", each with its own module state. The same pairs, generated
by the base tree, are then scored by all three sides, rotating which side
goes first from pair to pair, so drift in machine speed and warm-up fall on
every side alike. Every side scores at CONFIG, the scoring config of
perfbench's desk-n500 workload: hidden width 50, 100 MAP + 100 VI epochs
with a warm-up of 10, 64 MC samples, seed 0. --n takes one or more pair
lengths and defaults to that workload's 500 rows.

Prints one JSON line per seed and length: the seed, the length n, base's
and change's median and quartiles of per-pair seconds, the median of the
per-pair ratio change/base, how many pairs the change scored faster, the
median and quartiles of the A/A per-pair ratio base_again/base
("aa_ratio", the noise band), a "verdict" ("faster" or "slower" only when
ratio_median lies below or above the band, "unchanged" otherwise), and
whether every repr(final_delta) matched across the three sides. For a
change that moves the scores on purpose, each line also says what moved:
"decisions_agree", how many of its pairs the change decided as the base
did, and "delta_move", the median and maximum over its pairs of
|delta_change - delta_base| / |delta_base|. Exits with status 1 when any
score did not match, so a change meant to keep the scores can be checked
by the exit code alone. With --out PATH the lines are also
written to PATH as {"runs": [...], "context": {...}}; the context holds
the CPU count, the CPUs this process may run on, the BLAS and OpenMP
thread variables as found (None when unset), the list of --n,
--pairs-per-family, the config and the change side's machine block
(numpy version, dispatch targets, OpenBLAS core), so the change tree must
have evaluation.machine_info.
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
import math
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


def verdict(ratio_median, band):
    """The verdict on a change/base ratio: "faster" or "slower" when it lies
    below or above the A/A band's quartiles, "unchanged" inside them."""
    if ratio_median < band["q1"]:
        return "faster"
    if ratio_median > band["q3"]:
        return "slower"
    return "unchanged"


def sign(value: float) -> int:
    """1, -1 or 0 as value is positive, negative or zero: the decision it gives."""
    return (value > 0) - (value < 0)


def delta_moves(base: list[float], change: list[float]) -> dict:
    """How the change moved the scores of the same pairs: the decisions it
    kept and the median and maximum relative move of delta."""
    moves = [abs(c - b) / abs(b) if b else (0.0 if c == b else math.inf)
             for b, c in zip(base, change)]
    return {"decisions_agree": sum(sign(b) == sign(c) for b, c in zip(base, change)),
            "delta_move": {"median": statistics.median(moves), "max": max(moves)}}


def timed(pairs, sides, configs):
    """Per side, the seconds and repr(final_delta) of each pair, rotating
    which side goes first from pair to pair."""
    names = list(sides)
    seconds = {name: [] for name in names}
    deltas = {name: [] for name in names}
    for i, pair in enumerate(pairs):
        turn = i % len(names)
        for name in names[turn:] + names[:turn]:
            pkg = sides[name]
            own = pkg.data.PairDataset(pair.x.copy(), pair.y.copy(), label=pair.label)
            start = time.perf_counter()
            report = pkg.codelength.score_pair(own, configs[name])
            seconds[name].append(time.perf_counter() - start)
            deltas[name].append(repr(report.final_delta))
    return seconds, deltas


def ab_run(sides, configs, pairs_per_family, seed, n):
    """The result line for the n-row pairs the base tree generates at seed."""
    base = sides["base"]
    pairs = [p for fam in base.data.FAMILIES for p in base.data.generate_dataset(
        base.data.GeneratorSpec(fam, pairs_per_family, n, seed))]
    seconds, deltas = timed(pairs, sides, configs)
    ratios = [c / b for b, c in zip(seconds["base"], seconds["change"])]
    aa_ratio = quartiles([a / b for b, a in zip(seconds["base"], seconds["base_again"])])
    return {
        "seed": seed,
        "n": n,
        "pairs": len(pairs),
        "base_s": quartiles(seconds["base"]),
        "change_s": quartiles(seconds["change"]),
        "ratio_median": statistics.median(ratios),
        "change_wins": sum(c < b for b, c in zip(seconds["base"], seconds["change"])),
        "aa_ratio": aa_ratio,
        "verdict": verdict(statistics.median(ratios), aa_ratio),
        "scores_match": deltas["base"] == deltas["change"] == deltas["base_again"],
        **delta_moves(*(list(map(float, deltas[name])) for name in ("base", "change"))),
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
        trees = {"base": args.base, "change": args.change, "base_again": args.base}
        sides = {name: load_package(src, f"comic_{name}", Path(tmp))
                 for name, src in trees.items()}
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
