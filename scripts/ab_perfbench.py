"""Interleaved A/B runs of perfbench between two checkouts of the repository.

Each side runs its own tree's `perfbench/run.py --workload W --seed S
--seconds T --trace 0` in a fresh interpreter, from that tree's root and
without PYTHONPATH, so each imports its own `comic`. The two sides run in
--pairs pairs, alternating which side goes first from pair to pair, so drift
in machine speed falls on both sides alike. A run that fails its gate stops
the script with status 2.

Prints one JSON object: per end-to-end metric of the change tree's
BENCHMARK.json, each side's median and quartiles, how many pairs the change
read better (ties count for neither), whether the medians differ by more
than the base's interquartile spread, and whether every run of each side
gave the same scores_sha256 and inputs_sha256 as every other. Exits with
status 1 when they did not, so a change meant to keep the bytes can be
checked by the exit code alone. With --out PATH the summary, every run's
metrics and hashes and each side's perfbench context are also written to
PATH. Which trees were compared is not recorded: the commit that adds a
result file names them.

Example, comparing a checkout of the parent commit with this tree:
    python scripts/ab_perfbench.py --base ../parent --change . \\
        --workload generate-gp --seed 1 --pairs 10 --out ab.json
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from ab_pairs import quartiles


def run_side(tree: Path, args) -> dict:
    """Metrics, hashes and context of one perfbench run in tree."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, env={**env, "PYTHONDONTWRITEBYTECODE": "1"}, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"perfbench failed in {tree} (exit {proc.returncode}):\n"
              f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}", file=sys.stderr)
        raise SystemExit(2)
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "scores_sha256": report["scores_sha256"],
            "inputs_sha256": report["inputs_sha256"],
            "context": report["context"]}


def summarize(runs: dict, end_to_end: list[dict]) -> dict:
    """Per metric: each side's quartiles, the change's wins, and whether the
    shift of the medians exceeds the base's interquartile spread."""
    metrics = {}
    for entry in end_to_end:
        name, sign = entry["name"], 1.0 if entry["better"] == "lower" else -1.0
        values = {side: [run["metrics"][name] for run in runs[side]] for side in runs}
        base, change = quartiles(values["base"]), quartiles(values["change"])
        metrics[name] = {
            "better": entry["better"],
            "base": base,
            "change": change,
            "change_wins": sum(sign * (c - b) < 0
                               for b, c in zip(values["base"], values["change"])),
            "shift_exceeds_base_iqr": abs(change["median"] - base["median"])
            > base["q3"] - base["q1"],
        }
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", type=Path, required=True,
                        help="root of the base checkout (holds perfbench/ and src/)")
    parser.add_argument("--change", type=Path, required=True,
                        help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--pairs", type=int, default=10,
                        help="base/change pairs to run, alternating which side goes first")
    parser.add_argument("--out", type=Path,
                        help="also write the summary, every run and both contexts to this file")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    end_to_end = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            runs[side].append(run_side(trees[side], args))
            print(f"pair {i + 1}/{args.pairs} {side}: "
                  f"{json.dumps(runs[side][-1]['metrics'])}", file=sys.stderr, flush=True)
    hashes = {key: sorted({run[key] for side in runs for run in runs[side]})
              for key in ("scores_sha256", "inputs_sha256")}
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "metrics": summarize(runs, end_to_end),
        "hashes": hashes,
        "hashes_match": all(len(values) == 1 for values in hashes.values()),
    }
    print(json.dumps(summary), flush=True)
    if args.out is not None:
        contexts = {side: runs[side][0]["context"] for side in runs}
        order = [{"first": "base" if i % 2 == 0 else "change",
                  **{side: {key: runs[side][i][key]
                            for key in ("metrics", "scores_sha256", "inputs_sha256")}
                     for side in runs}}
                 for i in range(args.pairs)]
        args.out.write_text(json.dumps({"summary": summary, "runs": order,
                                        "context": contexts}, indent=2) + "\n")
    return 0 if summary["hashes_match"] else 1


if __name__ == "__main__":
    sys.exit(main())
