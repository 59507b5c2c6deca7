"""Benchmark of the comic package: end-to-end timings, correctness gate, layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload desk-n500 --seed 1 --seconds 15 --trace 0

The inputs are generated from --seed and fed to the public API
(comic.data, comic.evaluation.run_benchmark, comic.codelength.score_pair).
The amount of work is sized from --seconds with rates measured on a 2-CPU
machine, so the timed phase lasts about that long there; for a given seed
and --seconds the work is fixed, so runs of different commits compare.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The line before it is a report with the
context, the score and input hashes, and the metrics that are not gated.
A failed correctness check sets correct to false and exits with code 1.
See perfbench/README.md for what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

PARALLELISM = 2
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# The traced run alternates untraced and traced passes over this many
# slices of the inputs, so drift in machine speed cancels in the overhead.
TRACE_SLICES = 4

# DESK_CFG of the acceptance suite (H=50, 64 MC samples) with its
# 1000 + 1000 epochs shortened to 100 + 100 so a run fits its length.
EPOCHS = 100
# Tübingen-shaped corpus: uneven lengths in file order with the largest
# pair last, so pool imbalance shows in wall_s and worker_idle_share. The
# seven 1000-row pairs come first and run beside each other, so
# pair_s.p50, the middle one of them, does not depend on which longer
# pair shares the machine; Pool.map hands them out two at a time.
CORPUS_LENGTHS = (1000, 1000, 1000, 1000, 1000, 1000, 1000,
                  500, 2000, 500, 2000, 500, 4000)
CORPUS_FAMILIES = ("AN-s", "LS-s")
GP_FAMILIES = ("AN", "LS")
DESK_N = 500
GP_N = 2000
MIRROR_N = 100
# Work per second of --seconds, measured on 2 CPUs at the schedule above.
DESK_PAIRS_PER_S = 3.0
CORPUS_ROWS_PER_S = 850.0
GP_PAIRS_PER_S = 2.2


class GateError(Exception):
    """A correctness check of the benchmark failed."""


@dataclass
class Pass:
    """One timed pass over a workload's inputs."""

    wall_s: float
    pair_s: list[float]
    outputs: list[str]            # repr of every score, in input order
    failed: int = 0               # pairs with an error or a non-finite score
    inputs_sha256: str = ""
    parallelism: int = 1
    quality: dict = field(default_factory=dict)

    @property
    def scores_sha256(self) -> str:
        return hashlib.sha256("\n".join(self.outputs).encode()).hexdigest()

    @classmethod
    def joined(cls, passes: list["Pass"]) -> "Pass":
        return cls(sum(p.wall_s for p in passes),
                   [t for p in passes for t in p.pair_s],
                   [o for p in passes for o in p.outputs],
                   sum(p.failed for p in passes))


def default_config():
    from comic.codelength import TrainConfig

    return TrainConfig(hidden_width=50, map_epochs=EPOCHS, vi_epochs=EPOCHS,
                       warmup_epochs=EPOCHS // 10, mc_eval_samples=64, seed=0)


def columns_sha256(pairs) -> str:
    h = hashlib.sha256()
    for p in pairs:
        h.update(p.x.tobytes())
        h.update(p.y.tobytes())
    return h.hexdigest()


# ------------------------------------------------------------------ workloads


def setup_desk(seed: int, seconds: int, workdir: Path):
    from comic import data

    per_family = max(1, round(seconds * DESK_PAIRS_PER_S / len(data.FAMILIES)))
    return [p for fam in data.FAMILIES
            for p in data.generate_dataset(data.GeneratorSpec(fam, per_family, DESK_N, seed))]


def setup_corpus(seed: int, seconds: int, workdir: Path):
    from comic import data

    repeats = max(1, round(seconds * CORPUS_ROWS_PER_S / sum(CORPUS_LENGTHS)))
    lengths = CORPUS_LENGTHS * repeats
    generated = []
    for i, n in enumerate(lengths):
        pair = data.generate_pair(
            data.GeneratorSpec(CORPUS_FAMILIES[i % 2], len(lengths), n, seed), i)
        # every second pair stored effect-first, as generate_dataset does
        generated.append(data.swap_pair(pair) if i % 2 == 1 else pair)
    directory = workdir / "corpus"
    data.write_dataset(directory, generated)
    return data.load_tuebingen(directory)


def setup_gp(seed: int, seconds: int, workdir: Path):
    from comic import data

    count = 2 * max(1, round(seconds * GP_PAIRS_PER_S / 2))
    # one single-pair spec per pair, so each pass of the generate path is timed;
    # each AN/LS couple gets its own generator seed
    return [data.GeneratorSpec(GP_FAMILIES[i % 2], 1, GP_N, seed * 1000 + i // 2)
            for i in range(count)]


def score_pairs(pairs, cfg, parallelism: int, workdir: Path) -> Pass:
    import comic.evaluation as evaluation

    start = time.perf_counter()
    result = evaluation.run_benchmark(pairs, cfg, parallelism=parallelism)
    wall_s = time.perf_counter() - start
    return Pass(
        wall_s=wall_s,
        pair_s=[r.runtime_seconds for r in result.rows],
        outputs=[repr(r.final_delta) for r in result.rows],
        failed=sum(r.error is not None or not math.isfinite(r.final_delta)
                   for r in result.rows),
        inputs_sha256=columns_sha256(pairs),
        parallelism=parallelism,
        quality={"accuracy": result.accuracy, "bi_auroc": result.bi_auroc},
    )


def generate_pairs(specs, cfg, parallelism: int, workdir: Path) -> Pass:
    from comic import data

    pair_s, generated, loaded, standardized = [], [], [], []
    start = time.perf_counter()
    for i, spec in enumerate(specs):
        t = time.perf_counter()
        pairs = data.generate_dataset(spec)
        directory = workdir / f"gp-{i:04d}"
        data.write_dataset(directory, pairs)
        back = data.load_tuebingen(directory)
        standardized.append([data.standardize(col) for p in back for col in (p.x, p.y)])
        pair_s.append(time.perf_counter() - t)
        generated.extend(pairs)
        loaded.extend(back)
    wall_s = time.perf_counter() - start
    if len(generated) != len(loaded):
        raise GateError(f"wrote {len(generated)} pairs, loaded {len(loaded)}")
    for g, b in zip(generated, loaded):
        if (g.x.tobytes(), g.y.tobytes(), g.label, g.weight) != \
                (b.x.tobytes(), b.y.tobytes(), b.label, b.weight):
            raise GateError(f"loaded pair {b.id} differs from the generated pair {g.id}")
    outputs = [repr((hashlib.sha256(z.tobytes()).hexdigest(), mean, std))
               for cols in standardized for z, mean, std in cols]
    return Pass(wall_s, pair_s, outputs, inputs_sha256=columns_sha256(generated))


def check_mirror(pair, cfg, score=None) -> None:
    """score(swap(p)).final_delta must be -score(p).final_delta bit for bit."""
    from comic import codelength, data

    score = score or codelength.score_pair
    forward = score(pair, cfg).final_delta
    mirrored = score(data.swap_pair(pair), cfg).final_delta
    if not (math.isfinite(forward) and mirrored == -forward
            and math.copysign(1.0, mirrored) == -math.copysign(1.0, forward)):
        raise GateError(f"swap is not an exact mirror: {forward!r} vs {mirrored!r}")


def mirror_pair(seed: int):
    from comic import data

    return data.generate_pair(data.GeneratorSpec("AN-s", 1, MIRROR_N, seed), 0)


@dataclass(frozen=True)
class Workload:
    setup: object
    timed: object
    scores: bool      # trains models; otherwise runs the data path only


# README.md says why each workload exists and why corpus-mixed is not gated.
WORKLOADS = {
    "desk-n500": Workload(setup_desk, score_pairs, True),
    "corpus-mixed": Workload(setup_corpus, score_pairs, True),
    "generate-gp": Workload(setup_gp, generate_pairs, False),
}


# -------------------------------------------------------------------- context


def _median_import_s() -> float:
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import comic; print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, check=True, timeout=120)
        times.append(float(done.stdout))
    return statistics.median(times)


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def context(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(),
        "seed": seed,
        "parallelism": PARALLELISM,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _upper_percentile(values: list[float]) -> dict:
    """The highest of p75/p90/p95/p99 with at least 10 samples beyond it."""
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            return {f"pair_s.p{q}": statistics.quantiles(values, n=100)[q - 1]}
    return {}


# ---------------------------------------------------------------------- run


def measure(workload: str, seed: int, seconds: int, trace: bool, cfg=None):
    """Set up, time, check and (with trace) trace one workload.

    Returns (report, metrics, attempted, failed); raises GateError when a
    correctness check fails.
    """
    if not (SRC / "comic" / "__init__.py").is_file():
        raise FileNotFoundError(f"no comic sources under {SRC}")
    import_s = _median_import_s()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import comic

    if Path(comic.__file__).resolve().parent != SRC / "comic":
        raise ImportError(f"comic imported from {comic.__file__}, not {SRC}")
    cfg = cfg or default_config()
    wl = WORKLOADS[workload]
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    report = {"workload": workload, "context": context(seed)}
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = wl.setup(seed, seconds, workdir)
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_times)
        main = wl.timed(inputs, cfg, PARALLELISM, workdir)
        attempted = len(main.pair_s)
        if main.failed:
            raise GateError(f"{main.failed} of {attempted} pairs failed or gave "
                            "a non-finite final_delta")
        if wl.scores:
            check_mirror(mirror_pair(seed), cfg)
        report["scores_sha256"] = main.scores_sha256
        report["inputs_sha256"] = main.inputs_sha256
        report["pair_s.count"] = attempted
        report["fail_ratio"] = main.failed / attempted
        report.update(_upper_percentile(main.pair_s))
        if wl.scores:
            report["epochs_per_s"] = (2 * (cfg.map_epochs + cfg.vi_epochs) * attempted
                                      / sum(main.pair_s))
        report.update(main.quality)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (main.wall_s, "s"),
            "pairs_per_s": (attempted / main.wall_s, "1/s"),
            "pair_s.p50": (statistics.median(main.pair_s), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        if trace:
            report["untraced_metrics"] = {k: v for k, (v, _) in metrics.items()}
            metrics = traced_metrics(wl, main, seed, seconds, cfg, workdir, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report, metrics, attempted, main.failed


def traced_metrics(wl, main: Pass, seed, seconds, cfg, workdir, report) -> dict:
    """Per-layer metrics from traced in-process passes over the same inputs.

    The set-up is traced once, so the data layer's set-up work counts too.
    The timed phase then runs at parallelism 1 over slices of the inputs,
    each slice first untraced and then traced; the difference of the two
    walls is the tracing overhead.
    """
    tracer = tracing.Tracer()
    with tracer.installed():
        inputs = wl.setup(seed, seconds, workdir)
    timed_from = len(tracer.spans)
    untraced, traced = [], []
    size = -(-len(inputs) // TRACE_SLICES)
    for i in range(0, len(inputs), size):
        untraced.append(wl.timed(inputs[i:i + size], cfg, 1, workdir))
        with tracer.installed():
            traced.append(wl.timed(inputs[i:i + size], cfg, 1, workdir))
    untraced, traced = Pass.joined(untraced), Pass.joined(traced)
    for name, other in (("untraced", main), ("untraced serial", untraced)):
        if other.scores_sha256 != traced.scores_sha256:
            raise GateError(f"tracing changed the scores: {name} and traced hashes differ")

    spans_path = OUT / f"spans-{report['workload']}-seed{seed}.json.gz"
    tracer.write(spans_path)
    layers = tracing.summarize(tracer.spans)
    timed = tracing.summarize(tracer.spans[timed_from:])
    self_sum = sum(entry["self_s"] for entry in timed.values())
    modules = sorted({name.split(".")[0] for name in layers})
    report["trace"] = {
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "scores_sha256": traced.scores_sha256,
        "untraced_serial_wall_s": untraced.wall_s,
        "traced_wall_s": traced.wall_s,
        "overhead_s": traced.wall_s - untraced.wall_s,
        "timed_self_sum_s": self_sum,
        "unattributed_s": traced.wall_s - self_sum,
        "timed_self_share": {
            m: sum(e["self_s"] for n, e in timed.items() if n.split(".")[0] == m)
            / traced.wall_s for m in modules
        },
    }
    metrics = {}
    for name, entry in layers.items():
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.busy_s"] = (entry["busy_s"], "s")
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
    draws = layers["rng.draw_standard_normal"]["calls"]
    generators = layers["rng.RngStream.generator"]["calls"]
    metrics["rng.generators_per_draw"] = (generators / draws if draws else 0.0, "ratio")
    metrics["evaluation.worker_idle_share"] = (
        1.0 - sum(main.pair_s) / (main.parallelism * main.wall_s), "ratio")
    return metrics


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    })


def main(argv=None, cfg=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        report, metrics, attempted, failed = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), cfg)
    except GateError as e:
        print(json.dumps({"workload": args.workload, "gate_error": str(e)}))
        print(result_line(False, 1, 1, {}))
        return 1
    print(json.dumps(report))
    print(result_line(True, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
