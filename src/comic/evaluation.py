"""Benchmark metrics and aggregation over many scored pairs."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from .codelength import TrainConfig, score_pair
from .data import PairDataset, X_CAUSES_Y, Y_CAUSES_X
from .errors import ArgumentError, check_int


def _check_weights(weights: np.ndarray) -> None:
    """Weights must be finite and non-negative with a positive total."""
    if not (np.all(np.isfinite(weights)) and np.all(weights >= 0) and weights.sum() > 0):
        raise ArgumentError("weights must be finite and non-negative with a positive total")


def auroc(
    scores: np.ndarray,
    positives: np.ndarray,
    weights: np.ndarray | None = None,
) -> float:
    """Weighted probability that a positive outscores a negative, ties half.

    Rank-based (weighted Mann-Whitney); runs in O(n log n).
    """
    scores = np.asarray(scores, dtype=float)
    positives = np.asarray(positives, dtype=bool)
    weights = np.ones_like(scores) if weights is None else np.asarray(weights, dtype=float)
    if not scores.shape == positives.shape == weights.shape:
        raise ArgumentError("scores, positives and weights must have equal length")
    if np.isnan(scores).any():
        raise ArgumentError("scores must not be NaN")
    _check_weights(weights)
    w_pos = weights[positives].sum()
    w_neg = weights[~positives].sum()
    if w_pos == 0 or w_neg == 0:
        raise ArgumentError("AUROC needs at least one positive and one negative")
    # group the scores by value; bincount adds each group's weights in input order
    _, group = np.unique(scores, return_inverse=True)
    wp = np.bincount(group, weights * positives)
    wn = np.bincount(group, weights * ~positives)
    # negative weight below each group, and the terms' total, as sequential running sums
    below = np.concatenate(([0.0], np.cumsum(wn)[:-1]))
    total = np.cumsum(wp * (below + 0.5 * wn))[-1]
    return float(total / (w_pos * w_neg))


def bi_auroc(
    final_deltas: np.ndarray,
    labels: Sequence[str],
    weights: np.ndarray | None = None,
) -> float:
    """Mean of the two AUROCs with each direction in turn as positive class."""
    final_deltas = np.asarray(final_deltas, dtype=float)
    labels = np.asarray(labels)
    pos_forward = labels == X_CAUSES_Y
    pos_backward = labels == Y_CAUSES_X
    if not (pos_forward.any() and pos_backward.any()):
        raise ArgumentError("bi_auroc needs both ground-truth directions present")
    forward = auroc(final_deltas, pos_forward, weights)
    backward = auroc(-final_deltas, pos_backward, weights)
    return 0.5 * (forward + backward)


def weighted_accuracy(
    decisions: Sequence[str],
    labels: Sequence[str],
    weights: np.ndarray | None = None,
) -> float:
    """Weight-normalized fraction of correct decisions; undecided never matches."""
    decisions = np.asarray(decisions)
    labels = np.asarray(labels)
    weights = np.ones(len(labels)) if weights is None else np.asarray(weights, dtype=float)
    if not decisions.shape == labels.shape == weights.shape:
        raise ArgumentError("decisions, labels and weights must have equal length")
    _check_weights(weights)
    correct = decisions == labels
    return float(np.sum(weights * correct) / np.sum(weights))


@dataclass
class PairRow:
    id: str
    final_delta: float | None
    decision: str | None
    label: str | None
    weight: float
    runtime_seconds: float
    error: str | None = None


@dataclass
class BenchmarkResult:
    rows: list[PairRow]
    accuracy: float
    weighted_accuracy: float
    bi_auroc: float | None
    n_failed: int
    metadata: dict


def _score_one(args: tuple[PairDataset, TrainConfig]) -> PairRow:
    pair, cfg = args
    start = time.perf_counter()
    try:
        report = score_pair(pair, cfg)
    except Exception as e:  # recorded per row, surfaced in aggregates as n_failed
        return PairRow(pair.id, None, None, pair.label, pair.weight,
                       time.perf_counter() - start, error=f"{type(e).__name__}: {e}")
    return PairRow(pair.id, report.final_delta, report.decision, pair.label,
                   pair.weight, time.perf_counter() - start)


def run_benchmark(
    pairs: Sequence[PairDataset],
    cfg: TrainConfig,
    parallelism: int = 1,
) -> BenchmarkResult:
    """Score every pair and aggregate accuracy, weighted accuracy, Bi-AUROC.

    Pair scoring is a pure function of (data, config), so results do not
    depend on the parallelism degree. Failed pairs are excluded from the
    aggregates but kept in the rows with their error message. With more
    than one worker process, a worker that dies breaks the pool: the rows
    of pairs already scored are kept, and every pair left without a result
    gets a row whose error starts "BrokenProcessPool:", with runtime 0.0.
    """
    if not pairs:
        raise ArgumentError("benchmark needs a non-empty pair list")
    if any(p.label is None for p in pairs):
        raise ArgumentError("benchmark pairs need ground-truth labels")
    parallelism = check_int("parallelism", parallelism)
    if parallelism < 1:
        raise ArgumentError("parallelism must be >= 1")
    jobs = [(p, cfg) for p in pairs]
    workers = min(parallelism, len(jobs))
    if workers == 1:
        rows = [_score_one(job) for job in jobs]
    else:
        # imported here so that importing the package loads no process pool
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        rows = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_score_one, job) for job in jobs]
            for pair, future in zip(pairs, futures):
                try:
                    rows.append(future.result())
                except BrokenProcessPool as e:
                    rows.append(PairRow(pair.id, None, None, pair.label, pair.weight, 0.0,
                                        error=f"BrokenProcessPool: {e}"))

    ok = [r for r in rows if r.error is None]
    n_failed = len(rows) - len(ok)
    metadata = {
        "config": asdict(cfg),
        "n_pairs": len(rows),
        "weighted_accuracy_uses_weights": True,
        "bi_auroc_uses_weights": True,
    }
    if not ok:
        return BenchmarkResult(rows, 0.0, 0.0, None, n_failed, metadata)
    decisions = [r.decision for r in ok]
    labels = [r.label for r in ok]
    weights = np.array([r.weight for r in ok])
    deltas = np.array([r.final_delta for r in ok])
    acc = weighted_accuracy(decisions, labels, np.ones(len(ok)))
    wacc = weighted_accuracy(decisions, labels, weights)
    label_arr = np.asarray(labels)
    if (label_arr == X_CAUSES_Y).any() and (label_arr == Y_CAUSES_X).any():
        bi = bi_auroc(deltas, labels, weights)
    else:
        bi = None
    return BenchmarkResult(rows, acc, wacc, bi, n_failed, metadata)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def result_to_csv(result: BenchmarkResult) -> str:
    """CSV with one row per pair followed by a summary block."""
    lines = ["id,final_delta,decision,label,weight,runtime_seconds,error"]
    for r in result.rows:
        lines.append(
            f"{r.id},{_fmt(r.final_delta)},{r.decision or ''},{r.label or ''},"
            f"{_fmt(r.weight)},{_fmt(r.runtime_seconds)},{r.error or ''}"
        )
    lines.append("# summary")
    lines.append(f"accuracy,{_fmt(result.accuracy)}")
    lines.append(f"weighted_accuracy,{_fmt(result.weighted_accuracy)}")
    lines.append(f"bi_auroc,{_fmt(result.bi_auroc)}")
    lines.append(f"n_failed,{result.n_failed}")
    return "\n".join(lines) + "\n"


def result_to_json(result: BenchmarkResult) -> str:
    payload = {
        "metadata": result.metadata,
        "aggregates": {
            "accuracy": result.accuracy,
            "weighted_accuracy": result.weighted_accuracy,
            "bi_auroc": result.bi_auroc,
            "n_failed": result.n_failed,
        },
        "pairs": [asdict(r) for r in result.rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_result(result: BenchmarkResult, out_dir: str | Path) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "results.csv"
    json_path = out / "summary.json"
    csv_path.write_text(result_to_csv(result))
    json_path.write_text(result_to_json(result))
    return csv_path, json_path
