"""Benchmark metrics and aggregation over many scored pairs."""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from .codelength import TrainConfig, score_pair
from .data import PairDataset, X_CAUSES_Y, Y_CAUSES_X
from .errors import ArgumentError, check_count


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
    stray = labels[~(pos_forward | pos_backward)].tolist()
    if stray:
        raise ArgumentError(f"unknown label {stray[0]!r}")
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


def machine_info() -> dict:
    """The numpy version, its active CPU dispatch targets and the OpenBLAS
    core of this process: scores are bit-exact per machine type, and these
    name it. The core is None when numpy's BLAS does not report one."""
    import ctypes  # imported here, so that importing the package does no more work

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    try:
        corename = ctypes.CDLL(umath.__file__).scipy_openblas_get_corename64_
    except AttributeError:
        blas_core = None
    else:
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        blas_core = corename().decode()
    return {
        "numpy_version": np.__version__,
        "dispatch_targets": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)],
        "blas_core": blas_core,
    }


def _score_one(pair: PairDataset, cfg: TrainConfig) -> PairRow:
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
    An interrupt (Ctrl-C) cancels every pair not yet handed to a worker and
    propagates once the pairs in flight finish.
    """
    if not pairs:
        raise ArgumentError("benchmark needs a non-empty pair list")
    if any(p.label is None for p in pairs):
        raise ArgumentError("benchmark pairs need ground-truth labels")
    parallelism = check_count("parallelism", parallelism, 1)
    workers = min(parallelism, len(pairs))
    if workers == 1:
        rows = [_score_one(pair, cfg) for pair in pairs]
    else:
        # imported here so that importing the package loads no process pool
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        rows = []
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = [pool.submit(_score_one, pair, cfg) for pair in pairs]
            for pair, future in zip(pairs, futures):
                try:
                    rows.append(future.result())
                except BrokenProcessPool as e:
                    rows.append(PairRow(pair.id, None, None, pair.label, pair.weight, 0.0,
                                        error=f"BrokenProcessPool: {e}"))
        finally:
            # after an interrupt: drop the queued pairs, wait only for those in flight
            pool.shutdown(cancel_futures=True)

    ok = [r for r in rows if r.error is None]
    n_failed = len(rows) - len(ok)
    metadata = {
        "config": asdict(cfg),
        "n_pairs": len(rows),
        "weighted_accuracy_uses_weights": True,
        "bi_auroc_uses_weights": True,
        "machine": machine_info(),
    }
    if not ok:
        return BenchmarkResult(rows, 0.0, 0.0, None, n_failed, metadata)
    decisions = [r.decision for r in ok]
    labels = [r.label for r in ok]
    weights = np.array([r.weight for r in ok])
    deltas = np.array([r.final_delta for r in ok])
    acc = weighted_accuracy(decisions, labels)
    wacc = weighted_accuracy(decisions, labels, weights)
    bi = bi_auroc(deltas, labels, weights) if {X_CAUSES_Y, Y_CAUSES_X} <= set(labels) else None
    return BenchmarkResult(rows, acc, wacc, bi, n_failed, metadata)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def result_to_csv(result: BenchmarkResult) -> str:
    """CSV with one row per pair followed by a summary block.

    A field is quoted only when it holds a comma, a quote or a line break,
    as an error message or a pair id may.
    """
    import csv  # imported here: only the CSV writer needs it, not `import comic`

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "final_delta", "decision", "label", "weight", "runtime_seconds",
                     "error"])
    for r in result.rows:
        writer.writerow([r.id, _fmt(r.final_delta), r.decision or "", r.label or "",
                         _fmt(r.weight), _fmt(r.runtime_seconds), r.error or ""])
    writer.writerows([["# summary"], ["accuracy", _fmt(result.accuracy)],
                      ["weighted_accuracy", _fmt(result.weighted_accuracy)],
                      ["bi_auroc", _fmt(result.bi_auroc)], ["n_failed", result.n_failed]])
    return out.getvalue()


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


def write_result(result: BenchmarkResult, out_dir: str | Path) -> dict[str, str]:
    """Write results.csv and summary.json into out_dir; returns both texts by format."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    texts = {"csv": result_to_csv(result), "json": result_to_json(result)}
    (out / "results.csv").write_text(texts["csv"])
    (out / "summary.json").write_text(texts["json"])
    return texts
