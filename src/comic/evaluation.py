"""Benchmark metrics and aggregation over many scored pairs."""

from __future__ import annotations

import ctypes
import io
import json
import time
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .codelength import TrainConfig, score_pair
from .data import DIRECTIONS, PairDataset, UNDECIDED, X_CAUSES_Y
from .errors import ArgumentError, check_count


def _check_weights(weights: np.ndarray) -> None:
    """The input must not be empty; weights must be finite and non-negative
    with a positive total."""
    if weights.size == 0:
        raise ArgumentError("the input is empty")
    if not (np.all(np.isfinite(weights)) and np.all(weights >= 0) and weights.sum() > 0):
        raise ArgumentError("weights must be finite and non-negative with a positive total")


def _refuse_unknown(values: np.ndarray, what: str, known: tuple[str, ...]) -> None:
    """ArgumentError naming the first of values that is not in known."""
    stray = values[~np.isin(values, known)].tolist()
    if stray:
        raise ArgumentError(f"unknown {what} {stray[0]!r}")


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
    """The AUROC of final_deltas with X_CAUSES_Y as the positive class.

    Each pair has one label and one score, so the AUROC with Y_CAUSES_X as
    the positive class, scored by -final_deltas, counts the same pairs and
    is the same number up to rounding: this one side is the bidirectional
    AUROC.
    """
    final_deltas = np.asarray(final_deltas, dtype=float)
    labels = np.asarray(labels)
    _refuse_unknown(labels, "label", DIRECTIONS)
    forward = labels == X_CAUSES_Y
    if forward.all() or not forward.any():
        raise ArgumentError("bi_auroc needs both ground-truth directions present")
    return auroc(final_deltas, forward, weights)


def weighted_accuracy(
    decisions: Sequence[str],
    labels: Sequence[str],
    weights: np.ndarray | None = None,
) -> float:
    """Weight-normalized fraction of correct decisions; undecided never matches.
    A label must name a direction, and a decision a direction or UNDECIDED."""
    decisions = np.asarray(decisions)
    labels = np.asarray(labels)
    weights = np.ones(len(labels)) if weights is None else np.asarray(weights, dtype=float)
    if not decisions.shape == labels.shape == weights.shape:
        raise ArgumentError("decisions, labels and weights must have equal length")
    _check_weights(weights)
    _refuse_unknown(labels, "label", DIRECTIONS)
    _refuse_unknown(decisions, "decision", DIRECTIONS + (UNDECIDED,))
    correct = decisions == labels
    return float(np.sum(weights * correct) / np.sum(weights))


@dataclass
class DecisionRateCurve:
    """Weighted accuracy against decision rate, pairs ranked by confidence.

    The pairs are ranked by |final_delta|, largest first, ties broken by
    ascending id. Entry k describes the k + 1 most confident pairs: "id" is
    the pair that enters there, "decision_rate" their share of the total
    weight and "accuracy" their weighted accuracy (None while their weight
    is 0). area sums each pair's weight share times the accuracy at its
    entry: the step integral of accuracy over decision rate.
    """

    entries: list[dict]
    area: float


def decision_rate_curve(
    deltas: np.ndarray,
    decisions: Sequence[str],
    labels: Sequence[str],
    weights: np.ndarray,
    ids: Sequence[str],
) -> DecisionRateCurve:
    """The decision-rate curve of scored pairs (Mooij et al., JMLR 2016, section 5).

    A pair is correct when its decision equals its label, so an undecided
    pair never is. A label must name a direction, and a decision a
    direction or UNDECIDED. Swapping every pair
    (negating each delta and mirroring each decision and label) leaves the
    curve unchanged.
    """
    deltas = np.asarray(deltas, dtype=float)
    decisions = np.asarray(decisions)
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=float)
    ids = list(ids)
    if not deltas.shape == decisions.shape == labels.shape == weights.shape == (len(ids),):
        raise ArgumentError("deltas, decisions, labels, weights and ids must have equal length")
    if np.isnan(deltas).any():
        raise ArgumentError("deltas must not be NaN")
    _check_weights(weights)
    _refuse_unknown(labels, "label", DIRECTIONS)
    _refuse_unknown(decisions, "decision", DIRECTIONS + (UNDECIDED,))
    order = np.array(sorted(range(len(ids)), key=lambda i: (-abs(deltas[i]), ids[i])))
    w = weights[order]
    covered = np.cumsum(w)
    total = covered[-1]
    accuracies = np.divide(np.cumsum(w * (decisions == labels)[order]), covered,
                           out=np.zeros_like(covered), where=covered > 0)
    entries = [{"id": ids[i], "decision_rate": float(c / total),
                "accuracy": float(a) if c > 0 else None}
               for i, c, a in zip(order, covered, accuracies)]
    return DecisionRateCurve(entries, float(np.sum(w / total * accuracies)))


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
    """A run's rows and aggregates; the aggregates are None when every pair
    failed, and bi_auroc also when one ground-truth direction is missing."""

    rows: list[PairRow]
    accuracy: float | None
    weighted_accuracy: float | None
    bi_auroc: float | None
    n_failed: int
    metadata: dict
    decision_rate: DecisionRateCurve | None = None


def machine_info() -> dict:
    """The numpy version, its active CPU dispatch targets and the OpenBLAS
    core of this process: scores are bit-exact per machine type, and these
    name it. The core is None when numpy's BLAS does not report one."""
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
    Workers get the longest pairs first; the rows keep the input order.
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
            # the longest pairs go first, so that no long pair starts last
            # while the other workers sit idle; the sort is stable, so equal
            # lengths keep their order, and rows still come in input order
            longest_first = sorted(range(len(pairs)), key=lambda i: -pairs[i].x.size)
            futures = {i: pool.submit(_score_one, pairs[i], cfg) for i in longest_first}
            for i, pair in enumerate(pairs):
                try:
                    rows.append(futures[i].result())
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
        return BenchmarkResult(rows, None, None, None, n_failed, metadata)
    decisions = [r.decision for r in ok]
    labels = [r.label for r in ok]
    weights = np.array([r.weight for r in ok])
    deltas = np.array([r.final_delta for r in ok])
    acc = weighted_accuracy(decisions, labels)
    wacc = weighted_accuracy(decisions, labels, weights)
    bi = bi_auroc(deltas, labels, weights) if set(DIRECTIONS) <= set(labels) else None
    curve = decision_rate_curve(deltas, decisions, labels, weights, [r.id for r in ok])
    return BenchmarkResult(rows, acc, wacc, bi, n_failed, metadata, curve)


def _aggregates(result: BenchmarkResult) -> dict:
    """The run's aggregates by name, in the order the CSV summary block lists them."""
    curve = result.decision_rate
    return {"accuracy": result.accuracy, "weighted_accuracy": result.weighted_accuracy,
            "bi_auroc": result.bi_auroc, "n_failed": result.n_failed,
            "decision_rate_area": None if curve is None else curve.area}


def result_to_csv(result: BenchmarkResult) -> str:
    """CSV with one row per pair, a column per PairRow field, followed by a
    summary block of the aggregates that summary.json holds.

    A row's missing value is left empty; a missing aggregate reads n/a. A
    field is quoted only when it holds a comma, a quote or a line break, as
    an error message or a pair id may.
    """
    import csv  # imported here: only the CSV writer needs it, not `import comic`

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f.name for f in fields(PairRow)])
    # the writer leaves None empty and writes a float as its repr
    writer.writerows(astuple(r) for r in result.rows)
    writer.writerow(["# summary"])
    writer.writerows([name, "n/a" if value is None else value]
                     for name, value in _aggregates(result).items())
    return out.getvalue()


def result_to_json(result: BenchmarkResult) -> str:
    """The run as JSON: metadata, aggregates, the decision-rate curve (one
    entry per scored pair, empty when every pair failed) and the rows."""
    curve = result.decision_rate
    payload = {
        "metadata": result.metadata,
        "aggregates": _aggregates(result),
        "decision_rate_curve": [] if curve is None else curve.entries,
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
