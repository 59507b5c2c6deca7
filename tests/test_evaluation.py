import csv
import io
import re
import signal
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from comic.codelength import TrainConfig
from comic.data import (
    GeneratorSpec,
    PairDataset,
    UNDECIDED,
    X_CAUSES_Y,
    Y_CAUSES_X,
    generate_dataset,
)
from comic.errors import ArgumentError
from comic.evaluation import (
    BenchmarkResult,
    PairRow,
    auroc,
    bi_auroc,
    decision_rate_curve,
    machine_info,
    result_to_csv,
    result_to_json,
    run_benchmark,
    weighted_accuracy,
)

FAST = TrainConfig(hidden_width=6, vi_epochs=40, warmup_epochs=8, map_epochs=40,
                   mc_eval_samples=4, seed=1)

# the messages of the metrics' checks on their input and weights
EMPTY = "the input is empty"
BAD_WEIGHTS = "weights must be finite and non-negative"


def auroc_bruteforce(scores, positives, weights):
    """O(P*N) pairwise oracle: P(pos > neg) with ties counted half."""
    total = 0.0
    norm = 0.0
    for sp, wp in zip(scores[positives], weights[positives]):
        for sn, wn in zip(scores[~positives], weights[~positives]):
            norm += wp * wn
            if sp > sn:
                total += wp * wn
            elif sp == sn:
                total += 0.5 * wp * wn
    return total / norm


# ------------------------------------------------------------------- auroc


def test_auroc_perfect_separation():
    assert auroc(np.array([0.9, 0.1]), np.array([True, False])) == 1.0


def test_auroc_pairwise_counting():
    value = auroc(np.array([0.8, 0.2, 0.5]), np.array([True, True, False]))
    assert value == approx(0.5)


def test_auroc_all_ties():
    assert auroc(np.ones(6), np.array([True, False] * 3)) == approx(0.5)


def test_auroc_single_class_rejected():
    with pytest.raises(ArgumentError):
        auroc(np.array([0.1, 0.2]), np.array([True, True]))


def test_auroc_zero_weight_class_rejected():
    with pytest.raises(ArgumentError):
        auroc(np.array([0.1, 0.2]), np.array([True, False]), np.array([1.0, 0.0]))


@pytest.mark.parametrize("scores,positives,weights", [
    ([0.1, 0.2, 0.3], [True, False], None),
    ([0.1, 0.2], [True, False, True], None),
    ([0.1, 0.2], [True, False], [1.0, 1.0, 1.0]),
], ids=["scores", "positives", "weights"])
def test_auroc_rejects_unequal_lengths(scores, positives, weights):
    with pytest.raises(ArgumentError, match="must have equal length"):
        auroc(scores, positives, weights)


@pytest.mark.parametrize("label", [X_CAUSES_Y, Y_CAUSES_X])
def test_bi_auroc_needs_both_directions(label):
    with pytest.raises(ArgumentError, match="needs both ground-truth directions"):
        bi_auroc(np.array([1.0, -2.0, 0.5]), [label] * 3)


def within_seconds(seconds, fn, *args):
    """fn(*args), or a failure once seconds have passed: a hang must not stall the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("metric", [auroc, bi_auroc])
def test_nan_score_rejected(metric):
    labels = [X_CAUSES_Y, Y_CAUSES_X] if metric is bi_auroc else np.array([True, False])
    with pytest.raises(ArgumentError, match="NaN"):
        within_seconds(10, metric, np.array([1.0, np.nan]), labels)


@pytest.mark.parametrize("weights", [
    [1.0, np.nan, 1.0], [1.0, np.inf, 1.0], [1.0, -0.5, 1.0], [0.0, 0.0, 0.0], [],
])
def test_auroc_rejects_bad_weights(weights):
    # the empty case passes no weights, so its message must not name them
    n = len(weights)
    with pytest.raises(ArgumentError, match=EMPTY if n == 0 else BAD_WEIGHTS):
        auroc(np.array([0.1, 0.2, 0.3])[:n], np.array([True, False, True])[:n],
              np.array(weights) if n else None)


instances = st.integers(min_value=2, max_value=200).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n),  # ints force ties
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n),
    )
)


@settings(max_examples=120, deadline=None)
@given(instances)
def test_auroc_matches_bruteforce(instance):
    raw_scores, raw_pos, raw_w = instance
    scores = np.asarray(raw_scores, dtype=float)
    positives = np.asarray(raw_pos)
    weights = np.asarray(raw_w)
    if positives.all() or not positives.any():
        positives[0] = ~positives[0]
    fast = auroc(scores, positives, weights)
    slow = auroc_bruteforce(scores, positives, weights)
    assert fast == approx(slow, abs=1e-12)


def auroc_tie_loop(scores, positives, weights):
    """The former O(n log n) loop over tied runs of the sorted scores."""
    order = np.argsort(scores, kind="stable")
    s, p, w = scores[order], positives[order], weights[order]
    total = cum_neg = 0.0
    i = 0
    while i < s.size:
        j = i
        while j < s.size and s[j] == s[i]:
            j += 1
        wp = w[i:j][p[i:j]].sum()
        wn = w[i:j][~p[i:j]].sum()
        total += wp * (cum_neg + 0.5 * wn)
        cum_neg += wn
        i = j
    return total / (weights[positives].sum() * weights[~positives].sum())


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 300), st.integers(0, 2**32 - 1), st.booleans())
def test_auroc_matches_the_tie_loop(n, seed, tied):
    # without ties every group sum is one term, so the arithmetic is the
    # loop's and the bits agree; the loop summed a tied group of 8 or more
    # pairwise and bincount sums it in order, so there they may part by ulps
    rng = np.random.default_rng(seed)
    scores = rng.integers(-4, 5, n).astype(float) if tied else rng.standard_normal(n)
    positives = rng.random(n) < 0.5
    positives[:2] = True, False
    weights = rng.uniform(0.1, 3.0, n)
    expected = auroc_tie_loop(scores, positives, weights)
    if tied:
        assert auroc(scores, positives, weights) == approx(expected, rel=0, abs=1e-15)
    else:
        assert auroc(scores, positives, weights) == expected


@settings(max_examples=60, deadline=None)
@given(instances)
def test_auroc_monotone_transform_invariant(instance):
    raw_scores, raw_pos, raw_w = instance
    scores = np.asarray(raw_scores, dtype=float)
    positives = np.asarray(raw_pos)
    weights = np.asarray(raw_w)
    if positives.all() or not positives.any():
        positives[0] = ~positives[0]
    base = auroc(scores, positives, weights)
    assert auroc(np.exp(scores), positives, weights) == base
    assert auroc(scores ** 3, positives, weights) == base


# ---------------------------------------------------------------- bi-auroc


def test_bi_auroc_perfectly_signed():
    deltas = np.array([2.0, 3.0, -1.0, -4.0])
    labels = [X_CAUSES_Y, X_CAUSES_Y, Y_CAUSES_X, Y_CAUSES_X]
    assert bi_auroc(deltas, labels) == 1.0


def test_bi_auroc_negation_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = rng.integers(4, 30)
        deltas = rng.standard_normal(n)  # continuous: ties have measure zero
        labels = np.where(rng.random(n) < 0.5, X_CAUSES_Y, Y_CAUSES_X)
        if len(set(labels)) < 2:
            continue
        weights = rng.uniform(0.5, 2.0, n)
        a = bi_auroc(deltas, labels, weights)
        b = bi_auroc(-deltas, labels, weights)
        assert a + b == approx(1.0, abs=1e-12)


def test_bi_auroc_symmetric_scores_equal_sides():
    # balanced labels, anti-symmetric scores: both one-sided AUROCs agree
    deltas = np.array([3.0, 1.0, -1.0, -3.0])
    labels = [X_CAUSES_Y, X_CAUSES_Y, Y_CAUSES_X, Y_CAUSES_X]
    forward = auroc(deltas, np.array([True, True, False, False]))
    backward = auroc(-deltas, np.array([False, False, True, True]))
    assert forward == backward
    assert bi_auroc(deltas, labels) == forward


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 300), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_bi_auroc_equals_the_one_sided_auroc(n, seed, tied, unit_weights):
    # every pair has one label and one score, so both sides count the same
    # pairs and bi_auroc is the one-sided AUROC
    rng = np.random.default_rng(seed)
    deltas = rng.integers(-4, 5, n).astype(float) if tied else rng.standard_normal(n)
    labels = np.where(rng.random(n) < 0.5, X_CAUSES_Y, Y_CAUSES_X)
    labels[:2] = X_CAUSES_Y, Y_CAUSES_X
    weights = None if unit_weights else rng.uniform(0.1, 3.0, n)
    one_sided = auroc(deltas, labels == X_CAUSES_Y, weights)
    assert bi_auroc(deltas, labels, weights) == one_sided


def test_bi_auroc_anti_signed_is_zero():
    deltas = np.array([-2.0, -1.5, 3.0, 0.5])
    labels = [X_CAUSES_Y, X_CAUSES_Y, Y_CAUSES_X, Y_CAUSES_X]
    assert bi_auroc(deltas, labels) == 0.0


def test_bi_auroc_single_class_rejected():
    with pytest.raises(ArgumentError):
        bi_auroc(np.array([1.0, 2.0]), [X_CAUSES_Y, X_CAUSES_Y])


@pytest.mark.parametrize("stray", [None, "undecided", "x_cause_y"])
def test_bi_auroc_names_a_label_that_is_neither_direction(stray):
    # a label that is neither direction must not count as a negative of both,
    # nor as a wrong decision in accuracy or in the decision-rate curve
    labels = [X_CAUSES_Y, Y_CAUSES_X, stray, "later"]
    deltas = np.array([1.0, -1.0, 2.0, 0.0])
    decisions = [X_CAUSES_Y, Y_CAUSES_X, X_CAUSES_Y, UNDECIDED]
    metrics = {
        "bi_auroc": lambda: bi_auroc(deltas, labels),
        "weighted_accuracy": lambda: weighted_accuracy(decisions, labels),
        "decision_rate_curve": lambda: decision_rate_curve(deltas, decisions, labels,
                                                           np.ones(4), ["a", "b", "c", "d"]),
    }
    for name, metric in metrics.items():
        with pytest.raises(ArgumentError, match=re.escape(f"unknown label {stray!r}")):
            metric()
            pytest.fail(f"{name} took the label {stray!r}")


@pytest.mark.parametrize("stray", [None, "x_cause_y", ""])
def test_accuracy_names_a_decision_that_is_neither_direction_nor_undecided(stray):
    # a misspelt decision must not count as a wrong one
    labels = [X_CAUSES_Y, Y_CAUSES_X, X_CAUSES_Y]
    decisions = [X_CAUSES_Y, UNDECIDED, stray]
    metrics = {
        "weighted_accuracy": lambda: weighted_accuracy(decisions, labels),
        "decision_rate_curve": lambda: decision_rate_curve(np.array([1.0, 0.0, 2.0]), decisions,
                                                           labels, np.ones(3), ["a", "b", "c"]),
    }
    for name, metric in metrics.items():
        with pytest.raises(ArgumentError, match=re.escape(f"unknown decision {stray!r}")):
            metric()
            pytest.fail(f"{name} took the decision {stray!r}")


# ---------------------------------------------------------------- accuracy


def test_weighted_accuracy_cases():
    assert weighted_accuracy([X_CAUSES_Y], [X_CAUSES_Y]) == 1.0
    assert weighted_accuracy(
        [X_CAUSES_Y, Y_CAUSES_X], [X_CAUSES_Y, X_CAUSES_Y], np.array([1.0, 1.0])
    ) == 0.5
    assert weighted_accuracy(
        [X_CAUSES_Y, Y_CAUSES_X], [X_CAUSES_Y, X_CAUSES_Y], np.array([2.0, 1.0])
    ) == approx(2.0 / 3.0)


def test_weighted_accuracy_undecided_never_matches():
    assert weighted_accuracy(["undecided"], [X_CAUSES_Y]) == 0.0


def test_weighted_accuracy_unit_weights_equal_unweighted():
    rng = np.random.default_rng(1)
    decisions = np.where(rng.random(50) < 0.5, X_CAUSES_Y, Y_CAUSES_X)
    labels = np.where(rng.random(50) < 0.5, X_CAUSES_Y, Y_CAUSES_X)
    assert weighted_accuracy(decisions, labels) == weighted_accuracy(
        decisions, labels, np.ones(50)
    )


def test_weighted_accuracy_length_mismatch():
    with pytest.raises(ArgumentError):
        weighted_accuracy([X_CAUSES_Y], [X_CAUSES_Y, Y_CAUSES_X])


@pytest.mark.parametrize("weights", [
    [0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0], [-1.0, 2.0], [],
])
def test_weighted_accuracy_rejects_bad_weights(weights):
    # all-zero weights once gave nan with a RuntimeWarning; a negative one
    # could push the result outside [0, 1]; the empty case passes no weights
    n = len(weights)
    with pytest.raises(ArgumentError, match=EMPTY if n == 0 else BAD_WEIGHTS):
        weighted_accuracy([X_CAUSES_Y, Y_CAUSES_X][:n], [X_CAUSES_Y, X_CAUSES_Y][:n],
                          np.array(weights) if n else None)


# ---------------------------------------------------------- decision rate


def entries(curve, key):
    return [entry[key] for entry in curve.entries]


def test_decision_rate_curve_hand_worked():
    # ranked by |delta|: a (right), b (wrong), d (right), then c, whose
    # delta of 0 is undecided and so wrong; weights 1, 2, 4, 1 of 8
    curve = decision_rate_curve([3.0, -2.0, 0.0, -1.0],
                                [X_CAUSES_Y, Y_CAUSES_X, UNDECIDED, Y_CAUSES_X],
                                [X_CAUSES_Y, X_CAUSES_Y, X_CAUSES_Y, Y_CAUSES_X],
                                np.array([1.0, 2.0, 1.0, 4.0]), ["a", "b", "c", "d"])
    assert entries(curve, "id") == ["a", "b", "d", "c"]
    assert entries(curve, "decision_rate") == [0.125, 0.375, 0.875, 1.0]
    assert entries(curve, "accuracy") == approx([1.0, 1.0 / 3.0, 5.0 / 7.0, 5.0 / 8.0])
    # 1/8 * 1 + 2/8 * 1/3 + 4/8 * 5/7 + 1/8 * 5/8
    assert curve.area == approx(865.0 / 1344.0)


def test_decision_rate_curve_breaks_ties_by_ascending_id():
    labels = [X_CAUSES_Y, X_CAUSES_Y, X_CAUSES_Y]
    curve = decision_rate_curve([-1.0, 1.0, 2.0], [Y_CAUSES_X, X_CAUSES_Y, X_CAUSES_Y], labels,
                                np.ones(3), ["p2", "p1", "p0"])
    assert entries(curve, "id") == ["p0", "p1", "p2"]
    assert entries(curve, "accuracy") == approx([1.0, 1.0, 2.0 / 3.0])
    reordered = decision_rate_curve([1.0, -1.0, 2.0], [X_CAUSES_Y, Y_CAUSES_X, X_CAUSES_Y],
                                    labels, np.ones(3), ["p1", "p2", "p0"])
    assert reordered == curve


def test_decision_rate_curve_zero_weight_prefix_has_no_accuracy():
    curve = decision_rate_curve([2.0, 1.0], [X_CAUSES_Y, X_CAUSES_Y], [X_CAUSES_Y, X_CAUSES_Y],
                                np.array([0.0, 1.0]), ["a", "b"])
    assert entries(curve, "decision_rate") == [0.0, 1.0]
    assert entries(curve, "accuracy") == [None, 1.0]
    assert curve.area == 1.0


def decisions_of(deltas):
    return np.where(deltas > 0, X_CAUSES_Y, np.where(deltas < 0, Y_CAUSES_X, UNDECIDED))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 2.0, 3.25]),
                          st.booleans(), st.sampled_from([0.5, 1.0, 3.0])),
                min_size=1, max_size=12))
def test_decision_rate_curve_is_unchanged_by_swapping_every_pair(pairs):
    deltas = np.array([delta for delta, _, _ in pairs])
    forward = np.array([first for _, first, _ in pairs])
    weights = np.array([weight for _, _, weight in pairs])
    ids = [f"{i:04d}" for i in range(len(pairs))]
    labels = np.where(forward, X_CAUSES_Y, Y_CAUSES_X)
    mirrored = np.where(forward, Y_CAUSES_X, X_CAUSES_Y)
    assert decision_rate_curve(deltas, decisions_of(deltas), labels, weights, ids) == (
        decision_rate_curve(-deltas, decisions_of(-deltas), mirrored, weights, ids))


@pytest.mark.parametrize("weights", [
    [0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0], [-1.0, 2.0], [],
])
def test_decision_rate_curve_rejects_bad_weights(weights):
    n = len(weights)
    with pytest.raises(ArgumentError, match=EMPTY if n == 0 else BAD_WEIGHTS):
        decision_rate_curve([1.0, -1.0][:n], [X_CAUSES_Y, Y_CAUSES_X][:n],
                            [X_CAUSES_Y, X_CAUSES_Y][:n], np.array(weights), ["a", "b"][:n])


def test_decision_rate_curve_rejects_unequal_lengths_and_nan():
    with pytest.raises(ArgumentError, match="equal length"):
        decision_rate_curve([1.0, -1.0], [X_CAUSES_Y, Y_CAUSES_X], [X_CAUSES_Y, X_CAUSES_Y],
                            np.ones(2), ["a"])
    with pytest.raises(ArgumentError, match="NaN"):
        decision_rate_curve([np.nan], [UNDECIDED], [X_CAUSES_Y], np.ones(1), ["a"])


# ---------------------------------------------------------------- benchmark


def small_pairs(n_pairs=4, n=40, seed=2):
    return generate_dataset(GeneratorSpec("AN-s", n_pairs, n, seed=seed))


def test_run_benchmark_aggregates():
    result = run_benchmark(small_pairs(), FAST)
    assert len(result.rows) == 4
    assert result.n_failed == 0
    assert 0.0 <= result.accuracy <= 1.0
    assert 0.0 <= result.weighted_accuracy <= 1.0
    assert result.bi_auroc is None or 0.0 <= result.bi_auroc <= 1.0
    assert result.metadata["bi_auroc_uses_weights"] is True


def test_machine_info_names_numpy_its_dispatch_targets_and_blas_core():
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__
    info = machine_info()
    assert set(info) == {"numpy_version", "dispatch_targets", "blas_core"}
    assert info["numpy_version"] == np.__version__
    assert isinstance(info["dispatch_targets"], list)
    assert set(info["dispatch_targets"]) <= set(__cpu_dispatch__)
    assert info["blas_core"] is None or (isinstance(info["blas_core"], str) and info["blas_core"])


def test_machine_info_core_is_none_without_the_openblas_symbol(monkeypatch):
    import ctypes
    from types import SimpleNamespace

    monkeypatch.setattr(ctypes, "CDLL", lambda path: SimpleNamespace())
    assert machine_info()["blas_core"] is None


def test_run_benchmark_metadata_names_the_machine():
    assert run_benchmark(small_pairs(1), FAST).metadata["machine"] == machine_info()


def test_run_benchmark_rejects_an_empty_pair_list():
    with pytest.raises(ArgumentError, match="non-empty pair list"):
        run_benchmark([], FAST)


def test_run_benchmark_single_pair_no_bi_auroc():
    result = run_benchmark(small_pairs()[:1], FAST)
    assert result.bi_auroc is None
    assert len(result.rows) == 1


def test_run_benchmark_requires_labels():
    pair = PairDataset(np.arange(4.0), np.arange(4.0) + 1)
    with pytest.raises(ArgumentError):
        run_benchmark([pair], FAST)


@pytest.mark.parametrize("parallelism", ["2", 1.5, None])
def test_run_benchmark_rejects_non_integer_parallelism(parallelism):
    with pytest.raises(ArgumentError, match="parallelism must be an integer"):
        run_benchmark(small_pairs(1), FAST, parallelism=parallelism)


def test_run_benchmark_reports_no_accuracy_when_every_pair_fails():
    # an accuracy of 0 over no decisions used to be reported
    broken = [PairDataset(np.full(20, 1.0), np.arange(20.0), label=X_CAUSES_Y, id=f"flat{i}")
              for i in range(2)]
    result = run_benchmark(broken, FAST)
    assert result.n_failed == 2
    assert (result.accuracy, result.weighted_accuracy, result.bi_auroc) == (None, None, None)
    assert result.decision_rate is None
    summary = result_to_csv(result).split("# summary\n")[1].splitlines()
    assert summary[:3] == ["accuracy,n/a", "weighted_accuracy,n/a", "bi_auroc,n/a"]


def test_run_benchmark_ranks_the_scored_pairs_by_confidence():
    pairs = small_pairs(3, 30)
    broken = PairDataset(np.full(20, 1.0), np.arange(20.0), label=X_CAUSES_Y, id="flat")
    result = run_benchmark(pairs + [broken], FAST)
    ok = [r for r in result.rows if r.error is None]
    expected = decision_rate_curve([r.final_delta for r in ok], [r.decision for r in ok],
                                   [r.label for r in ok], np.array([r.weight for r in ok]),
                                   [r.id for r in ok])
    assert result.decision_rate == expected
    assert sorted(entries(result.decision_rate, "id")) == sorted(p.id for p in pairs)


def test_run_benchmark_records_failures_without_aborting():
    pairs = small_pairs(2)
    broken = PairDataset(np.full(20, 1.0), np.arange(20.0), label=X_CAUSES_Y, id="flat")
    result = run_benchmark(pairs + [broken], FAST)
    assert result.n_failed == 1
    failed = [r for r in result.rows if r.error is not None]
    assert failed[0].id == "flat"
    assert "degenerate" in failed[0].error
    assert len(result.rows) == 3


def test_parallelism_does_not_change_metrics():
    pairs = small_pairs(4, 30)
    serial = run_benchmark(pairs, FAST, parallelism=1)
    parallel = run_benchmark(pairs, FAST, parallelism=2)
    assert serial.accuracy == parallel.accuracy
    assert serial.weighted_accuracy == parallel.weighted_accuracy
    assert serial.bi_auroc == parallel.bi_auroc
    for a, b in zip(serial.rows, parallel.rows):
        assert a.id == b.id
        assert a.final_delta == b.final_delta


def test_run_benchmark_starts_no_more_workers_than_pairs(monkeypatch):
    import concurrent.futures

    started = []
    cancelling = []

    class SerialExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, cancel_futures=False):
            cancelling.append(cancel_futures)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialExecutor)
    pairs = small_pairs(2, 30)
    serial = run_benchmark(pairs, FAST, parallelism=1)
    assert [r.final_delta for r in run_benchmark(pairs, FAST, parallelism=8).rows] \
        == [r.final_delta for r in serial.rows]
    run_benchmark(pairs[:1], FAST, parallelism=8)
    assert started == [2]
    assert cancelling == [True]


def test_run_benchmark_submits_the_longest_pairs_first(monkeypatch):
    # rows stay in input order, bit-equal to a serial run, while the pool
    # gets the longest pairs first and equal lengths in input order
    import concurrent.futures

    submitted = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            pass

        def submit(self, fn, pair, cfg):
            submitted.append(pair.id)
            future = concurrent.futures.Future()
            future.set_result(fn(pair, cfg))
            return future

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    pairs = [generate_dataset(GeneratorSpec("AN-s", 1, n, seed=i))[0]
             for i, n in enumerate((50, 200, 100, 200))]
    pairs = [PairDataset(p.x, p.y, p.weight, p.label, id=f"n{p.x.size}-{i}")
             for i, p in enumerate(pairs)]
    serial = run_benchmark(pairs, FAST, parallelism=1)
    pooled = run_benchmark(pairs, FAST, parallelism=2)
    assert submitted == ["n200-1", "n200-3", "n100-2", "n50-0"]
    assert [r.id for r in pooled.rows] == [p.id for p in pairs]
    assert ([repr(r.final_delta) for r in pooled.rows]
            == [repr(r.final_delta) for r in serial.rows])


def strip_runtime(csv_text):
    kept = []
    for line in csv_text.splitlines():
        cells = line.split(",")
        if len(cells) == 7:
            del cells[5]
        kept.append(",".join(cells))
    return "\n".join(kept)


def test_csv_deterministic_apart_from_runtime():
    pairs = small_pairs(2, 30)
    a = result_to_csv(run_benchmark(pairs, FAST))
    b = result_to_csv(run_benchmark(pairs, FAST))
    assert strip_runtime(a) == strip_runtime(b)
    assert a.splitlines()[0].startswith("id,final_delta,decision,label")
    assert "# summary" in a


def test_numpy_weight_prints_as_a_number_in_csv():
    pair = small_pairs(1, 30)[0]
    pair = PairDataset(pair.x, pair.y, np.float64(2.0), pair.label, pair.id)
    row = result_to_csv(run_benchmark([pair], FAST)).splitlines()[1]
    assert row.split(",")[4] == "2.0"


def test_csv_quotes_fields_that_hold_a_comma():
    error = "NumericError: non-finite loss in direction 0, VI phase at epoch 5"
    rows = [PairRow("AN-0001", 1.5, X_CAUSES_Y, X_CAUSES_Y, 1.0, 0.25),
            PairRow('pair,"02"', None, None, Y_CAUSES_X, 2.0, 0.5, error=error)]
    text = result_to_csv(BenchmarkResult(rows, 1.0, 1.0, None, 1, {}))
    table = text.split("# summary\n")[0]
    read = list(csv.reader(io.StringIO(table)))
    assert [len(r) for r in read] == [7, 7, 7]
    assert read[2] == ['pair,"02"', "", "", Y_CAUSES_X, "2.0", "0.5", error]
    # a row with nothing to quote keeps the unquoted bytes
    assert table.splitlines()[1] == "AN-0001,1.5,x_causes_y,x_causes_y,1.0,0.25,"


def test_json_mirror_has_same_aggregates():
    import json

    result = run_benchmark(small_pairs(2, 30), FAST)
    payload = json.loads(result_to_json(result))
    assert payload["aggregates"]["accuracy"] == result.accuracy
    assert payload["aggregates"]["n_failed"] == result.n_failed
    assert len(payload["pairs"]) == len(result.rows)
    curve = result.decision_rate
    assert payload["aggregates"]["decision_rate_area"] == curve.area
    assert payload["decision_rate_curve"] == curve.entries
    # the CSV's columns are PairRow's fields, and its summary block lists the JSON's aggregates
    lines = result_to_csv(result).splitlines()
    assert lines[0].split(",") == [f.name for f in fields(PairRow)]
    block = lines[lines.index("# summary") + 1:]
    assert sorted(line.split(",")[0] for line in block) == sorted(payload["aggregates"])
