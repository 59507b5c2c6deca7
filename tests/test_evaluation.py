import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from comic.codelength import TrainConfig
from comic.data import GeneratorSpec, PairDataset, X_CAUSES_Y, Y_CAUSES_X, generate_dataset
from comic.errors import ArgumentError
from comic.evaluation import (
    auroc,
    bi_auroc,
    result_to_csv,
    result_to_json,
    run_benchmark,
    weighted_accuracy,
)

FAST = TrainConfig(hidden_width=6, vi_epochs=40, warmup_epochs=8, map_epochs=40,
                   mc_eval_samples=4, seed=1)


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
    [1.0, np.nan, 1.0], [1.0, np.inf, 1.0], [1.0, -0.5, 1.0], [0.0, 0.0, 0.0],
])
def test_auroc_rejects_bad_weights(weights):
    with pytest.raises(ArgumentError, match="weights must be finite and non-negative"):
        auroc(np.array([0.1, 0.2, 0.3]), np.array([True, False, True]), np.array(weights))


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


def test_bi_auroc_anti_signed_is_zero():
    deltas = np.array([-2.0, -1.5, 3.0, 0.5])
    labels = [X_CAUSES_Y, X_CAUSES_Y, Y_CAUSES_X, Y_CAUSES_X]
    assert bi_auroc(deltas, labels) == 0.0


def test_bi_auroc_single_class_rejected():
    with pytest.raises(ArgumentError):
        bi_auroc(np.array([1.0, 2.0]), [X_CAUSES_Y, X_CAUSES_Y])


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
    [0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0], [-1.0, 2.0],
])
def test_weighted_accuracy_rejects_bad_weights(weights):
    # all-zero weights once gave nan with a RuntimeWarning; a negative one
    # could push the result outside [0, 1]
    with pytest.raises(ArgumentError, match="weights must be finite and non-negative"):
        weighted_accuracy([X_CAUSES_Y, Y_CAUSES_X], [X_CAUSES_Y, X_CAUSES_Y], np.array(weights))


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

    class SerialExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, job):
            future = concurrent.futures.Future()
            future.set_result(fn(job))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialExecutor)
    pairs = small_pairs(2, 30)
    serial = run_benchmark(pairs, FAST, parallelism=1)
    assert [r.final_delta for r in run_benchmark(pairs, FAST, parallelism=8).rows] \
        == [r.final_delta for r in serial.rows]
    run_benchmark(pairs[:1], FAST, parallelism=8)
    assert started == [2]


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


def test_json_mirror_has_same_aggregates():
    import json

    result = run_benchmark(small_pairs(2, 30), FAST)
    payload = json.loads(result_to_json(result))
    assert payload["aggregates"]["accuracy"] == result.accuracy
    assert payload["aggregates"]["n_failed"] == result.n_failed
    assert len(payload["pairs"]) == len(result.rows)
