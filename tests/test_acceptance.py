"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The synthetic-family
criterion trains 200 models and dominates the runtime (minutes, not hours);
the real-world corpus criterion downloads data and trains at full scale, so
it only runs when COMIC_RUN_TUEBINGEN=1 is exported. Criterion 10 scores 11
pairs at the shipped defaults, under a minute on two cores. Criteria 1 and
10 carry the `slow` marker, so `pytest -m "not slow"` leaves them out.
"""

import math
import os

import numpy as np
import pytest

from comic.bnn import ConditionalModel, Workspace, elbo_objective, kl_model, map_objective
from comic.codelength import TrainConfig, conditional_variational_codelength, score_pair
from comic.data import (
    GeneratorSpec,
    X_CAUSES_Y,
    Y_CAUSES_X,
    generate_dataset,
    generate_pair,
    swap_pair,
)
from comic.evaluation import auroc, result_to_csv, run_benchmark
from comic.optim import adam_step
from comic.rng import RngStream, draw_standard_normal
from gradcheck import finite_diff_grad
from test_bnn import layer_pass

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

DESK_CFG = TrainConfig(hidden_width=50, vi_epochs=1000, warmup_epochs=100,
                       map_epochs=1000, mc_eval_samples=64, seed=0)
FAST_CFG = TrainConfig(hidden_width=6, vi_epochs=40, warmup_epochs=8,
                       map_epochs=40, mc_eval_samples=4, seed=5)

WORKERS = min(2, os.cpu_count() or 1)


def report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


# ---------------------------------------------------------------- criterion 1


@pytest.mark.slow
@pytest.mark.parametrize("family", ["AN", "AN-s", "LS", "LS-s", "MN-U"])
def test_criterion_1_synthetic_family_accuracy(family):
    pairs = generate_dataset(GeneratorSpec(family, 20, 500, seed=11))
    result = run_benchmark(pairs, DESK_CFG, parallelism=WORKERS)
    assert result.n_failed == 0
    assert result.accuracy >= 0.95
    assert result.bi_auroc is not None and result.bi_auroc >= 0.97
    report(1, f"{family}: accuracy={result.accuracy:.2f} "
              f"bi_auroc={result.bi_auroc:.2f} (>= 0.95 / 0.97)")


# ---------------------------------------------------------------- criterion 2


@pytest.mark.skipif(
    os.environ.get("COMIC_RUN_TUEBINGEN") != "1",
    reason="network-gated full-scale run; export COMIC_RUN_TUEBINGEN=1 to enable",
)
def test_criterion_2_tuebingen_reproduction(tmp_path):
    from comic.data import fetch_tuebingen, load_tuebingen

    corpus = tmp_path / "tuebingen"
    fetch_tuebingen(out_dir=corpus)
    pairs = load_tuebingen(corpus)
    assert len(pairs) == 99
    cfg = TrainConfig(seed=0)  # full-scale defaults
    result = run_benchmark(pairs, cfg, parallelism=WORKERS)
    assert abs(result.weighted_accuracy - 0.67) <= 0.07
    assert result.bi_auroc is not None and abs(result.bi_auroc - 0.75) <= 0.08
    report(2, f"weighted_accuracy={result.weighted_accuracy:.3f} (0.67 +- 0.07), "
              f"bi_auroc={result.bi_auroc:.3f} (0.75 +- 0.08)")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_gradient_exactness():
    rng = np.random.default_rng(303)
    widths = [1, 2, 3, 5]
    sizes = [2, 4, 8]
    worst = 0.0
    for trial in range(50):
        width = widths[trial % len(widths)]
        n = sizes[trial % len(sizes)]
        model = ConditionalModel.initial(width, RngStream(trial).child("init"))
        vec = model.params + 0.3 * rng.standard_normal(model.params.size)
        model = ConditionalModel(vec, width)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        stream = RngStream(trial).child("fixed-noise")
        beta = rng.uniform(0.1, 1.0)

        for objective in (lambda ws: elbo_objective(ws, beta, stream), map_objective):
            ws = Workspace(model, x, y, grad=True)
            objective(ws)
            analytic = ws.grad.params
            fd = finite_diff_grad(
                lambda v: objective(Workspace(ConditionalModel(v, width), x, y, grad=True)),
                model.params.copy(), h=1e-5)
            mask = np.abs(fd) > 1e-6
            if mask.any():
                rel = np.abs(analytic - fd)[mask] / np.abs(fd)[mask]
                worst = max(worst, rel.max())
    assert worst <= 1e-4
    report(3, f"50 models, both objectives: worst relative gradient error {worst:.2e}")


# ---------------------------------------------------------------- criterion 4


def kl_oracle(model):
    """Independent per-parameter summation of the Gaussian-Gaussian KL."""
    total = 0.0
    for layer in (model.hidden, model.output):
        a, b = layer.mean_w.shape
        for i in range(a):
            for j in range(b):
                mu = layer.mean_w[i, j]
                sq = math.exp(layer.logvar_w[i, j])
                z = math.exp(layer.log_prior_scale_w[i, j])
                total += math.log(z / math.sqrt(sq)) + (sq + mu * mu) / (2 * z * z) - 0.5
        for j in range(b):
            mu = layer.mean_b[j]
            sq = math.exp(layer.logvar_b[j])
            total += math.log(1.0 / math.sqrt(sq)) + (sq + mu * mu) / 2.0 - 0.5
    return total


def test_criterion_4_kl_oracle():
    from test_bnn import random_model, single_weight_kl

    worst = 0.0
    for seed in range(30):
        model = random_model(3 + seed % 3, seed, seed + 50)
        worst = max(worst, abs(kl_model(model) - kl_oracle(model)))
    assert worst <= 1e-12

    prior_match = ConditionalModel.initial(3, RngStream(0).child("i"))
    prior_match = ConditionalModel(np.zeros_like(prior_match.params), 3)  # mu=0, var=1, z=1
    assert kl_model(prior_match) == pytest.approx(0.0, abs=1e-12)
    assert single_weight_kl(1.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert single_weight_kl(0.0, 0.25) == pytest.approx(0.318147, abs=1e-6)
    report(4, f"closed-form KL matches elementwise oracle to {worst:.1e}; "
              "worked values 0 / 0.5 / 0.318147 reproduced")


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_local_reparam_equivalence():
    rng = np.random.default_rng(505)
    n_draws = 100_000
    for trial in range(20):
        a = int(rng.integers(1, 4))
        b = int(rng.integers(1, 4))
        from comic.bnn import VariationalLinearLayer

        layer = VariationalLinearLayer(
            mean_w=rng.standard_normal((a, b)),
            logvar_w=rng.uniform(-4, -1, (a, b)),
            mean_b=rng.standard_normal(b),
            logvar_b=rng.uniform(-4, -1, b),
            log_prior_scale_w=np.zeros((a, b)),
        )
        row = rng.standard_normal(a)
        m_out = row @ layer.mean_w + layer.mean_b
        v_out = (row * row) @ np.exp(layer.logvar_w) + np.exp(layer.logvar_b)

        eps = draw_standard_normal(RngStream(trial).child("lr"), np.empty((n_draws, b)))
        local = layer_pass(layer, np.tile(row, (n_draws, 1)), eps)

        gen = RngStream(trial).child("ws").generator()
        w = layer.mean_w + np.sqrt(np.exp(layer.logvar_w)) * gen.standard_normal((n_draws, a, b))
        bias = layer.mean_b + np.sqrt(np.exp(layer.logvar_b)) * gen.standard_normal((n_draws, b))
        weight_space = np.einsum("a,nab->nb", row, w) + bias

        bound = 5.0 * np.sqrt(v_out / n_draws)
        for sample in (local, weight_space):
            assert np.all(np.abs(sample.mean(axis=0) - m_out) <= bound)
            assert sample.var(axis=0) == pytest.approx(v_out, rel=0.05)
    report(5, "pre-activation sampling matches weight-space sampling moments "
              "on 20 random layers at 1e5 draws")


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_swap_antisymmetry():
    families = ["AN", "AN-s", "LS", "LS-s", "MN-U"]
    checked = 0
    for k in range(10):
        spec = GeneratorSpec(families[k % 5], 10, 50, seed=600 + k)
        pair = generate_pair(spec, k)
        forward = score_pair(pair, FAST_CFG)
        mirrored = score_pair(swap_pair(pair), FAST_CFG)
        assert mirrored.final_delta == -forward.final_delta
        assert mirrored.delta_xy == forward.delta_yx
        assert mirrored.delta_yx == forward.delta_xy
        expected = {X_CAUSES_Y: Y_CAUSES_X, Y_CAUSES_X: X_CAUSES_Y,
                    "undecided": "undecided"}[forward.decision]
        assert mirrored.decision == expected
        checked += 1
    assert checked == 10
    report(6, "score of the swapped pair is the bit-exact negation on 10 pairs")


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_auroc_oracle_equivalence():
    from test_evaluation import auroc_bruteforce

    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 200))
        scores = rng.integers(-6, 6, n).astype(float)  # integer scores force ties
        positives = rng.random(n) < 0.5
        if positives.all() or not positives.any():
            positives[0] = ~positives[0]
        weights = rng.uniform(0.1, 5.0, n)
        fast = auroc(scores, positives, weights)
        slow = auroc_bruteforce(scores, positives, weights)
        worst = max(worst, abs(fast - slow))
        assert auroc(np.exp(scores), positives, weights) == fast
        assert auroc(scores ** 3, positives, weights) == fast
    assert worst <= 1e-12
    report(7, f"rank-based AUROC vs pairwise oracle: max abs diff {worst:.1e}; "
              "monotone-transform invariance exact")


# ---------------------------------------------------------------- criterion 8


class ScaleToyModel:
    """One random weight driving the log-scale: sigma(x) = exp(w x), mu = 0."""

    def __init__(self, mean, logvar):
        self.mean = mean
        self.logvar = logvar

    def sampler(self, x, y):
        def sample(stream, sign):
            # one standard normal per sample drives the weight: the first of
            # the stream's hidden noise times sign, as the network would read it
            eps = sign * draw_standard_normal(stream.child("hidden"), np.empty((1, 1)))[0, 0]
            w = self.mean + math.exp(0.5 * self.logvar) * eps
            # toy_nll's sum at the clamped log-scale t, per direction
            t = np.clip(w * x, -15.0, 15.0)
            return np.sum(HALF_LOG_2PI + t + 0.5 * y * y * np.exp(-2.0 * t), axis=-1)

        return sample

    def kl(self):
        s2 = math.exp(self.logvar)
        return -0.5 * self.logvar + 0.5 * (s2 + self.mean ** 2) - 0.5


def toy_data():
    x = 2.2 * RngStream(3).child("toy-x").generator().standard_normal(5)
    noise = RngStream(3).child("toy-noise").generator().standard_normal(5)
    y = np.exp(1.0 * x) * noise
    return x, y


def toy_nll(w, x, y):
    return float(np.sum(HALF_LOG_2PI + w * x + 0.5 * y * y * np.exp(-2.0 * w * x)))


def toy_evidence_quadrature(x, y):
    """-log integral of likelihood times N(0,1) prior, by Simpson's rule."""
    grid = np.linspace(-16.0, 16.0, 64001)
    log_f = np.array([-toy_nll(w, x, y) for w in grid]) - 0.5 * grid * grid - HALF_LOG_2PI
    shift = log_f.max()
    values = np.exp(log_f - shift)
    h = grid[1] - grid[0]
    integral = (h / 3.0) * (values[0] + values[-1]
                            + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-2:2].sum())
    return -(shift + math.log(integral))


def train_toy(x, y, steps=4000):
    """Minimize the closed-form variational objective over (mean, logvar)."""

    def loss_and_grads(params):
        mu, lv = params
        s2 = math.exp(lv)
        boost = np.exp(-2.0 * mu * x + 2.0 * x * x * s2)  # E[exp(-2wx)] under q
        data = float(np.sum(HALF_LOG_2PI + mu * x + 0.5 * y * y * boost))
        kl = -0.5 * lv + 0.5 * (s2 + mu * mu) - 0.5
        d_mu = float(np.sum(x - y * y * x * boost)) + mu
        d_lv = float(np.sum(y * y * x * x * boost)) * s2 + (-0.5 + 0.5 * s2)
        return data + kl, np.array([d_mu, d_lv])

    params = np.array([0.0, math.log(0.09)])
    m, v = np.zeros(2), np.zeros(2)
    for t in range(steps):
        _, grads = loss_and_grads(params)
        lr = 1e-6 + 0.5 * (0.05 - 1e-6) * (1.0 + math.cos(math.pi * t / steps))
        adam_step(params, grads, m, v, t + 1, lr)
    return params


def test_criterion_8_evidence_bound():
    x, y = toy_data()
    evidence = toy_evidence_quadrature(x, y)

    untrained = ScaleToyModel(0.0, math.log(0.09))
    [before] = conditional_variational_codelength(
        untrained, x[None], y[None], 4096, RngStream(8).child("before"))

    mu, lv = train_toy(x, y)
    trained = ScaleToyModel(mu, lv)
    [after] = conditional_variational_codelength(
        trained, x[None], y[None], 65536, RngStream(8).child("after"))

    assert after >= evidence
    assert after <= 1.05 * evidence
    assert after - evidence < before - evidence  # the gap shrank under training
    report(8, f"trained variational codelength {after:.3f} vs evidence {evidence:.3f}: "
              f"above by {after - evidence:.3f} nats ({100 * (after / evidence - 1):.2f}% <= 5%)")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_determinism_and_parallelism():
    pairs = generate_dataset(GeneratorSpec("LS-s", 4, 40, seed=900))

    runs = {}
    for par in (1, 8):
        runs[par] = run_benchmark(pairs, FAST_CFG, parallelism=par)
    first, second = runs.values()
    assert first.accuracy == second.accuracy
    assert first.weighted_accuracy == second.weighted_accuracy
    assert first.bi_auroc == second.bi_auroc
    assert [r.final_delta for r in first.rows] == [r.final_delta for r in second.rows]

    from test_evaluation import strip_runtime

    repeat = run_benchmark(pairs, FAST_CFG, parallelism=1)
    assert strip_runtime(result_to_csv(first)) == strip_runtime(result_to_csv(repeat))
    report(9, "metrics identical across parallelism degrees; repeated runs "
              "byte-identical apart from runtimes")


# --------------------------------------------------------------- criterion 10


@pytest.mark.slow
def test_criterion_10_shipped_defaults():
    # the only offline run at TrainConfig()'s 2500 + 2500 epochs: two
    # criterion-1 pairs per family, and the first one swapped
    pairs = [generate_pair(GeneratorSpec(family, 20, 500, seed=11), i)
             for family in ("AN", "AN-s", "LS", "LS-s", "MN-U") for i in range(2)]
    result = run_benchmark([*pairs, swap_pair(pairs[0])], TrainConfig(seed=0),
                           parallelism=WORKERS)
    assert result.n_failed == 0
    assert [r.decision for r in result.rows] == [r.label for r in result.rows]
    assert result.rows[-1].final_delta == -result.rows[0].final_delta
    smallest = min(abs(r.final_delta) for r in result.rows)
    report(10, f"defaults: {len(pairs)} pairs decided right (smallest |delta| "
               f"{smallest:.2f}); the swapped first pair is its bit-exact negation")


# -------------------------------------------------- supporting determinism


def test_rng_streams_replay_bit_exact():
    stream = RngStream(123).child("replayable")
    assert np.array_equal(draw_standard_normal(stream, np.empty((16, 16))),
                          draw_standard_normal(stream, np.empty((16, 16))))
