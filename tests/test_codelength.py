import dataclasses
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pytest import approx

from comic import bnn, codelength
from comic.bnn import ConditionalModel, gaussian_nll
from comic.codelength import (
    TrainConfig,
    conditional_variational_codelength,
    marginal_gaussian_codelength,
    score_pair,
    train_conditional,
)
from comic.data import (
    GeneratorSpec, PairDataset, UNDECIDED, X_CAUSES_Y, Y_CAUSES_X, generate_dataset,
    generate_pair, standardize, swap_pair,
)
from comic.errors import ArgumentError, NumericError
from comic.evaluation import run_benchmark
from comic.rng import RngStream
from test_bnn import edge_problem, make_layer, oracle_sample_nll, packed, stack

FAST = TrainConfig(hidden_width=8, vi_epochs=60, warmup_epochs=10, map_epochs=60,
                   mc_eval_samples=8, seed=3)


def sampled_nlls(model, x, y, stream, count):
    """count single-sample NLLs of y given x under a one-direction stack, the
    i-th on the noise of stream.child("probe", i)."""
    sample = model.sampler(x[None], y[None])
    return np.array([sample(stream.child("probe", i))[0] for i in range(count)])


def test_marginal_worked_values():
    assert marginal_gaussian_codelength(np.array([0.0])) == approx(0.918939, abs=1e-6)
    assert marginal_gaussian_codelength(np.zeros(2)) == approx(1.837877, abs=1e-6)
    assert marginal_gaussian_codelength(np.array([1.0, -1.0])) == approx(2.837877, abs=1e-6)


def test_train_config_validation():
    with pytest.raises(ArgumentError):
        TrainConfig(vi_epochs=10, warmup_epochs=20)
    with pytest.raises(ArgumentError):
        TrainConfig(hidden_width=0)


@pytest.mark.parametrize("seed", [-2**63 - 1, 2**63, 2**70])
def test_seed_outside_64_bits_rejected(seed):
    with pytest.raises(ArgumentError, match="seed"):
        TrainConfig(seed=seed)
    with pytest.raises(ArgumentError, match="seed"):
        GeneratorSpec("AN", 1, 10, seed=seed)


def test_seed_at_64_bit_edges_accepted():
    for seed in (-2**63, 2**63 - 1):
        TrainConfig(seed=seed)
        assert generate_pair(GeneratorSpec("AN", 1, 10, seed=seed), 0).x.size == 10


@pytest.mark.parametrize("seed", [1.5, 5.0, np.float64(2.0), "5", None, False, np.True_])
def test_non_integer_seed_rejected(seed):
    with pytest.raises(ArgumentError, match="seed must be an integer"):
        TrainConfig(seed=seed)
    with pytest.raises(ArgumentError, match="seed must be an integer"):
        GeneratorSpec("AN", 1, 10, seed=seed)


def test_numpy_integer_seed_stored_as_int():
    spec = GeneratorSpec("AN", 1, 10, seed=np.int64(5))
    assert type(spec.seed) is int
    assert type(TrainConfig(seed=np.int64(5)).seed) is int
    pair = generate_pair(spec, 0)
    reference = generate_pair(GeneratorSpec("AN", 1, 10, seed=5), 0)
    assert np.array_equal(pair.x, reference.x) and np.array_equal(pair.y, reference.y)


@pytest.mark.parametrize("field,kwargs", [
    ("vi_epochs", {"vi_epochs": 2.5, "warmup_epochs": 1}),
    ("hidden_width", {"hidden_width": 2.0}),
    ("mc_eval_samples", {"mc_eval_samples": 1.5}),
    ("hidden_width", {"hidden_width": "5"}),
    ("map_epochs", {"map_epochs": None}),
    ("warmup_epochs", {"warmup_epochs": np.float64(3.0)}),
    ("map_epochs", {"map_epochs": True}),
    ("hidden_width", {"hidden_width": np.True_}),
])
def test_train_config_rejects_non_integer_counts(field, kwargs):
    with pytest.raises(ArgumentError, match=f"{field} must be an integer"):
        TrainConfig(**kwargs)


@pytest.mark.parametrize("field,args", [
    ("n_samples", ("AN", 1, 10.5)),
    ("n_pairs", ("AN", 2.5, 10)),
    ("n_pairs", ("AN", "3", 10)),
    ("n_pairs", ("AN", True, 10)),
])
def test_generator_spec_rejects_non_integer_counts(field, args):
    with pytest.raises(ArgumentError, match=f"{field} must be an integer"):
        GeneratorSpec(*args)


def test_numpy_integer_counts_stored_as_int():
    counts = ("hidden_width", "vi_epochs", "warmup_epochs", "map_epochs", "mc_eval_samples")
    cfg = TrainConfig(**{name: np.int64(5) for name in counts})
    assert all(type(getattr(cfg, name)) is int for name in counts)
    assert cfg == TrainConfig(**{name: 5 for name in counts})
    spec = GeneratorSpec("AN", np.int64(2), np.int32(10))
    assert type(spec.n_pairs) is int and type(spec.n_samples) is int
    assert spec == GeneratorSpec("AN", 2, 10)


TINY = TrainConfig(hidden_width=2, vi_epochs=2, warmup_epochs=1, map_epochs=2,
                   mc_eval_samples=1, seed=0)
TINY_X = np.linspace(-1.0, 1.0, 5)


def evaluate_tiny(mc_eval_samples):
    x, y = TINY_X[None], TINY_X[None] ** 3
    model = train_conditional(x, y, TINY, RngStream(0))
    return conditional_variational_codelength(model, x, y, mc_eval_samples, RngStream(1))


# every count that errors.check_count guards: its name, its least value and
# a call that passes the value on
COUNT_BOUNDS = [
    pytest.param("hidden_width", 2, lambda v: TrainConfig(hidden_width=v), id="hidden_width"),
    pytest.param("vi_epochs", 1, lambda v: TrainConfig(vi_epochs=v, warmup_epochs=1),
                 id="vi_epochs"),
    pytest.param("warmup_epochs", 1, lambda v: TrainConfig(warmup_epochs=v), id="warmup_epochs"),
    pytest.param("map_epochs", 1, lambda v: TrainConfig(map_epochs=v), id="map_epochs"),
    pytest.param("mc_eval_samples", 1, lambda v: TrainConfig(mc_eval_samples=v),
                 id="TrainConfig.mc_eval_samples"),
    pytest.param("mc_eval_samples", 1, evaluate_tiny,
                 id="conditional_variational_codelength.mc_eval_samples"),
    pytest.param("n_pairs", 1, lambda v: GeneratorSpec("AN", v, 10), id="n_pairs"),
    pytest.param("n_samples", 2, lambda v: GeneratorSpec("AN", 1, v), id="n_samples"),
    pytest.param("parallelism", 1, lambda v: run_benchmark(
        [PairDataset(TINY_X, TINY_X ** 3, label=X_CAUSES_Y)], TINY, parallelism=v),
        id="parallelism"),
]


@pytest.mark.parametrize("name,least,call", COUNT_BOUNDS)
def test_each_count_takes_its_least_value_and_names_it_below(name, least, call):
    with pytest.raises(ArgumentError) as exc:
        call(least - 1)
    assert str(exc.value) == f"{name} must be >= {least}"
    call(least)


@pytest.mark.parametrize("field,value", [("warmup_epochs", 10**6), ("hidden_width", 1),
                                         ("hidden_width", 0)])
def test_train_config_is_frozen_and_replace_validates(field, value):
    # an assignment after construction used to skip every check: a warm-up
    # past vi_epochs scored with a KL weight that never reached 1, and width
    # 0 ended in a bare ZeroDivisionError
    cfg = TrainConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, field, value)
    with pytest.raises(ArgumentError, match=field):
        dataclasses.replace(cfg, **{field: value})
    assert cfg == TrainConfig()
    assert dataclasses.replace(cfg, seed=5) == TrainConfig(seed=5)


def test_linear_pair_compresses_below_marginal():
    rng = np.random.default_rng(4)
    x = np.sort(rng.standard_normal(200))
    y = x.copy()
    cfg = TrainConfig(hidden_width=10, vi_epochs=300, warmup_epochs=30,
                      map_epochs=300, mc_eval_samples=16, seed=0)
    stream = RngStream(cfg.seed).child("linear-smoke")
    model = train_conditional(x[None], y[None], cfg, stream)
    [codelength] = conditional_variational_codelength(model, x[None], y[None], 16,
                                                      stream.child("eval"))
    assert codelength < marginal_gaussian_codelength(y)


def test_training_is_deterministic():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(60)
    y = np.tanh(x) + 0.2 * rng.standard_normal(60)
    stream = RngStream(1).child("det")
    m1 = train_conditional(x[None], y[None], FAST, stream)
    m2 = train_conditional(x[None], y[None], FAST, stream)
    assert np.array_equal(m1.params, m2.params)


def test_model_constructions_do_not_grow_with_epochs(monkeypatch):
    # training builds three models, the initial one, the stacked model and
    # its gradient, and writes every epoch into their matrices in place
    built = []
    real_init = ConditionalModel.__init__

    def counting_init(self, params, hidden_width):
        built.append(1)
        real_init(self, params, hidden_width)

    monkeypatch.setattr(ConditionalModel, "__init__", counting_init)
    x = np.linspace(-1.0, 1.0, 6)
    counts = []
    for epochs in (2, 6):
        built.clear()
        cfg = TrainConfig(hidden_width=3, vi_epochs=epochs, warmup_epochs=1,
                          map_epochs=epochs, mc_eval_samples=1)
        train_conditional(x[None], np.sin(x)[None], cfg, RngStream(0))
        counts.append(len(built))
    assert counts == [3, 3]


def test_independent_pair_matches_marginal_plus_kl():
    rng = np.random.default_rng(6)
    n = 500
    from comic.data import standardize

    x, _, _ = standardize(rng.standard_normal(n))
    y, _, _ = standardize(rng.standard_normal(n))
    cfg = TrainConfig(hidden_width=10, vi_epochs=300, warmup_epochs=30,
                      map_epochs=300, mc_eval_samples=32, seed=2)
    stream = RngStream(cfg.seed).child("indep")
    model = train_conditional(x[None], y[None], cfg, stream)
    [codelength] = conditional_variational_codelength(model, x[None], y[None], 32,
                                                      stream.child("e"))
    [kl] = model.kl()
    reference = marginal_gaussian_codelength(y) + kl
    assert codelength == approx(reference, rel=0.03)

    # oracle: destroying the pairing must not change the codelength materially
    x_shuffled = x[rng.permutation(n)]
    stream2 = RngStream(cfg.seed).child("indep-shuffled")
    model2 = train_conditional(x_shuffled[None], y[None], cfg, stream2)
    [oracle] = conditional_variational_codelength(
        model2, x_shuffled[None], y[None], 32, stream2.child("e"))
    assert codelength == approx(oracle, rel=0.03)


def test_eval_codelength_prior_collapse():
    model = packed(
        hidden=make_layer(np.zeros((1, 3)), logvar=-60.0),
        output=make_layer(np.zeros((3, 2)), logvar=-60.0),
    )
    rng = np.random.default_rng(7)
    x = rng.standard_normal(40)
    y = rng.standard_normal(40)
    [value] = conditional_variational_codelength(
        stack(model), x[None], y[None], 4, RngStream(0).child("pc"))
    expected = gaussian_nll(y) + model.kl()
    assert value == approx(expected, rel=1e-9)


@pytest.mark.parametrize("x,y", [
    (np.zeros((3, 2)), np.zeros((1, 6))),   # same size, other shape
    (np.zeros((1, 5)), np.zeros((1, 4))),
    (np.zeros((1, 1)), np.zeros((1, 1))),   # one row is too few to train on
    (np.zeros(6), np.zeros(6)),             # a vector, not a (directions x rows) matrix
    (np.zeros((1, 1, 6)), np.zeros((1, 1, 6))),
])
def test_train_conditional_rejects_unmatched_vectors(x, y):
    with pytest.raises(ArgumentError, match=re.escape(f"got shapes {x.shape} and {y.shape}")):
        train_conditional(x, y, FAST, RngStream(0))


@pytest.mark.parametrize("y_len", [1, 7])
def test_eval_codelength_rejects_mismatched_y(y_len):
    # unchecked, a one-element y broadcasts silently and a 7-element one
    # fails inside numpy
    model = ConditionalModel.initial(3, RngStream(0).child("init"))
    x = np.linspace(-1.0, 1.0, 20)
    with pytest.raises(ArgumentError, match="matrices of one shape"):
        conditional_variational_codelength(
            stack(model), x[None], np.full((1, y_len), 0.3), 2, RngStream(0))


def test_eval_codelength_takes_one_row_and_rejects_none():
    model = stack(ConditionalModel.initial(3, RngStream(0).child("init")))
    [value] = conditional_variational_codelength(model, [[0.5]], [[0.3]], 2, RngStream(0))
    assert math.isfinite(value)
    with pytest.raises(ArgumentError, match=r"got shapes \(1, 0\) and \(1, 0\)"):
        conditional_variational_codelength(model, np.zeros((1, 0)), np.zeros((1, 0)), 2,
                                           RngStream(0))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_eval_codelength_refuses_a_non_finite_kl(value):
    # the samples' activations are checked, but a non-finite KL used to be
    # returned as inf or nan; training cannot reach this, since Adam refuses
    # a non-finite gradient. -inf turns invalid as the KL forms it
    initial = ConditionalModel.initial(3, RngStream(0).child("init"))
    model = stack(initial, initial)
    model.hidden.log_prior_scale_w[1, 0, 2] = value
    x = np.linspace(-1.0, 1.0, 20)
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericError, match="^non-finite codelength in direction 1$"):
        conditional_variational_codelength(model, np.stack((x, x)), np.stack((x, np.sin(x))),
                                           2, RngStream(0))


def test_training_and_evaluation_need_a_direction():
    # a (0 x rows) matrix is refused, not trained or priced as an empty stack
    model = stack(ConditionalModel.initial(3, RngStream(0).child("init")))
    none = np.zeros((0, 20))
    with pytest.raises(ArgumentError, match=r"at least 1 direction.*got shapes \(0, 20\)"):
        train_conditional(none, none, FAST, RngStream(0))
    with pytest.raises(ArgumentError, match=r"at least 1 direction.*got shapes \(0, 20\)"):
        conditional_variational_codelength(model, none, none, 2, RngStream(0))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["x", "y"])
def test_training_and_evaluation_refuse_non_finite_data(name, value):
    # a NaN or inf effect used to be priced as nan or inf, a NaN cause to fail
    # as non-finite hidden activations, and training to name a non-finite
    # loss in the MAP phase
    x = np.linspace(-1.0, 1.0, 20)[None]
    data = {"x": x.copy(), "y": np.sin(x)}
    data[name][0, 3] = value
    model = stack(ConditionalModel.initial(3, RngStream(0).child("init")))
    message = f"^{name} must be finite, got {value}$"
    with pytest.raises(ArgumentError, match=message):
        train_conditional(data["x"], data["y"], FAST, RngStream(0))
    with pytest.raises(ArgumentError, match=message):
        conditional_variational_codelength(model, data["x"], data["y"], 2, RngStream(0))


@settings(max_examples=30, deadline=None)
@given(
    width=st.sampled_from([2, 50]),
    n=st.sampled_from([2, 3, 500]),
    seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
)
def test_one_sample_codelength_is_the_beta_one_elbo(width, n, seeds):
    # evaluation prices a sample with the NLL training minimizes, so one
    # sample's codelength is the beta = 1 objective on its stream, bit for
    # bit, on a two-direction stack
    problems = [edge_problem(width, n, seed, 0.3) for seed in seeds]
    model = stack(*(problem[0] for problem in problems))
    x, y = (np.stack([problem[i] for problem in problems]) for i in (1, 2))
    stream = RngStream(seeds[0]).child("identity")
    codelength = conditional_variational_codelength(model, x, y, 1, stream)
    ws = bnn.Workspace(model, x, y, grad=True)
    elbo = bnn.elbo_objective(ws, 1.0, stream.child("eval", 0))
    assert np.array(codelength).tobytes() == elbo.tobytes()


@pytest.mark.parametrize("samples", [2, 3, 4])
def test_eval_codelength_prices_antithetic_pairs_of_samples(samples, monkeypatch):
    # samples 2k and 2k + 1 share the noise of stream.child("eval", k), the
    # second negated: each sample has the oracle's bytes under (stream, sign),
    # each pair draws once, and an odd count ends on one plain draw
    draws = []
    real = bnn.draw_standard_normal

    def counting_draw(stream, out):
        draws.append(stream.tags)
        return real(stream, out)

    monkeypatch.setattr(bnn, "draw_standard_normal", counting_draw)
    problems = [edge_problem(50, 40, seed, 0.3) for seed in (1, 2)]
    model = stack(*(problem[0] for problem in problems))
    x, y = (np.stack([problem[i] for problem in problems]) for i in (1, 2))
    stream = RngStream(3).child("antithetic")
    codelength = conditional_variational_codelength(model, x, y, samples, stream)
    totals = np.zeros(2)
    for m in range(samples):
        sample_stream, sign = stream.child("eval", m // 2), (1, -1)[m % 2]
        totals += np.array([oracle_sample_nll(*problem, sample_stream, sign)
                            for problem in problems])
    assert np.array(codelength).tobytes() == (totals / samples + model.kl()).tobytes()
    assert draws == [("antithetic", "eval", str(k), name)
                     for k in range(math.ceil(samples / 2)) for name in ("hidden", "output")]


def test_score_pair_trains_and_evaluates_on_float32_data(monkeypatch):
    # the conditionals run over float32 copies of the sorted columns; the
    # stream key and the marginals are taken from the float64 columns
    seen = []
    for name in ("train_conditional", "conditional_variational_codelength"):
        real = getattr(codelength, name)

        def spy(*args, real=real):
            seen.append([a.dtype for a in args if isinstance(a, np.ndarray)])
            return real(*args)

        monkeypatch.setattr(codelength, name, spy)
    pair = make_anm_pair()
    report = score_pair(pair, FAST)
    assert seen == [[np.float32] * 2, [np.float32] * 2]
    x = standardize(pair.x)[0]
    assert report.l_marginal_x == marginal_gaussian_codelength(np.sort(x))


@pytest.mark.parametrize("samples", [1.5, "2", None])
def test_eval_codelength_rejects_non_integer_sample_count(samples):
    model = ConditionalModel.initial(3, RngStream(0).child("init"))
    x = np.linspace(-1.0, 1.0, 20)
    with pytest.raises(ArgumentError, match="mc_eval_samples must be an integer"):
        conditional_variational_codelength(stack(model), x[None], 0.5 * x[None], samples,
                                           RngStream(0))


def test_eval_codelength_mc_convergence():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(50)
    y = np.sin(x) + 0.3 * rng.standard_normal(50)
    stream = RngStream(11).child("mc-conv")
    model = train_conditional(x[None], y[None], FAST, stream)

    # empirical standard error of the single-draw estimator
    se = sampled_nlls(model, x, y, stream, 400).std(ddof=1)
    [one] = conditional_variational_codelength(model, x[None], y[None], 1, stream.child("a"))
    [many] = conditional_variational_codelength(model, x[None], y[None], 4000,
                                                stream.child("b"))
    assert abs(one - many) <= 5.0 * se


def make_anm_pair(seed=9, n=60):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = np.tanh(2 * x) + 0.1 * rng.standard_normal(n)
    return PairDataset(x, y, id=f"anm-{seed}")


def test_score_pair_report_consistency():
    report = score_pair(make_anm_pair(), FAST)
    assert report.delta_xy == report.l_marginal_x + report.l_cond_y_given_x
    assert report.delta_yx == report.l_marginal_y + report.l_cond_x_given_y
    assert report.final_delta == report.delta_yx - report.delta_xy
    assert report.confidence == abs(report.final_delta)
    assert report.decision in (X_CAUSES_Y, Y_CAUSES_X)


# at odd n the second direction's slice of each stacked (2, n, ...) array
# starts off a 16-byte boundary
@pytest.mark.parametrize("n,width", [(60, 8), (61, 7)], ids=["n60-width8", "n61-width7"])
def test_swap_antisymmetry_bit_exact(n, width):
    pair = make_anm_pair(10, n)
    cfg = dataclasses.replace(FAST, hidden_width=width)
    forward = score_pair(pair, cfg)
    mirrored = score_pair(swap_pair(pair), cfg)
    assert mirrored.final_delta == -forward.final_delta
    assert {forward.decision, mirrored.decision} == {X_CAUSES_Y, Y_CAUSES_X}
    assert mirrored.delta_xy == forward.delta_yx
    assert mirrored.delta_yx == forward.delta_xy


ROW_ORDER_CFG = TrainConfig(hidden_width=2, vi_epochs=4, warmup_epochs=2, map_epochs=4,
                            mc_eval_samples=2, seed=7)


def sample_columns(n):
    """Columns of n finite values, some drawn from a pool of at most 3 values so
    that the row sort meets ties, -0.0 against 0.0 among them."""
    values = st.floats(-100, 100, allow_nan=False)
    pooled = st.lists(st.sampled_from([0.0, -0.0, 1.0]) | values, min_size=1, max_size=3)
    return (st.lists(values, min_size=n, max_size=n)
            | pooled.flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=n,
                                                   max_size=n))
            ).filter(lambda v: max(v) > min(v))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 24).flatmap(lambda n: st.tuples(
    sample_columns(n), sample_columns(n), st.permutations(range(n)), st.booleans())))
# rows (-0.0, 2.0) and (0.0, 2.0) tie in the sort, and x's mean is exactly 0
@example(([-0.0, 0.0, 1.0, -1.0], [2.0, 2.0, 1.0, 3.0], (1, 0, 2, 3), False))
def test_any_row_order_scores_the_same(case):
    # score_pair prices the sample: any permutation of the rows gives the same
    # report bit for bit, and swapping the columns as well negates it
    x, y, order, swap = case
    pair = PairDataset(np.array(x), np.array(y))
    report = score_pair(pair, ROW_ORDER_CFG)
    permuted = PairDataset(pair.x[list(order)], pair.y[list(order)])
    if not swap:
        assert repr(score_pair(permuted, ROW_ORDER_CFG)) == repr(report)
        return
    mirrored = score_pair(swap_pair(permuted), ROW_ORDER_CFG)
    assert mirrored.final_delta == -report.final_delta
    assert (mirrored.delta_xy, mirrored.delta_yx) == (report.delta_yx, report.delta_xy)


@pytest.mark.parametrize("scale", [None, 2.0], ids=["copy", "doubled"])
def test_exact_tie_is_undecided_both_ways(scale):
    # columns that standardize to the same bits make a pair that is its own
    # swap, so the score is +0.0 both ways rather than a sign-flipped mirror;
    # only exact maps qualify (4.0 * x - 8.0 rounds in the shift and scores
    # a nonzero final_delta)
    x = np.random.default_rng(5).standard_normal(60)
    pair = PairDataset(x, x.copy() if scale is None else scale * x)
    for report in (score_pair(pair, FAST), score_pair(swap_pair(pair), FAST)):
        assert report.final_delta == 0.0 and math.copysign(1.0, report.final_delta) == 1.0
        assert report.decision == UNDECIDED
        assert report.confidence == 0.0
        assert report.delta_xy == report.delta_yx


def test_threads_score_like_serial():
    # each call binds its own workspaces and each thread keeps its own
    # noise generator, so pairs scored at once get the bits each gets
    # alone; more threads than CPUs and a short switch interval make the
    # threads interleave often
    pairs = [generate_pair(GeneratorSpec(family, 2, 300, seed=1), i)
             for family in ("AN-s", "LS-s") for i in range(2)]
    cfg = TrainConfig(hidden_width=20, map_epochs=30, vi_epochs=30, warmup_epochs=3,
                      mc_eval_samples=8, seed=1)
    serial = [score_pair(pair, cfg).final_delta for pair in pairs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with ThreadPoolExecutor(max_workers=len(pairs)) as pool:
            threaded = list(pool.map(lambda pair: score_pair(pair, cfg).final_delta, pairs,
                                     timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_affine_rescaling_does_not_move_decision():
    pair = make_anm_pair(12)
    base = score_pair(pair, FAST)
    scaled = PairDataset(4.0 * pair.x, 0.5 * pair.y, id=pair.id)
    rescored = score_pair(scaled, FAST)
    assert rescored.final_delta == base.final_delta
    assert rescored.decision == base.decision


def test_affine_shift_on_grid_data_bit_exact():
    rng = np.random.default_rng(13)
    # dyadic grid values so that scale and shift are exact per element
    x = rng.integers(-2 ** 16, 2 ** 16, size=50) / 1024.0
    y = np.round(np.tanh(x) * 1024.0) / 1024.0 + rng.integers(-256, 256, size=50) / 1024.0
    pair = PairDataset(x, y, id="grid")
    base = score_pair(pair, FAST)
    moved = PairDataset(2.0 * x + 8.0, 0.5 * y - 3.0, id="grid")
    rescored = score_pair(moved, FAST)
    assert rescored.final_delta == base.final_delta
    assert rescored.decision == base.decision


def test_score_pair_degenerate_column():
    pair = PairDataset(np.full(10, 2.0), np.arange(10.0))
    with pytest.raises(ArgumentError, match="degenerate variable"):
        score_pair(pair, FAST)


@pytest.mark.parametrize("bad,message", [
    (np.ones(5), "degenerate variable: zero variance"),
    (np.array([0.0, 1.0, np.nan, 3.0, 4.0]), "standardize requires finite values"),
], ids=["constant", "nan"])
def test_score_pair_names_the_refused_column(bad, message):
    # both columns used to be refused with the same bare message
    pair = PairDataset(bad, np.arange(5.0))
    for refused, column in ((pair, "x"), (swap_pair(pair), "y")):
        with pytest.raises(ArgumentError) as exc:
            score_pair(refused, FAST)
        assert str(exc.value) == f"{column}: {message}"


def test_independent_columns_still_total():
    rng = np.random.default_rng(14)
    pair = PairDataset(rng.standard_normal(80), rng.standard_normal(80))
    report = score_pair(pair, FAST)
    assert report.decision in (X_CAUSES_Y, Y_CAUSES_X, "undecided")


def test_lockstep_directions_match_directions_run_alone():
    # each direction's arithmetic depends only on its own data and the
    # stream, which is what makes the swap an exact mirror: row d of a
    # (2, n) stack gets the bytes of the (1, n) run of direction d alone
    rng = np.random.default_rng(17)
    x = rng.standard_normal(30)
    y = np.sin(x) + 0.2 * rng.standard_normal(30)
    causes, effects = np.stack((x, y)), np.stack((y, x))
    stream = RngStream(3).child("lockstep")
    together = train_conditional(causes, effects, FAST, stream)
    alone = [train_conditional(causes[d:d + 1], effects[d:d + 1], FAST, stream)
             for d in range(2)]
    assert [row.tobytes() for row in together.params] == [
        m.params[0].tobytes() for m in alone]
    values = conditional_variational_codelength(together, causes, effects, 3,
                                                stream.child("e"))
    assert values == [conditional_variational_codelength(
        m, causes[d:d + 1], effects[d:d + 1], 3, stream.child("e"))[0]
        for d, m in enumerate(alone)]


def test_eval_codelength_needs_one_model_per_direction():
    model = stack(ConditionalModel.initial(3, RngStream(0).child("init")))
    x = np.linspace(-1.0, 1.0, 20)
    with pytest.raises(ArgumentError, match=r"stack shape \(1,\), got shape \(2, 20\)"):
        conditional_variational_codelength(model, np.stack((x, x)), np.stack((x, x)), 2,
                                           RngStream(0))


def test_train_conditional_needs_directions_of_one_length():
    x = np.linspace(-1.0, 1.0, 20)
    with pytest.raises(ArgumentError, match=r"got shapes \(2, 20\) and \(2, 10\)"):
        train_conditional(np.stack((x, x)), np.stack((x[:10], x[:10])), FAST, RngStream(0))


def test_numeric_error_names_phase_and_epoch():
    x = np.array([0.0, 1.0, 2.0])
    y = np.array([0.0, 1e200, -1e200])
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NumericError, match="MAP phase"):
            train_conditional(x[None], y[None], FAST, RngStream(0).child("overflow"))


def test_numeric_error_names_the_direction():
    # y -> x trains through the MAP phase; x -> y overflows in its first epoch
    x = np.array([0.0, 1.0, 2.0])
    y = np.array([0.0, 1e200, -1e200])
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NumericError, match="direction 1, MAP phase at epoch 0"):
            train_conditional(np.stack((y, x)), np.stack((x, y)), FAST,
                              RngStream(0).child("overflow"))


@pytest.mark.parametrize("entries,direction,block,offset", [
    ([(1, "hidden.logvar_w", (0, 2))], 1, "hidden.logvar_w", 2),
    # the layout is field-major: output.mean_b lies past hidden.mean_b and
    # both layers' mean_w and logvar_w blocks
    ([(0, "output.mean_b", (1,))], 0, "output.mean_b", 1),
    # the first entry in packed (direction, block, offset) order is named:
    # output.mean_w comes before hidden.logvar_b in the field-major layout,
    # and an earlier block of a later direction comes after both
    ([(1, "hidden.mean_w", (0, 1)), (0, "output.mean_w", (0, 0)),
      (0, "hidden.logvar_b", (5,))], 0, "output.mean_w", 0),
], ids=["direction1-hidden.logvar_w", "direction0-output.mean_b", "first-of-three"])
def test_numeric_error_in_adam_names_direction_phase_and_epoch(monkeypatch, entries, direction,
                                                               block, offset):
    # a finite loss over a non-finite gradient is caught by Adam; training
    # names the entry by direction, block and offset
    real = bnn.elbo_objective
    calls = []

    def nan_gradient(ws, beta, stream, sign):
        loss = real(ws, beta, stream, sign)
        calls.append(1)
        if len(calls) == 3:
            for d, name, index in entries:
                layer, field = name.split(".")
                getattr(getattr(ws.grad, layer), field)[(d, *index)] = np.nan
        return loss

    monkeypatch.setattr(bnn, "elbo_objective", nan_gradient)
    x = np.linspace(-1.0, 1.0, 20)
    expected = (f"direction {direction}, VI phase, epoch 2: non-finite gradient in "
                f"block '{block}' (offset {offset})")
    with pytest.raises(NumericError, match=f"^{re.escape(expected)}$"):
        train_conditional(np.stack((x, np.sin(x))), np.stack((np.sin(x), x)), FAST,
                          RngStream(0))


def test_more_vi_epochs_do_not_hurt_linear_pair():
    rng = np.random.default_rng(15)
    from comic.data import standardize

    x, _, _ = standardize(np.sort(rng.standard_normal(200)))
    y = x.copy()

    def fit(vi_epochs):
        cfg = TrainConfig(hidden_width=10, vi_epochs=vi_epochs,
                          warmup_epochs=min(100, vi_epochs), map_epochs=300,
                          mc_eval_samples=64, seed=4)
        stream = RngStream(cfg.seed).child("vi-sweep", vi_epochs)
        model = train_conditional(x[None], y[None], cfg, stream)
        samples = sampled_nlls(model, x, y, stream, 200)
        [value] = conditional_variational_codelength(
            model, x[None], y[None], 64, stream.child("eval"))
        return value, samples.std(ddof=1) / math.sqrt(64)

    short, se_short = fit(100)
    long, se_long = fit(2500)
    assert long <= short + 3.0 * math.hypot(se_short, se_long)


# the golden pairs and their config; tests/test_subprocesses.py scores them
# under each OpenBLAS kernel too
GOLDEN_CONFIG = dict(hidden_width=6, vi_epochs=40, warmup_epochs=8, map_epochs=40,
                     mc_eval_samples=4, seed=5)
GOLDEN_SPEC = dict(family="LS-s", n_pairs=4, n_samples=40, seed=900)


def test_golden_scores_are_pinned():
    # exact score reprs: any change to the order of the training or evaluation
    # arithmetic shows up here, even when every tolerance-based test still passes
    cfg = TrainConfig(**GOLDEN_CONFIG)
    pairs = generate_dataset(GeneratorSpec(**GOLDEN_SPEC))
    assert [repr(score_pair(pair, cfg).final_delta) for pair in pairs] == [
        "-1.720569702967822", "1.3454218291985285", "2.335206478886164",
        "-3.547623976655899",
    ]
