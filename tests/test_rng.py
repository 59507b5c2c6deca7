import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from comic import bnn, rng
from comic.codelength import TrainConfig, score_pair, train_conditional
from comic.data import PairDataset
from comic.errors import ArgumentError
from comic.rng import RngStream, draw_standard_normal
from noise_oracle import sfc64_normals


def test_replay_is_bit_exact():
    stream = RngStream(42).child("pair-7", "cause", "epoch-3")
    a = draw_standard_normal(stream, np.empty((5, 4)))
    b = draw_standard_normal(stream, np.empty((5, 4)))
    assert np.array_equal(a, b)


def test_distinct_tags_distinct_draws():
    base = RngStream(42)
    a = draw_standard_normal(base.child("role-a"), np.empty((8, 8)))
    b = draw_standard_normal(base.child("role-b"), np.empty((8, 8)))
    assert not np.array_equal(a, b)


def test_tag_boundaries_matter():
    # ("a","b") and ("ab",) must not collide
    a = draw_standard_normal(RngStream(0).child("a", "b"), np.empty((4, 4)))
    b = draw_standard_normal(RngStream(0).child("ab"), np.empty((4, 4)))
    assert not np.array_equal(a, b)


def test_int_tags_stringified():
    a = draw_standard_normal(RngStream(0).child(12), np.empty((3, 3)))
    b = draw_standard_normal(RngStream(0).child("12"), np.empty((3, 3)))
    assert np.array_equal(a, b)


def test_numpy_int_tags_keep_their_strings():
    assert RngStream(0).child(np.int64(3), np.uint8(7)) == RngStream(0).child(3, "7")


@pytest.mark.parametrize("tag", [True, None, 3.0, np.float64(3), b"3"],
                         ids=["bool", "none", "float", "numpy-float", "bytes"])
def test_child_refuses_a_tag_that_is_neither_str_nor_int(tag):
    # each used to be keyed by its str: child(np.float64(3)) drew other
    # noise than child(3), and child(True) was child("True")
    with pytest.raises(ArgumentError) as exc:
        RngStream(0).child("epoch", tag)
    assert str(exc.value) == f"a stream tag that is not a str must be an integer, got {tag!r}"


def test_moments_of_large_sample():
    draws = draw_standard_normal(RngStream(2024).child("moments"), np.empty((1000, 1000)))
    assert abs(draws.mean()) < 0.01
    assert abs(draws.var() - 1.0) < 0.02


def test_cross_stream_independence():
    base = RngStream(5).child("pair")
    a = draw_standard_normal(base.child("first-as-cause"), np.empty((1000, 1000))).ravel()
    b = draw_standard_normal(base.child("second-as-cause"), np.empty((1000, 1000))).ravel()
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 0.01


def test_invalid_shape():
    with pytest.raises(ArgumentError):
        draw_standard_normal(RngStream(0), np.empty((0, 3)))


def test_child_does_not_mutate_parent():
    parent = RngStream(9, ("x",))
    child = parent.child("y")
    assert parent.tags == ("x",)
    assert child.tags == ("x", "y")


def test_derived_stream_round_trips_through_pickle():
    # a stream is its (seed, tags) and nothing else, drawn from or not
    stream = RngStream(9, ("x",)).child("y", 3)
    drawn = draw_standard_normal(stream, np.empty((3, 4))).tobytes()
    copy = pickle.loads(pickle.dumps(stream))
    assert copy == stream and copy.tags == ("x", "y", "3")
    assert draw_standard_normal(copy, np.empty((3, 4))).tobytes() == drawn


@given(
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    st.lists(st.text(min_size=0, max_size=8), max_size=4),
)
def test_same_identity_same_draw(seed, tags):
    s1 = RngStream(seed, tuple(tags))
    s2 = RngStream(seed, tuple(tags))
    assert np.array_equal(draw_standard_normal(s1, np.empty((2, 3))),
                          draw_standard_normal(s2, np.empty((2, 3))))


@given(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=3))
def test_extra_tag_changes_stream(tags):
    base = RngStream(1, tuple(tags))
    extended = base.child("extra")
    a = draw_standard_normal(base, np.empty((3, 3)))
    b = draw_standard_normal(extended, np.empty((3, 3)))
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [1.5, "5", 2**63, True, 2**70, -2**63 - 1])
def test_bad_seed_raises_argument_error_when_built(seed):
    # these used to be refused only at the stream's first draw, True never
    with pytest.raises(ArgumentError, match="^seed must "):
        RngStream(seed)


@pytest.mark.parametrize("tags", [(3,), "ab", ["a"], ("a", None), ("a", b"b")],
                         ids=["int-tag", "str", "list", "none-tag", "bytes-tag"])
def test_stream_refuses_tags_that_are_not_a_tuple_of_str_when_built(tags):
    # RngStream(0, (3,)) used to fail at its first draw with a bare
    # AttributeError, and RngStream(0, "ab").child("c") with a bare TypeError
    with pytest.raises(ArgumentError) as exc:
        RngStream(0, tags)
    assert str(exc.value) == f"stream tags must be a tuple of str, got {tags!r}"


def test_extreme_seeds_are_kept_as_python_ints():
    for seed in (-2**63, 2**63 - 1, np.int64(-5), np.uint32(7)):
        stream = RngStream(seed)
        assert type(stream.seed) is int and stream.seed == int(seed)
        assert type(stream.child("x").seed) is int


def test_numpy_integer_seed_draws_like_int():
    a = draw_standard_normal(RngStream(np.int64(5)).child("t"), np.empty((3, 4)))
    b = draw_standard_normal(RngStream(5).child("t"), np.empty((3, 4)))
    assert a.tobytes() == b.tobytes()


def test_reused_generator_draws_equal_fresh_generators():
    streams = (RngStream(3).child("a"), RngStream(-7).child("b", 2))
    shapes = [(1, 1), (3, 5), (7, 1), (1, 9), (5, 3), (2, 2), (1, 1), (13, 7)]
    for i, (r, c) in enumerate(shapes):
        stream = streams[i % 2]
        fresh = sfc64_normals(stream, (r, c))
        assert draw_standard_normal(stream, np.empty((r, c))).tobytes() == fresh.tobytes()
    # other use of the shared generator leaves its state moved on and a
    # cached 32-bit word behind; the next draw must not see either
    rng._shared_generator().integers(0, 2**32, size=3, dtype=np.uint32)
    rng._shared_generator().random(5)
    after = streams[0].child("next")
    fresh = sfc64_normals(after, (3, 3))
    assert draw_standard_normal(after, np.empty((3, 3))).tobytes() == fresh.tobytes()


def test_draw_fills_and_returns_the_given_array():
    stream = RngStream(8).child("fill")
    out = np.full((4, 3), np.nan)
    assert draw_standard_normal(stream, out) is out
    assert out.tobytes() == sfc64_normals(stream, (4, 3)).tobytes()
    # a second draw overwrites every entry of the same array
    draw_standard_normal(stream.child("again"), out)
    assert out.tobytes() == sfc64_normals(stream.child("again"), (4, 3)).tobytes()


@pytest.mark.parametrize("out", [np.empty((3, 4), dtype=np.float32), np.empty((4, 3)).T])
def test_draw_rejects_arrays_it_cannot_fill(out):
    with pytest.raises(ArgumentError, match="C-contiguous float64"):
        draw_standard_normal(RngStream(0).child("layout"), out)


class CountingGenerator:
    """Stands in for the shared generator and counts the matrices it fills."""

    def __init__(self, gen):
        self.gen = gen
        self.bit_generator = gen.bit_generator
        self.fills = 0

    def standard_normal(self, *args, **kwargs):
        self.fills += 1
        return self.gen.standard_normal(*args, **kwargs)


@pytest.fixture
def counting_generator(monkeypatch):
    counting = CountingGenerator(rng._shared_generator())
    monkeypatch.setattr(rng, "_shared_generator", lambda: counting)
    return counting


def test_score_pair_fills_each_noise_matrix_once(counting_generator, monkeypatch):
    # both directions share the noise of each VI epoch and each MC sample,
    # drawn once for both, and the second epoch or sample of an antithetic
    # pair negates the first's noise, so a pair costs one hidden and one
    # output matrix per pair of epochs and per pair of samples, an odd count
    # ending on one plain draw, each from one draw call (164 calls at
    # H = 50, 100 VI epochs and 64 MC samples)
    draws = []
    real = bnn.draw_standard_normal

    def counting_draw(stream, out):
        draws.append(out.shape)
        return real(stream, out)

    monkeypatch.setattr(bnn, "draw_standard_normal", counting_draw)
    gen = np.random.default_rng(31)
    x = gen.standard_normal(40)
    pair = PairDataset(x, np.tanh(x) + 0.1 * gen.standard_normal(40))
    cfg = TrainConfig(hidden_width=4, vi_epochs=7, warmup_epochs=2, map_epochs=3,
                      mc_eval_samples=5, seed=31)
    score_pair(pair, cfg)
    assert counting_generator.fills == 2 * (math.ceil(cfg.vi_epochs / 2)
                                            + math.ceil(cfg.mc_eval_samples / 2))
    assert len(draws) == counting_generator.fills
    assert sorted(set(draws)) == [(40, 2), (40, 4)]


def test_philox_constructions_do_not_grow_with_vi_epochs(monkeypatch):
    # neither the Philox generators of generator() nor the SFC64 generator
    # of draw_standard_normal may be built per epoch
    rng._shared_generator()
    built = []
    for name in ("Philox", "SFC64"):
        real = getattr(np.random, name)

        def counting(*args, real=real, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counting)
    x = np.linspace(-1.0, 1.0, 6)
    counts = []
    for epochs in (2, 6):
        built.clear()
        cfg = TrainConfig(hidden_width=3, vi_epochs=epochs, warmup_epochs=1,
                          map_epochs=1, mc_eval_samples=1)
        train_conditional(np.stack((x, np.sin(x))), np.stack((np.sin(x), x)), cfg, RngStream(0))
        counts.append(len(built))
    assert counts[0] == counts[1]
