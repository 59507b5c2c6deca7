import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from comic import rng
from comic.codelength import TrainConfig, train_conditional
from comic.errors import ArgumentError
from comic.rng import RngStream, draw_standard_normal


def test_replay_is_bit_exact():
    stream = RngStream(42).child("pair-7", "cause", "epoch-3")
    a = draw_standard_normal(stream, 5, 4)
    b = draw_standard_normal(stream, 5, 4)
    assert np.array_equal(a, b)


def test_distinct_tags_distinct_draws():
    base = RngStream(42)
    a = draw_standard_normal(base.child("role-a"), 8, 8)
    b = draw_standard_normal(base.child("role-b"), 8, 8)
    assert not np.array_equal(a, b)


def test_tag_boundaries_matter():
    # ("a","b") and ("ab",) must not collide
    a = draw_standard_normal(RngStream(0).child("a", "b"), 4, 4)
    b = draw_standard_normal(RngStream(0).child("ab"), 4, 4)
    assert not np.array_equal(a, b)


def test_int_tags_stringified():
    a = draw_standard_normal(RngStream(0).child(12), 3, 3)
    b = draw_standard_normal(RngStream(0).child("12"), 3, 3)
    assert np.array_equal(a, b)


def test_moments_of_large_sample():
    draws = draw_standard_normal(RngStream(2024).child("moments"), 1000, 1000)
    assert abs(draws.mean()) < 0.01
    assert abs(draws.var() - 1.0) < 0.02


def test_cross_stream_independence():
    base = RngStream(5).child("pair")
    a = draw_standard_normal(base.child("first-as-cause"), 1000, 1000).ravel()
    b = draw_standard_normal(base.child("second-as-cause"), 1000, 1000).ravel()
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 0.01


def test_invalid_shape():
    with pytest.raises(ArgumentError):
        draw_standard_normal(RngStream(0), 0, 3)


def test_child_does_not_mutate_parent():
    parent = RngStream(9, ("x",))
    child = parent.child("y")
    assert parent.tags == ("x",)
    assert child.tags == ("x", "y")


@given(
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    st.lists(st.text(min_size=0, max_size=8), max_size=4),
)
def test_same_identity_same_draw(seed, tags):
    s1 = RngStream(seed, tuple(tags))
    s2 = RngStream(seed, tuple(tags))
    assert np.array_equal(draw_standard_normal(s1, 2, 3), draw_standard_normal(s2, 2, 3))


@given(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=3))
def test_extra_tag_changes_stream(tags):
    base = RngStream(1, tuple(tags))
    extended = base.child("extra")
    a = draw_standard_normal(base, 3, 3)
    b = draw_standard_normal(extended, 3, 3)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [1.5, "5", 2**63])
def test_bad_seed_raises_argument_error_on_first_use(seed):
    stream = RngStream(seed).child("x")
    with pytest.raises(ArgumentError, match="seed"):
        stream.generator()
    with pytest.raises(ArgumentError, match="seed"):
        draw_standard_normal(stream, 2, 2)


def test_numpy_integer_seed_draws_like_int():
    a = draw_standard_normal(RngStream(np.int64(5)).child("t"), 3, 4)
    b = draw_standard_normal(RngStream(5).child("t"), 3, 4)
    assert a.tobytes() == b.tobytes()


def test_reused_generator_draws_equal_fresh_generators():
    streams = (RngStream(3).child("a"), RngStream(-7).child("b", 2))
    shapes = [(1, 1), (3, 5), (7, 1), (1, 9), (5, 3), (2, 2), (1, 1), (13, 7)]
    for i, (r, c) in enumerate(shapes):
        stream = streams[i % 2]
        fresh = stream.generator().standard_normal((r, c))
        assert draw_standard_normal(stream, r, c).tobytes() == fresh.tobytes()
    # other use of the shared generator leaves a half-used buffer and a
    # cached 32-bit word behind; the next draw must not see either
    rng._shared_generator().integers(0, 2**32, size=3, dtype=np.uint32)
    rng._shared_generator().random(5)
    fresh = streams[0].generator().standard_normal((3, 3))
    assert draw_standard_normal(streams[0], 3, 3).tobytes() == fresh.tobytes()


def test_philox_constructions_do_not_grow_with_vi_epochs(monkeypatch):
    built = []
    real_philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(1)
        return real_philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    x = np.linspace(-1.0, 1.0, 6)
    counts = []
    for epochs in (2, 6):
        built.clear()
        cfg = TrainConfig(hidden_width=3, vi_epochs=epochs, warmup_epochs=1,
                          map_epochs=1, mc_eval_samples=1)
        train_conditional(x, np.sin(x), cfg, RngStream(0))
        counts.append(len(built))
    assert counts[0] == counts[1]
