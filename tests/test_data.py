import decimal
import hashlib
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from comic.data import (
    GENERATOR_VERSION,
    GeneratorSpec,
    PairDataset,
    X_CAUSES_Y,
    Y_CAUSES_X,
    generate_dataset,
    generate_pair,
    load_pair_file,
    load_tuebingen,
    parse_pairmeta,
    standardize,
    swap_pair,
    write_dataset,
    write_pair_file,
)
from comic.codelength import TrainConfig
from comic.errors import ArgumentError, ParseError
from comic.evaluation import run_benchmark

finite_vectors = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=40,
).filter(lambda v: max(v) > min(v))


# ---------------------------------------------------------------- standardize


def test_standardize_two_points():
    z, mean, std = standardize(np.array([1.0, 3.0]))
    assert np.array_equal(z, np.array([-1.0, 1.0]))
    assert mean == 2.0
    assert std == 1.0


def test_standardize_three_points():
    z, mean, std = standardize(np.array([2.0, 4.0, 6.0]))
    assert z == approx([-math.sqrt(1.5), 0.0, math.sqrt(1.5)], abs=1e-12)
    assert mean == 4.0
    assert std == approx(math.sqrt(8.0 / 3.0), rel=1e-15)


def test_standardize_idempotent():
    v = np.random.default_rng(0).standard_normal(64)
    z1, _, _ = standardize(v)
    z2, _, _ = standardize(z1)
    assert z2 == approx(z1, abs=1e-12)


def test_standardize_output_moments():
    v = np.random.default_rng(1).uniform(-50, 3, size=333)
    z, _, _ = standardize(v)
    assert abs(z.mean()) < 1e-9
    assert abs(math.sqrt((z * z).mean()) - 1.0) < 1e-9


def test_standardize_degenerate():
    with pytest.raises(ArgumentError, match="degenerate variable"):
        standardize(np.full(10, 3.25))


def test_standardize_rejects_short_or_nonfinite():
    with pytest.raises(ArgumentError):
        standardize(np.array([1.0]))
    with pytest.raises(ArgumentError):
        standardize(np.array([1.0, np.nan]))


@settings(max_examples=60)
@given(finite_vectors, st.integers(-6, 6))
def test_standardize_power_of_two_scale_bit_exact(values, k):
    v = np.asarray(values)
    a = 2.0 ** k
    z1, _, _ = standardize(v)
    z2, _, _ = standardize(a * v)
    assert np.array_equal(z1, z2)


@settings(max_examples=60)
@given(
    st.lists(st.integers(-(2 ** 20), 2 ** 20), min_size=2, max_size=30)
    .filter(lambda v: max(v) > min(v)),
    st.integers(-(2 ** 20), 2 ** 20),
    st.integers(-4, 4),
)
def test_standardize_exact_affine_maps_bit_exact(grid, shift, k):
    # values on a dyadic grid shifted by a dyadic offset: a*v + b incurs no
    # per-element rounding, so the standardized output must be bit-identical
    v = np.asarray(grid, dtype=float) / 1024.0
    b = float(shift) / 1024.0
    a = 2.0 ** k
    z1, _, _ = standardize(v)
    z2, _, _ = standardize(a * v + a * b)
    assert np.array_equal(z1, z2)


well_conditioned = st.lists(
    st.floats(-100, 100, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=40,
).filter(lambda v: max(v) - min(v) >= 0.1)


@settings(max_examples=40)
@given(well_conditioned, st.floats(0.1, 10.0), st.floats(-100, 100))
def test_standardize_general_affine_close(values, a, b):
    # a*v + b rounds elementwise, so only closeness is achievable here; the
    # spread/magnitude bounds keep that rounding from swamping the data
    v = np.asarray(values)
    z1, _, _ = standardize(v)
    z2, _, _ = standardize(a * v + b)
    assert z2 == approx(z1, abs=1e-9)


def _oracle_sqrt_fraction(f):
    with localcontext() as ctx:
        ctx.prec = 50
        root = (Decimal(f.numerator) / Decimal(f.denominator)).sqrt()
    return float(root)


def standardize_oracle(v):
    """The rational-arithmetic standardize the integer version must match."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ArgumentError("standardize needs a 1-D vector with at least 2 entries")
    if not np.isfinite(v).all():
        raise ArgumentError("standardize requires finite values")
    exact = [Fraction(t) for t in v.tolist()]
    n = len(exact)
    mean = sum(exact) / n
    devs = [t - mean for t in exact]
    var = sum(d * d for d in devs) / n
    if var == 0:
        raise ArgumentError("degenerate variable: zero variance")
    out = np.empty(n)
    for i, d in enumerate(devs):
        if d == 0:
            out[i] = 0.0
        else:
            out[i] = math.copysign(_oracle_sqrt_fraction(d * d / var), float(d))
    return out, float(mean), _oracle_sqrt_fraction(var)


def _standardize_bits(fn, v):
    try:
        z, mean, std = fn(v)
    except ArgumentError as e:
        return "error", str(e)
    return z.tobytes(), mean.hex(), std.hex()


# the oracle converts each deviation to float, so spans stay below the float range
_HALF_MAX = 8.98e307
edge_floats = st.one_of(
    st.floats(-_HALF_MAX, _HALF_MAX),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     _HALF_MAX, -_HALF_MAX, 1.0, 1e15 + 0.5]),
)
edge_vectors = st.one_of(
    st.lists(edge_floats, min_size=2, max_size=30),
    # heavy ties: long vectors over a pool of at most three values
    st.lists(edge_floats, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=60)),
)


@settings(max_examples=300, deadline=None)
@given(edge_vectors)
def test_standardize_matches_rational_oracle_bit_exact(values):
    v = np.asarray(values, dtype=float)
    assert _standardize_bits(standardize, v) == _standardize_bits(standardize_oracle, v)


def test_standardize_matches_oracle_on_normal_column():
    v = np.random.default_rng(4).standard_normal(500) * 3.0 + 1e3
    assert _standardize_bits(standardize, v) == _standardize_bits(standardize_oracle, v)


def test_standardize_ignores_the_callers_decimal_context():
    v = np.random.default_rng(5).standard_normal(40) * 7.0 - 2.0
    expected = _standardize_bits(standardize_oracle, v)
    with localcontext() as ctx:
        ctx.prec = 5
        ctx.rounding = decimal.ROUND_FLOOR
        ctx.traps[decimal.Inexact] = True
        assert _standardize_bits(standardize, v) == expected


def test_standardize_span_beyond_float_range():
    # deviations of 4/3 * 1.7e308 exceed the float range; the output must not
    # overflow and, by exact scale invariance, equals that of [-1, 1, 1]
    big = 1.7e308
    z, mean, std = standardize(np.array([-big, big, big]))
    z_unit, _, std_unit = standardize(np.array([-1.0, 1.0, 1.0]))
    assert np.array_equal(z, z_unit)
    assert mean == big / 3
    assert std == pytest.approx(big * std_unit, rel=1e-15)


# ---------------------------------------------------------------- generators


def test_generate_pair_deterministic():
    spec = GeneratorSpec("AN", 3, 50, seed=5)
    p1 = generate_pair(spec, 1)
    p2 = generate_pair(spec, 1)
    assert np.array_equal(p1.x, p2.x)
    assert np.array_equal(p1.y, p2.y)
    assert p1.label == X_CAUSES_Y


def regenerate_f(pair, spec, pair_index=0, which="f"):
    from comic.data import _gp_draw, _sigmoid_draw
    from comic.rng import RngStream

    stream = RngStream(spec.seed).child("generate", spec.family, pair_index)
    if spec.family in ("AN", "LS"):
        return _gp_draw(pair.x, stream.child(which))
    return _sigmoid_draw(stream.child(which))(pair.x)


@pytest.mark.parametrize("family", ["AN", "AN-s"])
def test_additive_residuals_independent_of_cause(family):
    spec = GeneratorSpec(family, 1, 1000, seed=9)
    pair = generate_pair(spec, 0)
    resid = pair.y - regenerate_f(pair, spec)
    rho = np.corrcoef(pair.x, resid)[0, 1]
    assert abs(rho) < 0.1


@pytest.mark.parametrize("family", ["LS", "LS-s"])
def test_location_scale_normalized_residuals_independent(family):
    spec = GeneratorSpec(family, 1, 1000, seed=17)
    pair = generate_pair(spec, 0)
    f = regenerate_f(pair, spec)
    g = np.abs(regenerate_f(pair, spec, which="g")) + 0.3
    resid = (pair.y - f) / g
    rho = np.corrcoef(pair.x, resid)[0, 1]
    assert abs(rho) < 0.1


def test_multiplicative_noise_support():
    spec = GeneratorSpec("MN-U", 1, 1000, seed=13)
    pair = generate_pair(spec, 0)
    ratio = pair.y / regenerate_f(pair, spec)
    assert ratio.min() >= 0.5 - 1e-9
    assert ratio.max() <= 1.5 + 1e-9


def test_location_scale_families_have_positive_scale():
    for family in ("LS", "LS-s"):
        spec = GeneratorSpec(family, 1, 500, seed=3)
        pair = generate_pair(spec, 0)
        assert np.isfinite(pair.y).all()


def test_all_families_pass_self_checks():
    for family in ("AN", "AN-s", "LS", "LS-s", "MN-U"):
        pair = generate_pair(GeneratorSpec(family, 1, 200, seed=21), 0)
        assert pair.label == X_CAUSES_Y
        assert pair.n == 200
        assert np.isfinite(pair.x).all() and np.isfinite(pair.y).all()


def test_gp_series_kernel_is_the_squared_exponential():
    from comic.data import _GP_FREQS, _GP_SCALES

    r = np.linspace(-16.0, 16.0, 6401)
    kernel = (_GP_SCALES ** 2 * np.cos(np.multiply.outer(r, _GP_FREQS))).sum(axis=1)
    assert np.abs(kernel - np.exp(-0.5 * r * r)).max() < 1e-15


def test_gp_draws_have_unit_variance_and_unit_lengthscale():
    from comic.data import _gp_draw
    from comic.rng import RngStream

    x = np.array([0.0, 0.5, 2.0])
    draws = np.array([_gp_draw(x, RngStream(4).child("gp", i)) for i in range(4000)])
    cov = draws.T @ draws / len(draws)
    target = np.exp(-0.5 * np.subtract.outer(x, x) ** 2)
    assert cov == approx(target, abs=0.08)


@pytest.mark.parametrize("family", ["AN", "AN-s", "LS", "LS-s", "MN-U"])
def test_generate_pair_makes_no_linalg_call(monkeypatch, family):
    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg called while generating a pair")

    for name in np.linalg.__all__:
        if name != "LinAlgError":
            monkeypatch.setattr(np.linalg, name, forbidden)
    pair = generate_pair(GeneratorSpec(family, 1, 300, seed=2), 0)
    assert np.isfinite(pair.y).all()


# sha256 of x and y bytes of pair 0 of a 64-row spec at seed 5, per generator
# version and family: a change of the generated values must come with a new
# version, and a change of the training noise must leave them alone
GENERATED_SHA256 = {
    "2": {
        "AN": "2c2869df24d76b0017190f8f543bccc3407191c034fa00c45bd99946ade3d7e1",
        "LS": "91ac6975c8ea46d98bda9b3ce8bed844686669392d48a332c7e74f7b0ba84749",
        "AN-s": "fd46985e5e1519aab7bddd1c247f23450f064724f366a385ebc186c23af6df9b",
        "LS-s": "af5e74a9e32ccaebb316118e11ea541b55b61c6464e4e9ad1ec7e302fda3fc91",
        "MN-U": "2331039efb9ad03ecb52bd88771eca3a85c5a2efcceaee5f31fb8ff43818a149",
    },
}


@pytest.mark.parametrize("family", ["AN", "LS", "AN-s", "LS-s", "MN-U"])
def test_generated_gp_pairs_are_pinned_per_generator_version(family):
    pair = generate_pair(GeneratorSpec(family, 1, 64, seed=5), 0)
    digest = hashlib.sha256(pair.x.tobytes() + pair.y.tobytes()).hexdigest()
    assert digest == GENERATED_SHA256[GENERATOR_VERSION][family]


def test_generate_dataset_alternates_orientation():
    pairs = generate_dataset(GeneratorSpec("AN-s", 6, 20, seed=1))
    labels = [p.label for p in pairs]
    assert labels == [X_CAUSES_Y, Y_CAUSES_X] * 3


def test_family_name_normalization():
    assert GeneratorSpec("an_s", 1, 10, 0).family == "AN-s"
    assert GeneratorSpec("mn-u", 1, 10, 0).family == "MN-U"
    with pytest.raises(ArgumentError):
        GeneratorSpec("XYZ", 1, 10, 0)


@pytest.mark.parametrize("family", [5, None, b"AN"])
def test_family_name_must_be_a_string(family):
    with pytest.raises(ArgumentError, match="family must be a string"):
        GeneratorSpec(family, 1, 10)


@pytest.mark.parametrize("pair_index", [0.5, "0", None])
def test_generate_pair_rejects_non_integer_pair_index(pair_index):
    with pytest.raises(ArgumentError, match="pair_index must be an integer"):
        generate_pair(GeneratorSpec("AN-s", 2, 10), pair_index)


def test_swap_pair_mirrors_label():
    pair = PairDataset(np.array([0.0, 1.0]), np.array([2.0, 3.0]), label=X_CAUSES_Y)
    swapped = swap_pair(pair)
    assert swapped.label == Y_CAUSES_X
    assert np.array_equal(swapped.x, pair.y)
    assert np.array_equal(swapped.y, pair.x)


# ---------------------------------------------------------------- pair files


def test_load_pair_file_basic(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("0 1\n2 3\n")
    pair = load_pair_file(path)
    assert np.array_equal(pair.x, [0.0, 2.0])
    assert np.array_equal(pair.y, [1.0, 3.0])


def test_load_pair_file_header_errors(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("x y\n1 2\n3 4\n")
    with pytest.raises(ParseError, match="line 1"):
        load_pair_file(path)
    pair = load_pair_file(path, skip_header=True)
    assert np.array_equal(pair.x, [1.0, 3.0])


def test_load_pair_file_malformed_row_line_number(tmp_path):
    path = tmp_path / "pair.txt"
    for row, reason in [("3 oops", "non-numeric token"), ("3 nan", "non-finite value"),
                        ("3 4 5", "expected 2 columns, found 3")]:
        path.write_text(f"1 2\n{row}\n5 6\n")
        with pytest.raises(ParseError, match=f"^line 2: pair.txt: {reason}"):
            load_pair_file(path)


def test_load_pair_file_multidimensional_rejected(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("1 2 3 4\n5 6 7 8\n")
    with pytest.raises(ArgumentError, match="multidimensional"):
        load_pair_file(path)


def test_load_pair_file_too_short(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("1 2\n")
    with pytest.raises(ParseError):
        load_pair_file(path)


def test_roundtrip_through_text(tmp_path):
    rng = np.random.default_rng(8)
    pair = PairDataset(rng.standard_normal(37), rng.standard_normal(37) * 1e-7)
    path = tmp_path / "pair.txt"
    write_pair_file(path, pair)
    loaded = load_pair_file(path)
    assert np.array_equal(loaded.x, pair.x)
    assert np.array_equal(loaded.y, pair.y)


@settings(max_examples=25)
@given(st.lists(st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
                min_size=2, max_size=20))
def test_roundtrip_arbitrary_floats(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("rt") / "pair.txt"
    pair = PairDataset(np.asarray(values), np.asarray(values[::-1]))
    write_pair_file(path, pair)
    loaded = load_pair_file(path)
    assert np.array_equal(loaded.x, pair.x)
    assert np.array_equal(loaded.y, pair.y)


# ---------------------------------------------------------------- meta + corpus


def test_parse_pairmeta_row(tmp_path):
    meta = tmp_path / "pairmeta.txt"
    meta.write_text("0001 1 1 2 2 1.0\n0002  2 2  1 1  2\n")
    rows = parse_pairmeta(meta)
    assert rows[0].univariate and rows[0].weight == 1.0
    assert rows[1].cause_first == 2 and rows[1].weight == 2.0


def test_parse_pairmeta_malformed(tmp_path):
    meta = tmp_path / "pairmeta.txt"
    for text, reason in [
        ("0001 1 1 2\n", "line 1: pairmeta.txt: expected 6 fields, found 4"),
        ("0001 a 1 2 2 1.0\n", "line 1: pairmeta.txt: malformed meta row"),
        ("\n  \n\n", "pairmeta.txt: empty meta file"),
    ]:
        meta.write_text(text)
        with pytest.raises(ParseError, match=f"^{reason}"):
            parse_pairmeta(meta)


@pytest.mark.parametrize("row,reason", [
    ("0001 1 1 2 2 nan", "weight must be positive and finite"),
    ("0001 1 1 2 2 inf", "weight must be positive and finite"),
    ("0001 1 1 2 2 -1", "weight must be positive and finite"),
    ("0001 1.7 1 2 2 1.0", "non-integer column"),
    ("0001 1 1 2 inf 1.0", "non-integer column"),
    ("0001 1 1 1 1 1.0", "cause and effect share a column"),
    ("0001 0 0 2 2 1.0", "columns are 1-based"),
    ("0001 2 1 3 3 1.0", "column range runs backwards"),
    ("0001 1 2 2 3 1.0", "cause and effect share a column"),
    ("0002 2 2 1 1 1.0", "pair id '0002' repeats the row on line 1"),
    ("00/03 1 1 2 2 1.0", "pair id '00/03' is not a plain file name"),
    ("..\\y 1 1 2 2 1.0", "pair id '..\\\\\\\\y' is not a plain file name"),
])
def test_parse_pairmeta_rejects_bad_weight_or_column(tmp_path, row, reason):
    meta = tmp_path / "pairmeta.txt"
    meta.write_text("0002 1 1 2 2 1.0\n" + row + "\n")
    with pytest.raises(ParseError, match=f"line 2: .*{reason}"):
        parse_pairmeta(meta)


@pytest.mark.parametrize("weight", [math.nan, math.inf, 0.0, -1.0])
def test_pair_dataset_rejects_non_finite_or_non_positive_weight(weight):
    with pytest.raises(ArgumentError, match="weight"):
        PairDataset(np.arange(3.0), np.arange(3.0), weight=weight)


@pytest.mark.parametrize("weight", ["1", None])
def test_pair_dataset_rejects_non_real_weight(weight):
    with pytest.raises(ArgumentError, match="weight must be a real number"):
        PairDataset(np.arange(3.0), np.arange(3.0), weight=weight)


# pair0004.txt: four columns, of which the meta names the third as the cause
# (discrete, three levels, heavily tied) and the first as the effect
WIDE_EFFECT = [0.3, 1.1, 0.9, 2.2, 2.0, 1.8, 3.1, 2.9]
WIDE_CAUSE = [1, 1, 1, 2, 2, 2, 2, 3]


def make_corpus(tmp_path):
    """An offline pair/meta directory with the layout of the Tuebingen corpus."""
    (tmp_path / "pair0001.txt").write_text("1 2\n3 4\n5 6\n")
    (tmp_path / "pair0002.txt").write_text("1 2\n3 4\n5 6\n")
    (tmp_path / "pair0003.txt").write_text("1 2 3\n4 5 6\n7 8 9\n")
    rows = zip(WIDE_EFFECT, WIDE_CAUSE)
    (tmp_path / "pair0004.txt").write_text(
        "".join(f"{effect} 7 {cause} {-i}\n" for i, (effect, cause) in enumerate(rows)))
    (tmp_path / "pairmeta.txt").write_text(
        "0001 1 1 2 2 1.0\n"
        "0002 2 2 1 1 0.5\n"
        "0003 1 2 3 3 1.0\n"  # cause spans two columns: excluded
        "0004 3 3 1 1 0.25\n"
    )
    return tmp_path


def test_load_tuebingen_convention(tmp_path):
    pairs = load_tuebingen(make_corpus(tmp_path))
    assert [p.id for p in pairs] == ["pair0001", "pair0002", "pair0004"]
    assert pairs[0].label == X_CAUSES_Y and pairs[0].weight == 1.0
    assert pairs[1].label == Y_CAUSES_X and pairs[1].weight == 0.5
    # column order of the file is preserved
    assert np.array_equal(pairs[1].x, [1.0, 3.0, 5.0])
    # of a wider file only the meta's columns are read, in stored order
    assert pairs[2].label == Y_CAUSES_X and pairs[2].weight == 0.25
    assert np.array_equal(pairs[2].x, WIDE_EFFECT)
    assert np.array_equal(pairs[2].y, WIDE_CAUSE)


def test_tuebingen_layout_benchmarks_with_its_weights(tmp_path):
    cfg = TrainConfig(hidden_width=6, vi_epochs=40, warmup_epochs=8, map_epochs=40,
                      mc_eval_samples=4, seed=1)
    result = run_benchmark(load_tuebingen(make_corpus(tmp_path)), cfg)
    assert result.n_failed == 0
    assert [(r.id, r.label, r.weight) for r in result.rows] == [
        ("pair0001", X_CAUSES_Y, 1.0), ("pair0002", Y_CAUSES_X, 0.5),
        ("pair0004", Y_CAUSES_X, 0.25)]


def test_load_tuebingen_reads_only_pair_id_file_names(tmp_path):
    # the meta's id 0001 names pair0001.txt; a file named 0001.txt is not read
    (tmp_path / "0001.txt").write_text("1 2\n3 4\n5 6\n")
    (tmp_path / "pairmeta.txt").write_text("0001 1 1 2 2 1.0\n")
    with pytest.raises(FileNotFoundError, match="pair0001.txt"):
        load_tuebingen(tmp_path)


def test_load_tuebingen_missing_meta(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_tuebingen(tmp_path)


def test_load_tuebingen_column_mismatch(tmp_path):
    (tmp_path / "pairmeta.txt").write_text("0001 1 1 2 2 1.0\n")
    for body, reason in [("1\n2\n3\n", "pair0001.txt: meta names columns 1/2 but file has 1"),
                         ("1 2\n3 x\n5 6\n", "line 2: pair0001.txt: non-numeric token")]:
        (tmp_path / "pair0001.txt").write_text(body)
        with pytest.raises(ParseError, match=f"^pair 0001: {reason}"):
            load_tuebingen(tmp_path)


def test_write_dataset_roundtrip(tmp_path):
    pairs = generate_dataset(GeneratorSpec("LS-s", 4, 25, seed=2))
    names = write_dataset(tmp_path, pairs)
    assert len(names) == 4
    loaded = load_tuebingen(tmp_path)
    assert [p.label for p in loaded] == [p.label for p in pairs]
    for orig, back in zip(pairs, loaded):
        assert np.array_equal(back.x, orig.x)
        assert np.array_equal(back.y, orig.y)
    labels = (tmp_path / "labels.csv").read_text().splitlines()
    assert labels[0] == "id,direction"
    assert labels[1] == f"pair0001,{X_CAUSES_Y}"
    assert labels[2] == f"pair0002,{Y_CAUSES_X}"
