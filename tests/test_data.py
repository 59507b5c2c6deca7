import dataclasses
import decimal
import hashlib
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from comic import data as data_mod
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


ORACLE_COLUMNS = {
    "normal-n500": lambda: np.random.default_rng(4).standard_normal(500) * 3.0 + 1e3,
    "LS-n2000": lambda: generate_pair(GeneratorSpec("LS", 1, 2000, seed=3), 0).y,
    "AN-s-n4000": lambda: generate_pair(GeneratorSpec("AN-s", 1, 4000, seed=5), 0).y,
    "three-ties-n2000": lambda: np.random.default_rng(6).choice([-1.5, 0.1, 7.25], 2000),
    # the columnwise stage declines the entries nearest the mean of this one
    "near-mean-n2000": lambda: 2000.0 + 1e-9 * np.arange(2000),
    # and the whole of this one, whose common denominator exceeds 2^900
    "span-1e600-n500": lambda: np.geomspace(1e-300, 1e300, 500) * np.tile([1.0, -1.0], 250),
}


@pytest.mark.parametrize("column", ORACLE_COLUMNS)
def test_standardize_matches_oracle_on_normal_column(column):
    v = ORACLE_COLUMNS[column]()
    assert _standardize_bits(standardize, v) == _standardize_bits(standardize_oracle, v)


def count_sqrt_ratio_calls(monkeypatch):
    calls = []
    sqrt_ratio = data_mod._sqrt_ratio
    monkeypatch.setattr(data_mod, "_sqrt_ratio",
                        lambda num, den: calls.append(1) or sqrt_ratio(num, den))
    return calls


@pytest.mark.parametrize("family, seed", [("LS", 4), ("AN", 2)])
def test_standardize_settles_a_generated_column_columnwise(monkeypatch, family, seed):
    # the columnwise stage decides every entry; only the std takes the decimal root
    v = generate_pair(GeneratorSpec(family, 1, 2000, seed=seed), 0).y
    calls = count_sqrt_ratio_calls(monkeypatch)
    standardize(v)
    assert len(calls) == 1


@pytest.mark.parametrize("column", [
    ORACLE_COLUMNS["near-mean-n2000"],
    ORACLE_COLUMNS["LS-n2000"],
    lambda: np.random.default_rng(7).standard_normal(300) * 5.0 - 2.0,
], ids=["near-mean-n2000", "LS-n2000", "normal-n300"])
def test_standardize_without_the_columnwise_stage_matches_oracle(monkeypatch, column):
    # a margin of 1 makes the error bound wider than any rounding cell, so each
    # nonzero deviation takes the decimal root, and so does the std
    v = column()
    expected = _standardize_bits(standardize_oracle, v)
    exact = list(map(Fraction, v.tolist()))
    mean = sum(exact) / len(exact)
    nonzero = sum(t != mean for t in exact)
    monkeypatch.setattr(data_mod, "_ROUND_MARGIN", 1.0)
    calls = count_sqrt_ratio_calls(monkeypatch)
    assert _standardize_bits(standardize, v) == expected
    assert len(calls) == nonzero + 1


# (X, the double below a rounding midpoint, offset): with root chosen so that
# X root / 2^260 is (1 + offset) times that midpoint, the columnwise stage's own
# error (about 2^-106 relative) can put its estimate on the other side of the
# midpoint. With _ROUND_MARGIN = 0 it then accepts the wrong neighbour for each
# of these entries. The first four midpoints lie just below a power of two.
ROUNDING_BOUNDARY_CASES = [
    (2908071642091607, "0x1.fffffffffffffp+0", -2.0 ** -111),
    (7023682231748101, "0x1.fffffffffffffp-2", 2.0 ** -110),
    (6198716944325787, "0x1.fffffffffffffp-1", 2.0 ** -112),
    (2762613259875643, "0x1.fffffffffffffp-5", -2.0 ** -111),
    (6442545293783301, "0x1.87b28f170ebe6p-4", 2.0 ** -111),
    (5788203522843729, "0x1.c7acb760fa1e4p-2", -2.0 ** -111),
    (3350450408750069, "0x1.cb4532d7046d1p+2", -7 * 2.0 ** -112),
    (6696150306263995, "0x1.ccd580e13df4fp+4", -2.0 ** -110),
]


def test_round_columnwise_accepts_only_correctly_rounded_entries():
    # the column [0, X] at scale 1 has T = X and A = (-X, X), so its entries
    # are -+X root / unit; an entry 2^40 times farther from the midpoint is
    # far outside the error bound and must be accepted
    unit = 1 << 260
    for x, low, offset in ROUNDING_BOUNDARY_CASES:
        low = float.fromhex(low)
        midpoint = (Fraction(low) + Fraction(float(np.nextafter(low, np.inf)))) / 2
        for off, decidable in ((offset, False), (offset * 2.0 ** 40, True)):
            root = round(midpoint * (1 + Fraction(off)) * unit / x)
            r, ok = data_mod._round_columnwise(np.array([0.0, float(x)]), 1, x, root, unit)
            exact = float(Fraction(x * root, unit))
            assert r[ok].tolist() == np.array([-exact, exact])[ok].tolist(), (x, off)
            assert ok.all() or not decidable, (x, off)


def test_standardize_ignores_the_callers_decimal_context():
    v = np.random.default_rng(5).standard_normal(40) * 7.0 - 2.0
    expected = _standardize_bits(standardize_oracle, v)
    with localcontext() as ctx:
        ctx.prec = 5
        ctx.rounding = decimal.ROUND_FLOOR
        ctx.traps[decimal.Inexact] = True
        assert _standardize_bits(standardize, v) == expected


def test_standardize_ignores_the_callers_numpy_error_state():
    # the middle entry is the mean, whose zero the columnwise stage declines
    v = np.array([1.0, 2.0, 3.0, 2.0])
    expected = _standardize_bits(standardize_oracle, v)
    with np.errstate(all="raise"):
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
    from comic.data import _gp_draws, _sigmoid_draw
    from comic.rng import RngStream

    stream = RngStream(spec.seed).child("generate", spec.family, pair_index)
    if spec.family in ("AN", "LS"):
        return _gp_draws(pair.x, [stream.child(which)])[0]
    return _sigmoid_draw(pair.x, stream.child(which))


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
        assert pair.x.size == 200
        assert np.isfinite(pair.x).all() and np.isfinite(pair.y).all()


def test_gp_series_kernel_is_the_squared_exponential():
    from comic.data import _GP_FREQS, _GP_SCALES

    r = np.linspace(-16.0, 16.0, 6401)
    kernel = (_GP_SCALES ** 2 * np.cos(np.multiply.outer(r, _GP_FREQS))).sum(axis=1)
    assert np.abs(kernel - np.exp(-0.5 * r * r)).max() < 1e-15


def test_gp_scales_are_the_formula_to_one_ulp():
    from comic.data import _GP_FREQS, _GP_SCALES

    for w, scale in zip(_GP_FREQS.tolist(), _GP_SCALES.tolist()):
        weight = 2.0 if w > 0.0 else 1.0
        formula = math.sqrt(weight * 0.25 / math.sqrt(2.0 * math.pi) * math.exp(-0.5 * w * w))
        assert abs(scale - formula) <= math.ulp(formula)


def test_gp_draws_have_unit_variance_and_unit_lengthscale():
    from comic.data import _gp_draws
    from comic.rng import RngStream

    x = np.array([0.0, 0.5, 2.0])
    draws = _gp_draws(x, [RngStream(4).child("gp", i) for i in range(4000)])
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


# pair 0 of an AN or LS spec of this many rows walks x in two full blocks
# of 256 rows (data._GP_BLOCK) and a partial third
CROSSING_N = 2 * 256 + 17


@pytest.mark.parametrize("family,n,calls", [
    pytest.param("AN", 50, 1, id="AN-1"),
    pytest.param("LS", 50, 1, id="LS-1"),
    pytest.param("LS-s", 50, 0, id="LS-s-0"),
    pytest.param("AN", CROSSING_N, 3, id="AN-crossing-3"),
    pytest.param("LS", CROSSING_N, 3, id="LS-crossing-3"),
    pytest.param("LS-s", CROSSING_N, 0, id="LS-s-crossing-0"),
])
def test_generate_pair_evaluates_the_gp_basis_once(monkeypatch, family, n, calls):
    # the cos/sin basis is formed once per block of x, and an LS pair draws
    # f and g at the same x: each block's basis serves both
    counted = []
    real = np.cos

    def counting_cos(*args, **kwargs):
        counted.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "cos", counting_cos)
    generate_pair(GeneratorSpec(family, 1, n, seed=3), 0)
    assert len(counted) == calls


def test_generate_pair_temporaries_are_bounded_by_one_block():
    # x, y, the draws and the noise are a few n-vectors; the basis lives one
    # block at a time, so the peak stays under 16 doubles per row
    spec = GeneratorSpec("LS", 1, 20_000, seed=3)
    generate_pair(spec, 0)
    tracemalloc.start()
    try:
        generate_pair(spec, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * spec.n_samples


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


# the same digest of pair 0 of a CROSSING_N-row spec at seed 5: the seams
# between blocks of x must not move a generated value
CROSSING_SHA256 = {
    "2": {
        "AN": "86a6649aa6502944198dcee9bb6120222ffef7624f59eef72e8811ca39e7f770",
        "LS": "9fd260c7252098778456fcb762aa56da3e625997994dd2de0683ea0648e121a7",
    },
}


@pytest.mark.parametrize("family", ["AN", "LS", "AN-s", "LS-s", "MN-U"])
def test_generated_gp_pairs_are_pinned_per_generator_version(family):
    pair = generate_pair(GeneratorSpec(family, 1, 64, seed=5), 0)
    digest = hashlib.sha256(pair.x.tobytes() + pair.y.tobytes()).hexdigest()
    assert digest == GENERATED_SHA256[GENERATOR_VERSION][family]


@pytest.mark.parametrize("family", ["AN", "LS"])
def test_block_crossing_gp_pairs_are_pinned_per_generator_version(family):
    pair = generate_pair(GeneratorSpec(family, 1, CROSSING_N, seed=5), 0)
    digest = hashlib.sha256(pair.x.tobytes() + pair.y.tobytes()).hexdigest()
    assert digest == CROSSING_SHA256[GENERATOR_VERSION][family]


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


@pytest.mark.parametrize("pair_index", [0.5, "0", None, -1, 2])
def test_generate_pair_rejects_non_integer_pair_index(pair_index):
    # an integer outside [0, n_pairs) is rejected too
    reason = (rf"pair_index {pair_index} outside \[0, 2\)" if isinstance(pair_index, int)
              else "pair_index must be an integer")
    with pytest.raises(ArgumentError, match=reason):
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


def parse_lines_reference(text, name, skip_header=False):
    """The line-by-line parser that _parse_matrix's one pass must agree with."""
    rows = []
    ncols = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if (skip_header and lineno == 1) or not line.strip():
            continue
        tokens = line.split()
        try:
            values = [float(t) for t in tokens]
        except ValueError:
            raise ParseError(f"{name}: non-numeric token in {tokens}", lineno) from None
        if any(not math.isfinite(t) for t in values):
            raise ParseError(f"{name}: non-finite value", lineno)
        if ncols is None:
            ncols = len(values)
        elif len(values) != ncols:
            raise ParseError(f"{name}: expected {ncols} columns, found {len(values)}", lineno)
        rows.append(values)
    if ncols is None or len(rows) < 2:
        start = 2 if skip_header else 1
        raise ParseError(f"{name}: fewer than 2 data rows (first data line {start})")
    return np.asarray(rows)


def _parsed(parse, text, skip_header):
    try:
        data = parse(text, skip_header)
    except ParseError as e:
        return "error", str(e)
    return data.shape, data.tobytes()


@pytest.mark.parametrize("text,skip_header,expected", [
    ("1 2\n3 4\n5 inf\n6 7\n8 9 10\n", False, "line 3: f.txt: non-finite value"),
    ("1 2\n3 4 5\n6 x\n", False, "line 2: f.txt: expected 2 columns, found 3"),
    ("1 2\n3 x\n5 6 7\n", False, "line 2: f.txt: non-numeric token in ['3', 'x']"),
    ("1 2\r\n3 4\r\n5 6\r\n", False, None),
    ("1\xa02\n3\u20034\n5\t6\n", False, None),
    ("1 2\x0c3 4\x0c5 6", False, None),
    ("1\x0c2\n3 4\n", False, "line 3: f.txt: expected 1 columns, found 2"),
    ("1 2\x853 4\u20285 6\x0b7 8", False, None),
    ("1_000 2\n3 4_5.5\n", False, None),
    ("\n1 2\n3 4\n", True, None),
    ("0.5 1.5\n1 2\n3 4\n", True, None),
    ("x y z\n1 2\n\n3 4\n", True, None),
    ("1 2\n3 4\n", False, None),
    ("1 2\n\n  \n", False, "f.txt: fewer than 2 data rows (first data line 1)"),
    ("1 2\n3 4\n", True, "f.txt: fewer than 2 data rows (first data line 2)"),
    ("", False, "f.txt: fewer than 2 data rows (first data line 1)"),
    # a bad token or width is named before a file short of 2 rows
    ("x\n", False, "line 1: f.txt: non-numeric token in ['x']"),
    ("1 inf\n", False, "line 1: f.txt: non-finite value"),
    ("nan 1\n\n", False, "line 1: f.txt: non-finite value"),
    ("1 2\n3\n", False, "line 2: f.txt: expected 2 columns, found 1"),
    ("x y\n1 2\n", True, "f.txt: fewer than 2 data rows (first data line 2)"),
])
def test_parse_matrix_agrees_with_the_line_loop(text, skip_header, expected):
    one_pass = _parsed(lambda t, h: data_mod._parse_matrix(t.encode(), "f.txt", h),
                       text, skip_header)
    assert one_pass == _parsed(lambda t, h: parse_lines_reference(t, "f.txt", h),
                               text, skip_header)
    if expected is None:
        assert one_pass[0] != "error"
    else:
        assert one_pass == ("error", expected)


PARSE_TOKENS = ["1", "2.5", "-3e2", "x", "inf", "nan", "1_0", "0x1", "--1", "1e400"]


@st.composite
def token_grid_texts(draw):
    """Up to 5 lines of up to 3 tokens, joined by odd spaces and line breaks;
    a line with no tokens is blank."""
    text = ""
    for tokens in draw(st.lists(st.lists(st.sampled_from(PARSE_TOKENS), max_size=3),
                                max_size=5)):
        text += draw(st.sampled_from([" ", "\t", "\xa0", "\u2003"])).join(tokens)
        text += draw(st.sampled_from(["\n", "\r\n", "\x0b", "\x0c", "\x85", "\u2028"]))
    return text


@settings(max_examples=300, deadline=None)
@given(token_grid_texts(), st.booleans())
def test_parse_matrix_agrees_with_the_line_loop_on_token_grids(text, skip_header):
    assert (_parsed(lambda t, h: data_mod._parse_matrix(t.encode(), "f.txt", h),
                    text, skip_header)
            == _parsed(lambda t, h: parse_lines_reference(t, "f.txt", h), text, skip_header))


@pytest.mark.parametrize("text, message", [
    ("1 2 3 4\n5 6 7 8\n", "pair.txt: 4 columns; pair is multidimensional"),
    ("1\n5\n", "pair.txt: 1 column; a pair file needs 2"),
], ids=["4-columns", "1-column"])
def test_load_pair_file_multidimensional_rejected(tmp_path, text, message):
    path = tmp_path / "pair.txt"
    path.write_text(text)
    with pytest.raises(ArgumentError) as err:
        load_pair_file(path)
    assert str(err.value) == message


def test_load_pair_file_too_short(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("1 2\n")
    with pytest.raises(ParseError):
        load_pair_file(path)


def test_write_pair_file_writes_17_significant_digits(tmp_path):
    pair = PairDataset(np.array([0.1, -2.5e-300, 1e22]), np.array([1 / 3, 0.0, -7.0]))
    path = tmp_path / "pair.txt"
    write_pair_file(path, pair)
    assert path.read_text() == "".join(
        f"{a:.17g} {b:.17g}\n" for a, b in zip(pair.x, pair.y))


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


def test_byte_order_mark_is_ignored_in_pair_and_meta_files(tmp_path):
    body = "0.5 -1.25\n2 3e-4\n-7 1\n".encode()
    meta = "0001 1 1 2 2 1.0\n0002 2 2 1 1 2\n".encode()
    for name, content in [("plain", b""), ("marked", b"\xef\xbb\xbf")]:
        (tmp_path / name).mkdir()
        (tmp_path / name / "pair.txt").write_bytes(content + body)
        (tmp_path / name / "pairmeta.txt").write_bytes(content + meta)
    plain, marked = (load_pair_file(tmp_path / name / "pair.txt") for name in ("plain", "marked"))
    assert (marked.x.tobytes(), marked.y.tobytes()) == (plain.x.tobytes(), plain.y.tobytes())
    assert (parse_pairmeta(tmp_path / "marked" / "pairmeta.txt")
            == parse_pairmeta(tmp_path / "plain" / "pairmeta.txt"))


def test_bad_byte_offset_counts_the_byte_order_mark(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_bytes(b"\xef\xbb\xbf1 2\n\xff")
    with pytest.raises(ParseError, match="pair.txt: not UTF-8 text .* at byte 7"):
        load_pair_file(path)


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


@pytest.mark.parametrize("x,y,label,reason", [
    (np.zeros((3, 2)), np.zeros(6), None, "1-D vectors of equal length"),   # x is a matrix
    (np.zeros(3), np.zeros((3, 1)), None, "1-D vectors of equal length"),
    (np.arange(3.0), np.arange(4.0), None, "1-D vectors of equal length"),
    (np.array([1.0]), np.array([2.0]), None, "at least 2 observations"),
    (np.arange(3.0), np.arange(3.0), "x_cause_y", "unknown label 'x_cause_y'"),
], ids=["2-D-x", "2-D-y", "unequal", "one-observation", "unknown-label"])
def test_pair_dataset_rejects_bad_columns(x, y, label, reason):
    with pytest.raises(ArgumentError, match=reason):
        PairDataset(x, y, label=label)


@pytest.mark.parametrize("weight", ["1", None, True, np.True_])
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


def test_load_tuebingen_missing_pair_file(tmp_path):
    (tmp_path / "pairmeta.txt").write_text("0001 1 1 2 2 1.0\n")
    with pytest.raises(FileNotFoundError, match="pair 0001: data file .*pair0001.txt missing"):
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
    assert names == ["pair0001.txt", "pair0002.txt", "pair0003.txt", "pair0004.txt",
                     "pairmeta.txt", "labels.csv"]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names)
    loaded = load_tuebingen(tmp_path)
    assert [p.label for p in loaded] == [p.label for p in pairs]
    for orig, back in zip(pairs, loaded):
        assert np.array_equal(back.x, orig.x)
        assert np.array_equal(back.y, orig.y)
    labels = (tmp_path / "labels.csv").read_text().splitlines()
    assert labels[0] == "id,direction"
    assert labels[1] == f"pair0001,{X_CAUSES_Y}"
    assert labels[2] == f"pair0002,{Y_CAUSES_X}"


def test_write_dataset_rejects_an_unlabelled_pair_before_writing(tmp_path):
    labelled = generate_pair(GeneratorSpec("AN", 1, 5, seed=1), 0)
    unlabelled = PairDataset(labelled.x, labelled.y, id="loose")
    out = tmp_path / "out"
    with pytest.raises(ArgumentError, match=r"^pair 2 \('loose'\) has no label"):
        write_dataset(out, [labelled, unlabelled])
    assert not out.exists()


def test_generator_spec_is_frozen_and_replace_validates():
    # an assignment after construction used to skip every check: family
    # "bogus" generated pair bogus-0000 from the sigmoid branch
    spec = GeneratorSpec("an", 2, 20)
    assert spec.family == "AN"
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.family = "bogus"
    with pytest.raises(ArgumentError, match="unknown family 'bogus'"):
        dataclasses.replace(spec, family="bogus")
    with pytest.raises(ArgumentError, match="n_samples must be >= 2"):
        dataclasses.replace(spec, n_samples=1)
    assert dataclasses.replace(spec, family="ls-s").family == "LS-s"
