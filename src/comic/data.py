"""Datasets: standardization, synthetic pair generators, file formats, fetching.

Pair files are plain text, one observation per line, whitespace-separated
decimal columns; load_pair_file reads a file of exactly two. A dataset
directory couples pair files with a pairmeta.txt whose rows read: id,
cause-start, cause-end, effect-start, effect-end, weight. Row <id> names the
file pair<id>.txt and the pair id pair<id>; its columns are 1-based, each
range runs first to last, and the two ranges share no column. The meta row
alone selects a pair's columns, label and weight. Generated datasets add a
labels.csv sidecar (id, direction). Every input file is read as UTF-8
through decode_utf8, so a stray byte is a ParseError naming the file.

The AN and LS generators draw their Gaussian-process functions from a
quadrature Fourier series of the squared-exponential kernel (_gp_draw): O(n)
per draw, no kernel matrix and no BLAS call, so generated pairs are the same
at any BLAS thread count. GENERATOR_VERSION names the generators' output; it
changes whenever a generated value does.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ArgumentError, FetchError, ParseError, check_int, check_real
from .rng import RngStream, check_seed

X_CAUSES_Y = "x_causes_y"
Y_CAUSES_X = "y_causes_x"
UNDECIDED = "undecided"

FAMILIES = ("AN", "AN-s", "LS", "LS-s", "MN-U")

GENERATOR_VERSION = "2"

TUEBINGEN_URL = "https://webdav.tuebingen.mpg.de/cause-effect/"
FETCH_RETRIES = 3  # download attempts per file before fetch_tuebingen gives up


@dataclass
class PairDataset:
    """N paired scalar observations plus benchmark bookkeeping."""

    x: np.ndarray
    y: np.ndarray
    weight: float = 1.0
    label: str | None = None
    id: str = ""

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 1 or self.y.ndim != 1 or self.x.size != self.y.size:
            raise ArgumentError("x and y must be 1-D vectors of equal length")
        if self.x.size < 2:
            raise ArgumentError("a pair needs at least 2 observations")
        self.weight = check_real("weight", self.weight)
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ArgumentError(f"weight must be positive and finite, got {self.weight}")
        if self.label not in (None, X_CAUSES_Y, Y_CAUSES_X):
            raise ArgumentError(f"unknown label {self.label!r}")

    @property
    def n(self) -> int:
        return self.x.size


def swap_pair(pair: PairDataset) -> PairDataset:
    """Exchange the two columns, mirroring the label."""
    mirrored = {X_CAUSES_Y: Y_CAUSES_X, Y_CAUSES_X: X_CAUSES_Y, None: None}[pair.label]
    return PairDataset(pair.y.copy(), pair.x.copy(), pair.weight, mirrored, pair.id)


# A fixed context rather than a copy of the caller's, so that no precision,
# rounding mode or trap set elsewhere in the process can change or stop it.
_DECIMAL = Context(prec=50, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX, traps=[])


def _sqrt_ratio(num: int, den: int) -> float:
    # deterministic: 50-digit decimal sqrt of num/den, then one rounding to binary
    return float(_DECIMAL.sqrt(_DECIMAL.divide(Decimal(num), Decimal(den))))


def standardize(v: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Center and scale to population std 1; returns (vector, mean, std).

    Mean and variance are accumulated in exact integer arithmetic and each
    output entry is rounded once from the exact ratio d_i / sqrt(var). The
    result is therefore a deterministic function of the exact input values,
    and affine maps that introduce no per-element rounding (any power-of-two
    rescaling, exactly representable shifts) change nothing downstream.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ArgumentError("standardize needs a 1-D vector with at least 2 entries")
    if not np.isfinite(v).all():
        raise ArgumentError("standardize requires finite values")
    # every float is N_i / scale for one common power-of-two denominator scale
    ratios = [t.as_integer_ratio() for t in v.tolist()]
    scale = max(den for _, den in ratios)
    nums = [num * (scale // den) for num, den in ratios]
    n = len(nums)
    total = sum(nums)
    # deviation d_i = A_i / (n scale); variance = sum(A_i^2) / (n^3 scale^2)
    devs = [n * num - total for num in nums]
    sum_sq = sum(a * a for a in devs)
    if sum_sq == 0:
        raise ArgumentError("degenerate variable: zero variance")
    out = np.empty(n)
    for i, a in enumerate(devs):
        if a == 0:
            out[i] = 0.0
        else:
            root = _sqrt_ratio(a * a * n, sum_sq)
            out[i] = -root if a < 0 else root
    return out, total / (n * scale), _sqrt_ratio(sum_sq, n**3 * scale * scale)


@dataclass
class GeneratorSpec:
    family: str
    n_pairs: int
    n_samples: int
    seed: int = 0

    def __post_init__(self):
        self.family = normalize_family(self.family)
        self.n_pairs = check_int("n_pairs", self.n_pairs)
        if self.n_pairs < 1:
            raise ArgumentError("n_pairs must be >= 1")
        self.n_samples = check_int("n_samples", self.n_samples)
        if self.n_samples < 2:
            raise ArgumentError("n_samples must be >= 2")
        self.seed = check_seed(self.seed)


def normalize_family(name: str) -> str:
    if not isinstance(name, str):
        raise ArgumentError(f"family must be a string, got {name!r}")
    canon = name.strip().upper().replace("_", "-")
    table = {fam.upper(): fam for fam in FAMILIES}
    if canon not in table:
        raise ArgumentError(f"unknown family {name!r}; choose from {', '.join(FAMILIES)}")
    return table[canon]


# Quadrature Fourier features of the squared-exponential kernel exp(-r^2/2):
# the trapezoid rule on the frequency grid j/4, j = 0..35, applied to its
# spectral density N(0, 1). By Poisson summation the series' kernel is
# exp(-r^2/2) up to aliasing at period 8*pi; for |r| <= 16 the two agree to
# about 4e-16, and the density is below 3e-17 past the last frequency.
_GP_FREQS = np.arange(36) / 4.0
_GP_SCALES = np.sqrt(np.where(_GP_FREQS > 0.0, 2.0, 1.0) * 0.25 / math.sqrt(2.0 * math.pi)
                     * np.exp(-0.5 * _GP_FREQS * _GP_FREQS))


def _gp_draw(x: np.ndarray, stream: RngStream) -> np.ndarray:
    """A GP function (signal std 1, lengthscale 1) evaluated at x, in O(len(x)).

    f(x) = sum_j s_j (a_j cos(w_j x) + b_j sin(w_j x)) with a, b standard
    normal. Only elementwise cos/sin and a row sum: no kernel matrix and no
    BLAS call, so the draw does not depend on the BLAS thread count.
    """
    a, b = stream.generator().standard_normal((2, _GP_FREQS.size))
    phase = np.multiply.outer(x, _GP_FREQS)
    return (np.cos(phase) * (_GP_SCALES * a) + np.sin(phase) * (_GP_SCALES * b)).sum(axis=1)


def _sigmoid_draw(stream: RngStream) -> Callable[[np.ndarray], np.ndarray]:
    """Random injective sigmoid-type function t -> a*b*(t+c)/(1+|b*(t+c)|)."""
    gen = stream.generator()
    a = gen.uniform(1.0, 3.0) * (1.0 if gen.random() < 0.5 else -1.0)
    b = gen.uniform(0.5, 2.0)
    c = gen.uniform(-2.0, 2.0)

    def s(t: np.ndarray) -> np.ndarray:
        u = b * (t + c)
        return a * u / (1.0 + np.abs(u))

    return s


def generate_pair(spec: GeneratorSpec, pair_index: int) -> PairDataset:
    """One synthetic cause-effect pair; deterministic in (spec, pair_index)."""
    pair_index = check_int("pair_index", pair_index)
    if not 0 <= pair_index < spec.n_pairs:
        raise ArgumentError(f"pair_index {pair_index} outside [0, {spec.n_pairs})")
    stream = RngStream(spec.seed).child("generate", spec.family, pair_index)
    gen = stream.child("noise").generator()
    x = stream.child("x").generator().standard_normal(spec.n_samples)
    fam = spec.family

    if fam in ("AN", "LS"):
        f = _gp_draw(x, stream.child("f"))
    else:
        f = _sigmoid_draw(stream.child("f"))(x)

    if fam == "MN-U":
        noise = gen.uniform(0.5, 1.5, size=spec.n_samples)
        y = f * noise
    else:
        sigma = stream.child("sigma").generator().uniform(0.2, 0.6)
        noise = sigma * gen.standard_normal(spec.n_samples)
        if fam in ("LS", "LS-s"):
            g = _gp_draw(x, stream.child("g")) if fam == "LS" \
                else _sigmoid_draw(stream.child("g"))(x)
            y = f + (np.abs(g) + 0.3) * noise
        else:
            y = f + noise

    return PairDataset(x, y, 1.0, X_CAUSES_Y, id=f"{fam}-{pair_index:04d}")


def generate_dataset(spec: GeneratorSpec) -> list[PairDataset]:
    """All pairs of a spec, with every second pair stored effect-first.

    The alternating swap keeps both ground-truth directions present, which
    the rank-based metrics require; generate_pair itself always returns the
    cause in the first column.
    """
    pairs = []
    for i in range(spec.n_pairs):
        pair = generate_pair(spec, i)
        pairs.append(swap_pair(pair) if i % 2 == 1 else pair)
    return pairs


def _parse_matrix(content: bytes, name: str, skip_header: bool = False) -> np.ndarray:
    """The numeric rows of a pair file's content; name labels its errors."""
    rows = []
    ncols = None
    start = 2 if skip_header else 1
    for lineno, line in enumerate(decode_utf8(content, name).splitlines(), start=1):
        if skip_header and lineno == 1:
            continue
        if not line.strip():
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
            raise ParseError(
                f"{name}: expected {ncols} columns, found {len(values)}", lineno
            )
        rows.append(values)
    if ncols is None or len(rows) < 2:
        raise ParseError(f"{name}: fewer than 2 data rows (first data line {start})")
    return np.asarray(rows)


def load_pair_file(path: str | Path, skip_header: bool = False) -> PairDataset:
    """Read a two-column pair file, unlabelled, with unit weight and the file's stem as id.

    A wider file is rejected as multidimensional.
    """
    path = Path(path)
    data = _parse_matrix(path.read_bytes(), path.name, skip_header)
    if data.shape[1] != 2:
        raise ArgumentError(f"{path.name}: {data.shape[1]} columns; pair is multidimensional")
    return PairDataset(data[:, 0], data[:, 1], id=path.stem)


def write_pair_file(path: str | Path, pair: PairDataset) -> None:
    lines = [f"{a:.17g} {b:.17g}" for a, b in zip(pair.x, pair.y)]
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class MetaRow:
    pair_id: str
    cause_first: int
    cause_last: int
    effect_first: int
    effect_last: int
    weight: float

    @property
    def univariate(self) -> bool:
        return self.cause_first == self.cause_last and self.effect_first == self.effect_last


def decode_utf8(content: bytes, name: str) -> str:
    """The text of an input file's content; bytes that are not UTF-8 are a ParseError.

    Pair, meta and config files all go through this one step; name labels the error.
    """
    try:
        return content.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{name}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def parse_pairmeta(path: str | Path) -> list[MetaRow]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"missing meta file {path}")
    return _parse_meta_text(path.read_bytes(), path.name)


def _parse_meta_text(content: bytes, name: str) -> list[MetaRow]:
    """The rows of a pairmeta file's content; name labels its errors."""
    text = decode_utf8(content, name)
    rows = []
    first_lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 6:
            raise ParseError(f"{name}: expected 6 fields, found {len(tokens)}", lineno)
        if "/" in tokens[0] or "\\" in tokens[0]:
            raise ParseError(f"{name}: pair id {tokens[0]!r} is not a plain file name", lineno)
        try:
            *cols, weight = (float(t) for t in tokens[1:6])
        except ValueError:
            raise ParseError(f"{name}: malformed meta row {line!r}", lineno) from None
        if not all(c.is_integer() for c in cols):
            raise ParseError(f"{name}: non-integer column in {line!r}", lineno)
        if not (math.isfinite(weight) and weight > 0):
            raise ParseError(f"{name}: weight must be positive and finite, got {tokens[5]!r}",
                             lineno)
        row = MetaRow(tokens[0], *(int(c) for c in cols), weight)
        if min(row.cause_first, row.effect_first) < 1:
            raise ParseError(f"{name}: columns are 1-based in {line!r}", lineno)
        if row.cause_first > row.cause_last or row.effect_first > row.effect_last:
            raise ParseError(f"{name}: column range runs backwards in {line!r}", lineno)
        if row.cause_first <= row.effect_last and row.effect_first <= row.cause_last:
            raise ParseError(f"{name}: cause and effect share a column in {line!r}", lineno)
        first = first_lines.setdefault(row.pair_id, lineno)
        if first != lineno:
            raise ParseError(f"{name}: pair id {row.pair_id!r} repeats the row on line {first}",
                             lineno)
        rows.append(row)
    if not rows:
        raise ParseError(f"{name}: empty meta file")
    return rows


def load_tuebingen(directory: str | Path) -> list[PairDataset]:
    """Load every univariate pair of a pair/meta directory.

    Keeps the stored column order; the label records which column the meta
    designates as the cause. Pairs whose cause or effect spans more than
    one column are skipped. On the standard cause-effect corpus this
    retains 99 of 108 pairs.
    """
    directory = Path(directory)
    pairs = []
    for row in parse_pairmeta(directory / "pairmeta.txt"):
        if not row.univariate:
            continue
        path = directory / f"pair{row.pair_id}.txt"
        if not path.exists():
            raise FileNotFoundError(f"pair {row.pair_id}: data file {path} missing")
        try:
            data = _parse_matrix(path.read_bytes(), path.name)
        except ParseError as e:
            raise ParseError(f"pair {row.pair_id}: {e}") from None
        cause, effect = row.cause_first, row.effect_first
        if max(cause, effect) > data.shape[1]:
            raise ParseError(f"pair {row.pair_id}: {path.name}: meta names columns "
                             f"{cause}/{effect} but file has {data.shape[1]}")
        first, second = sorted((cause, effect))
        label = X_CAUSES_Y if first == cause else Y_CAUSES_X
        pairs.append(PairDataset(data[:, first - 1], data[:, second - 1], row.weight, label,
                                 f"pair{row.pair_id}"))
    return pairs


def write_dataset(directory: str | Path, pairs: Sequence[PairDataset]) -> list[str]:
    """Write pair files, pairmeta.txt and labels.csv; returns file names."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta_lines = []
    label_lines = ["id,direction"]
    names = []
    for i, pair in enumerate(pairs, start=1):
        pair_id = f"{i:04d}"
        name = f"pair{pair_id}.txt"
        write_pair_file(directory / name, pair)
        if pair.label == Y_CAUSES_X:
            cause, effect = 2, 1
        else:
            cause, effect = 1, 2
        meta_lines.append(f"{pair_id} {cause} {cause} {effect} {effect} {pair.weight:.17g}")
        label_lines.append(f"pair{pair_id},{pair.label or ''}")
        names.append(name)
    (directory / "pairmeta.txt").write_text("\n".join(meta_lines) + "\n")
    (directory / "labels.csv").write_text("\n".join(label_lines) + "\n")
    return names


def _download(url: str, log: Callable[[str], None]) -> bytes:
    # imported here: the network stack (email, ssl) costs about 20 ms to import
    import http.client
    import urllib.error
    import urllib.request

    last_error: Exception | None = None
    for attempt in range(1, FETCH_RETRIES + 1):
        try:
            with urllib.request.urlopen(url, timeout=60) as response:
                return response.read()
        except (urllib.error.URLError, http.client.HTTPException, OSError, TimeoutError) as e:
            last_error = e
            log(f"attempt {attempt}/{FETCH_RETRIES} failed for {url}: {e}")
    raise FetchError(f"could not fetch {url} after {FETCH_RETRIES} attempts: {last_error}")


def _write_atomic(path: Path, content: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fetch_tuebingen(
    url: str = TUEBINGEN_URL,
    out_dir: str | Path = "tuebingen",
    log: Callable[[str], None] = lambda msg: None,
) -> int:
    """Download the cause-effect pair corpus; returns count of new files.

    Existing files are kept (idempotent); every download is parsed before
    an atomic write, so no partial or corrupt file ever persists.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = url if url.endswith("/") else url + "/"
    written = 0

    meta_path = out / "pairmeta.txt"
    if not meta_path.exists():
        content = _download(base + "pairmeta.txt", log)
        _parse_meta_text(content, meta_path.name)
        _write_atomic(meta_path, content)
        written += 1
        log("wrote pairmeta.txt")

    for row in parse_pairmeta(meta_path):
        name = f"pair{row.pair_id}.txt"
        target = out / name
        if target.exists():
            continue
        content = _download(base + name, log)
        try:
            _parse_matrix(content, name)
        except ParseError:
            log(f"discarding corrupt download {name}")
            raise
        _write_atomic(target, content)
        written += 1
        log(f"wrote {name}")
    return written
