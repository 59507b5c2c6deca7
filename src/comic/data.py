"""Datasets: standardization, synthetic pair generators, file formats, fetching.

Pair files are plain text, one observation per line, whitespace-separated
decimal columns; load_pair_file reads a file of exactly two. A dataset
directory couples pair files with a pairmeta.txt whose rows read: id,
cause-start, cause-end, effect-start, effect-end, weight. Row <id> names the
file pair<id>.txt and the pair id pair<id>; its columns are 1-based, each
range runs first to last, and the two ranges share no column. The meta row
alone selects a pair's columns, label and weight. Generated datasets add a
labels.csv sidecar (id, direction). Every input file is read as UTF-8
through decode_utf8, so a stray byte is a ParseError naming the file and a
leading byte-order mark is ignored.

standardize centres and scales a column from exactly rounded sums
(math.fsum), so its bits do not depend on the row order, on a power-of-two
rescaling or on numpy's CPU dispatch level.

The AN and LS generators draw their Gaussian-process functions from a
quadrature Fourier series of the squared-exponential kernel (_gp_draws): no
kernel matrix and no BLAS call, so generated pairs are the same at any BLAS
thread count. The draws walk x in blocks of _GP_BLOCK rows: each block forms
the series' cos/sin basis once, and within it an LS pair's two draws share
that basis. Time and output are O(n); temporaries are bounded by one block.
GENERATOR_VERSION names the generators' output; it changes whenever a
generated value does.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ArgumentError, FetchError, ParseError, check_count, check_int, check_real
from .rng import RngStream, check_seed

X_CAUSES_Y = "x_causes_y"
Y_CAUSES_X = "y_causes_x"
UNDECIDED = "undecided"
DIRECTIONS = (X_CAUSES_Y, Y_CAUSES_X)

FAMILIES = ("AN", "AN-s", "LS", "LS-s", "MN-U")

GENERATOR_VERSION = "2"

TUEBINGEN_URL = "https://webdav.tuebingen.mpg.de/cause-effect/"
TUEBINGEN_DIR = "tuebingen"  # where fetch_tuebingen writes the corpus by default
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
        if self.label not in (None, *DIRECTIONS):
            raise ArgumentError(f"unknown label {self.label!r}")


def swap_pair(pair: PairDataset) -> PairDataset:
    """Exchange the two columns, mirroring the label."""
    mirrored = {X_CAUSES_Y: Y_CAUSES_X, Y_CAUSES_X: X_CAUSES_Y, None: None}[pair.label]
    return PairDataset(pair.y.copy(), pair.x.copy(), pair.weight, mirrored, pair.id)


@np.errstate(under="ignore")  # an underflow loses only parts far below the spread
def standardize(v: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Center and scale to population std 1; returns (vector, mean, std).

    The column is first scaled by the power of two that brings its largest
    |x_i| into [0.5, 1), so no step overflows. The mean is the double-double
    m_hi + m_lo of two exactly rounded sums (math.fsum), so deviations far
    below the mean's own ulp (a column like 2000 + 1e-9 i) survive; the
    variance is the exactly rounded sum of the squared deviations over n.
    Every other step is one correctly rounded elementwise ldexp, -, *, /
    or sqrt, so the result does not depend on the row order, on any
    power-of-two rescaling of the column, or on numpy's CPU dispatch level.
    No entry is -0.0, so a sort of the output meets no signed-zero ties.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ArgumentError("standardize needs a 1-D vector with at least 2 entries")
    if not np.isfinite(v).all():
        raise ArgumentError("standardize requires finite values")
    n = v.size
    e = math.frexp(float(np.abs(v).max()))[1]
    u = np.ldexp(v, -e) + 0.0  # adding +0.0 turns -0.0 into +0.0 and changes no other value
    terms = u.tolist()
    m_hi = math.fsum(terms) / n
    m_lo = math.fsum(terms + [-m_hi] * n) / n
    d = (u - m_hi) - m_lo
    var = math.fsum((d * d).tolist()) / n
    if var == 0:
        raise ArgumentError("degenerate variable: zero variance")
    root = math.sqrt(var)
    return d / root, math.ldexp(m_hi + m_lo, e), math.ldexp(root, e)


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    n_pairs: int
    n_samples: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "family", normalize_family(self.family))
        object.__setattr__(self, "n_pairs", check_count("n_pairs", self.n_pairs, 1))
        object.__setattr__(self, "n_samples", check_count("n_samples", self.n_samples, 2))
        object.__setattr__(self, "seed", check_seed(self.seed))


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
# _GP_SCALES[j] = sqrt(a_j / 4 / sqrt(2 pi) exp(-f_j^2 / 2)) for f_j = j / 4,
# with a_0 = 1 and a_j = 2 otherwise, is written out because the bits of
# np.exp vary with numpy's CPU dispatch level.
_GP_FREQS = np.arange(36) / 4.0
# rows of x per block of _gp_draws: a block's phase, cos, sin and products
# (about 0.4 MB at 256 rows) stay within L2
_GP_BLOCK = 256
_GP_SCALES = np.array(list(map(float.fromhex, """
    0x1.43638953eaed2p-2 0x1.c2401c76ff332p-2 0x1.ada1c882c254ep-2 0x1.8d58389a565f4p-2
    0x1.642d6ab9b5184p-2 0x1.3573c9b09692dp-2 0x1.0495bfea6be40p-2 0x1.a95dd25bf87fbp-3
    0x1.507e1a67d04a5p-3 0x1.01ff7107b6b38p-3 0x1.7f7494eb7c689p-4 0x1.14314bb991030p-4
    0x1.81a080c80bf5ep-5 0x1.04eda2388d4b4p-5 0x1.563dea54f3cc8p-6 0x1.b31595ffd13d3p-7
    0x1.0c0c345772d0bp-7 0x1.401dfdbe0817bp-8 0x1.728a084ba7501p-9 0x1.9fb5113daf8cap-10
    0x1.c40842ecfd8ccp-11 0x1.dc6895caf5875p-12 0x1.e6a6be4c30b3bp-13 0x1.e1d1dc35853d0p-14
    0x1.ce5bfb21ae2f5p-15 0x1.ae08b9e52711ep-16 0x1.83a9c0c2a49b3p-17 0x1.52b7059e9b7fap-18
    0x1.1ed783799fe55p-19 0x1.d6e0ee076ec11p-21 0x1.769aeba68bb0ep-22 0x1.20d8a7a45da4ap-23
    0x1.afbc6527ec85ep-25 0x1.38ba9103e37e9p-26 0x1.b71cccc3e9c97p-28 0x1.2acd0ecda3ab9p-29
""".split())))


def _gp_draws(x: np.ndarray, streams: Sequence[RngStream]) -> np.ndarray:
    """One GP function (signal std 1, lengthscale 1) per stream, evaluated at
    x: row k of the (len(streams), len(x)) result is stream k's draw.

    f(x) = sum_j s_j (a_j cos(w_j x) + b_j sin(w_j x)) with a, b standard
    normal, drawn once per stream. x is walked in blocks of _GP_BLOCK rows;
    each block forms its cos/sin basis once and every draw sums over that
    basis, so an LS pair's f and g share it within each block. Time and
    output are O(len(x)), temporaries are bounded by one block, and each
    entry is the same row sum whatever the block size. Only elementwise
    cos/sin and a row sum: no kernel matrix and no BLAS call, so the draws
    do not depend on the BLAS thread count.
    """
    coefs = [_GP_SCALES * stream.generator().standard_normal((2, _GP_FREQS.size))
             for stream in streams]
    out = np.empty((len(coefs), x.size))
    for start in range(0, x.size, _GP_BLOCK):
        rows = slice(start, start + _GP_BLOCK)
        phase = np.multiply.outer(x[rows], _GP_FREQS)
        cos, sin = np.cos(phase), np.sin(phase)
        for f, (a, b) in zip(out, coefs):
            f[rows] = (cos * a + sin * b).sum(axis=1)
    return out


def _sigmoid_draw(x: np.ndarray, stream: RngStream) -> np.ndarray:
    """A random injective sigmoid-type function a*u/(1+|u|), u = b*(x+c), evaluated at x."""
    gen = stream.generator()
    a = gen.uniform(1.0, 3.0) * (1.0 if gen.random() < 0.5 else -1.0)
    b = gen.uniform(0.5, 2.0)
    c = gen.uniform(-2.0, 2.0)
    u = b * (x + c)
    return a * u / (1.0 + np.abs(u))


def generate_pair(spec: GeneratorSpec, pair_index: int) -> PairDataset:
    """One synthetic cause-effect pair; deterministic in (spec, pair_index)."""
    pair_index = check_int("pair_index", pair_index)
    if not 0 <= pair_index < spec.n_pairs:
        raise ArgumentError(f"pair_index {pair_index} outside [0, {spec.n_pairs})")
    stream = RngStream(spec.seed).child("generate", spec.family, pair_index)
    gen = stream.child("noise").generator()
    x = stream.child("x").generator().standard_normal(spec.n_samples)
    fam = spec.family
    names = ("f", "g") if fam in ("LS", "LS-s") else ("f",)
    streams = [stream.child(name) for name in names]
    if fam in ("AN", "LS"):
        # one walk over x draws f and, for LS, g on each block's shared basis
        f, *g = _gp_draws(x, streams)
    else:
        f, *g = [_sigmoid_draw(x, s) for s in streams]

    if fam == "MN-U":
        y = f * gen.uniform(0.5, 1.5, size=spec.n_samples)
    else:
        sigma = stream.child("sigma").generator().uniform(0.2, 0.6)
        noise = sigma * gen.standard_normal(spec.n_samples)
        if fam in ("LS", "LS-s"):
            y = f + (np.abs(g[0]) + 0.3) * noise
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
    """The numeric rows of a pair file's content; name labels its errors.

    Each line after the header is split once, and float() converts the
    tokens of every non-blank line at once. The file is accepted when it has
    at least 2 rows of one width and every value is finite. Otherwise the
    same token lists are walked by line only to raise: within a line a
    non-numeric token, then a non-finite value, then a width unlike the
    first row's; the first bad line wins, then a file short of 2 rows.
    """
    header = 1 if skip_header else 0
    lines = list(map(str.split, decode_utf8(content, name).splitlines()[header:]))
    rows = list(filter(None, lines))
    width = len(rows[0]) if rows else 0
    try:
        values = np.array(list(map(float, itertools.chain.from_iterable(rows))))
    except ValueError:
        values = None
    if (values is None or len(rows) < 2 or len(set(map(len, rows))) > 1
            or not np.isfinite(values).all()):
        for lineno, tokens in enumerate(lines, start=header + 1):
            try:
                finite = all(map(math.isfinite, [float(t) for t in tokens]))
            except ValueError:
                raise ParseError(f"{name}: non-numeric token in {tokens}", lineno) from None
            if not finite:
                raise ParseError(f"{name}: non-finite value", lineno)
            if tokens and len(tokens) != width:
                raise ParseError(f"{name}: expected {width} columns, found {len(tokens)}",
                                 lineno)
        raise ParseError(f"{name}: fewer than 2 data rows (first data line {header + 1})")
    return values.reshape(len(rows), width)


def load_pair_file(path: str | Path, skip_header: bool = False) -> PairDataset:
    """Read a two-column pair file, unlabelled, with unit weight and the file's stem as id.

    A wider file is rejected as multidimensional, a narrower one as short of a column.
    """
    path = Path(path)
    data = _parse_matrix(path.read_bytes(), path.name, skip_header)
    if data.shape[1] < 2:
        raise ArgumentError(f"{path.name}: {data.shape[1]} column; a pair file needs 2")
    if data.shape[1] > 2:
        raise ArgumentError(f"{path.name}: {data.shape[1]} columns; pair is multidimensional")
    return PairDataset(data[:, 0], data[:, 1], id=path.stem)


def write_pair_file(path: str | Path, pair: PairDataset) -> None:
    lines = map("{:.17g} {:.17g}".format, pair.x.tolist(), pair.y.tolist())
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
    One leading byte-order mark is dropped after decoding, so a bad byte's
    offset still counts the mark's three bytes.
    """
    try:
        text = content.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{name}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    return text.removeprefix("\ufeff")


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
    """Write the files of labelled pairs, pairmeta.txt and labels.csv; returns the names
    of every file written, in that order."""
    for i, pair in enumerate(pairs, start=1):
        if pair.label is None:
            raise ArgumentError(f"pair {i} ({pair.id!r}) has no label; "
                                "pairmeta.txt cannot record an unknown direction")
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
        label_lines.append(f"pair{pair_id},{pair.label}")
        names.append(name)
    (directory / "pairmeta.txt").write_text("\n".join(meta_lines) + "\n")
    (directory / "labels.csv").write_text("\n".join(label_lines) + "\n")
    return names + ["pairmeta.txt", "labels.csv"]


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
    out_dir: str | Path = TUEBINGEN_DIR,
    log: Callable[[str], None] = lambda msg: None,
) -> int:
    """Download the cause-effect pair corpus; returns count of new files.

    Existing files are kept (idempotent); every download is parsed before
    an atomic write, so no partial or corrupt file ever persists.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = url if url.endswith("/") else url + "/"

    def fetch(name: str, check: Callable[[bytes, str], object]) -> int:
        """1 if name was downloaded, checked by check and written; 0 if it was there."""
        target = out / name
        if target.exists():
            return 0
        content = _download(base + name, log)
        try:
            check(content, name)
        except ParseError:
            log(f"discarding corrupt download {name}")
            raise
        _write_atomic(target, content)
        log(f"wrote {name}")
        return 1

    written = fetch("pairmeta.txt", _parse_meta_text)
    return written + sum(fetch(f"pair{row.pair_id}.txt", _parse_matrix)
                         for row in parse_pairmeta(out / "pairmeta.txt"))
