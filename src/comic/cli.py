"""Command-line interface: generate, score, benchmark, fetch-tuebingen.

CONFIG_KEYS holds every setting with its default: TrainConfig's fields under
their own names, then parallelism and format. Each key is also a --key-name
flag. A setting comes from its default, then a key=value config file, then
an explicit flag. Outputs echo the full effective configuration, so a run's
echoed config, written as key=value lines, is a config file that repeats it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import data as data_mod
from .codelength import TrainConfig, score_pair
from .data import (GeneratorSpec, decode_utf8, generate_dataset, load_pair_file, load_tuebingen,
                   write_dataset)
from .errors import ArgumentError, FetchError, NumericError, ParseError, check_count
from .evaluation import machine_info, run_benchmark, write_result

# every setting's default; a key's type is its default's type
CONFIG_KEYS = {**asdict(TrainConfig()), "parallelism": 1, "format": "csv"}

FORMATS = ("csv", "json")


def _read_config_file(path: str) -> dict:
    values, first_lines = {}, {}
    text = decode_utf8(Path(path).read_bytes(), path)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}: expected key=value", lineno)
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ParseError(f"{path}: unknown config key {key!r}", lineno)
        first = first_lines.setdefault(key, lineno)
        if first != lineno:
            raise ParseError(f"{path}: {key} is already set on line {first}", lineno)
        try:
            values[key] = type(CONFIG_KEYS[key])(raw.strip())
        except ValueError:
            raise ParseError(f"{path}: bad value for {key}", lineno) from None
        if key == "format" and values[key] not in FORMATS:
            raise ParseError(f"{path}: format must be one of {', '.join(FORMATS)}, "
                             f"got {values[key]!r}", lineno)
    return values


def _effective_settings(args) -> dict:
    settings = dict(CONFIG_KEYS)
    if args.config:
        settings.update(_read_config_file(args.config))
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    return settings


def _train_config(settings: dict) -> TrainConfig:
    return TrainConfig(**{f.name: settings[f.name] for f in fields(TrainConfig)})


def _add_config_flags(parser: argparse.ArgumentParser, keys) -> None:
    """One --key-name flag per config key in keys, plus --config and --out."""
    for key in keys:
        choices = FORMATS if key == "format" else None
        parser.add_argument("--" + key.replace("_", "-"), type=type(CONFIG_KEYS[key]),
                            choices=choices, default=None)
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--out", default=None)


def cmd_generate(args) -> int:
    settings = _effective_settings(args)
    spec = GeneratorSpec(args.family, args.n_pairs, args.n_samples, settings["seed"])
    out_dir = Path(args.out or f"{spec.family}-pairs")
    pairs = generate_dataset(spec)
    files = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
             for name in write_dataset(out_dir, pairs)}
    manifest = {**asdict(spec), "generator_version": data_mod.GENERATOR_VERSION, "files": files}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pairs)} pairs to {out_dir}")
    return 0


def cmd_score(args) -> int:
    settings = _effective_settings(args)
    cfg = _train_config(settings)
    out = Path(args.out) if args.out else None
    # checked before training, so a bad --out fails at once, not after the score
    if out is not None and out.is_dir():
        raise IsADirectoryError(f"--out {out} is a directory")
    if out is not None and not out.parent.is_dir():
        raise FileNotFoundError(f"--out {out}: no directory {out.parent}")
    pair = load_pair_file(args.pair_file, skip_header=args.skip_header)
    report = score_pair(pair, cfg)
    payload = {
        "id": pair.id,
        **asdict(report),
        "seed": settings["seed"],
        "config": asdict(cfg),
        "machine": machine_info(),
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is not None:
        out.write_text(text)
    sys.stdout.write(text)
    return 0


def cmd_benchmark(args) -> int:
    settings = _effective_settings(args)
    cfg = _train_config(settings)
    # run_benchmark checks it too, but only after the pairs are read and --out is made
    parallelism = check_count("parallelism", settings["parallelism"], 1)
    directory = Path(args.data_dir)
    if not directory.is_dir():
        raise ArgumentError(f"{directory} is not a directory")
    pairs = load_tuebingen(directory)
    if not pairs:
        raise ArgumentError(f"no usable pairs in {directory}")
    # made before scoring, so a bad --out fails before a long run, not after it
    out_dir = Path(args.out or "benchmark-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_benchmark(pairs, cfg, parallelism=parallelism)
    sys.stdout.write(write_result(result, out_dir)[settings["format"]])
    if result.n_failed == len(result.rows):
        return 1
    return 0


def cmd_fetch_tuebingen(args) -> int:
    out_dir = args.out or data_mod.TUEBINGEN_DIR
    count = data_mod.fetch_tuebingen(
        url=args.url, out_dir=out_dir, log=lambda msg: print(msg, file=sys.stderr)
    )
    print(f"{count} new files in {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comic",
        description="Infer the causal direction between two variables by "
        "comparing variational Bayesian codelengths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic pair dataset")
    p_gen.add_argument("family", help="one of " + ", ".join(data_mod.FAMILIES))
    p_gen.add_argument("n_pairs", type=int)
    p_gen.add_argument("n_samples", type=int)
    _add_config_flags(p_gen, ["seed"])
    p_gen.set_defaults(func=cmd_generate)

    p_score = sub.add_parser("score", help="score one pair file")
    p_score.add_argument("pair_file")
    p_score.add_argument("--skip-header", action="store_true")
    _add_config_flags(p_score, [f.name for f in fields(TrainConfig)])
    p_score.set_defaults(func=cmd_score)

    p_bench = sub.add_parser("benchmark", help="score a pair/meta directory")
    p_bench.add_argument("data_dir")
    _add_config_flags(p_bench, CONFIG_KEYS)
    p_bench.set_defaults(func=cmd_benchmark)

    p_fetch = sub.add_parser("fetch-tuebingen", help="download the cause-effect corpus")
    p_fetch.add_argument("--url", default=data_mod.TUEBINGEN_URL)
    p_fetch.add_argument("--out", default=None)
    p_fetch.set_defaults(func=cmd_fetch_tuebingen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ArgumentError, ParseError, NumericError, FetchError, OSError) as e:
        error = {"error": {"type": type(e).__name__, "message": str(e)}}
        sys.stdout.write(json.dumps(error) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
