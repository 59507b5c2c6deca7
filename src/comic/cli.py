"""Command-line interface: generate, score, benchmark, fetch-tuebingen.

Configuration precedence: built-in defaults, then a key=value config file,
then explicit flags. COMIC_SEED in the environment overrides the default
seed but loses to a config file or a --seed flag. Outputs echo the full
effective configuration so every run is self-describing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import data as data_mod
from .codelength import TrainConfig, score_pair
from .data import (GeneratorSpec, decode_utf8, generate_dataset, load_pair_file, load_tuebingen,
                   write_dataset)
from .errors import ArgumentError, FetchError, NumericError, ParseError
from .evaluation import machine_info, run_benchmark, write_result

# TrainConfig fields whose config key, and so whose flag, is not the field's name
ALIASES = {"mc_eval_samples": "mc_eval"}
TRAIN_FIELDS = {ALIASES.get(f.name, f.name): f for f in fields(TrainConfig)}
CONFIG_KEYS = {**{key: type(f.default) for key, f in TRAIN_FIELDS.items()},
               "parallelism": int, "format": str}

FORMATS = ("csv", "json")


def _read_config_file(path: str) -> dict:
    values = {}
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
        try:
            values[key] = CONFIG_KEYS[key](raw.strip())
        except ValueError:
            raise ParseError(f"{path}: bad value for {key}", lineno) from None
        if key == "format" and values[key] not in FORMATS:
            raise ParseError(f"{path}: format must be one of {', '.join(FORMATS)}, "
                             f"got {values[key]!r}", lineno)
    return values


def _effective_settings(args) -> dict:
    settings = {**{key: f.default for key, f in TRAIN_FIELDS.items()},
                "parallelism": 1, "format": "csv"}
    env_seed = os.environ.get("COMIC_SEED")
    if env_seed is not None:
        try:
            settings["seed"] = int(env_seed)
        except ValueError:
            raise ArgumentError(f"COMIC_SEED must be an integer, got {env_seed!r}") from None
    if getattr(args, "config", None):
        settings.update(_read_config_file(args.config))
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    return settings


def _train_config(settings: dict) -> TrainConfig:
    return TrainConfig(**{f.name: settings[key] for key, f in TRAIN_FIELDS.items()})


def _add_config_flags(parser: argparse.ArgumentParser, keys) -> None:
    """One --key-name flag per config key in keys, plus --config and --out."""
    for key in keys:
        choices = FORMATS if key == "format" else None
        parser.add_argument("--" + key.replace("_", "-"), type=CONFIG_KEYS[key],
                            choices=choices, default=None)
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--out", default=None)


def cmd_generate(args) -> int:
    settings = _effective_settings(args)
    spec = GeneratorSpec(args.family, args.n_pairs, args.n_samples, settings["seed"])
    out_dir = Path(args.out or f"{spec.family}-pairs")
    pairs = generate_dataset(spec)
    names = write_dataset(out_dir, pairs)
    files = {}
    for name in names + ["pairmeta.txt", "labels.csv"]:
        files[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    manifest = {
        "family": spec.family,
        "n_pairs": spec.n_pairs,
        "n_samples": spec.n_samples,
        "seed": spec.seed,
        "generator_version": data_mod.GENERATOR_VERSION,
        "files": files,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(names)} pairs to {out_dir}")
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
        "delta_xy": report.forward.delta,
        "delta_yx": report.backward.delta,
        "final_delta": report.final_delta,
        "decision": report.decision,
        "confidence": report.confidence,
        "l_marginal_x": report.forward.l_marginal_cause,
        "l_cond_y_given_x": report.forward.l_conditional_effect,
        "l_marginal_y": report.backward.l_marginal_cause,
        "l_cond_x_given_y": report.backward.l_conditional_effect,
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
    directory = Path(args.data_dir)
    if not directory.is_dir():
        raise ArgumentError(f"{directory} is not a directory")
    pairs = load_tuebingen(directory)
    if not pairs:
        raise ArgumentError(f"no usable pairs in {directory}")
    # made before scoring, so a bad --out fails before a long run, not after it
    out_dir = Path(args.out or "benchmark-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_benchmark(pairs, cfg, parallelism=settings["parallelism"])
    sys.stdout.write(write_result(result, out_dir)[settings["format"]])
    if result.n_failed == len(result.rows):
        return 1
    return 0


def cmd_fetch_tuebingen(args) -> int:
    out_dir = args.out or "tuebingen"
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
    p_gen.add_argument("family", help="AN, AN-s, LS, LS-s or MN-U")
    p_gen.add_argument("n_pairs", type=int)
    p_gen.add_argument("n_samples", type=int)
    _add_config_flags(p_gen, ["seed"])
    p_gen.set_defaults(func=cmd_generate)

    p_score = sub.add_parser("score", help="score one pair file")
    p_score.add_argument("pair_file")
    p_score.add_argument("--skip-header", action="store_true")
    _add_config_flags(p_score, TRAIN_FIELDS)
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
