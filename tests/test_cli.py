import json
import re
import threading
from dataclasses import fields
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from comic import cli
from comic.cli import main
from comic.codelength import TrainConfig
from comic.data import FAMILIES, X_CAUSES_Y, GeneratorSpec, fetch_tuebingen, generate_dataset
from comic.errors import FetchError
from comic.evaluation import machine_info, run_benchmark

FAST_FLAGS = [
    "--hidden-width", "6", "--map-epochs", "40", "--vi-epochs", "40",
    "--warmup-epochs", "8", "--mc-eval-samples", "4",
]


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------- generate


def test_generate_writes_deterministic_files(tmp_path, capsys):
    out_dir = tmp_path / "an"
    code, _ = run_cli(capsys, ["generate", "AN", "5", "30", "--seed", "1",
                               "--out", str(out_dir)])
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["labels.csv", "manifest.json", "pair0001.txt", "pair0002.txt",
                     "pair0003.txt", "pair0004.txt", "pair0005.txt", "pairmeta.txt"]
    manifest1 = json.loads((out_dir / "manifest.json").read_text())

    again = tmp_path / "an2"
    run_cli(capsys, ["generate", "AN", "5", "30", "--seed", "1", "--out", str(again)])
    manifest2 = json.loads((again / "manifest.json").read_text())
    assert manifest1["files"] == manifest2["files"]
    assert manifest1["seed"] == 1
    for name in ("pair0001.txt", "pairmeta.txt", "labels.csv"):
        assert (out_dir / name).read_bytes() == (again / name).read_bytes()


def test_generate_rejects_single_sample(tmp_path, capsys):
    code, out = run_cli(capsys, ["generate", "AN", "2", "1", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize("argv", [
    ["generate", "AN", "2", "20", "--hidden-width", "5"],
    ["generate", "AN", "2", "20", "--parallelism", "0"],
    ["score", "pair.txt", "--format", "csv"],
    ["score", "pair.txt", "--parallelism", "2"],
    ["score", "pair.txt", "--lr-max", "0.01"],
    ["benchmark", "pairs", "--lr-min", "0"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_file_keys_a_subcommand_does_not_read_are_accepted(tmp_path, capsys):
    cfg = tmp_path / "all.cfg"
    cfg.write_text("seed=3\nhidden_width=6\nparallelism=2\nformat=json\n")
    code, _ = run_cli(capsys, ["generate", "AN", "2", "20", "--config", str(cfg),
                               "--out", str(tmp_path / "gen")])
    assert code == 0
    manifest = json.loads((tmp_path / "gen" / "manifest.json").read_text())
    assert manifest["seed"] == 3


# ---------------------------------------------------------------- score


@pytest.fixture()
def smoke_pair_file(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(80)
    y = np.tanh(2 * x) + 0.1 * rng.standard_normal(80)
    path = tmp_path / "smoke.txt"
    path.write_text("\n".join(f"{a:.17g} {b:.17g}" for a, b in zip(x, y)) + "\n")
    return path


def test_score_smoke_pair(smoke_pair_file, capsys):
    code, out = run_cli(capsys, ["score", str(smoke_pair_file), "--seed", "5", *FAST_FLAGS])
    assert code == 0
    payload = json.loads(out)
    assert payload["decision"] == X_CAUSES_Y
    assert payload["final_delta"] == payload["delta_yx"] - payload["delta_xy"]
    assert payload["confidence"] == abs(payload["final_delta"])
    assert payload["seed"] == 5
    assert payload["config"]["hidden_width"] == 6
    assert payload["machine"] == machine_info()
    assert payload["delta_xy"] == payload["l_marginal_x"] + payload["l_cond_y_given_x"]
    out_file = smoke_pair_file.parent / "score.json"
    _, again = run_cli(capsys, ["score", str(smoke_pair_file), "--seed", "5", *FAST_FLAGS,
                                "--out", str(out_file)])
    assert out_file.read_text() == again == out


def test_score_repeat_is_byte_identical(smoke_pair_file, capsys):
    _, out1 = run_cli(capsys, ["score", str(smoke_pair_file), "--seed", "9", *FAST_FLAGS])
    _, out2 = run_cli(capsys, ["score", str(smoke_pair_file), "--seed", "9", *FAST_FLAGS])
    assert out1 == out2


def test_score_constant_column_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "flat.txt"
    path.write_text("2 1\n2 3\n2 5\n")
    code, out = run_cli(capsys, ["score", str(path), *FAST_FLAGS])
    assert code == 1
    assert "degenerate variable" in json.loads(out)["error"]["message"]


def test_score_ignores_a_seed_in_the_environment(smoke_pair_file, capsys, monkeypatch):
    # the seed is set on the command line or in a config file, nowhere else
    _, out = run_cli(capsys, ["score", str(smoke_pair_file), *FAST_FLAGS])
    monkeypatch.setenv("COMIC_SEED", "41")
    _, out_env = run_cli(capsys, ["score", str(smoke_pair_file), *FAST_FLAGS])
    assert json.loads(out_env)["seed"] == 0
    assert json.loads(out_env)["final_delta"] == json.loads(out)["final_delta"]
    _, out_flag = run_cli(capsys, ["score", str(smoke_pair_file), "--seed", "2", *FAST_FLAGS])
    assert json.loads(out_flag)["seed"] == 2


def test_echoed_config_replays_the_run(smoke_pair_file, tmp_path, capsys):
    _, out = run_cli(capsys, ["score", str(smoke_pair_file), "--seed", "5", *FAST_FLAGS])
    cfg = tmp_path / "echo.cfg"
    cfg.write_text("".join(f"{key}={value}\n" for key, value in json.loads(out)["config"].items()))
    code, again = run_cli(capsys, ["score", str(smoke_pair_file), "--config", str(cfg)])
    assert code == 0
    assert again == out


@pytest.mark.parametrize("command", ["generate", "score"])
@pytest.mark.parametrize("flag,config", [
    (str(2**63), None),
    (str(2**70), None),
    (None, str(-2**64)),
])
def test_seed_outside_64_bits_is_a_json_error(command, flag, config, smoke_pair_file, tmp_path,
                                             capsys):
    # by the flag or by a config file's seed= line
    argv = {
        "generate": ["generate", "AN", "2", "10", "--out", str(tmp_path / "gen")],
        "score": ["score", str(smoke_pair_file), *FAST_FLAGS],
    }[command]
    if flag is not None:
        argv += ["--seed", flag]
    else:
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(f"seed={config}\n")
        argv += ["--config", str(cfg)]
    code, out = run_cli(capsys, argv)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ArgumentError"
    assert "seed" in error["message"]


def test_config_file_and_flag_override(smoke_pair_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    # a comment line and blank lines, one of spaces only, are skipped
    cfg.write_text("# fast settings\nseed=7\n\nhidden_width=6\nmap_epochs=40\nvi_epochs=40\n"
                   "  \nwarmup_epochs=8\nmc_eval_samples=4\n")
    _, out = run_cli(capsys, ["score", str(smoke_pair_file), "--config", str(cfg)])
    payload = json.loads(out)
    assert payload["seed"] == 7
    assert payload["config"]["map_epochs"] == 40
    _, out2 = run_cli(capsys, ["score", str(smoke_pair_file), "--config", str(cfg),
                               "--seed", "8"])
    assert json.loads(out2)["seed"] == 8


def test_config_keys_are_train_config_fields_then_run_settings():
    assert cli.CONFIG_KEYS == {**{f.name: f.default for f in fields(TrainConfig)},
                               "parallelism": 1, "format": "csv"}


FAST_KEYS = {"hidden_width": 6, "map_epochs": 40, "vi_epochs": 40, "warmup_epochs": 8,
             "mc_eval_samples": 4}


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("field", [f.name for f in fields(TrainConfig)])
def test_every_train_config_field_reaches_score(field, route, smoke_pair_file, tmp_path,
                                                capsys):
    # 9 is valid for each field next to the fast settings, and none of them
    # or of the defaults
    if route == "flag":
        argv = [*FAST_FLAGS, "--" + field.replace("_", "-"), "9"]
    else:
        cfg = tmp_path / "one.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in {**FAST_KEYS, field: 9}.items()))
        argv = ["--config", str(cfg)]
    code, out = run_cli(capsys, ["score", str(smoke_pair_file), *argv])
    assert code == 0, out
    config = json.loads(out)["config"]
    assert config[field] == 9
    assert getattr(TrainConfig(), field) != 9


@pytest.mark.parametrize("route", ["flag", "config"])
def test_hidden_width_1_is_a_json_error(route, smoke_pair_file, tmp_path, capsys):
    # training needs a hidden width of at least 2
    if route == "flag":
        argv = [*FAST_FLAGS, "--hidden-width", "1"]
    else:
        cfg = tmp_path / "one.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in {**FAST_KEYS, "hidden_width": 1}.items()))
        argv = ["--config", str(cfg)]
    code, out = run_cli(capsys, ["score", str(smoke_pair_file), *argv])
    assert code == 1
    error = json.loads(out)["error"]
    assert error == {"type": "ArgumentError", "message": "hidden_width must be >= 2"}


def test_config_file_unknown_key(smoke_pair_file, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for text, reason in [("not_a_key=1\n", "unknown config key 'not_a_key'"),
                         ("seed 3\n", "expected key=value"),
                         ("hidden_width=abc\n", "bad value for hidden_width"),
                         ("lr_max=0.01\n", "unknown config key 'lr_max'"),
                         ("mc_eval=4\n", "unknown config key 'mc_eval'")]:
        cfg.write_text(text)
        code, out = run_cli(capsys, ["score", str(smoke_pair_file), "--config", str(cfg)])
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "ParseError"
        assert error["message"] == f"line 1: {cfg}: {reason}"


def test_config_file_rejects_a_repeated_key(smoke_pair_file, tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("seed=1\nhidden_width=6\n# and once more\n seed = 2\n")
    code, out = run_cli(capsys, ["score", str(smoke_pair_file), "--config", str(cfg)])
    assert code == 1
    error = json.loads(out)["error"]
    assert error == {"type": "ParseError",
                     "message": f"line 4: {cfg}: seed is already set on line 1"}


def test_readme_lists_the_training_flags_of_score(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"Today they are\s+`([^`]*)`", readme).group(1).split()
    with pytest.raises(SystemExit):
        main(["score", "--help"])
    flags = dict.fromkeys(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == [f for f in flags if f not in ("--help", "--skip-header", "--config", "--out")]


def test_generate_help_names_every_family(capsys, monkeypatch):
    # wide enough that argparse does not wrap a name at its hyphen
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main(["generate", "--help"])
    out = capsys.readouterr().out
    assert all(re.search(rf"[ ,]{re.escape(family)}(,|$)", out, re.M) for family in FAMILIES)


def test_config_file_rejects_unknown_format(smoke_pair_file, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed=1\nformat=xml\n")
    code, out = run_cli(capsys, ["score", str(smoke_pair_file), "--config", str(cfg)])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert "line 2" in error["message"] and "'xml'" in error["message"]


def test_score_non_utf8_pair_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"1 2\n3 4\n5 \xff6\n")
    code, out = run_cli(capsys, ["score", str(path), *FAST_FLAGS])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert "latin1.txt" in error["message"] and "UTF-8" in error["message"]


def test_non_utf8_config_file_is_a_parse_error(smoke_pair_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed=7\n# caf\xe9\n")
    code, out = run_cli(capsys, ["score", str(smoke_pair_file), "--config", str(cfg)])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert "run.cfg" in error["message"] and "UTF-8" in error["message"]


def test_byte_order_mark_is_ignored_in_pair_and_config_files(smoke_pair_file, tmp_path,
                                                             capsys):
    marked_pair = tmp_path / "marked" / smoke_pair_file.name
    marked_pair.parent.mkdir()
    marked_pair.write_bytes(b"\xef\xbb\xbf" + smoke_pair_file.read_bytes())
    lines = "".join(f"{key}={value}\n" for key, value in {"seed": 7, **FAST_KEYS}.items())
    cfg, marked_cfg = tmp_path / "run.cfg", tmp_path / "marked.cfg"
    cfg.write_text(lines)
    marked_cfg.write_bytes(b"\xef\xbb\xbf" + lines.encode())
    outs = [run_cli(capsys, ["score", str(pair), "--config", str(config)])
            for pair, config in [(smoke_pair_file, cfg), (marked_pair, cfg),
                                 (smoke_pair_file, marked_cfg)]]
    assert [code for code, _ in outs] == [0, 0, 0]
    assert outs[1][1] == outs[0][1] and outs[2][1] == outs[0][1]


def test_score_skip_header(tmp_path, capsys):
    path = tmp_path / "headered.txt"
    body = "\n".join(f"{v} {v + 0.5}" for v in np.linspace(-2, 2, 30))
    path.write_text("x y\n" + body + "\n")
    code, _ = run_cli(capsys, ["score", str(path), *FAST_FLAGS])
    assert code == 1
    code, _ = run_cli(capsys, ["score", str(path), "--skip-header", *FAST_FLAGS])
    assert code == 0


# ---------------------------------------------------------------- benchmark


def test_benchmark_end_to_end(tmp_path, capsys):
    data_dir = tmp_path / "mnu"
    run_cli(capsys, ["generate", "MN-U", "4", "30", "--seed", "4", "--out", str(data_dir)])
    out_dir = tmp_path / "results"
    code, out = run_cli(capsys, ["benchmark", str(data_dir), "--seed", "4",
                                 "--out", str(out_dir), *FAST_FLAGS])
    assert code == 0
    assert (out_dir / "results.csv").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert set(summary["aggregates"]) == {"accuracy", "weighted_accuracy",
                                          "bi_auroc", "decision_rate_area", "n_failed"}
    assert [entry["decision_rate"] for entry in summary["decision_rate_curve"]][-1] == 1.0
    assert "accuracy," in out


def test_generate_then_benchmark_matches_in_memory_pipeline(tmp_path, capsys):
    # the documented family run: its scores are those of run_benchmark on the
    # pairs generate_dataset returns, to the last bit (only the pair ids differ)
    data_dir = tmp_path / "ls-s"
    run_cli(capsys, ["generate", "LS-s", "4", "40", "--seed", "11", "--out", str(data_dir)])
    out_dir = tmp_path / "results"
    code, _ = run_cli(capsys, ["benchmark", str(data_dir), "--seed", "11",
                               "--out", str(out_dir), *FAST_FLAGS])
    assert code == 0
    rows = (out_dir / "results.csv").read_text().split("# summary")[0].splitlines()[1:]
    cfg = TrainConfig(hidden_width=6, map_epochs=40, vi_epochs=40, warmup_epochs=8,
                      mc_eval_samples=4, seed=11)
    result = run_benchmark(generate_dataset(GeneratorSpec("LS-s", 4, 40, seed=11)), cfg)
    assert [row.split(",")[1] for row in rows] == [repr(r.final_delta) for r in result.rows]


def test_benchmark_parallelism_independent(tmp_path, capsys):
    data_dir = tmp_path / "ans"
    run_cli(capsys, ["generate", "AN-s", "4", "30", "--seed", "6", "--out", str(data_dir)])
    results = {}
    for par in ("1", "2"):
        out_dir = tmp_path / f"res{par}"
        code, _ = run_cli(capsys, ["benchmark", str(data_dir), "--seed", "6",
                                   "--parallelism", par, "--out", str(out_dir),
                                   *FAST_FLAGS])
        assert code == 0
        results[par] = json.loads((out_dir / "summary.json").read_text())
    assert results["1"]["aggregates"] == results["2"]["aggregates"]
    deltas1 = [row["final_delta"] for row in results["1"]["pairs"]]
    deltas2 = [row["final_delta"] for row in results["2"]["pairs"]]
    assert deltas1 == deltas2


def test_benchmark_empty_dir(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    wide = tmp_path / "wide"
    wide.mkdir()
    (wide / "pairmeta.txt").write_text("0001 1 2 3 3 1.0\n")
    a_file = tmp_path / "pair.txt"
    a_file.write_text("1 2\n3 4\n")
    for path, message in [(empty, f"missing meta file {empty / 'pairmeta.txt'}"),
                          (a_file, f"{a_file} is not a directory"),
                          (wide, f"no usable pairs in {wide}")]:
        code, out = run_cli(capsys, ["benchmark", str(path), "--out", str(tmp_path / "r")])
        assert code == 1
        assert json.loads(out)["error"]["message"] == message


def test_benchmark_exit_codes_on_failures(tmp_path, capsys):
    # all pairs degenerate -> nonzero; some degenerate -> zero with n_failed
    all_bad = tmp_path / "allbad"
    all_bad.mkdir()
    (all_bad / "pair0001.txt").write_text("2 1\n2 2\n2 3\n")
    (all_bad / "pairmeta.txt").write_text("0001 1 1 2 2 1.0\n")
    code, _ = run_cli(capsys, ["benchmark", str(all_bad), "--out",
                               str(tmp_path / "r1"), *FAST_FLAGS])
    assert code == 1

    mixed = tmp_path / "mixed"
    run_cli(capsys, ["generate", "AN", "2", "30", "--seed", "3", "--out", str(mixed)])
    (mixed / "pair0003.txt").write_text("2 1\n2 2\n2 3\n")
    meta = (mixed / "pairmeta.txt").read_text()
    (mixed / "pairmeta.txt").write_text(meta + "0003 1 1 2 2 1.0\n")
    out_dir = tmp_path / "r2"
    code, _ = run_cli(capsys, ["benchmark", str(mixed), "--out", str(out_dir),
                               *FAST_FLAGS])
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["aggregates"]["n_failed"] == 1


def test_benchmark_reports_no_accuracy_when_every_pair_fails(tmp_path, capsys):
    # no pair scored, so there is no accuracy to report, not an accuracy of 0
    all_bad = tmp_path / "allbad"
    all_bad.mkdir()
    for i in (1, 2):
        (all_bad / f"pair000{i}.txt").write_text("2 1\n2 2\n2 3\n")
    (all_bad / "pairmeta.txt").write_text("0001 1 1 2 2 1.0\n0002 2 2 1 1 1.0\n")
    out_dir = tmp_path / "r"
    code, _ = run_cli(capsys, ["benchmark", str(all_bad), "--out", str(out_dir), *FAST_FLAGS])
    assert code == 1
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["aggregates"] == {"accuracy": None, "weighted_accuracy": None,
                                     "bi_auroc": None, "decision_rate_area": None,
                                     "n_failed": 2}
    assert summary["decision_rate_curve"] == []
    block = (out_dir / "results.csv").read_text().split("# summary\n")[1]
    assert block.splitlines() == ["accuracy,n/a", "weighted_accuracy,n/a", "bi_auroc,n/a",
                                  "n_failed,2", "decision_rate_area,n/a"]


def test_benchmark_prints_the_file_its_format_names(tmp_path, capsys):
    # one degenerate pair fails at once, so the run trains nothing
    data_dir = tmp_path / "bad"
    data_dir.mkdir()
    (data_dir / "pair0001.txt").write_text("2 1\n2 2\n2 3\n")
    (data_dir / "pairmeta.txt").write_text("0001 1 1 2 2 1.0\n")
    for fmt, name in (("csv", "results.csv"), ("json", "summary.json")):
        out_dir = tmp_path / fmt
        _, out = run_cli(capsys, ["benchmark", str(data_dir), "--format", fmt,
                                  "--out", str(out_dir), *FAST_FLAGS])
        assert out == (out_dir / name).read_text()
    assert json.loads(out)["metadata"]["machine"] == machine_info()


def test_benchmark_rejects_an_out_file_before_scoring(tmp_path, capsys, monkeypatch):
    data_dir = tmp_path / "an"
    run_cli(capsys, ["generate", "AN", "2", "30", "--seed", "3", "--out", str(data_dir)])
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")

    def must_not_score(*args, **kwargs):
        raise AssertionError("scored before the output directory was made")

    monkeypatch.setattr(cli, "run_benchmark", must_not_score)
    code, out = run_cli(capsys, ["benchmark", str(data_dir), "--out", str(taken)])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "FileExistsError"
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("source", ["flag", "config"])
def test_benchmark_rejects_parallelism_0_before_loading(tmp_path, capsys, monkeypatch, source):
    data_dir = tmp_path / "an"
    run_cli(capsys, ["generate", "AN", "2", "10", "--out", str(data_dir)])
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("parallelism=0\n")
    setting = {"flag": ["--parallelism", "0"], "config": ["--config", str(cfg)]}[source]

    def must_not_load(*args, **kwargs):
        raise AssertionError("loaded the pairs before --parallelism was checked")

    monkeypatch.setattr(cli, "load_tuebingen", must_not_load)
    out_dir = tmp_path / "outdir"
    code, out = run_cli(capsys, ["benchmark", str(data_dir), *setting, "--out", str(out_dir)])
    assert code == 1
    assert json.loads(out)["error"] == {"type": "ArgumentError",
                                        "message": "parallelism must be >= 1"}
    assert not out_dir.exists()


@pytest.mark.parametrize("out,error", [("no-such-dir/x.json", "FileNotFoundError"),
                                       (".", "IsADirectoryError")])
def test_score_rejects_a_bad_out_before_training(smoke_pair_file, tmp_path, capsys,
                                                 monkeypatch, out, error):
    def must_not_score(*args, **kwargs):
        raise AssertionError("trained before --out was checked")

    monkeypatch.setattr(cli, "score_pair", must_not_score)
    code, printed = run_cli(capsys, ["score", str(smoke_pair_file), "--out",
                                     str(tmp_path / out)])
    assert code == 1
    assert json.loads(printed)["error"]["type"] == error
    assert not (tmp_path / "no-such-dir").exists()


def test_benchmark_names_the_meta_line_of_a_bad_column_range(tmp_path, capsys):
    (tmp_path / "pair0001.txt").write_text("1 2\n3 4\n5 6\n")
    (tmp_path / "pairmeta.txt").write_text("0001 1 1 1 1 1.0\n")
    code, out = run_cli(capsys, ["benchmark", str(tmp_path), "--out",
                                 str(tmp_path / "results"), *FAST_FLAGS])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert "pairmeta.txt" in error["message"] and "line 1" in error["message"]


# ---------------------------------------------------------------- fetch


PAIR_BODY = "\n".join(f"{i / 7.0:.6f} {(i * i) / 11.0:.6f}" for i in range(1, 31)) + "\n"


class CorpusHandler(BaseHTTPRequestHandler):
    corpus = {
        "pairmeta.txt": "0001 1 1 2 2 1.0\n0002 2 2 1 1 1.5\n",
        "pair0001.txt": PAIR_BODY,
        "pair0002.txt": PAIR_BODY,
    }
    truncate = set()
    fail_always = set()

    def do_GET(self):
        name = self.path.rsplit("/", 1)[-1]
        if name in self.fail_always or name not in self.corpus:
            self.send_error(404)
            return
        body = self.corpus[name]
        body = body.encode() if isinstance(body, str) else body
        if name in self.truncate:
            # advertise the full length but drop the connection midway
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body[: len(body) // 2])
            self.wfile.flush()
            self.connection.close()
            return
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def corpus_server():
    CorpusHandler.truncate = set()
    CorpusHandler.fail_always = set()
    server = ThreadingHTTPServer(("127.0.0.1", 0), CorpusHandler)
    # a short poll lets shutdown() return at once instead of after up to 0.5 s
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def test_fetch_and_idempotent_rerun(corpus_server, tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    count = fetch_tuebingen(url=corpus_server, out_dir=out_dir)
    assert count == 3
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "pair0001.txt", "pair0002.txt", "pairmeta.txt"]
    assert fetch_tuebingen(url=corpus_server, out_dir=out_dir) == 0

    code, _ = run_cli(capsys, ["fetch-tuebingen", "--url", corpus_server,
                               "--out", str(out_dir)])
    assert code == 0


def test_fetch_interrupted_download_leaves_no_partial(corpus_server, tmp_path):
    CorpusHandler.truncate = {"pair0002.txt"}
    out_dir = tmp_path / "corpus"
    with pytest.raises(FetchError):
        fetch_tuebingen(url=corpus_server, out_dir=out_dir)
    leftovers = [p.name for p in out_dir.iterdir()]
    assert "pair0002.txt" not in leftovers
    assert not any(".txt." in name for name in leftovers)

    # healing the server completes the corpus without re-downloading the rest
    CorpusHandler.truncate = set()
    assert fetch_tuebingen(url=corpus_server, out_dir=out_dir) == 1


def test_fetch_corrupt_file_discarded(corpus_server, tmp_path):
    # the meta file and a pair file go through the same check, log and discard
    from comic.errors import ParseError

    original = CorpusHandler.corpus
    for name in ("pairmeta.txt", "pair0002.txt"):
        CorpusHandler.corpus = {**original, name: "this is not a number table\n"}
        try:
            out_dir = tmp_path / name
            logs = []
            with pytest.raises(ParseError):
                fetch_tuebingen(url=corpus_server, out_dir=out_dir, log=logs.append)
            assert f"discarding corrupt download {name}" in logs
            assert not (out_dir / name).exists()
        finally:
            CorpusHandler.corpus = original


def test_fetch_non_utf8_meta_is_a_parse_error(corpus_server, tmp_path, capsys):
    CorpusHandler.corpus = dict(CorpusHandler.corpus)
    CorpusHandler.corpus["pairmeta.txt"] = b"0001 1 1 2 2 1.0\n\xff\xfe 2 2 1 1 1.5\n"
    try:
        out_dir = tmp_path / "corpus"
        code, out = run_cli(capsys, ["fetch-tuebingen", "--url", corpus_server,
                                     "--out", str(out_dir)])
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "ParseError"
        assert "pairmeta.txt" in error["message"] and "UTF-8" in error["message"]
        assert list(out_dir.iterdir()) == []
    finally:
        CorpusHandler.corpus["pairmeta.txt"] = "0001 1 1 2 2 1.0\n0002 2 2 1 1 1.5\n"


@pytest.mark.parametrize("meta", ["0001 1 1 2 2 1.0\n0002 2 1 3 3 1.5\n",
                                  "0001 1 1 2 2 1.0\n0001 2 2 1 1 1.5\n"],
                         ids=["backwards-column-range", "repeated-pair-id"])
def test_fetch_rejects_a_bad_meta_row_before_writing(corpus_server, tmp_path, capsys, meta):
    CorpusHandler.corpus = dict(CorpusHandler.corpus)
    CorpusHandler.corpus["pairmeta.txt"] = meta
    try:
        out_dir = tmp_path / "corpus"
        code, out = run_cli(capsys, ["fetch-tuebingen", "--url", corpus_server,
                                     "--out", str(out_dir)])
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "ParseError"
        assert "pairmeta.txt" in error["message"] and "line 2" in error["message"]
        assert list(out_dir.iterdir()) == []
    finally:
        CorpusHandler.corpus["pairmeta.txt"] = "0001 1 1 2 2 1.0\n0002 2 2 1 1 1.5\n"


def test_fetch_offline_retries_then_fails(tmp_path, capsys):
    # a closed port on localhost refuses immediately
    code = main(["fetch-tuebingen", "--url", "http://127.0.0.1:9/",
                 "--out", str(tmp_path / "none")])
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in json.loads(captured.out)
    assert captured.err.count("attempt") == 3  # retry log
