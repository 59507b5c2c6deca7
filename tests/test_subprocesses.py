"""Checks that need a fresh interpreter: BLAS thread counts and script entry points."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def python_proc(args, **env):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True, text=True, timeout=300,
    )


def run_python(args, **env):
    proc = python_proc(args, **env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


SCORE_LS_S = """
from comic.codelength import TrainConfig, score_pair
from comic.data import GeneratorSpec, generate_pair
cfg = TrainConfig(hidden_width=50, vi_epochs=20, warmup_epochs=5, map_epochs=20,
                  mc_eval_samples=4, seed=1)
print(repr(score_pair(generate_pair(GeneratorSpec("LS-s", 1, 300, seed=6), 0), cfg).final_delta))
"""


def test_score_independent_of_blas_threads():
    # scoring a fixed pair is bit-identical across BLAS thread counts; GP
    # generation (a threaded Cholesky) is not, so the pair is an LS-s one
    one, two = (run_python(["-c", SCORE_LS_S], OPENBLAS_NUM_THREADS=threads)
                for threads in ("1", "2"))
    assert one.strip() and one == two


def run_ab_pairs(change_src):
    """Exit code and JSON result of a tiny ab_pairs run against this tree's src."""
    proc = python_proc([str(ROOT / "scripts" / "ab_pairs.py"), "--base", str(ROOT / "src"),
                        "--change", str(change_src), "--pairs-per-family", "1", "--n", "40",
                        "--hidden-width", "4", "--epochs", "10", "--mc-samples", "2"])
    assert proc.stdout.strip(), proc.stderr
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_ab_pairs_same_tree_scores_match():
    code, result = run_ab_pairs(ROOT / "src")
    assert code == 0
    assert result["pairs"] == 5
    assert result["scores_match"] is True


def test_ab_pairs_exits_1_when_scores_differ(tmp_path):
    shutil.copytree(ROOT / "src" / "comic", tmp_path / "src" / "comic",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bnn = tmp_path / "src" / "comic" / "bnn.py"
    text = bnn.read_text()
    assert "INIT_LOGVAR = -9.0\n" in text
    bnn.write_text(text.replace("INIT_LOGVAR = -9.0\n", "INIT_LOGVAR = -8.0\n"))
    code, result = run_ab_pairs(tmp_path / "src")
    assert code == 1
    assert result["scores_match"] is False


@pytest.mark.parametrize("script", ["run_family_benchmark.py", "width_ablation.py"])
def test_script_help_runs(script):
    # imports every comic name the script uses, so a renamed helper fails here
    assert "usage:" in run_python([str(ROOT / "scripts" / script), "--help"])
