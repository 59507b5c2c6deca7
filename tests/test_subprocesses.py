"""Checks that need a fresh interpreter: BLAS thread counts and script entry points."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(args, **env):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True, text=True, timeout=300,
    )
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


def test_ab_pairs_same_tree_scores_match():
    out = run_python([str(ROOT / "scripts" / "ab_pairs.py"), "--base", str(ROOT / "src"),
                      "--change", str(ROOT / "src"), "--pairs-per-family", "1", "--n", "40",
                      "--hidden-width", "4", "--epochs", "10", "--mc-samples", "2"])
    result = json.loads(out.strip().splitlines()[-1])
    assert result["pairs"] == 5
    assert result["scores_match"] is True


@pytest.mark.parametrize("script", ["run_family_benchmark.py", "width_ablation.py"])
def test_script_help_runs(script):
    # imports every comic name the script uses, so a renamed helper fails here
    assert "usage:" in run_python([str(ROOT / "scripts" / script), "--help"])
