"""Checks that need a fresh interpreter: BLAS thread counts, page faults, imports and script entry points."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

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
    # scoring a fixed pair is bit-identical across BLAS thread counts
    one, two = (run_python(["-c", SCORE_LS_S], OPENBLAS_NUM_THREADS=threads)
                for threads in ("1", "2"))
    assert one.strip() and one == two


GENERATE_GP = """
import hashlib
from comic.data import GeneratorSpec, generate_pair
for family in ("AN", "LS"):
    pair = generate_pair(GeneratorSpec(family, 1, 400, seed=8), 0)
    print(family, hashlib.sha256(pair.x.tobytes() + pair.y.tobytes()).hexdigest())
"""


def test_gp_generation_independent_of_blas_threads():
    one, two = (run_python(["-c", GENERATE_GP], OPENBLAS_NUM_THREADS=threads)
                for threads in ("1", "2"))
    assert len(one.split()) == 4 and one == two


# Scores one n = 500 pair at the desk-n500 config (H = 50, 100 + 100 epochs
# per direction, 64 MC samples) in an interpreter that has made no large
# allocation before: with the training buffers allocated once, only their
# first touch faults (about 500 pages on a 2-CPU x86-64 VM). Fresh n x H
# temporaries cost about 300 faults per epoch instead, since glibc maps and
# unmaps each one.
FAULTS_PER_EPOCH = """
import resource
import numpy as np
from comic.codelength import TrainConfig, score_pair
from comic.data import PairDataset
rng = np.random.default_rng(3)
x = rng.standard_normal(500)
pair = PairDataset(x, np.tanh(2.0 * x) + 0.3 * rng.standard_normal(500))
cfg = TrainConfig(hidden_width=50, map_epochs=100, vi_epochs=100, warmup_epochs=10,
                  mc_eval_samples=64, seed=0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
score_pair(pair, cfg)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((after - before) / (2 * (cfg.map_epochs + cfg.vi_epochs)))
"""


def test_training_epochs_take_almost_no_page_faults():
    assert float(run_python(["-c", FAULTS_PER_EPOCH])) < 5.0


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



def test_import_leaves_the_network_stack_unloaded():
    # only fetching needs http.client, which pulls in email and ssl (about
    # 20 ms of every start-up); importing the package must not load them
    out = run_python(["-c", "import sys, comic; print(sorted(m for m in "
                            "('http.client', 'ssl', 'urllib.request') if m in sys.modules))"])
    assert out.strip() == "[]"
