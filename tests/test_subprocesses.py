"""Checks that need a fresh interpreter: BLAS thread counts, page faults, imports, dying
workers and script entry points."""

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def python_proc(args, timeout=300, **env):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True, text=True, timeout=timeout,
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
    # 20 ms of every start-up), and only a parallel benchmark needs a process
    # pool (about 25 ms more); importing the package must load none of them
    out = run_python(["-c", "import sys, comic; print(sorted(m for m in "
                            "('http.client', 'ssl', 'urllib.request', 'multiprocessing', "
                            "'concurrent.futures') if m in sys.modules))"])
    assert out.strip() == "[]"


# Scores 4 tiny pairs on 2 worker processes, one of which exits while
# scoring the third pair; the forked workers inherit the patched _score_one.
DEAD_WORKER = """
import json, multiprocessing, os
multiprocessing.set_start_method("fork")
from comic import evaluation
from comic.codelength import TrainConfig
from comic.data import GeneratorSpec, generate_dataset
pairs = generate_dataset(GeneratorSpec("AN", 4, 30, seed=1))
score_one = evaluation._score_one

def exit_on_third(job):
    if job[0].id == pairs[2].id:
        os._exit(1)
    return score_one(job)

evaluation._score_one = exit_on_third
cfg = TrainConfig(hidden_width=4, map_epochs=10, vi_epochs=10, warmup_epochs=2,
                  mc_eval_samples=2, seed=1)
result = evaluation.run_benchmark(pairs, cfg, parallelism=2)
print(json.dumps({"ids": [r.id for r in result.rows], "n_failed": result.n_failed,
                  "rows": [[r.final_delta, r.runtime_seconds, r.error] for r in result.rows]}))
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the patched worker function reaches the pool only by fork")
def test_a_dead_worker_becomes_error_rows_instead_of_a_hang():
    proc = python_proc(["-c", DEAD_WORKER], timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["ids"] == [f"AN-{i:04d}" for i in range(4)]
    assert out["n_failed"] >= 1
    delta, runtime, error = out["rows"][2]
    assert delta is None and runtime == 0.0 and error.startswith("BrokenProcessPool: ")
    for delta, runtime, error in out["rows"]:
        assert (error is None) == (delta is not None)
        assert error is None or (error.startswith("BrokenProcessPool: ") and runtime == 0.0)
