"""Checks that need a fresh interpreter: BLAS thread counts, page faults, imports, dying
workers and script entry points."""

import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def child_env(**env):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **env}


def python_proc(args, timeout=300, **env):
    return subprocess.run([sys.executable, *args], env=child_env(**env), capture_output=True,
                          text=True, timeout=timeout)


def run_python(args, **env):
    proc = python_proc(args, **env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def numpy_cpu():
    """numpy's dispatch targets and the CPU features it detected."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return __cpu_dispatch__, __cpu_features__


# Scores an LS-s pair and prints repr(final_delta) and the CPU clock ticks
# that every thread but the main one spent scoring it (None without
# /proc): OpenBLAS's worker threads, when a product runs on more than one.
SCORE_LS_S = """
import os
from comic.codelength import TrainConfig, score_pair
from comic.data import GeneratorSpec, generate_pair

def other_thread_ticks():
    if not os.path.isdir("/proc/self/task"):
        return None
    ticks = 0
    for tid in os.listdir("/proc/self/task"):
        if tid != str(os.getpid()):
            with open(f"/proc/self/task/{{tid}}/stat") as stat:
                ticks += sum(map(int, stat.read().rsplit(")", 1)[1].split()[11:13]))
    return ticks

cfg = TrainConfig(hidden_width=50, vi_epochs={epochs}, warmup_epochs={warmup},
                  map_epochs={epochs}, mc_eval_samples={mc}, seed=1)
pair = generate_pair(GeneratorSpec("LS-s", 1, {n}, seed=6), 0)
before = other_thread_ticks()
delta = score_pair(pair, cfg).final_delta
after = other_thread_ticks()
print(repr(delta), None if before is None else after - before)
"""


def score_at_one_and_two_blas_threads(**schedule):
    """(score, other threads' ticks) of the LS-s pair at 1 and 2 BLAS threads."""
    script = SCORE_LS_S.format(**schedule)
    return [run_python(["-c", script], OPENBLAS_NUM_THREADS=threads).split()
            for threads in ("1", "2")]


def test_score_independent_of_blas_threads():
    # scoring a fixed pair is bit-identical across BLAS thread counts
    (one, _), (two, _) = score_at_one_and_two_blas_threads(n=300, epochs=20, warmup=5, mc=4)
    assert one == two


def test_score_independent_of_blas_threads_where_products_use_threads():
    # OpenBLAS 0.3.31 runs a gemm on one thread until M * N * K reaches
    # twice 65536 * 4, so at n = 300 and at n = 4000 every product of a
    # width-50 model stays on one thread; at n = 6000 some do not, which
    # the second thread's CPU time shows
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS starts no second thread on one CPU")
    (one, _), (two, ticks) = score_at_one_and_two_blas_threads(n=6000, epochs=5, warmup=2, mc=2)
    if ticks == "None":
        pytest.skip("no per-thread CPU times to show that a second BLAS thread ran")
    assert int(ticks) > 0, "no product ran on a second BLAS thread"
    assert one == two


# The hidden layer's pre-activation mean and variance, x * w + b and
# x^2 * v_w + v_b, against the broadcast form h * w + (b + 0.0) byte for
# byte, for one model and a stack of two: with signed zeros, with a row
# where h * w = -b exactly, and with positive variance-like operands.
HIDDEN_AFFINE = """
import json
import numpy as np
from comic.bnn import _affine
from comic.evaluation import machine_info
rng = np.random.default_rng(21)

def signed_zeros(values):
    mask = rng.random(values.shape) < 0.3
    values[mask] = rng.choice([0.0, -0.0], size=int(mask.sum()))
    return values

mismatches = []
for width in (1, 2, 50):
    for n in (1, 2, 3, 500, 4000):
        for stack in ((), (2,)):
            h = signed_zeros(2.0 * rng.standard_normal(stack + (n, 1)))
            w = signed_zeros(rng.standard_normal(stack + (1, width)))
            cases = {
                "signed zeros": (h, w, signed_zeros(rng.standard_normal(stack + (width,)))),
                "cancelling row": (h, w, -(h[..., n // 2, :] * w[..., 0, :])),
                "variance": (h * h, np.exp(rng.normal(-6.0, 3.0, w.shape)),
                             np.exp(rng.normal(-6.0, 3.0, stack + (width,)))),
            }
            for kind, (hk, wk, bk) in cases.items():
                expected = np.multiply(hk, wk) + (bk[..., None, :] + 0.0)
                got = _affine(hk, wk, bk, np.empty(stack + (n, width)), "hidden")
                if got.tobytes() != expected.tobytes():
                    mismatches.append([width, n, len(stack), kind])
print(json.dumps([machine_info()["blas_core"], mismatches]))
"""


# OpenBLAS core types and the CPU features their kernels use: OpenBLAS runs
# a forced core without checking for them, so a CPU that lacks one would
# die of an illegal instruction
CORETYPE_FEATURES = {"Prescott": "SSE3", "Sandybridge": "AVX", "Haswell": "AVX2 FMA3",
                     "SkylakeX": "AVX512_SKX"}


def run_under_blas_kernel(script, coretype):
    """script's JSON output from a fresh interpreter under OPENBLAS_CORETYPE=coretype;
    skips where numpy's BLAS is not OpenBLAS or the CPU cannot run that kernel."""
    from comic.evaluation import machine_info

    if machine_info()["blas_core"] is None:
        pytest.skip("numpy's BLAS is not OpenBLAS, which alone reads OPENBLAS_CORETYPE")
    _, features = numpy_cpu()
    if not all(features.get(f) for f in CORETYPE_FEATURES[coretype].split()):
        pytest.skip(f"this CPU has no {CORETYPE_FEATURES[coretype]} for the {coretype} kernels")
    # OpenBLAS picks its kernels once, at load, so each needs a fresh interpreter
    return json.loads(run_python(["-c", script], OPENBLAS_CORETYPE=coretype))


@pytest.mark.parametrize("coretype", CORETYPE_FEATURES)
def test_hidden_affine_matches_the_broadcast_form_under_each_blas_kernel(coretype):
    core, mismatches = run_under_blas_kernel(HIDDEN_AFFINE, coretype)
    assert core is not None
    assert mismatches == [], f"BLAS core {core}"


# Two perturbed models stacked on a leading axis against each model alone:
# the bytes of the MAP and ELBO losses and gradients, of model_forward and
# of one sampler draw, per slice. For odd n the second slice of a stacked
# (2, n, 1) input starts 8n bytes in, off the 16-byte alignment of a fresh
# array. At width 1 the Prescott kernels (core "Katmai") then give the
# (1 x n) @ (n x 1) gradient product h_in^T @ g other bits than for the
# same data alone, so the stack keeps its per-slice bytes only at widths
# of 2 and more, which this checks.
STACKED_AND_ALONE = """
import json
import numpy as np
from comic import bnn
from comic.bnn import ConditionalModel
from comic.evaluation import machine_info
from comic.rng import RngStream
rng = np.random.default_rng(38)

def passes(model, x, y, eps):
    vec = np.full(bnn.pack_params(model).shape, np.nan)
    grad = bnn.unpack_params(model, vec)
    return {
        "map": (bnn.map_objective(model, x, y, grad), vec.copy()),
        "elbo": (bnn.elbo_objective(model, x, y, 0.4, eps, grad), vec.copy()),
        "forward": bnn.model_forward(model, x),
        "sampler": tuple(a.copy() for a in bnn.sampler(model, x)(*eps)),
    }

mismatches = []
for width in (2, 50):
    for n in (3, 5, 7, 333):
        initial = ConditionalModel.initial(width, RngStream(0).child("init"))
        packed = bnn.pack_params(initial)
        flat = packed + 0.3 * rng.standard_normal((2, packed.size))
        stacked = bnn.unpack_params(initial, flat)
        x, y = 2.0 * rng.standard_normal((2, 2, n))
        eps = (rng.standard_normal((n, width)), rng.standard_normal((n, 2)))
        together = passes(stacked, x, y, eps)
        for d in range(2):
            model = bnn.unpack_params(initial, flat[d].copy())
            alone = passes(model, x[d].copy(), y[d].copy(), eps)
            for kind, values in together.items():
                if any(np.asarray(a[d]).tobytes() != np.asarray(b).tobytes()
                       for a, b in zip(values, alone[kind])):
                    mismatches.append([width, n, d, kind])
print(json.dumps([machine_info()["blas_core"], mismatches]))
"""


def test_stacked_models_match_each_model_alone_under_the_prescott_kernels():
    core, mismatches = run_under_blas_kernel(STACKED_AND_ALONE, "Prescott")
    assert core is not None
    assert mismatches == [], f"BLAS core {core}"


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


GENERATE_AND_STANDARDIZE = """
import hashlib
from comic.data import GeneratorSpec, generate_pair, standardize
for family in ("AN", "LS"):
    pair = generate_pair(GeneratorSpec(family, 1, 64, seed=5), 0)
    print(hashlib.sha256(pair.x.tobytes() + pair.y.tobytes()).hexdigest())
print(standardize(pair.y)[0].tobytes().hex())
"""

# numpy's dispatch targets that NPY_DISABLE_CPU_FEATURES turns off: AVX-512
# changes the bits of np.exp, and AVX2 those of np.tanh as well
DISPATCH_OFF = {"avx512-off": "X86_V4 AVX512_ICL AVX512_SPR",
                "avx2-off": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}


@pytest.mark.parametrize("setting", DISPATCH_OFF)
def test_generated_pairs_do_not_depend_on_the_dispatch_level(setting):
    from comic.data import GENERATOR_VERSION, GeneratorSpec, generate_pair, standardize
    from test_data import GENERATED_SHA256

    dispatch, cpu_features = numpy_cpu()
    features = DISPATCH_OFF[setting].split()
    if not all(f in dispatch and cpu_features.get(f) for f in features):
        pytest.skip(f"this CPU or numpy build has no {DISPATCH_OFF[setting]} to turn off")
    out = run_python(["-c", GENERATE_AND_STANDARDIZE],
                     NPY_DISABLE_CPU_FEATURES=DISPATCH_OFF[setting]).split()
    pinned = GENERATED_SHA256[GENERATOR_VERSION]
    ls_y = generate_pair(GeneratorSpec("LS", 1, 64, seed=5), 0).y
    assert out == [pinned["AN"], pinned["LS"], standardize(ls_y)[0].tobytes().hex()]


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


def run_ab_pairs(change_src, *extra):
    """Exit code and last JSON line of a tiny ab_pairs run against this tree's src."""
    proc = python_proc([str(ROOT / "scripts" / "ab_pairs.py"), "--base", str(ROOT / "src"),
                        "--change", str(change_src), "--pairs-per-family", "1", "--n", "40",
                        "--hidden-width", "4", "--epochs", "10", "--mc-samples", "2", *extra])
    assert proc.stdout.strip(), proc.stderr
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_ab_pairs_same_tree_scores_match():
    code, result = run_ab_pairs(ROOT / "src")
    assert code == 0
    assert result["pairs"] == 5
    assert result["scores_match"] is True


def test_ab_pairs_writes_each_seed_and_its_context(tmp_path):
    out = tmp_path / "BENCH_same.json"
    code, last = run_ab_pairs(ROOT / "src", "--seed", "1", "2", "--out", str(out))
    written = json.loads(out.read_text())
    assert code == 0
    assert [run["seed"] for run in written["runs"]] == [1, 2]
    assert written["runs"][-1] == last
    assert all(run["scores_match"] for run in written["runs"])
    assert set(written["context"]) == {"nproc", "n", "pairs_per_family", "config", "machine"}
    assert (written["context"]["n"], written["context"]["pairs_per_family"]) == (40, 1)
    assert written["context"]["config"]["hidden_width"] == 4
    assert set(written["context"]["machine"]) == {"numpy_version", "dispatch_targets",
                                                  "blas_core"}


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

def exit_on_third(pair, cfg):
    if pair.id == pairs[2].id:
        os._exit(1)
    return score_one(pair, cfg)

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


# 24 pairs that take 1 s each on 2 worker processes: about 12 s of work. The
# forked workers inherit the patched _score_one; "started" tells the parent
# that the pool is about to start.
INTERRUPTED = """
import multiprocessing, time
multiprocessing.set_start_method("fork")
from comic import evaluation
from comic.codelength import TrainConfig
from comic.data import GeneratorSpec, generate_dataset
pairs = generate_dataset(GeneratorSpec("AN", 24, 30, seed=1))

def sleep_one_second(pair, cfg):
    time.sleep(1.0)
    return evaluation.PairRow(pair.id, 0.0, None, pair.label, 1.0, 1.0)

evaluation._score_one = sleep_one_second
print("started", flush=True)
evaluation.run_benchmark(pairs, TrainConfig(), parallelism=2)
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the patched worker function reaches the pool only by fork")
def test_ctrl_c_stops_a_parallel_benchmark_without_scoring_the_queue():
    proc = subprocess.Popen([sys.executable, "-c", INTERRUPTED], env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline() == "started\n"
        time.sleep(1.5)
        proc.send_signal(signal.SIGINT)  # the main process only: workers keep their pairs
        sent = time.monotonic()
        _, stderr = proc.communicate(timeout=60)
        elapsed = time.monotonic() - sent
    finally:
        proc.kill()
        proc.wait()
    assert "KeyboardInterrupt" in stderr
    assert elapsed < 5.0
