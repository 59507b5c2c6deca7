"""Checks that need a fresh interpreter: BLAS thread counts, page faults, imports, dying
workers and script entry points."""

import dataclasses
import functools
import json
import math
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
    # which products OpenBLAS 0.3.31 threads does not follow from their
    # sizes alone: on a 2-CPU SkylakeX VM at n = 6000 only the output
    # layer's g @ w^T products, taken on transposed views of w, ran on a
    # second thread, while contiguous copies of the same products ran on
    # one. The second thread's CPU time shows whether any product used it
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
for width in (2, 50):
    for n in (2, 3, 500, 4000):
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
                design = np.concatenate((hk, np.ones_like(hk)), axis=-1)
                got = _affine(design, wk, bk, np.empty(stack + (n, width)),
                              np.empty(stack + (2, width)))
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
# the bytes of the MAP and ELBO losses and gradients and of one sampler
# draw's NLL, per slice (the MAP loss prices the posterior-mean pass). For
# odd n the second slice of a stacked (2, n, 1) input starts 8n bytes in,
# off the 16-byte alignment of a fresh array. At the even widths 2 and 50
# each direction's slice of a packed (2, P) gradient starts on a 16-byte
# boundary; at the odd widths 3 and 7 the second slice starts off it.
STACKED_AND_ALONE = """
import json
import numpy as np
from comic import bnn
from comic.bnn import ConditionalModel
from comic.evaluation import machine_info
from comic.rng import RngStream
rng = np.random.default_rng(38)

def passes(model, x, y, stream):
    ws = bnn.Workspace(model, x, y, grad=True)
    ws.grad.params.fill(np.nan)
    return {
        "map": (bnn.map_objective(ws), ws.grad.params.copy()),
        "elbo": (bnn.elbo_objective(ws, 0.4, stream), ws.grad.params.copy()),
        "sampler": (model.sampler(x, y)(stream),),
    }

mismatches = []
for width in (2, 3, 7, 50):
    for n in (3, 5, 7, 333):
        initial = ConditionalModel.initial(width, RngStream(0).child("init"))
        flat = initial.params + 0.3 * rng.standard_normal((2, initial.params.size))
        stacked = ConditionalModel(flat, width)
        x, y = 2.0 * rng.standard_normal((2, 2, n))
        stream = RngStream(width).child("noise", n)
        together = passes(stacked, x, y, stream)
        for d in range(2):
            model = ConditionalModel(flat[d].copy(), width)
            alone = passes(model, x[d].copy(), y[d].copy(), stream)
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


# Scores the golden pairs of test_golden_scores_are_pinned, then the n = 500
# pair of LONG_SPEC, each pair swapped too, at that test's config, in a
# fresh interpreter.
GOLDEN_AND_SWAPPED = """
import json
from comic.codelength import TrainConfig, score_pair
from comic.data import GeneratorSpec, generate_dataset, swap_pair
from comic.evaluation import machine_info
cfg = TrainConfig(**{config!r})
scores = [[score_pair(p, cfg).final_delta for p in (pair, swap_pair(pair))]
          for spec in {specs!r} for pair in generate_dataset(GeneratorSpec(**spec))]
print(json.dumps([machine_info()["blas_core"], scores]))
"""

# One pair as long as desk-n500's, where every product and transcendental
# runs over 500 rows; it stays out of GOLDEN_SPEC, whose scores are pinned
LONG_SPEC = dict(family="AN-s", n_pairs=1, n_samples=500, seed=900)

# Measured on a 2-CPU SkylakeX VM (numpy 2.4.6, OpenBLAS 0.3.31), with the
# conditionals trained and evaluated in float32: SkylakeX gave the default
# kernel's bits on every golden pair and on the n = 500 pair; Prescott,
# Sandybridge and Haswell moved all five scores, by at most 7.7e-7, 8.7e-7
# and 6.5e-7 relative. The bound, about ten times the largest move, leaves
# room for CPUs whose kernels round more products differently.
CROSS_KERNEL_REL = 1e-5

# numpy's dispatch targets that NPY_DISABLE_CPU_FEATURES turns off: AVX-512
# changes the bits of np.exp, and AVX2 those of np.tanh as well
DISPATCH_OFF = {"avx512-off": "X86_V4 AVX512_ICL AVX512_SPR",
                "avx2-off": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}

# Measured on the same VM: avx512-off kept every bit of the five scores, and
# avx2-off moved all five, by at most 5.0e-7 relative (the n = 500 pair,
# -6.262849992255724 to -6.262853105144586). The bound, about ten times the
# largest move, leaves room for builds whose exp, log and tanh round more
# values differently.
CROSS_DISPATCH_REL = 5e-6


def dispatch_off_env(setting):
    """The environment that turns off setting's numpy dispatch targets; skips
    where the CPU or the numpy build has none of them to turn off."""
    dispatch, cpu_features = numpy_cpu()
    features = DISPATCH_OFF[setting].split()
    if not all(f in dispatch and cpu_features.get(f) for f in features):
        pytest.skip(f"this CPU or numpy build has no {DISPATCH_OFF[setting]} to turn off")
    return {"NPY_DISABLE_CPU_FEATURES": DISPATCH_OFF[setting]}


@functools.cache
def golden_and_swapped(coretype=None, dispatch=None):
    """[BLAS core, [[delta, swapped delta] per golden pair and the LONG_SPEC
    pair]], under OPENBLAS_CORETYPE=coretype, under the DISPATCH_OFF setting
    dispatch, or else as numpy and OpenBLAS pick for this CPU."""
    from test_codelength import GOLDEN_CONFIG, GOLDEN_SPEC

    script = GOLDEN_AND_SWAPPED.format(config=GOLDEN_CONFIG, specs=[GOLDEN_SPEC, LONG_SPEC])
    if coretype is not None:
        return run_under_blas_kernel(script, coretype)
    env = {} if dispatch is None else dispatch_off_env(dispatch)
    return json.loads(run_python(["-c", script], **env))


def assert_mirrored_and_close(scores, rel, label):
    """Each pair's swap is its exact mirror, and each score lies within rel of
    the default run's."""
    _, default = golden_and_swapped()
    for (delta, swapped), (reference, _) in zip(scores, default, strict=True):
        assert delta.hex() == (-swapped).hex(), label
        assert delta == pytest.approx(reference, rel=rel), label


@pytest.mark.parametrize("coretype", CORETYPE_FEATURES)
def test_golden_scores_mirror_and_agree_across_blas_kernels(coretype):
    core, scores = golden_and_swapped(coretype)
    assert_mirrored_and_close(scores, CROSS_KERNEL_REL, f"BLAS core {core}")


@pytest.mark.parametrize("setting", DISPATCH_OFF)
def test_golden_scores_mirror_and_agree_across_dispatch_levels(setting):
    _, scores = golden_and_swapped(dispatch=setting)
    assert_mirrored_and_close(scores, CROSS_DISPATCH_REL, setting)


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


# near_mean's deviations lie far below the ulp of its mean
GENERATE_AND_STANDARDIZE = """
import hashlib
import numpy as np
from comic.data import GeneratorSpec, generate_pair, standardize
for family in ("AN", "LS"):
    pair = generate_pair(GeneratorSpec(family, 1, 64, seed=5), 0)
    print(hashlib.sha256(pair.x.tobytes() + pair.y.tobytes()).hexdigest())
near_mean = 2000.0 + 1e-9 * np.arange(2000)
for column in (pair.y, near_mean):
    print(standardize(column)[0].tobytes().hex())
"""


@pytest.mark.parametrize("setting", DISPATCH_OFF)
def test_generated_pairs_do_not_depend_on_the_dispatch_level(setting):
    import numpy as np
    from comic.data import GENERATOR_VERSION, GeneratorSpec, generate_pair, standardize
    from test_data import GENERATED_SHA256

    out = run_python(["-c", GENERATE_AND_STANDARDIZE], **dispatch_off_env(setting)).split()
    pinned = GENERATED_SHA256[GENERATOR_VERSION]
    ls_y = generate_pair(GeneratorSpec("LS", 1, 64, seed=5), 0).y
    near_mean = 2000.0 + 1e-9 * np.arange(2000)
    assert out == [pinned["AN"], pinned["LS"], standardize(ls_y)[0].tobytes().hex(),
                   standardize(near_mean)[0].tobytes().hex()]


# Scores one n = 500 pair at the desk-n500 config (H = 50, 100 + 100 epochs
# per direction, 64 MC samples) in an interpreter that has made no large
# allocation before: with each workspace's arrays allocated once, only their
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
                        *extra])
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
    assert set(written["context"]) == {"nproc", "usable_cpus", "thread_env", "n",
                                       "pairs_per_family", "config", "machine"}
    assert set(written["context"]["thread_env"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                     "MKL_NUM_THREADS"}
    assert (written["context"]["n"], written["context"]["pairs_per_family"]) == ([40], 1)
    assert written["context"]["config"] == {
        "hidden_width": 50, "map_epochs": 100, "vi_epochs": 100, "warmup_epochs": 10,
        "mc_eval_samples": 64, "seed": 0}
    assert set(written["context"]["machine"]) == {"numpy_version", "dispatch_targets",
                                                  "blas_core"}


def test_ab_pairs_writes_one_line_per_length():
    proc = python_proc([str(ROOT / "scripts" / "ab_pairs.py"), "--base", str(ROOT / "src"),
                        "--change", str(ROOT / "src"), "--pairs-per-family", "1",
                        "--n", "30", "40"])
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    assert [(line["seed"], line["n"]) for line in lines] == [(1, 30), (1, 40)]
    assert all(line["pairs"] == 5 and line["scores_match"] is True for line in lines)


def test_ab_pairs_adds_a_noise_band_and_a_verdict_per_line(monkeypatch):
    proc = python_proc([str(ROOT / "scripts" / "ab_pairs.py"), "--base", str(ROOT / "src"),
                        "--change", str(ROOT / "src"), "--pairs-per-family", "1",
                        "--n", "30", "40"])
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    assert [(line["seed"], line["n"], line["pairs"]) for line in lines] == [(1, 30, 5),
                                                                             (1, 40, 5)]
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import ab_pairs
    for line in lines:
        band = line["aa_ratio"]
        assert set(band) == {"median", "q1", "q3"}
        assert 0.0 < band["q1"] <= band["median"] <= band["q3"]
        assert line["verdict"] == ab_pairs.verdict(line["ratio_median"], band)


def test_ab_pairs_verdict_needs_the_ratio_outside_the_band(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import ab_pairs
    band = {"median": 1.0, "q1": 0.98, "q3": 1.03}
    assert [ab_pairs.verdict(ratio, band) for ratio in (0.97, 0.98, 1.0, 1.03, 1.04)] == [
        "faster", "unchanged", "unchanged", "unchanged", "slower"]


def test_ab_pairs_reports_the_decisions_kept_and_how_far_delta_moved(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import ab_pairs
    # a flipped sign is a changed decision; a zero delta is UNDECIDED and
    # moves by 0 when it stays zero, by inf when it does not
    moved = ab_pairs.delta_moves([2.0, -4.0, 1.0, 0.0, 0.0], [2.5, -4.0, -1.0, 0.0, 3.0])
    assert moved == {"decisions_agree": 3, "delta_move": {"median": 0.25, "max": math.inf}}
    same = ab_pairs.delta_moves([2.0, -4.0], [2.0, -4.0])
    assert same == {"decisions_agree": 2, "delta_move": {"median": 0.0, "max": 0.0}}


def test_ab_pairs_config_is_the_desk_workloads(monkeypatch):
    # the two hand-kept copies of desk-n500's training config must not drift apart
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import ab_pairs
    import run
    assert ab_pairs.CONFIG == dataclasses.asdict(run.default_config())


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


def test_ab_perfbench_same_tree_keeps_the_hashes(tmp_path):
    out = tmp_path / "ab.json"
    proc = python_proc([str(ROOT / "scripts" / "ab_perfbench.py"), "--base", str(ROOT),
                        "--change", str(ROOT), "--workload", "generate-gp", "--seconds", "1",
                        "--pairs", "1", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(summary["metrics"]) == {entry["name"] for entry in benchmark["end_to_end"]}
    assert summary["hashes_match"] is True
    assert all(len(values) == 1 for values in summary["hashes"].values())
    for metric in summary["metrics"].values():
        assert metric["change_wins"] in (0, 1)
        assert metric["base"]["q1"] == metric["base"]["median"] == metric["base"]["q3"]
    written = json.loads(out.read_text())
    assert written["summary"] == summary
    assert [run["first"] for run in written["runs"]] == ["base"]
    assert set(written["context"]) == {"base", "change"}


def test_ab_perfbench_exits_1_when_inputs_differ(tmp_path):
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    data = tmp_path / "src" / "comic" / "data.py"
    text = data.read_text()
    assert text.count("0x1.43638953eaed2p-2") == 1
    data.write_text(text.replace("0x1.43638953eaed2p-2", "0x1.43638953eaed3p-2"))
    proc = python_proc([str(ROOT / "scripts" / "ab_perfbench.py"), "--base", str(ROOT),
                        "--change", str(tmp_path), "--workload", "generate-gp",
                        "--seconds", "1", "--pairs", "1"])
    assert proc.returncode == 1, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["hashes_match"] is False
    assert len(summary["hashes"]["inputs_sha256"]) == 2


@pytest.fixture()
def ab_perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import ab_perfbench
    return ab_perfbench


def test_ab_perfbench_summarize_counts_wins_by_direction(ab_perfbench):
    end_to_end = [{"name": "wall_s", "better": "lower"},
                  {"name": "pairs_per_s", "better": "higher"},
                  {"name": "setup_s", "better": "lower"}]
    base = {"wall_s": [1.0, 2.0, 3.0, 4.0, 5.0], "pairs_per_s": [10.0, 10.0, 10.0, 11.0, 9.0]}
    change = {"wall_s": [0.5, 2.0, 2.5, 4.5, 1.0], "pairs_per_s": [12.0, 10.0, 20.0, 9.0, 30.0]}
    runs = {side: [{"metrics": {"setup_s": 0.1, **{name: values[i]
                                                 for name, values in metrics.items()}}}
                   for i in range(5)]
            for side, metrics in (("base", base), ("change", change))}
    summary = ab_perfbench.summarize(runs, end_to_end)
    # lower is better: pairs 1, 3 and 5 are wins, pair 2 a tie and pair 4 a loss;
    # the medians 3.0 and 2.0 differ by less than the base's spread 4.0 - 2.0
    assert summary["wall_s"]["better"] == "lower"
    assert summary["wall_s"]["base"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert summary["wall_s"]["change"]["median"] == 2.0
    assert summary["wall_s"]["change_wins"] == 3
    assert summary["wall_s"]["shift_exceeds_base_iqr"] is False
    # higher is better: pairs 1, 3 and 5 again; the base's spread is 0, so a
    # shift of the medians from 10 to 12 exceeds it
    assert summary["pairs_per_s"]["change_wins"] == 3
    assert summary["pairs_per_s"]["shift_exceeds_base_iqr"] is True
    # five ties: no win for the change, and no shift
    assert summary["setup_s"]["change_wins"] == 0
    assert summary["setup_s"]["shift_exceeds_base_iqr"] is False


def test_ab_perfbench_summarize_shift_must_exceed_the_base_spread(ab_perfbench):
    end_to_end = [{"name": "wall_s", "better": "lower"},
                  {"name": "pairs_per_s", "better": "higher"}]

    def summary(base, change):
        runs = {side: [{"metrics": {name: values[name][i] for name in values}}
                       for i in range(5)]
                for side, values in (("base", base), ("change", change))}
        return ab_perfbench.summarize(runs, end_to_end)

    base = {"wall_s": [1.0, 2.0, 3.0, 4.0, 5.0], "pairs_per_s": [10.0, 11.0, 12.0, 13.0, 14.0]}
    # medians 3 -> 5 and 12 -> 14: a shift equal to the base's q3 - q1 = 2 does not exceed it
    equal = summary(base, {"wall_s": [3.0, 4.0, 5.0, 6.0, 7.0],
                           "pairs_per_s": [12.0, 13.0, 14.0, 15.0, 16.0]})
    assert equal["wall_s"]["shift_exceeds_base_iqr"] is False
    assert equal["pairs_per_s"]["shift_exceeds_base_iqr"] is False
    # every pair worse for wall_s and better for pairs_per_s
    assert equal["wall_s"]["change_wins"] == 0
    assert equal["pairs_per_s"]["change_wins"] == 5
    # a shift past the spread counts in either direction, a loss as well as a gain
    beyond = summary(base, {"wall_s": [3.5, 4.5, 5.5, 6.5, 7.5],
                            "pairs_per_s": [9.0, 9.5, 9.75, 10.0, 10.5]})
    assert beyond["wall_s"]["shift_exceeds_base_iqr"] is True
    assert beyond["pairs_per_s"]["shift_exceeds_base_iqr"] is True
    assert beyond["wall_s"]["change_wins"] == beyond["pairs_per_s"]["change_wins"] == 0
    # ties count for neither side, whichever direction is better
    tied = summary(base, base)
    for metric in tied.values():
        assert metric["change_wins"] == 0
        assert metric["change"] == metric["base"]
        assert metric["shift_exceeds_base_iqr"] is False


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
