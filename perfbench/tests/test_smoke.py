"""Smoke test of the benchmark harness at a tiny training config.

Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from comic import codelength  # noqa: E402
from comic.codelength import TrainConfig  # noqa: E402

TINY = TrainConfig(hidden_width=6, map_epochs=40, vi_epochs=40, warmup_epochs=8,
                   mc_eval_samples=4, seed=0)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(capsys, workload: str, trace: int, seed: int = 3):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace)]
    code = run.main(argv, cfg=TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(capsys, workload, trace):
    code, report, result = invoke(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float)) and math.isfinite(emitted["value"])
    for key in ("scores_sha256", "inputs_sha256", "context"):
        assert report[key]
    if trace:
        assert report["trace"]["scores_sha256"] == report["scores_sha256"]


def test_scores_hash_repeats_across_invocations(capsys):
    _, first, _ = invoke(capsys, "desk-n500", 0)
    _, second, _ = invoke(capsys, "desk-n500", 0)
    assert first["scores_sha256"] == second["scores_sha256"]
    assert first["inputs_sha256"] == second["inputs_sha256"]


def test_gate_trips_on_a_negated_mirror(capsys, monkeypatch):
    real = codelength.score_pair

    def unsigned(pair, cfg):
        # the mirrored pair no longer negates the score
        report = real(pair, cfg)
        report.final_delta = abs(report.final_delta)
        return report

    run.check_mirror(run.mirror_pair(3), TINY)
    with pytest.raises(run.GateError):
        run.check_mirror(run.mirror_pair(3), TINY, score=unsigned)

    monkeypatch.setattr(codelength, "score_pair", unsigned)
    code, report, result = invoke(capsys, "desk-n500", 0)
    assert code == 1
    assert result["correct"] is False
    assert "mirror" in report["gate_error"]
