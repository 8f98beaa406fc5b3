"""Self-tests of the benchmark: each workload at a tiny size, the output
contract, the injected-failure path and the pinned seed-0 study counts.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "perfbench"))
import run as bench  # noqa: E402
import workloads  # noqa: E402

_RUNS = {}


def run_bench(workload, trace, *extra, cwd=ROOT):
    """Run the benchmark for one tiny timed phase, set-up probes included;
    (result, info, process)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0.01", "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        return None, None, done
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"], done


def cached(workload, trace):
    if (workload, trace) not in _RUNS:
        result, info, done = run_bench(workload, trace)
        assert done.returncode == 0, done.stderr
        _RUNS[workload, trace] = result, info
    return _RUNS[workload, trace]


def assert_metrics(result, spec):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in spec}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present(workload):
    result, info = cached(workload, 0)
    assert_metrics(result, SPEC["end_to_end"])
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert info["failed_ratio"] == 0.0
    # asked of the loaded OpenBLAS, and no pool thread besides the main one
    assert info["env"]["blas_threads"] == 1
    assert info["env"]["os_threads"] == 1
    assert 0.0 < info["busy_ratio"] <= 1.5
    # this process's set-up plus one per fresh-interpreter probe
    assert len(info["setup_samples_s"]) == bench.SETUP_PROBES[workload] + 1
    assert all(s > 0.0 for s in info["setup_samples_s"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_present(workload):
    result, info = cached(workload, 1)
    assert_metrics(result, SPEC["per_layer"])
    assert info["missing_targets"] == []
    spans = (ROOT / info["spans_file"]).read_text().splitlines()
    assert len(spans) == info["spans"]
    first = json.loads(spans[0])
    assert first["parent"] == -1 and first["end_s"] >= first["start_s"]


def test_injected_failure_is_counted_and_run_finishes(monkeypatch, capsys):
    def failing_check(self, pair, out):
        raise workloads.CheckFailed("injected failing check")

    monkeypatch.setattr(workloads.RandomPairs, "check", failing_check)
    argv = ["--workload", "random-pairs", "--seed", "0", "--seconds", "0.2", "--trace", "0"]
    assert bench.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result, info = json.loads(lines[-1]), json.loads(lines[-2])["info"]
    assert result["correct"] is False
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_ratio"]["value"] == 0.0
    assert info["failed_ratio"] == 1.0
    assert "injected" in info["failures"][0]


def test_seed0_study_counts():
    """The seed-0 study: 240 lifts on 91 distinct tensors, 240 z_max
    calls on 175 distinct tensors and 336 SymTensor4 constructions."""
    metrics = cached("materials-study", 1)[0]["metrics"]
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["tensors.lift.calls"] == 240
    assert value["tensors.lift.distinct_ratio"] * 240 == pytest.approx(91)
    assert value["spectral.z_max.calls"] == 240
    assert value["spectral.z_max.distinct_ratio"] * 240 == pytest.approx(175)
    assert value["tensors.sym4.constructions"] == 336
    assert value["rng.draws"] == 48 * 27


def test_traced_counts_repeat_exactly():
    first = cached("random-pairs", 1)[0]["metrics"]
    second, _, done = run_bench("random-pairs", 1)
    assert done.returncode == 0, done.stderr
    counts = [k for k, v in first.items() if v["unit"] == "count" or k.endswith("distinct_ratio")]
    assert counts
    assert {k: first[k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_traced_and_untraced_answers_match():
    # the traced run compares every op's answer with the untraced pass
    # and counts a mismatch as a failure; the digests must agree too
    untraced = cached("materials-study", 0)[1]["csv_sha256"]
    traced = cached("materials-study", 1)[1]["csv_sha256"]
    assert untraced["0"] == traced["0"]


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*", "out", "tests"))
    result, _, done = run_bench("random-pairs", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tail_quantile():
    assert bench.tail_quantile(1000) == 0.9
    assert bench.tail_quantile(100) == 0.9
    assert bench.tail_quantile(50) == pytest.approx(0.8)
    assert bench.tail_quantile(8) == 0.5
    assert bench.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
    assert bench.percentile([1.0, 2.0], 0.9) == pytest.approx(1.9)
