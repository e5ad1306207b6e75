"""Self-test of the benchmark: output contract, exact counters, bare checkout.

Run from the repository root::

    python3 -m pytest -q bench/test_bench.py

The smoke tests take seconds. ``test_repeat_frac_matches_seed_commit`` runs
each workload's full op table once, traced, and takes about a minute on a
2-core machine at the seed commit's eigensolver.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def bench(workload: str, *flags: str, seed: int = 3, seconds: int = 1,
          cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), *flags],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-2])["provenance"]


def counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not run._is_timing(k)}


def test_spec_names_and_caps():
    e2e, layers = SPEC["end_to_end"], SPEC["per_layer"]
    assert len(e2e) <= 16 and len(layers) <= 128
    names = [m["name"] for m in e2e + layers] + WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in e2e)} in e2e


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = bench(workload, "--smoke", "--trace", str(trace))
    out = result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for value in out["metrics"].values():
        assert isinstance(value["value"], (int, float))
    info = provenance(proc)
    for key in ("git_commit", "momenta_version", "python", "numpy", "blas",
                "blas_threads", "nproc", "seed", "ops_per_pass"):
        assert key in info
    if not trace:
        assert info["op_tail_ops"] == out["attempted"]
        assert "op_tail_percentile" in info
        raw = info["raw_seconds"]
        assert raw["calibration_s"] > 0
        assert set(raw) >= {"setup_s", "wall_s", "op_p50_s", "op_tail_s"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly_at_one_seed(workload):
    first = result(bench(workload, "--smoke", "--trace", "1"))["metrics"]
    second = result(bench(workload, "--smoke", "--trace", "1"))["metrics"]
    assert counts(first) == counts(second)
    assert first["linalg.hermitian_eig.calls"]["value"] > 0


# repeat_frac of each full workload at seed 1, measured at the initial
# commit (pure-Python Jacobi eigensolver, no spectrum reuse). A program
# change that removes repeated eigensolves moves these on purpose; they are a
# record, not a target.
SEED_COMMIT_REPEAT_FRAC = {"campaign": 0.343, "verify-file": 0.267,
                           "bounds-large": 0.0}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_repeat_frac_matches_seed_commit(workload):
    proc = bench(workload, "--trace", "1", seed=1, seconds=1)
    metrics = result(proc)["metrics"]
    value = metrics["linalg.hermitian_eig.repeat_frac"]["value"]
    assert value == pytest.approx(SEED_COMMIT_REPEAT_FRAC[workload], abs=0.005)
    if workload == "bounds-large":
        # Exactly one eigensolve per op.
        calls = metrics["linalg.hermitian_eig.calls"]["value"]
        assert calls == provenance(proc)["ops_per_pass"]


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("campaign", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_percentile_leaves_ten_ops_beyond():
    values = [float(i) for i in range(1, 101)]
    q = run.tail_percentile(len(values))
    assert q == 90.0
    tail = run.percentile(values, q)
    assert sum(v > tail for v in values) == 10
