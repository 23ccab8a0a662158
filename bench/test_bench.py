"""Tests of the benchmark itself: reproducible inputs and complete output."""

from __future__ import annotations

import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from worker import load_api, tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GENERATED = ("sweep", "certify-wide", "tim-exclusive")


@pytest.fixture
def make(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    api = load_api()

    def build(name: str, seed: int):
        workdir = tmp_path / f"{name}-{seed}"
        workdir.mkdir(exist_ok=True)
        return workloads.WORKLOADS[name](api, seed, workdir)

    return build


@pytest.mark.parametrize("name", GENERATED)
def test_seed_fixes_the_inputs(make, name):
    assert make(name, 3).digest == make(name, 3).digest
    assert make(name, 3).digest != make(name, 4).digest


def test_readme_inputs_are_the_fixed_commands(make):
    assert make("readme", 3).digest == make("readme", 4).digest


def test_sweep_generator_reproduces_criterion_2():
    spec = importlib.util.spec_from_file_location("criterion_conftest", ROOT / "tests" / "conftest.py")
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    ours, theirs = random.Random(workloads.CRITERION2_SEED), random.Random(workloads.CRITERION2_SEED)
    for _ in range(25):
        blocks = workloads.random_ensemble(ours)
        ensemble = reference.random_ensemble(theirs, max_n=6, max_k=3)
        assert [[list(row) for row in block.rows] for block in ensemble.blocks] == blocks


def test_generated_topologies_satisfy_p1_p2(make):
    from rankloss.tim import Topology, check_P1_P2

    rng = random.Random(0)
    for k in range(9, 21):
        for odd_cycle in (False, True):
            sets = workloads.random_topology(rng, k, odd_cycle)
            topology = Topology(tuple(frozenset(s) for s in sets))
            assert check_P1_P2(topology)[0]
            assert any(len(s) == 2 for s in sets)


def test_tail_has_ten_slower_jobs():
    values = [float(v) for v in range(100)]
    value, percentile = tail(values)
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100 * 89 / 99)
    assert tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_sampler_keeps_probes_off_its_clock():
    sampler = SpeedSampler()
    start = sampler.now()
    sampler.fill(8)
    end = sampler.now()
    assert len(sampler.took) == 8
    assert end - start < 0.5 * sum(sampler.took)
    assert sampler.probe_s(start, start) > 0  # widened to the nearest probes


def run_bench(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "readme", "--seed", "1", "--seconds", "0.5",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed(trace, section):
    result = run_bench(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
