"""Fast smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from sfctok.graph import candidate_pair_count  # noqa: E402
from tracing import candidate_pairs_closed_form  # noqa: E402

TINY = {
    "scene": workloads.Workload(
        "tiny-scene",
        "",
        3000,
        {"sample_n": 3000, "tokens": 16, "width": 32, "svd_rank": 8, "voxel_cell": 0.5},
    ),
    "serve": workloads.Workload(
        "tiny-serve",
        "",
        800,
        {"tokens": 16, "width": 32, "svd_rank": 8, "k_low": 3},
        serve=True,
    ),
}


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_complete(kind, trace, tmp_path):
    messages = []
    summary = workloads.run(TINY[kind], 3, 0.3, trace, str(tmp_path), messages.append)
    assert summary is not None
    assert summary["failed"] == 0, messages
    assert summary["attempted"] == summary["ops"] * (2 if trace else 1) + 2
    assert set(run.END_TO_END) <= set(summary["e2e"]) | {"setup_s"}
    if trace:
        tracer = summary["tracer"]
        layer = tracer.metrics()
        assert set(layer) | {"trace.overhead_s", "trace.stage_gap_s"} == set(run.per_layer_units())
        assert layer["tokenizer.points"] == TINY[kind].n_points
        assert layer["graph.candidate_pairs"] > 0
        assert layer["merger.sinkhorn.iterations"] >= 1
        assert (layer["gfm.gfm_apply.s"] > 0) == TINY[kind].serve
        assert (layer["io.bytes_in"] > 0) == TINY[kind].serve
        assert layer["tokenizer.mlp_project.s"] > 0
        assert layer["trace.wrapper_s"] > 0
        _, mismatches = run.cross_check(tracer, 0.0)
        assert mismatches == []


def test_benchmark_json_matches_harness():
    bench = benchmark_json()
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    assert e2e == run.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert layer == run.per_layer_units()
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def test_closed_form_matches_candidate_pair_count():
    for n in list(range(1, 120)) + [4000, 50_000, 200_001]:
        for stride, radius in ((1, 1), (3, 5), (16, 32), (40, 100)):
            assert candidate_pairs_closed_form(n, stride, radius) == candidate_pair_count(
                n, stride, radius
            )


def test_reference_comparison_catches_small_drift(tmp_path):
    runner = workloads.Runner(TINY["scene"], 0, str(tmp_path))
    runner.prepare(workloads.CHECK)
    sig = workloads.signature(runner.op(workloads.CHECK))
    assert workloads.compare_signature(sig, sig) == []
    drifted = dict(sig, feats_proj=[[v + 1e-6 for v in row] for row in sig["feats_proj"]])
    assert workloads.compare_signature(drifted, sig)
    assert workloads.compare_signature(dict(sig, edge_count=sig["edge_count"] + 1), sig)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = benchmark_json()["command"] + [
        "--workload", "serve-4k", "--seed", "1", "--seconds", "1", "--trace", "0"
    ]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
