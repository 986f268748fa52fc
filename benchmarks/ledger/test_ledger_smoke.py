"""Smoke test of the perf ledger: every workload, untraced and traced.

Runs the command ``BENCHMARK.json`` declares at ``--scale smoke`` with
one-second phases and checks the result line against the declaration.  It
asserts names and shapes, never speeds.
"""

import json
import os
import re
import subprocess
from concurrent.futures import ThreadPoolExecutor

import pytest

# benchmarks/conftest.py only marks its direct children.
pytestmark = pytest.mark.bench

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    DECLARED = json.load(_handle)


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        DECLARED["command"] + ["--workload", workload, "--seed", "3",
                               "--seconds", "1", "--trace", str(trace),
                               "--scale", "smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    """All eight runs, two at a time (the box has two cores)."""
    cells = [(w["name"], trace) for w in DECLARED["workloads"]
             for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(cells, pool.map(lambda cell: _run(*cell), cells)))


def test_declared_names_are_well_formed():
    names = [w["name"] for w in DECLARED["workloads"]] \
        + [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert DECLARED["paths"] == ["benchmarks/ledger"]


def test_every_run_emits_exactly_the_declared_metrics(results):
    for (workload, trace), result in results.items():
        declared = DECLARED["per_layer" if trace else "end_to_end"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, (workload, trace)
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == {m["name"]: m["unit"] for m in declared}, (workload, trace)


def test_the_trace_shows_what_each_workload_stresses(results):
    layers = {workload: {name: m["value"]
                         for name, m in result["metrics"].items()}
              for (workload, trace), result in results.items() if trace}
    assert layers["serve-hot"]["core.request_embedding.calls"] == 0
    assert layers["serve-hot"]["serving.memo.hit_ratio"] == 1.0
    assert layers["serve-cold"]["serving.memo.hit_ratio"] == 0.0
    assert layers["serve-cold"]["core.request_embedding.calls"] == 1.0
    assert layers["train"]["serving.server.calls"] == 0
    assert layers["train"]["nn.backward.self_ms"] > 0
    assert layers["ingest-serve"]["graph.apply_updates.calls"] == 1.0
    assert 0.0 < layers["ingest-serve"]["serving.memo.hit_ratio"] < 1.0
    for workload, metrics in layers.items():
        assert metrics["ledger.unexplained_share"] <= 0.15, workload
