"""Tiny-size self-test of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench -q``.  The
workloads are shrunk to a few small graphs, so the whole file takes
seconds; it checks the harness, not the library's speed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """Shrink every workload to a few small instances."""
    for cls, sizes in {
        workloads.GammaWSpt: {"N": 10, "EXTRA": 12, "GRAPHS": 2},
        workloads.ChaosSweep: {"N": 10, "EXTRA": 12, "GRAPHS": 1},
        workloads.GraphParams: {"SPARSE_N": 30, "DENSE_N": 20, "DENSE_EXTRA": 80,
                                "GN_N": 12, "COVER_N": 14},
    }.items():
        for name, value in sizes.items():
            monkeypatch.setattr(cls, name, value)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "OUT_DIR", HERE.parent / ".perfbench_out" / "selftest")
    yield
    assert tracing.live_patches() == 0


def _run(workload: str, trace: int) -> tuple[int, dict]:
    args = run._args(["--workload", workload, "--seed", "3",
                      "--seconds", "0.05", "--trace", str(trace)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.run(args)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metrics_match_benchmark_json(workload, trace):
    code, result = _run(workload, trace)
    assert code == 0 and result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], int | float)


def test_planted_wrong_output_fails_the_run(monkeypatch):
    original = workloads.GammaWSpt.summarize

    def corrupt(self, out):
        counts, (dist, parent), messages = original(self, out)
        far = next(v for v in dist if parent[v] is not None)
        return counts, ({**dist, far: dist[far] + 1}, parent), messages

    monkeypatch.setattr(workloads.GammaWSpt, "summarize", corrupt)
    code, result = _run("gamma_w_spt", 1)
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0


def test_oracles_fire_on_planted_wrong_outputs():
    w = workloads.make("gamma_w_spt", 3)
    b = w.batch("plain")
    assert w.check(b.outputs) == [None] * len(b.outputs)
    dist, parent = b.outputs[0]
    far = next(v for v in dist if parent[v] is not None)
    bad = ({**dist, far: dist[far] + 1}, parent)
    assert w.check([bad] + b.outputs[1:])[0] is not None
    assert w.check([workloads.Raised("ValueError: boom")])[0].startswith("raised")

    g = workloads.make("graph_params", 3)
    out = g.batch("plain").outputs
    kind, params = out[0]
    wrong = (kind, dataclasses.replace(params, D=params.D + 1))
    assert g.check(out) == [None] * len(out)
    assert g.check([wrong] + out[1:])[0] is not None

    from repro.experiments.chaos import make_cases
    from repro.faults import run_chaos

    for case in make_cases(10, 12, 1):
        if case.name not in ("mst_ghs", "dfs"):
            continue
        answer = run_chaos(case.graph, case.factory, plan=None, reliable=False,
                           answer=case.answer).answer
        assert oracle.chaos_answer_problem(case, answer) is None
        if case.name == "dfs":  # give the root a parent
            planted = [(v, "1" if p == "None" else p) for v, p in answer]
        else:  # drop a tree edge: no longer spanning
            planted = answer[1:]
        assert oracle.chaos_answer_problem(case, planted) is not None, case.name

    row = {"status": "ok", "reliable": True, "answer_digest": "x"}
    assert oracle.chaos_row_problem(row, "x") is None
    assert oracle.chaos_row_problem(row, "y") is not None
    assert oracle.chaos_row_problem({**row, "status": "stalled"}, "x") is not None
    raw = {**row, "reliable": False}
    assert oracle.chaos_row_problem({**raw, "status": "stalled"}, "x") is None
    assert oracle.chaos_row_problem({**raw, "status": "wrong"}, "x") is not None


@pytest.mark.parametrize("workload", ["gamma_w_spt", "chaos_sweep"])
def test_traced_counts_equal_untraced(workload):
    w = workloads.make(workload, 3)
    try:
        w.warm()
        plain = w.batch("plain")
        counted = w.batch("count")
        traced = w.batch("trace")
    finally:
        w.close()
    assert traced.counts == plain.counts == counted.counts
    assert traced.fired == counted.fired
    assert all(f > 0 for f in counted.fired)
    fold = tracing.merge_folds(traced.folds)
    assert fold["fired"] == sum(counted.fired)
    # One counted send per transmission, framed reliable sends included.
    sends = sum(c for k, c in fold["calls"].items() if k.startswith("network.send:"))
    assert sends == traced.messages
    assert sum(fold["self_s"].values()) == pytest.approx(fold["root_s"], rel=1e-6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_does_not_probe_shared_memory(monkeypatch, workload):
    # The probe creates a segment, and with it a resource-tracker process
    # that would outlive the benchmark.
    from repro.graphs import shm

    def refuse():
        raise AssertionError("shared-memory probe during a benchmark run")

    monkeypatch.setattr(shm, "shm_available", refuse)
    code, result = _run(workload, 1)
    assert code == 0 and result["correct"], result
