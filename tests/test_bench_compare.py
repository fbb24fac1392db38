"""Unit tests for the bench harness's --compare regression gate."""

import importlib.util
import json
import pathlib

_BENCH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", _BENCH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

_REPO = _BENCH.parent.parent


def _report(eq_rates, kernels=None, net=None, chaos=None, quick=False):
    """A minimal report: per-shape event rates, per-shape CSR kernel
    seconds, flood throughput and sweep speedup."""
    rep = {"quick": quick,
           "event_queue": {"shapes": {
               k: {"current_events_per_s": v} for k, v in eq_rates.items()}}}
    if kernels is not None:
        rep["graph_kernels"] = {"shapes": {
            k: {"csr_s": v} for k, v in kernels.items()}}
    if net is not None:
        rep["network"] = {"messages_per_s": net}
    if chaos is not None:
        rep["chaos_sweep"] = {"speedup": chaos}
    return rep


def test_identical_reports_pass():
    r = _report({"wave": 3e6, "chain": 1e6}, kernels={"grid": 0.01},
                net=500000.0, chaos=1.0)
    ok, geomean, ratios = bench.compare_reports(r, r)
    assert ok
    assert abs(geomean - 1.0) < 1e-12
    assert set(ratios) == {
        "event_queue/wave/events_per_s", "event_queue/chain/events_per_s",
        "graph_kernels/grid/runs_per_s", "network/messages_per_s",
        "chaos_sweep/speedup",
    }


def test_regression_beyond_tolerance_fails():
    base = _report({"wave": 3e6, "chain": 1.2e6}, net=500000.0)
    cur = _report({"wave": 2e6, "chain": 0.9e6}, net=400000.0)  # ~ -28%
    ok, geomean, _ = bench.compare_reports(cur, base, tolerance=0.10)
    assert not ok
    assert geomean < 0.9


def test_regression_within_tolerance_passes():
    base = _report({"wave": 3e6}, net=500000.0)
    cur = _report({"wave": 2.85e6}, net=480000.0)  # ~ -4.5%
    ok, geomean, _ = bench.compare_reports(cur, base, tolerance=0.10)
    assert ok
    assert 0.9 < geomean < 1.0


def test_slower_kernels_lower_the_ratio():
    # graph_kernels report seconds; the gate compares their inverse.
    base = _report({"wave": 1e6}, kernels={"grid": 0.010})
    cur = _report({"wave": 1e6}, kernels={"grid": 0.020})
    ok, _, ratios = bench.compare_reports(cur, base)
    assert abs(ratios["graph_kernels/grid/runs_per_s"] - 0.5) < 1e-12
    assert not ok


def test_improvements_offset_small_regressions_via_geomean():
    base = _report({"wave": 1e6, "chain": 1e6})
    cur = _report({"wave": 2e6, "chain": 0.8e6})  # geomean ~1.26
    ok, geomean, _ = bench.compare_reports(cur, base)
    assert ok and geomean > 1.0


def test_new_sections_are_skipped_not_failed():
    # Baseline predates the kernel bench: its metrics must not count.
    base = _report({"wave": 3e6})
    cur = _report({"wave": 3e6}, kernels={"grid": 0.01}, chaos=2.0)
    ok, geomean, ratios = bench.compare_reports(cur, base)
    assert ok
    assert "graph_kernels/grid/runs_per_s" not in ratios
    assert "chaos_sweep/speedup" not in ratios
    assert abs(geomean - 1.0) < 1e-12


def test_disjoint_reports_fail():
    ok, _, ratios = bench.compare_reports(_report({"wave": 1e6}), {})
    assert not ok and ratios == {}


def test_run_compare_fails_when_nothing_is_shared(tmp_path, capsys):
    base = tmp_path / "BENCH_base.json"
    base.write_text(json.dumps({"quick": False, "rev": "abc"}))
    assert not bench.run_compare(_report({"wave": 1e6}), base, 0.10)
    assert "shares no metric" in capsys.readouterr().err


def test_run_compare_fails_on_quick_vs_full(tmp_path, capsys):
    base = tmp_path / "BENCH_base.json"
    base.write_text(json.dumps(_report({"wave": 1e6}, quick=False)))
    # Same numbers, so only the size mismatch can fail the gate.
    assert not bench.run_compare(_report({"wave": 1e6}, quick=True), base,
                                 0.10)
    assert "quick=True" in capsys.readouterr().err


def test_run_compare_passes_same_sizes(tmp_path):
    base = tmp_path / "BENCH_base.json"
    base.write_text(json.dumps(_report({"wave": 1e6}, quick=True)))
    assert bench.run_compare(_report({"wave": 1e6}, quick=True), base, 0.10)


def test_committed_baseline_is_comparable():
    # An old-format artifact still exposes the raw-rate gate metrics.
    baseline = json.loads((_REPO / "BENCH_757cd87.json").read_text())
    metrics = bench.comparable_metrics(baseline)
    assert "event_queue/chain/events_per_s" in metrics
    assert "chaos_sweep/speedup" in metrics
    assert all(v > 0 for v in metrics.values())


def test_first_compare_against_pre_change_report_is_not_vacuous():
    # The parent report CI re-measures is in the pre-change format (with
    # legacy sides); a new-format report must gate the same sections.
    old = json.loads((_REPO / "BENCH_8cc8d50.json").read_text())
    new = {
        "event_queue": bench.bench_event_queue(reps=1, quick=True),
        "graph_kernels": bench.bench_graph_kernels(reps=1, quick=True),
        # The big tier's record format is unchanged; reuse the stored one.
        "big_tier": old["big_tier"],
    }
    old_keys = set(bench.comparable_metrics(old))
    new_keys = set(bench.comparable_metrics(new))
    for prefix in ("event_queue/", "graph_kernels/", "big_tier/"):
        old_sec = {k for k in old_keys if k.startswith(prefix)}
        new_sec = {k for k in new_keys if k.startswith(prefix)}
        assert old_sec, prefix
        assert old_sec == new_sec, prefix
