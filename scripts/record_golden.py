#!/usr/bin/env python
"""(Re-)record the committed golden-trace corpus.

Each spec below pins one run as ``tests/fixtures/golden/<name>.jsonl``;
``tests/test_replay.py`` replays every file in that directory and asserts
byte-identity, so the corpus is a cross-version determinism regression
net.  Re-run this script ONLY when an intentional behavior change
invalidates the pinned traces — the diff then shows exactly which runs
changed, and ``python -m repro.replay diff`` localizes where.

Run:  python scripts/record_golden.py [--out-dir DIR]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.faults import CrashWindow, FaultPlan  # noqa: E402
from repro.replay import ReplaySpec, check_golden, record_golden  # noqa: E402

#: name -> spec. Keep these SMALL (they are committed) and diverse: a
#: fault-free run, a lossy run, a crash-recover run, and the synchronizer.
SPECS = {
    "broadcast_clean": ReplaySpec(
        protocol="broadcast", n=10, extra_edges=10, graph_seed=2),
    "broadcast_lossy": ReplaySpec(
        protocol="broadcast", n=10, extra_edges=10, graph_seed=2,
        plan=FaultPlan(drop=0.2, seed=9)),
    "dfs_crash_recover": ReplaySpec(
        protocol="dfs", n=10, extra_edges=10, graph_seed=2,
        plan=FaultPlan(crashes=(CrashWindow(9, 2.0, 8.0),), seed=4)),
    "gamma_w_max": ReplaySpec(
        protocol="gamma_w(max)", n=8, extra_edges=6, graph_seed=3,
        limit=0),  # aggregate-only: the synchronizer trace is large
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", default=None,
                        help="corpus directory (default: tests/fixtures/golden)")
    args = parser.parse_args()
    out = Path(args.out_dir or str(REPO / "tests" / "fixtures" / "golden"))
    out.mkdir(parents=True, exist_ok=True)
    status = 0
    for name, spec in sorted(SPECS.items()):
        path = record_golden(spec, str(out / f"{name}.jsonl"))
        report = check_golden(path)
        print(f"{name}: {report.describe()}")
        if not report.ok:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
