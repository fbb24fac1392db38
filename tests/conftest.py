"""Shared fixtures: run graph-substrate tests through both scan paths.

:func:`repro.graphs.csr.source_scan` picks Floyd–Warshall or the Python
Dial/heap loop from the graph (``_fw_applicable``).  Every small
integral test graph takes the Floyd–Warshall path under that rule, so
``each_scan_path`` runs a test twice: once under the rule (``numpy``)
and once with the Python loop forced (``python``), asserting every
golden value on both paths.  The ids keep the ``backend=`` prefix so
test ids stay stable.  Modules opt in with
``pytestmark = pytest.mark.usefixtures("each_scan_path")``.
"""

import pytest

from repro.graphs import csr


@pytest.fixture(params=["python", "numpy"], ids=lambda p: f"backend={p}")
def each_scan_path(request, monkeypatch):
    """Run the requesting test once per scan path."""
    if request.param == "python":
        monkeypatch.setattr(csr, "_fw_applicable", lambda _flat: False)
    return request.param
