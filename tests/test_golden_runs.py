"""Golden pin of the Fig 5/6 run output across both execution cores.

Both execution cores (batched and legacy) draw their links from the same
:class:`~repro.entanglement.service.EntanglementService`, so the
core-vs-core identity suites cannot notice a change in the service's
semantics.  ``tests/data/golden_fig56_runs.json`` was written by::

    python -m repro run --benchmark QFT-32 --benchmark QAOA-r8-32 \\
        --runs 4 --seed 11 --out tests/data/golden_fig56_runs.json

before the merged success timeline replaced the per-pair scans; both cores
must still reproduce it byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.runtime.execmode import EXEC_ENV_VAR
from repro.study.study import Study

GOLDEN = Path(__file__).parent / "data" / "golden_fig56_runs.json"


@pytest.mark.parametrize("mode", ["batched", "legacy"])
def test_fig56_output_matches_golden(monkeypatch, mode):
    monkeypatch.setenv(EXEC_ENV_VAR, mode)
    expected = GOLDEN.read_text()
    spec = json.loads(expected)["metadata"]
    with Study.from_spec(spec) as study:
        assert study.run().to_json() == expected
