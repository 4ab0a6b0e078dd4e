"""Golden pins of run output across both execution cores.

Both execution cores (batched and legacy) draw their links from the same
:class:`~repro.entanglement.service.EntanglementService`, so the
core-vs-core identity suites cannot notice a change in the service's
semantics.  ``tests/data/golden_fig56_runs.json`` was written by::

    python -m repro run --benchmark QFT-32 --benchmark QAOA-r8-32 \\
        --runs 4 --seed 11 --out tests/data/golden_fig56_runs.json

before the merged success timeline replaced the per-pair scans.
``tests/data/golden_cutoff_runs.json`` pins the storage-cutoff path (no
paper design sets a cutoff); it was written, before the service's buffer
became two flat time lists, by::

    designs = [get_design(name).with_overrides(
                   name=f"{name}-c{cutoff:g}", buffer_cutoff=cutoff)
               for name in ("sync_buf", "adapt_buf", "init_buf")
               for cutoff in (2.0, 5.0, 40.0)] + ["original", "init_buf"]
    Study(benchmarks=["TLIM-32", "QFT-32"], designs=designs, num_runs=6,
          base_seed=7).run().to_json()

Both cores must reproduce both files byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.runtime.execmode import EXEC_ENV_VAR
from repro.study.study import Study

DATA = Path(__file__).parent / "data"


def _assert_matches_golden(path: Path) -> None:
    expected = path.read_text()
    spec = json.loads(expected)["metadata"]
    with Study.from_spec(spec) as study:
        assert study.run().to_json() == expected


@pytest.mark.parametrize("mode", ["batched", "legacy"])
def test_fig56_output_matches_golden(monkeypatch, mode):
    monkeypatch.setenv(EXEC_ENV_VAR, mode)
    _assert_matches_golden(DATA / "golden_fig56_runs.json")


@pytest.mark.parametrize("mode", ["batched", "legacy"])
def test_cutoff_output_matches_golden(monkeypatch, mode):
    monkeypatch.setenv(EXEC_ENV_VAR, mode)
    _assert_matches_golden(DATA / "golden_cutoff_runs.json")
