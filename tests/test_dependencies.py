"""The package imports and runs with only its declared dependencies."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_import_and_build_without_networkx():
    # A ``None`` entry in ``sys.modules`` makes ``import networkx`` raise
    # ImportError, as on a clean install that has only numpy.
    code = (
        "import sys; sys.modules['networkx'] = None; "
        "sys.path.insert(0, sys.argv[1]); "
        "import repro; "
        "from repro.benchmarks import build_benchmark; "
        "circuit = build_benchmark('QAOA-r4-32'); "
        "print(circuit.num_qubits)"
    )
    run = subprocess.run([sys.executable, "-c", code, SRC],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "32"
