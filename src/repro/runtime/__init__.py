"""Runtime: resources, designs, executors.

Two execution cores share the same stochastic processes and produce
bit-identical results per seed: the trajectory-batched
:class:`~repro.runtime.batched.BatchedExecutor` replaying pre-lowered
:mod:`~repro.runtime.gatestream` arrays per seed (the production core), and
the legacy per-gate :class:`~repro.runtime.executor.DesignExecutor` (the
reference, selectable via ``REPRO_EXEC=legacy``).
"""

from repro.runtime.batched import BatchedExecutor, execute_batch
from repro.runtime.designs import DESIGNS, DesignSpec, get_design, list_designs
from repro.runtime.execmode import (
    BATCHED,
    EXEC_ENV_VAR,
    LEGACY,
    execution_mode,
)
from repro.runtime.executor import DesignExecutor, execute_design
from repro.runtime.gatestream import CompiledStreams, GateStream, lower_cell
from repro.runtime.metrics import ExecutionResult, RemoteGateRecord
from repro.runtime.resources import DataQubitTracker, EntanglementDirectory
from repro.runtime.trace import ExecutionTrace, GateTraceEntry

__all__ = [
    "DataQubitTracker",
    "EntanglementDirectory",
    "DesignSpec",
    "DESIGNS",
    "get_design",
    "list_designs",
    "DesignExecutor",
    "execute_design",
    "BatchedExecutor",
    "execute_batch",
    "CompiledStreams",
    "GateStream",
    "lower_cell",
    "BATCHED",
    "LEGACY",
    "EXEC_ENV_VAR",
    "execution_mode",
    "ExecutionResult",
    "RemoteGateRecord",
    "ExecutionTrace",
    "GateTraceEntry",
]
