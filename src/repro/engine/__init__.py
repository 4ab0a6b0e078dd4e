"""Compile-once / execute-many experiment engine.

The engine splits the simulation pipeline into two explicit stages:

* **compile** (:mod:`repro.engine.compiler`) — deterministic per
  (benchmark, design) cell: build the circuit, partition it, resolve the
  design, pre-build the schedule lookup table; cached by configuration
  fingerprint (:mod:`repro.engine.cache`).
* **execute** (:mod:`repro.engine.backends`) — stochastic per seed: replay
  a compiled cell through a pluggable :class:`ExecutionBackend`, serially
  or across a process pool.  Backends dispatch ``(cell, seed-chunk)``
  batches to the trajectory-batched execution core
  (:class:`~repro.runtime.batched.BatchedExecutor`); set
  ``REPRO_EXEC=legacy`` for the reference
  :class:`~repro.runtime.executor.DesignExecutor`.

The compile cache can persist across processes: point ``REPRO_CACHE_DIR``
(or pass ``cache_dir`` / a :class:`PersistentArtifactCache`) at a directory
and compiled artifacts are pickled there keyed by their configuration
fingerprints, so a fresh process starts sweeps with compilation already
paid.

:class:`~repro.engine.pipeline.ExperimentEngine` ties the stages together
for full benchmarks × designs × seeds grids.
"""

from repro.engine.backends import (
    ExecutionBackend,
    ExecutionTask,
    ProcessPoolBackend,
    SerialBackend,
    chunk_tasks,
    get_backend,
    list_backends,
    register_backend,
)
from repro.engine.cache import (
    CACHE_ENV_VAR,
    ArtifactCache,
    PersistentArtifactCache,
    default_cache,
    fingerprint,
    resolve_cache_dir,
)
from repro.engine.compiler import CellCompiler, CompiledCell
from repro.engine.pipeline import ExperimentEngine

__all__ = [
    "ArtifactCache",
    "PersistentArtifactCache",
    "default_cache",
    "resolve_cache_dir",
    "CACHE_ENV_VAR",
    "fingerprint",
    "CellCompiler",
    "CompiledCell",
    "ExecutionTask",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "chunk_tasks",
    "get_backend",
    "register_backend",
    "list_backends",
    "ExperimentEngine",
]
