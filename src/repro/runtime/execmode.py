"""Execution-core selection.

The engine ships two execution cores that produce bit-identical results
per seed:

* ``"batched"`` (default) — :class:`~repro.runtime.batched.BatchedExecutor`
  replaying the compiler's array-backed gate streams for whole seed batches,
  the only production core,
* ``"legacy"`` — the original per-gate
  :class:`~repro.runtime.executor.DesignExecutor`, kept as the reference
  implementation.

The active core is chosen per process through the ``REPRO_EXEC`` environment
variable, so any entry point (tests, benchmarks, the CLI, worker processes)
can be flipped to the reference core without code changes::

    REPRO_EXEC=legacy python -m repro run --benchmark TLIM-32
"""

from __future__ import annotations

import os
from typing import Optional

from repro.exceptions import ConfigurationError

__all__ = ["BATCHED", "LEGACY", "EXEC_ENV_VAR", "execution_mode"]

BATCHED = "batched"
LEGACY = "legacy"
EXEC_ENV_VAR = "REPRO_EXEC"

_MODES = (BATCHED, LEGACY)


def execution_mode(override: Optional[str] = None) -> str:
    """Resolve the active execution core.

    ``override`` (when given) wins over the ``REPRO_EXEC`` environment
    variable; an unset environment defaults to the batched core.

    Example
    -------
    >>> from repro.runtime.execmode import execution_mode
    >>> execution_mode("legacy")
    'legacy'
    """
    mode = override if override is not None else os.environ.get(EXEC_ENV_VAR)
    if mode is None or mode == "":
        return BATCHED
    mode = mode.lower()
    if mode not in _MODES:
        raise ConfigurationError(
            f"unknown execution mode {mode!r} (from "
            f"{'override' if override is not None else EXEC_ENV_VAR}); "
            f"available: {', '.join(_MODES)}"
        )
    return mode
