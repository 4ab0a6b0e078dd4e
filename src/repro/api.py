"""Stable extension facade: every pluggable registry behind one import.

The library is organised around five string-keyed registries — benchmarks,
designs, execution backends, partitioning strategies, and interconnect
topologies.  This module re-exports each registry's lookup / listing /
registration functions so third-party code has a single, entry-point-style
integration surface; every exported name carries a usage example in its
docstring, and ``docs/extending.md`` walks through a worked ``register_*``
call per registry::

    from repro import api

    class AnnealedPartitioner(api.Partitioner):
        name = "annealed"
        supports_k_way = True

        def partition(self, graph, num_blocks=2, seed=0):
            ...

    api.register_partitioner(AnnealedPartitioner())
    api.register_topology(api.Topology("dumbbell", my_links_builder))

Once registered, the names work everywhere a built-in does:
``SystemConfig(partition_method="annealed", topology="dumbbell")``, study
axes (``Axis("partition_method", [...])``), spec files, and the
``python -m repro`` CLI.

The ``REPRO_EXEC`` knob (``execution_mode`` / ``BATCHED`` / ``LEGACY``)
selects between the batched production core and the legacy reference
core — bit-identical per seed — ``REPRO_BACKEND`` picks the default
execution backend, and ``REPRO_CACHE_DIR`` (``default_cache`` /
``PersistentArtifactCache``) persists compile artifacts on disk for
cross-process reuse; see ``docs/architecture.md``.
"""

from repro.benchmarks.registry import (
    BenchmarkSpec,
    build_benchmark,
    get_benchmark,
    list_benchmarks,
    register_benchmark,
)
from repro.engine.backends import (
    ExecutionBackend,
    get_backend,
    list_backends,
    register_backend,
)
from repro.engine.cache import (
    CACHE_ENV_VAR,
    ArtifactCache,
    PersistentArtifactCache,
    default_cache,
    resolve_cache_dir,
)
from repro.hardware.topology import (
    Topology,
    get_topology,
    list_topologies,
    register_topology,
    validate_remote_pairs,
)
from repro.partitioning.registry import (
    Partitioner,
    PrecomputedPartitioner,
    get_partitioner,
    list_partitioners,
    register_partitioner,
)
from repro.runtime.designs import (
    DesignSpec,
    get_design,
    list_designs,
    register_design,
)
from repro.runtime.execmode import (
    BATCHED,
    EXEC_ENV_VAR,
    LEGACY,
    execution_mode,
)
from repro.fleet import (
    FleetBackend,
    FleetCoordinator,
    FleetWorker,
)
from repro.service import (
    ServiceClient,
    ServiceConfig,
    StudyDaemon,
)
from repro.faults import (
    FAULTS_ENV_VAR,
    SITES,
    InjectedFault,
    failpoint,
    fault_stats,
    install_faults,
    uninstall_faults,
)

__all__ = [
    # partitioners
    "Partitioner",
    "PrecomputedPartitioner",
    "get_partitioner",
    "list_partitioners",
    "register_partitioner",
    # topologies
    "Topology",
    "get_topology",
    "list_topologies",
    "register_topology",
    "validate_remote_pairs",
    # benchmarks
    "BenchmarkSpec",
    "get_benchmark",
    "build_benchmark",
    "list_benchmarks",
    "register_benchmark",
    # designs
    "DesignSpec",
    "get_design",
    "list_designs",
    "register_design",
    # execution backends
    "ExecutionBackend",
    "get_backend",
    "list_backends",
    "register_backend",
    # execution cores (REPRO_EXEC)
    "BATCHED",
    "LEGACY",
    "EXEC_ENV_VAR",
    "execution_mode",
    # compile caches (REPRO_CACHE_DIR)
    "ArtifactCache",
    "PersistentArtifactCache",
    "default_cache",
    "resolve_cache_dir",
    "CACHE_ENV_VAR",
    # study service (repro serve / docs/service.md)
    "StudyDaemon",
    "ServiceConfig",
    "ServiceClient",
    # worker fleet (repro worker / docs/fleet.md)
    "FleetBackend",
    "FleetCoordinator",
    "FleetWorker",
    # deterministic fault injection (REPRO_FAULTS / docs/robustness.md)
    "FAULTS_ENV_VAR",
    "SITES",
    "InjectedFault",
    "failpoint",
    "fault_stats",
    "install_faults",
    "uninstall_faults",
]
