"""Traced launcher: run ``repro``'s CLI with every layer wrapped in spans.

Usage::

    python e2ebench/launch.py SPAN_DIR <repro CLI arguments...>

Imports the CLI (timed as the ``import`` layer), wraps the public
functions listed in :data:`LAYERS` with :class:`spans.Tracer` spans, and
calls ``repro.study.cli.main``.  At exit — normal return, or SIGTERM,
which the CLI turns into a clean shutdown — the process writes its spans
to ``SPAN_DIR/<pid>.json``.  Nothing in ``repro`` itself changes.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import atexit  # noqa: E402 - the clock starts before any other import
import functools  # noqa: E402
import importlib  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402

#: (module, attribute path, layer, hot).  ``hot`` layers are called per
#: remote gate and keep totals instead of one span per call.
LAYERS = [
    ("repro.study.study", "Study.run", "study.run", False),
    ("repro.engine.compiler", "CellCompiler.compile", "engine.compile", False),
    ("repro.benchmarks.registry", "build_benchmark", "benchmarks.build",
     False),
    ("repro.partitioning.assigner", "distribute_circuit",
     "partitioning.distribute", False),
    ("repro.runtime.executor", "DesignExecutor.build_lookup",
     "scheduling.lookup", False),
    ("repro.runtime.gatestream", "lower_cell", "runtime.lower", False),
    ("repro.engine.compiler", "CompiledCell.execute_batch",
     "runtime.execute", False),
    ("repro.entanglement.service", "EntanglementService.acquire",
     "entanglement.acquire", True),
    ("repro.entanglement.service", "EntanglementService.advance_to",
     "entanglement.advance", True),
    ("repro.fleet.backend", "FleetBackend.execute", "fleet.dispatch", False),
    ("repro.study.store", "encode_chunk", "store.encode", False),
    ("repro.study.store", "RunStore.append_chunk", "store.append", False),
    ("repro.study.store", "RunStore.load_results", "store.read", False),
    ("repro.study.results", "ResultSet.to_json", "results.to_json", False),
    ("repro.service.daemon", "StudyDaemon.submit", "service.submit", False),
    ("repro.service.jobs", "JobJournal.append", "service.journal", False),
    ("repro.service.scheduler", "Scheduler._run_job", "service.job", False),
    ("repro.service.httpapi", "ServiceRequestHandler.do_GET",
     "service.http", False),
    ("repro.service.httpapi", "ServiceRequestHandler.do_POST",
     "service.http", False),
]


def _patch_function(module, name: str, wrapper) -> None:
    """Replace a module-level function everywhere ``repro`` bound it.

    ``from x import f`` copies the reference into the importing module,
    so every loaded ``repro`` module holding the original is rebound.
    """
    original = getattr(module, name)
    for loaded in list(sys.modules.values()):
        if (getattr(loaded, "__name__", "").startswith("repro")
                and getattr(loaded, name, None) is original):
            setattr(loaded, name, wrapper)


def _request_of(layer: str):
    """Request-id extractor for the layers that start a request."""
    if layer == "service.job":
        return lambda _scheduler, job, *_a, **_k: job.id
    if layer == "runtime.execute":
        return lambda cell, *_a, **_k: f"{cell.benchmark}/{cell.design.name}"
    if layer == "engine.compile":
        return lambda _compiler, circuit, design, *_a, **_k: (
            f"{circuit}/{getattr(design, 'name', design)}")
    return None


def _add_counters(tracer: Tracer) -> None:
    """Count work where it happens; runs before the layers are wrapped,
    so each count lands in the span of the call that did the work."""
    from repro.engine.cache import ArtifactCache, PersistentArtifactCache
    from repro.engine.compiler import CompiledCell
    from repro.runtime.resources import EntanglementDirectory
    from repro.study import store

    execute = CompiledCell.execute_batch

    def execute_counted(cell, seeds, *args, **kwargs):
        tracer.count("runtime.runs", len(seeds))
        return execute(cell, seeds, *args, **kwargs)

    CompiledCell.execute_batch = execute_counted

    aggregate = EntanglementDirectory.aggregate_statistics

    def aggregate_counted(directory):
        totals = aggregate(directory)
        for key in ("generated", "consumed_from_buffer", "consumed_direct",
                    "wasted"):
            tracer.count(f"entanglement.{key}", totals[key])
        return totals

    EntanglementDirectory.aggregate_statistics = aggregate_counted

    encode = store.encode_chunk

    def encode_counted(records, shard_format):
        data = encode(records, shard_format)
        tracer.count("store.chunks")
        tracer.count("store.bytes", len(data))
        return data

    store.encode_chunk = encode_counted

    def cache_counted(get):
        def get_counted(cache, *args, **kwargs):
            hits, misses = cache.hits, cache.misses
            try:
                return get(cache, *args, **kwargs)
            finally:
                tracer.count("engine.cache_hits", cache.hits - hits)
                tracer.count("engine.cache_misses", cache.misses - misses)
        return get_counted

    # The persistent cache overrides ``get`` without calling the base.
    for cache_type in (ArtifactCache, PersistentArtifactCache):
        cache_type.get = cache_counted(cache_type.get)


def install(tracer: Tracer) -> None:
    """Wrap every layer in :data:`LAYERS`, plus fsync, with counters."""
    _add_counters(tracer)
    for module_name, path, layer, hot in LAYERS:
        module = importlib.import_module(module_name)
        wrap = functools.partial(tracer.wrap, layer=layer, hot=hot,
                                 request=_request_of(layer))
        if "." in path:
            owner_name, attr = path.split(".")
            owner = getattr(module, owner_name)
            setattr(owner, attr, wrap(getattr(owner, attr)))
        else:
            _patch_function(module, path, wrap(getattr(module, path)))
    # fsync counts under the store when the store calls it.
    os.fsync = tracer.wrap(
        os.fsync,
        lambda parent: "store.fsync" if parent == "store.append" else "fsync")


def main() -> None:
    span_dir = Path(sys.argv[1])
    argv = sys.argv[2:]
    tracer = Tracer()
    from repro.study import cli
    for module_name, _path, _layer, _hot in LAYERS:
        importlib.import_module(module_name)
    tracer.add_span("import", _STARTED, time.perf_counter())
    install(tracer)
    atexit.register(tracer.dump, span_dir / f"{os.getpid()}.json",
                    argv=argv)
    sys.exit(cli.main(argv))


if __name__ == "__main__":
    main()
