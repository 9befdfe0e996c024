"""Pluggable batch-execution backends behind one ``run_jobs`` API.

``run_jobs(specs)`` is the single entry point the CLI, the sweeps
front-end, and the benchmarks use to execute work:

1. every spec's cache key is derived (coordinate keys by default --
   content fingerprints when ``REPRO_CACHE_COORD_KEYS=0``);
2. cache hits are answered immediately;
3. the misses are dispatched to the chosen backend --
   :class:`SerialBackend` runs them in-process,
   :class:`ProcessPoolBackend` fans them over a
   :class:`concurrent.futures.ProcessPoolExecutor` with chunked
   dispatch, and :class:`~repro.runtime.async_backend.AsyncBackend`
   streams them through asyncio-managed worker subprocesses;
4. fresh records are stored back and the full result list is returned
   in the order of the input specs.

:func:`iter_jobs` is the streaming face of the same machinery: it
yields ``(index, record, from_cache)`` triples as results land
(hits first, then misses in completion order) instead of barriering
the whole batch -- fresh records are cached the moment they arrive, so
a concurrent orchestrator sharing the same on-disk store sees them
mid-flight.

Records are flat primitive dicts (see :mod:`repro.runtime.jobs`), so
backends are interchangeable: the same batch yields byte-identical
aggregates whichever backend ran it.  Per-job randomness is carried
entirely by ``spec.seed`` (workers derive their streams via
:mod:`repro.runtime.seeding`), never by process-global state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..telemetry.metrics import get_metrics
from ..telemetry.spans import telemetry_enabled
from .async_backend import AsyncBackend
from .batching import coalesce, expand_batch_record
from .cache import CacheStats, KeyDeriver, ResultCache
from .config import RunConfig
from .jobs import JobSpec, Record, run_job, run_job_timed, spec_needs_graph
from .remote import RemoteBackend


class SerialBackend:
    """Runs every job in the calling process, one at a time."""

    name = "serial"
    # In-process execution profits from prebuilt graph objects: every
    # job on the same graph then shares one instance -- and therefore
    # one compiled simulator topology (see repro.congest.topology).
    wants_graph_hints = True

    def run(
        self,
        specs: Sequence[JobSpec],
        graphs: Optional[Sequence] = None,
    ) -> List[Record]:
        if graphs is None:
            return [run_job(spec) for spec in specs]
        # Reuse graphs the caller already built (e.g. for fingerprinting).
        return [run_job(spec, graph) for spec, graph in zip(specs, graphs)]

    def run_stream(
        self,
        specs: Sequence[JobSpec],
        graphs: Optional[Sequence] = None,
    ) -> Iterator[Tuple[int, Record, float]]:
        """Yield ``(index, record, seconds)`` as each job finishes."""
        if graphs is None:
            graphs = [None] * len(specs)
        for index, (spec, graph) in enumerate(zip(specs, graphs)):
            record, seconds = run_job_timed(spec, graph)
            yield index, record, seconds


def _run_chunk(specs: List[JobSpec]) -> List[Tuple[Record, float]]:
    """Module-level chunk runner (picklable for pool dispatch)."""
    return [run_job_timed(spec) for spec in specs]


class ProcessPoolBackend:
    """Fans jobs over a process pool with chunked dispatch.

    Args:
        max_workers: pool size; defaults to ``os.cpu_count()`` capped at
            the number of jobs.
        chunksize: jobs handed to a worker per dispatch; ``None`` picks
            ``ceil(len(jobs) / (4 * workers))`` so each worker sees a few
            chunks (amortizing pickling) while keeping the tail balanced.
    """

    name = "process"
    # Workers regenerate graphs from specs; prebuilding in the parent
    # would be wasted work, so run_jobs skips the hint for this backend.
    wants_graph_hints = False

    def __init__(
        self,
        max_workers: Optional[int] = None,
        chunksize: Optional[int] = None,
    ):
        self.max_workers = max_workers
        self.chunksize = chunksize

    def _plan(self, specs: Sequence[JobSpec]) -> Tuple[int, int]:
        workers = self.max_workers or min(len(specs), os.cpu_count() or 1)
        workers = max(1, min(workers, len(specs)))
        chunksize = self.chunksize
        if chunksize is None:
            chunksize = max(1, -(-len(specs) // (4 * workers)))
        return workers, chunksize

    def run(
        self,
        specs: Sequence[JobSpec],
        graphs: Optional[Sequence] = None,
    ) -> List[Record]:
        # *graphs* is accepted for interface parity but ignored: workers
        # regenerate inputs from the spec, which is cheaper than pickling
        # whole graphs across the process boundary.
        if not specs:
            return []
        # Lazy import: keep module import cheap and fork-safe contexts
        # selectable by the caller's environment.
        from concurrent.futures import ProcessPoolExecutor

        workers, chunksize = self._plan(specs)
        if workers == 1:
            return SerialBackend().run(specs)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map() preserves input order, so cached and fresh records
            # interleave deterministically regardless of worker timing.
            return list(pool.map(run_job, specs, chunksize=chunksize))

    def run_stream(
        self,
        specs: Sequence[JobSpec],
        graphs: Optional[Sequence] = None,
    ) -> Iterator[Tuple[int, Record, float]]:
        """Yield ``(index, record, seconds)`` per chunk, as chunks land."""
        if not specs:
            return
        from concurrent.futures import ProcessPoolExecutor, as_completed

        specs = list(specs)
        workers, chunksize = self._plan(specs)
        if workers == 1:
            yield from SerialBackend().run_stream(specs, graphs)
            return
        chunks = [
            list(range(start, min(start + chunksize, len(specs))))
            for start in range(0, len(specs), chunksize)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_run_chunk, [specs[i] for i in chunk]): chunk
                for chunk in chunks
            }
            for future in as_completed(futures):
                chunk = futures[future]
                for index, (record, seconds) in zip(chunk, future.result()):
                    yield index, record, seconds


BACKENDS = {
    "serial": SerialBackend,
    "process": ProcessPoolBackend,
    "async": AsyncBackend,
    "remote": RemoteBackend,
}
"""Backend registry used by the CLI's ``--backend`` flag."""


def make_backend(name: str, **kwargs):
    """Instantiate a backend by registry name."""
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None
    return factory(**kwargs)


def _graph_hints(specs: Sequence[JobSpec]) -> List:
    """Build each distinct input graph once and map it onto *specs*.

    Mirrors the cache layer's per-batch graph memo for cache-less runs:
    specs that share graph coordinates (family/far, n, effective graph
    seed) receive the *same* graph object, so downstream consumers --
    most importantly the simulator's per-graph compiled-topology memo --
    only pay the derivation once per distinct topology.  Graphless
    kinds (audit jobs) receive ``None``.
    """
    built: Dict = {}
    hints = []
    for spec in specs:
        if not spec_needs_graph(spec):
            hints.append(None)
            continue
        key = spec.graph_coordinates
        graph = built.get(key)
        if graph is None:
            graph = built[key] = spec.build_graph()
        hints.append(graph)
    return hints


@dataclass
class BatchResult:
    """Outcome of one :func:`run_jobs` call.

    Attributes:
        records: one record per input spec, in input order.
        cache_stats: snapshot of this batch's hits/misses (hits are
            lookups answered from the cache *in this call*).
        backend: name of the backend that ran the misses.
        executed: number of jobs actually executed (= misses).
    """

    records: List[Record]
    cache_stats: CacheStats
    backend: str
    executed: int

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


def _backend_stream(
    backend,
    specs: List[JobSpec],
    graphs: Optional[List],
    keys: Optional[List[str]],
) -> Iterator[Tuple[int, Record, Optional[float]]]:
    """Stream ``(position, record, seconds)`` from *backend*.

    Prefers the backend's native ``run_stream`` (completion order);
    falls back to the barriering ``run`` for custom backends that only
    implement the original interface.  *keys* are forwarded to
    backends that declare ``wants_keys`` (the async/remote backends
    hand them to workers for shared-store lookups).  ``seconds`` is
    the job's wall-time where the backend measured one (``None`` for
    legacy two-tuple streams and the ``run`` fallback) -- the cost
    book feeds it to the scheduler's per-kind/per-n cost table.
    """
    kwargs = {}
    if getattr(backend, "wants_keys", False) and keys is not None:
        kwargs["keys"] = keys
    stream = getattr(backend, "run_stream", None)
    if stream is not None:
        for item in stream(specs, graphs=graphs, **kwargs):
            if len(item) == 3:
                yield item
            else:
                position, record = item
                yield position, record, None
        return
    records = backend.run(specs, graphs=graphs, **kwargs)
    for position, record in enumerate(records):
        yield position, record, None


def iter_jobs(
    specs: Sequence[JobSpec],
    backend=None,
    cache: Optional[ResultCache] = None,
    stats: Optional[CacheStats] = None,
    cost_book=None,
    batch: Optional[int] = None,
    config: Optional[RunConfig] = None,
) -> Iterator[Tuple[int, Record, bool]]:
    """Execute *specs*, yielding ``(index, record, from_cache)`` as they land.

    Cache hits stream first (input order); misses follow in the
    backend's completion order.  Fresh records are stored into *cache*
    the moment they arrive, so concurrent orchestrators sharing one
    on-disk store observe them mid-batch.  Duplicate specs within the
    batch execute once; their copies are yielded when the first record
    lands.

    Args:
        specs: job specs to run.
        backend: backend instance or registry name (default serial).
        cache: optional :class:`ResultCache`.
        stats: optional :class:`CacheStats` to fill with this batch's
            hit/miss/store counters (what :func:`run_jobs` reports).
        cost_book: optional :class:`~repro.runtime.scheduler.CostBook`
            fed one ``(kind, n, seconds)`` observation per executed
            job (cache hits are never observed; a coalesced trial is
            observed under its own ``simulate_program`` kind at its
            amortized ``seconds / B`` share).
        batch: coalesce eligible same-cell simulator trials into
            ``simulate_batch`` jobs of at most this many members
            (``None`` consults ``REPRO_SIM_BATCH``; 1 disables).  The
            expansion is transparent: yielded records, cache contents,
            and cost observations are per-trial regardless.
        config: optional :class:`~repro.runtime.config.RunConfig`; when
            *batch* is ``None`` its ``sim_batch`` knob (arg > env >
            default) supplies the coalescing limit.
    """
    if batch is None and config is not None:
        batch = config.resolve("sim_batch")
    if backend is None:
        backend = SerialBackend()
    elif isinstance(backend, str):
        backend = make_backend(backend)
    if getattr(backend, "accepts_cost_book", False):
        # Backends that observe job costs out-of-band (the remote
        # backend logs partial elapsed time for requeued jobs) get the
        # live book for the duration of the batch -- including ``None``,
        # so a reused backend never writes into a stale book.
        backend.cost_book = cost_book
    specs = list(specs)
    batch_stats = stats if stats is not None else CacheStats()
    traced = telemetry_enabled()

    if cache is None:
        # No cache: still deduplicate identical specs within the batch.
        unique: Dict[JobSpec, List[int]] = {}
        for index, spec in enumerate(specs):
            unique.setdefault(spec, []).append(index)
        ordered = list(unique)
        dispatch, sources = coalesce(ordered, batch)
        graphs = (
            _graph_hints(dispatch)
            if getattr(backend, "wants_graph_hints", False)
            else None
        )
        for position, record, seconds in _backend_stream(
            backend, dispatch, graphs, None
        ):
            members = sources[position]
            if dispatch[position].kind == "simulate_batch":
                per_trial = (
                    seconds / len(members) if seconds is not None else None
                )
                expanded = zip(members, expand_batch_record(record))
            else:
                per_trial = seconds
                expanded = ((members[0], record),)
            for source, trial_record in expanded:
                spec = ordered[source]
                if cost_book is not None and per_trial is not None:
                    cost_book.observe(spec.kind, spec.n, per_trial)
                for index in unique[spec]:
                    yield index, dict(trial_record), False
        return

    deriver = KeyDeriver()
    keys = [deriver.key_for(spec) for spec in specs]
    miss_indices: List[int] = []
    pending: Dict[str, List[int]] = {}
    for index, (spec, key) in enumerate(zip(specs, keys)):
        if key in pending:
            # Duplicate within the batch: piggyback on the first miss.
            pending[key].append(index)
            batch_stats.hits += 1
            continue
        hit = cache.lookup(key)
        if hit is not None:
            batch_stats.hits += 1
            if traced:
                get_metrics().inc("cache.hits")
            yield index, hit, True
        else:
            batch_stats.misses += 1
            if traced:
                get_metrics().inc("cache.misses")
            miss_indices.append(index)
            pending[key] = [index]

    if not miss_indices:
        return
    miss_specs = [specs[i] for i in miss_indices]
    miss_keys = [keys[i] for i in miss_indices]
    dispatch, sources = coalesce(miss_specs, batch)
    dispatch_keys = [
        miss_keys[srcs[0]]
        if dspec.kind != "simulate_batch"
        else deriver.key_for(dspec)
        for dspec, srcs in zip(dispatch, sources)
    ]
    dispatch_graphs = None
    if getattr(backend, "wants_graph_hints", False):
        dispatch_graphs = [deriver.graph_for(spec) for spec in dispatch]
        # Coordinate-keyed derivers never build graphs; fill the gaps so
        # in-process misses still share one instance (and one compiled
        # topology) per distinct input.
        built: Dict = {}
        for position, (spec, graph) in enumerate(
            zip(dispatch, dispatch_graphs)
        ):
            if graph is None and spec_needs_graph(spec):
                key = spec.graph_coordinates
                graph = built.get(key)
                if graph is None:
                    graph = built[key] = spec.build_graph()
                dispatch_graphs[position] = graph
    # When the backend's workers persist to this cache's own disk store
    # (async backend sharing store_dir), the record is already on disk
    # by the time it streams back: remember it in memory only, or every
    # line would land twice.  Coalesced trials are the exception: the
    # workers persisted only the *batch* record under the batch key, so
    # the expanded per-trial records must be stored here regardless.
    backend_store = getattr(backend, "store_dir", None)
    workers_persist = (
        backend_store is not None
        and cache.disk_dir is not None
        and Path(backend_store).resolve() == Path(cache.disk_dir).resolve()
    )
    absorb = cache.remember if workers_persist else cache.store
    for position, record, seconds in _backend_stream(
        backend, dispatch, dispatch_graphs, dispatch_keys
    ):
        members = sources[position]
        if dispatch[position].kind == "simulate_batch":
            per_trial = seconds / len(members) if seconds is not None else None
            expanded = zip(members, expand_batch_record(record))
            store_trial = cache.store
        else:
            per_trial = seconds
            expanded = ((members[0], record),)
            store_trial = absorb
        for source, trial_record in expanded:
            index = miss_indices[source]
            if cost_book is not None and per_trial is not None:
                spec = miss_specs[source]
                cost_book.observe(spec.kind, spec.n, per_trial)
            store_trial(keys[index], trial_record)
            batch_stats.stores += 1
            for dup_index in pending[keys[index]]:
                yield dup_index, dict(trial_record), False


def run_jobs(
    specs: Sequence[JobSpec],
    backend=None,
    cache: Optional[ResultCache] = None,
    cost_book=None,
    config: Optional[RunConfig] = None,
) -> BatchResult:
    """Execute *specs*, serving repeats from *cache*.

    Args:
        specs: job specs; duplicates within the batch are executed once.
        backend: a backend instance or registry name; defaults to
            :class:`SerialBackend`.
        cache: a :class:`ResultCache`; ``None`` disables caching (every
            spec executes).
        cost_book: optional :class:`~repro.runtime.scheduler.CostBook`
            collecting per-job wall-times (see :func:`iter_jobs`).
        config: optional :class:`~repro.runtime.config.RunConfig`
            supplying the ``sim_batch`` coalescing limit (arg > env >
            default; see :func:`iter_jobs`).

    Returns:
        A :class:`BatchResult` with one record per spec, in input order.
    """
    batch = config.resolve("sim_batch") if config is not None else None
    return _run_jobs(
        specs, backend=backend, cache=cache, cost_book=cost_book,
        batch=batch,
    )


def _run_jobs(
    specs: Sequence[JobSpec],
    backend=None,
    cache: Optional[ResultCache] = None,
    cost_book=None,
    batch: Optional[int] = None,
) -> BatchResult:
    """:func:`run_jobs` with an already-resolved coalescing limit
    (``run_sweep`` sizes ``"auto"`` batches before calling it)."""
    if backend is None:
        backend = SerialBackend()
    elif isinstance(backend, str):
        backend = make_backend(backend)

    specs = list(specs)
    batch_stats = CacheStats()
    records: List[Optional[Record]] = [None] * len(specs)
    for index, record, _from_cache in iter_jobs(
        specs, backend=backend, cache=cache, stats=batch_stats,
        cost_book=cost_book, batch=batch,
    ):
        records[index] = record
    executed = batch_stats.misses if cache is not None else len(set(specs))
    return BatchResult(
        records=[r for r in records if r is not None],
        cache_stats=batch_stats,
        backend=getattr(backend, "name", type(backend).__name__),
        executed=executed,
    )
