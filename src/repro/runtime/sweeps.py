"""Parameter-grid sweeps and the sharded sweep orchestrator.

A :class:`SweepSpec` is a cartesian grid: one job *kind*, plus lists of
graph coordinates (families or far families, sizes, seeds) and
kind-specific parameters (epsilons, methods, ...).  ``expand()`` unrolls
the grid into :class:`~repro.runtime.jobs.JobSpec` objects in a
deterministic order; :func:`run_sweep` executes them on any backend and
wraps the records in a :class:`SweepResult` that renders
:class:`~repro.analysis.tables.Table` views and summary statistics.

Sweeps **shard**: :class:`ShardedSweep` splits a grid into ``k``
deterministic pieces -- by a stable key-hash of each job's canonical
encoding (``balance="hash"``), or by measured job cost
(``balance="cost"``: LPT over the scheduler's learned per-kind/per-n
wall-times, hash fallback while there is no history) -- so independent
orchestrator processes (CI legs, machines in a fleet) each run
``--shard i/k`` against one shared on-disk store and a final
``merge()`` -- or simply a full ``--resume`` run, which is then a 100%
cache hit -- reassembles the grid in canonical expansion order.
``resume=True`` certifies a cache is attached and reruns only the keys
the store is missing (the executor's hit path skips even graph
generation under the default coordinate keys).  Runs with a disk store
automatically feed their wall-times back into the cost table
(:class:`~repro.runtime.scheduler.CostBook`), so balance improves as
history accrues.

This is the layer the benchmarks (E01-E16) and the CLI's ``sweep``
subcommand sit on; anything that used to hand-roll nested ``for`` loops
over ``make_planar`` + ``test_planarity`` goes through here instead.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.tables import Table
from ..telemetry.metrics import get_metrics
from ..telemetry.spans import TRACE_PARENT_ENV_VAR, get_tracer
from .batching import auto_batch_size
from .cache import CacheStats, ResultCache
from .config import RunConfig
from .executor import BatchResult, _run_jobs, iter_jobs, make_backend, run_jobs
from .jobs import JobSpec, Record
from .scheduler import CostBook, CostModel, assign_shards


@dataclass(frozen=True)
class SweepSpec:
    """A cartesian parameter grid for one job kind.

    Attributes:
        kind: registered job kind.
        families: planar families to sweep (ignored for far jobs when
            *fars* is non-empty).
        fars: far-from-planar families to sweep; when non-empty these
            are swept *instead of* ``families``.
        ns: graph sizes.
        seeds: master seeds.
        params: mapping from config knob to the list of values to sweep
            (e.g. ``{"epsilon": [0.5, 0.1]}``); scalars are promoted to
            one-element lists.
    """

    kind: str
    families: Tuple[str, ...] = ("delaunay",)
    fars: Tuple[str, ...] = ()
    ns: Tuple[int, ...] = (500,)
    seeds: Tuple[int, ...] = (0,)
    params: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()

    @classmethod
    def make(
        cls,
        kind: str,
        families: Sequence[str] = ("delaunay",),
        fars: Sequence[str] = (),
        ns: Sequence[int] = (500,),
        seeds: Sequence[int] = (0,),
        **params: Any,
    ) -> "SweepSpec":
        """Build a spec; scalar *params* values become singleton axes."""
        axes = tuple(
            (key, tuple(value) if isinstance(value, (list, tuple)) else (value,))
            for key, value in sorted(params.items())
        )
        return cls(
            kind=kind,
            families=tuple(families),
            fars=tuple(fars),
            ns=tuple(int(n) for n in ns),
            seeds=tuple(int(s) for s in seeds),
            params=axes,
        )

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe dict encoding (inverse of :meth:`from_payload`).

        This is what travels inside a service ``submit`` frame: plain
        lists and primitives only, so any codec (JSON, the binary wire
        format) can carry it and the server reconstructs an identical
        grid -- ``SweepSpec.from_payload(s.to_payload()) == s``.
        """
        return {
            "kind": self.kind,
            "families": list(self.families),
            "fars": list(self.fars),
            "ns": list(self.ns),
            "seeds": list(self.seeds),
            "params": [[key, list(values)] for key, values in self.params],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SweepSpec":
        """Rebuild a spec from :meth:`to_payload` output."""
        return cls(
            kind=payload["kind"],
            families=tuple(payload.get("families", ())),
            fars=tuple(payload.get("fars", ())),
            ns=tuple(int(n) for n in payload.get("ns", ())),
            seeds=tuple(int(s) for s in payload.get("seeds", ())),
            params=tuple(
                (key, tuple(values))
                for key, values in payload.get("params", ())
            ),
        )

    @property
    def size(self) -> int:
        """Number of jobs the grid expands to."""
        graphs = len(self.fars) or len(self.families)
        total = graphs * len(self.ns) * len(self.seeds)
        for _key, values in self.params:
            total *= len(values)
        return total

    def expand(self) -> List[JobSpec]:
        """Unroll the grid into job specs (deterministic order).

        Axis order is graphs (outermost), then n, then each param axis
        in sorted-key order, then seeds (innermost) -- so repeated-trial
        seeds for one configuration are adjacent, which keeps chunked
        process-pool dispatch cache-friendly.
        """
        graph_axis: List[Tuple[Optional[str], Optional[str]]]
        if self.fars:
            graph_axis = [(None, far) for far in self.fars]
        else:
            graph_axis = [(family, None) for family in self.families]
        param_keys = [key for key, _values in self.params]
        param_values = [values for _key, values in self.params]
        specs: List[JobSpec] = []
        for (family, far), n in itertools.product(graph_axis, self.ns):
            for combo in itertools.product(*param_values):
                config = dict(zip(param_keys, combo))
                for seed in self.seeds:
                    specs.append(
                        JobSpec.make(
                            self.kind,
                            family=family or "delaunay",
                            far=far,
                            n=n,
                            seed=seed,
                            **config,
                        )
                    )
        return specs


def job_shard(spec: JobSpec, shards: int) -> int:
    """Deterministic shard assignment by key-hash of the canonical spec.

    Stable across processes, Python versions, and hash randomization
    (SHA-256 over :meth:`JobSpec.canonical`), so every orchestrator
    partitions a grid identically without coordination.
    """
    if shards <= 0:
        raise ValueError(f"shards must be positive, got {shards}")
    digest = hashlib.sha256(spec.canonical().encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


@dataclass(frozen=True)
class ShardedSweep:
    """A :class:`SweepSpec` split into ``shards`` deterministic pieces.

    Shards partition the expanded grid by :func:`job_shard` (the
    default key-hash split) or, with ``balance="cost"``, by the
    scheduler's LPT assignment over measured job costs
    (:func:`~repro.runtime.scheduler.assign_shards`; falls back to the
    hash split while the cost table is empty).  Each shard can run
    (and resume) independently -- on another process, another machine,
    another CI leg -- against one shared cache store, and
    :meth:`merge` reassembles per-shard results into canonical
    expansion order.  Keep the *same* cost table across a fleet's legs
    for a consistent partition; mismatched tables at worst overlap
    (cache hits) or leave gaps a final ``--resume`` fills.
    """

    spec: SweepSpec
    shards: int = 2
    balance: str = "hash"
    cost_model: Optional[CostModel] = None

    def __post_init__(self):
        if self.shards <= 0:
            raise ValueError(f"shards must be positive, got {self.shards}")
        if self.balance not in ("hash", "cost"):
            raise ValueError(
                f"balance must be 'hash' or 'cost', got {self.balance!r}"
            )

    def assignments(self) -> List[int]:
        """Shard index per expanded spec, in canonical expansion order."""
        specs = self.spec.expand()
        if self.balance == "cost":
            return assign_shards(specs, self.shards, model=self.cost_model)
        return [job_shard(spec, self.shards) for spec in specs]

    def shard_specs(self, index: int) -> List[JobSpec]:
        """The expansion-ordered job specs belonging to shard *index*."""
        if not 0 <= index < self.shards:
            raise ValueError(
                f"shard index {index} out of range 0..{self.shards - 1}"
            )
        return [
            spec
            for spec, shard in zip(self.spec.expand(), self.assignments())
            if shard == index
        ]

    def run_shard(
        self,
        index: int,
        backend=None,
        cache: Optional[ResultCache] = None,
    ) -> "SweepResult":
        """Execute one shard; the result covers only that shard's jobs."""
        batch = run_jobs(self.shard_specs(index), backend=backend, cache=cache)
        return SweepResult(spec=self.spec, batch=batch)

    def merge(self, results: Sequence["SweepResult"]) -> "SweepResult":
        """Reassemble per-shard results into canonical expansion order.

        *results* must hold one :class:`SweepResult` per shard, in
        shard-index order (each as returned by :meth:`run_shard`).
        """
        if len(results) != self.shards:
            raise ValueError(
                f"expected {self.shards} shard results, got {len(results)}"
            )
        queues = [list(result.records) for result in results]
        cursors = [0] * self.shards
        merged: List[Record] = []
        assignments = self.assignments()
        for spec, shard in zip(self.spec.expand(), assignments):
            cursor = cursors[shard]
            if cursor >= len(queues[shard]):
                raise ValueError(
                    f"shard {shard} is short {spec.kind!r} records; "
                    "was it run against this grid?"
                )
            merged.append(queues[shard][cursor])
            cursors[shard] = cursor + 1
        stats = _merge_stats(result.batch.cache_stats for result in results)
        batch = BatchResult(
            records=merged,
            cache_stats=stats,
            backend=results[0].batch.backend if results else "serial",
            executed=sum(result.batch.executed for result in results),
        )
        return SweepResult(spec=self.spec, batch=batch)


def _merge_stats(stats: Iterable) -> "CacheStats":
    from .cache import CacheStats

    merged = CacheStats()
    for item in stats:
        merged.hits += item.hits
        merged.misses += item.misses
        merged.stores += item.stores
        merged.evictions += item.evictions
        merged.disk_hits += item.disk_hits
    return merged


@dataclass
class SweepResult:
    """Records of one executed sweep plus aggregation helpers."""

    spec: SweepSpec
    batch: BatchResult
    records: List[Record] = field(default_factory=list)

    def __post_init__(self):
        if not self.records:
            self.records = list(self.batch.records)

    def column(self, name: str) -> List[Any]:
        """All values of one record field, in record order."""
        return [record.get(name) for record in self.records]

    def to_table(
        self,
        title: str,
        columns: Optional[Sequence[str]] = None,
    ) -> Table:
        """Render the records as an :class:`analysis.tables.Table`.

        Args:
            title: table title.
            columns: record fields to show; defaults to the union of the
                record keys in first-seen order.
        """
        if columns is None:
            columns = []
            for record in self.records:
                for key in record:
                    if key not in columns:
                        columns.append(key)
        table = Table(title, list(columns))
        for record in self.records:
            table.add_row(*(record.get(col, "-") for col in columns))
        return table

    def summary(self) -> Dict[str, Any]:
        """Batch-level summary: counts, acceptance, round aggregates."""
        rounds = [r for r in self.column("rounds") if isinstance(r, (int, float))]
        accepted = [a for a in self.column("accepted") if isinstance(a, bool)]
        summary: Dict[str, Any] = {
            "jobs": len(self.records),
            "executed": self.batch.executed,
            "cache_hits": self.batch.cache_stats.hits,
            "cache_hit_rate": self.batch.cache_stats.hit_rate,
            "backend": self.batch.backend,
        }
        if rounds:
            summary["rounds_min"] = min(rounds)
            summary["rounds_max"] = max(rounds)
            summary["rounds_mean"] = sum(rounds) / len(rounds)
        if accepted:
            summary["accept_rate"] = sum(accepted) / len(accepted)
        return summary


def _set_env(name: str, value: Optional[str]) -> None:
    if value is None:
        os.environ.pop(name, None)
    else:
        os.environ[name] = value


def run_sweep(
    spec: SweepSpec,
    backend=None,
    cache: Optional[ResultCache] = None,
    shard: Optional[Tuple[int, int]] = None,
    resume: bool = False,
    balance: str = "hash",
    cost_model: Optional[CostModel] = None,
    progress=None,
    config: Optional[RunConfig] = None,
) -> SweepResult:
    """Expand *spec* and execute it via :func:`repro.runtime.run_jobs`.

    Args:
        spec: the grid to run.
        backend / cache: as :func:`~repro.runtime.run_jobs`.
        shard: ``(index, count)`` restricts execution to one
            deterministic shard of the grid (see :class:`ShardedSweep`);
            the result covers only that shard's jobs.
        resume: certify this is a continuation run: requires *cache*
            (otherwise nothing could have survived the earlier run) and
            executes only the keys the cache is missing -- which is the
            executor's normal hit path, so a completed sweep resumes as
            a 100% hit with zero graph generations under coordinate
            keys.
        balance: shard placement policy: ``"hash"`` (key-hash counts)
            or ``"cost"`` (LPT over measured wall-times; falls back to
            hash while the cost table is empty).
        cost_model: explicit :class:`~repro.runtime.scheduler.CostModel`
            for ``balance="cost"``; defaults to the history in the
            cache's disk store.
        progress: optional
            :class:`~repro.telemetry.dashboard.SweepProgress` fed one
            update per landing record (the CLI's ``--progress`` live
            line); switches execution to the streaming
            :func:`~repro.runtime.iter_jobs` path.
        config: optional :class:`~repro.runtime.config.RunConfig`.
            Its ``sim_batch`` knob (arg > env > default) sets the
            coalescing limit: an int caps graph-batched
            ``simulate_batch`` jobs at that many member trials (1
            disables), ``"auto"`` sizes batches from the store's
            measured per-trial wall-times so one batch job lands near
            :data:`~repro.runtime.batching.AUTO_TARGET_SECONDS` of
            work (fixed default without history); batching is
            transparent either way -- records, cache state, and cost
            accounting stay per-trial on every backend.  Its
            ``sim_batch_waste`` knob bounds the padding waste of
            ragged batches.  Every *explicitly set* knob is exported
            to the environment for the sweep's duration, so pool
            forks and same-host workers resolve the run identically.

    Runs with a disk store feed their measured wall-times back into
    the store's metadata shard, so later ``balance="cost"`` splits
    have history to work from.  With telemetry enabled
    (:mod:`repro.telemetry`) the whole batch runs under a ``sweep``
    span (plus a nested ``shard`` span for sharded legs) whose id is
    exported as ``REPRO_TRACE_PARENT`` for the duration, so every
    backend's job spans -- including remote workers' -- link under it
    in the merged trace.
    """
    if config is None:
        config = RunConfig()
    batch_limit = config.resolve("sim_batch")
    if resume and cache is None:
        raise ValueError(
            "resume=True needs a cache (e.g. ResultCache(disk_dir=...)); "
            "without one there is nothing to resume from"
        )
    if isinstance(backend, str):
        backend = make_backend(backend)
    store = cache.store_backend if cache is not None else None
    if shard is not None:
        index, count = shard
        if balance == "cost" and cost_model is None:
            cost_model = CostModel.from_store(store)
        specs = ShardedSweep(
            spec, count, balance=balance, cost_model=cost_model
        ).shard_specs(index)
    else:
        specs = spec.expand()
    if isinstance(batch_limit, str) and batch_limit.strip().lower() == "auto":
        # Cost-aware sizing: the store's metadata shard holds measured
        # per-trial wall-times from earlier runs of this grid.
        auto_model = cost_model or CostModel.from_store(store)
        batch_limit = auto_batch_size(auto_model, specs)
    backend_name = (
        getattr(backend, "name", type(backend).__name__)
        if backend is not None
        else "serial"
    )
    cost_book = CostBook(store) if store is not None else None
    tracer = get_tracer()
    if cost_book is not None and tracer.enabled:
        # Attach the pre-sweep model: every observation then feeds the
        # predicted-vs-actual error histogram (scheduler.cost_rel_error).
        cost_book.model = CostModel.from_store(store)
    with ExitStack() as stack:
        # Exported knobs are restored on exit, so nested sweeps with
        # different configs stay coherent.
        stack.enter_context(config.export())
        sweep_span = stack.enter_context(
            tracer.span(
                "sweep", kind=spec.kind, jobs=len(specs), backend=backend_name
            )
        )
        if shard is not None:
            stack.enter_context(
                tracer.span(
                    "shard", index=shard[0], count=shard[1], balance=balance
                )
            )
        if tracer.enabled:
            parent_id = tracer.current_span_id()
            if parent_id:
                # Export the batch's parent span for child processes
                # (pool forks, async worker env, remote welcome frame);
                # restored on exit so nested sweeps stay coherent.
                stack.callback(
                    _set_env,
                    TRACE_PARENT_ENV_VAR,
                    os.environ.get(TRACE_PARENT_ENV_VAR),
                )
                os.environ[TRACE_PARENT_ENV_VAR] = parent_id
        try:
            if progress is not None:
                eta_model = cost_model
                if eta_model is None and cost_book is not None:
                    eta_model = cost_book.model or CostModel.from_store(store)
                batch = _run_streaming(
                    specs, backend, cache, cost_book, progress, eta_model,
                    backend_name, batch_limit=batch_limit,
                )
            else:
                batch = _run_jobs(
                    specs, backend=backend, cache=cache,
                    cost_book=cost_book, batch=batch_limit,
                )
        finally:
            # Flush even when the batch aborts: the wall-times of every
            # job that *did* complete are exactly the history a retry's
            # cost-balanced split needs.
            if cost_book is not None:
                cost_book.flush()
        sweep_span.set(
            executed=batch.executed, hits=batch.cache_stats.hits
        )
    if tracer.enabled and tracer.trace_dir is not None:
        get_metrics().flush_to(tracer.trace_dir)
    return SweepResult(spec=spec, batch=batch)


def _run_streaming(
    specs: List[JobSpec],
    backend,
    cache: Optional[ResultCache],
    cost_book: Optional[CostBook],
    progress,
    eta_model: Optional[CostModel],
    backend_name: str,
    batch_limit: Optional[int] = None,
) -> BatchResult:
    """The ``--progress`` execution path: stream records through the
    dashboard as they land, then assemble the same :class:`BatchResult`
    :func:`~repro.runtime.run_jobs` would have returned."""
    stats = CacheStats()
    records: List[Optional[Record]] = [None] * len(specs)
    progress.start(specs, cost_model=eta_model, backend=backend)
    try:
        for index, record, from_cache in iter_jobs(
            specs, backend=backend, cache=cache, stats=stats,
            cost_book=cost_book, batch=batch_limit,
        ):
            records[index] = record
            progress.update(index, record, from_cache)
    finally:
        progress.finish()
    executed = stats.misses if cache is not None else len(set(specs))
    return BatchResult(
        records=[r for r in records if r is not None],
        cache_stats=stats,
        backend=backend_name,
        executed=executed,
    )
