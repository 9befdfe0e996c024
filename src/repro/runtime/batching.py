"""Coalescing simulator trials into graph-batched ``simulate_batch`` jobs.

A sweep cell expands into many ``simulate_program`` specs that differ
only in ``seed``.  When batching is enabled
(``run_sweep(sweep, config=RunConfig(sim_batch=B))``,
``repro-planarity sweep --batch B``, or ``REPRO_SIM_BATCH``), the
executor routes its miss list through :func:`coalesce`, which folds
each group of same-``(graph, n, config)`` trials into one
``simulate_batch`` spec carrying the member seeds.  The batch job runs
all trials in one array program on the batched tensor plane
(:mod:`repro.congest.batch`) and returns the per-trial records; the
executor re-expands them, so callers, caches, and every backend
(serial / process / async / remote) observe exactly the records a
scalar run would have produced -- batching is transparent end to end.

Only the vectorized protocols under the ``fast`` profile on the dense
plane are eligible; anything else (faithful profile, telemetry runs,
custom programs, dict plane) passes through untouched.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from .jobs import JobSpec, Record

BATCH_ENV_VAR = "REPRO_SIM_BATCH"

BATCHABLE_PROGRAMS = frozenset({"bfs", "cv", "flood", "forest", "storm"})
"""Programs with a registered batch kernel (kept in sync by tests)."""

AUTO_BATCH_DEFAULT = 32
"""``--batch auto`` without cost history: a fixed, safe middle ground."""

AUTO_TARGET_SECONDS = 0.5
"""``--batch auto`` sizes one batch job to about this much wall-time."""

AUTO_BATCH_MAX = 256
"""Upper bound on an auto-sized batch (bounds worker memory)."""


def resolve_batch(batch=None) -> int:
    """Resolve the batch limit (arg, then ``REPRO_SIM_BATCH``, then 1).

    Accepts ints, numeric strings, and ``"auto"``.  ``"auto"`` here
    resolves to :data:`AUTO_BATCH_DEFAULT` -- the cost-aware sizing
    lives in :func:`~repro.runtime.sweeps.run_sweep`, which knows the
    store holding the wall-time history and resolves ``auto`` *before*
    the limit reaches this function.
    """
    if batch is None:
        batch = os.environ.get(BATCH_ENV_VAR) or 1
    if isinstance(batch, str):
        if batch.strip().lower() == "auto":
            return AUTO_BATCH_DEFAULT
        batch = int(batch)
    return max(1, int(batch))


def auto_batch_size(cost_model, specs: Sequence[JobSpec]) -> int:
    """Size batches so one ``simulate_batch`` job is ~0.5 s of work.

    Uses the scheduler's learned per-``(kind, n)`` wall-times (see
    :class:`~repro.runtime.scheduler.CostModel`): with a measured mean
    per-trial cost ``c``, a batch of ``AUTO_TARGET_SECONDS / c`` trials
    keeps jobs long enough to amortize dispatch overhead and short
    enough to stream progress and balance shards.  Without history (or
    without any batchable spec to size against) the answer is the fixed
    :data:`AUTO_BATCH_DEFAULT`; the result is always clamped to
    ``[1, AUTO_BATCH_MAX]``.
    """
    candidates = [spec for spec in specs if batchable(spec)]
    if not candidates:
        return AUTO_BATCH_DEFAULT
    costs = []
    if cost_model is not None:
        for spec in candidates:
            predicted = cost_model.predict(spec.kind, spec.n)
            if predicted and predicted > 0:
                costs.append(predicted)
    if not costs:
        return AUTO_BATCH_DEFAULT
    mean = sum(costs) / len(costs)
    return max(1, min(AUTO_BATCH_MAX, int(AUTO_TARGET_SECONDS / mean)))


def batching_available() -> bool:
    """Whether the configured array backend can be imported."""
    from ..congest.xp import xp_available

    return xp_available()


def batchable(spec: JobSpec) -> bool:
    """Whether *spec* may join a ``simulate_batch`` group.

    Requires bit-identical batched semantics: a vectorized program,
    the explicit ``fast`` profile (the CLI always pins one), the dense
    plane, and no telemetry (batch kernels have no per-round hook).
    """
    if spec.kind != "simulate_program":
        return False
    params = spec.params
    if params.get("program", "bfs") not in BATCHABLE_PROGRAMS:
        return False
    if params.get("profile") != "fast":
        return False
    from ..congest.plane import PLANE_ENV_VAR

    if (os.environ.get(PLANE_ENV_VAR) or "dense") != "dense":
        return False
    from ..telemetry.spans import telemetry_enabled

    return not telemetry_enabled()


def _group_key(spec: JobSpec):
    # Everything except the trial seed: members of one batch share the
    # graph coordinates (or, with graph_seed unset, at least the
    # family/n shape) and the full frozen config.
    return (spec.family, spec.far, spec.n, spec.graph_seed, spec.config)


def make_batch_spec(members: Sequence[JobSpec]) -> JobSpec:
    """Fold same-group ``simulate_program`` specs into one batch spec.

    The batch spec inherits the group's coordinates and config and
    carries the member seeds in order; its own ``seed`` is the first
    member's, so graph-seed-pinned groups keep their coordinates
    stable.
    """
    first = members[0]
    return JobSpec.make(
        "simulate_batch",
        family=first.family,
        far=first.far,
        n=first.n,
        seed=first.seed,
        graph_seed=first.graph_seed,
        seeds=tuple(m.seed for m in members),
        **first.params,
    )


def coalesce(
    specs: Sequence[JobSpec],
    batch: Optional[int] = None,
) -> Tuple[List[JobSpec], List[List[int]]]:
    """Group *specs* into dispatchable jobs of at most *batch* trials.

    Returns ``(dispatch, sources)``: ``dispatch[i]`` is either an
    original spec (non-batchable, or a group of one) or a
    ``simulate_batch`` spec, and ``sources[i]`` lists the indices into
    *specs* it covers, in member order.  Every input index appears in
    exactly one source list; dispatch order follows each job's first
    member, so a batch-of-one sweep is dispatched untouched.
    """
    specs = list(specs)
    limit = resolve_batch(batch)
    if limit <= 1 or not batching_available():
        return specs, [[i] for i in range(len(specs))]
    groups: Dict[object, List[int]] = {}
    singles: List[int] = []
    for i, spec in enumerate(specs):
        if batchable(spec):
            groups.setdefault(_group_key(spec), []).append(i)
        else:
            singles.append(i)
    entries: List[Tuple[int, JobSpec, List[int]]] = [
        (i, specs[i], [i]) for i in singles
    ]
    for indices in groups.values():
        for start in range(0, len(indices), limit):
            chunk = indices[start : start + limit]
            if len(chunk) == 1:
                entries.append((chunk[0], specs[chunk[0]], chunk))
            else:
                entries.append(
                    (chunk[0], make_batch_spec([specs[i] for i in chunk]), chunk)
                )
    entries.sort(key=lambda entry: entry[0])
    return [e[1] for e in entries], [e[2] for e in entries]


def expand_batch_record(record: Record) -> List[Record]:
    """Unpack a ``simulate_batch`` record into its per-trial records."""
    return json.loads(record["trials"])
