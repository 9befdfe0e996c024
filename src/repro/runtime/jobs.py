"""Declarative job specs for every unit of work in the repo.

A :class:`JobSpec` names a *kind* of computation (planarity test,
partition, spanner construction, application tester), the graph it runs
on (family or far-family + size + seed), and a frozen configuration
mapping.  Specs are hashable and canonically serializable, so they can
be deduplicated, dispatched to process pools, and used as cache keys.

Running a spec produces a *record*: a flat ``dict`` of primitives
(numbers, strings, bools) in a deterministic key order.  Records are the
only thing that crosses process boundaries or lands in the cache, which
keeps both pickling and JSON persistence trivial and guarantees that the
serial and process-pool backends produce byte-identical aggregates.

New job kinds register with :func:`register_kind`; the registry maps the
kind name to a module-level runner (module-level so it pickles), making
the runtime extensible from application code without touching this file.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import networkx as nx

from ..graphs.far_from_planar import make_far
from ..graphs.generators import make_planar
from ..telemetry.metrics import get_metrics
from ..telemetry.spans import get_tracer, telemetry_enabled

Record = Dict[str, Any]
Runner = Callable[["JobSpec", nx.Graph], Record]

_RUNNERS: Dict[str, Runner] = {}
_GRAPHLESS: set = set()


def register_kind(kind: str, runner: Runner, needs_graph: bool = True) -> None:
    """Register *runner* for *kind*; overwrites a previous registration.

    Args:
        needs_graph: ``False`` for kinds that build their own input
            (e.g. the lower-bound instance audit): the executor then
            never generates a graph for the spec -- the runner receives
            ``None`` and must fill ``n``/``m`` in its record itself.
            Such specs are always cache-keyed by coordinates.
    """
    _RUNNERS[kind] = runner
    if needs_graph:
        _GRAPHLESS.discard(kind)
    else:
        _GRAPHLESS.add(kind)


def kind_needs_graph(kind: str) -> bool:
    """Whether *kind*'s runner consumes a generated input graph."""
    return kind not in _GRAPHLESS


def spec_needs_graph(spec: "JobSpec") -> bool:
    """Whether *spec* requires its input graph to be generated."""
    return kind_needs_graph(spec.kind)


def job_kinds() -> Tuple[str, ...]:
    """All registered job kinds, sorted."""
    return tuple(sorted(_RUNNERS))


def _freeze(value: Any) -> Any:
    """Recursively convert mappings/sequences to hashable tuples."""
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_freeze(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return tuple(items)
    return value


@dataclass(frozen=True)
class JobSpec:
    """One unit of work: ``kind`` applied to a generated graph.

    Attributes:
        kind: registered job kind (see :func:`job_kinds`).
        family: planar family name (ignored when *far* is set).
        far: far-from-planar family name, or ``None``.
        n: requested graph size (generators may round).
        seed: master seed for graph generation and algorithm randomness.
        graph_seed: when set, the graph is generated from this seed
            instead of ``seed`` -- so repeated trials (varying ``seed``)
            can replay the *same* graph, sharing its fingerprint, its
            built instance, and its compiled simulator topology.
        config: frozen ``(key, value)`` tuple of kind-specific knobs
            (e.g. ``epsilon``, ``method``, ``delta``); build it with
            :meth:`make`.
    """

    kind: str
    family: str = "delaunay"
    far: Optional[str] = None
    n: int = 500
    seed: int = 0
    config: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)
    graph_seed: Optional[int] = None

    @classmethod
    def make(
        cls,
        kind: str,
        family: str = "delaunay",
        far: Optional[str] = None,
        n: int = 500,
        seed: int = 0,
        graph_seed: Optional[int] = None,
        **config: Any,
    ) -> "JobSpec":
        """Build a spec with *config* canonically frozen and sorted."""
        if kind not in _RUNNERS:
            raise ValueError(
                f"unknown job kind {kind!r}; registered: {job_kinds()}"
            )
        return cls(
            kind=kind,
            family=family,
            far=far,
            n=n,
            seed=seed,
            graph_seed=graph_seed,
            config=_freeze(config),
        )

    @property
    def params(self) -> Dict[str, Any]:
        """The config as a plain dict."""
        return {k: v for k, v in self.config}

    @property
    def graph_label(self) -> str:
        """Human label for the generated graph."""
        if self.far:
            return f"far:{self.far}"
        return f"planar:{self.family}"

    @property
    def effective_graph_seed(self) -> int:
        """The seed that actually drives graph generation."""
        return self.seed if self.graph_seed is None else self.graph_seed

    @property
    def graph_coordinates(self) -> Tuple[str, int, int]:
        """The triple that identifies this spec's input graph.

        Shared by the cache layer's per-batch graph memo and the
        executor's cache-less graph hints, so both paths agree on which
        specs replay the same graph (and therefore share one built
        instance and one compiled simulator topology).
        """
        return (
            self.far or f"planar/{self.family}",
            self.n,
            self.effective_graph_seed,
        )

    def canonical(self) -> str:
        """A canonical JSON encoding (the basis of the config digest)."""
        payload = {
            "kind": self.kind,
            "family": self.family,
            "far": self.far,
            "n": self.n,
            "seed": self.seed,
            "config": [[k, repr(v)] for k, v in self.config],
        }
        if self.graph_seed is not None:
            # Only emitted when set, so pre-existing specs keep their
            # canonical encoding (and their cache keys) byte-identical.
            payload["graph_seed"] = self.graph_seed
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def build_graph(self) -> nx.Graph:
        """Generate the spec's input graph (deterministic in the spec)."""
        if self.far:
            graph, _farness = make_far(
                self.far, self.n, seed=self.effective_graph_seed
            )
            return graph
        return make_planar(self.family, self.n, seed=self.effective_graph_seed)

    def to_payload(self) -> Dict[str, Any]:
        """A JSON-safe encoding for wire protocols (async workers).

        Round-trips through :meth:`from_payload`; only specs whose
        config values are JSON primitives survive the trip, which every
        registered kind's knobs are by construction.
        """
        return {
            "kind": self.kind,
            "family": self.family,
            "far": self.far,
            "n": self.n,
            "seed": self.seed,
            "graph_seed": self.graph_seed,
            "config": [[k, v] for k, v in self.config],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Rebuild a spec from :meth:`to_payload` output.

        Config values arrive as JSON types; ``_freeze`` restores the
        canonical tuple form, so hashing and cache keys match the
        original spec exactly.
        """
        return cls.make(
            payload["kind"],
            family=payload.get("family", "delaunay"),
            far=payload.get("far"),
            n=int(payload.get("n", 500)),
            seed=int(payload.get("seed", 0)),
            graph_seed=payload.get("graph_seed"),
            **{k: v for k, v in payload.get("config", [])},
        )


def run_job(spec: JobSpec, graph: Optional[nx.Graph] = None) -> Record:
    """Execute *spec* and return its flat record.

    Module-level (and therefore picklable) so process-pool workers can
    receive specs directly.  *graph* lets callers that already built the
    input (e.g. the cache layer, which fingerprints it) avoid a second
    generation.  Graphless kinds (``register_kind(...,
    needs_graph=False)``) skip generation entirely; their runners own
    the ``n``/``m`` record fields.
    """
    try:
        runner = _RUNNERS[spec.kind]
    except KeyError:
        raise ValueError(
            f"unknown job kind {spec.kind!r}; registered: {job_kinds()}"
        ) from None
    if spec.kind in _GRAPHLESS:
        graph = None
        n, m = spec.n, 0
    else:
        if graph is None:
            graph = spec.build_graph()
        n, m = graph.number_of_nodes(), graph.number_of_edges()
    record: Record = {
        "kind": spec.kind,
        "graph": spec.graph_label,
        "family": spec.far or spec.family,
        "n": n,
        "m": m,
        "seed": spec.seed,
    }
    record.update(runner(spec, graph))
    return record


def run_job_timed(
    spec: JobSpec, graph: Optional[nx.Graph] = None
) -> Tuple[Record, float]:
    """Execute *spec* and return ``(record, wall_seconds)``.

    The timing wraps graph generation + the runner -- the cost a
    scheduler actually pays for dispatching the spec cold.  Every
    backend reports these seconds back so the cost-balanced sharder
    (:mod:`repro.runtime.scheduler`) can learn per-kind/per-n costs.

    This is also the telemetry chokepoint: every backend (serial run,
    chunked pool dispatch, async/remote workers) funnels executed jobs
    through here, so one ``job`` span covers them all.  When the
    tracer is on, the record is tagged with its span id and wall-time
    (``trace_span`` / ``trace_s``); when it is off, the record is
    byte-identical to the untraced build.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        start = time.perf_counter()
        record = run_job(spec, graph)
        return record, max(0.0, time.perf_counter() - start)
    with tracer.span(
        "job",
        kind=spec.kind,
        family=spec.far or spec.family,
        n=spec.n,
        seed=spec.seed,
    ) as span:
        start = time.perf_counter()
        record = run_job(spec, graph)
        seconds = max(0.0, time.perf_counter() - start)
    record["trace_span"] = span.id
    record["trace_s"] = round(seconds, 6)
    get_metrics().observe("job.seconds", seconds)
    get_metrics().inc("job.executed")
    return record, seconds


# -- builtin runners ---------------------------------------------------------


def _decay_stats(phases) -> Record:
    """Flat per-run summary of the per-phase cut-decay factors.

    Zero-cut phases are clamped to 1e-6 (the convention benchmark E7
    established for its geometric mean).
    """
    decays = [max(s.decay, 1e-6) for s in phases]
    if not decays:
        return {"decay_min": 1.0, "decay_geomean": 1.0, "decay_max": 1.0}
    from ..analysis import geometric_mean

    return {
        "decay_min": min(decays),
        "decay_geomean": geometric_mean(decays),
        "decay_max": max(decays),
    }


def _run_test_planarity(spec: JobSpec, graph: nx.Graph) -> Record:
    from ..testers.planarity import PlanarityTestConfig, test_planarity

    params = spec.params
    config = PlanarityTestConfig(
        epsilon=params.get("epsilon", 0.1),
        alpha=params.get("alpha", 3),
        sample_constant=params.get("sample_constant", 2.0),
        early_stop=params.get("early_stop", True),
        charge_full_budget=params.get("charge_full_budget", True),
        max_phases=params.get("max_phases"),
        reject_on_embedding_failure=params.get(
            "reject_on_embedding_failure", False
        ),
        collect_exact_violations=params.get("collect_exact_violations", False),
    )
    result = test_planarity(graph, seed=spec.seed, config=config)
    return {
        "epsilon": config.epsilon,
        "accepted": result.accepted,
        "rejected_stage": result.rejected_stage or "-",
        "rejecting_parts": len(result.rejecting_parts),
        "rounds": result.rounds,
        "stage1_rounds": result.stage1_rounds,
        "stage2_rounds": result.stage2_rounds,
        "phases": len(result.stage1.phases),
        "parts": result.stage1.partition.size,
        "cut": result.stage1.partition.cut_size(),
        "max_part_height": result.stage1.partition.max_height(),
        "violating_exact": result.total_violating_exact,
    }


def _run_partition_stage1(spec: JobSpec, graph: nx.Graph) -> Record:
    from ..partition.stage1 import partition_stage1

    params = spec.params
    epsilon = params.get("epsilon", 0.1)
    target_cut = params.get("target_cut")
    if target_cut == "eps*n":
        # Resolved against the *actual* generated size (families round),
        # which a sweep cannot know at spec-construction time.
        target_cut = epsilon * graph.number_of_nodes()
    result = partition_stage1(
        graph,
        epsilon=epsilon,
        alpha=params.get("alpha", 3),
        target_cut=target_cut,
        max_phases=params.get("max_phases"),
        early_stop=params.get("early_stop", True),
        charge_full_budget=params.get("charge_full_budget", True),
    )
    record = {
        "epsilon": epsilon,
        "success": result.success,
        "parts": result.partition.size,
        "cut": result.partition.cut_size(),
        "target_cut": result.target_cut,
        "max_height": result.partition.max_height(),
        "max_diameter": result.partition.max_diameter(),
        "phases": len(result.phases),
        "rounds": result.rounds,
    }
    record.update(_decay_stats(result.phases))
    return record


def _run_partition_randomized(spec: JobSpec, graph: nx.Graph) -> Record:
    from ..partition.weighted_selection import partition_randomized

    params = spec.params
    result = partition_randomized(
        graph,
        epsilon=params.get("epsilon", 0.1),
        delta=params.get("delta", 0.1),
        alpha=params.get("alpha", 3),
        target_cut=params.get("target_cut"),
        trials=params.get("trials"),
        max_phases=params.get("max_phases"),
        early_stop=params.get("early_stop", True),
        seed=spec.seed,
        coloring=params.get("coloring", "cole-vishkin"),
    )
    record = {
        "epsilon": params.get("epsilon", 0.1),
        "delta": result.delta,
        "success": result.success,
        "met_target": result.met_target,
        "parts": result.partition.size,
        "cut": result.partition.cut_size(),
        "target_cut": result.target_cut,
        "max_height": result.partition.max_height(),
        "phases": len(result.phases),
        "trials": result.trials,
        "rounds": result.rounds,
    }
    record.update(_decay_stats(result.phases))
    return record


def _run_spanner(spec: JobSpec, graph: nx.Graph) -> Record:
    from ..applications.spanner import build_spanner, measure_stretch

    params = spec.params
    result = build_spanner(
        graph,
        epsilon=params.get("epsilon", 0.1),
        method=params.get("method", "deterministic"),
        delta=params.get("delta", 0.1),
        alpha=params.get("alpha", 3),
        seed=spec.seed,
    )
    stretch = measure_stretch(
        graph,
        result.dense,
        sample_nodes=params.get("sample_nodes", 8),
        seed=spec.seed,
    )
    n = graph.number_of_nodes()
    return {
        "epsilon": params.get("epsilon", 0.1),
        "method": params.get("method", "deterministic"),
        "spanner_edges": result.size,
        "size_per_n": result.size / max(n, 1),
        "tree_edges": result.tree_edges,
        "connector_edges": result.connector_edges,
        "measured_stretch": stretch,
        "guaranteed_stretch": result.guaranteed_stretch,
        "rounds": result.rounds,
    }


def _application_record(result, epsilon: float) -> Record:
    return {
        "epsilon": epsilon,
        "accepted": result.accepted,
        "rejecting_parts": len(result.rejecting_parts),
        "partition_rounds": result.partition_rounds,
        "verification_rounds": result.verification_rounds,
        "rounds": result.rounds,
    }


def _run_cycle_freeness(spec: JobSpec, graph: nx.Graph) -> Record:
    from ..testers.applications import test_cycle_freeness

    params = spec.params
    epsilon = params.get("epsilon", 0.1)
    result = test_cycle_freeness(
        graph,
        epsilon=epsilon,
        alpha=params.get("alpha", 3),
        method=params.get("method", "deterministic"),
        delta=params.get("delta", 0.1),
        seed=spec.seed,
    )
    return _application_record(result, epsilon)


def _run_bipartiteness(spec: JobSpec, graph: nx.Graph) -> Record:
    from ..testers.applications import test_bipartiteness

    params = spec.params
    epsilon = params.get("epsilon", 0.1)
    result = test_bipartiteness(
        graph,
        epsilon=epsilon,
        alpha=params.get("alpha", 3),
        method=params.get("method", "deterministic"),
        delta=params.get("delta", 0.1),
        seed=spec.seed,
    )
    return _application_record(result, epsilon)


def _run_simulate_program(spec: JobSpec, graph: nx.Graph) -> Record:
    """Run one bundled CONGEST protocol on the simulator.

    This is the runtime's door into the simulator layer: the graph the
    executor hands over (the same object for every trial of a sweep,
    thanks to the ``graphs`` hint) reaches ``CongestNetwork`` directly,
    so its :class:`~repro.congest.topology.CompiledTopology` is compiled
    exactly once per process and reused across all trials.

    Config knobs: ``program`` (``bfs`` | ``flood`` | ``forest`` |
    ``cv`` | ``storm``), ``profile`` (instrumentation profile name;
    defaults to the ``REPRO_SIM_PROFILE`` environment knob), plus
    per-program parameters (``alpha`` for forest, ``storm_rounds`` for
    storm; ``cv`` colors the canonical min-smaller-neighbor forest).

    When telemetry is on, the network's per-round profile hook
    collects ``(round, active nodes, messages, bits)`` deltas and the
    record carries them as a compact ``round_profile`` JSON string --
    the per-phase round/message accounting that doubles as a fidelity
    check on the paper's complexity claims.  Untraced records are
    unchanged.
    """
    from ..congest import CongestNetwork
    from ..congest.programs import (
        BFSTreeProgram,
        BarenboimElkinProgram,
        BroadcastStormProgram,
        FloodProgram,
    )
    from ..congest.programs.forest_decomposition import (
        barenboim_elkin_round_budget,
    )

    params = spec.params
    program = params.get("program", "bfs")
    profile = params.get("profile")
    network = CongestNetwork(graph, seed=spec.seed)
    root = min(graph.nodes())
    round_rows: list = []
    round_hook = None
    if telemetry_enabled():
        # One list append per executed round (never per message): the
        # deltas against the profile's running totals give per-round
        # message/bit counts under both faithful and fast profiles.
        def round_hook(round_index, active, prof, _rows=round_rows):
            _rows.append(
                (round_index, active, prof.total_messages, prof.total_bits)
            )
    if program == "bfs":
        result = network.run(
            BFSTreeProgram,
            max_rounds=network.n + 2,
            config={"root": root},
            strict_bandwidth=True,
            profile=profile,
            round_hook=round_hook,
        )
    elif program == "flood":
        result = network.run(
            FloodProgram,
            max_rounds=network.n + 2,
            config={"root": root},
            strict_bandwidth=True,
            profile=profile,
            round_hook=round_hook,
        )
    elif program == "forest":
        budget = barenboim_elkin_round_budget(network.n)
        result = network.run(
            BarenboimElkinProgram,
            max_rounds=budget + 3,
            config={"alpha": params.get("alpha", 3), "budget": budget},
            strict_bandwidth=True,
            profile=profile,
            round_hook=round_hook,
        )
    elif program == "cv":
        from ..congest.programs.cole_vishkin import (
            ColeVishkinProgram,
            cv_schedule,
            min_neighbor_parents,
        )

        schedule = cv_schedule(max(graph.nodes(), default=1))
        result = network.run(
            ColeVishkinProgram,
            max_rounds=len(schedule) + 3,
            config={
                "parents": min_neighbor_parents(graph),
                "schedule": schedule,
            },
            strict_bandwidth=True,
            profile=profile,
            round_hook=round_hook,
        )
    elif program == "storm":
        rounds = int(params.get("storm_rounds", 8))
        result = network.run(
            BroadcastStormProgram,
            max_rounds=rounds + 2,
            config={"storm_rounds": rounds},
            profile=profile,
            round_hook=round_hook,
        )
    else:
        raise ValueError(f"unknown simulator program {program!r}")
    record = {
        "program": program,
        "profile": result.profile,
        "rounds": result.rounds,
        "halted": result.halted,
        "messages": result.total_messages,
        "bits": result.total_bits,
        "max_message_bits": result.max_message_bits,
        "over_budget": result.over_budget_messages,
    }
    if round_rows:
        # Per-round deltas as one compact JSON string: records stay
        # flat primitive dicts, and untraced runs never pay for this.
        deltas = []
        prev_messages = prev_bits = 0
        for round_index, active, messages, bits in round_rows:
            deltas.append(
                [
                    round_index,
                    active,
                    messages - prev_messages,
                    bits - prev_bits,
                ]
            )
            prev_messages, prev_bits = messages, bits
        record["round_profile"] = json.dumps(deltas, separators=(",", ":"))
    return record


def _run_simulate_batch(spec: JobSpec, graph: Optional[nx.Graph]) -> Record:
    """Run a coalesced group of simulator trials as one array program.

    The spec carries the member trial seeds in its ``seeds`` config
    knob (everything else -- program, profile, graph coordinates --
    is shared by construction, see
    :func:`repro.runtime.batching.make_batch_spec`).  Graphs are built
    here, once per distinct ``graph_coordinates`` (a graph-seed-pinned
    sweep shares a single compiled topology across the whole batch; an
    unpinned one becomes a ragged batch of per-trial graphs), and all
    trials run in lockstep on the batched tensor plane.  Ragged
    batches are split through :func:`~repro.congest.batch.pad_groups`
    first, so no trial pads beyond the resolved waste bound
    (``REPRO_SIM_BATCH_WASTE``); a pinned batch is one group by
    construction.

    The record packs one scalar-identical ``simulate_program`` record
    per trial into a compact ``trials`` JSON string; the executor
    re-expands them so downstream consumers never see the batch shape.
    A registered graphless kind: the executor never generates a graph
    for it (*graph* is always ``None``).
    """
    from ..congest.batch import pad_groups, run_batched
    from ..congest.topology import compile_topology

    params = dict(spec.params)
    seeds = params.pop("seeds", None)
    if not seeds:
        raise ValueError("simulate_batch spec carries no member seeds")
    if params.get("profile") != "fast":
        raise ValueError(
            "simulate_batch requires the explicit 'fast' profile; got "
            f"{params.get('profile')!r}"
        )
    program = params.get("program", "bfs")
    trial_specs = [
        JobSpec.make(
            "simulate_program",
            family=spec.family,
            far=spec.far,
            n=spec.n,
            seed=int(trial_seed),
            graph_seed=spec.graph_seed,
            **params,
        )
        for trial_seed in seeds
    ]
    graphs: Dict[Tuple[str, int, int], nx.Graph] = {}
    trial_graphs = []
    for trial_spec in trial_specs:
        coordinates = trial_spec.graph_coordinates
        built = graphs.get(coordinates)
        if built is None:
            built = graphs[coordinates] = trial_spec.build_graph()
        trial_graphs.append(built)
    topologies = [compile_topology(g) for g in trial_graphs]
    results: list = [None] * len(topologies)
    for group in pad_groups(topologies, limit=len(topologies)):
        group_results = run_batched(
            program, [topologies[i] for i in group], params=params
        )
        for member, result in zip(group, group_results):
            results[member] = result
    trials = []
    for trial_spec, built, result in zip(trial_specs, trial_graphs, results):
        trials.append(
            {
                "kind": "simulate_program",
                "graph": trial_spec.graph_label,
                "family": trial_spec.far or trial_spec.family,
                "n": built.number_of_nodes(),
                "m": built.number_of_edges(),
                "seed": trial_spec.seed,
                "program": program,
                "profile": result.profile,
                "rounds": result.rounds,
                "halted": result.halted,
                "messages": result.total_messages,
                "bits": result.total_bits,
                "max_message_bits": result.max_message_bits,
                "over_budget": result.over_budget_messages,
            }
        )
    return {
        "program": program,
        "profile": "fast",
        "trials_n": len(trials),
        "trials": json.dumps(trials, separators=(",", ":")),
    }


register_kind("test_planarity", _run_test_planarity)
register_kind("partition_stage1", _run_partition_stage1)
register_kind("partition_randomized", _run_partition_randomized)
register_kind("spanner", _run_spanner)
register_kind("cycle_freeness", _run_cycle_freeness)
register_kind("bipartiteness", _run_bipartiteness)
register_kind("simulate_program", _run_simulate_program)
register_kind("simulate_batch", _run_simulate_batch, needs_graph=False)
