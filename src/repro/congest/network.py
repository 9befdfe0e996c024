"""Synchronous CONGEST network simulator.

:class:`CongestNetwork` executes a :class:`~repro.congest.node.NodeProgram`
per node of an undirected simple graph in synchronous rounds, delivering
messages along edges and enforcing the CONGEST bandwidth constraint
(``O(log n)`` bits per edge per round).

The simulator is a two-tier core:

* a :class:`~repro.congest.topology.CompiledTopology` holds the
  pre-derived adjacency structure (dense indices, CSR arrays, neighbor
  tuples/sets, degree table, default bandwidth budget) -- compiled once
  per graph and shared by every network/run over it;
* an :class:`~repro.congest.instrumentation.InstrumentationProfile`
  owns the delivery loop's validation + accounting, selectable per run
  (``"faithful"`` keeps full diagnostics, ``"fast"`` trades them for
  throughput without changing outputs, rounds, or halting).

The scheduler itself uses an *active set*: only unhalted programs are
stepped, and the set shrinks as programs halt, so late rounds of a
protocol in which most nodes finished early cost O(active) rather than
O(n).  Inboxes are allocated lazily on first delivery -- silent rounds
allocate nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

import networkx as nx

import os

from ..errors import GraphInputError, ProtocolError, SimulationLimitError
from .instrumentation import InstrumentationProfile, resolve_profile
from .node import NodeContext, NodeProgram
from .plane import PLANE_ENV_VAR, PLANES, DenseMessagePlane
from .topology import CompiledTopology, compile_topology
from ..runtime.seeding import derive_seed

ProgramFactory = Callable[[NodeContext], NodeProgram]

_EMPTY_INBOX: Mapping[Any, Any] = MappingProxyType({})


def resolve_plane(plane: Optional[str]) -> str:
    """Resolve the message-plane selection (arg, env var, dense default)."""
    if plane is None:
        plane = os.environ.get(PLANE_ENV_VAR) or "dense"
    if plane not in PLANES:
        raise ValueError(
            f"unknown message plane {plane!r}; choose from {PLANES}"
        )
    return plane


@dataclass
class SimulationResult:
    """Outcome of a :meth:`CongestNetwork.run` call.

    Attributes:
        rounds: number of executed rounds (a round in which every program
            was already halted is not counted).
        outputs: mapping from node id to the program's ``output``.
        halted: True when every program halted before the round limit.
        total_messages: number of point-to-point messages delivered.
        total_bits: estimated total bits transmitted.
        max_message_bits: largest single message observed.
        bandwidth_bits: per-edge per-round budget used for accounting.
        over_budget_messages: messages that exceeded the budget (only
            non-zero when ``strict_bandwidth`` was False).
        profile: name of the instrumentation profile that ran the
            delivery loop.
        round_stats: per-round ``(messages, bits)`` tuples; populated by
            the faithful profile, empty under counters-only profiles.
    """

    rounds: int
    outputs: Dict[Any, Any]
    halted: bool
    total_messages: int = 0
    total_bits: int = 0
    max_message_bits: int = 0
    bandwidth_bits: int = 0
    over_budget_messages: int = 0
    profile: str = "faithful"
    round_stats: Tuple[Tuple[int, int], ...] = ()
    programs: Dict[Any, NodeProgram] = field(default_factory=dict, repr=False)


class CongestNetwork:
    """A synchronous message-passing network over an undirected graph."""

    def __init__(
        self,
        graph: Optional[nx.Graph] = None,
        bandwidth_bits: Optional[int] = None,
        seed: Optional[int] = None,
        topology: Optional[CompiledTopology] = None,
    ):
        """Build a network over *graph* (or a pre-compiled *topology*).

        Args:
            graph: a simple undirected :class:`networkx.Graph`.  Node ids
                must be hashable and sortable (ints are typical).  Its
                adjacency is compiled via
                :func:`~repro.congest.topology.compile_topology`, so
                repeated networks over the same graph object share one
                :class:`CompiledTopology`.
            bandwidth_bits: per-edge per-round budget; defaults to the
                topology's precomputed
                :func:`repro.congest.message.default_bandwidth_bits`.
            seed: master seed from which per-node RNGs are derived.
            topology: an already-compiled topology to use directly
                (skips compilation and graph validation entirely); its
                graph must still be alive.  When both *graph* and
                *topology* are given they must refer to the same graph
                object.
        """
        if topology is None:
            if graph is None:
                raise GraphInputError(
                    "CongestNetwork requires a graph or a compiled topology"
                )
            topology = compile_topology(graph)
        elif graph is not None and topology.graph is not graph:
            raise GraphInputError(
                "topology was compiled for a different graph object"
            )
        self.topology = topology
        self.graph = topology.graph
        if self.graph is None:
            # Topologies hold their graph weakly (see CompiledTopology).
            raise GraphInputError(
                "the topology's graph has been freed; keep a reference to "
                "the graph while networks are built from its topology"
            )
        self.n = topology.n
        self.bandwidth_bits = (
            bandwidth_bits if bandwidth_bits is not None else topology.bandwidth_bits
        )
        self.seed = seed
        self._neighbors = topology.neighbors
        self._neighbor_sets = topology.neighbor_sets

    # -- helpers -------------------------------------------------------------

    def _node_rng(self, node: Any) -> random.Random:
        """Deterministic per-node RNG derived from the master seed."""
        return random.Random(derive_seed(self.seed, repr(node)))

    def make_programs(
        self,
        factory: ProgramFactory,
        config: Optional[Mapping[str, Any]] = None,
    ) -> Dict[Any, NodeProgram]:
        """Instantiate one program per node."""
        config = dict(config or {})
        programs: Dict[Any, NodeProgram] = {}
        for node in self.topology.nodes:
            ctx = NodeContext(
                node=node,
                neighbors=self._neighbors[node],
                n=self.n,
                rng=self._node_rng(node),
                config=config,
            )
            programs[node] = factory(ctx)
        return programs

    # -- execution -------------------------------------------------------------

    def run(
        self,
        factory: ProgramFactory,
        max_rounds: int,
        config: Optional[Mapping[str, Any]] = None,
        strict_bandwidth: bool = False,
        raise_on_limit: bool = False,
        profile: Union[None, str, InstrumentationProfile] = None,
        plane: Optional[str] = None,
        round_hook: Optional[Callable[[int, int, InstrumentationProfile], None]] = None,
    ) -> SimulationResult:
        """Run the protocol until all programs halt or *max_rounds* elapse.

        Args:
            factory: builds a program from a :class:`NodeContext`.
            max_rounds: hard round limit.
            config: shared read-only parameters passed to every program.
            strict_bandwidth: raise :class:`BandwidthExceededError` instead
                of merely counting over-budget messages.
            raise_on_limit: raise :class:`SimulationLimitError` when the
                round limit is reached with unhalted programs.
            profile: instrumentation profile for the delivery loop -- a
                registered name (``"faithful"``, ``"fast"``), a profile
                instance, or ``None`` to consult ``REPRO_SIM_PROFILE``
                and fall back to faithful.  Profiles never change
                outputs, rounds, or halting; they trade diagnostic
                depth for throughput.
            plane: message-plane implementation -- ``"dense"`` (flat
                per-round edge-slot buffers, the default), ``"dict"``
                (the seed's per-node dict inboxes, now a
                differential-testing fixture living in
                :mod:`repro.congest._differential`), or ``None`` to
                consult ``REPRO_SIM_PLANE``.  Planes never change
                results.
            round_hook: optional per-round observer, called **once per
                executed round** (never per message) after the round's
                deliveries as ``hook(round_index, active_count,
                profile)`` -- *active_count* is the number of programs
                stepped this round and *profile* exposes the running
                ``total_messages`` / ``total_bits`` counters, so a
                hook can compute per-round deltas.  ``None`` (the
                default) costs one branch per round; hooks must not
                mutate the network or the profile.
        """
        prof = resolve_profile(profile)
        prof.bind(self.topology, self.bandwidth_bits, strict_bandwidth)
        programs = self.make_programs(factory, config)
        # Custom profiles written against the dict-plane API (overriding
        # deliver() only) keep working: they are routed to the dict loop.
        dense_capable = (
            type(prof).deliver_dense is not InstrumentationProfile.deliver_dense
        )
        if resolve_plane(plane) == "dict" or not dense_capable:
            # The dict plane is a differential-testing fixture now, not
            # a production path; load it only when actually requested.
            from ._differential import run_dict_plane

            rounds_executed, active = run_dict_plane(
                programs, prof, max_rounds, round_hook
            )
        else:
            rounds_executed, active = self._run_dense_plane(
                programs, prof, max_rounds, round_hook
            )

        halted = not active
        if not halted and raise_on_limit:
            raise SimulationLimitError(
                f"{len(active)} programs still "
                f"running after {max_rounds} rounds"
            )
        return SimulationResult(
            rounds=rounds_executed,
            outputs={v: p.output for v, p in programs.items()},
            halted=halted,
            total_messages=prof.total_messages,
            total_bits=prof.total_bits,
            max_message_bits=prof.max_message_bits,
            bandwidth_bits=self.bandwidth_bits,
            over_budget_messages=prof.over_budget,
            profile=prof.name,
            round_stats=prof.round_stats(),
            programs=programs,
        )

    def _run_dense_plane(self, programs, prof, max_rounds, round_hook=None):
        """Dense delivery loop: flat edge-slot buffers, CSR row scans.

        Payloads move through a
        :class:`~repro.congest.plane.DenseMessagePlane`; the profile
        files each outbox into mirror slots and receivers scan their own
        contiguous row slice.  Round tokens are 1-based so the zeroed
        stamp buffers read as empty in round 0.
        """
        index = self.topology.index
        active = [
            (index[node], node, program)
            for node, program in programs.items()
            if not program.halted
        ]
        plane = DenseMessagePlane(self.topology)
        rounds_executed = 0

        deliver = prof.deliver_dense
        inbox_of = (
            plane.inbox_dict if prof.materialize_inboxes else plane.inbox_view
        )
        for round_index in range(max_rounds):
            if not active:
                break
            rounds_executed += 1
            prof.begin_round(round_index)
            token = round_index + 1
            for idx, node, program in active:
                inbox = inbox_of(idx, round_index)
                outbox = program.step(
                    round_index, _EMPTY_INBOX if inbox is None else inbox
                )
                if outbox is None:
                    continue
                if not isinstance(outbox, Mapping):
                    raise ProtocolError(
                        f"node {node!r} returned a non-mapping outbox: {outbox!r}"
                    )
                if outbox:
                    deliver(idx, node, outbox, plane, token)
            plane.swap()
            if round_hook is not None:
                round_hook(round_index, len(active), prof)
            active = [item for item in active if not item[2].halted]
        return rounds_executed, active
