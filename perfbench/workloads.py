"""The three workloads, each driven through the public ``Client`` facade.

Every workload is a list of *legs*.  A leg submits a fixed number of
*rounds* -- one sweep; on ``paper-mix`` the two sweeps of one seed, on
``sim-rounds`` one sweep per family -- generated from the workload seed, to one ``Client`` target.
The number is sized from the run's ``--seconds`` by :data:`LEGS` so a
run takes about that long on the reference box (2 cores), yet every
run of one seed does exactly the same jobs whatever the machine's
speed -- which matters because resident memory grows with the jobs a
process has served.  A shared host's processor speed drifts by tens of
percent over seconds to minutes, so each leg reads the host's pace
(:func:`host_pace`, fixed kernels that run no repro code) between its
submits, and its wall time is scaled to the reference pace
(:attr:`Leg.paced_wall`).  Each leg keeps per-submit latencies and the
canonical JSON of every record it received, keyed by the job's
canonical spec, so legs that ran the same jobs can be compared byte
for byte.

* ``paper-mix``   -- serial in-process client, no store: planar
  accept sweeps, far reject sweeps and Theorem 2 lower-bound audits.
* ``fleet-small`` -- tiny planar tester jobs through the serial,
  process-pool, async-worker and live-service targets; the service is
  driven by two closed-loop client threads, cold and then warm.
* ``sim-rounds``  -- simulator sweeps, scalar and graph-batched.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import math
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import networkx
import numpy

from repro.runtime import Client, RunConfig, SweepService, SweepSpec
from repro.runtime.async_backend import AsyncBackend
from repro.runtime.executor import ProcessPoolBackend
from repro.runtime.scheduler import cost_meta_key
from repro.runtime.store import ShardedStore

WORKERS = 2
"""Workers, pool size, client threads and connections per leg (nproc)."""

FAR_REJECT_FLOOR = 0.9
"""Least share of far inputs the tester must reject for a correct run."""

LEGS = {
    # leg: (share of the run's seconds, rounds per second measured on
    # the reference box)
    "planar": (0.45, 0.45),
    "far": (0.30, 1.35),
    "lower_bound": (0.25, 1.1),
    "serial": (0.12, 47.0),
    "process": (0.14, 4.4),
    "async": (0.14, 1.0),
    "service_cold": (0.42, 49.0),
    "service_warm": (0.18, 250.0),
    "scalar": (0.60, 0.27),
    "batched": (0.40, 0.74),
}


REFERENCE_S = 0.003
"""What :func:`host_pace` reads on the reference box at its usual
speed, in seconds; rates are reported as if run at that pace."""

PACE_EVERY = 0.25
"""Least seconds between two host-pace readings of one leg."""

@functools.lru_cache(maxsize=None)
def _pace_inputs():
    """The kernels' fixed inputs, built on the first reading."""
    return (networkx.gnm_random_graph(3000, 9000, seed=7),
            numpy.random.default_rng(7).integers(0, 4096, 20_000))


def _dict_kernel() -> None:
    table: Dict[int, int] = {}
    for i in range(20_000):
        key = (i * 7919) % 1024
        table[key] = table.get(key, 0) + i
    sorted(table.values())


def _array_kernel() -> None:
    keys = _pace_inputs()[1]
    acc = numpy.zeros(4096)
    for _ in range(2):
        numpy.add.at(acc, keys, 1.0)
        order = numpy.argsort(keys, kind="stable")
        acc[keys[order[:5000]]] += 1


def _graph_kernel() -> None:
    graph = _pace_inputs()[0]
    networkx.single_source_shortest_path_length(graph, 0)
    sum(1 for _ in networkx.connected_components(graph))


def host_pace(repeats: int = 3) -> float:
    """The host's pace now, in seconds: the geometric mean over three
    fixed kernels -- a pure-Python dict loop, a numpy scatter and sort,
    a networkx search -- of each one's fastest of *repeats* timings.
    They call nothing of repro, so no change to the program moves it."""
    product = 1.0
    collecting = gc.isenabled()
    gc.disable()  # a collection would time the program's heap, not the host
    try:
        for kernel in (_dict_kernel, _array_kernel, _graph_kernel):
            best = math.inf
            for _ in range(repeats):
                started = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - started)
            product *= best
    finally:
        if collecting:
            gc.enable()
    return product ** (1 / 3)


def rounds_for(leg: str, seconds: float) -> int:
    """How many rounds *leg* submits in a run of *seconds*."""
    share, rate = LEGS[leg]
    return max(1, round(share * seconds * rate))


@dataclass
class Sizes:
    """Input sizes; the ``smoke`` preset shrinks every workload."""

    planar_n: int = 2000
    sparse_n: int = 1000
    far_dense_n: int = 2000
    far_planted_n: int = 1000
    lower_bound_n: int = 512
    sim_n: int = 1000
    fleet_ns: tuple = (16, 25, 36)
    block_sweeps: int = 16

    @classmethod
    def smoke(cls) -> "Sizes":
        return cls(
            planar_n=150, sparse_n=100, far_dense_n=150, far_planted_n=120,
            lower_bound_n=64, sim_n=64, block_sweeps=2,
        )


@dataclass
class Leg:
    """What one leg did: jobs, wall time, host pace, latencies, records."""

    name: str
    jobs: int = 0
    wall: float = 0.0
    submits: int = 0
    attempted: int = 0
    failed: int = 0
    paces: List[float] = field(default_factory=list)
    pace_stamp: float = -math.inf
    latencies: List[float] = field(default_factory=list)
    first_progress: List[float] = field(default_factory=list)
    records: Dict[str, str] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def read_pace(self, recorder=None) -> None:
        """Read :func:`host_pace` unless the last reading is younger
        than :data:`PACE_EVERY`.  Readings are not part of ``wall``."""
        if time.perf_counter() - self.pace_stamp < PACE_EVERY:
            return
        with (recorder.span("bench.pace") if recorder is not None
              else nullcontext()):
            self.paces.append(host_pace())
        self.pace_stamp = time.perf_counter()

    @property
    def paced_wall(self) -> float:
        """``wall`` at the reference pace: scaled by :data:`REFERENCE_S`
        over the mean of the leg's host-pace readings."""
        if not self.paces:
            return self.wall
        return self.wall * REFERENCE_S / statistics.fmean(self.paces)

    @property
    def jobs_per_s(self) -> float:
        """Jobs per second of ``paced_wall``."""
        wall = self.paced_wall
        return self.jobs / wall if wall > 0 else 0.0

    def merge(self, other: "Leg") -> None:
        """Fold a client thread's tally into this leg (wall excluded)."""
        self.jobs += other.jobs
        self.submits += other.submits
        self.attempted += other.attempted
        self.failed += other.failed
        self.latencies += other.latencies
        self.first_progress += other.first_progress
        self.records.update(other.records)
        self.errors += other.errors


def submit_once(client: Client, sweep: SweepSpec, leg: Leg, recorder=None,
                parent: Optional[str] = None) -> None:
    """One submit -> every record; tallies into *leg*."""
    specs = sweep.expand()
    leg.attempted += len(specs)
    leg.submits += 1
    started = time.perf_counter()
    progress: List[float] = []

    def on_progress(_frame) -> None:
        if not progress:
            progress.append(time.perf_counter() - started)

    def drain() -> list:
        return list(client.submit(sweep, on_progress=on_progress))

    try:
        if recorder is None:
            records = drain()
        else:
            with recorder.span("client.submit", parent=parent, leg=leg.name,
                               jobs=len(specs)):
                records = drain()
    except Exception as exc:  # a refused or broken submit is a failure
        leg.failed += len(specs)
        leg.errors.append(f"{leg.name}: {type(exc).__name__}: {exc}")
        return
    leg.latencies.append(time.perf_counter() - started)
    leg.first_progress += progress
    if len(records) != len(specs):
        leg.failed += len(specs)
        leg.errors.append(
            f"{leg.name}: {len(records)} of {len(specs)} records arrived"
        )
        return
    leg.jobs += len(records)
    for spec, record in zip(specs, records):
        key, text = spec.canonical(), json.dumps(record, sort_keys=True)
        if leg.records.setdefault(key, text) != text:
            leg.failed += 1
            leg.errors.append(f"{leg.name}: resubmit changed a record: {key}")


def run_leg(name: str, client: Client, rounds: Iterator[List[SweepSpec]],
            seconds: float, recorder=None) -> Leg:
    """Submit the leg's share of *rounds* one after another."""
    leg = Leg(name)
    span = (
        recorder.span("leg", leg=name, kind=name)
        if recorder is not None else nullcontext()
    )
    with span:
        leg.read_pace(recorder)
        for sweeps in itertools.islice(rounds, rounds_for(name, seconds)):
            for sweep in sweeps:
                started = time.perf_counter()
                submit_once(client, sweep, leg, recorder)
                leg.wall += time.perf_counter() - started
                leg.read_pace(recorder)
    return leg


def check_same(reference: Leg, other: Leg) -> None:
    """Count every job whose record differs from *reference*'s."""
    for key, text in other.records.items():
        expected = reference.records.get(key)
        if expected is not None and expected != text:
            other.failed += 1
            other.errors.append(
                f"{other.name}: record differs from {reference.name}: {key}"
            )


def check_field(leg: Leg, name: str, expected) -> None:
    """Count every record of *leg* whose *name* is not *expected*."""
    for key, text in leg.records.items():
        if json.loads(text).get(name) != expected:
            leg.failed += 1
            leg.errors.append(f"{leg.name}: {name} != {expected!r}: {key}")


# -- paper-mix ---------------------------------------------------------------

PLANAR_FAMILIES = ("delaunay", "apollonian", "grid", "outerplanar")


def paper_planar(seed: int, sizes: Sizes) -> Iterator[List[SweepSpec]]:
    for r in itertools.count():
        s = seed * 10_000 + r
        yield [
            SweepSpec.make("test_planarity", families=PLANAR_FAMILIES,
                           ns=[sizes.planar_n], seeds=[s], epsilon=0.1),
            SweepSpec.make("test_planarity", families=["planar-sparse"],
                           ns=[sizes.sparse_n], seeds=[s], epsilon=0.1),
        ]


def paper_far(seed: int, sizes: Sizes) -> Iterator[List[SweepSpec]]:
    for r in itertools.count():
        s = seed * 10_000 + r
        yield [
            SweepSpec.make("test_planarity", fars=["gnp", "regular"],
                           ns=[sizes.far_dense_n], seeds=[s], epsilon=0.1),
            SweepSpec.make(
                "test_planarity",
                fars=["planted-k5", "planted-k33", "planar-plus"],
                ns=[sizes.far_planted_n], seeds=[s], epsilon=0.1,
            ),
        ]


def paper_lower_bound(seed: int, sizes: Sizes) -> Iterator[List[SweepSpec]]:
    for r in itertools.count():
        yield [SweepSpec.make("lower_bound_audit", families=["grid"],
                              ns=[sizes.lower_bound_n],
                              seeds=[seed * 10_000 + r])]


def run_paper_mix(seed: int, seconds: float, sizes: Sizes,
                  recorder=None) -> dict:
    client = Client(backend="serial", name="paper-mix")
    planar = run_leg("planar", client, paper_planar(seed, sizes), seconds,
                     recorder)
    far = run_leg("far", client, paper_far(seed, sizes), seconds, recorder)
    lower = run_leg("lower_bound", client, paper_lower_bound(seed, sizes),
                    seconds, recorder)
    # One-sided error: a planar input is never rejected.
    check_field(planar, "accepted", True)
    check_field(lower, "views_are_trees", True)
    verdicts = [json.loads(t)["accepted"] for t in far.records.values()]
    far_reject = verdicts.count(False) / max(1, len(verdicts))
    if far_reject < FAR_REJECT_FLOOR:
        far.failed += verdicts.count(True)
        far.errors.append(
            f"far: rejected {far_reject:.2f} of far inputs "
            f"(floor {FAR_REJECT_FLOOR})"
        )
    return {
        "legs": [planar, far, lower],
        "legs_metrics": {
            "planar_jobs_per_s": (planar.jobs_per_s, "1/s"),
            "far_jobs_per_s": (far.jobs_per_s, "1/s"),
            "lower_bound_jobs_per_s": (lower.jobs_per_s, "1/s"),
            "far_reject_frac": (far_reject, "frac"),
        },
    }


# -- sim-rounds --------------------------------------------------------------

SIM_FAMILIES = ("grid", "tri-grid", "outerplanar")
SIM_PROGRAMS = ("bfs", "flood", "forest", "cv", "storm")


def sim_sweeps(seed: int, sizes: Sizes) -> Iterator[List[SweepSpec]]:
    for r in itertools.count():
        base = seed * 10_000 + 3 * r
        yield [
            SweepSpec.make(
                "simulate_program", families=[family], ns=[sizes.sim_n],
                seeds=[base, base + 1, base + 2], program=list(SIM_PROGRAMS),
                profile="fast",
            )
            for family in SIM_FAMILIES
        ]


def _messages_per_s(leg: Leg) -> float:
    messages = sum(json.loads(t)["messages"] for t in leg.records.values())
    return messages / leg.paced_wall if leg.paced_wall > 0 else 0.0


def run_sim_rounds(seed: int, seconds: float, sizes: Sizes,
                   recorder=None) -> dict:
    scalar = run_leg(
        "scalar", Client(config=RunConfig(sim_batch=1), name="scalar"),
        sim_sweeps(seed, sizes), seconds, recorder,
    )
    batched = run_leg(
        "batched", Client(config=RunConfig(sim_batch="auto"), name="batched"),
        sim_sweeps(seed, sizes), seconds, recorder,
    )
    check_same(scalar, batched)
    for leg in (scalar, batched):
        check_field(leg, "halted", True)
    return {
        "legs": [scalar, batched],
        "legs_metrics": {
            "messages_per_s": (_messages_per_s(scalar), "1/s"),
            "batched_messages_per_s": (_messages_per_s(batched), "1/s"),
        },
    }


# -- fleet-small -------------------------------------------------------------


def fleet_sweep(seed: int, sizes: Sizes, k: int) -> SweepSpec:
    """The *k*-th 4-job sweep: two families x one n x two seeds."""
    base = seed * 100_000 + 2 * k
    return SweepSpec.make(
        "test_planarity", families=["grid", "tri-grid"],
        ns=[sizes.fleet_ns[k % len(sizes.fleet_ns)]], seeds=[base, base + 1],
        epsilon=0.25,
    )


def fleet_blocks(seed: int, sizes: Sizes) -> Iterator[List[SweepSpec]]:
    """Merged sweeps for the pool legs, each the union of
    ``block_sweeps`` 4-job sweeps that share one n (same jobs, fewer
    submits, so pool start-up is paid once per block)."""
    width = len(sizes.fleet_ns)
    for j in itertools.count():
        lane, row = j % width, j // width
        ks = [lane + width * (row * sizes.block_sweeps + i)
              for i in range(sizes.block_sweeps)]
        seeds = [seed * 100_000 + 2 * k + d for k in ks for d in (0, 1)]
        yield [SweepSpec.make(
            "test_planarity", families=["grid", "tri-grid"],
            ns=[sizes.fleet_ns[lane]], seeds=seeds, epsilon=0.25,
        )]


class Fleet:
    """A live ``SweepService`` with ``WORKERS`` worker subprocesses."""

    def __init__(self, store_dir: Path):
        self.store_dir = store_dir
        self.procs: List[subprocess.Popen] = []
        self.service = SweepService(store_dir=str(store_dir), heartbeat=2.0)
        self.service.start()
        try:
            for _ in range(WORKERS):
                self.procs.append(subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "worker", "--connect",
                     self.service.endpoint],
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                ))
            deadline = time.monotonic() + 60.0
            while self.service.active_workers < WORKERS:
                if time.monotonic() > deadline:
                    raise RuntimeError("service workers did not join in 60 s")
                time.sleep(0.002)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Stop the service and reap every worker."""
        self.service.stop()
        for proc in self.procs:
            try:
                proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def job_seconds(self, ns) -> float:
        """Worker-measured job seconds from the store's cost table."""
        store = ShardedStore(str(self.store_dir))
        total = 0.0
        for n in ns:
            cell = store.get_meta(cost_meta_key("test_planarity", n)) or {}
            total += float(cell.get("total_s", 0.0))
        return total


PHASE_BLOCKS = 8
"""Blocks a service phase runs in; between blocks the clients meet and
the host's pace is read, so a phase has as many readings as a leg."""


def _service_phase(name: str, endpoint: str, sweeps_by_client,
                   recorder=None) -> Leg:
    """``WORKERS`` closed-loop clients, each submitting its own list of
    sweeps and waiting for every record before its next submit.  Each
    client's list is cut into :data:`PHASE_BLOCKS` consecutive blocks;
    all clients finish a block before any starts the next."""
    leg = Leg(name)
    tallies = [Leg(name) for _ in sweeps_by_client]
    span = (
        recorder.span("leg", leg=name, kind=name)
        if recorder is not None else nullcontext()
    )
    with span as root:
        parent = root["id"] if root is not None else None

        def client_loop(index: int, block: int) -> None:
            client = Client(endpoint=endpoint, name=f"{name}-{index}")
            sweeps = sweeps_by_client[index]
            lo = len(sweeps) * block // PHASE_BLOCKS
            hi = len(sweeps) * (block + 1) // PHASE_BLOCKS
            for sweep in sweeps[lo:hi]:
                submit_once(client, sweep, tallies[index], recorder, parent)

        for block in range(PHASE_BLOCKS):
            leg.pace_stamp = -math.inf
            leg.read_pace(recorder)
            started = time.perf_counter()
            threads = [
                threading.Thread(target=client_loop, args=(i, block),
                                 name=f"bench-client-{i}")
                for i in range(len(sweeps_by_client))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            leg.wall += time.perf_counter() - started
        leg.pace_stamp = -math.inf
        leg.read_pace(recorder)
    for tally in tallies:
        leg.merge(tally)
    return leg


def run_fleet_small(seed: int, seconds: float, sizes: Sizes, scratch: Path,
                    recorder=None) -> dict:
    serial = run_leg(
        "serial", Client(backend="serial", name="serial"),
        ([fleet_sweep(seed, sizes, k)] for k in itertools.count()),
        seconds, recorder,
    )
    process = run_leg(
        "process",
        Client(backend=ProcessPoolBackend(max_workers=WORKERS), name="process"),
        fleet_blocks(seed, sizes), seconds, recorder,
    )
    async_leg = run_leg(
        "async",
        Client(backend=AsyncBackend(max_workers=WORKERS), name="async"),
        fleet_blocks(seed, sizes), seconds, recorder,
    )
    # Client i owns sweeps i, i + WORKERS, ...: disjoint, so every cold
    # job executes and lands in the store exactly once.  Warm, each
    # client resubmits its own cold sweeps, so every job is a store hit.
    cold_sweeps = [
        [fleet_sweep(seed, sizes, k)
         for k in range(i, rounds_for("service_cold", seconds), WORKERS)]
        for i in range(WORKERS)
    ]
    warm_sweeps = [
        list(itertools.islice(itertools.cycle(sweeps),
                              max(1, rounds_for("service_warm", seconds)
                                  // WORKERS)))
        for sweeps in cold_sweeps
    ]
    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=scratch))
    fleet = Fleet(store_dir)
    try:
        log_start = len(fleet.service.dispatch_log)
        spec_start = len(fleet.service.speculation_log)
        cold = _service_phase("service_cold", fleet.service.endpoint,
                              cold_sweeps, recorder)
        dispatched = len(fleet.service.dispatch_log) - log_start
        speculated = len(fleet.service.speculation_log) - spec_start
        warm = _service_phase("service_warm", fleet.service.endpoint,
                              warm_sweeps, recorder)
        warm_dispatched = (
            len(fleet.service.dispatch_log) - log_start - dispatched
        )
    finally:
        fleet.close()
    job_seconds = fleet.job_seconds(sizes.fleet_ns)
    usage = ShardedStore(str(store_dir)).usage()
    for leg in (serial, process, async_leg, cold, warm):
        check_field(leg, "accepted", True)
        if leg is not serial:
            check_same(serial, leg)
    check_same(cold, warm)
    latencies = sorted(cold.latencies) or [0.0]
    serial_per_job = serial.wall / max(1, serial.jobs)
    return {
        "legs": [serial, process, async_leg, cold, warm],
        "legs_metrics": {
            "service_jobs_per_s": (cold.jobs_per_s, "1/s"),
            "hit_jobs_per_s": (warm.jobs_per_s, "1/s"),
            "submit_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "submit_p95_ms": (1e3 * quantile(latencies, 0.95), "ms"),
            "submit_samples": (len(cold.latencies), "count"),
            "process_jobs_per_s": (process.jobs_per_s, "1/s"),
            "async_jobs_per_s": (async_leg.jobs_per_s, "1/s"),
        },
        "outside": {
            "service.dispatched": (dispatched + warm_dispatched, "count"),
            "service.speculated": (speculated, "count"),
            "store.bytes_per_record": (
                usage["live_bytes"] / max(1, usage["entries"]), "bytes"),
            "store.hit_ratio": (
                1.0 - warm_dispatched / max(1, warm.jobs), "frac"),
            "service.utilization": (
                job_seconds / (WORKERS * cold.wall), "frac"),
            "service.overhead_ms_per_job": (
                1e3 * (WORKERS * cold.wall - job_seconds) / max(1, cold.jobs),
                "ms"),
            "client.submit_setup_ms": (
                1e3 * statistics.median(cold.first_progress or [0.0]), "ms"),
            "executor.process_overhead_ms_per_job": (
                1e3 * (WORKERS * process.wall / max(1, process.jobs)
                       - serial_per_job), "ms"),
            "executor.async_overhead_ms_per_job": (
                1e3 * (WORKERS * async_leg.wall / max(1, async_leg.jobs)
                       - serial_per_job), "ms"),
        },
        "service_records": [cold, warm],
    }


def quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


# -- set-up ------------------------------------------------------------------


def warm_up(workload: str, scratch: Path, with_fleet: bool) -> Optional[Fleet]:
    """Everything a workload does before its first timed submit.

    Lazy imports (scipy for Delaunay, the simulator kernels) are paid
    here by one tiny job per job kind; on ``fleet-small`` with
    *with_fleet* the service starts and both workers join.  Returns the
    live fleet, if any; the caller closes it.
    """
    client = Client(backend="serial", name="warm-up")
    if workload == "paper-mix":
        client.run(SweepSpec.make("test_planarity", families=["delaunay"],
                                  ns=[40], seeds=[0], epsilon=0.25))
        client.run(SweepSpec.make("test_planarity", fars=["gnp"], ns=[40],
                                  seeds=[0], epsilon=0.25))
        client.run(SweepSpec.make("lower_bound_audit", families=["grid"],
                                  ns=[32], seeds=[0]))
        return None
    if workload == "sim-rounds":
        sweep = SweepSpec.make("simulate_program", families=["grid"], ns=[16],
                               seeds=[0, 1], program=list(SIM_PROGRAMS),
                               profile="fast")
        Client(config=RunConfig(sim_batch=1)).run(sweep)
        Client(config=RunConfig(sim_batch="auto")).run(sweep)
        return None
    client.run(SweepSpec.make("test_planarity", families=["grid"], ns=[16],
                              seeds=[0], epsilon=0.25))
    if not with_fleet:
        return None
    return Fleet(Path(tempfile.mkdtemp(prefix="store-", dir=scratch)))
