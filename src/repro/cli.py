"""Command-line interface: ``repro-planarity``.

Subcommands:

* ``test``        -- run the Theorem 1 planarity tester on a generated graph
* ``partition``   -- run the Theorem 3/4 partition and report its quality
* ``spanner``     -- build the Corollary 17 spanner and measure it
* ``applications``-- run the Corollary 16 cycle-freeness/bipartiteness testers
* ``lower-bound`` -- sample the Theorem 2 hard instance and certify it
* ``families``    -- list available graph families
* ``sweep``       -- expand an n x epsilon x seed grid into jobs and run
  them on the :mod:`repro.runtime` orchestrator (serial, process-pool,
  async worker, or remote socket backend, with a sharded on-disk
  result store)
* ``serve``       -- run the persistent sweep service: many clients
  submit sweeps concurrently, one shared worker fleet executes them
  (round-robin fairness, admission control, straggler re-dispatch)
* ``submit``      -- send one sweep to a running ``serve`` endpoint
  (``--connect``) or run it through the same :class:`Client` facade
  locally (``--backend``); records are identical either way
* ``worker``      -- join a ``sweep --backend remote`` server or a
  ``serve`` fleet over TCP (``--reconnect`` survives restarts)
* ``cache``       -- inspect (``stats``) or garbage-collect (``gc``)
  a sharded result store
* ``trace``       -- inspect a telemetry trace directory written by
  ``sweep --trace DIR``: ``view`` (span tree), ``top`` (slowest span
  groups), ``export --chrome`` (Chrome ``trace_event`` JSON)

The ``sweep`` subcommand takes comma-separated axis lists and executes
their cartesian product; repeated invocations with ``--cache-dir`` are
served from the sharded on-disk store instead of re-running the
simulator.  ``--shard i/k`` runs one deterministic slice of the grid
(point every slice at the same ``--cache-dir``, possibly from different
machines; ``--balance cost`` splits by measured job cost instead of
key-hash counts) and ``--resume`` finishes whatever keys the store is
still missing.  ``--backend remote --listen host:port`` serves the
grid to ``repro-planarity worker --connect host:port`` processes; a
worker killed mid-run has its job requeued.
``--kind simulate`` sweeps raw CONGEST protocols (``--programs``) on
the simulator, and ``--profile faithful|fast`` selects the simulator's
instrumentation profile (exported as ``REPRO_SIM_PROFILE`` so
process-pool workers follow along).

Examples::

    repro-planarity test --family delaunay --n 1000 --epsilon 0.1
    repro-planarity test --far planted-k5 --n 500 --epsilon 0.1
    repro-planarity spanner --family grid --n 900 --epsilon 0.2
    repro-planarity sweep --kind test --families grid,delaunay \\
        --ns 128,256,512 --epsilons 0.5,0.1 --seeds 0,1 \\
        --backend process --cache-dir /tmp/repro-cache
    repro-planarity sweep --kind simulate --programs bfs,storm \\
        --families delaunay --ns 256 --profile fast
    repro-planarity sweep --backend remote --listen 127.0.0.1:7341 \\
        --cache-dir /tmp/repro-cache   # then, on each worker host:
    repro-planarity worker --connect 127.0.0.1:7341
    repro-planarity serve --listen 127.0.0.1:7077 \\
        --cache-dir /tmp/repro-cache   # persistent fleet; then:
    repro-planarity worker --connect 127.0.0.1:7077 --reconnect
    repro-planarity submit --connect 127.0.0.1:7077 --kind test \\
        --families grid --ns 128,256 --epsilons 0.5,0.1
    repro-planarity cache gc --cache-dir /tmp/repro-cache \\
        --ttl 604800 --max-bytes 500000000
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .analysis.tables import Table
from .applications.spanner import build_spanner, measure_stretch
from .congest.instrumentation import PROFILE_ENV_VAR, PROFILES
from .graphs.far_from_planar import FAR_FAMILIES, make_far
from .graphs.generators import PLANAR_FAMILIES, make_planar
from .graphs.lower_bound import lower_bound_instance
from .partition.stage1 import partition_stage1
from .partition.weighted_selection import partition_randomized
from .runtime import (
    Client,
    ResultCache,
    RunConfig,
    ShardedStore,
    SweepSpec,
    make_backend,
    run_sweep,
)
from .runtime.remote import parse_endpoint
from .testers.applications import test_bipartiteness, test_cycle_freeness
from .testers.planarity import PlanarityTestConfig, test_planarity

SWEEP_KINDS = {
    "test": "test_planarity",
    "partition": "partition_stage1",
    "partition-randomized": "partition_randomized",
    "spanner": "spanner",
    "cycle-freeness": "cycle_freeness",
    "bipartiteness": "bipartiteness",
    "simulate": "simulate_program",
}


def _build_graph(args):
    if getattr(args, "far", None):
        graph, farness = make_far(args.far, args.n, seed=args.seed)
        return graph, f"far:{args.far} (certified farness >= {farness:.3f})"
    graph = make_planar(args.family, args.n, seed=args.seed)
    return graph, f"planar:{args.family}"


def _cmd_test(args) -> int:
    graph, label = _build_graph(args)
    config = PlanarityTestConfig(
        epsilon=args.epsilon,
        collect_exact_violations=args.analyze,
    )
    result = test_planarity(graph, seed=args.seed, config=config)
    table = Table(
        f"Planarity test on {label}",
        [
            "n", "m", "epsilon", "verdict", "stage", "rounds",
            "stage1", "stage2", "parts",
        ],
    )
    table.add_row(
        graph.number_of_nodes(),
        graph.number_of_edges(),
        args.epsilon,
        "accept" if result.accepted else "REJECT",
        result.rejected_stage or "-",
        result.rounds,
        result.stage1_rounds,
        result.stage2_rounds,
        result.stage1.partition.size,
    )
    table.print()
    if args.analyze and result.total_violating_exact is not None:
        print(f"exact violating edges across parts: {result.total_violating_exact}")
    return 0 if result.accepted else 1


def _cmd_partition(args) -> int:
    graph, label = _build_graph(args)
    if args.method == "deterministic":
        result = partition_stage1(
            graph,
            epsilon=args.epsilon,
            target_cut=args.epsilon * graph.number_of_nodes(),
        )
    else:
        result = partition_randomized(
            graph,
            epsilon=args.epsilon,
            delta=args.delta,
            seed=args.seed,
        )
    table = Table(
        f"{args.method} partition of {label}",
        ["n", "m", "parts", "cut", "target", "max height", "phases", "rounds"],
    )
    table.add_row(
        graph.number_of_nodes(),
        graph.number_of_edges(),
        result.partition.size,
        result.partition.cut_size(),
        result.target_cut,
        result.partition.max_height(),
        len(result.phases),
        result.rounds,
    )
    table.print()
    return 0 if result.success else 1


def _cmd_spanner(args) -> int:
    graph, label = _build_graph(args)
    result = build_spanner(
        graph, epsilon=args.epsilon, method=args.method, seed=args.seed
    )
    stretch = measure_stretch(graph, result.spanner, sample_nodes=8, seed=args.seed)
    n = graph.number_of_nodes()
    table = Table(
        f"Corollary 17 spanner on {label}",
        [
            "n", "m", "spanner edges", "size/n", "measured stretch",
            "guaranteed", "rounds",
        ],
    )
    table.add_row(
        n,
        graph.number_of_edges(),
        result.size,
        result.size / n,
        stretch,
        result.guaranteed_stretch,
        result.rounds,
    )
    table.print()
    return 0


def _cmd_applications(args) -> int:
    graph, label = _build_graph(args)
    cycle = test_cycle_freeness(graph, epsilon=args.epsilon, seed=args.seed)
    bipartite = test_bipartiteness(graph, epsilon=args.epsilon, seed=args.seed)
    table = Table(
        f"Corollary 16 testers on {label}",
        ["property", "verdict", "rejecting parts", "rounds"],
    )
    table.add_row(
        "cycle-freeness",
        "accept" if cycle.accepted else "REJECT",
        len(cycle.rejecting_parts),
        cycle.rounds,
    )
    table.add_row(
        "bipartiteness",
        "accept" if bipartite.accepted else "REJECT",
        len(bipartite.rejecting_parts),
        bipartite.rounds,
    )
    table.print()
    return 0


def _cmd_lower_bound(args) -> int:
    instance = lower_bound_instance(args.n, seed=args.seed)
    table = Table(
        "Theorem 2 lower-bound instance",
        ["n", "m", "girth", "target girth", "removed", "farness lb", "blind radius"],
    )
    graph = instance.graph
    table.add_row(
        graph.number_of_nodes(),
        graph.number_of_edges(),
        instance.girth,
        instance.target_girth,
        instance.removed_edges,
        instance.farness_lower_bound,
        instance.indistinguishability_radius,
    )
    table.print()
    print(
        "Any one-sided tester running fewer rounds than the blind radius "
        "must accept this epsilon-far graph (every local view is a tree)."
    )
    return 0


def _parse_axis(raw: str, convert):
    """Parse a comma-separated CLI axis into a list of *convert* values."""
    values = [convert(tok.strip()) for tok in raw.split(",") if tok.strip()]
    if not values:
        raise SystemExit(f"empty axis list: {raw!r}")
    return values


def _parse_shard(raw: Optional[str]):
    """Parse ``--shard i/k`` into ``(index, count)`` or ``None``."""
    if raw is None:
        return None
    try:
        index_text, count_text = raw.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise SystemExit(f"--shard expects i/k (e.g. 0/2), got {raw!r}")
    if count <= 0 or not 0 <= index < count:
        raise SystemExit(f"--shard index out of range: {raw!r}")
    return index, count


def _parse_batch(raw: str):
    """Parse ``--batch``: a positive int, or ``auto`` (cost-aware sizing)."""
    if raw.strip().lower() == "auto":
        return "auto"
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"--batch expects an integer or 'auto', got {raw!r}")


def _sweep_spec_from_args(args) -> SweepSpec:
    """Expand the grid axes shared by ``sweep`` and ``submit``."""
    kind = SWEEP_KINDS[args.kind]
    if kind == "simulate_program":
        # Simulator sweeps iterate over protocols, not epsilons.
        params = {"program": _parse_axis(args.programs, str)}
    else:
        params = {"epsilon": _parse_axis(args.epsilons, float)}
    if args.deltas:
        params["delta"] = _parse_axis(args.deltas, float)
    if args.methods:
        params["method"] = _parse_axis(args.methods, str)
    if args.profile:
        # The env knob reaches every CongestNetwork.run in this process
        # *and* in process-pool workers (they inherit the environment).
        os.environ[PROFILE_ENV_VAR] = args.profile
    if kind == "simulate_program":
        # Simulator jobs carry the *effective* profile (flag, else env,
        # else default) in their config so fast/faithful results occupy
        # distinct cache entries even when selected via REPRO_SIM_PROFILE.
        params["profile"] = [
            args.profile or os.environ.get(PROFILE_ENV_VAR) or "faithful"
        ]
    fars = _parse_axis(args.far_families, str) if args.far_families else ()
    return SweepSpec.make(
        kind,
        families=_parse_axis(args.families, str),
        fars=fars,
        ns=_parse_axis(args.ns, int),
        seeds=_parse_axis(args.seeds, int),
        **params,
    )


def _run_config_from_args(args) -> RunConfig:
    """Batch knobs as a :class:`RunConfig` (CLI flag beats env).

    ``run_sweep`` / ``iter_jobs`` export the explicitly-set knobs for
    the run's duration, which is how ``--batch`` reaches process-pool
    workers too.
    """
    return RunConfig(
        sim_batch=args.batch,
        sim_batch_waste=args.batch_waste,
    )


def _cmd_sweep(args) -> int:
    if args.trace:
        # Enable tracing for this process and everything it spawns
        # (pool forks, async worker env, remote welcome frames).
        from .telemetry import configure

        configure(trace_dir=args.trace)
    progress = None
    if args.progress:
        from .telemetry.dashboard import SweepProgress

        progress = SweepProgress()
    sweep = _sweep_spec_from_args(args)
    if args.backend == "process":
        backend = make_backend("process", max_workers=args.workers)
    elif args.backend == "async":
        # Workers consult the shared sharded store directly, so
        # concurrent orchestrators exchange results mid-flight.
        backend = make_backend(
            "async", max_workers=args.workers, store_dir=args.cache_dir
        )
    elif args.backend == "remote":
        if not args.listen:
            raise SystemExit("--backend remote needs --listen HOST:PORT")
        try:
            host, port = parse_endpoint(args.listen)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        backend = make_backend(
            "remote", host=host, port=port, store_dir=args.cache_dir
        )
        backend.bind()
        print(
            f"remote backend listening on {backend.host}:"
            f"{backend.bound_port} (join with: repro-planarity worker "
            f"--connect {backend.host}:{backend.bound_port})"
        )
    else:
        backend = make_backend(args.backend)
    cache = ResultCache(disk_dir=args.cache_dir)
    shard = _parse_shard(args.shard)
    if args.resume and cache.store_backend is None:
        raise SystemExit("--resume needs --cache-dir (the store to resume from)")
    if args.balance == "cost" and cache.store_backend is None:
        raise SystemExit(
            "--balance cost needs --cache-dir (the store holding the "
            "measured cost table)"
        )
    result = run_sweep(
        sweep, backend=backend, cache=cache, shard=shard, resume=args.resume,
        balance=args.balance, progress=progress,
        config=_run_config_from_args(args),
    )
    shard_label = f" [shard {shard[0]}/{shard[1]}]" if shard else ""
    # Sorted columns, as in ``submit``: codec-decoded records (store
    # hits, fleet results) order their fields differently from records
    # built in-process, and the markdown must not depend on the route.
    table = result.to_table(
        f"sweep: {args.kind} over {len(result.records)} jobs{shard_label}",
        columns=sorted({key for record in result.records for key in record}),
    )
    table.print()
    summary = result.summary()
    print(
        f"jobs={summary['jobs']} executed={summary['executed']} "
        f"backend={summary['backend']}"
    )
    # Cache accounting from the cache instance itself: includes disk
    # hits/evictions the per-batch snapshot cannot see.
    print(f"cache: {cache.stats.summary_line()}")
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write(table.to_markdown() + "\n")
        print(f"markdown table written to {args.markdown}")
    if args.trace:
        print(
            f"trace written to {args.trace} (inspect with: "
            f"repro-planarity trace view {args.trace})"
        )
    return 0


def _cmd_trace(args) -> int:
    import json

    from .telemetry import chrome_trace, read_events, render_tree, top_spans

    events = read_events(args.trace_dir)
    if not events:
        print(f"no trace events under {args.trace_dir}", file=sys.stderr)
        return 1
    if args.trace_command == "view":
        for line in render_tree(events, max_lines=args.max_lines):
            print(line)
        return 0
    if args.trace_command == "top":
        rows = top_spans(events, name=args.name)
        table = Table(
            f"top spans in {args.trace_dir} ({len(events)} events)",
            ["span", "kind", "count", "total s", "mean s", "max s"],
        )
        for row in rows[: args.limit]:
            table.add_row(
                row["name"],
                row["kind"],
                row["count"],
                f"{row['total_s']:.4f}",
                f"{row['mean_s']:.4f}",
                f"{row['max_s']:.4f}",
            )
        table.print()
        return 0
    # export
    payload = chrome_trace(events) if args.chrome else events
    with open(args.out, "w") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")
    label = "Chrome trace_event" if args.chrome else "merged event list"
    print(f"wrote {label} ({len(events)} events) to {args.out}")
    return 0


def _cmd_families(_args) -> int:
    print("planar families: ", ", ".join(sorted(PLANAR_FAMILIES)))
    print("far families:    ", ", ".join(sorted(FAR_FAMILIES)))
    return 0


def _cmd_worker(args) -> int:
    from .runtime.worker import serve_remote

    try:
        host, port = parse_endpoint(args.connect)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    return serve_remote(
        host, port, store_dir=args.store, retry_seconds=args.retry_seconds,
        reconnect=args.reconnect,
    )


def _cmd_serve(args) -> int:
    import signal

    from .runtime.scheduler import SpeculationPolicy
    from .runtime.service import SweepService

    try:
        host, port = parse_endpoint(args.listen)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    service = SweepService(
        host=host,
        port=port,
        store_dir=args.cache_dir,
        heartbeat=args.heartbeat,
        max_clients=args.max_clients,
        max_pending=args.max_pending,
        speculation=SpeculationPolicy() if args.speculate else None,
    )
    service.bind()
    print(
        f"service listening on {service.endpoint}\n"
        f"  workers: repro-planarity worker --connect {service.endpoint} "
        f"--reconnect\n"
        f"  clients: repro-planarity submit --connect {service.endpoint} ...",
        flush=True,
    )
    # Graceful shutdown on SIGTERM (supervisors, CI) as well as ^C.
    # SIGINT needs re-arming too: a shell that launched us in the
    # background may have left it SIG_IGN, in which case Python never
    # installs its KeyboardInterrupt handler.
    def _interrupt(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGINT, _interrupt)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        service.stop()
    return 0


def _cmd_submit(args) -> int:
    sweep = _sweep_spec_from_args(args)
    client = Client(
        endpoint=args.connect,
        backend=args.backend,
        cache_dir=args.cache_dir,
        config=_run_config_from_args(args),
        name=args.name,
    )

    def on_progress(frame) -> None:
        print(
            f"progress: {frame.get('done')}/{frame.get('total')} "
            f"(queued {frame.get('queued')}, inflight {frame.get('inflight')}, "
            f"workers {frame.get('workers')})",
            file=sys.stderr,
        )

    records = list(
        client.submit(sweep, on_progress=on_progress if args.progress else None)
    )
    # Sorted columns so the rendering is deterministic whatever order
    # record fields arrived in -- the CI smoke byte-compares the
    # markdown of a serial leg against concurrent service legs.
    columns = sorted({key for record in records for key in record})
    table = Table(f"submit: {args.kind} over {len(records)} jobs", columns)
    for record in records:
        table.add_row(*(record.get(col, "-") for col in columns))
    table.print()
    target = (
        f"service {args.connect}" if args.connect else f"backend {args.backend}"
    )
    print(f"jobs={len(records)} target={target}")
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write(table.to_markdown() + "\n")
        print(f"markdown table written to {args.markdown}")
    return 0


def _format_bytes(count) -> str:
    if count is None:
        return "-"
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:,.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{int(count)} B"


def _cmd_cache(args) -> int:
    store = ShardedStore(
        args.cache_dir, record_format=getattr(args, "format", None)
    )
    if args.cache_command == "dump":
        count = 0
        for key, stamp, record in sorted(store.dump()):
            if args.json:
                print(json.dumps(
                    {"key": key, "stamp": stamp, "record": record},
                    sort_keys=True,
                ))
            else:
                print(f"{key}  @{stamp}  {json.dumps(record, sort_keys=True)}")
            count += 1
        if not args.json:
            print(f"({count} live entries)", file=sys.stderr)
        return 0
    if args.cache_command == "migrate":
        report = store.migrate()
        print(
            f"migrate: {report.entries} entries "
            f"(+{report.meta_entries} meta) now {report.format}; "
            f"{_format_bytes(report.bytes_before)} -> "
            f"{_format_bytes(report.bytes_after)} on disk"
        )
        return 0
    if args.cache_command == "stats":
        usage = store.usage()
        table = Table(
            f"store {usage['root']}",
            ["format", "shards", "entries", "live", "on disk",
             "reclaimable", "index", "meta"],
        )
        table.add_row(
            usage["format"],
            usage["shards"],
            usage["entries"],
            _format_bytes(usage["live_bytes"]),
            _format_bytes(usage["file_bytes"]),
            _format_bytes(usage["reclaimable_bytes"]),
            _format_bytes(usage["index_bytes"]),
            usage["meta_entries"],
        )
        table.print()
        if usage["oldest_t"] is not None:
            import time as _time

            now = _time.time()
            print(
                f"entry age: newest {now - usage['newest_t']:.0f}s, "
                f"oldest {now - usage['oldest_t']:.0f}s"
            )
        return 0
    # gc
    if args.ttl is None and args.max_bytes is None and not args.compact:
        raise SystemExit(
            "cache gc needs --ttl and/or --max-bytes (or --compact for a "
            "newest-wins rewrite only)"
        )
    report = store.gc(ttl=args.ttl, max_bytes=args.max_bytes,
                      grace=args.grace)
    print(
        f"gc: removed {report.entries_removed} entries "
        f"({report.expired_entries} expired, {report.evicted_entries} over "
        f"byte budget), reclaimed {_format_bytes(report.bytes_reclaimed)}; "
        f"kept {report.entries_kept} entries "
        f"({_format_bytes(report.bytes_kept)})"
    )
    return 0


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family",
        default="delaunay",
        choices=sorted(PLANAR_FAMILIES),
        help="planar family to generate",
    )
    parser.add_argument(
        "--far",
        default=None,
        choices=sorted(FAR_FAMILIES),
        help="generate a certified far-from-planar family instead",
    )
    parser.add_argument("--n", type=int, default=500, help="number of nodes")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--epsilon", type=float, default=0.1, help="distance parameter"
    )


def _add_sweep_axis_arguments(parser: argparse.ArgumentParser) -> None:
    """Grid axes + run knobs shared by ``sweep`` and ``submit``."""
    parser.add_argument(
        "--kind",
        default="test",
        choices=sorted(SWEEP_KINDS),
        help="workload to sweep",
    )
    parser.add_argument(
        "--families",
        default="delaunay",
        help="comma-separated planar families",
    )
    parser.add_argument(
        "--far-families",
        default=None,
        help="comma-separated far families (overrides --families)",
    )
    parser.add_argument("--ns", default="256,512", help="comma-separated sizes")
    parser.add_argument(
        "--epsilons", default="0.5,0.1", help="comma-separated epsilons"
    )
    parser.add_argument("--seeds", default="0", help="comma-separated seeds")
    parser.add_argument(
        "--deltas", default=None, help="comma-separated deltas (randomized kinds)"
    )
    parser.add_argument(
        "--methods", default=None, help="comma-separated methods (spanner/apps)"
    )
    parser.add_argument(
        "--programs",
        default="bfs",
        help="comma-separated simulator programs (simulate kind): "
        "bfs,cv,flood,forest,storm",
    )
    parser.add_argument(
        "--profile",
        default=None,
        choices=sorted(PROFILES),
        help="simulator instrumentation profile (sets REPRO_SIM_PROFILE "
        "for this run, including process-pool workers)",
    )
    parser.add_argument(
        "--batch",
        type=_parse_batch,
        default=None,
        metavar="B",
        help="coalesce up to B same-cell simulator trials into one "
        "graph-batched tensor-plane job (simulate kind with --profile "
        "fast; records are identical to unbatched runs; 'auto' sizes "
        "batches from the cost table's measured per-trial wall-times; "
        "default REPRO_SIM_BATCH or 1)",
    )
    parser.add_argument(
        "--batch-waste",
        type=float,
        default=None,
        metavar="W",
        help="padding-waste bound for ragged batch jobs: never pad a "
        "batch's smallest trial by more than a factor of W in edge "
        "slots (>= 1; default REPRO_SIM_BATCH_WASTE or 4.0)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-planarity",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the Theorem 1 planarity tester")
    _add_graph_arguments(p_test)
    p_test.add_argument(
        "--analyze", action="store_true", help="collect exact violating counts"
    )
    p_test.set_defaults(func=_cmd_test)

    p_part = sub.add_parser("partition", help="run the Theorem 3/4 partition")
    _add_graph_arguments(p_part)
    p_part.add_argument(
        "--method",
        default="deterministic",
        choices=("deterministic", "randomized"),
    )
    p_part.add_argument("--delta", type=float, default=0.1)
    p_part.set_defaults(func=_cmd_partition)

    p_span = sub.add_parser("spanner", help="build the Corollary 17 spanner")
    _add_graph_arguments(p_span)
    p_span.add_argument(
        "--method",
        default="deterministic",
        choices=("deterministic", "randomized"),
    )
    p_span.set_defaults(func=_cmd_spanner)

    p_app = sub.add_parser(
        "applications", help="run the Corollary 16 property testers"
    )
    _add_graph_arguments(p_app)
    p_app.set_defaults(func=_cmd_applications)

    p_lb = sub.add_parser(
        "lower-bound", help="sample the Theorem 2 hard instance"
    )
    p_lb.add_argument("--n", type=int, default=2000)
    p_lb.add_argument("--seed", type=int, default=0)
    p_lb.set_defaults(func=_cmd_lower_bound)

    p_fam = sub.add_parser("families", help="list graph families")
    p_fam.set_defaults(func=_cmd_families)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a parameter-grid sweep on the batch runtime",
    )
    _add_sweep_axis_arguments(p_sweep)
    p_sweep.add_argument(
        "--backend",
        default="serial",
        choices=("serial", "process", "async", "remote"),
        help="execution backend (async streams results from asyncio-"
        "managed worker subprocesses that share the cache store; remote "
        "serves jobs over TCP to repro-planarity worker processes)",
    )
    p_sweep.add_argument(
        "--workers", type=int, default=None, help="worker count (process/async)"
    )
    p_sweep.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="endpoint the remote backend listens on (required for "
        "--backend remote; port 0 picks an ephemeral port)",
    )
    p_sweep.add_argument(
        "--balance",
        default="hash",
        choices=("hash", "cost"),
        help="--shard placement policy: hash (key-hash counts) or cost "
        "(LPT over the store's measured per-kind/per-n wall-times; "
        "falls back to hash while the cost table is empty)",
    )
    p_sweep.add_argument(
        "--cache-dir",
        default=None,
        help="persist results in a sharded store under this directory "
        "(safe to share between concurrent invocations)",
    )
    p_sweep.add_argument(
        "--shard",
        default=None,
        metavar="I/K",
        help="run only deterministic shard i of k (key-hash split); "
        "point every shard at one --cache-dir and finish with --resume",
    )
    p_sweep.add_argument(
        "--resume",
        action="store_true",
        help="continue a partial sweep: only keys missing from the "
        "cache store execute (requires --cache-dir)",
    )
    p_sweep.add_argument(
        "--markdown", default=None, help="also write the table as markdown"
    )
    p_sweep.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="write a structured trace (spans/events, one JSONL per "
        "participating process) under this directory; inspect with "
        "`repro-planarity trace view DIR`",
    )
    p_sweep.add_argument(
        "--progress",
        action="store_true",
        help="live stderr dashboard: done/total, cache hits, workers, "
        "throughput, CostModel ETA, straggler flags",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_serve = sub.add_parser(
        "serve",
        help="run the persistent sweep service (clients: submit; "
        "workers: worker --connect ... --reconnect)",
    )
    p_serve.add_argument(
        "--listen",
        required=True,
        metavar="HOST:PORT",
        help="endpoint to listen on (port 0 picks an ephemeral port)",
    )
    p_serve.add_argument(
        "--cache-dir",
        default=None,
        help="sharded store shared with workers: submissions are "
        "answered from it where possible and every executed job is "
        "appended exactly once",
    )
    p_serve.add_argument(
        "--heartbeat",
        type=float,
        default=10.0,
        help="idle-worker ping interval in seconds (default 10)",
    )
    p_serve.add_argument(
        "--max-clients",
        type=int,
        default=16,
        help="admission bound on concurrent client sessions (default 16)",
    )
    p_serve.add_argument(
        "--max-pending",
        type=int,
        default=100_000,
        help="admission bound on queued jobs across all sessions "
        "(default 100000)",
    )
    p_serve.add_argument(
        "--no-speculate",
        dest="speculate",
        action="store_false",
        help="disable straggler re-dispatch (on by default: jobs "
        "running far past their CostModel prediction get a second "
        "copy; first result wins)",
    )
    p_serve.set_defaults(func=_cmd_serve, speculate=True)

    p_submit = sub.add_parser(
        "submit",
        help="submit one sweep to a `serve` endpoint (or run it "
        "locally through the same Client facade)",
    )
    _add_sweep_axis_arguments(p_submit)
    p_submit.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="a running `repro-planarity serve` endpoint; omit to run "
        "locally on --backend",
    )
    p_submit.add_argument(
        "--backend",
        default="serial",
        choices=("serial", "process", "async"),
        help="local execution backend when no --connect is given "
        "(records are identical to the service's)",
    )
    p_submit.add_argument(
        "--cache-dir",
        default=None,
        help="sharded store for the local path (hits stream back "
        "without executing, like the service's store hits)",
    )
    p_submit.add_argument(
        "--name",
        default=None,
        help="client display name in the service's logs and telemetry",
    )
    p_submit.add_argument(
        "--markdown", default=None, help="also write the table as markdown"
    )
    p_submit.add_argument(
        "--progress",
        action="store_true",
        help="print progress frames to stderr as the service streams "
        "records back",
    )
    p_submit.set_defaults(func=_cmd_submit)

    p_worker = sub.add_parser(
        "worker",
        help="join a `sweep --backend remote` server and serve jobs",
    )
    p_worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="the sweep server's --listen endpoint",
    )
    p_worker.add_argument(
        "--store",
        default=None,
        help="sharded store directory (defaults to the server's, when "
        "this host can reach it)",
    )
    p_worker.add_argument(
        "--retry-seconds",
        type=float,
        default=30.0,
        help="how long to retry the initial connection (default 30)",
    )
    p_worker.add_argument(
        "--reconnect",
        action="store_true",
        help="fleet mode (serve): redial with capped backoff + jitter "
        "when the server drops the connection; only an exit frame or "
        "a handshake rejection ends the worker",
    )
    p_worker.set_defaults(func=_cmd_worker)

    p_trace = sub.add_parser(
        "trace", help="inspect a telemetry trace directory (sweep --trace)"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tview = trace_sub.add_parser(
        "view", help="render the merged span tree as indented text"
    )
    p_tview.add_argument("trace_dir", help="trace directory to read")
    p_tview.add_argument(
        "--max-lines",
        type=int,
        default=200,
        help="truncate the rendering after this many lines (default 200)",
    )
    p_tview.set_defaults(func=_cmd_trace)
    p_ttop = trace_sub.add_parser(
        "top", help="rank span groups by total time (slowest first)"
    )
    p_ttop.add_argument("trace_dir", help="trace directory to read")
    p_ttop.add_argument(
        "--name",
        default=None,
        help="restrict to one span name (e.g. job)",
    )
    p_ttop.add_argument(
        "--limit", type=int, default=20, help="rows to print (default 20)"
    )
    p_ttop.set_defaults(func=_cmd_trace)
    p_texport = trace_sub.add_parser(
        "export", help="write the merged trace to one JSON file"
    )
    p_texport.add_argument("trace_dir", help="trace directory to read")
    p_texport.add_argument(
        "--out", required=True, help="output JSON file path"
    )
    p_texport.add_argument(
        "--chrome",
        action="store_true",
        help="emit Chrome trace_event format (load in chrome://tracing "
        "or Perfetto) instead of the raw merged event list",
    )
    p_texport.set_defaults(func=_cmd_trace)

    p_cache = sub.add_parser(
        "cache", help="inspect or garbage-collect a sharded result store"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_stats = cache_sub.add_parser("stats", help="store usage summary")
    p_stats.add_argument(
        "--cache-dir", required=True, help="store directory to inspect"
    )
    p_stats.set_defaults(func=_cmd_cache)
    p_gc = cache_sub.add_parser(
        "gc", help="expire by TTL and/or shrink to a byte budget"
    )
    p_gc.add_argument(
        "--cache-dir", required=True, help="store directory to collect"
    )
    p_gc.add_argument(
        "--ttl",
        type=float,
        default=None,
        help="drop entries older than this many seconds",
    )
    p_gc.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="keep only the newest entries fitting in this many bytes",
    )
    p_gc.add_argument(
        "--compact",
        action="store_true",
        help="allow a bound-less run (newest-wins rewrite only)",
    )
    p_gc.add_argument(
        "--grace",
        type=float,
        default=60.0,
        help="never collect entries newer than this many seconds "
        "(concurrent-writer / clock-skew guard; default 60)",
    )
    p_gc.set_defaults(func=_cmd_cache)
    p_dump = cache_sub.add_parser(
        "dump", help="print every live (key, stamp, record), sorted by key"
    )
    p_dump.add_argument(
        "--cache-dir", required=True, help="store directory to dump"
    )
    p_dump.add_argument(
        "--json",
        action="store_true",
        help="one canonical JSON object per line (machine-diffable; the "
        "CI migration round-trip compares these)",
    )
    p_dump.set_defaults(func=_cmd_cache)
    p_migrate = cache_sub.add_parser(
        "migrate",
        help="rewrite every shard into the target record format "
        "(.jsonl <-> .rbin), dropping dead duplicates",
    )
    p_migrate.add_argument(
        "--cache-dir", required=True, help="store directory to migrate"
    )
    p_migrate.add_argument(
        "--format",
        default="rbin",
        choices=["rbin", "jsonl"],
        help="target record format (default rbin; jsonl downgrades for "
        "tools that still want line-oriented shards)",
    )
    p_migrate.set_defaults(func=_cmd_cache)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
