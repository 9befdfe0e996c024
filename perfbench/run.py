"""Benchmark of the ``Client.submit(SweepSpec)`` -> records path.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 30 --trace 0

Workloads, metrics and bounds are declared in ``BENCHMARK.json``.  With
``--trace 0`` the run measures the workload untraced and prints its
end-to-end metrics; with ``--trace 1`` it runs the workload twice, half
the time each -- untraced, then traced through in-memory spans around
every layer's public entry points -- and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every correctness check passed.

``--smoke`` shrinks every input so one workload runs in seconds (the
benchmark's own tests use it).  Spans of a traced run are written to
``.perfbench/trace-<workload>-<seed>/`` in the ``trace-*.jsonl`` shape
``repro-planarity trace view|top`` reads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("paper-mix", "fleet-small", "sim-rounds")
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every workload in seconds")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def scrub_environment() -> list:
    """Remove every leaked ``REPRO_*`` knob (telemetry, trace directory,
    ``RunConfig`` overrides) so no run inherits another's settings."""
    leaked = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in leaked:
        del os.environ[name]
    return leaked


def live_children() -> list:
    """Pids of this process's children still running or unreaped."""
    pids = []
    try:
        tasks = list(Path("/proc/self/task").iterdir())
    except OSError:
        return pids
    for task in tasks:
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
    return pids


def stop_children() -> int:
    """Terminate, kill and reap leftover children; returns how many."""
    pids = live_children()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 5.0
        while live_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        if not live_children():
            break
    for pid in pids:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return len(pids)


def measure_setup(args) -> list:
    """Set-up seconds of fresh processes: imports and warm-up, plus the
    service start with both workers joined on ``fleet-small``."""
    repeats = 1 if args.smoke else SETUP_REPEATS
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "1"]
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT, timeout=120,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - started)
    return samples


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_workload(workloads, args, seconds, sizes, scratch,
                 recorder=None) -> dict:
    if args.workload == "paper-mix":
        return workloads.run_paper_mix(args.seed, seconds, sizes, recorder)
    if args.workload == "sim-rounds":
        return workloads.run_sim_rounds(args.seed, seconds, sizes, recorder)
    return workloads.run_fleet_small(args.seed, seconds, sizes, scratch,
                                     recorder)


def per_layer(recorder, traced, untraced, topology_delta) -> dict:
    """Per-layer metrics of a traced pass (see ``BENCHMARK.json``)."""
    from repro.runtime.codec import encode_record
    from tracing import self_times, unattributed_share

    spans = recorder.spans
    own = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def busy(name):
        return sum(own[s["id"]] for s in by_name.get(name, ()))

    def mean_attr(name, attr):
        values = [s["attrs"][attr] for s in by_name.get(name, ())]
        return statistics.fmean(values) if values else 0.0

    def mean_dur(name, scale):
        values = [s["p1"] - s["p0"] for s in by_name.get(name, ())]
        return scale * statistics.fmean(values) if values else 0.0

    wall = sum(s["p1"] - s["p0"] for s in by_name.get("leg", ()))
    # Jobs whose layers ran in this process (the service and the pools
    # execute theirs in worker processes, read from outside instead).
    jobs = len(by_name.get("executor.job", ())) or 1
    parts_by_job = {}
    for span in by_name.get("stage2.test_part", ()):
        parts_by_job.setdefault(span["parent"], []).append(
            span["attrs"]["rejected"])
    stage2_runs = len(by_name.get("stage2.extract", ()))
    received = [
        json.loads(text)
        for leg in traced.get("service_records", ())
        for text in leg.records.values()
    ]
    encode_s = []
    for record in received:
        started = time.perf_counter()
        encode_record(record)
        encode_s.append(time.perf_counter() - started)
    speed = geomean(leg.jobs_per_s for leg in traced["legs"])
    base = geomean(leg.jobs_per_s for leg in untraced["legs"])

    metrics = {
        "graphs.build_s": (busy("graphs.build") / jobs, "s/job"),
        "graphs.build_share": (busy("graphs.build") / wall, "frac"),
        "graphs.lower_bound_s": (busy("graphs.lower_bound") / jobs, "s/job"),
        "graphs.views_check_s": (busy("graphs.views_check") / jobs, "s/job"),
        "topology.compile_s": (busy("topology.compile") / jobs, "s/job"),
        "topology.compiled": (topology_delta[0], "count"),
        "topology.reused": (topology_delta[1], "count"),
        "partition.stage1_s": (busy("partition.stage1") / jobs, "s/job"),
        "partition.stage1_share": (busy("partition.stage1") / wall, "frac"),
        "partition.phases": (mean_attr("partition.stage1", "phases"),
                             "count"),
        "partition.stage1_rounds": (mean_attr("partition.stage1", "rounds"),
                                    "count"),
        "partition.stage1_reject_frac": (
            mean_attr("partition.stage1", "rejected"), "frac"),
        "stage2.extract_s": (busy("stage2.extract") / jobs, "s/job"),
        "stage2.test_part_s": (busy("stage2.test_part") / jobs, "s/job"),
        "stage2.share": (
            (busy("stage2.extract") + busy("stage2.test_part")) / wall,
            "frac"),
        "stage2.parts": (
            len(by_name.get("stage2.test_part", ())) / max(1, stage2_runs),
            "count"),
        "stage2.rounds": (mean_attr("stage2.test_part", "rounds"), "count"),
        "stage2.reject_frac": (
            sum(any(v) for v in parts_by_job.values())
            / max(1, len(parts_by_job)), "frac"),
        "planarity.lr_s": (busy("planarity.lr") / jobs, "s/job"),
        "planarity.lr_calls": (len(by_name.get("planarity.lr", ())), "count"),
        "congest.run_s": (busy("congest.run") / jobs, "s/job"),
        "congest.rounds": (mean_attr("congest.run", "rounds"), "count"),
        "congest.messages": (mean_attr("congest.run", "messages"), "count"),
        "congest.bits": (mean_attr("congest.run", "bits"), "count"),
        "batch.run_s": (busy("batch.run") / jobs, "s/job"),
        "batch.groups": (len(by_name.get("batch.run", ())), "count"),
        "batch.fill_ratio": (mean_attr("batch.run", "fill"), "frac"),
        "codec.encode_us": (
            1e6 * statistics.fmean(encode_s) if encode_s else 0.0, "us"),
        "codec.decode_us": (mean_dur("codec.decode", 1e6), "us"),
        "codec.bytes_per_record": (mean_attr("codec.decode", "bytes"),
                                   "bytes"),
        "store.put_ms": (mean_dur("store.put", 1e3), "ms"),
        "store.get_ms": (mean_dur("store.get", 1e3), "ms"),
        "trace.overhead_frac": (speed / base - 1.0 if base else 0.0, "frac"),
        "trace.unattributed_share": (unattributed_share(spans), "frac"),
    }
    metrics.update(traced.get("outside", {}))
    # Leg throughputs of the untraced pass, under the names later
    # changes cite (each applies to one workload; 0 elsewhere).
    metrics.update(untraced["legs_metrics"])
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    leaked = scrub_environment()
    for name in leaked:
        print(f"warning: removed leaked {name} from the environment",
              file=sys.stderr)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return run(args, scratch)
    finally:
        stop_children()
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, scratch: Path) -> int:
    import networkx
    import numpy

    import workloads
    from repro.congest.topology import topology_stats

    sizes = workloads.Sizes.smoke() if args.smoke else workloads.Sizes()
    if args.setup_probe:
        fleet = workloads.warm_up(args.workload, scratch, with_fleet=True)
        if fleet is not None:
            fleet.close()
        return 0

    print(f"env: python {sys.version.split()[0]} numpy {numpy.__version__} "
          f"networkx {networkx.__version__} nproc {os.cpu_count()}")
    setup = None if args.trace else measure_setup(args)
    workloads.warm_up(args.workload, scratch, with_fleet=False)

    if args.trace:
        from tracing import Recorder, layer_hooks

        untraced = run_workload(workloads, args, args.seconds / 2, sizes,
                                scratch)
        recorder = Recorder()
        before = topology_stats()
        with layer_hooks(recorder):
            traced = run_workload(workloads, args, args.seconds / 2, sizes,
                                  scratch, recorder)
        after = topology_stats()
        # Tracing must not change a single record.
        for base_leg, leg in zip(untraced["legs"], traced["legs"]):
            workloads.check_same(base_leg, leg)
        passes = [untraced, traced]
        metrics = per_layer(recorder, traced, untraced,
                            (after.compiled - before.compiled,
                             after.reused - before.reused))
        trace_dir = OUT / f"trace-{args.workload}-{args.seed}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        path = recorder.write_jsonl(trace_dir)
        print(f"trace: {len(recorder.spans)} spans in {path.relative_to(ROOT)}")
    else:
        result = run_workload(workloads, args, args.seconds, sizes, scratch)
        passes = [result]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "jobs_per_s": (geomean(leg.jobs_per_s for leg in result["legs"]),
                           "1/s"),
        }

    legs = [leg for result in passes for leg in result["legs"]]
    attempted = sum(leg.attempted for leg in legs)
    failed = sum(leg.failed for leg in legs)
    leaked_procs = stop_children()
    if leaked_procs:
        failed += leaked_procs
        print(f"error: {leaked_procs} child processes outlived the run",
              file=sys.stderr)
    if not args.trace:
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")

    for leg in legs:
        print(f"leg {leg.name:13s} jobs {leg.jobs:6d}  wall {leg.wall:7.3f} s"
              f"  paced {leg.paced_wall:7.3f} s  {leg.jobs_per_s:9.2f} jobs/s"
              f"  submits {leg.submits}")
    table = dict(passes[0]["legs_metrics"])
    table["failed_frac"] = (failed / max(1, attempted), "frac")
    table.update(metrics)
    for name, (value, unit) in table.items():
        print(f"  {name:38s} {value:14.6g} {unit}")
    for leg in legs:
        for error in leg.errors[:5]:
            print(f"error: {error}", file=sys.stderr)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    names = {entry["name"] for entry in declared[section]}
    if not names >= metrics.keys():
        raise ValueError(f"undeclared metrics: {sorted(metrics.keys() - names)}")
    # A declared metric the workload does not produce is a layer it
    # bypasses: it did no work there, reported as 0.
    out = {}
    for entry in declared[section]:
        value, unit = metrics.get(entry["name"], (0.0, entry["unit"]))
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {unit} is not "
                             f"{entry['unit']} as declared")
        out[entry["name"]] = {"value": float(value), "unit": unit}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
