"""In-memory span recording around the layers' public entry points.

The traced pass of a workload installs :func:`layer_hooks`: each hook
replaces one public function (or method) of a ``repro`` module with a
wrapper that opens a span named after its layer, calls the original,
and attaches counts read off the result.  Nothing under ``src/`` is
edited; the originals are restored when the pass ends.

Spans carry ``name``, ``id``, ``parent``, start and end, and the ids of
the ``client.submit`` and ``executor.job`` spans they ran under
(``submit``, ``job``), so every span of one submit or job can be
grouped.  They stay in memory and are written at the end in the
``trace-*.jsonl`` shape ``repro-planarity trace view|top`` reads.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class Recorder:
    """Thread-safe in-memory span recorder."""

    def __init__(self) -> None:
        self.token = f"{os.getpid():x}-bench"
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: Optional[str] = None, **attrs):
        """Time the ``with`` body as span *name*; yields the span dict.

        The parent defaults to the innermost open span on this thread;
        pass *parent* to link a span opened on another thread (client
        threads under their leg).
        """
        stack = self._stack()
        outer = stack[-1] if stack else None
        span = {
            "name": name,
            "id": f"{self.token}.{next(self._ids)}",
            "parent": parent or (outer["id"] if outer else None),
            "tid": threading.current_thread().name,
            "t0": time.time(),
            "p0": time.perf_counter(),
            "p1": None,
            "attrs": attrs,
        }
        for key, owner in (("submit", "client.submit"),
                           ("job", "executor.job")):
            group = span["id"] if name == owner else (
                outer["attrs"].get(key) if outer else None)
            if group is not None:
                attrs[key] = group
        stack.append(span)
        try:
            yield span
        finally:
            span["p1"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def write_jsonl(self, directory: Path) -> Path:
        """Write every span as one ``trace-<token>.jsonl`` file."""
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"trace-{self.token}.jsonl"
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s["p0"]):
                handle.write(json.dumps({
                    "ev": "span",
                    "name": span["name"],
                    "id": span["id"],
                    "parent": span["parent"],
                    "pid": os.getpid(),
                    "tid": span["tid"],
                    "t0": round(span["t0"], 6),
                    "dur": round(span["p1"] - span["p0"], 6),
                    "attrs": span["attrs"],
                }, separators=(",", ":"), default=str) + "\n")
        return path


# -- hooks -------------------------------------------------------------------

# Each after-hook reads counts off the call's arguments and result into
# the span's attributes; it never changes what the caller receives.


def _job_attrs(attrs, args, _kwargs, result):
    spec = args[0]
    attrs["kind"] = spec.kind
    attrs["family"] = spec.far or spec.family
    attrs["n"] = spec.n


def _stage1_attrs(attrs, _args, _kwargs, result):
    attrs["phases"] = len(result.phases)
    attrs["rounds"] = result.rounds
    attrs["rejected"] = not result.success


def _part_attrs(attrs, _args, _kwargs, result):
    attrs["rounds"] = result.rounds
    attrs["rejected"] = not result.accepted


def _sim_attrs(attrs, _args, _kwargs, result):
    attrs["rounds"] = result.rounds
    attrs["messages"] = result.total_messages
    attrs["bits"] = result.total_bits


def _batch_attrs(attrs, args, kwargs, _result):
    topologies = args[1] if len(args) > 1 else kwargs["topologies"]
    slots = [max(1, 2 * t.m) for t in topologies]
    attrs["trials"] = len(slots)
    attrs["fill"] = sum(slots) / (len(slots) * max(slots))


def _decode_attrs(attrs, args, _kwargs, _result):
    attrs["bytes"] = len(args[0])


def _get_attrs(attrs, _args, _kwargs, result):
    attrs["hit"] = result is not None


def _put_attrs(attrs, args, _kwargs, _result):
    attrs["bytes"] = len(args[2])


# (module, attribute path, span name, after-hook).  Modules that import a
# function by name get their own entry, so every call site is covered.
HOOKS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.runtime.executor", "run_job_timed", "executor.job", _job_attrs),
    ("repro.runtime.jobs", "make_planar", "graphs.build", None),
    ("repro.runtime.jobs", "make_far", "graphs.build", None),
    ("repro.graphs", "lower_bound_instance", "graphs.lower_bound", None),
    ("repro.graphs", "all_views_are_trees", "graphs.views_check", None),
    ("repro.congest.topology", "compile_topology", "topology.compile", None),
    ("repro.congest.network", "compile_topology", "topology.compile", None),
    ("repro.congest.batch", "compile_topology", "topology.compile", None),
    ("repro.testers.planarity", "partition_stage1", "partition.stage1",
     _stage1_attrs),
    ("repro.testers.planarity", "extract_part_subgraphs", "stage2.extract",
     None),
    ("repro.testers.planarity", "test_part", "stage2.test_part", _part_attrs),
    ("repro.testers.stage2", "check_planarity", "planarity.lr", None),
    ("repro.congest.network", "CongestNetwork.run", "congest.run", _sim_attrs),
    ("repro.congest.batch", "run_batched", "batch.run", _batch_attrs),
    ("repro.runtime.client", "decode_record", "codec.decode", _decode_attrs),
    ("repro.runtime.store", "ShardedStore.get_raw", "store.get", _get_attrs),
    ("repro.runtime.store", "ShardedStore.put_raw", "store.put", _put_attrs),
)


def _wrap(recorder: Recorder, fn, name: str, after) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as span:
            result = fn(*args, **kwargs)
            if after is not None:
                after(span["attrs"], args, kwargs, result)
        return result

    return wrapper


@contextmanager
def layer_hooks(recorder: Recorder):
    """Install every hook in :data:`HOOKS` for the ``with`` body."""
    saved = []
    try:
        for module_name, path, name, after in HOOKS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, original, name, after))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- analysis ----------------------------------------------------------------


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["p0"], span["p1"])
            )
    out = {}
    for span in spans:
        lo, hi = span["p0"], span["p1"]
        covered = _union_length(
            (max(a, lo), min(b, hi))
            for a, b in children.get(span["id"], ())
            if min(b, hi) > max(a, lo)
        )
        out[span["id"]] = max(0.0, (hi - lo) - covered)
    return out


def unattributed_share(spans: List[dict]) -> float:
    """Share of the ``leg`` spans' wall time no other span covers."""
    roots = [(s["p0"], s["p1"]) for s in spans if s["name"] == "leg"]
    wall = sum(hi - lo for lo, hi in roots)
    if wall <= 0:
        return 0.0
    covered = 0.0
    layers = [(s["p0"], s["p1"]) for s in spans if s["name"] != "leg"]
    for lo, hi in roots:
        covered += _union_length(
            (max(a, lo), min(b, hi))
            for a, b in layers
            if min(b, hi) > max(a, lo)
        )
    return max(0.0, 1.0 - covered / wall)
