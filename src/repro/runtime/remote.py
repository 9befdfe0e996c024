"""TCP fleet plumbing: the worker wire protocol and ``--backend remote``.

Workers in other processes, containers, or machines join a fleet with
``repro-planarity worker --connect host:port`` (see
:func:`repro.runtime.worker.serve_remote`).  The one dispatcher that
serves them is :class:`~repro.runtime.service.SweepService`; this
module holds what the service, the client, the worker and the CLI
share -- frame reading, endpoint parsing, the worker handshake -- plus
:class:`RemoteBackend`, the thin ``run_jobs`` adapter that runs each
batch on an embedded service.

Wire protocol v2: **length-prefixed binary frames** (see
:mod:`repro.runtime.codec` -- 2-byte magic + u32 body length + one
codec-encoded message dict).  Specs and records travel as
*shape-packed codec payloads* (``spec_pkd`` / ``record_pkd`` bytes
fields), with each frame carrying the shape-definition blocks its
payloads need that this connection has not seen yet (``shapes``) --
so a worker's result bytes are appended to the store verbatim
(:meth:`~repro.runtime.store.ShardedStore.put_raw`, zero server-side
re-encode) and a store hit ships without a decode.

=============  =========================================================
frame          fields
=============  =========================================================
``hello``      worker -> server: ``protocol`` (version int), ``kinds``
               (worker's registered job kinds), ``store`` (worker's
               store dir or ``None``), ``pid``
``welcome``    server -> worker: ``protocol``, ``store`` (the
               server's store dir, for same-host adoption),
               optional ``trace`` (``{"dir", "parent"}`` -- the trace
               sink same-host workers adopt; see
               :func:`repro.telemetry.adopt_trace`)
``reject``     server -> worker on a failed handshake: ``reason``;
               the connection closes immediately after
``job``        server -> worker: ``id``, ``spec_pkd`` (shape-packed
               :meth:`JobSpec.to_payload`), ``key`` (cache key or
               ``None``), ``nostore``, ``shapes``
``result``     worker -> server: ``id``, ``record_pkd`` (shape-packed
               record bytes), ``shapes``, ``hit`` (served from the
               worker's store), ``seconds`` (worker-side wall-time,
               ``None`` on hits), ``stored`` (whether the worker
               persisted the record itself) -- or ``error`` +
               ``traceback`` on failure
``ping``       server -> worker heartbeat; worker answers ``pong``
``exit``       server -> worker: done, disconnect
=============  =========================================================

Handshakes reject a ``protocol`` mismatch and workers pointed at a
*different* store (split-brain caches); a peer that does not speak
binary frames at all fails the frame-magic check and is disconnected.
Workers are admitted whatever job kinds they registered and only
receive jobs of those kinds.  Specs carry all randomness, so fleet
records are byte-identical to serial.
"""

from __future__ import annotations

import asyncio
import time
from typing import Iterator, List, Optional, Sequence, Tuple

from ..telemetry.spans import get_tracer
from .codec import (
    FRAME_HEADER_SIZE,
    WireProtocolError,
    decode_record,
    decode_wire_body,
    encode_wire_frame,
    parse_frame_header,
)
from .jobs import JobSpec, Record

PROTOCOL_VERSION = 2


class RemoteWorkerError(RuntimeError):
    """A remote worker reported a deterministic job failure."""


async def read_bframe(reader) -> Optional[dict]:
    """Read one binary frame from an asyncio stream reader.

    Returns ``None`` on clean EOF at a frame boundary; raises
    :class:`WireProtocolError` on a torn or malformed frame.
    """
    try:
        header = await reader.readexactly(FRAME_HEADER_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireProtocolError("connection closed mid-frame") from exc
    body_len = parse_frame_header(header)
    try:
        body = await reader.readexactly(body_len)
    except asyncio.IncompleteReadError as exc:
        raise WireProtocolError("connection closed mid-frame") from exc
    return decode_wire_body(body)


def parse_endpoint(raw: str) -> Tuple[str, int]:
    """Parse ``host:port`` (CLI ``--listen`` / ``--connect``)."""
    host, sep, port_text = raw.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected host:port, got {raw!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"expected host:port, got {raw!r}") from None
    return host, port


class _Connection:
    """Server-side state for one connected worker."""

    __slots__ = (
        "reader", "writer", "name", "kinds", "read_task", "sent_shapes",
        "connected_at", "jobs_done", "busy_s", "ping_sent",
    )

    def __init__(self, reader, writer, name: str, kinds: Sequence[str] = ()):
        self.reader = reader
        self.writer = writer
        self.name = name
        # Job kinds the worker registered at handshake; dispatch only
        # hands it jobs of these kinds.
        self.kinds = frozenset(kinds)
        # The persistent frame-read task: lets the dispatch loop wait
        # on "next frame OR next job" without two readers racing.
        self.read_task: Optional[asyncio.Task] = None
        # Shape-definition ids already sent down this connection (job
        # spec payloads reference them; each def travels at most once).
        self.sent_shapes: set = set()
        # Telemetry bookkeeping: per-worker utilization gauges and
        # heartbeat round-trip measurement.
        self.connected_at = time.monotonic()
        self.jobs_done = 0
        self.busy_s = 0.0
        self.ping_sent: Optional[float] = None

    def utilization(self) -> float:
        """Fraction of this worker's connected time spent on jobs."""
        alive = max(time.monotonic() - self.connected_at, 1e-9)
        return min(self.busy_s / alive, 1.0)

    def next_frame_task(self) -> asyncio.Task:
        if self.read_task is None or self.read_task.done():
            self.read_task = asyncio.ensure_future(read_bframe(self.reader))
        return self.read_task


class RemoteBackend:
    """Fans jobs over workers connected via TCP (``--backend remote``).

    A thin adapter over the one fleet dispatcher: each
    :meth:`run_stream` call starts an embedded
    :class:`~repro.runtime.service.SweepService` on this endpoint,
    feeds it the batch as one in-process session, and stops it when
    the batch ends (connected workers receive ``exit``).  Workers may
    join late, leave, or die mid-job (the job is requeued); a job that
    raises aborts the batch with :class:`RemoteWorkerError`.

    Args:
        host / port: listen endpoint; port ``0`` binds an ephemeral
            port (read it from :attr:`bound_port` after :meth:`bind`).
        store_dir: the shared sharded-store directory.  Workers are
            told it at handshake (same-host workers adopt it to probe
            for hits); the service appends every executed job's result
            bytes itself, so the store holds one row per job.
        heartbeat: idle-connection ping interval in seconds.
    """

    name = "remote"
    wants_graph_hints = False
    wants_keys = True
    # run_jobs/iter_jobs attach their CostBook here for the duration of
    # a batch: the service observes *partial* elapsed time for jobs
    # whose worker died mid-flight (the stream only reports completed
    # jobs, so requeue costs would otherwise be dropped on the floor).
    accepts_cost_book = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store_dir: Optional[str] = None,
        heartbeat: float = 10.0,
    ):
        self.host = host
        self.port = port
        self.store_dir = str(store_dir) if store_dir else None
        self.heartbeat = heartbeat
        self.cost_book = None
        self._service = None

    @property
    def bound_port(self) -> Optional[int]:
        """The listening port, or ``None`` outside a bound batch."""
        service = self._service
        return service.bound_port if service is not None else None

    @property
    def active_workers(self) -> int:
        """Live worker connections (read by the ``--progress`` dashboard)."""
        service = self._service
        return service.active_workers if service is not None else 0

    def bind(self) -> int:
        """Bind the listen socket now; returns the bound port.

        Called implicitly by :meth:`run_stream`; call it explicitly to
        learn an ephemeral port before starting workers (the CLI also
        uses it to print the endpoint before dispatch blocks).
        """
        if self._service is None:
            # Lazy: service -> sweeps -> executor -> remote.
            from .service import SweepService

            self._service = SweepService(
                self.host, self.port, self.store_dir, self.heartbeat
            )
        return self._service.bind()

    def stop(self) -> None:
        """End the current batch now (thread-safe, idempotent).

        The stream returns, workers receive ``exit``, and the listen
        socket is released.
        """
        service, self._service = self._service, None
        if service is not None:
            service.stop()

    def run(
        self,
        specs: Sequence[JobSpec],
        graphs: Optional[Sequence] = None,
        keys: Optional[Sequence[str]] = None,
    ) -> List[Record]:
        """Execute *specs*, returning records in input order."""
        records: List[Optional[Record]] = [None] * len(specs)
        for index, record, _seconds in self.run_stream(
            specs, graphs=graphs, keys=keys
        ):
            records[index] = record
        return [r for r in records if r is not None]

    def run_stream(
        self,
        specs: Sequence[JobSpec],
        graphs: Optional[Sequence] = None,
        keys: Optional[Sequence[str]] = None,
    ) -> Iterator[Tuple[int, Record, Optional[float]]]:
        """Yield ``(index, record, seconds)`` in completion order.

        Blocks until every job has a record; jobs wait in the queue
        while no worker is connected, so starting workers late (or
        replacing dead ones) is fine.
        """
        specs = list(specs)
        if not specs:
            return
        self.bind()
        service = self._service
        try:
            service.start()
            for index, payload, seconds in service.run_local(
                specs, keys, self.cost_book
            ):
                # The one decode per record, for the consumer stream;
                # the service appended the bytes to the store verbatim.
                yield index, decode_record(payload), seconds
        finally:
            self.stop()


async def reject_peer(writer, reason: str) -> None:
    """Send a ``reject`` frame and close the connection."""
    get_tracer().event("service.reject", reason=reason)
    try:
        writer.write(encode_wire_frame({"op": "reject", "reason": reason}))
        await writer.drain()
    except (OSError, ConnectionError):
        pass
    writer.close()


async def validate_worker_hello(
    hello: dict, writer, store_dir: Optional[str]
) -> bool:
    """Check a worker ``hello`` against this server; reject + ``False`` on
    mismatch.

    Job kinds are not checked: a worker is admitted whatever kinds it
    registered, and dispatch only hands it jobs of those kinds.
    """
    if hello.get("protocol") != PROTOCOL_VERSION:
        await reject_peer(
            writer,
            f"protocol mismatch: server speaks {PROTOCOL_VERSION}, "
            f"worker speaks {hello.get('protocol')!r}",
        )
        return False
    worker_store = hello.get("store")
    if (
        worker_store
        and store_dir
        and not _same_path(worker_store, store_dir)
    ):
        await reject_peer(
            writer,
            f"store mismatch: server uses {store_dir}, "
            f"worker uses {worker_store}",
        )
        return False
    return True


async def welcome_worker(
    reader, writer, hello: dict, store_dir: Optional[str] = None
) -> Optional[_Connection]:
    """Answer a worker's opening ``hello``; ``None`` = rejected."""
    if not await validate_worker_hello(hello, writer, store_dir):
        return None
    welcome = {
        "op": "welcome",
        "protocol": PROTOCOL_VERSION,
        "store": store_dir,
    }
    tracer = get_tracer()
    if tracer.enabled and tracer.trace_dir is not None:
        # Advertise the trace context: same-host workers adopt the
        # sink directory and parent span, so their job spans land
        # in the merged trace under the orchestrator's sweep span.
        # The directory must exist *before* the worker's visibility
        # probe runs -- the tracer only creates it on first write,
        # and an early-joining worker would lose that race and
        # silently decline adoption.
        try:
            tracer.trace_dir.mkdir(parents=True, exist_ok=True)
            welcome["trace"] = {
                "dir": str(tracer.trace_dir),
                "parent": tracer.current_span_id(),
            }
        except OSError:
            pass  # unwritable sink: workers run untraced
    writer.write(encode_wire_frame(welcome))
    await writer.drain()
    name = f"worker-pid{hello.get('pid', '?')}"
    return _Connection(reader, writer, name, kinds=hello.get("kinds") or ())


def _same_path(left: str, right: str) -> bool:
    from pathlib import Path

    try:
        return Path(left).resolve() == Path(right).resolve()
    except OSError:
        return left == right
