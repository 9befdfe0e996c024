"""Worker process: the binary-frame job protocol over stdio or TCP.

``python -m repro.runtime.worker`` turns a process into a job server.
Two transports share one request handler:

* **stdio** (the async backend): length-prefixed binary frames (see
  :mod:`repro.runtime.codec`) over stdin/stdout, one worker per
  subprocess, spawned and owned by the orchestrator
  (:mod:`repro.runtime.async_backend`);
* **TCP** (``--connect host:port``, also ``repro-planarity worker``):
  the worker dials a :class:`~repro.runtime.service.SweepService` --
  a ``serve`` process, or the one ``sweep --backend remote`` embeds
  for its batch -- handshakes (protocol version, job-kind registry,
  store dir), then serves jobs until the server says ``exit`` or the
  connection drops.  Connection attempts retry for ``--retry-seconds``
  so workers can be started before the server is listening.

Specs arrive and records leave as **shape-packed codec payloads**
(``spec_pkd`` / ``record_pkd``), the same byte format the sharded
store persists -- so a worker with a store appends its freshly
encoded record *once* and ships the identical bytes over the wire,
and a store hit is forwarded without ever being decoded
(:meth:`~repro.runtime.store.ShardedStore.get_raw`).  Shape
definitions travel at most once per connection, tracked by a
per-connection sent-set on both ends.

When a worker has a sharded store (``--store DIR``, or the directory
adopted from the server's ``welcome`` frame), it consults the shared
:class:`~repro.runtime.store.ShardedStore` *before* executing a job
whose request carries a ``key``, and appends fresh records back unless
the request says ``nostore`` (the service always does: it persists
results itself, exactly once) -- that is the cross-process cache
sharing: concurrent sweeps and fleet workers with overlapping grids
serve each other's results through one fcntl-locked on-disk index
instead of each missing cold.

Everything a record needs to be reproducible travels in the spec
(``seed`` drives all randomness), so a worker is stateless: killing
and respawning one mid-batch loses nothing but the in-flight job
(which the service requeues).
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

from .codec import (
    GLOBAL_SHAPES,
    decode_record,
    encode_record,
    encode_wire_frame,
    frame_shapes,
    read_wire_frame,
)
from .jobs import JobSpec, job_kinds, run_job_timed
from .store import ShardedStore


def _store_payload(store: ShardedStore, key: str) -> Optional[bytes]:
    """The stored payload bytes for *key*, or ``None`` on a miss.

    Binary-sourced entries come back verbatim (zero decode); a key
    living in a legacy ``.jsonl`` shard is decoded and re-encoded once
    so it can still ship as packed bytes.
    """
    payload = store.get_raw(key)
    if payload is not None:
        return bytes(payload)
    record = store.get(key)  # legacy .jsonl source, or a plain miss
    if record is None:
        return None
    encoded, _shape = encode_record(record)
    return encoded


def _flush_telemetry() -> None:
    """Snapshot this worker's metrics next to its trace file, if any."""
    from ..telemetry import get_metrics, get_tracer

    tracer = get_tracer()
    if tracer.enabled and tracer.trace_dir is not None:
        get_metrics().flush_to(tracer.trace_dir)


def handle_request(message: dict, store: Optional[ShardedStore]) -> dict:
    """Execute one job request; returns the response fields (sans id).

    The caller has already registered any shape blocks the request
    carried.  Probes *store* first when the request carries a cache
    ``key``; fresh records are appended back (``stored`` reports
    whether that happened, so a server can persist on behalf of
    storeless workers).  The response's ``record_pkd`` holds the
    shape-packed record bytes -- for a store hit they come straight
    from the shard file (zero decode), for a fresh record they are
    encoded exactly once and shared between the local append and the
    wire.
    """
    key = message.get("key")
    # A request flagged ``nostore`` must never append: the service uses
    # it for speculative duplicate dispatches, where it persists the
    # winning copy's bytes itself -- exactly once -- so the store stays
    # one line per job no matter how many twins raced.  Probing for an
    # existing row is still fine (a hit *is* the one row).
    nostore = bool(message.get("nostore"))
    try:
        payload: Optional[bytes] = None
        hit = False
        seconds: Optional[float] = None
        stored = False
        if store is not None and key:
            payload = _store_payload(store, key)
            hit = payload is not None
            stored = hit
        if payload is None:
            spec = JobSpec.from_payload(decode_record(message["spec_pkd"]))
            record, seconds = run_job_timed(spec)
            payload, _shape = encode_record(record)
            if store is not None and key and not nostore:
                store.put_raw(key, payload)
                stored = True
        return {
            "record_pkd": payload,
            "hit": hit,
            "seconds": seconds,
            "stored": stored,
        }
    except Exception as exc:  # report, don't die: the batch goes on
        return {
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }


def _result_frame(message: dict, store: Optional[ShardedStore],
                  sent_shapes: set) -> bytes:
    """One encoded result frame for one job request."""
    for block in message.get("shapes") or ():
        GLOBAL_SHAPES.register_block(block)
    response = {"op": "result", "id": message.get("id")}
    response.update(handle_request(message, store))
    payload = response.get("record_pkd")
    if isinstance(payload, (bytes, bytearray)):
        response["shapes"] = frame_shapes(
            iter((bytes(payload),)), sent_shapes
        )
    return encode_wire_frame(response)


def serve(stdin=None, stdout=None, store_dir: Optional[str] = None) -> int:
    """Serve job frames over binary stdio until EOF or ``exit``."""
    stdin = stdin if stdin is not None else sys.stdin.buffer
    stdout = stdout if stdout is not None else sys.stdout.buffer
    store = ShardedStore(store_dir) if store_dir else None
    sent_shapes: set = set()
    while True:
        message = read_wire_frame(stdin)
        if message is None or message.get("op") == "exit":
            break
        stdout.write(_result_frame(message, store, sent_shapes))
        stdout.flush()
    _flush_telemetry()
    return 0


RETRY_DELAY_START = 0.1
RETRY_DELAY_CAP = 5.0


def retry_delays():
    """Capped exponential backoff with jitter for server dials.

    Yields sleep durations ``0.1, 0.2, 0.4, ... -> 5.0``, each scaled
    by a uniform jitter in ``[0.5, 1.0)`` so a fleet of workers started
    together does not hammer a recovering service in lockstep.
    """
    import random

    delay = RETRY_DELAY_START
    while True:
        yield delay * (0.5 + 0.5 * random.random())
        delay = min(delay * 2.0, RETRY_DELAY_CAP)


def _connect_with_retry(
    host: str, port: int, retry_seconds: float
) -> socket.socket:
    """Dial the sweep server, retrying while it is not yet listening.

    *retry_seconds* bounds the total time spent retrying
    (``float("inf")`` retries forever -- the ``--reconnect`` fleet
    mode); the last ``OSError`` propagates when the bound is hit.
    """
    deadline = time.monotonic() + retry_seconds
    delays = retry_delays()
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            # Blocking mode from here on: a worker legitimately sits
            # idle for arbitrary stretches (another worker holds the
            # last long job), and the server's heartbeat keeps the
            # connection observable -- a read timeout would kill idle
            # workers instead.
            sock.settimeout(None)
            return sock
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(min(next(delays), max(deadline - time.monotonic(), 0)))


def _adopt_store(store_dir: Optional[str]) -> Optional[ShardedStore]:
    """Open a store the server advertised, if this host can reach *it*.

    Adoption requires the server's already-initialized store
    (``store.json`` written at bind time) to be visible at the path --
    a bare ``mkdir`` succeeding proves nothing on a host without the
    shared filesystem and would silently fork a fresh local store.
    Workers that cannot see the server's store run storeless; the
    server persists their records itself (``stored: false``).
    """
    if not store_dir:
        return None
    try:
        if not (Path(store_dir) / "store.json").is_file():
            return None  # not the server's store: run storeless
        return ShardedStore(store_dir)
    except OSError:
        return None  # different filesystem: run storeless


def _serve_connection(sock: socket.socket, store_dir: Optional[str]) -> str:
    """One server connection's lifetime; the socket is consumed.

    Returns ``"exit"`` (clean ``exit`` frame), ``"eof"`` (the server
    vanished: EOF, reset, torn frame), or ``"rejected"`` (handshake
    refused -- retrying would refuse again).
    """
    from .remote import PROTOCOL_VERSION

    store = ShardedStore(store_dir) if store_dir else None
    try:
        reader = sock.makefile("rb")
        hello = {
            "op": "hello",
            "protocol": PROTOCOL_VERSION,
            "kinds": list(job_kinds()),
            "store": store_dir,
            "pid": os.getpid(),
        }
        sock.sendall(encode_wire_frame(hello))
        welcome = read_wire_frame(reader)
        if welcome is None:
            print("worker: server closed during handshake", file=sys.stderr)
            return "eof"
        if welcome.get("op") != "welcome":
            print(
                f"worker: rejected: {welcome.get('reason', welcome)}",
                file=sys.stderr,
            )
            return "rejected"
        if store is None:
            store = _adopt_store(welcome.get("store"))
        if welcome.get("trace"):
            # The server is tracing: adopt its sink directory and
            # parent span (same-host check inside), so this worker's
            # job spans land in the merged trace under the sweep span.
            from ..telemetry import adopt_trace

            adopt_trace(welcome["trace"])
        sent_shapes: set = set()
        while True:
            frame = read_wire_frame(reader)
            if frame is None:
                return "eof"
            op = frame.get("op")
            if op == "exit":
                return "exit"
            if op == "ping":
                sock.sendall(encode_wire_frame({"op": "pong"}))
                continue
            if op != "job":
                continue
            sock.sendall(_result_frame(frame, store, sent_shapes))
    except (OSError, ValueError):  # reset / torn frame: same as EOF
        return "eof"
    finally:
        _flush_telemetry()
        try:
            sock.close()
        except OSError:
            pass


def serve_remote(
    host: str,
    port: int,
    store_dir: Optional[str] = None,
    retry_seconds: float = 30.0,
    reconnect: bool = False,
) -> int:
    """Join a remote sweep server and serve jobs until it says exit.

    With ``reconnect=False`` (the per-batch default) the worker serves
    one connection: 0 on a clean end (``exit`` frame or server EOF),
    1 when the server rejected the handshake.  With ``reconnect=True``
    (the fleet mode behind ``worker --reconnect``) the worker outlives
    the server: a dropped connection -- service restarting, network
    blip -- sends it back to the capped-backoff dial loop
    (:func:`retry_delays`, retrying indefinitely), and only an explicit
    ``exit`` frame or a handshake rejection ends it.
    """
    while True:
        sock = _connect_with_retry(
            host, port, float("inf") if reconnect else retry_seconds
        )
        outcome = _serve_connection(sock, store_dir)
        if outcome == "rejected":
            return 1
        if outcome == "exit" or not reconnect:
            return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.runtime.worker",
        description=(
            "job worker: binary frames over stdio (async backend) or "
            "TCP (sweep service or remote backend)"
        ),
    )
    parser.add_argument(
        "--store",
        default=None,
        help="shared sharded-store directory for cross-process cache hits",
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="join a sweep service instead of serving stdio",
    )
    parser.add_argument(
        "--retry-seconds",
        type=float,
        default=30.0,
        help="how long to retry the initial --connect dial (default 30)",
    )
    parser.add_argument(
        "--reconnect",
        action="store_true",
        help=(
            "fleet mode: redial (capped backoff + jitter, forever) when "
            "the server drops the connection; only an exit frame or a "
            "handshake rejection ends the worker"
        ),
    )
    args = parser.parse_args(argv)
    if args.connect:
        from .remote import parse_endpoint

        host, port = parse_endpoint(args.connect)
        return serve_remote(
            host, port, store_dir=args.store,
            retry_seconds=args.retry_seconds,
            reconnect=args.reconnect,
        )
    return serve(store_dir=args.store)


if __name__ == "__main__":
    sys.exit(main())
