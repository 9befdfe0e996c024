"""Remote socket backend: handshake, dispatch, requeue (repro.runtime.remote)."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.runtime import (
    JobSpec,
    RemoteBackend,
    RemoteWorkerError,
    ResultCache,
    SerialBackend,
    make_backend,
    run_jobs,
)
from repro.runtime.codec import (
    STATS,
    encode_wire_frame,
    read_wire_frame,
)
from repro.runtime.remote import PROTOCOL_VERSION, parse_endpoint
from repro.runtime.worker import serve_remote

SPECS = [
    JobSpec.make("test_planarity", family="grid", n=36, seed=seed,
                 epsilon=epsilon)
    for seed in (0, 1)
    for epsilon in (0.5, 0.25)
]


def _start_workers(port, count=1, store_dir=None):
    threads = [
        threading.Thread(
            target=serve_remote,
            args=("127.0.0.1", port),
            kwargs={"store_dir": store_dir, "retry_seconds": 10.0},
            daemon=True,
        )
        for _ in range(count)
    ]
    for thread in threads:
        thread.start()
    return threads


def _join(threads, timeout=15.0):
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive(), "worker did not exit after the batch"


def test_parse_endpoint():
    assert parse_endpoint("127.0.0.1:7341") == ("127.0.0.1", 7341)
    assert parse_endpoint("host.example:0") == ("host.example", 0)
    with pytest.raises(ValueError):
        parse_endpoint("7341")
    with pytest.raises(ValueError):
        parse_endpoint("host:port")


def test_make_backend_registry_includes_remote():
    backend = make_backend("remote", port=0)
    assert isinstance(backend, RemoteBackend)


def test_remote_matches_serial():
    backend = RemoteBackend(port=0)
    port = backend.bind()
    workers = _start_workers(port, count=2)
    remote = run_jobs(SPECS, backend=backend)
    _join(workers)
    serial = run_jobs(SPECS, backend=SerialBackend())
    assert remote.records == serial.records


def test_workers_share_store_and_records_land_once(tmp_path):
    """Same acceptance as the async backend: one line per record, and
    a fresh resume run is a pure merge."""
    store_dir = tmp_path / "shared"
    backend = RemoteBackend(port=0, store_dir=str(store_dir))
    port = backend.bind()
    cache = ResultCache(disk_dir=store_dir)
    workers = _start_workers(port, count=2, store_dir=str(store_dir))
    batch = run_jobs(SPECS, backend=backend, cache=cache)
    _join(workers)
    assert batch.executed == len(SPECS)
    from repro.runtime.store import count_record_entries

    # One physical entry per record, not two.
    assert count_record_entries(store_dir) == len(SPECS)
    rerun = run_jobs(SPECS, cache=ResultCache(disk_dir=store_dir))
    assert rerun.executed == 0
    assert rerun.records == batch.records


def test_handshake_rejects_legacy_json_worker():
    """A protocol-1 worker opens with a JSON line; its first bytes fail
    the frame-magic check, so the server closes without a welcome."""
    backend = RemoteBackend(port=0)
    port = backend.bind()
    holder = {}

    def consume():
        holder["batch"] = run_jobs(SPECS[:1], backend=backend)

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    reader = sock.makefile("rb")
    sock.sendall(
        b'{"op":"hello","protocol":1,"kinds":[],"store":null}\n'
    )
    try:
        reply = reader.read()
    except ConnectionResetError:
        reply = b""
    sock.close()
    assert reply == b"", "a JSON-line peer must get EOF, not a welcome"
    # A conforming worker still completes the batch afterwards.
    workers = _start_workers(port)
    consumer.join(15)
    assert not consumer.is_alive()
    _join(workers)
    assert len(holder["batch"].records) == 1


def test_handshake_rejects_protocol_mismatch():
    backend = RemoteBackend(port=0)
    port = backend.bind()
    holder = {}

    def consume():
        holder["batch"] = run_jobs(SPECS[:1], backend=backend)

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    reader = sock.makefile("rb")
    sock.sendall(
        encode_wire_frame(
            {"op": "hello", "protocol": 999, "kinds": [], "store": None}
        )
    )
    reject = read_wire_frame(reader)
    sock.close()
    assert reject["op"] == "reject"
    assert "protocol mismatch" in reject["reason"]
    # A conforming worker still completes the batch afterwards.
    workers = _start_workers(port)
    consumer.join(15)
    assert not consumer.is_alive()
    _join(workers)
    assert len(holder["batch"].records) == 1


def test_handshake_rejects_missing_kinds():
    """A worker lacking the batch's job kinds is admitted but never
    handed a job; the batch completes on a capable worker, and the
    under-equipped one is told to exit."""
    backend = RemoteBackend(port=0)
    port = backend.bind()
    holder = {}

    def consume():
        holder["batch"] = run_jobs(SPECS[:1], backend=backend)

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    reader = sock.makefile("rb")
    sock.sendall(
        encode_wire_frame(
            {
                "op": "hello",
                "protocol": PROTOCOL_VERSION,
                "kinds": ["some_other_kind"],
                "store": None,
            }
        )
    )
    assert read_wire_frame(reader)["op"] == "welcome"
    workers = _start_workers(port)
    consumer.join(15)
    assert not consumer.is_alive()
    _join(workers)
    assert len(holder["batch"].records) == 1
    ops = []
    while True:
        frame = read_wire_frame(reader)
        if frame is None:
            break
        ops.append(frame["op"])
    sock.close()
    assert "job" not in ops
    assert "exit" in ops


def test_handshake_rejects_store_mismatch(tmp_path):
    backend = RemoteBackend(port=0, store_dir=str(tmp_path / "server-store"))
    port = backend.bind()
    holder = {}

    def consume():
        holder["batch"] = run_jobs(SPECS[:1], backend=backend)

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    reader = sock.makefile("rb")
    sock.sendall(
        encode_wire_frame(
            {
                "op": "hello",
                "protocol": PROTOCOL_VERSION,
                "kinds": ["test_planarity"],
                "store": str(tmp_path / "other-store"),
            }
        )
    )
    reject = read_wire_frame(reader)
    sock.close()
    assert reject["op"] == "reject"
    assert "store mismatch" in reject["reason"]
    workers = _start_workers(port, store_dir=str(tmp_path / "server-store"))
    consumer.join(15)
    assert not consumer.is_alive()
    _join(workers)


def test_killed_worker_requeues_its_job():
    """A worker that dies mid-job never loses it: the job is requeued
    and a surviving worker completes the batch."""
    backend = RemoteBackend(port=0)
    port = backend.bind()
    got_job = threading.Event()

    def doomed_worker():
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        reader = sock.makefile("rb")
        sock.sendall(
            encode_wire_frame(
                {
                    "op": "hello",
                    "protocol": PROTOCOL_VERSION,
                    "kinds": ["test_planarity"],
                    "store": None,
                    "pid": 0,
                }
            )
        )
        assert read_wire_frame(reader)["op"] == "welcome"
        job = read_wire_frame(reader)
        assert job["op"] == "job"
        got_job.set()
        sock.close()  # die without answering: the server must requeue

    doomed = threading.Thread(target=doomed_worker, daemon=True)
    doomed.start()
    holder = {}

    def consume():
        holder["batch"] = run_jobs(SPECS, backend=backend)

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    assert got_job.wait(10), "doomed worker never received a job"
    survivors = _start_workers(port)
    consumer.join(30)
    assert not consumer.is_alive()
    _join(survivors)
    serial = run_jobs(SPECS, backend=SerialBackend())
    assert holder["batch"].records == serial.records


def test_worker_job_error_propagates():
    backend = RemoteBackend(port=0)
    port = backend.bind()
    invalid = JobSpec(
        kind="test_planarity", family="grid", n=36, seed=0,
        config=(("epsilon", -1.0),),
    )
    workers = _start_workers(port)
    with pytest.raises(RemoteWorkerError, match="failed on"):
        run_jobs([SPECS[0], invalid], backend=backend)
    _join(workers)


def test_late_worker_completes_waiting_jobs():
    """Jobs queue while no worker is connected; a late joiner drains
    them (fleet elasticity)."""
    backend = RemoteBackend(port=0)
    port = backend.bind()
    holder = {}

    def consume():
        holder["batch"] = run_jobs(SPECS[:2], backend=backend)

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    time.sleep(0.5)  # batch is underway with zero workers
    assert consumer.is_alive()
    workers = _start_workers(port)
    consumer.join(30)
    assert not consumer.is_alive()
    _join(workers)
    assert len(holder["batch"].records) == 2


def test_abort_wakes_a_blocked_stream():
    """Abandoning a batch mid-flight (ctrl-C, downstream error: the
    generator's finally calls stop) must not hang on the
    server thread even with jobs queued and zero workers connected."""
    backend = RemoteBackend(port=0)
    backend.bind()
    holder = {}

    def consume():
        holder["batch"] = run_jobs(SPECS, backend=backend)

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    time.sleep(0.5)  # blocked: jobs pending, no worker will ever join
    assert consumer.is_alive()
    backend.stop()
    consumer.join(10)
    assert not consumer.is_alive(), "abort did not wake the serve loop"
    assert len(holder["batch"].records) == 0
    # The listen socket is released for the next run.
    assert backend.bound_port is None


def test_storeless_adoption_requires_initialized_store(tmp_path):
    from repro.runtime.worker import _adopt_store

    # A path the server never initialized (no store.json): adoption
    # must fail rather than forking a fresh local store that the
    # orchestrator will never read.
    assert _adopt_store(str(tmp_path / "never-created")) is None
    # The server's bound store is adoptable once its root exists.
    backend = RemoteBackend(port=0, store_dir=str(tmp_path / "real"))
    port = backend.bind()
    workers = _start_workers(port, count=1)
    batch = run_jobs(SPECS[:1], backend=backend)
    _join(workers)
    assert len(batch.records) == 1
    assert _adopt_store(str(tmp_path / "real")) is not None


def test_server_appends_result_bytes_without_reencode(tmp_path):
    """Zero-copy pin: with storeless workers, the orchestrator appends
    each worker's result *bytes* to the store verbatim.  Workers run
    in-process here, so ``codec.STATS`` sees both sides: per job there
    is exactly one spec encode (server), one spec decode (worker), one
    record encode (worker), and one record decode (server, for the
    consumer stream).  A server that re-encoded for the store append,
    or decoded twice, breaks the exact count."""
    store_dir = tmp_path / "server-store"
    backend = RemoteBackend(port=0, store_dir=str(store_dir))
    port = backend.bind()
    cache = ResultCache(disk_dir=store_dir)  # keys ride to the server
    # Workers do NOT share the store: every result rides the wire and
    # the server persists it (stored=False) via put_raw.
    workers = _start_workers(port, count=2, store_dir=None)
    encoded_before = STATS.encoded_records
    decoded_before = STATS.decoded_records
    batch = run_jobs(SPECS, backend=backend, cache=cache)
    _join(workers)
    assert batch.executed == len(SPECS)
    assert STATS.encoded_records - encoded_before == 2 * len(SPECS)
    assert STATS.decoded_records - decoded_before == 2 * len(SPECS)
    # The spliced bytes decode back to exactly what the workers sent.
    from repro.runtime.cache import KeyDeriver
    from repro.runtime.store import ShardedStore

    store = ShardedStore(store_dir)
    deriver = KeyDeriver()
    for spec, record in zip(SPECS, batch.records):
        assert store.get(deriver.key_for(spec)) == record


def test_worker_reports_seconds_for_executed_jobs():
    backend = RemoteBackend(port=0)
    port = backend.bind()
    workers = _start_workers(port)
    seen = []
    for _index, _record, seconds in backend.run_stream(
        SPECS[:2], keys=None
    ):
        seen.append(seconds)
    _join(workers)
    assert len(seen) == 2
    assert all(value is not None and value >= 0 for value in seen)
