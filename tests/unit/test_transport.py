"""Unit tests for the worker transports.

Covers the TCP wire layer in isolation — length-prefixed JSON framing,
endpoint parsing, the hello/welcome handshake with its version gates, and
the liveness registry files the doctor later hunts — and the local links
(inline, pipe) one batch at a time, without running any campaign.  The
end-to-end cluster behaviour (byte-identity, disconnect requeue, work
stealing) lives in ``tests/integration/test_cluster.py``; the supervisor
loop over scripted links in ``test_supervisor_loop.py``.
"""

import json
import multiprocessing.connection
import os
import socket
import struct
import sys
import threading

import pytest

from repro.experiments import CampaignCache, RunSpec, ScenarioConfig
from repro.experiments.config import CACHE_SCHEMA_VERSION
from repro.obs.provenance import stable_digest
from repro.experiments.transport import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    InlineTransport,
    PipeTransport,
    TcpTransport,
    TransportError,
    _connect_with_retry,
    parse_endpoint,
    recv_frame,
    run_worker_agent,
    send_frame,
)


# ---------------------------------------------------------------------------
# framing


def socket_pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


def test_frames_roundtrip_in_order():
    a, b = socket_pair()
    try:
        messages = [
            {"kind": "hello", "host": "nodeb", "pid": 42},
            {"kind": "batch", "units": [{"index": 0, "spec": {"x": 1}}]},
            {"kind": "ok", "index": 0, "metrics": {"goodput": 1.5},
             "manifest": None},
        ]
        for message in messages:
            send_frame(a, message)
        for message in messages:
            assert recv_frame(b) == message
    finally:
        a.close()
        b.close()


def test_closed_peer_raises_eof():
    a, b = socket_pair()
    a.close()
    try:
        with pytest.raises(EOFError):
            recv_frame(b)
    finally:
        b.close()


def test_mid_frame_close_raises_eof():
    """A peer dying after the length prefix is EOF, not a hang or garbage."""
    a, b = socket_pair()
    try:
        a.sendall(struct.pack(">I", 100) + b'{"kind"')
        a.close()
        with pytest.raises(EOFError):
            recv_frame(b)
    finally:
        b.close()


def test_oversized_length_prefix_is_rejected_before_allocation():
    a, b = socket_pair()
    try:
        a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(TransportError, match="exceeds"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def send_raw(sock, body):
    """One frame of bytes ``send_frame`` would never produce."""
    sock.sendall(struct.pack(">I", len(body)) + body)


#: Two frames the stdlib parser refuses with something other than a
#: ``JSONDecodeError``: a ``RecursionError``, and (where the interpreter
#: limits int <-> str conversion) a plain ``ValueError``.
DEEP_FRAME = b'{"kind":"ok","index":0,"metrics":' + b"[" * 50000 + \
    b"]" * 50000 + b"}"
DIGITS_FRAME = b'{"kind":"ok","index":' + b"7" * 5000 + b',"metrics":{}}'
needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter parses integers of any length")


@pytest.mark.parametrize("body", [
    b"\xff\xfe not json at all",     # undecodable bytes
    b'"just a string"',              # JSON, but not an object
    b'{"no": "kind field"}',         # object without the discriminator
    pytest.param(DEEP_FRAME, id="deep-nesting"),
    pytest.param(DIGITS_FRAME, id="5000-digit-index",
                 marks=needs_digit_limit),
])
def test_garbage_frames_raise_transport_error(body):
    a, b = socket_pair()
    try:
        send_raw(a, body)
        with pytest.raises(TransportError):
            recv_frame(b)
    finally:
        a.close()
        b.close()


# ---------------------------------------------------------------------------
# endpoints


def test_parse_endpoint_accepts_host_port():
    assert parse_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert parse_endpoint("nodeb.example:80") == ("nodeb.example", 80)
    # rpartition: everything before the last colon is the host.
    assert parse_endpoint("fe80::1:8080") == ("fe80::1", 8080)


@pytest.mark.parametrize("text", ["9000", ":9000", "host:", "host:abc"])
def test_parse_endpoint_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        parse_endpoint(text)


# ---------------------------------------------------------------------------
# handshake


@pytest.fixture()
def listening_transport():
    transport = TcpTransport(spawn_agents=False, cache_spec="/shared/cache")
    assert transport.open()
    yield transport
    transport.close()


def dial(transport):
    sock = socket.create_connection(
        parse_endpoint(transport.endpoint), timeout=5.0
    )
    sock.settimeout(5.0)
    return sock


def hello(**overrides):
    message = {
        "kind": "hello", "host": "nodeb", "pid": 4242,
        "wire": WIRE_VERSION, "schema": CACHE_SCHEMA_VERSION,
    }
    message.update(overrides)
    return message


def test_handshake_welcomes_a_matching_agent(listening_transport):
    sock = dial(listening_transport)
    try:
        send_frame(sock, hello())
        links = listening_transport.accept()
        assert len(links) == 1
        link = links[0]
        assert link.remote
        assert link.host == "nodeb"
        assert link.pid == 4242
        assert not link.pid_is_local  # "nodeb" is not this host
        welcome = recv_frame(sock)
        assert welcome == {"kind": "welcome", "cache": "/shared/cache"}
        link.stop()
    finally:
        sock.close()


@pytest.mark.parametrize("bad,expect", [
    ({"wire": WIRE_VERSION + 1}, "wire version"),
    ({"schema": -1}, "cache schema"),
])
def test_handshake_rejects_mismatched_builds(listening_transport, bad, expect):
    sock = dial(listening_transport)
    try:
        send_frame(sock, hello(**bad))
        assert listening_transport.accept() == []
        reply = recv_frame(sock)
        assert reply["kind"] == "reject"
        assert expect in reply["reason"]
    finally:
        sock.close()


def test_both_ends_of_an_agent_connection_disable_nagle(listening_transport):
    """Small batch/ok frames must not wait out the peer's delayed ACK."""
    sock = _connect_with_retry(listening_transport.endpoint, retry=1.0)
    try:
        send_frame(sock, hello())
        (link,) = listening_transport.accept()
        for end in (sock, link.sock):
            assert end.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        link.stop()
    finally:
        sock.close()


def test_handshake_drops_silent_probes(listening_transport):
    """A connect-and-close (doctor's liveness probe) is not a worker."""
    sock = dial(listening_transport)
    sock.close()
    assert listening_transport.accept() == []


@pytest.mark.parametrize("reply, why", [
    ({"kind": "ok"}, "'index'"),
    ({"kind": "ok", "index": "x", "metrics": {}}, "'index'"),
    ({"kind": "ok", "index": True, "metrics": {}}, "'index'"),
    ({"kind": "ok", "index": 0, "metrics": [1, 2]}, "'metrics'"),
    ({"kind": "hit", "index": 0, "metrics": {}, "manifest": "m"}, "'manifest'"),
    ({"kind": "err", "index": 0}, "'error'"),
    ({"kind": "err", "index": 0.5, "error": "boom"}, "'index'"),
    ({"kind": ["ok"], "index": 0, "metrics": {}}, "unexpected frame kind"),
    ({"kind": "welcome"}, "unexpected frame kind"),
    pytest.param(DEEP_FRAME, "undecodable frame", id="deep-nesting"),
    pytest.param(DIGITS_FRAME, "undecodable frame", id="5000-digit-index",
                 marks=needs_digit_limit),
])
def test_a_fake_agents_malformed_reply_fails_validation(
        listening_transport, reply, why):
    """The module's promise: "a malicious frame can at worst fail
    validation".  Before ``recv`` checked its fields these were a
    ``KeyError``/``ValueError`` in the coordinator, or (``metrics`` a list)
    a result on its way into the cache; the two raw frames were a
    ``RecursionError``/``ValueError`` out of ``recv_frame`` that no
    ``except`` of the pool loop names, ending the campaign."""
    sock = dial(listening_transport)
    try:
        send_frame(sock, hello())
        (link,) = listening_transport.accept()
        assert recv_frame(sock)["kind"] == "welcome"
        if isinstance(reply, bytes):
            send_raw(sock, reply)
        else:
            send_frame(sock, reply)
        with pytest.raises(TransportError, match=why):
            link.recv()
        # What a real agent sends still comes through, field for field.
        send_frame(sock, {"kind": "ok", "index": 3, "metrics": {"a": 1}})
        assert link.recv() == ("ok", 3, {"a": 1}, None)
        send_frame(sock, {"kind": "err", "index": 4, "error": "E: x"})
        assert link.recv() == ("err", 4, "E: x")
        link.stop()
    finally:
        sock.close()


SNAPSHOT = {"counters": {"mac.tx": 7}, "gauges": {}}


def test_recv_completes_a_manifest_sent_without_its_snapshot(
        listening_transport):
    sock = dial(listening_transport)
    try:
        send_frame(sock, hello())
        (link,) = listening_transport.accept()
        send_frame(sock, {"kind": "ok", "index": 0,
                          "metrics": {"flows": [], "metrics": SNAPSHOT},
                          "manifest": {"seed": 1}})
        _, _, metrics, manifest = link.recv()
        assert manifest == {"seed": 1, "metrics": SNAPSHOT}
        assert manifest["metrics"] is metrics["metrics"]
        # An agent of an earlier build sends the snapshot twice: untouched.
        full = {"seed": 1, "metrics": {"counters": {}}}
        send_frame(sock, {"kind": "hit", "index": 1,
                          "metrics": {"flows": [], "metrics": SNAPSHOT},
                          "manifest": full})
        assert link.recv()[3] == full
        link.stop()
    finally:
        sock.close()


def test_an_agents_reply_frames_carry_the_snapshot_once(tmp_path):
    """``ok`` from an execution (one object: the `is` branch) and ``hit``
    from a cache entry of the earlier layout (two equal objects: `==`)."""
    result = {"flows": [], "metrics": SNAPSHOT}
    manifest = {"seed": 1, "metrics": SNAPSHOT}
    cached = {"result": result, "manifest": json.loads(json.dumps(manifest))}
    store = CampaignCache(tmp_path / "cache")
    entry = store._path("ab" + "0" * 62)
    entry.parent.mkdir(parents=True)
    entry.write_text(json.dumps(
        {**cached, "checksum": stable_digest(
            {"manifest": cached["manifest"], "result": result})}))
    spec = RunSpec(kind="chain", hops=2, variants=("newreno",),
                   config=ScenarioConfig(sim_time=0.5))

    listener = socket.create_server(("127.0.0.1", 0))
    endpoint = "127.0.0.1:%d" % listener.getsockname()[1]
    agent = threading.Thread(target=run_worker_agent, kwargs={
        "connect": endpoint, "cache": str(store.root),
        "execute": lambda unit: (unit[0], result, manifest),
    })
    agent.start()
    sock, _ = listener.accept()
    sock.settimeout(5.0)
    try:
        assert recv_frame(sock)["kind"] == "hello"
        send_frame(sock, {"kind": "welcome", "cache": None})
        send_frame(sock, {"kind": "batch", "units": [
            {"index": 0, "spec": spec.to_dict(), "digest": "cd" + "1" * 62},
            {"index": 1, "spec": spec.to_dict(), "digest": entry.stem},
        ]})
        for kind in ("ok", "hit"):
            (length,) = struct.unpack(">I", sock.recv(4))
            body = sock.recv(length)
            assert body.count(b'"counters":') == 1
            reply = json.loads(body)
            assert reply["kind"] == kind and reply["metrics"] == result
            assert reply["manifest"] == {"seed": 1}
        assert "metrics" in manifest  # the agent's own objects are whole
        send_frame(sock, {"kind": "stop"})
    finally:
        sock.close()
        listener.close()
        agent.join(timeout=5.0)
    assert not agent.is_alive()


def test_open_is_idempotent_and_reports_ownership():
    transport = TcpTransport(spawn_agents=False)
    try:
        assert transport.open() is True
        endpoint = transport.endpoint
        assert transport.open() is False  # second open: not the owner
        assert transport.endpoint == endpoint
    finally:
        transport.close()


# ---------------------------------------------------------------------------
# liveness registry


def test_registry_files_appear_on_open_and_vanish_on_close(tmp_path):
    registry = tmp_path / ".cluster"
    transport = TcpTransport(spawn_agents=False, registry=registry)
    assert transport.open()
    files = list(registry.glob("*.json"))
    assert len(files) == 1
    record = json.loads(files[0].read_text())
    assert record["kind"] == "coordinator"
    assert record["endpoint"] == transport.endpoint
    assert record["host"] == socket.gethostname()

    sock = dial(transport)
    try:
        send_frame(sock, hello())
        (link,) = transport.accept()
        names = {json.loads(p.read_text())["kind"]
                 for p in registry.glob("*.json")}
        assert names == {"coordinator", "worker"}
        link.stop()
    finally:
        sock.close()

    transport.close()
    assert list(registry.glob("*.json")) == []


# ---------------------------------------------------------------------------
# local links: inline and pipe


def readable(link):
    return bool(multiprocessing.connection.wait([link], timeout=0))


def tag_pid(args):
    index, spec = args
    if spec == "raise":
        raise RuntimeError("unit defect")
    if spec == "interrupt":
        raise KeyboardInterrupt
    return index, {"pid": os.getpid()}, None


def test_inline_link_runs_units_in_this_process_and_buffers_replies():
    transport = InlineTransport(tag_pid)
    assert transport.can_spawn
    link = transport.spawn()
    assert not transport.can_spawn  # one process, one link
    try:
        assert not readable(link)
        link.send_batch([(0, "run", "d0"), (1, "raise", "d1")])
        assert readable(link)
        assert link.recv() == ("ok", 0, {"pid": os.getpid()}, None)
        assert link.recv() == ("err", 1, "RuntimeError: unit defect")
        assert not readable(link)
        assert not link.remote
    finally:
        link.stop()


def test_inline_link_lets_ctrl_c_through():
    link = InlineTransport(tag_pid).spawn()
    try:
        with pytest.raises(KeyboardInterrupt):
            link.send_batch([(0, "interrupt", "d0")])
    finally:
        link.stop()


def test_pipe_link_runs_units_in_a_fork():
    link = PipeTransport(tag_pid).spawn()
    try:
        link.send_batch([(0, "run", "d0"), (1, "raise", "d1")])
        kind, index, metrics, _ = link.recv()
        assert (kind, index) == ("ok", 0)
        assert metrics["pid"] == link.pid != os.getpid()
        assert link.recv() == ("err", 1, "RuntimeError: unit defect")
    finally:
        link.stop()
    assert link.exitcode == 0


def test_a_pipe_worker_sees_eof_while_a_younger_sibling_lives():
    """Every fork closes its copies of the coordinator's pipe ends — its own
    and its older siblings' — so closing a link's end is EOF for its
    worker even though a sibling was forked after it."""
    transport = PipeTransport(tag_pid)
    first, second = transport.spawn(), transport.spawn()
    try:
        first.conn.close()
        first.process.join(timeout=5.0)
        assert first.exitcode == 0
    finally:
        first.kill()
        second.stop()
