"""Unit tests for the worker transports.

Covers the length-prefixed JSON framing in isolation and the local links
(inline, pipe) one batch at a time, without running any campaign.  The
supervisor loop over scripted links lives in ``test_supervisor_loop.py``.
"""

import multiprocessing.connection
import os
import socket
import struct
import sys

import pytest

from repro.experiments.transport import (
    MAX_FRAME_BYTES,
    InlineTransport,
    PipeTransport,
    TransportError,
    recv_frame,
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
    link = InlineTransport(tag_pid).spawn()
    try:
        assert not readable(link)
        link.send_batch([(0, "run", "d0"), (1, "raise", "d1")])
        assert readable(link)
        assert link.recv() == ("ok", 0, {"pid": os.getpid()}, None)
        assert link.recv() == ("err", 1, "RuntimeError: unit defect")
        assert not readable(link)
        assert link.pid == os.getpid()
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
