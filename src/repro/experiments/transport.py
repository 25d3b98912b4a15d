"""How the campaign coordinator's workers come to exist and are talked to.

The coordinator's supervisor loop
(:func:`repro.experiments.campaign._run_pool`) owns every policy — retry,
backoff, quarantine, watchdog, drain, telemetry — and knows its workers
only through two small interfaces, :class:`Transport` (how workers come
to exist) and :class:`WorkerLink` (how one is talked to):

* :class:`InlineTransport` / :class:`InlineLink` — ``jobs == 1`` without
  a watchdog: a single link whose ``send_batch`` runs the units in the
  coordinating process, so breakpoints and monkeypatches apply directly;
* :class:`PipeTransport` / :class:`PipeLink` — ``warm``: long-lived
  workers forked from the coordinator (inheriting test monkeypatches and
  chaos hooks) pull unit batches over a duplex pipe and stream one result
  message back per unit.

Transports never import the campaign module: whoever builds one hands it
the unit function (``(index, spec) -> (index, metrics, manifest)``) its
workers execute.

Determinism is untouched by construction: transports move ``RunSpec``
objects and result dicts; every seed was derived in ``plan_campaign``
before the first byte hits a pipe, so *where* a unit runs is invisible in
the campaign fingerprint.

:func:`send_frame` / :func:`recv_frame` — one length-prefixed JSON frame
over a socket, with :data:`MAX_FRAME_BYTES` and :class:`TransportError` —
no longer carry campaign traffic; they stay because the end-to-end
benchmark (``benchmarks/e2e/drivers.py``) times them, and go with it.
"""

from __future__ import annotations

import collections
import json
import multiprocessing
import os
import signal
import socket
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.ndjson import JSON_PARSE_ERRORS

#: The unit function a transport's workers run: ``(index, spec)`` in,
#: ``(index, metrics, manifest)`` out.  Handed in by whoever builds the
#: transport, so this module never imports the campaign engine.
ExecuteFn = Callable[
    [Tuple[int, Any]], Tuple[int, Dict[str, Any], Optional[Dict[str, Any]]]
]

#: Hard ceiling on one frame, so a peer writing garbage into the length
#: prefix cannot make the reader allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class TransportError(RuntimeError):
    """A peer violated the frame protocol."""


# ---------------------------------------------------------------------------
# Socket framing


def send_frame(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Write one length-prefixed JSON frame."""
    body = json.dumps(message, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    sock.sendall(struct.pack(">I", len(body)) + body)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            raise EOFError("connection closed")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Dict[str, Any]:
    """Read one length-prefixed JSON frame; EOFError on a closed peer."""
    (length,) = struct.unpack(">I", _recv_exact(sock, 4))
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    try:
        message = json.loads(_recv_exact(sock, length).decode("utf-8"))
    except JSON_PARSE_ERRORS as exc:
        raise TransportError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict) or "kind" not in message:
        raise TransportError("frame is not a kind-discriminated object")
    return message


# ---------------------------------------------------------------------------
# Worker links (what the pool loop holds per worker)


class WorkerLink:
    """One worker, whatever carries its bytes.

    The pool loop waits on :meth:`fileno`, hands out work with
    :meth:`send_batch` and folds :meth:`recv` messages.  ``pid`` names the
    worker's process on this host (the telemetry RSS gauge reads it).
    """

    pid: Optional[int] = None

    def fileno(self) -> int:
        raise NotImplementedError

    def send_batch(self, units: Sequence[Tuple[int, Any, str]]) -> None:
        """Dispatch ``[(index, spec, digest), ...]`` to the worker."""
        raise NotImplementedError

    def recv(self) -> Tuple[Any, ...]:
        """Next result message: ``("ok", index, metrics, manifest)`` or
        ``("err", index, error)``.  Raises ``EOFError``/``OSError`` when
        the link is dead."""
        raise NotImplementedError

    def reap(self) -> None:
        """Clean up after a link that died on its own (EOF observed)."""
        raise NotImplementedError

    def kill(self) -> None:
        """Forcibly sever the link (watchdog timeout)."""
        raise NotImplementedError

    def stop(self) -> None:
        """Orderly shutdown: tell the worker to exit, release resources."""
        raise NotImplementedError

    @property
    def exitcode(self) -> Optional[int]:
        return None


def _error_text(exc: BaseException) -> str:
    """How a unit's exception travels in an ``err`` reply."""
    return f"{type(exc).__name__}: {exc}"


class InlineLink(WorkerLink):
    """The coordinating process itself, dressed as a worker.

    :meth:`send_batch` runs the units on the spot and buffers one reply
    per unit; a self-pipe carries one byte per buffered reply so the pool
    loop finds the link readable through the same :meth:`fileno` contract
    as a pipe.  There is no process to kill, so the watchdog has nothing
    to act on: by the time the loop looks, the reply is waiting.
    """

    def __init__(self, execute: ExecuteFn) -> None:
        self.pid = os.getpid()
        self._execute = execute
        self._replies: collections.deque = collections.deque()
        self._rfd, self._wfd = os.pipe()

    def fileno(self) -> int:
        return self._rfd

    def send_batch(self, units: Sequence[Tuple[int, Any, str]]) -> None:
        for index, spec, _ in units:
            try:
                reply = ("ok", *self._execute((index, spec)))
            except Exception as exc:  # not BaseException: Ctrl-C propagates
                reply = ("err", index, _error_text(exc))
            self._replies.append(reply)
            os.write(self._wfd, b"\0")

    def recv(self) -> Tuple[Any, ...]:
        os.read(self._rfd, 1)
        return self._replies.popleft()

    def reap(self) -> None:
        pass

    def kill(self) -> None:
        pass

    def stop(self) -> None:
        os.close(self._rfd)
        os.close(self._wfd)


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork (where available) starts workers in milliseconds; results do not
    # depend on the start method because every run re-derives its RNG state
    # from the spec alone.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _reset_worker_signals() -> None:
    """Detach a forked worker from the coordinator's signal handlers.

    Workers inherit signal dispositions across ``fork``; an inherited
    graceful-shutdown handler would make SIGTERM a no-op in the child and
    push every drain onto the slow KILL escalation path.  SIGINT is
    ignored (the terminal delivers ^C to the whole foreground group, but
    shutdown is the coordinator's call to make); SIGTERM is restored to
    its default so ``process.terminate()`` works.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - non-POSIX
        pass


def _pipe_worker_main(conn, execute: ExecuteFn,
                      coordinator_ends: Sequence[Any]) -> None:
    """Forked worker loop, the far end of a :class:`PipeLink`.

    Pulls ``("batch", [(index, spec), ...])`` messages until ``("stop",)``
    or EOF.  One ``("ok", index, metrics, manifest)`` or ``("err", index,
    message)`` reply is sent per unit *as it completes*, so the supervisor
    can reset its per-unit watchdog between units of the same batch and
    attribute a crash to exactly the unit that was executing.

    ``coordinator_ends`` are the coordinator's ends of this worker's pipe
    and of its live siblings', copied in by the fork.  They are closed
    first: while any copy stays open the worker's pipe never reaches EOF,
    and a worker of a killed coordinator would wait in ``recv`` forever.
    """
    _reset_worker_signals()
    for end in coordinator_ends:
        end.close()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] != "batch":  # ("stop",) — orderly shutdown
            break
        for index, spec in message[1]:
            try:
                reply = ("ok", *execute((index, spec)))
            except BaseException as exc:  # a worker must never die silently
                reply = ("err", index, _error_text(exc))
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
                return
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


# eq=False keeps identity hashing: the pool loop uses links as dict keys
# and in ``multiprocessing.connection.wait`` sets.
@dataclass(eq=False)
class PipeLink(WorkerLink):
    """A worker forked from the coordinator, attached by a duplex pipe."""

    process: Any = None
    conn: Any = None

    def __post_init__(self) -> None:
        self.pid = self.process.pid if self.process is not None else None

    def fileno(self) -> int:
        return self.conn.fileno()

    def send_batch(self, units: Sequence[Tuple[int, Any, str]]) -> None:
        self.conn.send(("batch", [(index, spec) for index, spec, _ in units]))

    def recv(self) -> Tuple[Any, ...]:
        return self.conn.recv()

    def reap(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        self.process.join()

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        self.process.terminate()
        self.process.join(timeout=1.0)
        if self.process.is_alive():  # pragma: no cover - SIGTERM ignored
            self.process.kill()
            self.process.join()

    def stop(self) -> None:
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        self.process.join(timeout=1.0)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=1.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join()

    @property
    def exitcode(self) -> Optional[int]:
        return self.process.exitcode


# ---------------------------------------------------------------------------
# Transports (how the pool loop obtains links)


class Transport:
    """Factory of :class:`WorkerLink` for one campaign's pool."""

    #: Units handed to one worker per dispatch (the work-stealing grain).
    prefetch: int = 1
    #: Whether the pool may call :meth:`spawn` to add workers itself.
    can_spawn: bool = False

    def spawn(self) -> WorkerLink:
        """Start one worker and return its link."""
        raise NotImplementedError


class InlineTransport(Transport):
    """No workers at all: one :class:`InlineLink` runs every unit in the
    coordinating process (a local campaign with ``jobs == 1`` and no
    watchdog)."""

    def __init__(self, execute: ExecuteFn) -> None:
        self._execute = execute
        self._spawned = False

    @property
    def can_spawn(self) -> bool:  # one process, one link
        return not self._spawned

    def spawn(self) -> WorkerLink:
        self._spawned = True
        return InlineLink(self._execute)


class PipeTransport(Transport):
    """The local pool: fork workers, speak over duplex pipes.

    Forking from the coordinator is a feature, not an implementation
    detail: workers inherit monkeypatches (the robustness tests patch
    the unit function) and the chaos hooks' environment.  The transport
    keeps the coordinator's end of every live pipe so each new fork can
    close its copies of them (see :func:`_pipe_worker_main`).
    """

    can_spawn = True
    #: Small enough that a late straggler batch cannot serialise the tail
    #: of a campaign, large enough to amortise the pipe round-trip on tiny
    #: units.
    prefetch = 4

    def __init__(self, execute: ExecuteFn) -> None:
        self._execute = execute
        self._coordinator_ends: List[Any] = []

    def spawn(self) -> WorkerLink:
        ctx = _pool_context()
        parent, child = ctx.Pipe(duplex=True)
        self._coordinator_ends = [
            end for end in self._coordinator_ends if not end.closed
        ] + [parent]
        process = ctx.Process(
            target=_pipe_worker_main,
            args=(child, self._execute, self._coordinator_ends), daemon=True,
        )
        process.start()
        child.close()
        return PipeLink(process=process, conn=parent)


__all__ = [
    "InlineLink",
    "InlineTransport",
    "MAX_FRAME_BYTES",
    "PipeLink",
    "PipeTransport",
    "Transport",
    "TransportError",
    "WorkerLink",
    "recv_frame",
    "send_frame",
]
