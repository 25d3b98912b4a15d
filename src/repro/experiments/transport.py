"""Pluggable worker transports for the campaign coordinator.

The coordinator's supervisor loop
(:func:`repro.experiments.campaign._run_pool`) owns every policy — retry,
backoff, quarantine, watchdog, drain, telemetry — and knows its workers
only through two small interfaces, :class:`Transport` (how workers come
to exist) and :class:`WorkerLink` (how one is talked to).  Every
``pool_mode`` is a transport:

* :class:`InlineTransport` / :class:`InlineLink` — ``inproc``: a single
  link whose ``send_batch`` runs the units in the coordinating process,
  so breakpoints and monkeypatches apply directly;
* :class:`PipeTransport` / :class:`PipeLink` — ``warm`` and
  ``per-attempt``: workers forked from the coordinator (inheriting test
  monkeypatches and chaos hooks) pull unit batches over a duplex pipe and
  stream one result message back per unit.  ``single_use`` links report
  themselves spent after their first batch, so with ``prefetch = 1`` every
  attempt runs in a pristine fork;
* :class:`TcpTransport` / :class:`SocketLink` — ``cluster``:
  length-prefixed JSON frames over TCP.  Worker *agents* (``repro-muzha
  worker --connect HOST:PORT``) — on other hosts, or extra local
  processes — dial the coordinator's listener, handshake (wire +
  cache-schema version check), and then speak the same batch/result
  protocol.  Agents may join *late*: the pool folds every new connection
  into its work-stealing dispatch, so a worker that appears mid-campaign
  immediately starts pulling units from the shared queue.  The
  coordinator can also self-spawn local agents (``agents``/
  ``spawn_agents``), which is how ``--pool-mode cluster`` works out of
  the box on one machine.

Transports never import the campaign module: whoever builds one hands it
the unit function (``(index, spec) -> (index, metrics, manifest)``) its
workers execute.

Determinism is untouched by construction: transports move ``RunSpec``
payloads and result dicts; every seed was derived in ``plan_campaign``
before the first byte hits a pipe or socket, so *where* a unit runs is
invisible in the campaign fingerprint.

Wire format (TCP): every frame is a 4-byte big-endian length followed by
that many bytes of UTF-8 JSON.  JSON rather than pickle keeps the
protocol inspectable, language-agnostic and safe to expose on a LAN
listener — a malicious frame can at worst fail validation: bytes the JSON
parser refuses, for whatever reason (``obs.ndjson.JSON_PARSE_ERRORS``), and
reply fields of the wrong type are a :class:`TransportError`, which severs
that link and nothing else.  Specs cross the wire via
``RunSpec.to_dict``/``from_dict``.

Messages (``kind`` discriminated):

* agent → coordinator: ``hello {host, pid, wire, schema}``; per-unit
  ``ok {index, metrics, manifest}`` / ``hit {…}`` (served from the shared
  cache store) / ``err {index, error}``.  ``metrics`` is the run's result
  dict and carries the metrics snapshot under its own ``metrics`` key; the
  ``manifest`` of an ``ok``/``hit`` is sent *without* its ``metrics`` when
  that is the same snapshot (``cachestore.elide_snapshot`` — 45 % of the
  frame otherwise) and :meth:`SocketLink.recv` puts it back as the same
  object (``share_snapshot``), so the coordinator holds what a pipe would
  have delivered.  A manifest that arrives with its own ``metrics`` (an
  agent of an earlier build) is left as sent; the frame shapes and
  :data:`WIRE_VERSION` are unchanged;
* coordinator → agent: ``welcome {cache}`` or ``reject {reason}``;
  ``batch {units: [{index, spec, digest}]}``; ``stop {}``.

A shared :class:`~repro.experiments.cachestore.CacheStore` spec rides in
the welcome: agents check it before executing a unit, so shards that
already computed a digest (another campaign, another generation) answer
from the store instead of re-simulating.
"""

from __future__ import annotations

import collections
import json
import multiprocessing
import os
import signal
import socket
import struct
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..obs.ndjson import JSON_PARSE_ERRORS
from .cachestore import (
    CLUSTER_REGISTRY_DIRNAME, elide_snapshot, make_store, share_snapshot,
)
from .config import CACHE_SCHEMA_VERSION
from .runner import RunSpec

PathLike = Union[str, Path]

#: The unit function a transport's workers run: ``(index, spec)`` in,
#: ``(index, metrics, manifest)`` out.  Handed in by whoever builds the
#: transport, so this module never imports the campaign engine.
ExecuteFn = Callable[
    [Tuple[int, Any]], Tuple[int, Dict[str, Any], Optional[Dict[str, Any]]]
]

#: Bump when the TCP frame shapes change incompatibly; agents and
#: coordinators refuse to pair across versions at handshake time.
WIRE_VERSION = 1

#: Hard ceiling on one frame, so a stray connection writing garbage into
#: the length prefix cannot make the coordinator allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Per-socket I/O timeout: a peer that stalls mid-frame longer than this
#: is treated as dead (the unit requeues; see the pool loop).
SOCKET_TIMEOUT = 30.0

#: How long the coordinator waits for a dialing agent's hello before
#: dropping the connection (liveness probes connect and send nothing).
HANDSHAKE_TIMEOUT = 2.0

#: Names of the transports (``Transport.name``).
TRANSPORTS = ("inline", "pipe", "tcp")


class TransportError(RuntimeError):
    """A transport link violated the wire protocol (treated as link death)."""


# ---------------------------------------------------------------------------
# TCP framing


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


def parse_endpoint(text: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` with a clear error."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"endpoint must be HOST:PORT, got {text!r}")
    return host, int(port)


# ---------------------------------------------------------------------------
# Worker links (what the pool loop holds per connected worker)


class WorkerLink:
    """One connected worker, whatever carries its bytes.

    The pool loop waits on :meth:`fileno`, hands out work with
    :meth:`send_batch`, folds :meth:`recv` messages, and distinguishes
    *remote* links (``remote=True``: a dead connection requeues its units
    un-charged — the work may still be fine, only the wire died) from
    local forked workers (a dead pipe means the process crashed on the
    unit it was executing, which is charged exactly as PR 5 did).
    """

    host: Optional[str] = None
    pid: Optional[int] = None
    remote: bool = False
    #: Whether ``pid`` names a process on *this* host (safe for /proc RSS).
    pid_is_local: bool = False
    #: True once the link will accept no further batch: the pool loop stops
    #: it (orderly, not a failure) as soon as its current batch resolves.
    spent: bool = False

    def fileno(self) -> int:
        raise NotImplementedError

    def send_batch(self, units: Sequence[Tuple[int, Any, str]]) -> None:
        """Dispatch ``[(index, spec, digest), ...]`` to the worker."""
        raise NotImplementedError

    def recv(self) -> Tuple[Any, ...]:
        """Next result message: ``("ok"|"hit", index, metrics, manifest)``
        or ``("err", index, error)``.  Raises ``EOFError``/``OSError``/
        :class:`TransportError` when the link is dead."""
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

    def describe(self) -> str:
        return f"{type(self).__name__}(host={self.host}, pid={self.pid})"


def _error_text(exc: BaseException) -> str:
    """How a unit's exception travels in an ``err`` reply."""
    return f"{type(exc).__name__}: {exc}"


class InlineLink(WorkerLink):
    """The coordinating process itself, dressed as a worker.

    :meth:`send_batch` runs the units on the spot and buffers one reply
    per unit; a self-pipe carries one byte per buffered reply so the pool
    loop finds the link readable through the same :meth:`fileno` contract
    as a pipe or socket.  There is no process to kill, so the watchdog has
    nothing to act on: by the time the loop looks, the reply is waiting.
    """

    pid_is_local = True

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


def _pipe_worker_main(conn, execute: ExecuteFn) -> None:
    """Forked worker loop, the far end of a :class:`PipeLink`.

    Pulls ``("batch", [(index, spec), ...])`` messages until ``("stop",)``
    or EOF.  One ``("ok", index, metrics, manifest)`` or ``("err", index,
    message)`` reply is sent per unit *as it completes*, so the supervisor
    can reset its per-unit watchdog between units of the same batch and
    attribute a crash to exactly the unit that was executing.
    """
    _reset_worker_signals()
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
    #: Spent after its first batch (the ``per-attempt`` backend).
    single_use: bool = False

    def __post_init__(self) -> None:
        self.host = None
        self.pid = self.process.pid if self.process is not None else None
        self.remote = False
        self.pid_is_local = True

    def fileno(self) -> int:
        return self.conn.fileno()

    def send_batch(self, units: Sequence[Tuple[int, Any, str]]) -> None:
        self.conn.send(("batch", [(index, spec) for index, spec, _ in units]))
        self.spent = self.single_use

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


def _set_nodelay(sock: socket.socket) -> None:
    """Disable Nagle on a coordinator<->agent connection.

    The protocol is a ping-pong of small ``batch``/``ok`` frames; with
    Nagle on, each one waits out the peer's delayed ACK (~40 ms).
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


_RESULT_FIELDS = (("index", (int,)), ("metrics", (dict,)),
                  ("manifest", (dict, type(None))))

#: Per reply kind, the fields of the message :meth:`WorkerLink.recv` returns,
#: in order, with the JSON types each may hold: an agent is another host, and
#: nothing it sends is trusted further than this.
_REPLY_FIELDS = {
    "ok": _RESULT_FIELDS,
    "hit": _RESULT_FIELDS,
    "err": (("index", (int,)), ("error", (str,))),
}


@dataclass(eq=False)
class SocketLink(WorkerLink):
    """A remote worker agent attached over TCP (length-prefixed JSON)."""

    sock: Any = None
    agent_host: Optional[str] = None
    agent_pid: Optional[int] = None
    local: bool = False

    def __post_init__(self) -> None:
        self.host = self.agent_host
        self.pid = self.agent_pid
        self.remote = True
        self.pid_is_local = self.local
        if self.sock is not None:
            self.sock.settimeout(SOCKET_TIMEOUT)

    def fileno(self) -> int:
        return self.sock.fileno()

    def send_batch(self, units: Sequence[Tuple[int, Any, str]]) -> None:
        send_frame(self.sock, {
            "kind": "batch",
            "units": [
                {"index": index, "spec": spec.to_dict(), "digest": digest}
                for index, spec, digest in units
            ],
        })

    def recv(self) -> Tuple[Any, ...]:
        try:
            message = recv_frame(self.sock)
        except socket.timeout:
            raise TransportError(
                f"agent {self.host}:{self.pid} stalled mid-frame "
                f"(> {SOCKET_TIMEOUT:g}s)"
            )
        kind = message["kind"]
        fields = _REPLY_FIELDS.get(kind) if isinstance(kind, str) else None
        if fields is None:
            raise TransportError(f"unexpected frame kind {kind!r} from agent")
        for name, types in fields:
            if type(message.get(name)) not in types:
                raise TransportError(
                    f"{kind} frame from agent {self.host}:{self.pid} has a "
                    f"missing or mistyped {name!r}"
                )
        if kind != "err":  # the agent sent the snapshot once, in the result
            share_snapshot(message["metrics"], message.get("manifest"))
        return (kind, *(message.get(name) for name, _ in fields))

    def reap(self) -> None:
        self._close()

    def kill(self) -> None:
        self._close()

    def stop(self) -> None:
        try:
            send_frame(self.sock, {"kind": "stop"})
        except OSError:
            pass
        self._close()

    def _close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass

    def describe(self) -> str:
        return f"agent {self.agent_host}:{self.agent_pid}"


# ---------------------------------------------------------------------------
# Transports (how the pool loop obtains links)


class Transport:
    """Factory/acceptor of :class:`WorkerLink` for one campaign's pool."""

    name: str = "?"
    #: Units handed to one worker per dispatch (the work-stealing grain).
    prefetch: int = 1
    #: Whether the pool may call :meth:`spawn` to add workers itself.
    can_spawn: bool = False

    def open(self) -> bool:
        """Make the transport ready; True iff this call transitioned it."""
        return False

    def spawn(self) -> Optional[WorkerLink]:
        """Start one worker.  Returns its link when it attaches
        synchronously (pipes), or None when it will join later through
        :meth:`accept` (TCP agents)."""
        raise NotImplementedError

    @property
    def pending_spawns(self) -> int:
        """Spawned workers that have not joined (and not died) yet."""
        return 0

    def accept(self) -> List[WorkerLink]:
        """Newly joined workers (non-blocking)."""
        return []

    @property
    def waitables(self) -> List[Any]:
        """Extra objects for the pool's ``connection.wait`` set."""
        return []

    def close(self) -> None:
        pass

    def info(self) -> Dict[str, Any]:
        """Plain-data description for the journal/telemetry."""
        return {"kind": self.name}


class InlineTransport(Transport):
    """No workers at all: one :class:`InlineLink` runs every unit in the
    coordinating process (``inproc``, and any single-job local campaign
    without a watchdog)."""

    name = "inline"

    def __init__(self, execute: ExecuteFn) -> None:
        self._execute = execute
        self._spawned = False

    @property
    def can_spawn(self) -> bool:  # one process, one link
        return not self._spawned

    def spawn(self) -> Optional[WorkerLink]:
        self._spawned = True
        return InlineLink(self._execute)


class PipeTransport(Transport):
    """The local pool: fork workers, speak over duplex pipes.

    Forking from the coordinator is a feature, not an implementation
    detail: workers inherit monkeypatches (the robustness tests patch
    the unit function) and the chaos hooks' environment.  ``prefetch``
    units ride in one dispatch; ``single_use`` workers are retired after
    their first batch and a fresh fork takes the next one.
    """

    name = "pipe"
    can_spawn = True

    def __init__(self, execute: ExecuteFn, prefetch: int = 1,
                 single_use: bool = False) -> None:
        self._execute = execute
        self.prefetch = prefetch
        self._single_use = single_use

    def spawn(self) -> Optional[WorkerLink]:
        ctx = _pool_context()
        parent, child = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_pipe_worker_main, args=(child, self._execute), daemon=True
        )
        process.start()
        child.close()
        return PipeLink(process=process, conn=parent,
                        single_use=self._single_use)


@dataclass
class _AgentProc:
    """One coordinator-spawned local worker agent subprocess."""

    proc: Any
    joined: bool = False


class TcpTransport(Transport):
    """Length-prefixed-JSON TCP transport with late-joining worker agents.

    ``listen`` is the ``(host, port)`` to bind (port 0 picks a free one;
    :attr:`endpoint` reports the bound address).  With ``spawn_agents``
    (the default) the pool keeps itself at strength by launching local
    ``repro-muzha worker`` subprocesses; with ``spawn_agents=False`` the
    coordinator only waits for external agents to dial in.  ``cache_spec``
    (a :meth:`~repro.experiments.cachestore.CacheStore.describe` string)
    is offered to agents in the welcome so every shard shares one store —
    note a plain directory path only makes sense for same-host agents;
    use an ``http://`` store (:class:`~repro.experiments.cachestore.
    CacheServer`) across hosts.

    ``registry`` names a directory (conventionally
    ``<cache>/.cluster``) where the transport records coordinator/worker
    liveness files; they are removed on a clean :meth:`close`, so
    leftovers are exactly what ``repro-muzha doctor`` hunts as stale
    cluster artifacts.
    """

    name = "tcp"
    #: Smaller than the pipe pool's batch cap: remote agents keep at most
    #: a couple of units in flight, so a dead connection strands little
    #: and slow agents cannot hoard the tail of a campaign.
    prefetch = 2

    def __init__(
        self,
        listen: Tuple[str, int] = ("127.0.0.1", 0),
        spawn_agents: bool = True,
        cache_spec: Optional[str] = None,
        registry: Optional[PathLike] = None,
    ) -> None:
        self._listen = listen
        self.can_spawn = spawn_agents
        self.cache_spec = cache_spec
        self.registry = Path(registry) if registry is not None else None
        self._listener: Optional[socket.socket] = None
        self._agents: List[_AgentProc] = []
        self._registered: List[Path] = []
        self._hostname = socket.gethostname()

    # -- lifecycle ---------------------------------------------------------------

    @property
    def endpoint(self) -> Optional[str]:
        if self._listener is None:
            return None
        host, port = self._listener.getsockname()[:2]
        return f"{host}:{port}"

    def open(self) -> bool:
        if self._listener is not None:
            return False
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(self._listen)
        listener.listen(64)
        listener.setblocking(False)
        self._listener = listener
        self._register("coordinator", self._hostname, os.getpid())
        return True

    def close(self) -> None:
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
            self._listener = None
        for agent in self._agents:
            if agent.proc.poll() is None:
                agent.proc.terminate()
        deadline = time.monotonic() + 2.0
        for agent in self._agents:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                agent.proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck agent
                agent.proc.kill()
                agent.proc.wait()
        self._agents = []
        for path in self._registered:
            try:
                path.unlink()
            except OSError:
                pass
        self._registered = []

    def _register(self, kind: str, host: str, pid: int) -> None:
        if self.registry is None:
            return
        try:
            self.registry.mkdir(parents=True, exist_ok=True)
            path = self.registry / f"{kind}-{host}-{pid}.json"
            path.write_text(json.dumps({
                "kind": kind,
                "host": host,
                "pid": pid,
                "endpoint": self.endpoint,
                "started": time.time(),
            }, sort_keys=True) + "\n", encoding="utf-8")
            self._registered.append(path)
        except OSError:  # registry is best-effort observability
            pass

    # -- agent management --------------------------------------------------------

    #: Agents that exited without ever joining, tolerated before ``spawn``
    #: refuses: without the cap, a broken agent command (bad interpreter,
    #: import error) would be respawned forever and hang the campaign.
    MAX_FAILED_SPAWNS = 5

    def spawn(self) -> Optional[WorkerLink]:
        if not self.can_spawn:
            return None
        assert self.endpoint is not None, "open() the transport before spawn()"
        failed = sum(
            1 for a in self._agents
            if not a.joined and a.proc.poll() is not None
        )
        if failed >= self.MAX_FAILED_SPAWNS:
            raise TransportError(
                f"{failed} worker agents exited before joining "
                f"{self.endpoint}; refusing to keep spawning "
                "(is `repro-muzha worker` runnable on this host?)"
            )
        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--connect", self.endpoint, "--retry", "30"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self._agents.append(_AgentProc(proc=proc))
        return None  # joins asynchronously through accept()

    @property
    def pending_spawns(self) -> int:
        return sum(
            1 for a in self._agents
            if not a.joined and a.proc.poll() is None
        )

    # -- accepting joiners -------------------------------------------------------

    @property
    def waitables(self) -> List[Any]:
        return [self._listener] if self._listener is not None else []

    def accept(self) -> List[WorkerLink]:
        links: List[WorkerLink] = []
        if self._listener is None:
            return links
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                break
            except OSError:  # pragma: no cover - listener torn down
                break
            _set_nodelay(sock)
            link = self._handshake(sock)
            if link is not None:
                links.append(link)
        return links

    def _handshake(self, sock: socket.socket) -> Optional[WorkerLink]:
        sock.settimeout(HANDSHAKE_TIMEOUT)
        try:
            hello = recv_frame(sock)
            if hello.get("kind") != "hello":
                raise TransportError(
                    f"expected hello, got {hello.get('kind')!r}"
                )
            if hello.get("wire") != WIRE_VERSION:
                send_frame(sock, {
                    "kind": "reject",
                    "reason": f"wire version {hello.get('wire')!r} != "
                              f"{WIRE_VERSION}",
                })
                raise TransportError("wire version mismatch")
            if hello.get("schema") != CACHE_SCHEMA_VERSION:
                send_frame(sock, {
                    "kind": "reject",
                    "reason": f"cache schema {hello.get('schema')!r} != "
                              f"{CACHE_SCHEMA_VERSION} (mixed builds share "
                              "no cache)",
                })
                raise TransportError("cache schema mismatch")
            send_frame(sock, {"kind": "welcome", "cache": self.cache_spec})
        except (EOFError, OSError, TransportError, socket.timeout, ValueError):
            # Not a worker (a liveness probe, a stray connect) or a
            # mismatched build: drop the connection, keep the campaign.
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
            return None
        host = str(hello.get("host") or "?")
        pid = int(hello.get("pid") or 0) or None
        local = host == self._hostname
        if local and pid is not None:
            for agent in self._agents:
                if agent.proc.pid == pid:
                    agent.joined = True
        self._register("worker", host, pid or 0)
        return SocketLink(sock=sock, agent_host=host, agent_pid=pid,
                          local=local)

    def info(self) -> Dict[str, Any]:
        info: Dict[str, Any] = {"kind": self.name}
        if self.endpoint is not None:
            info["endpoint"] = self.endpoint
        return info


# ---------------------------------------------------------------------------
# Worker agent (the remote end of a SocketLink)


def _connect_with_retry(endpoint: str, retry: float) -> socket.socket:
    """Dial the coordinator, retrying for up to ``retry`` seconds.

    Retrying lets operators start agents before (or while) the
    coordinator binds its listener — the usual order on a cluster where
    agents are long-lived and campaigns come and go.
    """
    host, port = parse_endpoint(endpoint)
    deadline = time.monotonic() + retry
    delay = 0.05
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(delay)
            delay = min(1.0, delay * 2)
        else:
            _set_nodelay(sock)
            return sock


def run_worker_agent(
    connect: str,
    execute: ExecuteFn,
    cache: Optional[str] = None,
    retry: float = 10.0,
) -> int:
    """Main loop of ``repro-muzha worker --connect HOST:PORT``.

    Dials the coordinator, handshakes, then executes unit batches until a
    ``stop`` frame (clean exit 0) or the connection drops (also exit 0:
    the coordinator owns campaign lifecycle; a vanished coordinator is a
    finished or killed campaign, not an agent error).  Before executing a
    unit the agent checks the shared cache store — its own ``cache`` spec
    if given, else the one the coordinator offered — and answers ``hit``
    frames for digests another shard already computed.

    ``execute`` is the same unit function the local transports are
    built with, so the :data:`~repro.experiments.campaign.CRASH_ONCE_ENV`
    and :data:`~repro.experiments.campaign.BARRIER_ENV` chaos hooks work
    on remote agents exactly as on forked workers.
    """

    try:
        sock = _connect_with_retry(connect, retry)
    except OSError as exc:
        print(f"worker: cannot reach coordinator {connect}: {exc}",
              file=sys.stderr)
        return 1
    sock.settimeout(None)  # agents block indefinitely waiting for work
    try:
        send_frame(sock, {
            "kind": "hello",
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "wire": WIRE_VERSION,
            "schema": CACHE_SCHEMA_VERSION,
        })
        welcome = recv_frame(sock)
        if welcome.get("kind") == "reject":
            print(f"worker: coordinator rejected us: {welcome.get('reason')}",
                  file=sys.stderr)
            return 1
        if welcome.get("kind") != "welcome":
            print(f"worker: bad handshake reply {welcome.get('kind')!r}",
                  file=sys.stderr)
            return 1
        store = make_store(cache if cache is not None
                           else welcome.get("cache"))
        while True:
            try:
                message = recv_frame(sock)
            except (EOFError, OSError, TransportError):
                return 0  # coordinator gone: campaign over
            kind = message.get("kind")
            if kind == "stop":
                return 0
            if kind != "batch":
                continue  # ignore unknown frames from newer coordinators
            for unit in message.get("units", ()):
                index = int(unit["index"])
                digest = unit.get("digest")
                reply: Dict[str, Any]
                payload = store.get(digest) if (store and digest) else None
                if payload is not None:
                    reply = {"kind": "hit", "index": index,
                             "metrics": payload["result"],
                             "manifest": elide_snapshot(
                                 payload["result"], payload.get("manifest"))}
                else:
                    try:
                        spec = RunSpec.from_dict(unit["spec"])
                        _, metrics, manifest = execute((index, spec))
                        reply = {"kind": "ok", "index": index,
                                 "metrics": metrics,
                                 "manifest": elide_snapshot(metrics, manifest)}
                    except BaseException as exc:
                        reply = {"kind": "err", "index": index,
                                 "error": _error_text(exc)}
                try:
                    send_frame(sock, reply)
                except OSError:
                    return 0  # coordinator gone mid-batch
    finally:
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass


__all__ = [
    "CLUSTER_REGISTRY_DIRNAME",
    "HANDSHAKE_TIMEOUT",
    "InlineLink",
    "InlineTransport",
    "MAX_FRAME_BYTES",
    "PipeLink",
    "PipeTransport",
    "SOCKET_TIMEOUT",
    "SocketLink",
    "TRANSPORTS",
    "TcpTransport",
    "Transport",
    "TransportError",
    "WIRE_VERSION",
    "WorkerLink",
    "parse_endpoint",
    "recv_frame",
    "run_worker_agent",
    "send_frame",
]
