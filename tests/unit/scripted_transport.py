"""A :class:`Transport` whose workers never fork and follow a script.

The supervisor loop (``campaign._run_pool``) knows its workers only
through ``Transport``/``WorkerLink``, so a link that answers from a script
exercises every failure branch of the loop — crash, disconnect, hang,
failed send, late join — deterministically and in milliseconds, with no
process to kill and no timing to hope for.

The script maps a unit index to the fate of its successive attempts::

    ScriptedTransport(script={0: [DIE, OK], 3: [ERR, ERR, ERR]})

Units (and attempts) the script does not mention succeed.  Fates:

* ``OK`` / ``ERR`` — reply ``ok`` / ``err`` for the unit;
* ``DIE`` — the link goes EOF while the unit executes (a crashed fork, or
  with ``remote=True`` a dropped connection); units queued behind it in
  the batch never run;
* ``HANG`` — no reply, ever: only the watchdog gets the worker back;
* ``LIE`` — reply ``ok`` under the index of a unit the worker was never
  sent (a confused or hostile agent);
* ``TWICE`` — reply ``ok`` for the unit, then once more, unasked.

Links readable-signal through a self-pipe (one byte per buffered reply),
the same ``fileno()`` contract the loop waits on for pipes and sockets.
"""

import collections
import os
import time

from repro.experiments.transport import Transport, WorkerLink

OK, ERR, DIE, HANG, LIE, TWICE = "ok", "err", "die", "hang", "lie", "twice"

_EOF = object()


class ScriptedLink(WorkerLink):
    """One scripted worker; records what the loop did to it."""

    def __init__(self, transport, remote=False, host=None, send_fails=False,
                 single_use=False):
        self.transport = transport
        self.remote = remote
        self.host = host
        self._send_fails = send_fails
        self._single_use = single_use
        self._outbox = collections.deque()
        self._rfd, self._wfd = os.pipe()
        self._exitcode = None
        #: ``(monotonic time, [unit index, ...])`` per batch received.
        self.batches = []
        #: How the loop disposed of the link: "reap" | "kill" | "stop".
        self.fate = None

    @property
    def units(self):
        return [index for _, batch in self.batches for index in batch]

    def fileno(self):
        return self._rfd

    def _post(self, item):
        self._outbox.append(item)
        os.write(self._wfd, b"\0")

    def send_batch(self, units):
        if self._send_fails:
            self._exitcode = -9
            self._post(_EOF)  # the corpse reads as EOF when the loop looks
            raise BrokenPipeError("scripted: worker died before the send")
        self.batches.append((time.monotonic(), [i for i, _, _ in units]))
        self.spent = self._single_use
        for index, _spec, _digest in units:
            fate = self.transport.next_fate(index)
            if fate in (OK, TWICE):
                for _ in range(2 if fate == TWICE else 1):
                    self._post(("ok", index, {"unit": index}, None))
            elif fate == LIE:
                self._post(("ok", index + 1000, {"unit": index + 1000}, None))
                return
            elif fate == ERR:
                self._post(("err", index, f"ScriptedError: unit {index}"))
            elif fate == DIE:
                self._exitcode = -9
                self._post(_EOF)
                return
            else:
                assert fate == HANG, fate
                return

    def recv(self):
        os.read(self._rfd, 1)
        item = self._outbox.popleft()
        if item is _EOF:
            raise EOFError("scripted: link died")
        self.transport.replies += 1
        self.transport.release_joiners()
        return item

    def _dispose(self, fate):
        assert self.fate is None, f"link disposed twice: {self.fate}, {fate}"
        self.fate = fate
        os.close(self._rfd)
        os.close(self._wfd)

    def reap(self):
        self._dispose("reap")

    def kill(self):
        self._exitcode = -15
        self._dispose("kill")

    def stop(self):
        self._dispose("stop")

    @property
    def exitcode(self):
        return self._exitcode


class ScriptedTransport(Transport):
    """Factory of :class:`ScriptedLink`.

    ``spawns`` models the pipe pool (``spawn()`` attaches a link at once);
    ``joiners`` models cluster agents: ``(after_replies, link_kwargs)``
    pairs, each becoming acceptable through the listener once the loop has
    received that many replies (0 = present from the start).
    ``link_kwargs`` is applied to spawned links in order (the last entry
    repeats), e.g. ``[{"send_fails": True}, {}]`` makes only the first
    worker die on its first send.
    """

    name = "scripted"

    def __init__(self, script=None, prefetch=1, spawns=True, link_kwargs=(),
                 joiners=()):
        self.script = {k: list(v) for k, v in (script or {}).items()}
        self.prefetch = prefetch
        self.can_spawn = spawns
        self._link_kwargs = list(link_kwargs)
        self._joiners = sorted(joiners, key=lambda j: j[0])
        self._listen_r, self._listen_w = os.pipe()
        self._acceptable = []
        self.links = []
        self.replies = 0
        self.release_joiners()

    def next_fate(self, index):
        fates = self.script.get(index)
        return fates.pop(0) if fates else OK

    def _make_link(self, **kwargs):
        link = ScriptedLink(self, **kwargs)
        self.links.append(link)
        return link

    def spawn(self):
        kwargs = {}
        if self._link_kwargs:
            kwargs = (self._link_kwargs.pop(0) if len(self._link_kwargs) > 1
                      else self._link_kwargs[0])
        return self._make_link(**kwargs)

    def release_joiners(self):
        while self._joiners and self._joiners[0][0] <= self.replies:
            _, kwargs = self._joiners.pop(0)
            self._acceptable.append(kwargs)
            os.write(self._listen_w, b"\0")

    @property
    def waitables(self):
        return [self._listen_r]

    def accept(self):
        links = []
        while self._acceptable:
            os.read(self._listen_r, 1)
            links.append(self._make_link(**self._acceptable.pop(0)))
        return links

    def close(self):
        os.close(self._listen_r)
        os.close(self._listen_w)


class RecordingTelemetry:
    """Stands in for ``CampaignTelemetry``: records every hook call as
    ``(name, args, kwargs)`` so tests can assert on what the loop reported."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        def record(*args, **kwargs):
            self.calls.append((name, args, kwargs))
        return record

    def named(self, name):
        return [(args, kwargs) for n, args, kwargs in self.calls if n == name]

    def unit_attempts(self):
        """``(index, attempt, status)`` per unit-attempt, in report order."""
        return [(args[1], args[2], args[3])
                for args, _ in self.named("unit_result")]

    def exit_reasons(self):
        return [args[1] for args, _ in self.named("worker_exited")]

    def replacements(self):
        return sum(1 for _, kwargs in self.named("worker_spawned")
                   if kwargs.get("replacement"))
