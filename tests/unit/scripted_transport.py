"""A :class:`Transport` whose workers never fork and follow a script.

The supervisor loop (``campaign._run_pool``) knows its workers only
through ``Transport``/``WorkerLink``, so a link that answers from a script
exercises every failure branch of the loop — crash, hang, failed send,
a reply for the wrong unit — deterministically and in milliseconds, with
no process to kill and no timing to hope for.

The script maps a unit index to the fate of its successive attempts::

    ScriptedTransport(script={0: [DIE, OK], 3: [ERR, ERR, ERR]})

Units (and attempts) the script does not mention succeed.  Fates:

* ``OK`` / ``ERR`` — reply ``ok`` / ``err`` for the unit;
* ``DIE`` — the link goes EOF while the unit executes (a crashed fork);
  units queued behind it in the batch never run;
* ``HANG`` — no reply, ever: only the watchdog gets the worker back;
* ``LIE`` — reply ``ok`` under the index of a unit the worker was never
  sent (a confused worker);
* ``TWICE`` — reply ``ok`` for the unit, then once more, unasked.

Links readable-signal through a self-pipe (one byte per buffered reply),
the same ``fileno()`` contract the loop waits on for pipes.
"""

import collections
import os
import time

from repro.experiments.transport import Transport, WorkerLink

OK, ERR, DIE, HANG, LIE, TWICE = "ok", "err", "die", "hang", "lie", "twice"

_EOF = object()


class ScriptedLink(WorkerLink):
    """One scripted worker; records what the loop did to it."""

    def __init__(self, transport, send_fails=False):
        self.transport = transport
        self._send_fails = send_fails
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
    """Factory of :class:`ScriptedLink`, modelling the pipe pool:
    ``spawn()`` attaches a link at once.  ``link_kwargs`` is applied to
    spawned links in order (the last entry repeats), e.g.
    ``[{"send_fails": True}, {}]`` makes only the first worker die on its
    first send.
    """

    can_spawn = True

    def __init__(self, script=None, prefetch=1, link_kwargs=()):
        self.script = {k: list(v) for k, v in (script or {}).items()}
        self.prefetch = prefetch
        self._link_kwargs = list(link_kwargs)
        self.links = []

    def next_fate(self, index):
        fates = self.script.get(index)
        return fates.pop(0) if fates else OK

    def spawn(self):
        kwargs = {}
        if self._link_kwargs:
            kwargs = (self._link_kwargs.pop(0) if len(self._link_kwargs) > 1
                      else self._link_kwargs[0])
        link = ScriptedLink(self, **kwargs)
        self.links.append(link)
        return link


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
