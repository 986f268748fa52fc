"""The ledger's own load generator for the serving daemon.

One asyncio process, two persistent pipelined connections, no threads.
Request frames are encoded before any timer starts and carry their index
as the wire ``id``; replies are matched by that id.  Two traffic shapes:

* :meth:`Loader.open_loop` sends on a schedule whatever the daemon does and
  times each request from the instant it was *due*, so a stall is charged
  to every request it delayed; ``late`` records how far behind its own
  schedule the generator ran.
* :meth:`Loader.closed_loop` keeps a fixed number of requests in flight for
  a fixed time; a reply releases the next request on the same connection.

``repro.serving.loadgen.OpenLoopLoadGenerator`` is not reused: it opens a
TCP connection per request and times from the actual send.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: A reply still missing this long after the last send counts as failed.
REPLY_TIMEOUT_S = 10.0
CONNECTIONS = 2


def encode_frames(keys: Sequence[Tuple[int, int]], count: int,
                  k: int = 10) -> List[bytes]:
    """``count`` serve frames cycling over ``keys``; frame ``i`` has id ``i``."""
    heads = [f'{{"op": "serve", "user_id": {user}, "query_id": {query}, '
             f'"k": {k}, "id": '.encode() for user, query in keys]
    return [heads[i % len(heads)] + str(i).encode() + b"}\n"
            for i in range(count)]


@dataclass
class Phase:
    """What one traffic phase observed, one array slot per request sent."""

    #: perf_counter instants; ``due`` equals ``sent`` in a closed loop.
    due: np.ndarray
    sent: np.ndarray
    received: np.ndarray
    ok: np.ndarray
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: ``item_ids`` of the replies whose index was in ``keep``.
    kept: Dict[int, List[int]] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return int(self.sent.size)

    @property
    def failed(self) -> int:
        return self.attempted - int(np.count_nonzero(self.ok))


class _Connection(asyncio.Protocol):
    """Splits the byte stream into reply lines for the loader."""

    def __init__(self, loader: "Loader", slot: int):
        self.loader = loader
        self.slot = slot
        self.transport: Optional[asyncio.Transport] = None
        self._tail = b""

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        now = time.perf_counter()
        *lines, self._tail = (self._tail + data).split(b"\n")
        self.loader.on_replies(self.slot, lines, now)

    def connection_lost(self, exc) -> None:
        self.loader.on_lost()


class Loader:
    """Two pipelined connections to one daemon; one phase at a time."""

    def __init__(self) -> None:
        self._conns: List[_Connection] = []
        self._phase: Optional[Phase] = None
        self._keep: frozenset = frozenset()
        self._frames: List[bytes] = []
        self._next = 0            # next frame a closed loop may release
        self._stop_at = 0.0       # closed loop: no release after this
        self._outstanding = 0
        self._done: Optional[asyncio.Future] = None
        self._stats: Optional[asyncio.Future] = None

    async def connect(self, host: str, port: int) -> "Loader":
        loop = asyncio.get_running_loop()
        for slot in range(CONNECTIONS):
            _, conn = await loop.create_connection(
                lambda slot=slot: _Connection(self, slot), host, port)
            self._conns.append(conn)
        return self

    def close(self) -> None:
        for conn in self._conns:
            if conn.transport is not None:
                conn.transport.close()
        self._conns = []

    # ------------------------------------------------------------------ #
    # Reply path (runs inside data_received)
    # ------------------------------------------------------------------ #
    def on_replies(self, slot: int, lines: List[bytes], now: float) -> None:
        phase = self._phase
        release: List[bytes] = []
        for line in lines:
            if not line:
                continue
            reply = json.loads(line)
            index = reply.get("id")
            if index == "stats":
                if self._stats is not None and not self._stats.done():
                    self._stats.set_result(reply["stats"])
                continue
            if phase is None or not isinstance(index, int) \
                    or not 0 <= index < phase.sent.size:
                continue
            phase.received[index] = now
            phase.ok[index] = reply.get("ok") is True
            if index in self._keep:
                phase.kept[index] = reply.get("item_ids", [])
            self._outstanding -= 1
            if now < self._stop_at and self._next < len(self._frames):
                phase.sent[self._next] = phase.due[self._next] = now
                release.append(self._frames[self._next])
                self._next += 1
                self._outstanding += 1
        if release:
            self._conns[slot].transport.write(b"".join(release))
        exhausted = now >= self._stop_at or self._next >= len(self._frames)
        if self._outstanding == 0 and exhausted \
                and self._done is not None and not self._done.done():
            self._done.set_result(None)

    def on_lost(self) -> None:
        if self._done is not None and not self._done.done():
            self._done.set_result(None)

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #
    def _begin(self, frames: List[bytes], keep: Sequence[int]) -> Phase:
        count = len(frames)
        self._frames = frames
        self._keep = frozenset(keep)
        self._phase = Phase(due=np.zeros(count), sent=np.zeros(count),
                            received=np.zeros(count),
                            ok=np.zeros(count, dtype=bool))
        self._done = asyncio.get_running_loop().create_future()
        return self._phase

    async def _finish(self, phase: Phase, wall0: float, cpu0: float,
                      sending_s: float = 0.0) -> Phase:
        try:
            await asyncio.wait_for(self._done, sending_s + REPLY_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass                  # the missing replies stay ok == False
        # A closed loop may stop before it has released every frame.
        for name in ("due", "sent", "received", "ok"):
            setattr(phase, name, getattr(phase, name)[:self._next])
        last = float(phase.received.max(initial=0.0))
        phase.wall_s = (last if last > 0.0 else time.perf_counter()) - wall0
        phase.cpu_s = time.process_time() - cpu0
        self._phase = None
        return phase

    async def open_loop(self, frames: List[bytes], due_s: np.ndarray,
                        keep: Sequence[int] = ()) -> Phase:
        """Send frame ``i`` at ``due_s[i]`` seconds after the phase starts."""
        phase = self._begin(frames, keep)
        self._stop_at = 0.0       # replies never release anything
        self._next = len(frames)
        self._outstanding = len(frames)
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        phase.due[:] = wall0 + due_s
        due = phase.due
        index = 0
        while index < len(frames):
            now = time.perf_counter()
            if due[index] > now:
                await asyncio.sleep(due[index] - now)
                now = time.perf_counter()
            stop = int(np.searchsorted(due, now, side="right"))
            stop = max(stop, index + 1)
            for slot, conn in enumerate(self._conns):
                chunk = frames[index + (slot - index) % CONNECTIONS:stop:
                               CONNECTIONS]
                if chunk:
                    conn.transport.write(b"".join(chunk))
            phase.sent[index:stop] = now
            index = stop
        return await self._finish(phase, wall0, cpu0)

    async def closed_loop(self, frames: List[bytes], window: int,
                          seconds: float,
                          keep: Sequence[int] = ()) -> Phase:
        """Keep ``window`` requests in flight for ``seconds``, then drain.

        Ends early when ``frames`` run out.
        """
        phase = self._begin(frames, keep)
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        self._stop_at = wall0 + seconds
        first = min(window, len(frames))
        self._next = self._outstanding = first
        phase.sent[:first] = phase.due[:first] = wall0
        for slot, conn in enumerate(self._conns):
            chunk = frames[slot:first:CONNECTIONS]
            if chunk:
                conn.transport.write(b"".join(chunk))
        return await self._finish(phase, wall0, cpu0, sending_s=seconds)

    async def stats(self) -> dict:
        """The daemon's ``stats`` verb, over connection 0."""
        self._stats = asyncio.get_running_loop().create_future()
        self._conns[0].transport.write(b'{"op": "stats", "id": "stats"}\n')
        return await asyncio.wait_for(self._stats, REPLY_TIMEOUT_S)
