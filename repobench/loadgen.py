"""Open-loop HTTP load generator over a few keep-alive connections.

Requests are released on a fixed schedule whatever the server does (an
open loop: independent users), queue in the client when every
connection is busy, and are timed from the moment each was *due*.  A
server stall therefore shows in the latency of every request that was
due during the stall, not only in the one that hit it, and the time a
request spent queued in the client is reported separately as lag.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Request:
    """One scheduled request.

    Attributes:
        due: Seconds after the phase start at which it is sent.
        method: HTTP method.
        path: Request path.
        body: Request body.
        expect: The status the request must get.
        tag: What the request is (``estimate``, ``reload``, or the
            error code a malformed body must be answered with).
    """

    due: float
    method: str
    path: str
    body: bytes
    expect: int
    tag: str


@dataclass
class Outcome:
    """What happened to one request; times are seconds after the start."""

    request: Request
    sent: float
    done: float
    status: int | None = None
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Answered with the expected status, without a transport error."""
        return self.error is None and self.status == self.request.expect

    @property
    def latency(self) -> float:
        """Completion time measured from when the request was due."""
        return self.done - self.request.due

    @property
    def lag(self) -> float:
        """How late the generator sent the request."""
        return self.sent - self.request.due


@dataclass
class PhaseResult:
    """Outcomes of one schedule plus the client backlog trace."""

    outcomes: list[Outcome]
    backlog: list[int]
    seconds: float


async def _exchange(reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter, request: Request,
                    ) -> tuple[int, dict[str, str], bytes]:
    head = (f"{request.method} {request.path} HTTP/1.1\r\n"
            "Host: localhost\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(request.body)}\r\n\r\n")
    writer.write(head.encode("latin-1") + request.body)
    await writer.drain()
    raw = await reader.readuntil(b"\r\n\r\n")
    lines = raw.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", 0)))
    return status, headers, body


async def run_schedule(host: str, port: int, requests: Sequence[Request],
                       connections: int = 2, timeout: float = 5.0,
                       on_due: Callable[[Request], None] | None = None,
                       sample_every: float = 0.05) -> PhaseResult:
    """Send ``requests`` open-loop and collect every outcome.

    Args:
        host, port: The server.
        requests: The schedule, sorted by ``due``.
        connections: Keep-alive connections (concurrent requests).
        timeout: Per-request deadline; a timeout is a failed request.
        on_due: Called as each request falls due, before it queues
            (the serve workload swaps the database file here).
        sample_every: Backlog sampling interval in seconds.
    """
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue[Request] = asyncio.Queue()
    outcomes: list[Outcome] = []
    backlog: list[int] = []
    start = loop.time()

    def now() -> float:
        return loop.time() - start

    async def connection() -> None:
        reader = writer = None
        try:
            while True:
                request = await queue.get()
                if writer is None:
                    try:
                        reader, writer = await asyncio.open_connection(
                            host, port)
                    except OSError as exc:
                        outcomes.append(Outcome(request, now(), now(),
                                                error=repr(exc)))
                        queue.task_done()
                        continue
                sent = now()
                try:
                    status, headers, body = await asyncio.wait_for(
                        _exchange(reader, writer, request), timeout)
                    outcomes.append(Outcome(request, sent, now(), status,
                                            headers, body))
                except (OSError, asyncio.TimeoutError,
                        asyncio.IncompleteReadError,
                        asyncio.LimitOverrunError, ValueError) as exc:
                    outcomes.append(Outcome(request, sent, now(),
                                            error=repr(exc)))
                    writer.close()
                    reader = writer = None
                queue.task_done()
        finally:
            if writer is not None:
                writer.close()
                with contextlib.suppress(OSError):
                    await writer.wait_closed()

    async def sampler() -> None:
        while True:
            backlog.append(queue.qsize())
            await asyncio.sleep(sample_every)

    workers = [asyncio.create_task(connection())
               for _ in range(connections)]
    probe = asyncio.create_task(sampler())
    try:
        for request in requests:
            delay = request.due - now()
            if delay > 0:
                await asyncio.sleep(delay)
            if on_due is not None:
                on_due(request)
            queue.put_nowait(request)
        await asyncio.wait_for(queue.join(), timeout + 30.0)
    finally:
        for task in [*workers, probe]:
            task.cancel()
        for task in [*workers, probe]:
            with contextlib.suppress(asyncio.CancelledError):
                await task
    return PhaseResult(outcomes, backlog, now())
