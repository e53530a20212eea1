import asyncio

from repobench.loadgen import Request, run_schedule

STALL_S = 0.30


async def _stalled_server(stall_first: float):
    """A keep-alive HTTP server whose first answer waits ``stall_first``."""
    state = {"first": True}

    async def handle(reader, writer):
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = 0
                for line in head.decode().split("\r\n"):
                    if line.lower().startswith("content-length:"):
                        length = int(line.split(":")[1])
                await reader.readexactly(length)
                if state["first"]:
                    state["first"] = False
                    await asyncio.sleep(stall_first)
                body = b"{}"
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n"
                             + body)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def _schedule(n, gap):
    return [Request(i * gap, "POST", "/x", b"{}", 200, "estimate")
            for i in range(n)]


def test_latency_is_measured_from_the_due_time():
    async def scenario():
        server = await _stalled_server(STALL_S)
        port = server.sockets[0].getsockname()[1]
        try:
            return await run_schedule("127.0.0.1", port, _schedule(20, 0.01),
                                      connections=1, timeout=5.0,
                                      sample_every=0.01)
        finally:
            server.close()
            await server.wait_closed()

    phase = asyncio.run(scenario())
    assert len(phase.outcomes) == 20 and all(o.ok for o in phase.outcomes)
    by_due = sorted(phase.outcomes, key=lambda o: o.request.due)
    # Request 5 was due at 50 ms, during the stall: its latency counts
    # the wait behind the stalled request, although the server answered
    # it at once after it was finally sent.
    fifth = by_due[5]
    assert fifth.latency >= STALL_S - fifth.request.due - 0.02
    assert fifth.lag >= STALL_S - fifth.request.due - 0.02
    assert fifth.done - fifth.sent < 0.1
    # The generator saw the requests pile up behind the stall.
    assert max(phase.backlog) >= 5
    # After the stall drains, requests are on time again.
    assert by_due[-1].request.due > STALL_S or by_due[-1].latency < STALL_S


def test_timeout_and_refused_connection_are_failed_requests():
    async def scenario():
        server = await _stalled_server(2.0)
        port = server.sockets[0].getsockname()[1]
        try:
            timed = await run_schedule("127.0.0.1", port, _schedule(1, 0.0),
                                       connections=1, timeout=0.2)
        finally:
            server.close()
            await server.wait_closed()
        refused = await run_schedule("127.0.0.1", port, _schedule(2, 0.0),
                                     connections=1, timeout=0.2)
        return timed, refused

    timed, refused = asyncio.run(scenario())
    assert [o.ok for o in timed.outcomes] == [False]
    assert "Timeout" in timed.outcomes[0].error
    assert [o.ok for o in refused.outcomes] == [False, False]
