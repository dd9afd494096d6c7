"""Persistent HTTP/1.1 connections: the server's connection lifetime and
the client's connection pool.

Server-side tests speak raw bytes to a real service, so they see exactly
which ``Connection`` header each response carries and when the server
closes.  Client-side tests run the client against a scripted peer that
misbehaves on cue: closes a reused connection before answering, cuts a
response short, stalls mid-stream or sends an unframed body.
"""

import asyncio
import json
import time

import pytest

from repro.evaluation.runner import SMT_INSTANCES
from repro.service import client, get_json, http, start_service, stream_schedule
from repro.service.ledger import load_ledger

RELABELED_TRIANGLE = [[1, 0], [2, 1], [0, 2]]
INVALID_DOC = {"num_qubits": 2, "gates": [[0, 0]]}


def _doc(name="triangle", gates=None):
    num_qubits, instance_gates = SMT_INSTANCES[name]
    return {
        "num_qubits": num_qubits,
        "gates": [list(gate) for gate in (gates or instance_gates)],
        "layout": "bottom",
    }


def _run(coro_fn, **config):
    async def _main():
        running = await start_service(**config)
        try:
            return await coro_fn(running)
        finally:
            await running.aclose()

    return asyncio.run(_main())


async def _read_response(reader):
    """``(status, headers, body)`` of one framed response."""
    status_line = await reader.readline()
    status, headers = await http.read_response_head(reader, status_line)
    body, framed = await http.read_body(reader, headers)
    assert framed
    return status, headers, body


async def _closed_by_peer(reader, timeout=2.0):
    """True when the peer closes the connection within *timeout*."""
    return await asyncio.wait_for(reader.read(), timeout) == b""


def _connections(stats):
    return stats["counters"]["connections_accepted"]


# --------------------------------------------------------------------------- #
# Server: what keeps a connection open and what closes it
# --------------------------------------------------------------------------- #
def test_requests_share_a_connection_by_default():
    async def scenario(running):
        reader, writer = await asyncio.open_connection(running.host, running.port)
        try:
            for path in ("/v1/healthz", "/v1/stats", "/v1/nope"):
                writer.write(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
                status, headers, _body = await _read_response(reader)
                assert headers["connection"] == "keep-alive"
            assert status == 404
            # HTTP/1.0 keeps the connection only when it asks to.
            writer.write(b"GET /v1/stats HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            status, headers, body = await _read_response(reader)
            assert headers["connection"] == "keep-alive"
            assert _connections(json.loads(body)) == 1
        finally:
            writer.close()

    _run(scenario, jobs=1)


@pytest.mark.parametrize(
    "request_head",
    [
        b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /v1/healthz HTTP/1.1\r\nConnection: Upgrade, Close\r\n\r\n",
        b"GET /v1/healthz HTTP/1.0\r\n\r\n",
    ],
    ids=["http11-close", "http11-close-token", "http10"],
)
def test_close_requests_get_connection_close(request_head):
    async def scenario(running):
        reader, writer = await asyncio.open_connection(running.host, running.port)
        try:
            writer.write(request_head)
            status, headers, _body = await _read_response(reader)
            assert status == 200
            assert headers["connection"] == "close"
            assert await _closed_by_peer(reader)
        finally:
            writer.close()

    _run(scenario, jobs=1)


@pytest.mark.parametrize(
    "request_head",
    [
        b"GARBAGE\r\n\r\n",
        b"POST /v1/schedule HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n{}",
        b"POST /v1/schedule HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        b"POST /v1/schedule HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"2\r\n{}\r\n0\r\n\r\n",
        b"GET /v1/stats HTTP/1.1\r\n"
        + b"".join(b"X-Pad-%d: %s\r\n" % (i, b"a" * 8000) for i in range(9))
        + b"\r\n",
    ],
    ids=[
        "bad-request-line",
        "oversized-body",
        "bad-length",
        "chunked-body",
        "oversized-headers",
    ],
)
def test_malformed_requests_get_400_and_close(request_head):
    async def scenario(running):
        reader, writer = await asyncio.open_connection(running.host, running.port)
        try:
            writer.write(request_head)
            status, headers, body = await _read_response(reader)
            assert status == 400
            assert headers["connection"] == "close"
            assert "error" in json.loads(body)
            assert await _closed_by_peer(reader)
        finally:
            writer.close()

    _run(scenario, jobs=1)


def test_idle_timeout_closes_and_the_client_retries(monkeypatch):
    monkeypatch.setattr(http, "IDLE_TIMEOUT_S", 0.2)

    async def scenario(running):
        status, _body = await stream_schedule(running.host, running.port, INVALID_DOC)
        assert status == 400
        key = (asyncio.get_running_loop(), running.host, running.port)
        [(reader, _writer)] = client._IDLE[key]
        assert await _closed_by_peer(reader)
        # The pooled connection is dead: the request goes out on it, meets
        # EOF before any response byte, and is sent again on a fresh one.
        status, _body = await stream_schedule(running.host, running.port, INVALID_DOC)
        assert status == 400
        _status, stats = await get_json(running.host, running.port, "/v1/stats")
        assert _connections(stats) == 2
        assert stats["counters"]["invalid_requests"] == 2

    _run(scenario, jobs=1)


def test_sequential_requests_open_one_connection():
    async def scenario(running):
        for gates in (None, RELABELED_TRIANGLE, None, RELABELED_TRIANGLE):
            status, events = await stream_schedule(
                running.host, running.port, _doc("triangle", gates)
            )
            assert status == 200
            assert events[-1]["termination"] == "certified"
        _status, health = await get_json(running.host, running.port, "/v1/healthz")
        _status, stats = await get_json(running.host, running.port, "/v1/stats")
        assert _connections(health) == 1
        assert _connections(stats) == 1
        assert stats["cache"]["hits"] == 3

    _run(scenario, jobs=1, default_time_limit=60.0)


def test_cache_hit_is_one_write_with_unchanged_bytes(monkeypatch):
    async def scenario(running):
        status, _events = await stream_schedule(running.host, running.port, _doc())
        assert status == 200

        calls = []

        def server_side(writer):
            return writer.get_extra_info("sockname")[1] == running.port

        write, drain = asyncio.StreamWriter.write, asyncio.StreamWriter.drain

        def spy_write(self, data):
            if server_side(self):
                calls.append("write")
            return write(self, data)

        async def spy_drain(self):
            if server_side(self):
                calls.append("drain")
            return await drain(self)

        monkeypatch.setattr(asyncio.StreamWriter, "write", spy_write)
        monkeypatch.setattr(asyncio.StreamWriter, "drain", spy_drain)
        body = json.dumps(_doc("triangle", RELABELED_TRIANGLE)).encode()
        reader, writer = await asyncio.open_connection(running.host, running.port)
        try:
            writer.write(
                b"POST /v1/schedule HTTP/1.1\r\nConnection: close\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            raw = await asyncio.wait_for(reader.read(), 5.0)
        finally:
            writer.close()
        assert calls == ["write", "drain"]

        head, _, chunked = raw.partition(b"\r\n\r\n")
        assert head == (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\nConnection: close"
        )
        lines = chunked.split(b"\r\n")
        events = [json.loads(line) for line in lines[1:-3:2]]
        assert [event["event"] for event in events] == ["accepted", "result"]
        assert events[0]["cache"] == "hit"
        # One chunk per event, each a sorted-key JSON line, then the
        # terminator: the framing every stream has always had.
        expected = b""
        for event in events:
            line = (json.dumps(event, sort_keys=True) + "\n").encode()
            expected += f"{len(line):x}\r\n".encode() + line + b"\r\n"
        assert chunked == expected + b"0\r\n\r\n"

    _run(scenario, jobs=1, default_time_limit=60.0)


@pytest.mark.parametrize(
    "connection",
    [b"", b"Connection: keep-alive\r\n"],
    ids=["http10", "http10-keep-alive"],
)
def test_http10_schedule_streams_unchunked_lines_then_closes(connection):
    """HTTP/1.0 defines no chunked encoding: a miss and a hit stream the
    same ndjson events as a body that ends when the server closes."""

    async def scenario(running):
        body = json.dumps(_doc()).encode()
        streams = []
        for _ in ("miss", "hit"):
            reader, writer = await asyncio.open_connection(running.host, running.port)
            try:
                writer.write(
                    b"POST /v1/schedule HTTP/1.0\r\n"
                    + connection
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                # read() returns at EOF: the server closes after the stream.
                streams.append(await asyncio.wait_for(reader.read(), 60.0))
            finally:
                writer.close()
        for raw, cache in zip(streams, ("miss", "hit")):
            head, _, payload = raw.partition(b"\r\n\r\n")
            assert head == (
                b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
                b"Connection: close"
            )
            events = [json.loads(line) for line in payload.splitlines()]
            assert payload == b"".join(
                (json.dumps(event, sort_keys=True) + "\n").encode()
                for event in events
            )
            assert events[0]["event"] == "accepted"
            assert events[0]["cache"] == cache
            assert events[-1]["event"] == "result"
            assert events[-1]["termination"] == "certified"
        # An HTTP/1.1 client still gets a chunked, kept-alive stream.
        reader, writer = await asyncio.open_connection(running.host, running.port)
        try:
            writer.write(
                b"POST /v1/schedule HTTP/1.1\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            status, headers, _body = await _read_response(reader)
            assert status == 200
            assert headers["transfer-encoding"] == "chunked"
            assert headers["connection"] == "keep-alive"
        finally:
            writer.close()

    _run(scenario, jobs=1, default_time_limit=60.0)


# --------------------------------------------------------------------------- #
# Shutdown: no idle connection holds the server open
# --------------------------------------------------------------------------- #
def test_aclose_returns_promptly_with_an_idle_pooled_connection():
    """On Python 3.12+ ``Server.wait_closed`` waits for every open
    connection, so the server must close idle ones itself."""
    sockets = []

    async def session():
        running = await start_service(jobs=1)
        try:
            status, _health = await get_json(running.host, running.port, "/v1/healthz")
            assert status == 200
            key = (asyncio.get_running_loop(), running.host, running.port)
            [(_reader, writer)] = client._IDLE[key]
            sockets.append(writer.get_extra_info("socket"))
            start = time.monotonic()
            await asyncio.wait_for(running.server.aclose(), 5.0)
            assert time.monotonic() - start < 0.5
        finally:
            await running.aclose()
        assert key not in client._IDLE

    # Back-to-back sessions leave no pooled entry of a closed loop and no
    # open client socket.
    asyncio.run(session())
    asyncio.run(session())
    assert not [key for key in client._IDLE if key[0].is_closed()]
    assert [sock.fileno() for sock in sockets] == [-1, -1]


def test_aclose_ends_an_in_flight_stream_with_a_result():
    """Shutdown answers a pending miss before closing its connection."""

    async def main():
        running = await start_service(jobs=1, allow_selftest=True)
        sleeper = {**_doc("single-gate"), "selftest": {"op": "sleep", "seconds": 30}}
        stream = asyncio.ensure_future(
            stream_schedule(running.host, running.port, sleeper)
        )
        try:
            for _ in range(600):
                _status, stats = await get_json(running.host, running.port, "/v1/stats")
                if stats["pool"]["busy"] == 1:
                    break
                await asyncio.sleep(0.05)
        finally:
            await asyncio.wait_for(running.aclose(), 10.0)
        status, events = await asyncio.wait_for(stream, 5.0)
        assert status == 200
        assert events[-1]["termination"] == "backend-error"
        assert events[-1]["error"] == "service shutting down"

    asyncio.run(main())


def test_aclose_records_the_verdict_of_the_miss_it_answered(tmp_path):
    """The ledger closes only after the handler of a miss that shutdown
    answered has recorded that verdict."""
    ledger_path = tmp_path / "ledger.jsonl"
    errors = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: errors.append(context)
        )
        running = await start_service(
            jobs=1, allow_selftest=True, ledger_path=ledger_path
        )
        sleeper = {**_doc("single-gate"), "selftest": {"op": "sleep", "seconds": 30}}
        stream = asyncio.ensure_future(
            stream_schedule(running.host, running.port, sleeper)
        )
        try:
            for _ in range(600):
                _status, stats = await get_json(running.host, running.port, "/v1/stats")
                if stats["pool"]["busy"] == 1:
                    break
                await asyncio.sleep(0.05)
        finally:
            await asyncio.wait_for(running.aclose(), 10.0)
        _status, events = await asyncio.wait_for(stream, 5.0)
        # Let any done-callback of a failed handler run before the loop ends.
        await asyncio.sleep(0.05)
        return events[0]["request_id"]

    request_id = asyncio.run(main())
    assert errors == []
    state = load_ledger(ledger_path)
    assert state.crashed_cells() == []
    assert state.completed[request_id]["termination"] == "backend-error"


# --------------------------------------------------------------------------- #
# Client: retry and pooling rules against a scripted peer
# --------------------------------------------------------------------------- #
OK_JSON = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: keep-alive\r\n\r\n{}\n"


async def _scripted_peer(reply):
    """Serve ``reply(connection_index, request_index)`` per request.

    A reply of None closes the connection without answering; a 1-tuple
    ``(answer,)`` sends *answer* and then closes.  Returns the server and
    a tally of connections, requests and client-side closes.
    """
    seen = {"connections": 0, "requests": 0, "client_closed": 0}

    async def handle(reader, writer):
        connection = seen["connections"]
        seen["connections"] += 1
        try:
            for index in range(100):
                head = await reader.readuntil(b"\r\n\r\n")
                for line in head.split(b"\r\n"):
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        await reader.readexactly(int(value))
                seen["requests"] += 1
                answer = reply(connection, index)
                if answer is None:
                    return
                writer.write(answer if isinstance(answer, bytes) else answer[0])
                await writer.drain()
                if not isinstance(answer, bytes):
                    return
        except asyncio.IncompleteReadError:
            seen["client_closed"] += 1
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, seen


def _peer(reply, scenario):
    async def _main():
        server, seen = await _scripted_peer(reply)
        port = server.sockets[0].getsockname()[1]
        try:
            await scenario(port, seen)
        finally:
            client.close_idle_connections("127.0.0.1", port)
            server.close()
            await asyncio.wait_for(server.wait_closed(), 5.0)

    asyncio.run(_main())


def test_reused_connection_closed_before_answering_is_retried_once():
    def reply(connection, index):
        return None if (connection, index) == (0, 1) else OK_JSON

    async def scenario(port, seen):
        for _ in range(3):
            assert await get_json("127.0.0.1", port, "/") == (200, {})
        # The second request met a closed connection and went out again on
        # a fresh one, which the third request reused.
        assert seen == {"connections": 2, "requests": 4, "client_closed": 0}

    _peer(reply, scenario)


def test_fresh_connection_failures_are_not_retried():
    async def scenario(port, seen):
        with pytest.raises(ConnectionError, match="before responding"):
            await get_json("127.0.0.1", port, "/")
        assert seen["connections"] == 1

    _peer(lambda connection, index: None, scenario)


def test_failure_after_the_first_byte_is_not_retried():
    truncated = (b"HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n{",)

    def reply(connection, index):
        return OK_JSON if index == 0 else truncated

    async def scenario(port, seen):
        assert await get_json("127.0.0.1", port, "/") == (200, {})
        with pytest.raises(asyncio.IncompleteReadError):
            await get_json("127.0.0.1", port, "/")
        assert seen["connections"] == 1

    _peer(reply, scenario)


def test_chunked_stream_cut_before_its_last_chunk_is_not_complete():
    """EOF inside a chunked body is a truncated response, not its end."""
    cut = (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
        b"Transfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n"
        b'16\r\n{"event": "accepted"}\n\r\n',
    )

    async def scenario(port, seen):
        with pytest.raises(asyncio.IncompleteReadError):
            await stream_schedule("127.0.0.1", port, {})
        key = (asyncio.get_running_loop(), "127.0.0.1", port)
        assert not client._IDLE.get(key)
        assert seen["connections"] == 1

    _peer(lambda connection, index: cut, scenario)


def test_timed_out_stream_closes_its_connection_and_is_not_pooled():
    stall = (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
        b"Connection: keep-alive\r\n\r\n3\r\n{}\n\r\n"
    )

    async def scenario(port, seen):
        with pytest.raises(asyncio.TimeoutError):
            await stream_schedule("127.0.0.1", port, {}, timeout=0.3)
        key = (asyncio.get_running_loop(), "127.0.0.1", port)
        assert not client._IDLE.get(key)
        for _ in range(50):
            if seen["client_closed"]:
                break
            await asyncio.sleep(0.02)
        assert seen["client_closed"] == 1

    _peer(lambda connection, index: stall, scenario)


@pytest.mark.parametrize(
    "answer",
    [
        # Only EOF ends this body, so the peer closes after it.
        (b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n\r\n{}\n",),
        b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: close\r\n\r\n{}\n",
    ],
    ids=["unframed", "connection-close"],
)
def test_unframed_or_closing_responses_are_not_pooled(answer):
    def reply(connection, index):
        return answer

    async def scenario(port, seen):
        key = (asyncio.get_running_loop(), "127.0.0.1", port)
        for _ in range(2):
            assert await get_json("127.0.0.1", port, "/") == (200, {})
            assert not client._IDLE.get(key)
        assert seen["connections"] == 2

    _peer(reply, scenario)
