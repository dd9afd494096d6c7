"""Minimal asyncio HTTP client for the service (stdlib only).

Speaks exactly the dialect :mod:`repro.service.server` emits — HTTP/1.1
persistent connections, chunked ``application/x-ndjson`` streams for
``/v1/schedule`` and ``Content-Length`` JSON bodies elsewhere.  Used by
the service tests and the load-test harness; it is *not* a general HTTP
client.

Connections are reused.  Each request takes an idle connection from a
pool keyed by (running event loop, host, port), or opens a new one, so a
caller that sends its requests one after another holds one connection.
A connection returns to the pool only after a complete response that
said ``Connection: keep-alive`` and was delimited by ``Content-Length``
or the chunked terminator.  An exchange that fails, is cancelled or
times out closes its connection: a half-read response would corrupt the
next caller's.

The server closes a connection only while it is idle (after its idle
timeout, or at shutdown), so a *reused* connection that hits EOF or a
reset before the first byte of the status line carried a request the
server never read; that request is sent once more on a fresh
connection.  No other failure is retried.
"""

from __future__ import annotations

import asyncio
import json
from typing import AsyncIterator, Optional

_Connection = tuple[asyncio.StreamReader, asyncio.StreamWriter]
_Key = tuple[asyncio.AbstractEventLoop, str, int]  # (loop, host, port)

#: Idle keep-alive connections by (event loop, host, port).  Entries of a
#: closed loop are dropped when a new key is first used;
#: :func:`close_idle_connections` drops an address's entries at once.
_IDLE: dict[_Key, list[_Connection]] = {}


class _StaleConnection(Exception):
    """A reused connection ended before the response's first byte."""


def _checkout(key: _Key) -> Optional[_Connection]:
    idle = _IDLE.get(key)
    if idle is None:
        for stale in [k for k in list(_IDLE) if k[0].is_closed()]:
            del _IDLE[stale]
        return None
    return idle.pop() if idle else None


def close_idle_connections(host: str, port: int) -> None:
    """Close and forget every pooled connection to *host*:*port*."""
    for key in [k for k in list(_IDLE) if k[1:] == (host, port)]:
        loop_closed = key[0].is_closed()
        for _reader, writer in _IDLE.pop(key):
            if not loop_closed:
                writer.close()


async def _read_status_and_headers(
    reader: asyncio.StreamReader, status_line: bytes
) -> tuple[int, dict[str, str]]:
    parts = status_line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ConnectionError(f"malformed status line: {status_line!r}")
    status = int(parts[1])
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers


async def _iter_chunks(reader: asyncio.StreamReader) -> AsyncIterator[bytes]:
    while True:
        size_line = await reader.readline()
        size = int(size_line.strip() or b"0", 16)
        if size == 0:
            await reader.readline()  # terminating CRLF
            return
        data = await reader.readexactly(size)
        await reader.readexactly(2)  # chunk CRLF
        yield data


async def _read_body(
    reader: asyncio.StreamReader, headers: dict[str, str]
) -> tuple[bytes, bool]:
    """The response body, and whether its end was framed (not EOF)."""
    if headers.get("transfer-encoding", "").lower() == "chunked":
        parts = [chunk async for chunk in _iter_chunks(reader)]
        return b"".join(parts), True
    if "content-length" in headers:
        length = int(headers["content-length"])
        return (await reader.readexactly(length) if length else b""), True
    return await reader.read(), False


async def _exchange(
    key: _Key,
    connection: _Connection,
    request: bytes,
    reused: bool,
) -> tuple[int, bytes]:
    reader, writer = connection
    pooled = False
    try:
        try:
            writer.write(request)
            await writer.drain()
            status_line = await reader.readline()
        except ConnectionError:
            if reused:
                raise _StaleConnection from None
            raise
        if not status_line:
            if reused:
                raise _StaleConnection
            raise ConnectionError("server closed the connection before responding")
        status, headers = await _read_status_and_headers(reader, status_line)
        payload, framed = await _read_body(reader, headers)
        if framed and headers.get("connection", "").lower() == "keep-alive":
            _IDLE.setdefault(key, []).append(connection)
            pooled = True
        return status, payload
    finally:
        if not pooled:
            writer.close()


async def _round_trip(host: str, port: int, request: bytes) -> tuple[int, bytes]:
    """Send *request* on a pooled or fresh connection; ``(status, body)``."""
    key = (asyncio.get_running_loop(), host, port)
    connection = _checkout(key)
    if connection is not None:
        try:
            return await _exchange(key, connection, request, reused=True)
        except _StaleConnection:
            pass
    connection = await asyncio.open_connection(host, port)
    return await _exchange(key, connection, request, reused=False)


def _parse_ndjson(payload: bytes) -> list[dict]:
    events = []
    for line in payload.decode("utf-8").splitlines():
        line = line.strip()
        if line:
            events.append(json.loads(line))
    return events


async def stream_schedule(
    host: str,
    port: int,
    doc: dict,
    timeout: Optional[float] = 120.0,
) -> tuple[int, list[dict]]:
    """POST *doc* to ``/v1/schedule``; return ``(status, events)``.

    On 200 the events are the full anytime stream in arrival order
    (``accepted``, ``witness``, ``result``); on 4xx/5xx the single error
    body is returned as a one-element list.  *timeout* bounds the whole
    exchange.
    """
    body = json.dumps(doc).encode("utf-8")
    request = (
        "POST /v1/schedule HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    ).encode("latin-1") + body

    status, payload = await asyncio.wait_for(
        _round_trip(host, port, request), timeout
    )
    return status, _parse_ndjson(payload)


async def get_json(
    host: str,
    port: int,
    path: str,
    timeout: Optional[float] = 30.0,
) -> tuple[int, dict]:
    """GET *path*; return ``(status, parsed JSON body)``."""
    request = f"GET {path} HTTP/1.1\r\nHost: {host}:{port}\r\n\r\n".encode("latin-1")

    status, payload = await asyncio.wait_for(
        _round_trip(host, port, request), timeout
    )
    return status, json.loads(payload.decode("utf-8"))
