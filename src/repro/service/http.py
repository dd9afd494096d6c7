"""The service's one HTTP/1.1 dialect, both ends of the wire (stdlib only).

The service speaks HTTP/1.1 by hand over :func:`asyncio.start_server`;
there is deliberately no web framework.  The server
(:class:`HttpServer`) and :mod:`repro.service.client` share this
module's readers.  Its one interface to the application is
:data:`Handler`: a parsed :class:`Request` in; a :class:`JsonResponse`
or an :class:`EventStream` out.  Framing and keep-alive stay here.

Connections
-----------

Connections persist, as HTTP/1.1 makes the default: one connection
carries any number of requests in turn, each response delimited by its
``Content-Length`` or by the chunked terminator and stamped
``Connection: keep-alive``.  The server closes a connection

* after answering a request that says ``Connection: close``, or an
  HTTP/1.0 request that does not ask for ``keep-alive``;
* after an event stream to an HTTP/1.0 client, which cannot read chunks
  and so gets a body that ends when the connection closes;
* after answering a malformed request whose body it did not read with a
  ``400``;
* when the client closes or resets it;
* when it has waited :data:`IDLE_TIMEOUT_S` seconds for its next request;
* at shutdown (:meth:`HttpServer.aclose`).

The responses of the first three cases say ``Connection: close``.  An
event stream holds its connection until its last event has been sent.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from dataclasses import dataclass
from typing import AsyncGenerator, Callable, Optional, Union

#: Seconds a connection may wait for its next request before the server
#: closes it.
IDLE_TIMEOUT_S = 30.0

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    503: "Service Unavailable",
}

#: Terminator of a chunked response; it delimits each stream on a
#: persistent connection.  An unchunked stream ends with its connection.
_LAST_CHUNK = b"0\r\n\r\n"


# --------------------------------------------------------------------------- #
# The application interface
# --------------------------------------------------------------------------- #
@dataclass
class Request:
    """One parsed request: what it asks for, without its framing."""

    method: str
    target: str
    body: bytes


@dataclass
class JsonResponse:
    """A ``Content-Length`` JSON body with its status code."""

    status: int
    body: dict


@dataclass
class EventStream:
    """A ``200`` stream of ndjson events, one JSON line per event.

    A list of *events* goes out whole, head and terminator included, in
    one write and one drain.  An async generator's events go out one write
    and drain each, as it yields them.
    """

    events: Union[list[dict], AsyncGenerator[dict, None]]


#: Answers one request; called on the event loop for every request.
Handler = Callable[[Request], Union[JsonResponse, EventStream]]


# --------------------------------------------------------------------------- #
# Reading: header blocks, requests, response bodies
# --------------------------------------------------------------------------- #
async def read_headers(reader: asyncio.StreamReader) -> dict[str, str]:
    """Read a header block up to its blank line; names are lower-cased.

    Raises ``ValueError`` when the block exceeds 64 KiB.
    """
    headers: dict[str, str] = {}
    total = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return headers
        total += len(line)
        if total > _MAX_HEADER_BYTES:
            raise ValueError("header section too large")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[tuple[Request, bool, bool]]:
    """Read one request: ``(request, chunked, keep_alive)``.

    None when the client closed the connection before a request line.
    ``chunked`` says whether the client can read a chunked response, which
    only HTTP/1.1 defines.  ``keep_alive`` is HTTP/1.1's default unless
    the request says ``Connection: close``; HTTP/1.0 must ask for
    ``keep-alive``.  A malformed request raises ``ValueError`` or
    :class:`asyncio.IncompleteReadError`.
    """
    request_line = await reader.readline()
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise ValueError("malformed request line")
    method, target, version = parts
    headers = await read_headers(reader)
    if "transfer-encoding" in headers:
        # Only Content-Length frames a request body; anything else would
        # leave the rest of the body to be read as the next request.
        raise ValueError("request bodies must carry Content-Length")
    length = int(headers.get("content-length", "0") or "0")
    if length > _MAX_BODY_BYTES:
        raise ValueError("request body too large")
    body = await reader.readexactly(length) if length else b""
    tokens = {t.strip().lower() for t in headers.get("connection", "").split(",")}
    chunked = version == "HTTP/1.1"
    if chunked:
        keep_alive = "close" not in tokens
    else:
        keep_alive = "keep-alive" in tokens
    return Request(method, target, body), chunked, keep_alive


async def read_response_head(
    reader: asyncio.StreamReader, status_line: bytes
) -> tuple[int, dict[str, str]]:
    """The status code of *status_line* and the header block after it."""
    parts = status_line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ConnectionError(f"malformed status line: {status_line!r}")
    return int(parts[1]), await read_headers(reader)


async def _read_chunked(reader: asyncio.StreamReader) -> bytes:
    """A chunked body up to its zero-size terminator.

    EOF is never the end of a chunked body: one cut off before its
    terminator raises :class:`asyncio.IncompleteReadError` (``readuntil``
    and ``readexactly`` both do), as a short ``Content-Length`` body does.
    """
    parts = []
    while size := int(await reader.readuntil(b"\n"), 16):
        parts.append(await reader.readexactly(size))
        await reader.readexactly(2)  # chunk CRLF
    await reader.readuntil(b"\n")  # terminating CRLF
    return b"".join(parts)


async def read_body(
    reader: asyncio.StreamReader, headers: dict[str, str]
) -> tuple[bytes, bool]:
    """The response body, and whether its end was framed (not EOF)."""
    if headers.get("transfer-encoding", "").lower() == "chunked":
        return await _read_chunked(reader), True
    if "content-length" in headers:
        length = int(headers["content-length"])
        return (await reader.readexactly(length) if length else b""), True
    return await reader.read(), False


# --------------------------------------------------------------------------- #
# Writing: response heads and events
# --------------------------------------------------------------------------- #
def _head(status: int, content_type: str, framing: str, keep_alive: bool) -> bytes:
    """Status line and headers; *framing* is the header delimiting the body."""
    return (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"{framing}"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("latin-1")


def _event(event: dict, chunked: bool) -> bytes:
    """One event as one JSON line, in a chunk of its own when *chunked*."""
    line = (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
    if not chunked:
        return line
    return f"{len(line):x}\r\n".encode("latin-1") + line + b"\r\n"


async def _send(
    writer: asyncio.StreamWriter,
    response: Union[JsonResponse, EventStream],
    chunked: bool,
    keep_alive: bool,
) -> bool:
    """Write *response*; returns whether the connection stays open."""
    if isinstance(response, JsonResponse):
        body = (json.dumps(response.body, sort_keys=True) + "\n").encode("utf-8")
        length = f"Content-Length: {len(body)}\r\n"
        writer.write(_head(response.status, "application/json", length, keep_alive) + body)
        await writer.drain()
        return keep_alive
    # Without chunking (an HTTP/1.0 client) the body ends when the
    # connection closes, so the stream always says ``Connection: close``.
    framing = "Transfer-Encoding: chunked\r\n" if chunked else ""
    head = _head(200, "application/x-ndjson", framing, keep_alive and chunked)
    last = _LAST_CHUNK if chunked else b""
    events = response.events
    if isinstance(events, list):
        writer.write(head + b"".join(_event(e, chunked) for e in events) + last)
        await writer.drain()
    else:
        writer.write(head)
        async with contextlib.aclosing(events):
            async for event in events:
                writer.write(_event(event, chunked))
                await writer.drain()
        if chunked:
            writer.write(last)
            await writer.drain()
    return keep_alive and chunked


# --------------------------------------------------------------------------- #
# The server
# --------------------------------------------------------------------------- #
class HttpServer:
    """asyncio HTTP/1.1 server answering every request with *handler*.

    :meth:`_handle_connection` serves requests in turn on one connection
    until one of the cases of the module docstring's *Connections* closes
    it.  The server closes a connection of its own accord only while it
    is idle, so a client that finds a reused connection closed before any
    response byte knows its request was never read.  *on_connection* is
    called once per accepted connection.
    """

    def __init__(
        self,
        handler: Handler,
        on_connection: Callable[[], None],
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.host = host
        self.port = port
        self._handler = handler
        self._on_connection = on_connection
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: set[asyncio.Task] = set()  # one per open connection
        self._idle: set[asyncio.StreamWriter] = set()  # awaiting a request
        self._closed = False

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        """Stop listening, close every connection and wait until all have.

        Idle connections close at once, busy ones after their current
        response, so a pending event stream holds this until its handler
        ends it.  An idle connection left open would hold it for
        :data:`IDLE_TIMEOUT_S`, and so would it hold
        ``Server.wait_closed``, which waits for every open connection on
        Python 3.12+.
        """
        self._closed = True
        if self._server is not None:
            self._server.close()
            for writer in self._idle:
                writer.close()
            if self._tasks:
                await asyncio.wait(self._tasks)
            await self._server.wait_closed()
            self._server = None

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._on_connection()
        task = asyncio.current_task()
        self._tasks.add(task)
        loop = asyncio.get_running_loop()
        try:
            keep_alive = True
            while keep_alive and not self._closed:
                self._idle.add(writer)
                idle = loop.call_later(IDLE_TIMEOUT_S, writer.close)
                try:
                    parsed = await read_request(reader)
                except (ValueError, asyncio.IncompleteReadError) as exc:
                    if not writer.is_closing():
                        await _send(
                            writer,
                            JsonResponse(400, {"error": str(exc)}),
                            chunked=True,
                            keep_alive=False,
                        )
                    return
                finally:
                    idle.cancel()
                    self._idle.discard(writer)
                if parsed is None:
                    return
                request, chunked, keep_alive = parsed
                keep_alive = await _send(
                    writer, self._handler(request), chunked, keep_alive
                )
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response
        finally:
            self._tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
