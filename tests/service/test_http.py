"""The HTTP/1.1 dialect of :mod:`repro.service.http`, read from bytes.

These tests feed a :class:`asyncio.StreamReader` directly, so each rule of
request parsing, header reading and chunk framing is checked on its own,
without a socket or a service behind it.
"""

import asyncio

import pytest

from repro.service import http


def _read(coro_fn, data: bytes):
    """Run ``coro_fn(reader)`` on a reader holding *data*, then EOF."""

    async def _main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await coro_fn(reader), await reader.read()

    return asyncio.run(_main())


@pytest.mark.parametrize(
    "version, connection, chunked, keep_alive",
    [
        ("HTTP/1.1", None, True, True),
        ("HTTP/1.1", "close", True, False),
        ("HTTP/1.1", "Keep-Alive, Close", True, False),
        ("HTTP/1.0", None, False, False),
        ("HTTP/1.0", "keep-alive", False, True),
        ("HTTP/1.0", "close", False, False),
    ],
    ids=["1.1", "1.1-close", "1.1-token-list", "1.0", "1.0-keep-alive", "1.0-close"],
)
def test_request_version_and_connection_decide_framing(
    version, connection, chunked, keep_alive
):
    head = f"GET /stats {version}\r\nHost: x\r\n"
    if connection is not None:
        head += f"Connection: {connection}\r\n"
    (request, got_chunked, got_keep_alive), rest = _read(
        http.read_request, (head + "\r\n").encode("latin-1")
    )
    assert (request.method, request.target, request.body) == ("GET", "/stats", b"")
    assert (got_chunked, got_keep_alive) == (chunked, keep_alive)
    assert rest == b""


def test_request_reads_exactly_its_body_and_leaves_the_next_request():
    first = b'POST /schedule HTTP/1.1\r\nContent-Length: 7\r\n\r\n{"a":1}'
    second = b"GET /stats HTTP/1.1\r\n\r\n"
    (request, _, _), rest = _read(http.read_request, first + second)
    assert request.body == b'{"a":1}'
    assert rest == second


def test_eof_before_a_request_line_is_no_request():
    assert _read(http.read_request, b"") == (None, b"")


def test_request_body_over_the_limit_is_refused_unread():
    length = 8 * 1024 * 1024 + 1
    head = f"POST /schedule HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
    with pytest.raises(ValueError, match="too large"):
        _read(http.read_request, head.encode("latin-1") + b"{")


def test_header_names_are_lower_cased_and_values_stripped():
    block = b"Content-Type:  application/json \r\nX-Odd-Name:a:b\r\n\r\ntail"
    headers, rest = _read(http.read_headers, block)
    assert headers == {"content-type": "application/json", "x-odd-name": "a:b"}
    assert rest == b"tail"


def test_malformed_status_line_raises_connection_error():
    async def head(reader):
        return await http.read_response_head(reader, b"HTTP/1.1 OK\r\n")

    with pytest.raises(ConnectionError, match="malformed status line"):
        _read(head, b"\r\n")


def test_encoded_events_decode_back_through_the_chunk_reader():
    events = [{"event": "accepted", "id": 1}, {"event": "result", "ok": True}]
    body = b"".join(http._event(e, chunked=True) for e in events) + http._LAST_CHUNK
    (decoded, framed), rest = _read(
        lambda r: http.read_body(r, {"transfer-encoding": "chunked"}), body + b"next"
    )
    assert framed
    assert decoded == b"".join(http._event(e, chunked=False) for e in events)
    assert rest == b"next"


@pytest.mark.parametrize(
    "cut",
    [
        b'16\r\n{"event": "accepted"}\n\r\n',
        b"16\r\n",
        b'16\r\n{"event": "acc',
        b'16\r\n{"event": "accepted"}\n\r\n0\r\n',
    ],
    ids=["after-a-whole-chunk", "after-size-line", "inside-chunk-data", "before-final-crlf"],
)
def test_chunked_body_cut_short_raises_incomplete_read(cut):
    with pytest.raises(asyncio.IncompleteReadError):
        _read(lambda r: http.read_body(r, {"transfer-encoding": "chunked"}), cut)


def test_unframed_body_reads_to_eof_and_says_so():
    (body, framed), rest = _read(lambda r: http.read_body(r, {}), b"all of it")
    assert (body, framed, rest) == (b"all of it", False, b"")
