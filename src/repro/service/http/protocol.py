"""Minimal HTTP/1.1 wire protocol over asyncio streams.

The network front (:mod:`repro.service.http.server`) speaks plain
HTTP/1.1 with zero third-party dependencies, so the parser lives here:
request-line + header parsing with hard size limits, ``Content-Length``
body reads bounded by a byte budget, and response writers for both
fixed-length JSON replies and chunked transfer encoding (the NDJSON
event streams).

Scope is deliberate: no request pipelining guarantees beyond sequential
keep-alive, no request ``Transfer-Encoding: chunked`` (replied with
``411``/``501``), no multipart.  Everything a mosaic client needs — JSON
in, JSON/NDJSON/WebSocket out — fits in that subset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = [
    "HttpError",
    "HttpRequest",
    "REASONS",
    "json_object",
    "read_request",
    "response_head",
    "send_json",
    "write_chunk",
    "end_chunks",
]

#: Reason phrases for every status the front emits.
REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    426: "Upgrade Required",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

_MAX_REQUEST_LINE = 8192


class HttpError(Exception):
    """A request that must be answered with an error status.

    ``headers`` ride along so handlers can attach semantics to the
    failure — e.g. ``Retry-After`` on a 429/503.  ``code`` is a stable
    machine-readable taxonomy tag (``"unknown_field"``,
    ``"unknown_kind"``, ``"invalid_spec"``, ``"malformed_body"``, ...)
    carried in the JSON error body so clients can branch on the *class*
    of failure without parsing prose.
    """

    def __init__(
        self,
        status: int,
        message: str,
        headers: dict[str, str] | None = None,
        *,
        code: str | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})
        self.code = code

    def body(self) -> dict:
        """The JSON error body for this failure."""
        payload = {"error": self.message}
        if self.code is not None:
            payload["code"] = self.code
        return payload


def json_object(body: bytes) -> dict:
    """Decode ``body`` (a request body or a stdin job line) as a JSON object."""
    try:
        payload = json.loads(body.decode("utf-8")) if body else None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HttpError(
            400, f"invalid JSON body: {exc}", code="malformed_body"
        ) from None
    if not isinstance(payload, dict):
        raise HttpError(
            400, "request body must be a JSON object", code="malformed_body"
        )
    return payload


@dataclass
class HttpRequest:
    """One parsed request: start line, lowered headers, raw body."""

    method: str
    target: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes = b""
    version: str = "HTTP/1.1"
    peer: str = ""

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return "keep-alive" in connection
        return "close" not in connection

    def json(self) -> dict:
        """Decode the body as a JSON object (400 on anything else)."""
        return json_object(self.body)

    def int_query(self, name: str, default: int) -> int:
        """Parse an integer query parameter (400 on garbage)."""
        raw = self.query.get(name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise HttpError(
                400, f"query parameter {name!r} must be an integer, got {raw!r}"
            ) from None


async def read_request(
    reader,
    *,
    max_header_bytes: int = 32 * 1024,
    max_body_bytes: int = 1 << 20,
    peer: str = "",
    first: bytes = b"",
):
    """Parse one request from ``reader``; ``None`` on clean EOF.

    ``first`` holds the start of the request line when the caller has
    already read it (the server waits for a request's first byte apart
    from the rest, to tell an idle connection from a busy one).

    Raises :class:`HttpError` for protocol violations (the caller turns
    it into an error response) and lets connection errors propagate.
    """
    request_line = first
    if not first.endswith(b"\n"):
        try:
            request_line += await reader.readline()
        except (ConnectionError, ValueError):
            return None
    if not request_line:
        return None  # peer closed between requests
    if len(request_line) > _MAX_REQUEST_LINE:
        raise HttpError(431, "request line too long")
    try:
        method, target, version = request_line.decode("ascii").split()
    except (UnicodeDecodeError, ValueError):
        raise HttpError(400, "malformed request line") from None
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpError(501, f"unsupported protocol version {version}")

    headers: dict[str, str] = {}
    header_bytes = 0
    while True:
        try:
            line = await reader.readline()
        except ValueError:  # single header line beyond the stream limit
            raise HttpError(431, "request header line too long") from None
        header_bytes += len(line)
        if header_bytes > max_header_bytes:
            raise HttpError(431, "request headers too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep or not name or name != name.strip():
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked request bodies are not supported")
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "malformed Content-Length") from None
        if length < 0:
            raise HttpError(400, "negative Content-Length")
        if length > max_body_bytes:
            raise HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit",
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except Exception:  # noqa: BLE001 - incomplete read == peer gone
                return None
    elif method in ("POST", "PUT", "PATCH"):
        raise HttpError(411, "POST requires Content-Length")

    split = urlsplit(target)
    query = {key: value for key, value in parse_qsl(split.query)}
    return HttpRequest(
        method=method.upper(),
        target=target,
        path=unquote(split.path) or "/",
        query=query,
        headers=headers,
        body=body,
        version=version,
        peer=peer,
    )


def response_head(
    status: int, headers: dict[str, str] | None = None
) -> bytes:
    """Serialize a status line plus headers (terminated by CRLFCRLF)."""
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def send_json(
    writer,
    status: int,
    payload: dict | list,
    *,
    headers: dict[str, str] | None = None,
    keep_alive: bool = True,
) -> None:
    """Write one complete JSON response (does not drain)."""
    body = (json.dumps(payload, default=str) + "\n").encode("utf-8")
    head = {
        "Content-Type": "application/json; charset=utf-8",
        "Content-Length": str(len(body)),
        "Connection": "keep-alive" if keep_alive else "close",
    }
    head.update(headers or {})
    writer.write(response_head(status, head) + body)


def write_chunk(writer, data: bytes) -> None:
    """Write one chunk of a chunked-transfer response body."""
    if not data:
        return  # an empty chunk would terminate the stream
    writer.write(f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n")


def end_chunks(writer) -> None:
    """Terminate a chunked-transfer response body."""
    writer.write(b"0\r\n\r\n")
