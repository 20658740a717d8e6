"""HTTP/WebSocket network front for the mosaic job service.

The subsystem that makes the streaming gateway reachable over a socket:

* :mod:`repro.service.http.protocol` — dependency-free HTTP/1.1 parsing
  and response/chunked-transfer writers;
* :mod:`repro.service.http.websocket` — the RFC 6455 subset (handshake
  digest, text/ping/pong/close frames);
* :mod:`repro.service.http.broker` — replayable per-job event logs with
  ``from_seq`` resume over any number of subscribers;
* :mod:`repro.service.http.server` — :class:`HttpServerCore`, the
  asyncio server every network role runs (routes, auth, limits,
  metrics, event streams, graceful drain), and :class:`HttpFront`, its
  single-box role over one gateway.

``photomosaic serve-http`` is the CLI entry point;
:mod:`repro.service.client` is the matching stdlib client library.  See
``docs/service.md`` ("HTTP API") for the endpoint reference.
"""

from __future__ import annotations

from repro.service.http.broker import EventLog, JobEventBroker
from repro.service.http.protocol import HttpError, HttpRequest
from repro.service.http.server import HttpFront, HttpFrontConfig, HttpServerCore

__all__ = [
    "EventLog",
    "JobEventBroker",
    "HttpError",
    "HttpRequest",
    "HttpFront",
    "HttpFrontConfig",
    "HttpServerCore",
]
