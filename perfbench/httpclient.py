"""A minimal asyncio HTTP/1.1 client for the service workload.

The benchmark keeps its own client so the load generator shares no code with
the service it measures.  One :class:`Connection` is one keep-alive socket;
requests on it may be pipelined (sent before earlier responses arrive) and
their responses come back in send order, which is what an open-loop
generator on a single connection needs.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Tuple


class ConnectionBroken(Exception):
    """The server closed the socket or sent a response that does not parse."""


def encode_request(method: str, path: str, payload: Optional[dict] = None) -> bytes:
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"host: localhost\r\n"
        f"content-type: application/json\r\n"
        f"content-length: {len(body)}\r\n"
        f"connection: keep-alive\r\n\r\n"
    )
    return head.encode("latin-1") + body


class Connection:
    """One keep-alive connection: ``send`` writes, ``receive`` reads in order."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    def send(self, method: str, path: str, payload: Optional[dict] = None) -> None:
        self._writer.write(encode_request(method, path, payload))

    async def drain(self) -> None:
        await self._writer.drain()

    async def receive(self) -> Tuple[int, dict]:
        """Read the next response: ``(status, decoded JSON body)``."""
        try:
            status_line = await self._reader.readline()
            parts = status_line.split(b" ", 2)
            if len(parts) < 2:
                raise ConnectionBroken(f"bad status line {status_line!r}")
            status = int(parts[1])
            length = 0
            while True:
                line = await self._reader.readline()
                if line in (b"\r\n", b"\n"):
                    break
                if not line:
                    raise ConnectionBroken("connection closed inside the headers")
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            body = await self._reader.readexactly(length) if length else b""
        except (ConnectionError, asyncio.IncompleteReadError, ValueError) as error:
            raise ConnectionBroken(str(error)) from error
        return status, (json.loads(body) if body else {})

    async def request(self, method: str, path: str, payload: Optional[dict] = None) -> Tuple[int, dict]:
        """One closed-loop request: send, then wait for its response."""
        self.send(method, path, payload)
        await self.drain()
        return await self.receive()

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
