"""The byte transport between the cluster and its workers.

A worker process talks to its cluster over one :class:`SocketTransport`: one
end of a ``socket.socketpair()`` the cluster creates before the fork, so both
processes share a kernel stream and nothing is dialed, accepted or
bootstrapped.  A stream has no message boundaries, so every message is
length-prefixed (:func:`repro.net.frame_payload`) and goes out as one
``sendall``; a receive reads the 4-byte length, then reads the message into a
buffer of exactly that size, each ``recv_into`` waiting for all its bytes
(``MSG_WAITALL``).  Each transport registers its socket with one
``select.poll`` object at construction, so a readiness check is a single
``poll`` call and never builds a selector.

``EOFError`` uniformly means "peer closed"; callers translate it into the
typed worker-failure errors of :mod:`repro.serving.control.failure`.

:class:`PipeTransport`, :class:`SocketListener` and
:meth:`SocketTransport.connect` serve only the benchmark harness's transport
echo (``benchmarks/harness/layers.py``), which still compares a
``multiprocessing`` pipe with a loopback TCP connection; the cluster uses
none of them.
"""

from __future__ import annotations

import abc
import select
import socket
from typing import Any, Optional, Tuple

from repro.net import FRAME_HEADER_BYTES, frame_length, frame_payload

__all__ = ["Transport", "PipeTransport", "SocketTransport", "SocketListener"]

#: a stream read that waits for the whole buffer (0 where the platform lacks it)
_WAITALL = getattr(socket, "MSG_WAITALL", 0)


class Transport(abc.ABC):
    """The four operations a framed request/reply channel needs."""

    @abc.abstractmethod
    def send_bytes(self, data: bytes) -> None:
        """Send one complete message."""

    @abc.abstractmethod
    def recv_bytes(self) -> bytes:
        """Block for one complete message; raise ``EOFError`` on peer close."""

    @abc.abstractmethod
    def poll(self, timeout: float = 0.0) -> bool:
        """True when a message (or EOF) is ready within ``timeout`` seconds."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release the channel (idempotent)."""


class SocketTransport(Transport):
    """Length-prefixed messages over one connected stream socket.

    The cluster wraps its end of each worker's ``socketpair()`` and the
    worker the other.  ``read_timeout`` bounds every blocking socket
    operation; the cluster leaves it ``None`` and polls with its own deadline
    before each read instead.
    """

    def __init__(self, sock: socket.socket, read_timeout: Optional[float] = None):
        if sock.family == socket.AF_INET:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(read_timeout)
        self._sock = sock
        self._poller = select.poll()
        self._poller.register(sock, select.POLLIN)
        #: reused for every message's length prefix
        self._header = bytearray(FRAME_HEADER_BYTES)
        self._closed = False

    @property
    def sock(self) -> socket.socket:
        """The wrapped socket (a forked worker closes its inherited copy)."""
        return self._sock

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        connect_timeout: float = 5.0,
        read_timeout: Optional[float] = None,
    ) -> "SocketTransport":
        """Dial ``host:port`` over TCP (the harness's socket echo only)."""
        sock = socket.create_connection((host, port), timeout=connect_timeout)
        return cls(sock, read_timeout=read_timeout)

    # -- Transport interface ---------------------------------------------------

    def send_bytes(self, data: bytes) -> None:
        if self._closed:
            raise OSError("transport is closed")
        self._sock.sendall(frame_payload(data))

    def recv_bytes(self) -> bytearray:
        header = self._header
        try:
            received = self._sock.recv_into(header, FRAME_HEADER_BYTES, _WAITALL)
            if received < FRAME_HEADER_BYTES:
                self._finish(header, received)
            length = frame_length(header)
            body = bytearray(length)
            received = self._sock.recv_into(body, length, _WAITALL)
            if received < length:
                self._finish(body, received)
        except ConnectionError:
            raise EOFError("connection reset by peer") from None
        return body

    def poll(self, timeout: float = 0.0) -> bool:
        if self._closed:
            raise OSError("transport is closed")
        # select.poll takes milliseconds; POLLHUP/POLLERR count as ready, so
        # a closed peer surfaces as EOF on the next read.
        return bool(self._poller.poll(timeout * 1000.0 if timeout > 0 else 0))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    # -- internals -------------------------------------------------------------

    def _finish(self, buffer: bytearray, received: int) -> None:
        """Complete a short read: a signal, a peer mid-write, or a read timeout."""
        view = memoryview(buffer)
        while received < len(buffer):
            chunk = self._sock.recv_into(view[received:])
            if not chunk:
                raise EOFError("peer closed the connection")
            received += chunk


class PipeTransport(Transport):
    """Adapter over a ``multiprocessing`` duplex pipe ``Connection``.

    Kept for the harness's pipe echo only; every call is a plain delegation.
    """

    def __init__(self, connection: Any):
        self.connection = connection

    def send_bytes(self, data: bytes) -> None:
        self.connection.send_bytes(data)

    def recv_bytes(self) -> bytes:
        return self.connection.recv_bytes()

    def poll(self, timeout: float = 0.0) -> bool:
        return self.connection.poll(timeout)

    def close(self) -> None:
        try:
            self.connection.close()
        except OSError:
            pass


class SocketListener:
    """Bind a TCP port and accept connections (the harness's socket echo only)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, backlog: int = 4):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(backlog)
        self._closed = False

    @property
    def address(self) -> Tuple[str, int]:
        return self._sock.getsockname()[:2]

    @property
    def port(self) -> int:
        return self.address[1]

    def accept(self, timeout: Optional[float] = None) -> SocketTransport:
        """Accept one connection (raises ``socket.timeout`` past ``timeout``)."""
        self._sock.settimeout(timeout)
        conn, _addr = self._sock.accept()
        conn.settimeout(None)
        return SocketTransport(conn)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "SocketListener":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
