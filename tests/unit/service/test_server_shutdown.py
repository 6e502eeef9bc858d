"""Unit: stopping the server under idle connections is quiet.

``stop()`` closes every client socket, including ones whose reader
thread is about to block in (or is between) ``recv`` calls.  That
read fails with ``OSError``; it must end the connection as a hang-up,
never escape as an unhandled thread exception.
"""

import socket
import threading
import time

from repro.core.system import Expelliarmus
from repro.service.server import ImageServer, ServerConfig

ROUNDS = 50


def _wait_for_threads_to_end(before, timeout=5.0):
    """Until every thread started since ``before`` has run to its end
    (``enumerate`` lists started threads that have not yet run too)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        left = set(threading.enumerate()) - before
        if not left:
            return
        time.sleep(0.005)
    raise AssertionError(f"threads still running: {sorted(t.name for t in left)}")


def test_stop_under_idle_connections_raises_nothing_in_threads(
    monkeypatch,
):
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    for _ in range(ROUNDS):
        before = set(threading.enumerate())
        server = ImageServer(
            Expelliarmus(),
            ServerConfig(workers=1, checkpoint_idle_s=None),
        )
        client = socket.create_connection(server.start())
        try:
            server.stop()
        finally:
            client.close()
        _wait_for_threads_to_end(before)
    assert escaped == []
