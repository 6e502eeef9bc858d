"""Wire protocol of the image service (DESIGN.md §13).

Length-prefixed JSON over a stream socket — the simplest protocol that
is still *framed* (a reader always knows where a message ends) and
*machine-readable* on both the happy and the rejection path:

* **Framing.**  Every message is a 4-byte big-endian unsigned length
  followed by that many bytes of UTF-8 JSON.  Frames above
  :data:`MAX_FRAME_BYTES` are refused on both sides (an oversized
  *announced* length is rejected before any payload is read, so a
  hostile or buggy peer cannot make the server buffer gigabytes); a
  connection that ends mid-frame is a *torn frame* and raises
  :class:`~repro.errors.ProtocolError` instead of yielding garbage.
* **Requests** are objects ``{"op": str, "tenant": str | None,
  "args": {...}}``.  The op names are enumerated in
  :data:`REQUEST_OPS`; unknown ops are rejected with code
  ``unknown-op``, malformed requests with ``bad-request``.
* **Responses** are ``{"ok": true, "result": {...}}`` or
  ``{"ok": false, "error": {"code": str, "message": str,
  "retriable": bool, ...}}``.  :func:`error_payload` maps the
  library's exception hierarchy onto stable error codes (and carries
  structured diagnostics — a :class:`~repro.errors.
  WorkspaceLockedError` travels with its ``holder_pid``);
  :func:`exception_from_payload` restores a *typed* exception on the
  client, so ``except QuotaExceededError`` works across the wire.

**Corpus sources.**  VMIs are never shipped over the socket: the
synthetic corpora are pure functions of their configuration, so a
publish request names ``(source, item)`` and the server builds the
identical image locally (:func:`table2_source`, :func:`scale_source`
build the source descriptors).  This mirrors how a registry ingests
by reference, keeps frames tiny, and is what lets the differential
suite demand byte-identical repositories on both ends.
"""

from __future__ import annotations

import hashlib
import json
import socket
import struct

from repro.errors import (
    AdmissionRejectedError,
    LockTimeoutError,
    NotInRepositoryError,
    ProtocolError,
    QuotaExceededError,
    RemoteError,
    ReproError,
    UnknownTenantError,
    WorkspaceError,
    WorkspaceLockedError,
)

__all__ = [
    "ADMISSION_CODES",
    "GENERIC_CODES",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "REQUEST_OPS",
    "error_payload",
    "exception_from_payload",
    "fsck_result",
    "gc_result",
    "make_request",
    "manifest_digest",
    "ok_payload",
    "recv_message",
    "scale_source",
    "send_message",
    "table2_source",
]

#: bumped when the message shapes change incompatibly
PROTOCOL_VERSION = 1

#: hard ceiling on one frame's JSON payload; far above any legitimate
#: request/response, far below anything that could hurt the server
MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct("!I")

#: every reason code an :class:`AdmissionRejectedError` may carry —
#: the one branch of :func:`error_payload` whose code is dynamic
#: (``exc.code``), enumerated here so the code <-> exception mapping
#: stays statically checkable (reprolint RL006, DESIGN.md §16)
ADMISSION_CODES = ("overloaded", "tenant-busy", "draining")

#: emitted codes the client deliberately degrades to
#: :class:`RemoteError`: the server-side class carries no diagnostics
#: worth a dedicated client-side constructor
GENERIC_CODES = ("workspace-error", "repro-error", "internal")

#: every operation the server understands; "tenant" column of the
#: dispatch — namespaced ops require one, admin ops may omit it
REQUEST_OPS = (
    "ping",
    "publish",
    "publish-many",
    "retrieve",
    "retrieve-many",
    "delete",
    "delete-many",
    "gc",
    "fsck",
    "stats",
    "checkpoint",
    "shutdown",
)


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def encode_frame(message: dict) -> bytes:
    """Serialise one message as a length-prefixed JSON frame.

    Raises:
        ProtocolError: the encoded payload exceeds
            :data:`MAX_FRAME_BYTES` (the sender must not emit a frame
            the receiver is contractually bound to refuse).
    """
    payload = json.dumps(
        message, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte protocol limit"
        )
    return _HEADER.pack(len(payload)) + payload


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; None on clean EOF at a frame boundary.

    Raises:
        ProtocolError: the peer vanished mid-frame (torn frame).
    """
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 65536))
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(
                f"torn frame: connection closed after {got} of "
                f"{n} expected bytes"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> dict | None:
    """Read one framed message; None on clean end-of-stream.

    Raises:
        ProtocolError: oversized announced length, torn frame,
            non-JSON payload, or a payload that is not an object.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"announced frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte protocol limit"
        )
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError(
            "torn frame: connection closed between header and payload"
        )
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got "
            f"{type(message).__name__}"
        )
    return message


def send_message(sock: socket.socket, message: dict) -> None:
    """Frame and send one message."""
    sock.sendall(encode_frame(message))


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


def make_request(
    op: str, tenant: str | None = None, **args
) -> dict:
    """Build a request message (the client's only constructor)."""
    return {"op": op, "tenant": tenant, "args": args}


def table2_source() -> dict:
    """Source descriptor for the 19-image Table II corpus (items are
    image names)."""
    return {"kind": "table2"}


def scale_source(
    n_vmis: int, n_families: int = 8, seed: str = "scale"
) -> dict:
    """Source descriptor for a generated scale corpus (items are
    integer VMI indices)."""
    return {
        "kind": "scale",
        "n_vmis": n_vmis,
        "n_families": n_families,
        "seed": seed,
    }


def manifest_digest(manifest) -> str:
    """Process-stable content digest of a file manifest.

    blake2b over the manifest's content-id and size vectors — two
    manifests are byte-identical iff their digests match, and the
    digest is stable across processes (``hash()`` is not), so the
    differential suite can compare a server response against a local
    retrieval.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(manifest.content_ids.tobytes())
    h.update(manifest.sizes.tobytes())
    return h.hexdigest()


def gc_result(report) -> dict:
    """The ``gc`` op's result: a :class:`~repro.repository.gc.GCReport`
    as it crosses the wire (the CLI prints local passes from it too)."""
    return {
        "mode": report.mode,
        "reclaimed_bytes": report.reclaimed_bytes,
        "removed_packages": report.removed_packages,
        "removed_user_data": report.removed_user_data,
        "removed_bases": report.removed_bases,
        "records_scanned": report.records_scanned,
        "graph_rebuilds": report.graph_rebuilds,
        "simulated_seconds": report.gc_seconds,
    }


def fsck_result(report) -> dict:
    """The repository part of the ``fsck`` op's result: a
    :class:`~repro.repository.fsck.FsckReport` as it crosses the wire
    (the server appends its own tenant-registry findings)."""
    return {
        "clean": report.clean,
        "checked_blobs": report.checked_blobs,
        "checked_vmis": report.checked_vmis,
        "findings": [str(f) for f in report.findings],
    }


# ---------------------------------------------------------------------------
# responses and the error-code mapping
# ---------------------------------------------------------------------------


def ok_payload(result: dict) -> dict:
    return {"ok": True, "result": result}


def error_payload(exc: BaseException) -> dict:
    """Map an exception onto the machine-readable error response.

    Typed library errors keep their diagnostics: a
    :class:`WorkspaceLockedError` carries the holder pid (the
    operator's first question), quota errors carry the exact byte
    arithmetic, admission rejections their reason code.  Anything
    unexpected maps to ``internal`` — the message crosses the wire,
    the traceback never does.
    """
    error: dict = {"message": str(exc), "retriable": False}
    if isinstance(exc, AdmissionRejectedError):
        error.update(code=exc.code, retriable=True, tenant=exc.tenant)
    elif isinstance(exc, QuotaExceededError):
        error.update(
            code="quota-exceeded",
            tenant=exc.tenant,
            requested_bytes=exc.requested_bytes,
            used_bytes=exc.used_bytes,
            limit_bytes=exc.limit_bytes,
        )
    elif isinstance(exc, UnknownTenantError):
        error.update(code="unknown-tenant", tenant=exc.tenant)
    elif isinstance(exc, WorkspaceLockedError):
        error.update(
            code="workspace-locked",
            holder_pid=exc.holder_pid,
            path=str(exc.path),
            retriable=True,
        )
    elif isinstance(exc, WorkspaceError):  # reprolint: generic
        error.update(code="workspace-error")
    elif isinstance(exc, LockTimeoutError):  # reprolint: generic
        error.update(code="lock-timeout", retriable=True)
    elif isinstance(exc, NotInRepositoryError):
        error.update(
            code="not-found", kind=exc.kind, key=str(exc.key)
        )
    elif isinstance(exc, ProtocolError):
        error.update(code="bad-request")
    elif isinstance(exc, RemoteError):
        error.update(code=exc.code)
    elif isinstance(exc, ReproError):  # reprolint: generic
        error.update(code="repro-error")
    else:
        error.update(code="internal")
    return {"ok": False, "error": error}


def exception_from_payload(error: dict) -> ReproError:
    """Restore a typed exception from an error response.

    The inverse of :func:`error_payload` for every code with a
    dedicated class; unknown or generic codes come back as
    :class:`RemoteError` carrying the code.
    """
    code = error.get("code", "internal")
    message = error.get("message", "server error")
    if code in ADMISSION_CODES:
        return AdmissionRejectedError(
            code, message, tenant=error.get("tenant")
        )
    if code == "quota-exceeded":
        return QuotaExceededError(
            error.get("tenant", "?"),
            requested_bytes=error.get("requested_bytes", 0),
            used_bytes=error.get("used_bytes", 0),
            limit_bytes=error.get("limit_bytes", 0),
        )
    if code == "unknown-tenant":
        return UnknownTenantError(error.get("tenant", "?"))
    if code == "workspace-locked":
        return WorkspaceLockedError(
            error.get("path", "?"), error.get("holder_pid", 0)
        )
    if code == "not-found":
        return NotInRepositoryError(
            error.get("kind", "object"), error.get("key", "?")
        )
    if code == "bad-request":
        return ProtocolError(message)
    if code == "lock-timeout":
        return RemoteError(code, message)
    return RemoteError(code, message)
