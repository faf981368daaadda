"""The serve wire protocol: line-delimited JSON over a stream socket.

One request, one response, each a single JSON object on its own
``\\n``-terminated line.  A connection may carry any number of
request/response pairs in sequence.  Binary payloads (simulation
results) travel base64-encoded in the store's own object-file encoding
(:mod:`repro.store.serialize`), so a daemon answer is **bit-identical**
to a local ``run_matrix`` by construction — the client decodes exactly
the bytes a store hit would have produced.

Requests::

    {"op": "ping"}
    {"op": "status"}
    {"op": "metrics"}
    {"op": "drain"}
    {"op": "matrix", "benchmarks": [...], "widths": [...],
     "archs": [...], "layouts": [...], "instructions": N,
     "warmup": N | null, "scale": F, "deadline": SECONDS | null}
    {"op": "store_has", "version": SALT, "kind": K, "fps": [...] | null}
    {"op": "store_get", "version": SALT, "kind": K, "fp": FP}
    {"op": "store_put", "version": SALT, "kind": K, "fp": FP,
     "oid": OID, "data": BASE64, "meta": {...} | null}

The ``store_*`` ops (:mod:`repro.store.remote`) expose the daemon's
local artifact store to federated peers; ``version`` is the
``FORMAT_VERSION:code_version`` salt, so peers of a different code
generation are detected at the first request rather than mixing
incompatible artifacts.

Responses carry ``{"ok": true, ...}`` or a **typed error**
``{"ok": false, "error": CODE, "message": ...}`` with ``CODE`` one of

``bad_request``
    The request line did not parse or validate; nothing was admitted.
``overloaded``
    Admission control refused the request (queue at capacity, or its
    deadline cannot be met); nothing was queued.  Back off and retry.
``draining``
    The daemon is shutting down and no longer admits work.
``internal``
    The daemon hit an unexpected error serving this request.
``frame_too_large``
    The request line exceeded the daemon's frame limit (advertised as
    ``max_frame`` in the ``ping`` response); the connection is closed
    after the error, since the remainder of the oversized line is
    unparseable.
``integrity``
    A ``store_put`` payload failed oid verification (flipped bit in
    transit or a lying client); nothing was stored.
``version_skew``
    A ``store_*`` request's ``version`` salt does not match the
    daemon's; the response carries the daemon's ``version`` so the
    peer can warn once and stop asking.
``no_store``
    A ``store_*`` request reached a storeless daemon.

A ``matrix`` response's ``cells`` list follows the deterministic
enumeration of :func:`repro.experiments.runner.matrix_specs`; each
entry reports its own ``status`` — ``"ok"`` (with the encoded result
and a ``source`` of ``store`` / ``computed`` / ``coalesced``),
``"failed"`` (the cell exhausted the daemon's fault policy) or
``"deadline"`` (the request's deadline expired first; the daemon may
still finish and store the cell for the next request).
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass
from typing import IO, Any, Dict, List, Optional, Sequence, Tuple

from repro.core.results import SimulationResult
from repro.store import serialize
from repro.store.serialize import ArtifactDecodeError

PROTOCOL_VERSION = 1

#: One request or response line may not exceed this (a full-suite
#: matrix response with base64 results fits comfortably; an unbounded
#: line is a memory DoS on either side).
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Typed error codes (the closed set clients may dispatch on).
ERROR_BAD_REQUEST = "bad_request"
ERROR_OVERLOADED = "overloaded"
ERROR_DRAINING = "draining"
ERROR_INTERNAL = "internal"
ERROR_FRAME_TOO_LARGE = "frame_too_large"
ERROR_INTEGRITY = "integrity"
ERROR_VERSION_SKEW = "version_skew"
ERROR_NO_STORE = "no_store"

#: Per-cell statuses in a matrix response.
CELL_OK = "ok"
CELL_FAILED = "failed"
CELL_DEADLINE = "deadline"

_OPS = ("ping", "status", "metrics", "matrix", "drain",
        "store_has", "store_get", "store_put")


class ProtocolError(Exception):
    """A malformed or oversized message (maps to ``bad_request``)."""


class FrameTooLarge(ProtocolError):
    """A message line exceeded the frame limit (``frame_too_large``).

    Subclasses :class:`ProtocolError` so existing catch-all handling
    keeps working; servers catch it first to answer with the typed
    code and the limit that was exceeded.
    """


#: Late-bound network fault-injection seam.  ``repro.exec.faults``
#: points this at its handler when an active ``$REPRO_FAULTS`` plan
#: carries ``net_*`` kinds; otherwise it stays ``None`` and framing
#: pays one attribute test per message.  Called as
#: ``hook(direction, target, stream, data)`` with ``direction`` in
#: ``("write", "read")``, ``target`` the caller-supplied routing label
#: (the client passes ``"host:port"``; servers pass ``""``) and
#: ``data`` the encoded line about to be written (``b""`` for reads).
#: A truthy return means the hook consumed the write (nothing more is
#: sent); it may also sleep or raise ``OSError`` subclasses to emulate
#: refused/reset/slow links.
_net_fault_hook = None


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def write_message(stream: IO[bytes], message: Dict[str, Any],
                  target: str = "") -> None:
    """Serialize one message as a JSON line and flush it."""
    data = json.dumps(message, separators=(",", ":"),
                      sort_keys=True).encode("utf-8") + b"\n"
    hook = _net_fault_hook
    if hook is not None and hook("write", target, stream, data):
        return
    stream.write(data)
    stream.flush()


def read_message(stream: IO[bytes],
                 target: str = "",
                 max_bytes: Optional[int] = None,
                 ) -> Optional[Dict[str, Any]]:
    """Read one JSON-line message; None on a clean EOF.

    ``max_bytes`` caps the line length (default: the module-level
    :data:`MAX_LINE_BYTES`, looked up at call time so tests can lower
    it); servers pass their configured/negotiated limit.  Raises
    :class:`FrameTooLarge` on an oversized line and
    :class:`ProtocolError` on non-JSON bytes or a line that is not a
    JSON object.
    """
    hook = _net_fault_hook
    if hook is not None:
        hook("read", target, stream, b"")
    limit = MAX_LINE_BYTES if max_bytes is None else max_bytes
    line = stream.readline(limit + 1)
    if not line:
        return None
    if len(line) > limit:
        raise FrameTooLarge(
            f"message exceeds {limit} bytes"
        )
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"undecodable message: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def error_response(code: str, message: str, **extra: Any) -> Dict[str, Any]:
    """A typed failure response."""
    out: Dict[str, Any] = {"ok": False, "error": code, "message": message}
    out.update(extra)
    return out


# ----------------------------------------------------------------------
# result payloads
# ----------------------------------------------------------------------
def encode_result(result: SimulationResult) -> str:
    """A result as base64 text of its store object encoding."""
    return base64.b64encode(serialize.dump_result(result)).decode("ascii")


def decode_result(payload: str) -> SimulationResult:
    """Inverse of :func:`encode_result`.

    Raises :class:`ProtocolError` on undecodable payloads — a serving
    daemon of a different code version produces a different store
    format, and the client must fail loudly rather than mix results.
    """
    try:
        data = base64.b64decode(payload.encode("ascii"), validate=True)
    except (ValueError, binascii.Error) as exc:
        raise ProtocolError(f"bad result payload: {exc}") from None
    try:
        return serialize.load_result(data)
    except ArtifactDecodeError as exc:
        raise ProtocolError(str(exc)) from None


# ----------------------------------------------------------------------
# matrix queries
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MatrixQuery:
    """One validated matrix request (the daemon's unit of admission)."""

    benchmarks: Tuple[str, ...]
    widths: Tuple[int, ...]
    archs: Tuple[str, ...]
    layouts: Tuple[bool, ...]
    instructions: int
    warmup: int
    scale: float
    #: Wall-clock seconds the *client* is willing to wait; None waits
    #: indefinitely.  On expiry the daemon answers with per-cell
    #: partial results instead of blocking.
    deadline: Optional[float] = None

    def to_wire(self) -> Dict[str, Any]:
        return {
            "op": "matrix",
            "benchmarks": list(self.benchmarks),
            "widths": list(self.widths),
            "archs": list(self.archs),
            "layouts": list(self.layouts),
            "instructions": self.instructions,
            "warmup": self.warmup,
            "scale": self.scale,
            "deadline": self.deadline,
        }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _str_seq(value: Any, name: str) -> Tuple[str, ...]:
    _require(isinstance(value, (list, tuple)) and value,
             f"{name} must be a non-empty list of strings")
    _require(all(isinstance(v, str) for v in value),
             f"{name} must contain only strings")
    return tuple(value)


def parse_matrix_query(message: Dict[str, Any]) -> MatrixQuery:
    """Validate one ``matrix`` request into a :class:`MatrixQuery`.

    Validation is strict and typed on purpose: an unknown benchmark or
    architecture must come back as one ``bad_request`` response, not as
    a per-cell failure after the request consumed queue capacity.
    """
    from repro.experiments.configs import ARCHITECTURES
    from repro.isa.workloads import SPEC_BENCHMARKS

    benchmarks = _str_seq(message.get("benchmarks"), "benchmarks")
    unknown = [b for b in benchmarks if b not in SPEC_BENCHMARKS]
    _require(not unknown, f"unknown benchmark(s): {', '.join(unknown)}")

    archs = _str_seq(message.get("archs", list(ARCHITECTURES)), "archs")
    bad_archs = [a for a in archs if a not in ARCHITECTURES]
    _require(not bad_archs,
             f"unknown architecture(s): {', '.join(bad_archs)}")

    widths_raw = message.get("widths", [8])
    _require(isinstance(widths_raw, (list, tuple)) and widths_raw,
             "widths must be a non-empty list of positive integers")
    _require(all(isinstance(w, int) and not isinstance(w, bool) and w > 0
                 for w in widths_raw),
             "widths must be a non-empty list of positive integers")
    widths = tuple(widths_raw)

    layouts_raw = message.get("layouts", [False, True])
    _require(isinstance(layouts_raw, (list, tuple)) and layouts_raw
             and all(isinstance(v, bool) for v in layouts_raw),
             "layouts must be a non-empty list of booleans")
    layouts = tuple(layouts_raw)

    instructions = message.get("instructions", 100_000)
    _require(isinstance(instructions, int) and not
             isinstance(instructions, bool) and instructions > 0,
             "instructions must be a positive integer")

    warmup = message.get("warmup")
    if warmup is None:
        warmup = instructions // 3
    _require(isinstance(warmup, int) and not isinstance(warmup, bool)
             and warmup >= 0, "warmup must be a non-negative integer")

    scale = message.get("scale", 1.0)
    _require(isinstance(scale, (int, float)) and not
             isinstance(scale, bool) and scale > 0,
             "scale must be a positive number")

    deadline = message.get("deadline")
    _require(deadline is None or (isinstance(deadline, (int, float))
             and not isinstance(deadline, bool)),
             "deadline must be a number of seconds or null")

    return MatrixQuery(
        benchmarks=benchmarks, widths=widths, archs=archs,
        layouts=layouts, instructions=instructions, warmup=warmup,
        scale=float(scale),
        deadline=float(deadline) if deadline is not None else None,
    )


def spec_to_wire(spec: Any) -> Dict[str, Any]:
    """One RunSpec as its wire dict (field names match RunSpec)."""
    return {
        "arch": spec.arch,
        "benchmark": spec.benchmark,
        "width": spec.width,
        "optimized": spec.optimized,
    }
