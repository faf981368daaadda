"""Wire-protocol unit tests: framing, validation, result payloads."""

from __future__ import annotations

import io

import pytest
from helpers import result_digest

from repro.experiments.runner import run_matrix
from repro.serve import protocol
from repro.serve.protocol import MatrixQuery, ProtocolError


def _roundtrip(message):
    buf = io.BytesIO()
    protocol.write_message(buf, message)
    buf.seek(0)
    return protocol.read_message(buf)


def test_message_roundtrip_and_eof():
    assert _roundtrip({"op": "ping", "n": 3}) == {"op": "ping", "n": 3}
    assert protocol.read_message(io.BytesIO(b"")) is None


def test_read_rejects_garbage_and_non_objects():
    with pytest.raises(ProtocolError):
        protocol.read_message(io.BytesIO(b"not json\n"))
    with pytest.raises(ProtocolError):
        protocol.read_message(io.BytesIO(b"[1, 2]\n"))


def test_read_rejects_oversized_line(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 64)
    with pytest.raises(ProtocolError, match="exceeds"):
        protocol.read_message(io.BytesIO(b"x" * 200 + b"\n"))


def test_error_response_shape():
    out = protocol.error_response(protocol.ERROR_OVERLOADED, "busy",
                                  retry_after=1.5)
    assert out == {"ok": False, "error": "overloaded", "message": "busy",
                   "retry_after": 1.5}


def test_result_payload_roundtrips_bit_identically():
    matrix = run_matrix(("gzip",), widths=(8,), archs=("stream",),
                        layouts=(True,), instructions=3000, warmup=1000,
                        scale=0.3)
    (result,) = matrix.results.values()
    decoded = protocol.decode_result(protocol.encode_result(result))
    assert decoded == result
    assert result_digest(decoded) == result_digest(result)


def test_decode_result_rejects_bad_payloads():
    with pytest.raises(ProtocolError):
        protocol.decode_result("not base64!!")
    with pytest.raises(ProtocolError):
        protocol.decode_result("YWJjZGVm")  # valid base64, not an artifact


# ----------------------------------------------------------------------
# matrix query validation
# ----------------------------------------------------------------------
def _wire(**overrides):
    message = {
        "op": "matrix",
        "benchmarks": ["gzip"],
        "widths": [8],
        "archs": ["stream"],
        "layouts": [True],
        "instructions": 3000,
        "warmup": 1000,
        "scale": 0.3,
    }
    message.update(overrides)
    return message


def test_parse_matrix_query_happy_path_and_wire_roundtrip():
    query = protocol.parse_matrix_query(_wire())
    assert query == MatrixQuery(
        benchmarks=("gzip",), widths=(8,), archs=("stream",),
        layouts=(True,), instructions=3000, warmup=1000, scale=0.3,
    )
    assert protocol.parse_matrix_query(query.to_wire()) == query


def test_parse_matrix_query_defaults():
    query = protocol.parse_matrix_query({"op": "matrix",
                                         "benchmarks": ["gzip"]})
    assert query.widths == (8,)
    assert query.layouts == (False, True)
    assert query.warmup == query.instructions // 3
    assert query.deadline is None
    assert len(query.archs) >= 2  # all architectures


@pytest.mark.parametrize("bad", [
    {"benchmarks": []},
    {"benchmarks": ["no-such-benchmark"]},
    {"benchmarks": [42]},
    {"archs": ["no-such-arch"]},
    {"widths": []},
    {"widths": [0]},
    {"widths": [True]},
    {"layouts": [1]},
    {"instructions": 0},
    {"instructions": "many"},
    {"warmup": -1},
    {"scale": 0},
    {"deadline": "soon"},
    {"deadline": True},
])
def test_parse_matrix_query_rejects(bad):
    with pytest.raises(ProtocolError):
        protocol.parse_matrix_query(_wire(**bad))
