"""The packed binary wire codec for peer links.

Same frame boundary as :mod:`repro.live.wire` — a 4-byte big-endian
length prefix — but the body is a struct-packed record instead of
sorted-key JSON.  Only the three peer-link frame types exist in binary
form (``hb``, ``payload``, ``external``); the ``hello`` handshake and
all client traffic stay JSON.  Every peer connection opens with a JSON
hello — which is how the receiver tells a peer from a client — and
carries binary frames after it.

Body layout (after the length prefix)::

    u8  kind     1 = hb, 2 = payload, 3 = external
    u8  flags    bit0 txn, bit1 sid, bit2 pid, bit3 dst_boot
    u64 ...      the flagged fields, big-endian, in bit order
    ...          kind-specific tail

Tails: ``hb`` carries a ``u32`` site id; ``external`` carries its kind
as a string; ``payload`` carries a tagged record per runtime payload
dataclass (``u8`` tag, then fixed-width ints, outcome bytes, and
strings).  Strings use a one-byte token into :data:`INTERNED` — the
closed vocabulary of protocol message kinds and state names — with
token ``0`` escaping to ``u16`` length + UTF-8 for anything else, so
the codec never constrains what a spec may name.

Decoding is strict and zero-copy (``memoryview`` slices, no
intermediate buffers): unknown kinds, tags, tokens or flag bits,
truncated fields, trailing bytes, zero-length frames, and oversized
length prefixes all raise :class:`~repro.errors.FrameError`.  Decoded
frames are *dict-identical* to what the JSON codec would have produced
for the same frame — the equality the differential test suite pins —
so every layer above the transport (chaos classification, incarnation
fencing, trace stitching, audit) is codec-blind.
"""

from __future__ import annotations

import struct
from typing import Any, Callable

from repro.errors import FrameError
from repro.live.wire import MAX_FRAME

_LENGTH = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")

# Frame kinds.
_K_HB = 1
_K_PAYLOAD = 2
_K_EXTERNAL = 3

# Header flag bits, in wire order.
_FLAG_FIELDS = ((1, "txn"), (2, "sid"), (4, "pid"), (8, "dst_boot"))
_KNOWN_FLAGS = 0x0F

#: The closed string vocabulary of the catalog protocols: message
#: kinds and state names.  Tokens are 1-based; 0 escapes to a literal.
INTERNED = (
    "q",
    "w",
    "p",
    "a",
    "c",
    "request",
    "xact",
    "yes",
    "no",
    "ack",
    "prepare",
    "commit",
    "abort",
    # Appended entries only (tokens are pinned by differential tests
    # against recorded frames): the read-only vote/state of the
    # one-phase exit.
    "ro",
    "r",
)
_STR_TOKEN = {value: index + 1 for index, value in enumerate(INTERNED)}
_TOKEN_STR: tuple = (None,) + INTERNED

_OUTCOME_CODE = {"commit": 1, "abort": 2, "undecided": 3, "blocked": 4}
_CODE_OUTCOME: tuple = (None, "commit", "abort", "undecided", "blocked")

_HB_REQUIRED = frozenset({"t", "site"})
_PAYLOAD_REQUIRED = frozenset({"t", "txn", "d"})
_EXTERNAL_REQUIRED = frozenset({"t", "txn", "kind"})
_OPTIONAL = frozenset({"sid", "pid", "dst_boot"})
_NO_OPTIONAL: frozenset = frozenset()


# ----------------------------------------------------------------------
# Field packers
# ----------------------------------------------------------------------


def _require_int(value: Any, field: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise FrameError(
            f"field {field!r} must be an int for the binary codec, "
            f"got {type(value).__name__}"
        )
    return value


def _pack_u64(out: bytearray, value: Any, field: str) -> None:
    try:
        out += _U64.pack(_require_int(value, field))
    except struct.error as error:
        raise FrameError(f"field {field!r} out of u64 range: {value}") from error


def _pack_u32(out: bytearray, value: Any, field: str) -> None:
    try:
        out += _U32.pack(_require_int(value, field))
    except struct.error as error:
        raise FrameError(f"field {field!r} out of u32 range: {value}") from error


def _pack_str(out: bytearray, value: Any, field: str) -> None:
    if not isinstance(value, str):
        raise FrameError(
            f"field {field!r} must be a string for the binary codec, "
            f"got {type(value).__name__}"
        )
    token = _STR_TOKEN.get(value)
    if token is not None:
        out.append(token)
        return
    data = value.encode("utf-8")
    if len(data) > 0xFFFF:
        raise FrameError(f"field {field!r} string of {len(data)} bytes too long")
    out.append(0)
    out += _U16.pack(len(data))
    out += data


def _pack_outcome(out: bytearray, value: Any, field: str, extra: int = 0) -> None:
    code = _OUTCOME_CODE.get(value)
    if code is None:
        raise FrameError(f"field {field!r} is not an outcome: {value!r}")
    out.append(code | extra)


# ----------------------------------------------------------------------
# Payload record codecs (tag = position in wire.py's codec tables)
# ----------------------------------------------------------------------


def _enc_proto(out: bytearray, d: dict) -> None:
    out.append(1)
    _pack_str(out, d["kind"], "kind")


def _enc_move_to(out: bytearray, d: dict) -> None:
    out.append(2)
    _pack_u32(out, d["backup"], "backup")
    _pack_u32(out, d["round"], "round")
    _pack_str(out, d["state"], "state")


def _enc_ack(out: bytearray, d: dict) -> None:
    out.append(3)
    _pack_u32(out, d["round"], "round")


def _enc_decision(out: bytearray, d: dict) -> None:
    out.append(4)
    _pack_outcome(out, d["outcome"], "outcome")
    _pack_u32(out, d["round"], "round")


def _enc_blocked(out: bytearray, d: dict) -> None:
    out.append(5)
    _pack_u32(out, d["round"], "round")


def _enc_state_query(out: bytearray, d: dict) -> None:
    out.append(6)
    _pack_u32(out, d["backup"], "backup")
    _pack_u32(out, d["round"], "round")


def _enc_state_reply(out: bytearray, d: dict) -> None:
    out.append(7)
    _pack_outcome(out, d["outcome"], "outcome")
    _pack_u32(out, d["round"], "round")
    _pack_str(out, d["state"], "state")


def _enc_outcome_query(out: bytearray, d: dict) -> None:
    out.append(8)


def _enc_outcome_reply(out: bytearray, d: dict) -> None:
    in_doubt = d["in_doubt"]
    if not isinstance(in_doubt, bool):
        raise FrameError(
            f"field 'in_doubt' must be a bool for the binary codec, "
            f"got {type(in_doubt).__name__}"
        )
    out.append(9)
    _pack_outcome(out, d["outcome"], "outcome", extra=0x80 if in_doubt else 0)


#: tag name -> (exact key set, encoder).
_PAYLOAD_ENC: dict[str, tuple[frozenset, Callable[[bytearray, dict], None]]] = {
    "proto": (frozenset({"p", "kind"}), _enc_proto),
    "term-move-to": (frozenset({"p", "backup", "state", "round"}), _enc_move_to),
    "term-ack": (frozenset({"p", "round"}), _enc_ack),
    "term-decision": (frozenset({"p", "outcome", "round"}), _enc_decision),
    "term-blocked": (frozenset({"p", "round"}), _enc_blocked),
    "term-state-query": (frozenset({"p", "backup", "round"}), _enc_state_query),
    "term-state-reply": (
        frozenset({"p", "state", "outcome", "round"}),
        _enc_state_reply,
    ),
    "outcome-query": (frozenset({"p"}), _enc_outcome_query),
    "outcome-reply": (frozenset({"p", "outcome", "in_doubt"}), _enc_outcome_reply),
}


def _encode_payload_dict(out: bytearray, data: Any) -> None:
    if not isinstance(data, dict):
        raise FrameError(
            f"payload body must be a dict, got {type(data).__name__}"
        )
    tag = data.get("p")
    spec = _PAYLOAD_ENC.get(tag)
    if spec is None:
        raise FrameError(f"unknown payload tag {tag!r}")
    expected, encoder = spec
    if data.keys() != expected:
        raise FrameError(
            f"payload {tag!r} keys {sorted(data)} do not match the "
            f"binary schema {sorted(expected)}"
        )
    encoder(out, data)


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def _encode_head(
    kind: int, frame: dict[str, Any], required: frozenset, optional: frozenset
) -> bytearray:
    keys = frame.keys()
    missing = required - keys
    if missing:
        raise FrameError(
            f"frame {frame.get('t')!r} missing keys {sorted(missing)}"
        )
    extra = keys - required - optional
    if extra:
        raise FrameError(
            f"frame keys {sorted(extra)} are not representable in the "
            "binary codec"
        )
    flags = 0
    ints = bytearray()
    for bit, field in _FLAG_FIELDS:
        value = frame.get(field)
        if value is None:
            continue
        flags |= bit
        _pack_u64(ints, value, field)
    body = bytearray((kind, flags))
    body += ints
    return body


def encode_frame_bin(frame: dict[str, Any]) -> bytes:
    """Serialize one peer-link frame in the packed binary format.

    Raises:
        FrameError: If the frame type has no binary form (hello and
            client frames are JSON-only), carries keys or values the
            binary schema cannot represent, or exceeds
            :data:`~repro.live.wire.MAX_FRAME`.
    """
    t = frame.get("t")
    if t == "payload":
        body = _encode_head(_K_PAYLOAD, frame, _PAYLOAD_REQUIRED, _OPTIONAL)
        _encode_payload_dict(body, frame["d"])
    elif t == "hb":
        body = _encode_head(_K_HB, frame, _HB_REQUIRED, _NO_OPTIONAL)
        _pack_u32(body, frame["site"], "site")
    elif t == "external":
        body = _encode_head(_K_EXTERNAL, frame, _EXTERNAL_REQUIRED, _OPTIONAL)
        _pack_str(body, frame["kind"], "kind")
    else:
        raise FrameError(
            f"frame type {t!r} has no binary encoding (the binary codec "
            "carries peer-link frames only)"
        )
    if len(body) > MAX_FRAME:
        raise FrameError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return _LENGTH.pack(len(body)) + bytes(body)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def _unpack_u32(view: memoryview, offset: int, field: str) -> tuple[int, int]:
    if offset + 4 > len(view):
        raise FrameError(f"binary frame truncated in field {field!r}")
    (value,) = _U32.unpack_from(view, offset)
    return value, offset + 4


def _unpack_str(view: memoryview, offset: int, field: str) -> tuple[str, int]:
    if offset >= len(view):
        raise FrameError(f"binary frame truncated in field {field!r}")
    token = view[offset]
    offset += 1
    if token:
        if token >= len(_TOKEN_STR):
            raise FrameError(f"unknown interned string token {token}")
        return _TOKEN_STR[token], offset
    if offset + 2 > len(view):
        raise FrameError(f"binary frame truncated in field {field!r}")
    (length,) = _U16.unpack_from(view, offset)
    offset += 2
    end = offset + length
    if end > len(view):
        raise FrameError(f"binary frame truncated in field {field!r}")
    try:
        value = bytes(view[offset:end]).decode("utf-8")
    except UnicodeDecodeError as error:
        raise FrameError(f"field {field!r} is not valid UTF-8") from error
    return value, end


def _unpack_outcome(
    view: memoryview, offset: int, field: str
) -> tuple[str, bool, int]:
    if offset >= len(view):
        raise FrameError(f"binary frame truncated in field {field!r}")
    byte = view[offset]
    code = byte & 0x7F
    if not 1 <= code < len(_CODE_OUTCOME):
        raise FrameError(f"field {field!r} has no outcome for byte {byte:#x}")
    return _CODE_OUTCOME[code], bool(byte & 0x80), offset + 1


def _dec_proto(view: memoryview, offset: int) -> tuple[dict, int]:
    kind, offset = _unpack_str(view, offset, "kind")
    return {"p": "proto", "kind": kind}, offset


def _dec_move_to(view: memoryview, offset: int) -> tuple[dict, int]:
    backup, offset = _unpack_u32(view, offset, "backup")
    round_no, offset = _unpack_u32(view, offset, "round")
    state, offset = _unpack_str(view, offset, "state")
    return (
        {"p": "term-move-to", "backup": backup, "state": state, "round": round_no},
        offset,
    )


def _dec_ack(view: memoryview, offset: int) -> tuple[dict, int]:
    round_no, offset = _unpack_u32(view, offset, "round")
    return {"p": "term-ack", "round": round_no}, offset


def _dec_decision(view: memoryview, offset: int) -> tuple[dict, int]:
    outcome, extra, offset = _unpack_outcome(view, offset, "outcome")
    if extra:
        raise FrameError("term-decision outcome byte has stray high bit")
    round_no, offset = _unpack_u32(view, offset, "round")
    return {"p": "term-decision", "outcome": outcome, "round": round_no}, offset


def _dec_blocked(view: memoryview, offset: int) -> tuple[dict, int]:
    round_no, offset = _unpack_u32(view, offset, "round")
    return {"p": "term-blocked", "round": round_no}, offset


def _dec_state_query(view: memoryview, offset: int) -> tuple[dict, int]:
    backup, offset = _unpack_u32(view, offset, "backup")
    round_no, offset = _unpack_u32(view, offset, "round")
    return {"p": "term-state-query", "backup": backup, "round": round_no}, offset


def _dec_state_reply(view: memoryview, offset: int) -> tuple[dict, int]:
    outcome, extra, offset = _unpack_outcome(view, offset, "outcome")
    if extra:
        raise FrameError("term-state-reply outcome byte has stray high bit")
    round_no, offset = _unpack_u32(view, offset, "round")
    state, offset = _unpack_str(view, offset, "state")
    return (
        {"p": "term-state-reply", "state": state, "outcome": outcome, "round": round_no},
        offset,
    )


def _dec_outcome_query(view: memoryview, offset: int) -> tuple[dict, int]:
    return {"p": "outcome-query"}, offset


def _dec_outcome_reply(view: memoryview, offset: int) -> tuple[dict, int]:
    outcome, in_doubt, offset = _unpack_outcome(view, offset, "outcome")
    return {"p": "outcome-reply", "outcome": outcome, "in_doubt": in_doubt}, offset


_PAYLOAD_DEC: tuple = (
    None,
    _dec_proto,
    _dec_move_to,
    _dec_ack,
    _dec_decision,
    _dec_blocked,
    _dec_state_query,
    _dec_state_reply,
    _dec_outcome_query,
    _dec_outcome_reply,
)


def _decode_body(view: memoryview) -> dict[str, Any]:
    """Decode one binary frame body; strict, zero-copy."""
    if len(view) < 2:
        raise FrameError("binary frame shorter than its two-byte header")
    kind = view[0]
    flags = view[1]
    if flags & ~_KNOWN_FLAGS:
        raise FrameError(f"binary frame has unknown flag bits {flags:#x}")
    offset = 2
    head: dict[str, Any] = {}
    for bit, field in _FLAG_FIELDS:
        if not flags & bit:
            continue
        if offset + 8 > len(view):
            raise FrameError(f"binary frame truncated in field {field!r}")
        (head[field],) = _U64.unpack_from(view, offset)
        offset += 8
    if kind == _K_PAYLOAD:
        frame: dict[str, Any] = {"t": "payload", **head}
        if offset >= len(view):
            raise FrameError("binary payload frame has no payload record")
        tag = view[offset]
        offset += 1
        if not 1 <= tag < len(_PAYLOAD_DEC):
            raise FrameError(f"unknown binary payload tag {tag}")
        frame["d"], offset = _PAYLOAD_DEC[tag](view, offset)
    elif kind == _K_HB:
        site, offset = _unpack_u32(view, offset, "site")
        frame = {"t": "hb", "site": site, **head}
    elif kind == _K_EXTERNAL:
        frame = {"t": "external", **head}
        frame["kind"], offset = _unpack_str(view, offset, "kind")
    else:
        raise FrameError(f"unknown binary frame kind {kind}")
    if offset != len(view):
        raise FrameError(
            f"binary frame has {len(view) - offset} trailing bytes"
        )
    return frame


class BinFrameDecoder:
    """Incremental binary-frame decoder for inbound peer connections.

    Same feed/pending/hwm surface as the JSON ``FrameDecoder``; bodies
    are decoded through a ``memoryview`` of the receive buffer without
    copying the frame out first.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        #: Largest buffered byte count ever observed (monotonic).
        self.hwm = 0

    @property
    def pending(self) -> int:
        """Bytes buffered toward a not-yet-complete frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> list[dict[str, Any]]:
        """Append bytes; return every frame completed by them, in order.

        Raises:
            FrameError: On a zero-length or oversized length prefix, or
                a body the binary schema rejects.
        """
        buf = self._buf
        buf += data
        if len(buf) > self.hwm:
            self.hwm = len(buf)
        frames: list[dict[str, Any]] = []
        offset = 0
        view = memoryview(buf)
        try:
            while len(buf) - offset >= _LENGTH.size:
                (length,) = _LENGTH.unpack_from(view, offset)
                if length == 0:
                    raise FrameError("zero-length frame is malformed")
                if length > MAX_FRAME:
                    raise FrameError(f"length prefix {length} exceeds MAX_FRAME")
                end = offset + _LENGTH.size + length
                if len(buf) < end:
                    break
                body = view[offset + _LENGTH.size : end]
                try:
                    frames.append(_decode_body(body))
                finally:
                    body.release()
                offset = end
        finally:
            view.release()
            if offset:
                del buf[:offset]
        return frames


def decode_frame_bin_bytes(data: bytes) -> tuple[dict[str, Any], bytes]:
    """Synchronous single-frame decode; returns (frame, remaining bytes).

    The test-facing inverse of :func:`encode_frame_bin`.

    Raises:
        FrameError: On truncation or a malformed body.
    """
    if len(data) < _LENGTH.size:
        raise FrameError("buffer shorter than a length prefix")
    (length,) = _LENGTH.unpack_from(data, 0)
    if length == 0:
        raise FrameError("zero-length frame is malformed")
    if length > MAX_FRAME:
        raise FrameError(f"length prefix {length} exceeds MAX_FRAME")
    end = _LENGTH.size + length
    if len(data) < end:
        raise FrameError(
            f"truncated frame ({len(data) - _LENGTH.size}/{length} bytes)"
        )
    frame = _decode_body(memoryview(data)[_LENGTH.size : end])
    return frame, data[end:]
