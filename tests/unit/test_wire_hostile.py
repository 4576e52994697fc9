"""Adversarial byte-stream tests for both wire codecs.

A codec's job under fire is to fail *cleanly*: torn tails stay
buffered, malformed bytes raise :class:`~repro.errors.FrameError`
(never a hang, never a silently wrong frame), and a frame cut by a
dropped connection is redelivered intact by the sender's outbox — the
mid-frame reconnect contract the transport's peek-then-pop drain
provides.  This suite drives the JSON and binary decoders with torn,
truncated, duplicated, oversized, interleaved, and random hostile
inputs, plus the zero-length-frame reject.  JSON still carries every
connection's hello and all client traffic; binary carries peer frames
after the hello, and a malformed hello closes the connection.
"""

import asyncio
import random
import socket
import struct

import pytest

from repro.errors import FrameError
from repro.live.clock import TimeoutClock
from repro.live.transport import Transport
from repro.live.wire import (
    MAX_FRAME,
    FrameDecoder,
    decode_frame_bytes,
    encode_frame,
    encode_payload,
    read_frame,
)
from repro.live.wire_bin import (
    BinFrameDecoder,
    decode_frame_bin_bytes,
    encode_frame_bin,
)
from repro.runtime.messages import ProtoMsg, TermMoveTo, TermStateReply
from repro.types import Outcome, SiteId

PAYLOAD_FRAME = {
    "t": "payload",
    "txn": 42,
    "d": encode_payload(ProtoMsg("prepare")),
    "sid": 1_002_000_007,
    "pid": 3_001_000_001,
}
MOVE_FRAME = {
    "t": "payload",
    "txn": 9,
    "d": encode_payload(TermMoveTo(SiteId(2), "w", 1)),
}
REPLY_FRAME = {
    "t": "payload",
    "txn": 9,
    "d": encode_payload(TermStateReply("p", Outcome.UNDECIDED, 1)),
}
HB_FRAME = {"t": "hb", "site": 3}
FRAMES = [PAYLOAD_FRAME, MOVE_FRAME, REPLY_FRAME, HB_FRAME]
DECODERS = {"json": FrameDecoder, "bin": BinFrameDecoder}


def read_one(data: bytes):
    """Drive the async single-frame reader over a canned byte string."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(go())


def bin_body(frame) -> bytearray:
    """The body bytes of one binary frame (length prefix stripped)."""
    return bytearray(encode_frame_bin(frame)[4:])


def reframe(body: bytes) -> bytes:
    """Wrap raw body bytes in a length prefix."""
    return struct.pack(">I", len(body)) + bytes(body)


# ----------------------------------------------------------------------
# Torn and truncated frames
# ----------------------------------------------------------------------


class TestTornFrames:
    @pytest.mark.parametrize("frame", FRAMES, ids=lambda f: f["t"])
    def test_bin_torn_at_every_boundary(self, frame):
        wire = encode_frame_bin(frame)
        for cut in range(len(wire)):
            decoder = BinFrameDecoder()
            assert decoder.feed(wire[:cut]) == []
            assert decoder.pending == cut
            assert decoder.feed(wire[cut:]) == [frame]
            assert decoder.pending == 0

    def test_json_torn_tail_stays_buffered(self):
        wire = encode_frame(PAYLOAD_FRAME)
        decoder = FrameDecoder()
        assert decoder.feed(wire[:-3]) == []
        assert decoder.pending == len(wire) - 3
        assert decoder.feed(wire[-3:]) == [PAYLOAD_FRAME]

    def test_bin_sync_decode_rejects_truncation(self):
        wire = encode_frame_bin(PAYLOAD_FRAME)
        for cut in range(4, len(wire)):
            with pytest.raises(FrameError):
                decode_frame_bin_bytes(wire[:cut])

    def test_byte_at_a_time_feed_decodes_everything(self):
        blob = b"".join(encode_frame_bin(f) for f in FRAMES)
        decoder = BinFrameDecoder()
        out = []
        for i in range(len(blob)):
            out.extend(decoder.feed(blob[i : i + 1]))
        assert out == FRAMES

    def test_hwm_tracks_worst_backlog(self):
        decoder = BinFrameDecoder()
        wire = encode_frame_bin(PAYLOAD_FRAME)
        decoder.feed(wire * 3)
        assert decoder.hwm == 3 * len(wire)
        decoder.feed(wire)
        assert decoder.hwm == 3 * len(wire)  # monotonic


# ----------------------------------------------------------------------
# Zero-length and oversized length prefixes
# ----------------------------------------------------------------------


class TestLengthPrefixHostility:
    ZERO = struct.pack(">I", 0)
    HUGE = struct.pack(">I", MAX_FRAME + 1)

    @pytest.mark.parametrize("codec", ["json", "bin"])
    def test_zero_length_frame_rejected_incrementally(self, codec):
        decoder = DECODERS[codec]()
        with pytest.raises(FrameError, match="zero-length"):
            decoder.feed(self.ZERO)

    def test_zero_length_frame_rejected_by_sync_decoders(self):
        with pytest.raises(FrameError, match="zero-length"):
            decode_frame_bytes(self.ZERO)
        with pytest.raises(FrameError, match="zero-length"):
            decode_frame_bin_bytes(self.ZERO)

    def test_zero_length_frame_rejected_by_stream_reader(self):
        with pytest.raises(FrameError, match="zero-length"):
            read_one(self.ZERO + b"junk")

    @pytest.mark.parametrize("codec", ["json", "bin"])
    def test_oversized_prefix_rejected_before_buffering_body(self, codec):
        # The decoder must refuse immediately — waiting for MAX_FRAME+1
        # bytes that never come is the hang this suite exists to catch.
        decoder = DECODERS[codec]()
        with pytest.raises(FrameError, match="MAX_FRAME"):
            decoder.feed(self.HUGE + b"x")

    def test_oversized_prefix_rejected_by_sync_decoders(self):
        with pytest.raises(FrameError, match="MAX_FRAME"):
            decode_frame_bytes(self.HUGE)
        with pytest.raises(FrameError, match="MAX_FRAME"):
            decode_frame_bin_bytes(self.HUGE)


# ----------------------------------------------------------------------
# Interleaved codecs on one connection
# ----------------------------------------------------------------------


class TestInterleavedCodecs:
    def test_json_frame_on_binary_decoder_errors_cleanly(self):
        # '{' is 0x7b — no such binary frame kind.
        with pytest.raises(FrameError):
            BinFrameDecoder().feed(encode_frame(PAYLOAD_FRAME))

    def test_binary_frame_on_json_decoder_errors_cleanly(self):
        with pytest.raises(FrameError):
            FrameDecoder().feed(encode_frame_bin(PAYLOAD_FRAME))

    def test_codec_switch_mid_stream_is_an_error_not_corruption(self):
        # After the JSON hello a peer link is binary only.  The valid
        # prefix decodes; a JSON frame raises instead of yielding a
        # wrong dict.
        decoder = BinFrameDecoder()
        assert decoder.feed(encode_frame_bin(MOVE_FRAME)) == [MOVE_FRAME]
        with pytest.raises(FrameError):
            decoder.feed(encode_frame(MOVE_FRAME))

    def test_json_decoder_recovers_nothing_from_mixed_blob(self):
        blob = encode_frame_bin(HB_FRAME) + encode_frame(HB_FRAME)
        with pytest.raises(FrameError):
            FrameDecoder().feed(blob)


# ----------------------------------------------------------------------
# Mid-frame reconnect redelivery
# ----------------------------------------------------------------------


class TestReconnectRedelivery:
    def test_partial_frame_never_surfaces_and_redelivery_decodes(self):
        # Transport contract: frames leave the sender's outbox only
        # after their bytes drained, so a connection cut mid-frame
        # redelivers the whole frame on a *fresh* connection (and a
        # fresh decoder).  The cut connection's decoder must have
        # emitted nothing for the torn tail.
        wire = encode_frame_bin(PAYLOAD_FRAME)
        dying = BinFrameDecoder()
        assert dying.feed(wire[: len(wire) // 2]) == []
        assert dying.pending > 0  # torn tail buffered, never surfaced

        fresh = BinFrameDecoder()
        assert fresh.feed(wire) == [PAYLOAD_FRAME]

    def test_duplicated_redelivery_is_two_identical_frames(self):
        # Peek-then-pop can legitimately re-send a frame whose bytes
        # drained right as the connection died; dedup is the protocol
        # layer's job (engines tolerate duplicate messages), the codec
        # must just decode both copies identically.
        wire = encode_frame_bin(MOVE_FRAME)
        decoder = BinFrameDecoder()
        assert decoder.feed(wire + wire) == [MOVE_FRAME, MOVE_FRAME]

    def test_redelivery_after_torn_tail_on_same_decoder_is_rejected(self):
        # If a buggy sender re-sends on the SAME connection after a
        # torn frame, the decoder sees garbage mid-frame — that must be
        # an error, not a resynchronization guess.
        wire = encode_frame_bin(REPLY_FRAME)
        decoder = BinFrameDecoder()
        decoder.feed(wire[:-2])
        with pytest.raises(FrameError):
            decoder.feed(wire)


# ----------------------------------------------------------------------
# Hostile bodies
# ----------------------------------------------------------------------


class TestHostileBodies:
    def test_unknown_frame_kind(self):
        with pytest.raises(FrameError, match="kind"):
            decode_frame_bin_bytes(reframe(b"\x09\x00"))

    def test_unknown_flag_bits(self):
        body = bin_body(HB_FRAME)
        body[1] |= 0x40
        with pytest.raises(FrameError, match="flag"):
            decode_frame_bin_bytes(reframe(body))

    def test_unknown_payload_tag(self):
        body = bin_body(MOVE_FRAME)
        body[10] = 0x63  # tag byte sits after kind+flags+txn(u64)
        with pytest.raises(FrameError, match="payload tag"):
            decode_frame_bin_bytes(reframe(body))

    def test_unknown_interned_token(self):
        body = bin_body({"t": "payload", "txn": 1, "d": encode_payload(ProtoMsg("xact"))})
        body[-1] = 0xEE
        with pytest.raises(FrameError, match="token"):
            decode_frame_bin_bytes(reframe(body))

    def test_bad_outcome_byte(self):
        frame = {"t": "payload", "txn": 1, "d": encode_payload(TermStateReply("w", Outcome.ABORT, 0))}
        body = bin_body(frame)
        body[11] = 0x7F  # outcome byte right after the payload tag
        with pytest.raises(FrameError, match="outcome"):
            decode_frame_bin_bytes(reframe(body))

    def test_stray_high_bit_on_decision_outcome(self):
        from repro.runtime.messages import TermDecision

        frame = {"t": "payload", "txn": 1, "d": encode_payload(TermDecision(Outcome.COMMIT, 0))}
        body = bin_body(frame)
        body[11] |= 0x80  # in_doubt bit is outcome-reply-only
        with pytest.raises(FrameError, match="high bit"):
            decode_frame_bin_bytes(reframe(body))

    def test_invalid_utf8_in_literal_string(self):
        body = bytearray((2, 0))  # payload frame, no header ints
        body.append(1)  # proto tag
        body.append(0)  # literal string escape
        body += struct.pack(">H", 2) + b"\xff\xfe"
        with pytest.raises(FrameError, match="UTF-8"):
            decode_frame_bin_bytes(reframe(body))

    def test_trailing_garbage_rejected(self):
        body = bin_body(HB_FRAME) + b"\x00"
        with pytest.raises(FrameError, match="trailing"):
            decode_frame_bin_bytes(reframe(body))

    def test_truncated_header_int(self):
        body = bytearray((2, 0x01))  # payload frame claiming a txn...
        body += b"\x00\x00"  # ...but only two bytes of it
        with pytest.raises(FrameError, match="truncated"):
            decode_frame_bin_bytes(reframe(body))

    def test_empty_payload_record(self):
        with pytest.raises(FrameError, match="payload"):
            decode_frame_bin_bytes(reframe(b"\x02\x00"))


# ----------------------------------------------------------------------
# Seeded random fuzz: clean errors or clean frames, nothing else
# ----------------------------------------------------------------------


class TestRandomFuzz:
    @pytest.mark.parametrize("codec", ["json", "bin"])
    def test_random_streams_never_hang_or_leak_exceptions(self, codec):
        for seed in range(200):
            rng = random.Random(seed)
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 120)))
            decoder = DECODERS[codec]()
            try:
                while blob:
                    cut = rng.randrange(1, len(blob) + 1)
                    for frame in decoder.feed(blob[:cut]):
                        assert isinstance(frame, dict)
                    blob = blob[cut:]
            except FrameError:
                continue  # the only acceptable failure mode

    def test_random_bodies_with_valid_prefix(self):
        # Force the length prefix to be plausible so the fuzz actually
        # exercises body parsing rather than dying on the prefix.
        for seed in range(300):
            rng = random.Random(10_000 + seed)
            body = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
            try:
                frame, rest = decode_frame_bin_bytes(reframe(body))
            except FrameError:
                continue
            assert rest == b""
            assert frame["t"] in ("hb", "payload", "external")

    def test_bitflip_fuzz_on_valid_frames(self):
        # Every single-bit corruption of a valid frame either still
        # decodes to a dict (length/ints can absorb flips) or raises
        # FrameError — never any other exception, never a hang.
        for frame in FRAMES:
            wire = bytearray(encode_frame_bin(frame))
            for bit in range(len(wire) * 8):
                mutated = bytearray(wire)
                mutated[bit // 8] ^= 1 << (bit % 8)
                decoder = BinFrameDecoder()
                try:
                    for decoded in decoder.feed(bytes(mutated)):
                        assert isinstance(decoded, dict)
                except FrameError:
                    pass


# ----------------------------------------------------------------------
# Malformed hellos on a live listener
# ----------------------------------------------------------------------


class TestMalformedHello:
    BAD_HELLOS = [
        {"t": "hello"},
        {"t": "hello", "site": "x", "boot": 1},
        {"t": "hello", "site": 2, "boot": "x"},
        {"t": "hello", "site": [1], "boot": 1},
        {"t": "hello", "site": 2},
        {"t": "hello", "site": 2, "boot": 0},
        {"t": "hello", "site": True, "boot": 1},
    ]

    def test_bad_hello_is_traced_and_closed_and_good_hello_still_works(self):
        # The hello is the first bytes from outside the process: a bad
        # one is traced and dropped, never raised into the event loop.
        async def go():
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
            sock.close()
            loop_errors, traces, frames = [], [], []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )

            async def on_frame(peer, frame):
                frames.append((peer, frame))

            async def on_client(first, reader, writer):
                writer.close()

            transport = Transport(
                site=SiteId(1),
                host="127.0.0.1",
                port=port,
                peers={SiteId(2): ("127.0.0.1", 1)},
                clock=TimeoutClock(),
                on_frame=on_frame,
                on_client=on_client,
                on_suspect=lambda peer: None,
                on_recover=lambda peer: None,
                hb_interval=10.0,
                suspect_after=60.0,
                trace=lambda category, detail="", **data: traces.append(category),
            )
            await transport.start()
            try:
                for hello in self.BAD_HELLOS:
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    writer.write(encode_frame(hello))
                    await writer.drain()
                    closed = await asyncio.wait_for(read_frame(reader), 2.0)
                    assert closed is None, hello
                    writer.close()
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(encode_frame({"t": "hello", "site": 2, "boot": 1}))
                writer.write(encode_frame_bin(MOVE_FRAME))
                await writer.drain()
                for _ in range(500):
                    if frames:
                        break
                    await asyncio.sleep(0.005)
                writer.close()
            finally:
                await transport.stop()
            assert traces.count("live.bad_hello") == len(self.BAD_HELLOS)
            assert frames == [(SiteId(2), MOVE_FRAME)]
            assert loop_errors == []

        asyncio.run(go())
