"""Binary peer links on real loopback transports.

Every peer connection opens with a JSON hello and carries binary
frames after it.  Each direction is its own TCP connection; both must
deliver the exact dicts that were sent, heartbeats included.
"""

from __future__ import annotations

import asyncio
import socket
import time

from repro.live.clock import TimeoutClock
from repro.live.transport import Transport
from repro.types import SiteId

S1, S2 = SiteId(1), SiteId(2)


def free_ports(count: int) -> list[int]:
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


class Harness:
    """One in-process transport endpoint with recording callbacks."""

    def __init__(
        self,
        site: SiteId,
        port: int,
        peers: dict[SiteId, tuple[str, int]],
        suspect_after: float,
    ) -> None:
        self.frames: list[tuple[SiteId, dict]] = []
        self.suspects: list[SiteId] = []

        async def on_frame(peer, frame):
            self.frames.append((peer, frame))

        async def on_client(first, reader, writer):
            writer.close()

        self.transport = Transport(
            site=site,
            host="127.0.0.1",
            port=port,
            peers=peers,
            clock=TimeoutClock(),
            on_frame=on_frame,
            on_client=on_client,
            on_suspect=self.suspects.append,
            on_recover=lambda peer: None,
            hb_interval=0.05,
            suspect_after=suspect_after,
        )


async def wait_for(predicate, timeout: float = 5.0, what: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        await asyncio.sleep(0.005)
    raise AssertionError(f"timed out waiting for {what}")


def payload(txn: int) -> dict:
    return {"t": "payload", "txn": txn, "d": {"p": "proto", "kind": "prepare"}}


class TestMixedCodecCluster:
    def test_bin_and_json_sites_interoperate(self):
        # Each connection mixes codecs: a JSON hello, then binary
        # frames.  Both directions deliver identical dicts from the
        # right peer.
        async def go():
            p1, p2 = free_ports(2)
            a = Harness(S1, p1, {S2: ("127.0.0.1", p2)}, suspect_after=10.0)
            b = Harness(S2, p2, {S1: ("127.0.0.1", p1)}, suspect_after=10.0)
            await a.transport.start()
            await b.transport.start()
            try:
                sent = [payload(i) for i in range(4)]
                for frame in sent:
                    a.transport.send(S2, dict(frame))
                    b.transport.send(S1, dict(frame))
                await wait_for(
                    lambda: len(a.frames) >= 4 and len(b.frames) >= 4,
                    what="both directions delivering",
                )
                assert [f for _, f in b.frames[:4]] == sent
                assert [f for _, f in a.frames[:4]] == sent
                assert all(peer == S1 for peer, _ in b.frames)
                assert all(peer == S2 for peer, _ in a.frames)
            finally:
                await a.transport.stop()
                await b.transport.stop()

        asyncio.run(go())

    def test_bin_cluster_heartbeats_keep_liveness(self):
        # Heartbeats are binary frames too — with a suspicion window a
        # few hb intervals wide, a healthy pair must never suspect
        # each other.
        async def go():
            p1, p2 = free_ports(2)
            a = Harness(S1, p1, {S2: ("127.0.0.1", p2)}, suspect_after=0.4)
            b = Harness(S2, p2, {S1: ("127.0.0.1", p1)}, suspect_after=0.4)
            await a.transport.start()
            await b.transport.start()
            try:
                await asyncio.sleep(1.2)
                assert a.suspects == []
                assert b.suspects == []
            finally:
                await a.transport.stop()
                await b.transport.stop()

        asyncio.run(go())
