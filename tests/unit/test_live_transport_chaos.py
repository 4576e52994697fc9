"""In-process transport tests: chaos delivery, suspicion epochs, flush.

Two real :class:`Transport` instances over loopback TCP, no site
subprocesses — fast enough for the unit tier while still exercising
the actual socket path the chaos seam lives on.
"""

from __future__ import annotations

import asyncio
import socket
import time

import pytest

from repro.errors import LiveTimeoutError
from repro.live.chaos import ChaosPolicy, ChaosRule, LinkChaos
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
        hb_interval: float = 0.05,
        suspect_after: float = 10.0,
        chaos: LinkChaos | None = None,
        wait_durable=None,
    ) -> None:
        self.frames: list[tuple[SiteId, dict]] = []
        self.suspects: list[SiteId] = []
        self.recoveries: list[SiteId] = []
        #: (still suspected?, suspicion epoch) read inside on_recover.
        self.at_recovery: list[tuple[bool, float | None]] = []
        self.traces: list[str] = []
        self.clock = TimeoutClock()

        async def on_frame(peer, frame):
            self.frames.append((peer, frame))

        def on_recover(peer):
            self.recoveries.append(peer)
            self.at_recovery.append(
                (
                    peer in self.transport.suspected,
                    self.transport.suspected_at.get(peer),
                )
            )

        async def on_client(first, reader, writer):
            writer.close()

        self.transport = Transport(
            site=site,
            host="127.0.0.1",
            port=port,
            peers=peers,
            clock=self.clock,
            on_frame=on_frame,
            on_client=on_client,
            on_suspect=self.suspects.append,
            on_recover=on_recover,
            hb_interval=hb_interval,
            suspect_after=suspect_after,
            trace=lambda category, detail="", **data: self.traces.append(
                category
            ),
            wait_durable=wait_durable,
            chaos=chaos,
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


class TestChaosDelivery:
    def test_dropped_frames_never_deliver_and_are_traced(self):
        async def go():
            p1, p2 = free_ports(2)
            policy = ChaosPolicy(
                links=(ChaosRule(src=2, dst=1, kinds=("prepare",), drop=1.0),)
            )
            a = Harness(
                S1,
                p1,
                {S2: ("127.0.0.1", p2)},
                chaos=LinkChaos(policy, 1),
            )
            b = Harness(S2, p2, {S1: ("127.0.0.1", p1)})
            await a.transport.start()
            await b.transport.start()
            try:
                await wait_for(
                    lambda: a.transport.all_peers_seen()
                    and b.transport.all_peers_seen(),
                    what="mesh up",
                )
                b.transport.send(S1, payload(7))
                b.transport.send(
                    S1, {"t": "payload", "txn": 1, "d": {"p": "proto", "kind": "ok"}}
                )
                await wait_for(lambda: a.frames, what="surviving frame")
                kinds = [f["d"]["kind"] for _, f in a.frames]
                assert kinds == ["ok"]  # the prepare died, order held
                assert a.transport.chaos_drops == 1
                assert "live.chaos_drop" in a.traces
            finally:
                await a.transport.stop()
                await b.transport.stop()

        asyncio.run(go())

    def test_delay_preserves_per_link_fifo(self):
        async def go():
            p1, p2 = free_ports(2)
            # Only "slow" frames are delayed; a later "fast" frame must
            # still arrive after them (FIFO per link is the contract).
            policy = ChaosPolicy(
                links=(
                    ChaosRule(src=2, dst=1, kinds=("slow",), delay_ms=150.0),
                )
            )
            a = Harness(
                S1, p1, {S2: ("127.0.0.1", p2)}, chaos=LinkChaos(policy, 1)
            )
            b = Harness(S2, p2, {S1: ("127.0.0.1", p1)})
            await a.transport.start()
            await b.transport.start()
            try:
                await wait_for(
                    lambda: a.transport.all_peers_seen()
                    and b.transport.all_peers_seen(),
                    what="mesh up",
                )
                b.transport.send(
                    S1, {"t": "payload", "txn": 1, "d": {"p": "proto", "kind": "slow"}}
                )
                b.transport.send(
                    S1, {"t": "payload", "txn": 1, "d": {"p": "proto", "kind": "fast"}}
                )
                await wait_for(lambda: len(a.frames) >= 2, what="both frames")
                kinds = [f["d"]["kind"] for _, f in a.frames]
                assert kinds == ["slow", "fast"]
                assert a.transport.chaos_delays >= 1
            finally:
                await a.transport.stop()
                await b.transport.stop()

        asyncio.run(go())


class TestSuspicionEpoch:
    def test_stale_delayed_frame_does_not_clear_suspicion(self):
        """Regression: clearing suspicion on *any* inbound frame.

        A frame that was already chaos-delayed in flight when the peer
        went quiet is stamped before the suspicion epoch; delivering it
        must not un-suspect the peer.  Only a frame that arrived at the
        socket after the suspicion was raised counts as proof of life.
        """

        async def go():
            p1, p2 = free_ports(2)
            # Site 1 drops site 2's heartbeats outright and delays its
            # protocol frames past the suspicion threshold.
            policy = ChaosPolicy(
                links=(
                    ChaosRule(src=2, dst=1, kinds=("@hb",), drop=1.0),
                    ChaosRule(
                        src=2, dst=1, kinds=("@payload",), delay_ms=500.0
                    ),
                )
            )
            a = Harness(
                S1,
                p1,
                {S2: ("127.0.0.1", p2)},
                hb_interval=0.05,
                suspect_after=0.25,
                chaos=LinkChaos(policy, 1),
            )
            b = Harness(S2, p2, {S1: ("127.0.0.1", p1)})
            await a.transport.start()
            await b.transport.start()
            try:
                await wait_for(
                    lambda: a.transport.all_peers_seen(), what="first contact"
                )
                # In flight before the silence is noticed...
                b.transport.send(S1, payload(1))
                await wait_for(
                    lambda: S2 in a.transport.suspected, what="suspicion"
                )
                epoch = a.transport.suspected_at[S2]
                # ...delivered after the epoch, stamped before it.
                await wait_for(lambda: a.frames, what="delayed delivery")
                assert S2 in a.transport.suspected, (
                    "stale pre-epoch frame cleared the suspicion"
                )
                assert "live.stale_liveness" in a.traces
                assert a.recoveries == []
                # Fresh evidence (socket arrival after the epoch) does
                # clear it — the detector still recovers.  Heartbeats
                # stay dropped and the fresh frame is itself delivered
                # 500ms after arrival, so the detector rightly suspects
                # again on its next tick: read the cleared state inside
                # the recovery callback, not by polling afterwards.
                b.transport.send(S1, payload(2))
                await wait_for(
                    lambda: a.recoveries, what="recovery on fresh frame"
                )
                assert a.recoveries == [S2]
                assert a.at_recovery == [(False, None)]
                assert a.transport.last_seen[S2] > epoch
            finally:
                await a.transport.stop()
                await b.transport.stop()

        asyncio.run(go())


class TestFlush:
    def test_flush_returns_once_outbox_drains(self):
        async def go():
            p1, p2 = free_ports(2)
            a = Harness(S1, p1, {S2: ("127.0.0.1", p2)})
            b = Harness(S2, p2, {S1: ("127.0.0.1", p1)})
            await a.transport.start()
            await b.transport.start()
            try:
                for txn in range(20):
                    a.transport.send(S2, payload(txn))
                await a.transport.flush(timeout=5.0)
                assert not any(a.transport._outbox.values())
            finally:
                await a.transport.stop()
                await b.transport.stop()

        asyncio.run(go())

    def test_flush_blocks_on_slow_durability_gate_without_polling(self):
        """The waiter resolves when the sender drains, not on a poll tick."""

        async def go():
            p1, p2 = free_ports(2)
            release = asyncio.Event()

            async def gate(lsn: int) -> None:
                await release.wait()

            a = Harness(S1, p1, {S2: ("127.0.0.1", p2)}, wait_durable=gate)
            b = Harness(S2, p2, {S1: ("127.0.0.1", p1)})
            await a.transport.start()
            await b.transport.start()
            try:
                a.transport.send(S2, payload(1), barrier=10)
                flusher = asyncio.create_task(a.transport.flush(timeout=5.0))
                await asyncio.sleep(0.05)
                assert not flusher.done()  # held by the barrier
                release.set()
                await asyncio.wait_for(flusher, timeout=2.0)
            finally:
                await a.transport.stop()
                await b.transport.stop()

        asyncio.run(go())

    def test_flush_timeout_reports_stuck_peer(self):
        async def go():
            p1, dead = free_ports(2)
            # Peer address nobody listens on: the outbox cannot drain.
            a = Harness(S1, p1, {S2: ("127.0.0.1", dead)})
            await a.transport.start()
            try:
                a.transport.send(S2, payload(1))
                with pytest.raises(LiveTimeoutError, match="flush timed out"):
                    await a.transport.flush(timeout=0.2)
                assert not a.transport._flush_waiters  # waiter cleaned up
            finally:
                await a.transport.stop()

        asyncio.run(go())

    def test_flush_timer_is_cancelled_on_success(self):
        """The deadline timer must not linger after a clean flush."""

        async def go():
            p1, p2 = free_ports(2)
            a = Harness(S1, p1, {S2: ("127.0.0.1", p2)})
            b = Harness(S2, p2, {S1: ("127.0.0.1", p1)})
            await a.transport.start()
            await b.transport.start()
            try:
                a.transport.send(S2, payload(1))
                await a.transport.flush(timeout=0.3)
                # Outlive the timeout: a leaked timer would fire into a
                # resolved waiter (and a bug there would raise).
                await asyncio.sleep(0.4)
                assert not a.transport._flush_waiters
            finally:
                await a.transport.stop()
                await b.transport.stop()

        asyncio.run(go())
