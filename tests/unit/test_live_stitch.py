"""Cluster-trace stitching: determinism, orphan hygiene, CLI contract."""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import EXIT_OK, EXIT_VIOLATION, LiveConfigError
from repro.live.stitch import (
    CANONICAL_CATEGORIES,
    load_site_traces,
    stitch,
    stitch_data_dir,
)
from repro.live.wire import stamp_trace_context
from repro.live.wire_bin import encode_frame_bin
from repro.sim.spans import SpanIndex
from repro.sim.tracing import TraceLog
from repro.types import SiteId


def _line(time: float, category: str, site: int, detail: str = "", **data) -> str:
    """One site-trace JSONL line in the live writer's format."""
    record = {
        "time": time,
        "category": category,
        "site": site,
        "detail": detail,
        "data": dict(sorted(data.items())),
    }
    return json.dumps(record, separators=(",", ":"), default=str)


def _write_site(data_dir: Path, site: int, lines: list[str]) -> None:
    path = data_dir / f"site-{site}.trace.jsonl"
    path.write_text("".join(line + "\n" for line in lines))


def _vote_round(data_dir: Path, swap_arrivals: bool = False) -> None:
    """A 3-site vote round; optionally swap the coordinator's arrivals.

    Site 1 broadcasts a vote-request; sites 2 and 3 reply.  The two
    vote arrivals at site 1 race — ``swap_arrivals`` flips the order
    they appear in site 1's file, which is exactly the run-to-run
    nondeterminism canonical stitching must normalize away.
    """
    arrivals = [
        _line(0.4, "net.deliver", 1, msg_id=2_001_000_001, src=2, dst=1, txn=1),
        _line(0.5, "net.deliver", 1, msg_id=3_001_000_001, src=3, dst=1, txn=1),
    ]
    if swap_arrivals:
        arrivals.reverse()
    _write_site(
        data_dir,
        1,
        [
            _line(0.0, "live.boot", 1, boot=1, restarted=False),
            _line(0.1, "live.begin", 1, txn=1),
            _line(
                0.2, "net.send", 1,
                msg_id=1_001_000_001, src=1, dst=2, txn=1, kind="vote-req",
            ),
            _line(
                0.3, "net.send", 1,
                msg_id=1_001_000_002, src=1, dst=3, txn=1, kind="vote-req",
            ),
            *arrivals,
            _line(
                0.6, "txn.decided", 1,
                txn=1, outcome="commit", via="protocol", state="c",
            ),
        ],
    )
    for site in (2, 3):
        request = 1_001_000_001 if site == 2 else 1_001_000_002
        reply = site * 1_000_000_000 + 1_000_001
        _write_site(
            data_dir,
            site,
            [
                _line(0.0, "live.boot", site, boot=1, restarted=False),
                _line(
                    0.2, "net.deliver", site,
                    msg_id=request, src=1, dst=site, txn=1,
                ),
                _line(
                    0.3, "net.send", site,
                    msg_id=reply, src=site, dst=1, txn=1, kind="yes",
                    parent=request,
                ),
            ],
        )


class TestStitchDeterminism:
    def test_canonical_byte_stable_under_arrival_races(self, tmp_path):
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        run_a.mkdir()
        run_b.mkdir()
        _vote_round(run_a, swap_arrivals=False)
        _vote_round(run_b, swap_arrivals=True)
        stitched_a = stitch_data_dir(run_a, canonical=True)
        stitched_b = stitch_data_dir(run_b, canonical=True)
        assert stitched_a.trace.to_jsonl() == stitched_b.trace.to_jsonl()
        assert stitched_a.orphan_spans == []
        assert stitched_a.orphan_parents == []
        assert stitched_a.cycles_broken == 0

    def test_canonical_remaps_span_ids_densely(self, tmp_path):
        _vote_round(tmp_path)
        result = stitch_data_dir(tmp_path, canonical=True)
        ids = sorted(
            entry.data["msg_id"]
            for entry in result.trace.select(category="net.send")
        )
        assert ids == [1, 2, 3, 4]
        # Parent attribution names whichever racing arrival's handler
        # emitted the entry — scheduler noise, stripped from canonical.
        assert all("parent" not in entry.data for entry in result.trace)
        full = stitch_data_dir(tmp_path)
        parents = [
            entry.data["parent"]
            for entry in full.trace
            if "parent" in entry.data
        ]
        assert parents  # full mode keeps raw parent references

    def test_canonical_strips_volatile_and_racy_content(self, tmp_path):
        _write_site(
            tmp_path,
            1,
            [
                _line(0.0, "live.boot", 1, boot=1, restarted=False),
                _line(0.1, "live.ready", 1),  # racy: excluded
                _line(0.2, "log.fsync", 1, batch=3, duration_ms=1.5),  # excluded
                _line(0.3, "phase.exit", 1, txn=1, phase="q", elapsed=0.0021),
            ],
        )
        result = stitch_data_dir(tmp_path, canonical=True)
        categories = {entry.category for entry in result.trace}
        assert categories == {"live.boot", "phase.exit"}
        assert all(c in CANONICAL_CATEGORIES for c in categories)
        (phase_exit,) = result.trace.select(category="phase.exit")
        assert "elapsed" not in phase_exit.data
        assert phase_exit.detail == ""

    def test_causal_order_send_before_deliver(self, tmp_path):
        _vote_round(tmp_path)
        result = stitch_data_dir(tmp_path)
        position = {
            (entry.category, entry.data.get("msg_id")): index
            for index, entry in enumerate(result.trace)
            if entry.data.get("msg_id") is not None
        }
        for msg in (1_001_000_001, 1_001_000_002, 2_001_000_001, 3_001_000_001):
            assert position[("net.send", msg)] < position[("net.deliver", msg)]

    def test_program_order_within_txn_preserved(self, tmp_path):
        _vote_round(tmp_path)
        result = stitch_data_dir(tmp_path)
        entries = [e for e in result.trace if e.site == 1]
        decided = next(i for i, e in enumerate(entries) if e.category == "txn.decided")
        # The decision follows both vote arrivals at site 1.
        arrivals = [i for i, e in enumerate(entries) if e.category == "net.deliver"]
        assert arrivals and max(arrivals) < decided


class TestStitchFullMode:
    def test_times_are_emission_indices_with_site_time_kept(self, tmp_path):
        _vote_round(tmp_path)
        result = stitch_data_dir(tmp_path)
        assert [entry.time for entry in result.trace] == [
            float(i) for i in range(len(result.trace))
        ]
        assert all("site_time" in entry.data for entry in result.trace)

    def test_output_readable_by_span_index(self, tmp_path):
        _vote_round(tmp_path)
        result = stitch_data_dir(tmp_path)
        reloaded = TraceLog.from_jsonl(result.trace.to_jsonl())
        index = SpanIndex.from_trace(reloaded)
        assert len(index.delivered()) == 4
        assert index.orphans() == []


class TestStitchHygiene:
    def test_orphan_span_detected(self, tmp_path):
        _write_site(
            tmp_path,
            2,
            [
                _line(0.0, "live.boot", 2, boot=1, restarted=False),
                _line(0.1, "net.deliver", 2, msg_id=777, src=1, dst=2, txn=1),
            ],
        )
        result = stitch_data_dir(tmp_path)
        assert result.orphan_spans == [777]

    def test_orphan_parent_detected(self, tmp_path):
        _write_site(
            tmp_path,
            2,
            [
                _line(0.0, "live.boot", 2, boot=1, restarted=False),
                _line(0.1, "engine.transition", 2, txn=1, state="w", parent=999),
            ],
        )
        result = stitch_data_dir(tmp_path)
        assert result.orphan_parents == [999]

    def test_inflight_send_is_not_an_orphan(self, tmp_path):
        # A send whose receiver died is expected; only a *terminal*
        # without a send is lost instrumentation.
        _write_site(
            tmp_path,
            1,
            [
                _line(0.0, "live.boot", 1, boot=1, restarted=False),
                _line(0.1, "net.send", 1, msg_id=5, src=1, dst=2, txn=1, kind="x"),
            ],
        )
        result = stitch_data_dir(tmp_path)
        assert result.inflight == 1
        assert result.orphan_spans == []

    def test_torn_trace_tail_is_lenient(self, tmp_path):
        _vote_round(tmp_path)
        path = tmp_path / "site-3.trace.jsonl"
        path.write_text(path.read_text() + '{"time":9.9,"categ')  # torn by kill -9
        result = stitch_data_dir(tmp_path)
        assert result.sites[3]["malformed"] == 1
        assert result.cycles_broken == 0

    def test_empty_dir_is_config_error(self, tmp_path):
        with pytest.raises(LiveConfigError):
            load_site_traces(tmp_path)

    def test_stitch_accepts_in_memory_logs(self):
        log = TraceLog()
        log.record(0.0, "live.boot", "", site=1, boot=1)
        result = stitch({1: log})
        assert len(result.trace) == 1


class TestStaleIncarnationDrop:
    def test_fenced_frame_closes_span_with_reason(self):
        """An incarnation-fenced frame ends as a *closed* span, never
        an orphan: the receiver's transport emits ``net.drop`` carrying
        the sender's span id and the fence reason."""
        from repro.live.clock import TimeoutClock
        from repro.live.transport import Transport

        events: list[tuple[str, dict]] = []
        received: list[dict] = []

        async def on_frame(peer, frame):
            received.append(frame)

        async def on_client(first, reader, writer):  # pragma: no cover
            pass

        transport = Transport(
            site=SiteId(1),
            host="127.0.0.1",
            port=0,
            peers={SiteId(2): ("127.0.0.1", 0)},
            clock=TimeoutClock(),
            on_frame=on_frame,
            on_client=on_client,
            on_suspect=lambda p: None,
            on_recover=lambda p: None,
            boot=2,  # this incarnation outlived the frame's target
            trace=lambda category, detail, **data: events.append(
                (category, data)
            ),
        )
        frame = stamp_trace_context(
            {
                "t": "payload",
                "txn": 5,
                "d": {"p": "proto", "kind": "prepare"},
                "dst_boot": 1,
            },
            42,
        )

        class _Writer:
            def close(self) -> None:
                pass

        async def go() -> None:
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame_bin(frame))
            reader.feed_eof()
            await transport._peer_receiver(SiteId(2), 1, reader, _Writer())

        asyncio.run(go())
        assert received == []  # fenced, never delivered
        (drop,) = [data for category, data in events if category == "net.drop"]
        assert drop == {
            "msg_id": 42,
            "src": 2,
            "dst": 1,
            "txn": 5,
            "reason": "stale_incarnation",
        }

        # Span-level view: send + fence-drop pair into a closed span.
        log = TraceLog()
        log.record(
            0.0, "net.send", "", site=2,
            msg_id=42, src=2, dst=1, txn=5, kind="prepare",
        )
        log.record(1.0, "net.drop", "", site=1, **drop)
        index = SpanIndex.from_trace(log)
        span = index.span(42)
        assert span is not None
        assert span.status == "dropped"
        assert span.drop_reason == "stale_incarnation"
        assert not span.orphan
        assert index.orphans() == []


class TestStitchCli:
    def test_cli_writes_trace_and_report(self, tmp_path, capsys):
        _vote_round(tmp_path)
        out = tmp_path / "cluster.jsonl"
        sidecar = tmp_path / "stitch.json"
        code = main(
            [
                "stitch", str(tmp_path),
                "--canonical",
                "--out", str(out),
                "--json", str(sidecar),
                "--strict",
            ]
        )
        assert code == EXIT_OK
        report = json.loads(sidecar.read_text())
        assert report["orphan_spans"] == []
        assert report["orphan_parents"] == []
        assert report["cycles_broken"] == 0
        assert report["canonical"] is True
        reloaded = TraceLog.load(str(out))
        assert len(reloaded) == report["entries"]
        capsys.readouterr()

    def test_cli_strict_fails_on_orphans(self, tmp_path, capsys):
        _write_site(
            tmp_path,
            2,
            [_line(0.1, "net.deliver", 2, msg_id=777, src=1, dst=2, txn=1)],
        )
        assert main(["stitch", str(tmp_path), "--strict"]) == EXIT_VIOLATION
        assert main(["stitch", str(tmp_path)]) == EXIT_OK  # advisory by default
        capsys.readouterr()
