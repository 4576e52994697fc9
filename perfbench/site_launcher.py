"""Traced site process: wrap the layers' entry points, then ``repro serve``.

Usage (the traced run spawns it in place of ``python -m repro``)::

    python3 perfbench/site_launcher.py --spans-out FILE serve --site 1 ...

Everything after ``--spans-out FILE`` is handed to the program's own CLI
unchanged.  When ``serve`` returns (SIGTERM from the cluster harness is
a graceful stop), the spans, the DT-log force waits, the event-loop lag
samples and the captured inputs for the microbenchmarks are written to
FILE in one go.  A site that is SIGKILLed writes nothing, so the traced
run kills its coordinator only before the measured load.
"""

from __future__ import annotations

import asyncio
import json
import sys

from spans import SpanRecorder, now_ns

#: Captured inputs for the microbenchmarks are bounded per site.
MAX_FRAMES = 4000
MAX_ENGINES = 600
#: Event-loop lag probe period.
LAG_PERIOD_S = 0.005


def install(recorder: SpanRecorder, site: int, coordinator: int) -> tuple[dict, dict]:
    """Wrap every traced layer.

    Returns the side-channel collections and the per-engine message
    sequences (keyed by engine identity).
    """
    from repro.live import node, wire, wire_bin
    from repro.live.dtlog import SiteLogStore
    from repro.live.node import LiveSite, LiveTxn
    from repro.live.transport import Transport
    from repro.runtime.engine import Engine

    side: dict = {
        "site": site,
        "role": "coordinator" if site == coordinator else "participant",
        "force_waits": [],
        "lag": [],
        "frames": [],
    }
    frames = side["frames"]
    engines: dict[int, list] = {}
    forced: list[tuple[int, int]] = []
    waits = side["force_waits"]

    # Handlers: the synchronous entry points that carry the txn id.
    recorder.wrap(LiveTxn, "deliver_payload", "handler", lambda txn, *a: txn.txn_id)
    recorder.wrap(LiveSite, "begin_txn", "handler", lambda node_, txn_id: txn_id)

    # FSA + engine, capturing each engine's message sequence.
    receive = Engine.receive

    def capturing_receive(engine, msg):
        sequence = engines.get(id(engine))
        if sequence is None and len(engines) < MAX_ENGINES:
            sequence = engines[id(engine)] = [int(engine.site)]
        if sequence is not None:
            sequence.append([msg.kind, int(msg.src), int(msg.dst)])
        return receive(engine, msg)

    Engine.receive = recorder.timed("engine", capturing_receive)

    # Codec: payload dicts, frame bytes, incremental decoders.
    recorder.wrap(node, "encode_payload", "codec")
    recorder.wrap(node, "decode_payload", "codec")
    recorder.wrap(wire.FrameDecoder, "feed", "codec")
    recorder.wrap(wire_bin.BinFrameDecoder, "feed", "codec")
    transport_init = Transport.__init__

    def traced_transport_init(transport, *args, **kwargs):
        transport_init(transport, *args, **kwargs)
        encode = transport._encode_peer

        def capturing_encode(frame):
            if len(frames) < MAX_FRAMES:
                frames.append(frame)
            return encode(frame)

        transport._encode_peer = recorder.timed("codec", capturing_encode)

    Transport.__init__ = traced_transport_init
    recorder.wrap(Transport, "send", "transport")

    # DT log: appends, fsyncs, and how long each forced record waited
    # for the group-commit fsync that made it durable.
    recorder.wrap(SiteLogStore, "append_record", "dtlog")
    recorder.wrap(SiteLogStore, "_timed_fsync", "dtlog.fsync")
    append = SiteLogStore._append

    def timed_append(store, body, force):
        lsn = append(store, body, force)
        if force:
            forced.append((lsn, now_ns()))
        return lsn

    SiteLogStore._append = timed_append
    mark_durable = SiteLogStore._mark_durable

    def timed_mark_durable(store, upto, batch):
        stamp = now_ns()
        while forced and forced[0][0] <= upto:
            _lsn, appended = forced.pop(0)
            waits.append([appended, stamp - appended])
        return mark_durable(store, upto, batch)

    SiteLogStore._mark_durable = timed_mark_durable

    # Tracing and metrics snapshots.
    recorder.wrap(LiveSite, "trace", "trace")
    recorder.wrap(LiveSite, "write_metrics", "metrics")

    # Event-loop lag: a probe task scheduled next to the site's own.
    start = LiveSite.start

    async def start_with_lag_probe(site_):
        await start(site_)
        site_._tasks.append(asyncio.create_task(_lag_probe(side["lag"])))

    LiveSite.start = start_with_lag_probe
    return side, engines


async def _lag_probe(samples: list) -> None:
    period_ns = int(LAG_PERIOD_S * 1e9)
    while True:
        before = now_ns()
        await asyncio.sleep(LAG_PERIOD_S)
        after = now_ns()
        samples.append([after, after - before - period_ns])


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans-out":
        print("usage: site_launcher.py --spans-out FILE serve ...", file=sys.stderr)
        return 2
    out, serve_argv = argv[1], argv[2:]
    site = int(serve_argv[serve_argv.index("--site") + 1])
    recorder = SpanRecorder()
    # Central-site specs put the coordinator at site 1.
    side, engines = install(recorder, site, coordinator=1)
    from repro.cli import main as repro_main

    code = repro_main(serve_argv)
    side["engines"] = list(engines.values())
    side.update(recorder.to_json())
    with open(out, "w") as handle:
        json.dump(side, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
