"""Per-layer microbenchmarks of the program's public functions.

Each runs on inputs captured from the workload itself: the frames its
sites encoded, the records its DT logs hold, the message sequences its
engines received and the metrics registry it published.  Both peer
codecs and both engine modes are timed on the same inputs, so a change
to one lever shows in that lever's numbers.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Sequence

import common

from repro.fsa.compile import interpreted_engine
from repro.fsa.messages import Msg
from repro.live.dtlog import SiteLogStore
from repro.live.wire import decode_frame_bytes, encode_frame
from repro.live.wire_bin import decode_frame_bin_bytes, encode_frame_bin
from repro.metrics import MetricsRegistry
from repro.protocols import build
from repro.runtime.engine import Engine
from repro.runtime.log import DTLog
from repro.runtime.policies import UnanimousYes
from repro.types import SiteId

REPEATS = 5


def _per_op_us(run: Callable[[], int], repeats: int = REPEATS) -> float:
    """Median over ``repeats`` of (time of ``run``) / (ops it reports)."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        ops = run()
        samples.append((time.perf_counter_ns() - start) / 1e3 / max(1, ops))
    return common.median(samples)


def wire(frames: Sequence[dict[str, Any]]) -> dict[str, float]:
    """Encode and decode the captured frame mix with both codecs."""
    json_bytes = [encode_frame(frame) for frame in frames]
    bin_bytes = [encode_frame_bin(frame) for frame in frames]

    def loop(function: Callable[[Any], Any], items: Sequence[Any]) -> Callable[[], int]:
        def run() -> int:
            for item in items:
                function(item)
            return len(items)

        return run

    return {
        "wire.json_encode_us": _per_op_us(loop(encode_frame, frames)),
        "wire.json_decode_us": _per_op_us(loop(decode_frame_bytes, json_bytes)),
        "wire.bin_encode_us": _per_op_us(loop(encode_frame_bin, frames)),
        "wire.bin_decode_us": _per_op_us(loop(decode_frame_bin_bytes, bin_bytes)),
        "wire.json_bytes_per_frame": common.mean([len(b) for b in json_bytes]),
        "wire.bin_bytes_per_frame": common.mean([len(b) for b in bin_bytes]),
    }


def dtlog_append_force(records: Sequence[tuple[int, Any]], directory: Path) -> float:
    """Mean µs of one forced append (write + flush + fsync, no group commit)."""
    path = directory / "micro.dtlog"
    path.unlink(missing_ok=True)
    store = SiteLogStore(path)
    try:
        start = time.perf_counter_ns()
        for txn, record in records:
            store.append_record(txn, record, force=True)
        elapsed = time.perf_counter_ns() - start
    finally:
        store.close()
        path.unlink(missing_ok=True)
    return elapsed / 1e3 / max(1, len(records))


def logged_records(path: Path, limit: int) -> list[tuple[int, Any]]:
    """The first ``limit`` txn records of a captured DT log."""
    copy = path.with_name("micro-source.dtlog")
    copy.write_bytes(path.read_bytes())
    store = SiteLogStore(copy)  # Opening appends a boot record: use a copy.
    try:
        records = [
            (txn, record)
            for txn in store.txn_ids()
            for record in store.records_for(txn)
        ]
    finally:
        store.close()
        copy.unlink()
    return records[:limit]


def fsa_step(
    engines: Sequence[list[Any]],
    spec_name: str,
    n_sites: int,
    ro_sites: tuple[int, ...],
    presumption: str,
) -> dict[str, float]:
    """Replay captured engine inputs through ``Engine.receive``, both modes.

    Each captured sequence is ``[site, [kind, src, dst], ...]``.  Engines
    are built outside the timed region; only ``receive`` is timed.
    """
    spec = build(spec_name, n_sites, ro_sites=ro_sites)
    votes = UnanimousYes()
    inputs = [
        (SiteId(seq[0]), [Msg(kind, SiteId(src), SiteId(dst)) for kind, src, dst in seq[1:]])
        for seq in engines
    ]
    steps = sum(len(msgs) for _site, msgs in inputs)

    def fresh() -> list[tuple[Engine, list[Msg]]]:
        return [
            (
                Engine(
                    automaton=spec.automaton(site),
                    vote_policy=votes,
                    log=DTLog(),
                    send=lambda msg: None,
                    now=lambda: 0.0,
                    on_final=lambda outcome, via: None,
                    on_trace=lambda *args, **kwargs: None,
                    presumption=presumption,
                ),
                msgs,
            )
            for site, msgs in inputs
        ]

    def timed(build_engines: Callable[[], list[tuple[Engine, list[Msg]]]]) -> float:
        samples = []
        for _ in range(REPEATS):
            built = build_engines()
            start = time.perf_counter_ns()
            for engine, msgs in built:
                for msg in msgs:
                    engine.receive(msg)
            samples.append((time.perf_counter_ns() - start) / 1e3 / max(1, steps))
        return common.median(samples)

    def fresh_interpreted() -> list[tuple[Engine, list[Msg]]]:
        with interpreted_engine():
            return fresh()

    return {
        "fsa.step_compiled_us": timed(fresh),
        "fsa.step_interpreted_us": timed(fresh_interpreted),
    }


def metrics_snapshot(registry: MetricsRegistry) -> float:
    """Mean µs of one ``MetricsRegistry.to_json`` of the captured registry."""

    def run() -> int:
        for _ in range(50):
            registry.to_json()
        return 50

    return _per_op_us(run)
