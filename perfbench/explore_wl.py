"""The explore-3pc workload: the analyst checking 3PC with the explorer.

In-process :class:`~repro.explore.explorer.Explorer` on ``3pc-central``
with 4 sites, bounded DFS, 2 crash injections, no partitions, one
worker, and a fixed schedule budget per exploration.  A run repeats the
exploration until its time is up; every repeat must give the same
CLEAN verdict, execute exactly the budget and produce the same digest.
The FSA step, runtime engine, simulator and invariant checks do the
work here; sockets, codecs and fsync do none.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from typing import Any

import common
import spans as spanlib

from repro.explore import explorer as explorer_module
from repro.explore import ExploreConfig, Explorer
from repro.errors import FrameError
from repro.live.wire import encode_payload, stamp_trace_context
from repro.metrics import MetricsRegistry
from repro.metrics.registry import observe_run
from repro.net.network import Network
from repro.runtime.engine import Engine
from repro.runtime.harness import CommitRun
from repro.runtime.log import DTLog
from repro.sim.tracing import TraceLog

PROTOCOL = "3pc-central"
N_SITES = 4
BUDGET = 1000
SETUP_REPEATS = 51
#: Explorer seeds per run.  Schedule trees differ in cost by seed, so a
#: run explores ``SUBSEEDS`` of them in turn: seed*8 ... seed*8 + 7.
SUBSEEDS = 8
COLD_STARTS = 5
COLD_START_TIMEOUT_S = 60.0
MAX_FRAMES = 4000
MAX_ENGINES = 600
MAX_RECORDS = 200
MAX_RUNS = 50


def config_for(
    seed: int,
    protocol: str = PROTOCOL,
    n_sites: int = N_SITES,
    crash_budget: int = 2,
    budget: int = BUDGET,
) -> ExploreConfig:
    return ExploreConfig(
        protocol=protocol,
        n_sites=n_sites,
        seed=seed,
        budget=budget,
        crash_budget=crash_budget,
        partitions=False,
        mode="dfs",
        shards=1,
    )


class TimedExplorer(Explorer):
    """The program's explorer, timing and fingerprinting every schedule."""

    def __init__(self, config: ExploreConfig) -> None:
        super().__init__(config)
        self.latencies_ms: list[float] = []
        self.choices: list[int] = []
        self.digest = hashlib.sha256()

    def run_one(self, prefix=(), rng=None, strict=False):  # type: ignore[override]
        start = time.perf_counter_ns()
        outcome = super().run_one(prefix, rng=rng, strict=strict)
        self.latencies_ms.append((time.perf_counter_ns() - start) / 1e6)
        self.choices.append(len(outcome.trail))
        self.digest.update(
            f"{outcome.hash} {','.join(outcome.outcomes)} "
            f"{'+'.join(outcome.signature)}\n".encode()
        )
        return outcome


def explore_once(config: ExploreConfig) -> tuple[TimedExplorer, Any, float]:
    explorer = TimedExplorer(config)
    start = time.perf_counter()
    result = explorer.explore_shard(0)
    return explorer, result, time.perf_counter() - start


def explore_for(configs: list[ExploreConfig], seconds: float) -> dict[str, Any]:
    """Explore ``configs`` in turn until ``seconds`` have passed.

    At least one exploration runs, so ``seconds=0`` runs exactly one.
    Every repeat of one config must reproduce its first digest.
    """
    rates, p50s, p99s, steal, choices, problems = [], [], [], [], [], []
    digests: dict[int, str] = {}
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    while not rates or time.monotonic() < deadline:
        index = len(rates) % len(configs)
        config = configs[index]
        ticks = common.cpu_ticks()
        explorer, result, elapsed = explore_once(config)
        steal.append(common.steal_share(ticks, common.cpu_ticks()))
        attempted += result.schedules
        rates.append(result.schedules / elapsed)
        p50s.append(common.nearest_rank(explorer.latencies_ms, 0.50))
        p99s.append(common.nearest_rank(explorer.latencies_ms, 0.99))
        choices += explorer.choices
        digest = explorer.digest.hexdigest()[:16]
        if digests.setdefault(index, digest) != digest:
            problems.append(
                f"seed {config.seed}: a repeat gave digest {digest}, "
                f"the first gave {digests[index]}"
            )
        for record in result.violations:
            failed += record.count
            problems.append(
                f"violation {'+'.join(record.signature)} x{record.count}: "
                + "; ".join(record.details)
            )
        if result.schedules != config.budget:
            problems.append(
                f"executed {result.schedules} schedules, budget {config.budget}"
            )
    combined = hashlib.sha256(
        "".join(f"{configs[i].seed}:{d}\n" for i, d in sorted(digests.items())).encode()
    )
    return {
        "rates": rates,
        "p50s": p50s,
        "p99s": p99s,
        "steal": steal,
        "choices": choices,
        "digest": combined.hexdigest()[:16],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


_COLD_START = """
import json, sys
from repro.explore import ExploreConfig, Explorer
outcome = Explorer(ExploreConfig(**json.loads(sys.argv[1]))).run_one(())
print("first", outcome.hash, flush=True)
"""


def cold_start_s(seed: int) -> tuple[float, float]:
    """Fresh process -> first checked schedule: the analyst's restart.

    Returns the time and the host's steal share while it ran.
    """
    ticks = common.cpu_ticks()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(common.SRC) + os.pathsep + env.get("PYTHONPATH", "")
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-c", _COLD_START, json.dumps(config_for(seed).to_json())],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        line = proc.stdout.readline() if proc.stdout else ""
        elapsed = time.monotonic() - start
        proc.wait(timeout=COLD_START_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if proc.stdout:
            proc.stdout.close()
    if not line.startswith("first"):
        raise RuntimeError(f"explorer cold start failed (exit {proc.returncode})")
    return elapsed, common.steal_share(ticks, common.cpu_ticks())


def setup_s(seed: int) -> float:
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        Explorer(config_for(seed))
        samples.append(time.perf_counter() - start)
    return common.median(samples)


def _summary(explored: dict[str, Any], metrics: dict[str, float]) -> dict[str, Any]:
    return {
        "metrics": metrics,
        "samples": {
            "explorations": len(explored["rates"]),
            "explorations_kept": explored.get("kept"),
            "schedules": explored["attempted"],
            "latency_samples_per_exploration": BUDGET,
            "digest": explored["digest"],
            "verdict": "CLEAN" if not explored["failed"] else "VIOLATION",
        },
        "attempted": explored["attempted"],
        "failed": explored["failed"],
        "problems": explored["problems"],
    }


def run(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    configs = [config_for(seed * SUBSEEDS + k) for k in range(SUBSEEDS)]
    config = configs[0]
    if not trace:
        setup = setup_s(config.seed)
        explored = explore_for(configs, seconds)
        # Medians over the half of the repeats during which the host
        # stole the least CPU (see common.quietest).  Each repeat has
        # the 1000 samples a nearest-rank p99 needs.
        kept = common.quietest(
            list(zip(explored["rates"], explored["p50s"], explored["p99s"])),
            explored["steal"],
            0.5,
        )
        starts = [cold_start_s(config.seed) for _ in range(COLD_STARTS)]
        quiet_starts = common.quietest(starts, [share for _s, share in starts], 0.5)
        explored["kept"] = f"{len(kept)} of {len(explored['rates'])}"
        metrics = {
            "txns_per_s": common.median([rate for rate, _p50, _p99 in kept]),
            "latency_p50_ms": common.median([p50 for _rate, p50, _p99 in kept]),
            "latency_p99_ms": common.median([p99 for _rate, _p50, p99 in kept]),
            "outage_s": common.median([s for s, _share in quiet_starts]),
            "setup_s": setup,
            "rss_mb": common.peak_rss_kb() / 1024.0,
        }
        return _summary(explored, metrics)

    rss_before = common.vm_rss_kb(os.getpid())
    plain = explore_for(configs, seconds)
    rss_growth = common.vm_rss_kb(os.getpid()) - rss_before
    traced, metrics, captures = traced_exploration(config)
    schedules = max(1, traced["attempted"])
    metrics["node.rss_kb_per_txn"] = max(0, rss_growth) / max(1, plain["attempted"])
    metrics["tracing.txns_per_s_untraced"] = common.median(plain["rates"])
    metrics["tracing.txns_per_s_traced"] = common.median(traced["rates"])
    metrics["tracing.overhead_frac"] = (
        1.0 - metrics["tracing.txns_per_s_traced"] / metrics["tracing.txns_per_s_untraced"]
    )
    counts = captures["counts"]
    metrics["dtlog.forced_writes_per_txn"] = counts["forced"] / schedules
    metrics["dtlog.skipped_writes_per_txn"] = counts["lazy"] / schedules
    summary = _summary(plain, metrics)
    summary["attempted"] += traced["attempted"]
    summary["failed"] += traced["failed"]
    summary["problems"] += traced["problems"]
    registry = MetricsRegistry()
    for run_result in captures["runs"]:
        observe_run(registry, run_result)
    summary["captures"] = {
        "frames": captures["frames"],
        "engines": list(captures["engines"].values()),
        "records": captures["records"],
        "registry": registry,
        "spec": {"spec_name": PROTOCOL, "presumption": "none", "ro_sites": ()},
        "n_sites": N_SITES,
    }
    return summary


def traced_exploration(
    config: ExploreConfig,
) -> tuple[dict[str, Any], dict[str, float], dict[str, Any]]:
    """One exploration with spans around the explorer's layers.

    Returns the exploration summary, the per-layer metrics its spans
    give, and the inputs captured for the microbenchmarks.
    """
    recorder = spanlib.SpanRecorder()
    captures: dict[str, Any] = {"frames": [], "engines": {}, "records": [], "runs": []}
    restore = _install(recorder, captures)
    try:
        traced = explore_for([config], 0.0)
    finally:
        restore()
    doc = recorder.to_json()
    schedules = max(1, traced["attempted"])
    self_ns = spanlib.self_times_ns(doc, 0, 2**63)
    sends = spanlib.count_in_window(doc, "transport", 0, 2**63)
    metrics = {
        "transport.proto_frames_per_txn": sends / schedules,
        "transport.send_us": self_ns.get("transport", 0) / 1e3 / max(1, sends),
        "engine.self_us_per_txn": self_ns.get("engine", 0) / 1e3 / schedules,
        "trace.entries_per_txn": spanlib.count_in_window(doc, "trace", 0, 2**63) / schedules,
        "trace.emit_us_per_txn": self_ns.get("trace", 0) / 1e3 / schedules,
        "explore.execute_ms_per_schedule": common.mean(
            [ns / 1e6 for ns in spanlib.durations_ns(doc, "explore.execute")]
        ),
        "explore.check_ms_per_schedule": common.mean(
            [ns / 1e6 for ns in spanlib.durations_ns(doc, "explore.check")]
        ),
        "explore.choices_per_schedule": common.mean(traced["choices"]),
    }
    return traced, metrics, captures


def explore_layer(protocol: str, n_sites: int, seed: int) -> dict[str, float]:
    """The explorer's per-layer numbers on a live workload's protocol.

    The schedule tree of a 3-site protocol may be smaller than the
    budget, so only violations fail it.
    """
    config = config_for(seed, protocol=protocol, n_sites=n_sites, budget=300)
    traced, metrics, _captures = traced_exploration(config)
    if traced["failed"]:
        raise RuntimeError(f"explore layer benchmark: {traced['problems'][:3]}")
    return {k: v for k, v in metrics.items() if k.startswith("explore.")}


def _install(recorder: spanlib.SpanRecorder, captures: dict[str, Any]):
    """Wrap the explorer's layers in this process; returns the undo."""
    originals = [
        (CommitRun, "execute", CommitRun.execute),
        (explorer_module, "check_run", explorer_module.check_run),
        (Engine, "receive", Engine.receive),
        (Network, "send", Network.send),
        (TraceLog, "record", TraceLog.record),
        (DTLog, "write_vote", DTLog.write_vote),
        (DTLog, "write_decision", DTLog.write_decision),
    ]
    counts = captures["counts"] = {"forced": 0, "lazy": 0, "runs": 0}
    frames, engines, records, runs = (
        captures["frames"], captures["engines"], captures["records"], captures["runs"],
    )
    execute, receive, send = CommitRun.execute, Engine.receive, Network.send
    write_vote, write_decision = DTLog.write_vote, DTLog.write_decision

    def capturing_execute(run):
        result = execute(run)
        counts["runs"] += 1
        if len(runs) < MAX_RUNS:
            runs.append(result)
        return result

    def capturing_receive(engine, msg):
        sequence = engines.get(id(engine))
        if sequence is None and len(engines) < MAX_ENGINES:
            sequence = engines[id(engine)] = [int(engine.site)]
        if sequence is not None:
            sequence.append([msg.kind, int(msg.src), int(msg.dst)])
        return receive(engine, msg)

    def capturing_send(network, src, dst, payload):
        envelope = send(network, src, dst, payload)
        if len(frames) < MAX_FRAMES:
            try:
                data = encode_payload(payload)
            except FrameError:
                data = None
            if data is not None:
                frames.append(
                    stamp_trace_context(
                        {"t": "payload", "txn": counts["runs"] + 1, "d": data},
                        envelope.msg_id,
                    )
                )
        return envelope

    def logged(write):
        def wrapper(log, *args, forced=True, **kwargs):
            before = len(log)
            write(log, *args, forced=forced, **kwargs)
            if len(log) > before:
                counts["forced" if forced else "lazy"] += 1
                if len(records) < MAX_RECORDS:
                    records.append((counts["runs"] + 1, log.records[-1]))

        return wrapper

    CommitRun.execute = recorder.timed("explore.execute", capturing_execute)
    explorer_module.check_run = recorder.timed("explore.check", explorer_module.check_run)
    Engine.receive = recorder.timed("engine", capturing_receive)
    Network.send = recorder.timed("transport", capturing_send)
    recorder.wrap(TraceLog, "record", "trace")
    DTLog.write_vote = logged(write_vote)
    DTLog.write_decision = logged(write_decision)

    def restore() -> None:
        for owner, attr, original in originals:
            setattr(owner, attr, original)

    return restore
