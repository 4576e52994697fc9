"""The live workloads: closed-loop commits on a 3-site loopback cluster.

A run has two kinds of cluster.  The *outage cluster* is spawned once,
commits a fixed history of transactions and then idles; now and then
its coordinator (site 1) is ``kill -9``-ed, respawned at once and
``begin`` is probed through gateway 2 until a probe commits (the
outage).  Restart replays the whole DT log, so restarting a cluster
that only ever holds the fixed history keeps the outage from growing
with the measured throughput.  One *round* is one fresh load cluster:
spawn (timed as set-up), warm up, then the measured closed loop in
chunks, with one restart of the outage cluster before each chunk.  The
restarts are thus spread over the whole run, and a burst of host
steal, which lasts seconds, slows a few of them and not all.  A
run is several rounds, so one slow cluster moves a median and not the
result.

Load shape: 2 client sessions in this process on one event loop, each
keeping one transaction in flight (a closed loop, as the paper's
clients wait for their reply), on gateways 1 and 2.  The sites use the
shipped defaults for every setting the workload does not name.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import shutil
import signal
import time
from pathlib import Path
from typing import Any, Callable, Optional

import common
import spans as spanlib

from repro.errors import LiveTimeoutError, TransportError
from repro.live import client
from repro.live.audit import audit_data_dir
from repro.live.cluster import ClusterConfig, ClusterHarness
from repro.live.dtlog import read_log_file
from repro.types import SiteId

#: Workload name -> the cluster settings it names.
WORKLOADS = {
    "commit-2pc": {"spec_name": "2pc-central", "presumption": "none", "ro_sites": ()},
    "commit-3pc-ro": {
        "spec_name": "3pc-central",
        "presumption": "abort",
        "ro_sites": (3,),
    },
}

SESSIONS = 2
ROUNDS = 3
#: Measured load chunks per round; a coordinator kill precedes each and
#: gives one outage sample.
CHUNKS = 4
#: Coordinator kills of the traced run, for the recovery.* figures.
TRACED_RESTARTS = 3
#: Share of the restarts the outage uses: the quietest.
KEEP_RESTARTS = 0.5
#: Steal shares up to this count as none when restarts are compared:
#: over a restart of about a second /proc/stat resolves only a few ticks.
QUIET_STEAL = 0.02
#: The measured load is cut into windows of this many seconds.
WINDOW_S = 0.5
#: Share of the windows the figures use: the quietest (see end_to_end).
KEEP_WINDOWS = 1 / 3
WARMUP_TXNS = 200
#: Txns the outage cluster commits before its coordinator is first
#: killed, and how many client sessions commit them (not measured).
HISTORY_TXNS = 1000
HISTORY_SESSIONS = 16
DECIDE_TIMEOUT_S = 30.0
#: A probe that keeps aborting means the cluster cannot commit at all.
MAX_PROBES = 50
OUTAGE_TIMEOUT_S = 60.0
QUIESCE_TIMEOUT_S = 10.0
COORDINATOR = SiteId(1)
PROBE_GATEWAY = SiteId(2)
LAUNCHER = Path(__file__).resolve().parent / "site_launcher.py"


class BenchCluster(ClusterHarness):
    """The program's harness, optionally spawning traced site processes."""

    def __init__(self, config: ClusterConfig, traced: bool = False) -> None:
        super().__init__(config)
        self.traced = traced
        self.span_files: list[Path] = []

    def _serve_argv(self, site: SiteId, pause_after: Optional[str], vote: str) -> list[str]:
        argv = super()._serve_argv(site, pause_after, vote)
        if not self.traced:
            return argv
        out = self.config.data_dir / f"spans-site{int(site)}-{len(self.span_files)}.json"
        self.span_files.append(out)
        # argv is [python, -m, repro, serve, ...]: swap in the launcher.
        return [argv[0], str(LAUNCHER), "--spans-out", str(out), *argv[3:]]

    def spawn_all(self, votes: dict[int, str]) -> None:
        for site in self.ports:
            self.spawn(site, vote=votes.get(int(site), "yes"))
        self.wait_all_ready()

    def gateways(self, sessions: int) -> list[int]:
        """Gateway ports for the sessions: sites 1, 2, ... round robin."""
        sites = [s for s in sorted(self.ports) if s not in self.config.ro_sites]
        return [self.ports[sites[i % len(sites)]] for i in range(sessions)]

    def quiesce(self) -> None:
        """Wait until every site's published snapshot shows nothing in flight."""
        deadline = time.monotonic() + QUIESCE_TIMEOUT_S
        while time.monotonic() < deadline:
            snaps = [self.site_metrics(site) for site in self.ports]
            if all(s is not None and s["live"].get("inflight_txns", 0) == 0 for s in snaps):
                return
            time.sleep(0.02)
        raise LiveTimeoutError("cluster did not quiesce")

    def rss_kb(self) -> dict[int, int]:
        return {
            int(site): common.vm_rss_kb(proc.pid)
            for site, proc in self.processes.items()
            if proc.poll() is None
        }


@dataclasses.dataclass
class Load:
    """What one closed-loop phase observed, client side."""

    committed: list[int] = dataclasses.field(default_factory=list)
    #: One sample per attempted txn; a failed txn reads as the timeout.
    latencies_ms: list[float] = dataclasses.field(default_factory=list)
    #: When each sample's reply arrived (CLOCK_MONOTONIC ns), and whether
    #: it was a commit; parallel to ``latencies_ms``.
    ends_ns: list[int] = dataclasses.field(default_factory=list)
    ok: list[bool] = dataclasses.field(default_factory=list)
    #: Host CPU ticks (stolen, total) at each window boundary.
    ticks: list[tuple[int, int]] = dataclasses.field(default_factory=list)
    failed: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)
    stages: dict[str, list[float]] = dataclasses.field(default_factory=dict)
    elapsed_s: float = 0.0
    start_ns: int = 0
    end_ns: int = 0
    #: (txn, start_ns, end_ns) per answered begin, client side.
    client_spans: list[tuple[int, int, int]] = dataclasses.field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    @property
    def txns_per_s(self) -> float:
        return len(self.committed) / self.elapsed_s if self.elapsed_s else 0.0

    def sample(self, latency_ms: float, ok: bool) -> None:
        self.latencies_ms.append(latency_ms)
        self.ends_ns.append(spanlib.now_ns())
        self.ok.append(ok)

    def windows(self) -> list[tuple[float, list[float], float]]:
        """(txns/s, latencies, steal share) of every whole window of the load.

        ``ticks`` holds one reading per window boundary plus one at the
        end.  A load shorter than one window is one window.
        """
        width = int(WINDOW_S * 1e9)
        samples = list(zip(self.ends_ns, self.latencies_ms, self.ok))
        whole = min(int((self.end_ns - self.start_ns) // width), len(self.ticks) - 2)
        if whole < 1:
            return [_window(samples, self.ticks[0], self.ticks[-1])]
        bins: list[list[tuple[int, float, bool]]] = [[] for _ in range(whole)]
        for sample in samples:
            index = (sample[0] - self.start_ns) // width
            if index < whole:
                bins[index].append(sample)
        return [_window(bins[i], self.ticks[i], self.ticks[i + 1]) for i in range(whole)]


def _window(
    samples: list[tuple[int, float, bool]],
    ticks_before: tuple[int, int],
    ticks_after: tuple[int, int],
) -> tuple[float, list[float], float]:
    """One window's rate, latencies and host steal share.

    The rate is the window's commits over the time between its first and
    last commit, so it is not quantized to whole txns.  A window with no
    reply at all reads as one whole window of latency.
    """
    done = [end for end, _ms, ok in samples if ok]
    span_ns = done[-1] - done[0] if len(done) > 1 else 0
    rate = (len(done) - 1) * 1e9 / span_ns if span_ns else 0.0
    latencies = [ms for _end, ms, _ok in samples] or [WINDOW_S * 1000.0]
    return rate, latencies, common.steal_share(ticks_before, ticks_after)


async def closed_loop(
    cluster: BenchCluster,
    first_txn: int,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    sessions: int = SESSIONS,
) -> Load:
    """Run ``sessions`` closed-loop clients for a duration or a txn count."""
    load = Load()
    ids = itertools.count(first_txn)
    last = first_txn + count if count is not None else None
    host = cluster.config.host
    deadline = time.monotonic() + seconds if seconds is not None else None

    def more() -> bool:
        return deadline is None or time.monotonic() < deadline

    async def session(port: int) -> None:
        async with client.ClientSession(host, port) as conn:
            while more():
                txn = next(ids)
                if last is not None and txn >= last:
                    return
                start = spanlib.now_ns()
                try:
                    reply = await conn.begin_txn(txn, timeout=DECIDE_TIMEOUT_S)
                except (TransportError, LiveTimeoutError) as error:
                    load.failed += 1
                    load.sample(DECIDE_TIMEOUT_S * 1000.0, False)
                    load.errors.append(f"txn {txn}: {error}")
                    return
                end = spanlib.now_ns()
                load.client_spans.append((txn, start, end))
                if reply.get("outcome") != "commit":
                    load.failed += 1
                    load.sample(DECIDE_TIMEOUT_S * 1000.0, False)
                    load.errors.append(f"txn {txn}: outcome {reply.get('outcome')!r}")
                    continue
                load.committed.append(txn)
                load.sample((end - start) / 1e6, True)
                for stage, value in (reply.get("stages") or {}).items():
                    load.stages.setdefault(stage, []).append(float(value))

    async def tick() -> None:
        """Read the host's CPU ticks at every window boundary."""
        for index in itertools.count(1):
            load.ticks.append(common.cpu_ticks())
            due = load.start_ns + index * int(WINDOW_S * 1e9)
            await asyncio.sleep(max(0.0, (due - spanlib.now_ns()) / 1e9))

    load.start_ns = spanlib.now_ns()
    ticker = asyncio.create_task(tick())
    try:
        await asyncio.gather(*(session(port) for port in cluster.gateways(sessions)))
    finally:
        ticker.cancel()
        try:
            await ticker
        except asyncio.CancelledError:
            pass
    load.end_ns = spanlib.now_ns()
    load.ticks.append(common.cpu_ticks())
    load.elapsed_s = (load.end_ns - load.start_ns) / 1e9
    return load


def counters(cluster: BenchCluster) -> dict[str, float]:
    """Cluster-wide totals from each site's published metrics snapshot."""
    totals: dict[str, float] = {
        "forced_writes": 0, "forced_writes_skipped": 0, "fsync_calls": 0,
        "frames_sent": 0, "socket_writes": 0, "proto_frames": 0,
        "trace_entries": 0, "trace_dropped": 0, "fsync_ms_sum": 0.0,
        "fsync_count": 0, "batched_sum": 0.0, "batched_count": 0, "log_bytes": 0,
    }
    for site in cluster.ports:
        snap = cluster.site_metrics(site) or {"live": {}}
        live = snap.get("live", {})
        for key in ("forced_writes", "forced_writes_skipped", "fsync_calls",
                    "frames_sent", "socket_writes", "trace_entries", "trace_dropped"):
            totals[key] += int(live.get(key, 0))
        for key, value in snap.get("counters", {}).items():
            if key.startswith("proto_frames_sent_total"):
                totals["proto_frames"] += value
        hist = snap.get("histograms", {})
        fsync = hist.get("fsync_duration_ms", {})
        totals["fsync_ms_sum"] += fsync.get("sum", 0.0)
        totals["fsync_count"] += fsync.get("count", 0)
        batched = hist.get("batched_records_per_fsync", {})
        totals["batched_sum"] += batched.get("sum", 0.0)
        totals["batched_count"] += batched.get("count", 0)
        log_path = cluster.config.data_dir / f"site-{int(site)}.dtlog"
        totals["log_bytes"] += log_path.stat().st_size if log_path.exists() else 0
    return totals


async def _probe_until_commit(
    cluster: BenchCluster, first_probe: int, killed_at: float
) -> tuple[Optional[float], Optional[float], int, float]:
    """Probe ``begin`` through gateway 2 until one commits.

    Returns (outage_s, coordinator ready_s, probes sent, host steal
    share over the outage).  A probe sent
    while the coordinator is down resolves (usually as an abort) once
    recovery runs, and the next probe then commits.
    """
    ticks = common.cpu_ticks()
    host, port = cluster.config.host, cluster.ports[PROBE_GATEWAY]
    ready_marker = cluster.config.data_dir / f"site-{int(COORDINATOR)}.ready"
    ready_at: list[float] = []

    async def watch_ready() -> None:
        while not ready_marker.exists():
            await asyncio.sleep(0.002)
        ready_at.append(time.monotonic())

    watcher = asyncio.create_task(watch_ready())
    outage = None
    probes = 0
    deadline = killed_at + OUTAGE_TIMEOUT_S
    try:
        while probes < MAX_PROBES and time.monotonic() < deadline:
            probes += 1
            try:
                reply = await client.begin_txn(
                    host, port, first_probe + probes, timeout=DECIDE_TIMEOUT_S
                )
            except (TransportError, LiveTimeoutError):
                await asyncio.sleep(0.01)
                continue
            if reply.get("outcome") == "commit":
                outage = time.monotonic() - killed_at
                break
        if outage is not None:
            await asyncio.wait_for(watcher, timeout=OUTAGE_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass
    finally:
        watcher.cancel()
        try:
            await watcher
        except asyncio.CancelledError:
            pass
    ready = ready_at[0] - killed_at if ready_at else None
    return outage, ready, probes, common.steal_share(ticks, common.cpu_ticks())


def _coordinator_history(data_dir: Path) -> tuple[int, float]:
    """Txns and MB in the coordinator's DT log when it was killed.

    That is everything before the second ``boot`` record: the history a
    restart has to replay.
    """
    path = data_dir / f"site-{int(COORDINATOR)}.dtlog"
    txns: set[int] = set()
    size = 0
    boots = 0
    for line in path.read_bytes().splitlines(keepends=True):
        body = json.loads(line[9:])
        if body.get("r") == "boot":
            boots += 1
            if boots == 2:
                break
        else:
            txns.add(int(body["txn"]))
        size += len(line)
    return len(txns), size / 1e6


def check_outcomes(config: ClusterConfig, measured: list[int]) -> list[str]:
    """Every measured txn must have a durable commit at every voting site."""
    problems = []
    for site in range(1, config.n_sites + 1):
        if site in config.ro_sites:
            continue
        records, _torn = read_log_file(config.data_dir / f"site-{site}.dtlog")
        committed = {
            int(r["txn"]) for r in records
            if r.get("r") == "decision" and r.get("outcome") == "commit"
        }
        missing = [txn for txn in measured if txn not in committed]
        if missing:
            problems.append(
                f"site {site}: {len(missing)} measured txn(s) without a durable "
                f"commit, e.g. {missing[:3]}"
            )
    return problems


@dataclasses.dataclass
class Round:
    setup_s: float
    #: The measured load, one entry per chunk.
    loads: list[Load]
    before: dict[str, float]
    after: dict[str, float]
    rss_before: dict[int, int]
    rss_after: dict[int, int]
    problems: list[str] = dataclasses.field(default_factory=list)
    span_files: list[Path] = dataclasses.field(default_factory=list)

    @property
    def committed(self) -> list[int]:
        return [txn for load in self.loads for txn in load.committed]

    @property
    def attempted(self) -> int:
        return sum(load.attempted for load in self.loads)

    @property
    def failed(self) -> int:
        return sum(load.failed for load in self.loads)


class OutageCluster:
    """The cluster whose coordinator is killed: a fixed history, then restarts.

    Use as a context manager; leaving it stops every site.  It idles
    between restarts, beside the load clusters.
    """

    def __init__(self, workload: str, data_dir: Path, txn_base: int, votes: dict[int, str]):
        shutil.rmtree(data_dir, ignore_errors=True)
        self.config = ClusterConfig(data_dir=data_dir, **WORKLOADS[workload])
        self.cluster = BenchCluster(self.config)
        self.txn_base = txn_base
        self.votes = votes
        self.setup_s = 0.0
        self.history: Optional[Load] = None
        #: One per restart; a restart no probe survived reads as the timeout.
        self.outages_s: list[float] = []
        #: Host steal share during each restart.
        self.steal: list[float] = []
        #: Coordinator respawn -> ready marker, per restart.
        self.ready_s: list[float] = []
        self.probes: list[int] = []
        self.problems: list[str] = []

    def __enter__(self) -> "OutageCluster":
        try:
            started = time.monotonic()
            self.cluster.spawn_all(self.votes)
            self.setup_s = time.monotonic() - started
            self.history = asyncio.run(closed_loop(
                self.cluster, self.txn_base, count=HISTORY_TXNS, sessions=HISTORY_SESSIONS
            ))
            self.cluster.quiesce()
        except BaseException:
            self.cluster.stop()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.cluster.stop()

    def restart(self) -> None:
        """Kill -9 the coordinator, respawn it and time the outage."""
        restart = len(self.outages_s)
        killed_at = time.monotonic()
        self.cluster.kill(COORDINATOR, signal.SIGKILL)
        self.cluster.spawn(COORDINATOR, vote=self.votes.get(int(COORDINATOR), "yes"))
        outage, ready, sent, steal = asyncio.run(_probe_until_commit(
            self.cluster, self.txn_base + 900_000 + restart * MAX_PROBES, killed_at
        ))
        if outage is None:
            self.problems.append(
                f"no probe committed after coordinator restart {restart + 1} "
                f"({sent} probes)"
            )
        self.outages_s.append(OUTAGE_TIMEOUT_S if outage is None else outage)
        self.ready_s.append(OUTAGE_TIMEOUT_S if ready is None else ready)
        self.probes.append(sent)
        self.steal.append(steal)

    def check(self) -> list[str]:
        """Audit the stopped cluster's logs; returns the problems found."""
        report = audit_data_dir(self.config.data_dir, include_traces=False)
        history_errors = self.history.errors[:5] if self.history else []
        return self.problems + [f"audit: {v}" for v in report.violations] + history_errors


def run_round(
    workload: str,
    data_dir: Path,
    seconds: float,
    txn_base: int,
    votes: dict[int, str],
    traced: bool = False,
    chunks: int = 1,
    between: Optional[Callable[[], None]] = None,
) -> Round:
    """One fresh cluster: set-up, warm-up, load in chunks, audit.

    ``between`` runs before each chunk while this cluster idles.
    """
    shutil.rmtree(data_dir, ignore_errors=True)
    config = ClusterConfig(data_dir=data_dir, **WORKLOADS[workload])
    cluster = BenchCluster(config, traced=traced)
    loads: list[Load] = []
    try:
        started = time.monotonic()
        cluster.spawn_all(votes)
        setup_s = time.monotonic() - started
        warmup = asyncio.run(closed_loop(cluster, txn_base, count=WARMUP_TXNS))
        cluster.quiesce()
        before, rss_before = counters(cluster), cluster.rss_kb()
        next_txn = txn_base + WARMUP_TXNS
        for _chunk in range(chunks):
            if between is not None:
                between()
            load = asyncio.run(closed_loop(cluster, next_txn, seconds=seconds / chunks))
            loads.append(load)
            next_txn += load.attempted
            cluster.quiesce()
        after, rss_after = counters(cluster), cluster.rss_kb()
    finally:
        cluster.stop()
    result = Round(setup_s, loads, before, after, rss_before, rss_after)
    result.span_files = list(cluster.span_files)
    if traced:
        # The client's spans share CLOCK_MONOTONIC and txn ids with the
        # sites'; kept beside them for inspection (run.py --keep).
        (data_dir / "spans-client.json").write_text(json.dumps({
            "names": ["client.begin"],
            "spans": [
                [0, start, end, -1, txn]
                for load in loads for txn, start, end in load.client_spans
            ],
        }))
    report = audit_data_dir(data_dir, include_traces=False)
    result.problems += [f"audit: {v}" for v in report.violations]
    result.problems += check_outcomes(config, result.committed)
    result.problems += [e for load in loads for e in load.errors][:5] + warmup.errors[:5]
    return result


def end_to_end(
    rounds: list[Round], outage: OutageCluster
) -> tuple[dict[str, float], dict[str, Any]]:
    """The user-visible metrics of an untraced run, plus sample counts.

    Other tenants of the host steal CPU in bursts of seconds, which only
    ever slow the cluster down and made fresh clusters differ by a third
    in throughput.  So the load is cut into windows, and the figures use
    the quietest third of them and the quieter half of the restarts, or
    more where steal stays under ``QUIET_STEAL``
    (:func:`common.quietest`): throughput is the median window rate,
    latency percentiles are nearest-rank over those windows' samples.
    The all-window figures are printed beside.
    """
    windows = [w for r in rounds for load in r.loads for w in load.windows()]
    shares = [share for _r, _l, share in windows]
    kept = common.quietest(windows, shares, KEEP_WINDOWS)
    latencies = [ms for _rate, window, _share in kept for ms in window]
    everything = [ms for r in rounds for load in r.loads for ms in load.latencies_ms]
    p99 = common.nearest_rank(latencies, 0.99)
    quiet_outages = common.quietest(
        outage.outages_s, [max(s, QUIET_STEAL) for s in outage.steal], KEEP_RESTARTS
    )
    setups = [outage.setup_s] + [r.setup_s for r in rounds]
    metrics = {
        "txns_per_s": common.median([rate for rate, _l, _s in kept]),
        "latency_p50_ms": common.nearest_rank(latencies, 0.50),
        "latency_p99_ms": p99,
        "outage_s": common.median(quiet_outages),
        "setup_s": common.median(setups),
        "rss_mb": common.median([max(r.rss_after.values()) / 1024.0 for r in rounds]),
    }
    samples = {
        "rounds": len(rounds),
        "windows_kept": f"{len(kept)} of {len(windows)}",
        "steal_share_median": round(common.median(shares), 4),
        "steal_share_kept_max": round(max(s for _r, _l, s in kept), 4),
        "latency_samples": len(latencies),
        "beyond_p99": sum(1 for ms in latencies if ms > p99),
        "all_windows": {
            "txns_per_s": round(common.median([rate for rate, _l, _s in windows]), 2),
            "latency_p50_ms": round(common.nearest_rank(everything, 0.50), 3),
            "latency_p99_ms": round(common.nearest_rank(everything, 0.99), 3),
        },
        "outage_s_per_restart": [round(s, 3) for s in outage.outages_s],
        "outage_steal_per_restart": [round(s, 3) for s in outage.steal],
        "outage_restarts_kept": len(quiet_outages),
        "probes_per_restart": outage.probes,
        "setup_s_per_cluster": [round(s, 4) for s in setups],
    }
    return metrics, samples


def counter_layers(r: Round, outage: OutageCluster) -> dict[str, float]:
    """Per-layer counts and means from one untraced round and the restarts."""
    (load,) = r.loads
    d = {k: r.after[k] - r.before[k] for k in r.after}
    txns = max(1, len(load.committed))
    stage = {k: common.mean(v) for k, v in load.stages.items()}
    replayed_txns, log_mb = _coordinator_history(outage.config.data_dir)
    growth = max(r.rss_after[s] - r.rss_before.get(s, 0) for s in r.rss_after)
    return {
        "gateway.queue_ms": stage.get("queue_ms", 0.0),
        "gateway.resolve_ms": stage.get("resolve_ms", 0.0),
        "gateway.durable_ms": stage.get("durable_ms", 0.0),
        "transport.proto_frames_per_txn": d["proto_frames"] / txns,
        "transport.socket_writes_per_txn": d["socket_writes"] / txns,
        "transport.frames_per_socket_write": (
            d["frames_sent"] / d["socket_writes"] if d["socket_writes"] else 0.0
        ),
        "dtlog.forced_writes_per_txn": d["forced_writes"] / txns,
        "dtlog.skipped_writes_per_txn": d["forced_writes_skipped"] / txns,
        "dtlog.fsyncs_per_txn": d["fsync_calls"] / txns,
        "dtlog.records_per_fsync": (
            d["batched_sum"] / d["batched_count"] if d["batched_count"] else 0.0
        ),
        "dtlog.fsync_ms": d["fsync_ms_sum"] / d["fsync_count"] if d["fsync_count"] else 0.0,
        "dtlog.bytes_per_txn": d["log_bytes"] / txns,
        "trace.entries_per_txn": d["trace_entries"] / txns,
        "trace.dropped": r.after["trace_dropped"],
        "node.rss_kb_per_txn": growth / txns,
        "recovery.ready_s": common.median(outage.ready_s),
        "recovery.replayed_txns": float(replayed_txns),
        "recovery.log_mb": log_mb,
    }


#: Span name -> the layer its self time is charged to.
SPAN_LAYERS = {
    "engine": "engine.self_us_per_txn",
    "codec": "codec.self_us_per_txn",
    "trace": "trace.emit_us_per_txn",
    "metrics": "metrics.write_us_per_txn",
}


def traced_layers(r: Round) -> tuple[dict[str, float], list[dict]]:
    """Per-layer self times and waits from one traced round's spans."""
    (load,) = r.loads
    lo, hi = load.start_ns, load.end_ns
    txns = max(1, len(load.committed))
    totals: dict[str, int] = {}
    send_calls = 0
    waits: dict[str, list[float]] = {"coordinator": [], "participant": []}
    lag: list[float] = []
    docs = []
    for path in r.span_files:
        doc = json.loads(path.read_text())
        docs.append(doc)
        for name, ns in spanlib.self_times_ns(doc, lo, hi).items():
            totals[name] = totals.get(name, 0) + ns
        send_calls += spanlib.count_in_window(doc, "transport", lo, hi)
        waits[doc["role"]] += [w / 1e6 for at, w in doc["force_waits"] if lo <= at <= hi]
        lag += [ns / 1e6 for at, ns in doc["lag"] if lo <= at <= hi]
    metrics = {
        layer: totals.get(name, 0) / 1e3 / txns for name, layer in SPAN_LAYERS.items()
    }
    metrics["transport.send_us"] = (
        totals.get("transport", 0) / 1e3 / send_calls if send_calls else 0.0
    )
    for role, values in waits.items():
        metrics[f"dtlog.force_wait_ms.{role}"] = common.mean(values)
    metrics["loop.lag_p50_ms"] = common.nearest_rank(lag, 0.50) if lag else 0.0
    metrics["loop.lag_p99_ms"] = common.nearest_rank(lag, 0.99) if lag else 0.0
    return metrics, docs


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    data_root: Path,
    votes: dict[int, str],
) -> dict[str, Any]:
    """Run one live workload; returns metrics, counts and problems."""
    txn_base = seed * 10_000_000
    outage = OutageCluster(workload, data_root / "outage", txn_base + 9_000_000, votes)
    if not trace:
        rounds = []
        with outage:
            for index in range(ROUNDS):
                common.log(f"{workload}: round {index + 1}/{ROUNDS}")
                rounds.append(
                    run_round(
                        workload, data_root / f"round{index}", seconds / ROUNDS,
                        txn_base + index * 1_000_000, votes,
                        chunks=CHUNKS, between=outage.restart,
                    )
                )
        metrics, samples = end_to_end(rounds, outage)
        return _summary(rounds, outage, metrics, samples)

    # Traced run: restarts for the recovery figures, then an untraced
    # round for the overhead baseline and the counters, then a traced
    # round for the spans.
    common.log(f"{workload}: restarts")
    with outage:
        for _restart in range(TRACED_RESTARTS):
            outage.restart()
    common.log(f"{workload}: untraced round")
    plain = run_round(workload, data_root / "plain", seconds / 2, txn_base, votes)
    common.log(f"{workload}: traced round")
    traced = run_round(
        workload, data_root / "traced", seconds / 2, txn_base + 1_000_000, votes,
        traced=True,
    )
    metrics = counter_layers(plain, outage)
    span_metrics, docs = traced_layers(traced)
    metrics.update(span_metrics)
    untraced_rate = plain.loads[0].txns_per_s
    traced_rate = traced.loads[0].txns_per_s
    metrics["tracing.txns_per_s_untraced"] = untraced_rate
    metrics["tracing.txns_per_s_traced"] = traced_rate
    metrics["tracing.overhead_frac"] = (
        1.0 - traced_rate / untraced_rate if untraced_rate else 0.0
    )
    summary = _summary([plain, traced], outage, metrics, {"rounds": 2})
    summary["captures"] = {
        "frames": [f for doc in docs for f in doc["frames"]],
        "engines": [e for doc in docs for e in doc["engines"]],
        "dtlog": data_root / "plain" / f"site-{int(COORDINATOR)}.dtlog",
        "metrics": data_root / "plain" / f"site-{int(COORDINATOR)}.metrics.json",
        "spec": WORKLOADS[workload],
    }
    return summary


def _summary(
    rounds: list[Round], outage: OutageCluster, metrics: dict[str, float], samples: dict
) -> dict[str, Any]:
    return {
        "metrics": metrics,
        "samples": samples,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "problems": outage.check() + [p for r in rounds for p in r.problems],
    }
