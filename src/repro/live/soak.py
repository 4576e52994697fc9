"""Soak runner: sustained transaction volume under composed chaos.

A benchmark answers "how fast"; a soak answers "does it stay
*correct* while the environment misbehaves for a long time".  This
module drives waves of transactions through a live
:class:`~repro.live.cluster.ClusterHarness` whose sites run under a
:class:`~repro.live.chaos.ChaosPolicy` — WAN latency on every link,
slow fsyncs, or both — and keeps the verification backbone engaged the
whole way:

* between waves, the durable DT logs are re-audited (AC1 plus the
  write-ahead timeline checks of :mod:`repro.live.audit`), so a
  violation stops the soak at the wave that introduced it instead of
  being discovered post-mortem;
* after the cluster drains and stops, a final audit runs with trace
  cross-checking, and the per-site traces are stitched canonically —
  the byte-stable normalization that makes two runs of the same
  fixed-seed config comparable with ``diff``.

The chaos profiles here are deliberately *benign*: delay-only WAN
rules and slow disks stress timing, group-commit placement, and the
failure detector's patience without dropping protocol frames (the
live runtime has no retransmission — dropped protocol frames are the
:func:`~repro.live.chaos.gray_link_policy` scenario's job, where a
split decision is the *expected* outcome).  A soak under these
profiles must therefore commit every transaction and audit clean;
anything else is a finding.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from pathlib import Path
from typing import Any, Optional

from repro.errors import LiveConfigError
from repro.live.audit import AuditReport, audit_data_dir
from repro.live.chaos import ChaosPolicy, slow_disk_policy, wan_policy
from repro.live.cluster import ClusterConfig, ClusterHarness
from repro.live.stitch import stitch_data_dir

#: Chaos profiles the soak runner can compose on demand.
SOAK_PROFILES = ("none", "wan", "disk", "combined")


def build_profile(
    profile: str,
    n_sites: int,
    seed: int = 0,
    wan_min_ms: float = 1.0,
    wan_max_ms: float = 6.0,
    wan_jitter_ms: float = 2.0,
    fsync_delay_ms: float = 4.0,
) -> Optional[ChaosPolicy]:
    """Materialize a named soak profile into a :class:`ChaosPolicy`.

    Raises:
        LiveConfigError: If ``profile`` is not one of
            :data:`SOAK_PROFILES`.
    """
    if profile not in SOAK_PROFILES:
        raise LiveConfigError(
            f"unknown soak profile {profile!r} (want one of {SOAK_PROFILES})"
        )
    if profile == "none":
        return None
    wan = wan_policy(
        n_sites,
        seed=seed,
        min_ms=wan_min_ms,
        max_ms=wan_max_ms,
        jitter_ms=wan_jitter_ms,
    )
    disk = slow_disk_policy(n_sites, fsync_delay_ms=fsync_delay_ms, seed=seed)
    if profile == "wan":
        return wan
    if profile == "disk":
        return disk
    return wan.merged(disk)


@dataclasses.dataclass
class SoakConfig:
    """Everything one soak run needs.

    Attributes:
        data_dir: Where the cluster's DT logs and traces land.
        spec_name: Protocol to soak (any catalog name).
        n_sites: Cluster size.
        txns: Total transactions to push through.
        batch: Transactions per wave (an audit runs between waves).
        concurrency: Closed-loop clients per wave.
        profile: One of :data:`SOAK_PROFILES`.
        seed: Chaos seed (delay draws and WAN topology derive from it).
        hb_interval: Heartbeat period for every site.
        suspect_after: Failure-detector patience.
        requery_interval: Termination-protocol requery period.
        timeout: Per-decision and readiness timeout for the harness.
        fsync_delay_ms: Injected fsync latency for disk profiles.
        presumption: Commit presumption every site runs under
            (``none``, ``abort``, or ``commit``).
        ro_sites: Site ids that participate read-only (phase-1 exit).
        trace_cap: Per-site trace ring capacity override (``None``
            keeps the site default).
    """

    data_dir: Path
    spec_name: str = "3pc-central"
    n_sites: int = 3
    txns: int = 200
    batch: int = 50
    concurrency: int = 4
    profile: str = "combined"
    seed: int = 0
    hb_interval: float = 0.1
    suspect_after: float = 0.6
    requery_interval: float = 0.3
    timeout: float = 30.0
    fsync_delay_ms: float = 4.0
    presumption: str = "none"
    ro_sites: tuple = ()
    trace_cap: Optional[int] = None

    def __post_init__(self) -> None:
        self.data_dir = Path(self.data_dir)
        if self.txns < 1:
            raise LiveConfigError(f"need at least 1 soak txn, got {self.txns}")
        if self.batch < 1:
            raise LiveConfigError(f"soak batch must be >= 1, got {self.batch}")


@dataclasses.dataclass
class SoakResult:
    """One soak run's verdict and evidence.

    Attributes:
        profile: The chaos profile the run used.
        chaos_hash: Content hash of the materialized policy (``None``
            for the ``none`` profile).
        txns: Transactions actually completed.
        waves: Benchmark waves executed.
        elapsed_s: Wall-clock benchmark time (audits excluded).
        txns_per_sec: Throughput over ``elapsed_s``.
        latency_p99_ms: Worst per-wave p99 client latency.
        audits: Mid-run audit passes executed (all must be clean for
            the run to reach the final audit).
        violations: Every violation any audit pass reported.
        audit_notes: Notes from the *final* audit (torn tails etc.).
        chaos_drops: Per-site chaos drop counters (should be all zero
            under delay-only profiles).
        chaos_delays: Per-site chaos delay counters.
        stitch: Canonical stitch summary dict.
        stitch_hash: sha256 (16 hex) of the canonical stitched JSONL —
            the byte-stability fingerprint.
    """

    profile: str
    chaos_hash: Optional[str]
    txns: int
    waves: int
    elapsed_s: float
    txns_per_sec: float
    latency_p99_ms: float
    audits: int
    violations: list[str]
    audit_notes: list[str]
    chaos_drops: dict[int, int]
    chaos_delays: dict[int, int]
    stitch: dict[str, Any]
    stitch_hash: str

    @property
    def ok(self) -> bool:
        """Whether every audit pass came back clean."""
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary (the CLI's report / sidecar)."""
        body = dataclasses.asdict(self)
        body["ok"] = self.ok
        body["chaos_drops"] = {
            str(site): count for site, count in sorted(self.chaos_drops.items())
        }
        body["chaos_delays"] = {
            str(site): count
            for site, count in sorted(self.chaos_delays.items())
        }
        return body


def _chaos_counters(harness: ClusterHarness) -> tuple[dict[int, int], dict[int, int]]:
    """Per-site chaos drop/delay counters from the metrics snapshots."""
    drops: dict[int, int] = {}
    delays: dict[int, int] = {}
    for site in sorted(harness.ports):
        metrics = harness.site_metrics(site)
        live = (metrics or {}).get("live", {})
        drops[int(site)] = int(live.get("chaos_drops", 0))
        delays[int(site)] = int(live.get("chaos_delays", 0))
    return drops, delays


def run_soak(config: SoakConfig) -> SoakResult:
    """Run one soak to completion (or to its first audit violation).

    The cluster starts under the materialized chaos profile, commits
    ``config.txns`` transactions in ``config.batch``-sized waves with
    a durable-log audit between waves, then stops cleanly and runs the
    final audit (with trace cross-checking) plus a canonical stitch.
    Returns the :class:`SoakResult` either way — callers decide what a
    violation is worth (the CLI exits nonzero).
    """
    policy = build_profile(
        config.profile,
        config.n_sites,
        seed=config.seed,
        fsync_delay_ms=config.fsync_delay_ms,
    )
    cluster = ClusterConfig(
        spec_name=config.spec_name,
        n_sites=config.n_sites,
        data_dir=config.data_dir,
        hb_interval=config.hb_interval,
        suspect_after=config.suspect_after,
        requery_interval=config.requery_interval,
        decide_timeout=config.timeout,
        ready_timeout=config.timeout,
        chaos=policy,
        presumption=config.presumption,
        ro_sites=config.ro_sites,
        trace_cap=config.trace_cap,
    )
    violations: list[str] = []
    waves = 0
    done = 0
    elapsed = 0.0
    worst_p99 = 0.0
    audits = 0
    drops: dict[int, int] = {}
    delays: dict[int, int] = {}
    with ClusterHarness(cluster) as harness:
        harness.start()
        while done < config.txns and not violations:
            n = min(config.batch, config.txns - done)
            wave_start = time.monotonic()
            bench = harness.bench(
                n, concurrency=config.concurrency, first_txn=done + 1
            )
            elapsed += time.monotonic() - wave_start
            worst_p99 = max(worst_p99, bench["latency_ms"]["p99"])
            done += n
            waves += 1
            if done < config.txns:
                # Mid-run audit: DT logs only — traces are still being
                # block-buffered by live writers and are advisory anyway.
                report = audit_data_dir(config.data_dir, include_traces=False)
                audits += 1
                violations.extend(report.violations)
        drops, delays = _chaos_counters(harness)
    # Final audit over the quiesced artifacts, traces included.
    final: AuditReport = audit_data_dir(config.data_dir, include_traces=True)
    audits += 1
    violations.extend(final.violations)
    stitched = stitch_data_dir(config.data_dir, canonical=True)
    stitch_hash = hashlib.sha256(
        stitched.trace.to_jsonl().encode()
    ).hexdigest()[:16]
    return SoakResult(
        profile=config.profile,
        chaos_hash=policy.hash if policy is not None else None,
        txns=done,
        waves=waves,
        elapsed_s=round(elapsed, 4),
        txns_per_sec=round(done / elapsed, 2) if elapsed else 0.0,
        latency_p99_ms=worst_p99,
        audits=audits,
        violations=violations,
        audit_notes=list(final.notes),
        chaos_drops=drops,
        chaos_delays=delays,
        stitch=stitched.to_dict(),
        stitch_hash=stitch_hash,
    )
