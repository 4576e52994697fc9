"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload commit-2pc --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``commit-2pc``    live 3-site cluster, 2PC, presumption none;
* ``commit-3pc-ro`` live 3-site cluster, 3PC, presumed abort, site 3
  read-only;
* ``explore-3pc``   the schedule explorer on 3PC with 4 sites (runnable,
  but not listed in BENCHMARK.json: not steady on the reference host).

With ``--trace 0`` the run prints every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` a separate traced run prints
every per-layer metric.  Human-readable lines (host fingerprint,
sample counts, failed fraction, correctness problems) come first; the
last stdout line is one JSON object.  The exit status is 0 only when
every correctness check passed.

``--vote-no SITE`` seeds a failure for checking the gate: that site
votes no, so no measured transaction can commit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path

import common

WORKLOADS = ("commit-2pc", "commit-3pc-ro", "explore-3pc")

#: Per-layer metrics of layers the explorer bypasses: no gateway,
#: sockets, codec, log file, site tracing, snapshots, event loop or
#: restart exists in an in-process exploration.  They read 0 there.
EXPLORE_BYPASSED = (
    "gateway.queue_ms",
    "gateway.resolve_ms",
    "gateway.durable_ms",
    "transport.socket_writes_per_txn",
    "transport.frames_per_socket_write",
    "codec.self_us_per_txn",
    "dtlog.fsyncs_per_txn",
    "dtlog.records_per_fsync",
    "dtlog.fsync_ms",
    "dtlog.bytes_per_txn",
    "dtlog.force_wait_ms.coordinator",
    "dtlog.force_wait_ms.participant",
    "trace.dropped",
    "metrics.write_us_per_txn",
    "loop.lag_p50_ms",
    "loop.lag_p99_ms",
    "recovery.ready_s",
    "recovery.replayed_txns",
    "recovery.log_mb",
)

MICRO_RECORDS = 200


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--vote-no", type=int, default=None, metavar="SITE",
        help="seeded failure: this live site votes no",
    )
    parser.add_argument(
        "--keep", action="store_true",
        help="keep the run's data directory under .perfbench-data/",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def load_contract() -> dict:
    with open(common.ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def micro_metrics(workload: str, summary: dict, data_root: Path, seed: int) -> dict:
    """Run the per-layer microbenchmarks on the workload's captured inputs."""
    import explore_wl
    import micro

    from repro.metrics import MetricsRegistry

    captures = summary.pop("captures")
    spec = captures["spec"]
    metrics = micro.wire(captures["frames"])
    if workload == "explore-3pc":
        records = captures["records"][:MICRO_RECORDS]
        registry = captures["registry"]
        n_sites = captures["n_sites"]
    else:
        records = micro.logged_records(captures["dtlog"], MICRO_RECORDS)
        snapshot = json.loads(captures["metrics"].read_text())
        snapshot.pop("live", None)
        registry = MetricsRegistry.from_dict(snapshot)
        n_sites = 3
        metrics.update(explore_wl.explore_layer(spec["spec_name"], n_sites, seed))
    metrics["dtlog.append_force_us"] = micro.dtlog_append_force(records, data_root)
    metrics.update(
        micro.fsa_step(
            captures["engines"], spec["spec_name"], n_sites,
            tuple(spec["ro_sites"]), spec["presumption"],
        )
    )
    metrics["metrics.snapshot_us"] = micro.metrics_snapshot(registry)
    return metrics


def run_workload(args: argparse.Namespace, data_root: Path) -> dict:
    trace = bool(args.trace)
    if args.workload == "explore-3pc":
        import explore_wl

        summary = explore_wl.run(args.seed, args.seconds, trace)
    else:
        import live

        votes = {args.vote_no: "no"} if args.vote_no is not None else {}
        summary = live.run(args.workload, args.seed, args.seconds, trace, data_root, votes)
    if trace:
        summary["metrics"].update(micro_metrics(args.workload, summary, data_root, args.seed))
        if args.workload == "explore-3pc":
            for name in EXPLORE_BYPASSED:
                summary["metrics"].setdefault(name, 0.0)
    return summary


def _exit_on_sigterm(signum: int, _frame: object) -> None:
    # Unwind through the ``finally`` blocks that stop the site processes.
    sys.exit(128 + signum)


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    args = parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").exists():
        print(f"perfbench: no program source under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    contract = load_contract()
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in wanted}

    data_root = common.DATA / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(data_root, ignore_errors=True)
    data_root.mkdir(parents=True)
    try:
        host = common.host_fingerprint(data_root)
        summary = run_workload(args, data_root)
    finally:
        if not args.keep:
            shutil.rmtree(data_root, ignore_errors=True)

    metrics = summary["metrics"]
    if args.trace:
        metrics["host.fsync_ms"] = host["fsync_ms"]
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        print(f"perfbench: metrics do not match BENCHMARK.json: missing {missing}, "
              f"unexpected {extra}", file=sys.stderr)
        return 3

    attempted, failed = summary["attempted"], summary["failed"]
    problems = summary["problems"]
    correct = not problems and failed == 0 and attempted > 0
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("host: " + json.dumps(host, sort_keys=True))
    print("samples: " + json.dumps(summary["samples"], sort_keys=True, default=str))
    print(f"failed_frac: {failed / max(1, attempted):.6g} ({failed} of {attempted})")
    for name in units:
        print(f"  {name}: {metrics[name]:.6g} {units[name]}")
    for problem in problems[:20]:
        print(f"PROBLEM: {problem}")
    print(f"correct: {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
