"""Helpers shared by the workloads: statistics, host facts, process memory."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Sequence, TypeVar

T = TypeVar("T")

#: The checkout this benchmark lives in; the program is built (imported)
#: from its ``src`` directory and every file the run writes stays inside.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / ".perfbench-data"


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` quantile (0 < q <= 1) of ``values``."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def cpu_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of this host since boot, from /proc/stat.

    ``steal`` is time the hypervisor ran someone else while this machine
    had work: other tenants, not the program.
    """
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:9]]
    stolen = fields[7] if len(fields) > 7 else 0
    return stolen, sum(fields)


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def quietest(items: Sequence[T], shares: Sequence[float], fraction: float) -> list[T]:
    """The ``fraction`` of items measured while the host stole the least.

    Other tenants steal CPU in bursts of seconds, and a burst only ever
    slows the program down.  Selection looks at the host's own counter,
    never at the figure being measured.  Items tied with the last one
    kept are kept too, so with no steal at all (bare metal, or a quiet
    host) every item is kept.
    """
    if not items:
        return []
    ordered = sorted(shares)
    cut = ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]
    return [item for item, share in zip(items, shares) if share <= cut]


def vm_rss_kb(pid: int) -> int:
    """Resident set size of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmRSS for pid {pid}")


def peak_rss_kb() -> int:
    """Peak resident set size of this process (Linux reports KiB)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def fsync_ms(directory: Path, count: int = 30) -> float:
    """Median raw append + fsync latency of a file in ``directory``."""
    path = directory / "fsync-probe.bin"
    samples = []
    with open(path, "ab") as handle:
        for _ in range(count):
            start = time.perf_counter()
            handle.write(b"x" * 64 + b"\n")
            handle.flush()
            os.fsync(handle.fileno())
            samples.append((time.perf_counter() - start) * 1000.0)
    path.unlink()
    return median(samples)


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def src_digest() -> str:
    """Content hash of every program source file: names the code run."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_fingerprint(data_dir: Path) -> dict:
    """What tells one host (and one build) from another."""
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "kernel": platform.release(),
        "git_commit": _git_commit(),
        "src_sha256": src_digest(),
        "fsync_ms": round(fsync_ms(data_dir), 4),
    }


def log(message: str) -> None:
    """Progress notes go to stderr; stdout carries the results."""
    print(message, file=sys.stderr, flush=True)
