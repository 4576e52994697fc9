"""The ``repro serve`` process body: run one live site until told to stop.

This is what the cluster harness spawns N times.  The process is
intentionally boring — build a :class:`~repro.live.node.LiveSite`, run
it, exit with the :mod:`repro.errors` exit code of whatever stopped it.
``SIGTERM``/``SIGINT`` trigger a graceful stop (flush metrics, close
the DT log); ``SIGKILL`` is the *point* of the exercise and gets no
handler — the durable log and the recovery protocol are what make it
survivable.
"""

from __future__ import annotations

import asyncio
import gc
import signal
import sys

from repro.errors import exit_code
from repro.live.node import LiveConfig, LiveSite


async def run_site(config: LiveConfig) -> None:
    """Run one live site until its shutdown event fires."""
    # Server-process gc tuning: move boot-time objects (specs, codecs,
    # the site itself) out of the collector's reach and widen the
    # gen-0 threshold so cycle sweeps don't run every few transactions
    # under concurrent load.  Collection still happens — just not on
    # the per-transaction path.
    gc.collect()
    gc.freeze()
    gc.set_threshold(50_000, 25, 25)
    site = LiveSite(config)
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, site.shutdown.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    await site.run()


def serve(config: LiveConfig) -> int:
    """Blocking wrapper: run the site, map failures to exit codes."""
    try:
        asyncio.run(run_site(config))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0
    except Exception as error:  # noqa: BLE001 - process boundary
        print(f"repro serve: {type(error).__name__}: {error}", file=sys.stderr)
        return exit_code(error)
    return 0
