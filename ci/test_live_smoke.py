"""Assertions over the artifacts the CI live-smoke job leaves behind.

The job runs the kill-coordinator scenarios with ``repro cluster``,
then ``repro stitch`` and ``repro audit`` over their data dirs, all from
the repository root, and checks each step's JSON reports here::

    python -m pytest -q ci/test_live_smoke.py::test_kill_coordinator_runs_commit

Each test reads the reports of both runs of one fixed scenario.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest


def load(name: str) -> dict:
    return json.loads(Path(name).read_text())


@pytest.mark.parametrize("name", ["live-3pc-a.json", "live-3pc-b.json"])
def test_kill_coordinator_runs_commit(name):
    # 3PC survivors decide without the killed coordinator, and the
    # restarted coordinator (boot 2) agrees.
    r = load(name)
    assert r["survivors_blocked"] is False, r
    assert set(r["final_outcomes"].values()) == {"commit"}, r
    assert r["coordinator_boot"] == 2, r


@pytest.mark.parametrize("name", ["live-pc-a.json", "live-pc-b.json"])
def test_presumed_commit_runs_abort_explicitly(name):
    r = load(name)
    assert r["presumption"] == "commit", r
    assert set(r["final_outcomes"].values()) == {"abort"}, r
    assert r["coordinator_boot"] == 2, r


@pytest.mark.parametrize("run", ["3pc-a", "3pc-b", "pc-a", "pc-b"])
def test_stitch_has_no_orphans_and_audit_is_clean(run):
    stitch = load(f"stitch-{run}.json")
    assert stitch["orphan_spans"] == [], stitch
    assert stitch["orphan_parents"] == [], stitch
    audit = load(f"audit-{run}.json")
    assert audit["ok"] is True, audit
