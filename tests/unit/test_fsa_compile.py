"""Run differentials of the one FSA engine.

The engine interprets the spec's automata directly.  Every run here is
executed twice — once on a shared spec (or explorer), once on a freshly
built one inside :func:`repro.fsa.compile.interpreted_engine`, the
context the benchmark times its interpreted FSA step under — and must
be bit-identical: every catalog protocol through happy paths, crashes,
mid-transition crashes, restarts, and the entire ``tests/corpus``
explorer artifact set, asserting identical transition sequences,
outcomes, and schedule hashes.  Nothing may leak between runs through a
reused spec or explorer, and the benchmark's context must change
nothing.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.explore import Explorer, ReplayArtifact, replay
from repro.fsa.compile import interpreted_engine
from repro.protocols import catalog
from repro.runtime.harness import CommitRun
from repro.sim.tracing import TraceLog
from repro.types import SiteId
from repro.workload.crashes import CrashAt, CrashDuringTransition

CORPUS_DIR = pathlib.Path(__file__).parent.parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))

PROTOCOLS = (
    "1pc",
    "2pc-central",
    "2pc-decentralized",
    "3pc-central",
    "3pc-decentralized",
)

_SPECS: dict[str, object] = {}
_EXPLORERS: dict = {}


def spec_for(protocol: str):
    spec = _SPECS.get(protocol)
    if spec is None:
        spec = _SPECS[protocol] = catalog.build(protocol, 3)
    return spec


# ----------------------------------------------------------------------
# Full-run trace differential
# ----------------------------------------------------------------------


def run_fingerprint(spec, **kwargs):
    """One CommitRun's complete observable behavior, as comparable data.

    The trace is serialized entry-by-entry (fixed field order, sorted
    data keys), so two runs compare equal only if every event — engine
    transitions included — happened at the same time with the same
    content.
    """
    trace = TraceLog()
    result = CommitRun(spec, trace=trace, **kwargs).execute()
    return {
        "outcomes": {int(s): o.value for s, o in result.outcomes().items()},
        "blocked": [int(s) for s in result.blocked_sites],
        "duration": result.duration,
        "messages": (
            result.messages_sent,
            result.messages_delivered,
            result.messages_dropped,
        ),
        "events": result.events_fired,
        "trace": [entry.to_json() for entry in trace.entries],
    }


def assert_differential(protocol: str, **kwargs):
    shared = run_fingerprint(spec_for(protocol), **kwargs)
    with interpreted_engine():
        fresh = run_fingerprint(catalog.build(protocol, 3), **kwargs)
    assert shared["trace"] == fresh["trace"]
    assert shared == fresh


class TestRunDifferential:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_happy_path_traces_are_identical(self, protocol, seed):
        assert_differential(protocol, seed=seed)

    @pytest.mark.parametrize("protocol", ["2pc-central", "3pc-central"])
    def test_coordinator_crash_traces_are_identical(self, protocol):
        assert_differential(
            protocol, seed=3, crashes=[CrashAt(site=SiteId(1), at=2.0)]
        )

    @pytest.mark.parametrize("protocol", ["2pc-central", "3pc-central"])
    def test_mid_transition_crash_traces_are_identical(self, protocol):
        # Slide 21's non-atomic transition: both runs must interrupt
        # the same firing after the same write prefix.
        assert_differential(
            protocol,
            seed=5,
            crashes=[
                CrashDuringTransition(
                    site=SiteId(1), transition_number=2, after_writes=1
                )
            ],
        )

    def test_crash_restart_recovery_traces_are_identical(self):
        assert_differential(
            "3pc-central",
            seed=11,
            crashes=[CrashAt(site=SiteId(1), at=2.0, restart_at=30.0)],
        )

    def test_slave_crash_traces_are_identical(self):
        assert_differential(
            "3pc-decentralized",
            seed=2,
            crashes=[CrashAt(site=SiteId(3), at=1.5)],
        )


# ----------------------------------------------------------------------
# Explorer corpus differential
# ----------------------------------------------------------------------


def _explorer_for(artifact: ReplayArtifact) -> Explorer:
    explorer = _EXPLORERS.get(artifact.config)
    if explorer is None:
        explorer = _EXPLORERS[artifact.config] = Explorer(artifact.config)
    return explorer


def outcome_fingerprint(outcome):
    return {
        "trail": outcome.trail,
        "canonical": outcome.canonical,
        "hash": outcome.hash,
        "violations": [
            (v.kind, v.detail) for v in outcome.violations
        ],
        "blocked": outcome.blocked,
        "outcomes": outcome.outcomes,
    }


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[path.stem for path in CORPUS_FILES]
)
def test_corpus_replays_identically_in_both_modes(path):
    # The corpus is the hardest schedule set this repo owns — every
    # minimized counterexample and witness must take the exact same
    # decision trail, hash, and verdict through a reused explorer and
    # a fresh one.
    artifact = ReplayArtifact.load(str(path))
    shared = replay(artifact, explorer=_explorer_for(artifact))
    with interpreted_engine():
        fresh = replay(artifact, explorer=Explorer(artifact.config))
    assert shared.ok and fresh.ok
    assert shared.verdict == fresh.verdict
    assert outcome_fingerprint(shared.outcome) == outcome_fingerprint(
        fresh.outcome
    )
