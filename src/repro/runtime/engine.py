"""The FSA interpreter: executes one site's protocol automaton.

The engine is the runtime half of the "one model, two uses" design: it
interprets the exact :class:`~repro.fsa.automaton.SiteAutomaton` the
analysis layer reasons about.  It buffers incoming model messages,
fires transitions whose read sets are satisfied, resolves vote
nondeterminism through the site's vote policy, and write-ahead-logs
votes and decisions to the DT log.

Crash realism (slide 21): local state transitions are *not* atomic
under site failures.  A transition fires as: force log records, then
transmit writes one at a time, then advance the local state.  The crash
injector can interrupt after any prefix of the writes, in which case
the state does not advance — some messages are out, the rest never
will be, exactly the partial-transition failure the paper describes.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import TransitionError
from repro.fsa.automaton import SiteAutomaton, Transition
from repro.fsa.messages import Msg
from repro.runtime.log import DTLog
from repro.runtime.policies import VotePolicy
from repro.types import Outcome, SiteId, Vote


class Engine:
    """Interprets one site automaton.

    Args:
        automaton: The site's FSA.
        vote_policy: Resolves this site's vote nondeterminism.
        log: The site's DT log (crash-surviving).
        send: Callback transmitting one model message on the network.
        now: Callback returning the current virtual time (for log
            timestamps).
        on_final: Callback invoked with (outcome, via) when the site
            enters a final state.
        on_trace: Callback for trace lines ``(category, detail, data)``.
        presumption: Commit presumption governing which log records are
            forced: ``"none"`` (every record, the classic write-ahead
            discipline), ``"abort"`` (presumed abort: abort-side
            records are logged lazily), or ``"commit"`` (presumed
            commit: the coordinator forces a membership record up
            front, participants log decisions lazily).
        membership: Voting participants to pin in the presumed-commit
            membership record; supplied only to the coordinator.
    """

    def __init__(
        self,
        automaton: SiteAutomaton,
        vote_policy: VotePolicy,
        log: DTLog,
        send: Callable[[Msg], None],
        now: Callable[[], float],
        on_final: Callable[[Outcome, str], None],
        on_trace: Callable[..., None],
        presumption: str = "none",
        membership: tuple[SiteId, ...] = (),
    ) -> None:
        self.automaton = automaton
        self.site: SiteId = automaton.site
        self.vote_policy = vote_policy
        self.log = log
        self._send = send
        self._now = now
        self._on_final = on_final
        self._trace = on_trace
        self.presumption = presumption
        self._membership = membership
        self.state = automaton.initial
        self.buffer: set[Msg] = set()
        self.transitions_fired = 0
        self._halted = False
        # When the current FSA state (= protocol phase) was entered;
        # the initial state is occupied from virtual time zero.
        self._phase_entered_at: float = 0.0
        # Partial-send crash request: (transition_number, writes_to_send,
        # crash_callback).  Armed by the failure injector.
        self._partial_crash: Optional[tuple[int, int, Callable[[], None]]] = None

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """Whether the site reached a final (commit/abort) state."""
        return self.automaton.is_final(self.state)

    @property
    def outcome(self) -> Outcome:
        """Current outcome implied by the local state."""
        if self.state in self.automaton.commit_states:
            return Outcome.COMMIT
        if self.state in self.automaton.abort_states:
            return Outcome.ABORT
        return Outcome.UNDECIDED

    def halt(self) -> None:
        """Stop interpreting (used on crash); buffered messages are lost."""
        self._halted = True

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def arm_partial_crash(
        self,
        transition_number: int,
        after_writes: int,
        crash: Callable[[], None],
    ) -> None:
        """Crash mid-transition: during this site's ``transition_number``-th
        firing (1-based), transmit only ``after_writes`` messages, then
        invoke ``crash`` without advancing the local state."""
        self._partial_crash = (transition_number, after_writes, crash)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def receive(self, msg: Msg) -> None:
        """Buffer one model message and fire whatever becomes enabled."""
        if self._halted:
            return
        self.buffer.add(msg)
        self.pump()

    def pump(self) -> None:
        """Fire enabled transitions until quiescent."""
        while not self._halted and not self.finished:
            transition = self._pick_enabled()
            if transition is None:
                return
            fired = self._fire(transition)
            if not fired:
                return

    def _pick_enabled(self) -> Optional[Transition]:
        """Choose the transition to fire, resolving vote nondeterminism.

        Raises:
            TransitionError: If several enabled transitions remain that
                disagree on target or writes after vote resolution —
                genuine ambiguity a correct spec never exhibits.
        """
        enabled = [
            t
            for t in self.automaton.out_transitions(self.state)
            if t.reads <= self.buffer
        ]
        if not enabled:
            return None
        if len(enabled) == 1:
            return enabled[0]

        voted = [t for t in enabled if t.vote is not None]
        if voted:
            my_vote = self.vote_policy.vote(self.site)
            matching = [t for t in enabled if t.vote is my_vote]
            if matching:
                enabled = matching

        # Remaining candidates must be interchangeable (same effect).
        first = enabled[0]
        for other in enabled[1:]:
            if other.target != first.target or other.writes != first.writes:
                raise TransitionError(
                    f"site {self.site} state {self.state!r}: ambiguous "
                    f"enabled transitions {first.describe()} vs "
                    f"{other.describe()}"
                )
        return first

    def _fire(self, transition: Transition) -> bool:
        """Execute one transition.

        Returns:
            ``True`` if the transition completed (state advanced),
            ``False`` if a partial-send crash interrupted it.
        """
        self.transitions_fired += 1

        # Presumed commit: the coordinator pins the participant set
        # durably before the first message of the transaction leaves —
        # a later no-record query answer of "commit" is only sound for
        # transactions that provably never started.
        if (
            self._membership
            and self.presumption == "commit"
            and self.state == self.automaton.initial
            and self.log.membership() is None
        ):
            self.log.write_membership(self._membership, self._now())
            self._trace(
                "engine.membership",
                f"membership {sorted(self._membership)} forced "
                "(presumed commit)",
                members=sorted(self._membership),
            )

        # Write-ahead: log the vote and/or decision before any send;
        # the presumption decides which records need the force.  A
        # read-only vote is never logged — the one-phase exit's whole
        # point is zero DT-log writes at the read-only site.
        if (
            transition.vote is not None
            and transition.vote is not Vote.READ_ONLY
            and self.log.vote() is None
        ):
            self.log.write_vote(
                transition.vote,
                self._now(),
                forced=self._vote_forced(transition.vote),
            )
        entering_final = self.automaton.is_final(transition.target)
        entering_read_only = transition.target in self.automaton.read_only_states
        if entering_final and not entering_read_only:
            outcome = (
                Outcome.COMMIT
                if transition.target in self.automaton.commit_states
                else Outcome.ABORT
            )
            self.log.write_decision(
                outcome,
                self._now(),
                via="protocol",
                forced=self._decision_forced(outcome),
            )

        partial = self._partial_crash
        crash_now = (
            partial is not None and partial[0] == self.transitions_fired
        )
        writes = transition.writes
        if crash_now:
            writes = transition.writes[: partial[1]]

        self.buffer -= transition.reads
        for msg in writes:
            self._send(msg)

        if crash_now:
            self._partial_crash = None
            self._trace(
                "engine.partial_crash",
                f"crashed during {transition.describe()} after "
                f"{len(writes)}/{len(transition.writes)} writes",
                transition=transition.describe(),
                sent=len(writes),
            )
            partial[2]()
            return False

        previous = self.state
        self.state = transition.target
        self._trace(
            "engine.transition",
            transition.describe(),
            state=self.state,
            fired=self.transitions_fired,
        )
        self._advance_phase(previous)
        if entering_final:
            if entering_read_only:
                # The one-phase exit: terminal, but no outcome and no
                # DT record — the site simply leaves the protocol.
                self._trace(
                    "txn.readonly_exit",
                    "read-only exit after phase 1",
                    state=self.state,
                )
                self._on_final(Outcome.UNDECIDED, "read-only")
            else:
                self._record_decision("protocol")
                self._on_final(self.outcome, "protocol")
        return True

    def _vote_forced(self, vote: Vote) -> bool:
        """Whether the presumption requires forcing this vote record.

        Yes votes are always forced — the in-doubt protocol depends on
        a durable yes.  A no vote is the abort side's first record:
        under presumed abort losing it merely re-derives the
        presumption, so the force is skipped; under presumed commit a
        lost no would be mis-presumed as commit, so it stays forced.
        """
        if vote is Vote.NO:
            return self.presumption != "abort"
        return True

    def _decision_forced(self, outcome: Outcome) -> bool:
        """Whether the presumption requires forcing this decision record.

        With no presumption every decision is forced.  Under either
        presumption the coordinator's commit stays forced — it is the
        cluster-durable authority every in-doubt participant resolves
        against (this protocol family sends no decision acks, so the
        coordinator never forgets a decision and participants may log
        theirs lazily).  Abort decisions are lazy everywhere: presumed
        abort re-derives them from the absence of records, and presumed
        commit re-derives them from a membership record with no
        decision (coordinator) or a forced no vote / in-doubt query
        (participants).
        """
        if self.presumption == "none":
            return True
        return (
            outcome is Outcome.COMMIT
            and self.automaton.role == "coordinator"
        )

    def _advance_phase(self, previous: str) -> None:
        """Emit the ``phase.exit``/``phase.enter`` pair for a state change.

        The FSA state *is* the protocol phase (q/w/p/a/c...), so phase
        timing falls straight out of state occupancy: ``elapsed`` on the
        exit event is how long the site sat in the phase it just left.
        """
        now = self._now()
        self._trace(
            "phase.exit",
            f"left {previous!r} after {now - self._phase_entered_at:g}",
            phase=previous,
            elapsed=now - self._phase_entered_at,
        )
        self._phase_entered_at = now
        self._trace(
            "phase.enter",
            f"entered {self.state!r}",
            phase=self.state,
        )

    def _record_decision(self, via: str) -> None:
        """Emit the ``txn.decided`` event (decision latency = its time)."""
        self._trace(
            "txn.decided",
            f"{self.outcome.value} via {via}",
            outcome=self.outcome.value,
            via=via,
            state=self.state,
        )

    # ------------------------------------------------------------------
    # Forced moves (termination protocol hooks)
    # ------------------------------------------------------------------

    def force_state(self, state: str) -> None:
        """Adopt a local state on the backup coordinator's order.

        Phase 1 of the backup protocol (slide 39) asks every site to
        make a transition to the backup's local state.

        Raises:
            TransitionError: If the label is not a state of this
                automaton (heterogeneous protocols would need a state
                mapping, which the catalog protocols do not).
        """
        if state not in self.automaton.states:
            raise TransitionError(
                f"site {self.site} cannot adopt unknown state {state!r}"
            )
        if self.finished:
            return
        previous = self.state
        self.state = state
        self._trace(
            "engine.forced_state",
            f"moved {previous!r} -> {state!r} by termination protocol",
            state=state,
        )
        if state != previous:
            self._advance_phase(previous)

    def force_outcome(self, outcome: Outcome, via: str) -> None:
        """Adopt a final outcome delivered by termination or recovery."""
        if self.finished:
            return
        if outcome is Outcome.COMMIT:
            target = sorted(self.automaton.commit_states)[0]
        elif outcome is Outcome.ABORT:
            target = sorted(self.automaton.abort_states)[0]
        else:
            raise TransitionError(f"cannot force non-final outcome {outcome}")
        self.log.write_decision(outcome, self._now(), via=via)
        previous = self.state
        self.state = target
        self._trace(
            "engine.forced_outcome",
            f"{outcome.value} via {via}",
            state=target,
            via=via,
        )
        if target != previous:
            self._advance_phase(previous)
        self._record_decision(via)
        self._on_final(outcome, via)
