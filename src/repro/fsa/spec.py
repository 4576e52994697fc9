"""Complete protocol specifications.

A :class:`ProtocolSpec` bundles one :class:`SiteAutomaton` per site
with the externally supplied initial messages (the transaction request
in the central-site model; the per-site ``xact`` messages in the
decentralized model).  Specs are validated on construction.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.errors import InvalidProtocolError
from repro.fsa.automaton import SiteAutomaton
from repro.fsa.messages import Msg
from repro.types import ProtocolClass, SiteId


class ProtocolSpec:
    """An n-site commit protocol in the paper's formal model.

    Args:
        name: Display name, e.g. ``"central-site 2PC"``.
        protocol_class: Which of the two paradigms the protocol follows.
        automata: Mapping from site id to that site's automaton.
        initial_messages: Messages outstanding before any transition
            fires — external inputs from :data:`repro.fsa.messages.EXTERNAL`
            (and nothing else; protocol messages only appear via writes).
        coordinator: The distinguished site in central-site protocols;
            ``None`` for decentralized protocols.
        validate: Run structural validation (default).  Disable only in
            tests that construct deliberately malformed specs.

    Raises:
        InvalidProtocolError: If validation fails (see
            :func:`repro.fsa.validate.validate_spec` for the checks).
    """

    def __init__(
        self,
        name: str,
        protocol_class: ProtocolClass,
        automata: Mapping[SiteId, SiteAutomaton],
        initial_messages: Iterable[Msg],
        coordinator: Optional[SiteId] = None,
        validate: bool = True,
    ) -> None:
        self.name = name
        self.protocol_class = protocol_class
        self.automata = dict(automata)
        self.initial_messages = frozenset(initial_messages)
        self.coordinator = coordinator
        if validate:
            # Imported here to avoid a cycle: validate imports spec types.
            from repro.fsa.validate import validate_spec

            validate_spec(self)
        #: Sites that leave the protocol through a read-only exit: they
        #: have no commit/abort states, hold no outcome, and are pruned
        #: from phase-2/3 fan-outs, termination, and recovery queries.
        self.read_only_sites: frozenset[SiteId] = frozenset(
            site
            for site, automaton in self.automata.items()
            if automaton.read_only_states
            and not (automaton.commit_states or automaton.abort_states)
        )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @property
    def sites(self) -> list[SiteId]:
        """Sorted ids of the participating sites."""
        return sorted(self.automata)

    @property
    def n_sites(self) -> int:
        """Number of participating sites."""
        return len(self.automata)

    def automaton(self, site: SiteId) -> SiteAutomaton:
        """The automaton executed by ``site``.

        Raises:
            InvalidProtocolError: If the site does not participate.
        """
        try:
            return self.automata[site]
        except KeyError:
            raise InvalidProtocolError(
                f"site {site} does not participate in {self.name!r}"
            ) from None

    # ------------------------------------------------------------------
    # Convenience views used throughout analysis and the runtime
    # ------------------------------------------------------------------

    def initial_state_vector(self) -> tuple[str, ...]:
        """The local-state vector of the initial global state."""
        return tuple(self.automata[site].initial for site in self.sites)

    def is_commit_state(self, site: SiteId, state: str) -> bool:
        """Whether ``state`` is a commit state of ``site``."""
        return state in self.automata[site].commit_states

    def is_abort_state(self, site: SiteId, state: str) -> bool:
        """Whether ``state`` is an abort state of ``site``."""
        return state in self.automata[site].abort_states

    def is_final_state(self, site: SiteId, state: str) -> bool:
        """Whether ``state`` is a final (commit or abort) state."""
        return self.automata[site].is_final(state)

    def message_kinds(self) -> frozenset[str]:
        """All message kinds appearing anywhere in the protocol."""
        kinds = {msg.kind for msg in self.initial_messages}
        for automaton in self.automata.values():
            for transition in automaton.transitions:
                kinds.update(msg.kind for msg in transition.reads)
                kinds.update(msg.kind for msg in transition.writes)
        return frozenset(kinds)

    def max_phase_count(self) -> int:
        """The protocol's phase count (max over sites).

        For the catalog protocols this matches their names: 1 for 1PC at
        the slaves, 2 for 2PC, 3 for 3PC.
        """
        return max(automaton.phase_count for automaton in self.automata.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProtocolSpec({self.name!r}, {self.protocol_class.value}, "
            f"n={self.n_sites})"
        )
