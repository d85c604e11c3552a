"""Episode schedules over a game: per-episode cores, drift, variation budget.

An episode schedule folds one peer policy per episode into the game, giving a
sequence of induced MDPs.  This module quantifies how much that sequence
moves (sup-norm variation budget) and how the per-episode common-subsequence
cores change: which prototypes vanish or appear between consecutive episodes,
each certified by a concrete counterexample trajectory.

"Shared structure across two episodes" is computed as the core over the union
of both success sets (sequences common to every success of either episode);
the literal set intersection of the two core sets is reported alongside it
for comparison.  The individual task core is defined as the core of the MDP
induced by the full-support uniform peer policy, i.e. the structure that
survives every peer behavior the joint dynamics support; this definition is
echoed in every report.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DimensionMismatch, EmptySuccessSet
from .mdp import (
    DEFAULT_NODE_BUDGET,
    KernelRows,
    MarkovGame,
    PeerPolicy,
    SuccessSet,
    TabularMDP,
    Trajectory,
    _fold_peer,
    enumerate_successes,
    induce_mdp,
    validate_game,
)
from .mining import (
    DEFAULT_SEQ_BUDGET,
    IDENTITY,
    Abstraction,
    CoreSet,
    SymbolSeq,
    _mine_prepared,
    _prepare_sequences,
    apply_abstraction,
    canonical_member_order,
    is_subsequence,
)

INDIVIDUAL_CORE_DEFINITION = (
    "core of the MDP induced by the full-support uniform peer policy"
)


@dataclass(frozen=True, eq=False)
class EpisodeSequence:
    """A game plus one peer policy per episode, with induced MDPs materialized."""

    game: MarkovGame
    schedule: tuple[PeerPolicy, ...]
    induced: tuple[TabularMDP, ...]

    @classmethod
    def from_schedule(
        cls, game: MarkovGame, schedule: "list[PeerPolicy] | tuple[PeerPolicy, ...]"
    ) -> "EpisodeSequence":
        schedule = tuple(schedule)
        if not schedule:
            raise ValueError("need at least one episode")
        validate_game(game)
        induced = tuple(_fold_peer(game, peer) for peer in schedule)
        return cls(game=game, schedule=schedule, induced=induced)

    @property
    def num_episodes(self) -> int:
        return len(self.schedule)


@dataclass(frozen=True)
class BudgetReport:
    """Per-step sup-norm deltas between consecutive induced MDPs and their sum."""

    kernel_deltas: tuple[float, ...]
    reward_deltas: tuple[float, ...]
    total: float


@dataclass(frozen=True)
class PrototypeChange:
    """A core member that fails to embed in some success of the other episode."""

    member: SymbolSeq
    witness: Trajectory
    witness_image: SymbolSeq


@dataclass(frozen=True)
class DriftStep:
    """Everything measured between episode ``index`` and ``index + 1`` (1-based)."""

    index: int
    common_core: CoreSet | None
    literal_intersection: tuple[SymbolSeq, ...] | None
    vanished: tuple[PrototypeChange, ...]
    gained: tuple[PrototypeChange, ...]
    common_within_individual: bool | None


@dataclass(frozen=True)
class DriftReport:
    episode_cores: tuple[CoreSet | None, ...]
    steps: tuple[DriftStep, ...]
    individual: CoreSet | None
    budget: BudgetReport
    individual_core_definition: str = INDIVIDUAL_CORE_DEFINITION


def kernel_distance(kernel: np.ndarray, previous: np.ndarray) -> float:
    """Largest L1 distance between matching next-state rows; 0.0 when there are none."""
    kernel = np.asarray(kernel, dtype=float)
    previous = np.asarray(previous, dtype=float)
    if kernel.shape != previous.shape:
        raise DimensionMismatch(f"kernel shapes differ: {kernel.shape} vs {previous.shape}")
    if kernel.size == 0:
        return 0.0
    return float(np.abs(kernel - previous).sum(axis=-1).max())


_BLOCK_ENTRIES = 1 << 20


def _rows_distance(kernel: KernelRows, previous: KernelRows) -> float:
    """:func:`kernel_distance` of two kernels held as rows.

    Rows whose entries are equal are 0 apart.  Only the rows that differ are
    made dense, ``_BLOCK_ENTRIES`` entries at a time, and
    :func:`kernel_distance` sums each of them as it sums a row of the whole
    dense kernel, so the result is the same float.
    """
    if kernel.shape != previous.shape:
        raise DimensionMismatch(f"kernel shapes differ: {kernel.shape} vs {previous.shape}")
    changed = np.diff(kernel.offsets) != np.diff(previous.offsets)
    # in rows of equal length, compare the entries position by position
    rows = kernel.entry_rows()
    here = np.flatnonzero(~changed[rows])
    there = here - kernel.offsets[rows[here]] + previous.offsets[rows[here]]
    differ = (kernel.targets[here] != previous.targets[there]) | (
        kernel.probs[here] != previous.probs[there]
    )
    changed[rows[here[differ]]] = True
    which = np.flatnonzero(changed)
    # a bounded number of dense rows at a time, whatever the number of states
    step = max(1, _BLOCK_ENTRIES // max(kernel.shape[-1], 1))
    return max(
        kernel_distance(kernel.block(part), previous.block(part))
        for part in np.split(which, range(step, len(which), step))
    )


def reward_distance(reward: np.ndarray, previous: np.ndarray) -> float:
    """Entrywise sup-norm distance between reward tables."""
    reward = np.asarray(reward, dtype=float)
    previous = np.asarray(previous, dtype=float)
    if reward.shape != previous.shape:
        raise DimensionMismatch(f"reward shapes differ: {reward.shape} vs {previous.shape}")
    if reward.size == 0:
        return 0.0
    return float(np.abs(reward - previous).max())


def variation_budget(seq: EpisodeSequence) -> BudgetReport:
    """Cumulative kernel-plus-reward drift over the induced episode sequence."""
    kernel_deltas = []
    reward_deltas = []
    for prev, cur in zip(seq.induced, seq.induced[1:]):
        kernel_deltas.append(_rows_distance(cur.rows, prev.rows))
        reward_deltas.append(reward_distance(cur.reward, prev.reward))
    total = float(sum(kernel_deltas) + sum(reward_deltas))
    return BudgetReport(
        kernel_deltas=tuple(kernel_deltas),
        reward_deltas=tuple(reward_deltas),
        total=total,
    )


def uniform_peer(game: MarkovGame) -> PeerPolicy:
    probs = np.full((game.num_states, game.num_actions_2), 1.0 / game.num_actions_2)
    return PeerPolicy(probs=probs, label="uniform-full-support")


def _mine_episode(
    mdp: TabularMDP,
    phi: Abstraction,
    strip_terminal: bool,
    node_budget: int,
    seq_budget: int,
) -> tuple[SuccessSet, list[SymbolSeq], CoreSet | None]:
    """Successes, prepared sequences and core of one MDP; no core when none succeed."""
    successes = enumerate_successes(mdp, node_budget=node_budget)
    if not len(successes):
        return successes, [], None
    seqs = _prepare_sequences(successes, phi, strip_terminal)
    return successes, seqs, _mine_prepared(seqs, phi, strip_terminal, seq_budget)


def individual_core(
    game: MarkovGame,
    phi: Abstraction = IDENTITY,
    strip_terminal: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
    seq_budget: int = DEFAULT_SEQ_BUDGET,
) -> CoreSet:
    """Core over every trajectory feasible under any peer behavior.

    Computed on the MDP induced by the full-support uniform peer, whose
    kernel support is the union of the supports induced by every possible
    peer policy.
    """
    full = induce_mdp(game, uniform_peer(game))
    _, _, found = _mine_episode(full, phi, strip_terminal, node_budget, seq_budget)
    if found is None:
        raise EmptySuccessSet("no trajectory succeeds under any peer behavior")
    return found


def episode_cores(
    seq: EpisodeSequence,
    phi: Abstraction = IDENTITY,
    strip_terminal: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
    seq_budget: int = DEFAULT_SEQ_BUDGET,
) -> list[CoreSet | None]:
    """Per-episode cores; None marks an episode whose success set is empty."""
    return [
        _mine_episode(mdp, phi, strip_terminal, node_budget, seq_budget)[2]
        for mdp in seq.induced
    ]


def _certified_changes(
    lost_from: CoreSet,
    kept_in: CoreSet,
    other_successes: SuccessSet,
    phi: Abstraction,
) -> tuple[PrototypeChange, ...]:
    """Members of ``lost_from`` with no superseding member in ``kept_in``.

    Each is certified by a trajectory of the other episode it fails to embed
    into; such a trajectory must exist whenever no superseding member does.
    """
    changes = []
    for member in lost_from.members:
        if any(is_subsequence(member, other) for other in kept_in.members):
            continue
        for traj in other_successes:
            image = apply_abstraction(traj, phi)
            if not is_subsequence(member, image):
                changes.append(PrototypeChange(member=member, witness=traj, witness_image=image))
                break
        else:
            raise ConsistencyError(
                f"prototype {member!r} embeds in every success yet has no "
                f"superseding core member; core computation is inconsistent"
            )
    return tuple(changes)


def drift_report(
    seq: EpisodeSequence,
    phi: Abstraction = IDENTITY,
    strip_terminal: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
    seq_budget: int = DEFAULT_SEQ_BUDGET,
) -> DriftReport:
    """Full drift analysis of an episode schedule.

    Assembles per-episode cores, per-step shared structure (core over the
    union of consecutive success sets, plus the literal core intersection),
    vanished and gained prototypes with certifying witnesses, the individual
    task core, the variation budget, and a per-step check that the shared
    structure is embedded in the individual core.
    """
    episodes = [
        _mine_episode(mdp, phi, strip_terminal, node_budget, seq_budget)
        for mdp in seq.induced
    ]

    try:
        individual = individual_core(
            seq.game,
            phi=phi,
            strip_terminal=strip_terminal,
            node_budget=node_budget,
            seq_budget=seq_budget,
        )
    except EmptySuccessSet:
        individual = None

    steps = []
    for index, (before, after) in enumerate(zip(episodes, episodes[1:]), start=1):
        successes_a, seqs_a, core_a = before
        successes_b, seqs_b, core_b = after
        if core_a is None or core_b is None:
            steps.append(
                DriftStep(
                    index=index,
                    common_core=None,
                    literal_intersection=None,
                    vanished=(),
                    gained=(),
                    common_within_individual=None,
                )
            )
            continue
        common = _mine_prepared(sorted({*seqs_a, *seqs_b}), phi, strip_terminal, seq_budget)
        literal = canonical_member_order(
            set(core_a.members) & set(core_b.members)
        )
        vanished = _certified_changes(core_a, core_b, successes_b, phi)
        gained = _certified_changes(core_b, core_a, successes_a, phi)
        if individual is None:
            contained = None
        else:
            contained = all(
                any(is_subsequence(member, big) for big in individual.members)
                for member in common.members
            )
        steps.append(
            DriftStep(
                index=index,
                common_core=common,
                literal_intersection=literal,
                vanished=vanished,
                gained=gained,
                common_within_individual=contained,
            )
        )

    return DriftReport(
        episode_cores=tuple(found for _, _, found in episodes),
        steps=tuple(steps),
        individual=individual,
        budget=variation_budget(seq),
    )
