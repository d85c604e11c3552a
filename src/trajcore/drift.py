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

An episode whose peer table equals an earlier one bit for bit induces the
same MDP, so it costs nothing new: a schedule folds each distinct table once
and its episodes share that one :class:`TabularMDP`, which one analysis
validates and signs once.  Between two episodes that share it the kernel
delta is 0.0.

Nothing here lists successes.  Each episode, and the uniform peer's MDP, is
mined on its support graph (:mod:`trajcore.graph`).  Index aside, a step
depends only on its two support signatures, so one call mines each distinct
signature once and measures each unordered pair of them once: it mines the
union of the two graphs and finds each witness by a walk over the other
episode's graph.  ``node_budget`` bounds the (state, t) nodes of each support
graph, so it is never above S·H, and ``seq_budget`` the nodes of each
maximal-subsequence search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, DimensionMismatch, EmptySuccessSet, ValidationError
from .graph import SuccessGraph, Symbols, build_graph, support_signature
from .mdp import (
    DEFAULT_NODE_BUDGET,
    KernelRows,
    MarkovGame,
    PeerPolicy,
    TabularMDP,
    Trajectory,
    _fold_peer,
    validate_game,
    validate_mdp,
)
from .mining import (
    DEFAULT_SEQ_BUDGET,
    IDENTITY,
    Abstraction,
    CoreSet,
    SymbolSeq,
    apply_abstraction,
    canonical_member_order,
    is_subsequence,
)

INDIVIDUAL_CORE_DEFINITION = (
    "core of the MDP induced by the full-support uniform peer policy"
)


@dataclass(frozen=True, eq=False)
class EpisodeSequence:
    """A game plus one peer policy per episode, with induced MDPs materialized.

    Episodes whose peer tables have equal shapes and bytes share one induced
    MDP object, folded at the first of them; labels play no part.  Its
    fields are read-only, so sharing it is safe.
    """

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
        folded: dict = {}  # (shape, bytes) of a peer table -> its induced MDP
        induced = []
        for peer in schedule:
            key = peer.probs.shape, peer.probs.tobytes()
            if key not in folded:
                folded[key] = _fold_peer(game, peer)
            induced.append(folded[key])
        return cls(game=game, schedule=schedule, induced=tuple(induced))

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
    return float(np.abs(kernel - previous).sum(axis=-1).max(initial=0.0))


_BLOCK_ENTRIES = 1 << 20


def _rows_distance(kernel: KernelRows, previous: KernelRows) -> float:
    """:func:`kernel_distance` of two kernels held as rows.

    The step is taken on the union of both kernels' stored (row, target)
    keys; every other entry of ``|kernel - previous|`` is 0.  At a key
    stored in both, the term is the float ``k - p`` of the dense
    difference, and at a key stored in one it is ``k - 0`` or ``0 - p``.
    A row with at most two non-zero terms sums to the float of the dense
    row sum, whatever order NumPy adds its terms in, because adding 0
    rounds nothing and ``a + b`` is the only other addition.  The order of
    three or more terms can change their float sum, so those rows alone
    are made dense, ``_BLOCK_ENTRIES`` entries at a time, and
    :func:`kernel_distance` sums each of them as it sums a row of the
    whole dense kernel.  The result is the same float.
    """
    if kernel.shape != previous.shape:
        raise DimensionMismatch(f"kernel shapes differ: {kernel.shape} vs {previous.shape}")
    width = kernel.shape[-1]
    here = kernel.entry_rows() * width + kernel.targets
    there = previous.entry_rows() * width + previous.targets
    # both key lists ascend without repeats, so a key is stored in the other at most once
    at = np.searchsorted(here, there)
    shared = at < len(here)
    shared[shared] = here[at[shared]] == there[shared]
    differences = kernel.probs.copy()
    differences[at[shared]] -= previous.probs[shared]
    keys = np.concatenate([here, there[~shared]])
    terms = np.abs(np.concatenate([differences, previous.probs[~shared]]))
    nonzero = terms != 0
    rows, terms = keys[nonzero] // width, terms[nonzero]
    counts = np.bincount(rows, minlength=kernel.num_rows)
    few = counts[rows] <= 2
    distance = float(np.bincount(rows[few], weights=terms[few]).max(initial=0.0))
    many = np.flatnonzero(counts > 2)
    # a bounded number of dense rows at a time, whatever the number of states
    step = max(1, _BLOCK_ENTRIES // max(width, 1))
    for start in range(0, len(many), step):
        part = many[start : start + step]
        distance = max(distance, kernel_distance(kernel.block(part), previous.block(part)))
    return distance


def reward_distance(reward: np.ndarray, previous: np.ndarray) -> float:
    """Entrywise sup-norm distance between reward tables.

    ``inf``, with no warning, when two finite entries differ by more than
    the float range.
    """
    reward = np.asarray(reward, dtype=float)
    previous = np.asarray(previous, dtype=float)
    if reward.shape != previous.shape:
        raise DimensionMismatch(f"reward shapes differ: {reward.shape} vs {previous.shape}")
    with np.errstate(over="ignore"):
        return float(np.abs(reward - previous).max(initial=0.0))


def variation_budget(seq: EpisodeSequence) -> BudgetReport:
    """Cumulative kernel-plus-reward drift over the induced episode sequence.

    Raises :class:`ValidationError`, naming the step, when a reward delta or
    the running total leaves the float range; a kernel delta is at most 2.
    Between two episodes that share one induced MDP the kernel delta is 0.0
    without a measurement: the value :func:`_rows_distance` gives for any
    kernel that a validated game and peer fold into.
    """
    steps = list(zip(seq.induced, seq.induced[1:]))
    kernel_deltas = tuple(
        0.0 if cur is prev else _rows_distance(cur.rows, prev.rows) for prev, cur in steps
    )
    reward_deltas = tuple(reward_distance(cur.reward, prev.reward) for prev, cur in steps)
    total = float(sum(kernel_deltas) + sum(reward_deltas))
    if not math.isfinite(total):
        for index, (delta, running) in enumerate(zip(reward_deltas, accumulate(reward_deltas)), 1):
            if not math.isfinite(running):
                break
        if math.isfinite(delta):
            what, why = "variation budget total", "the deltas sum past the float range"
        else:
            what, why = "reward delta", "two rewards differ by more than the float range"
        raise ValidationError(f"{what} at step {index} (episode {index} to {index + 1}) is not finite: {why}")
    return BudgetReport(kernel_deltas, reward_deltas, total)


def uniform_peer(game: MarkovGame) -> PeerPolicy:
    probs = np.full((game.num_states, game.num_actions_2), 1.0 / game.num_actions_2)
    return PeerPolicy(probs=probs, label="uniform-full-support")


class _Support(NamedTuple):
    """A support signature's number in order of first sight, its graph and core."""

    number: int
    graph: SuccessGraph
    core: CoreSet | None  # None without successes


class _Mined:
    """The supports and support pairs of one analysis.

    Each distinct MDP object is validated and signed once, and each distinct
    support signature is built and mined once.  Each unordered
    pair of them is measured once, as the step from its lower to its higher
    number with index 0, and the other order reads that record with vanished
    and gained swapped.  Held by one call, so nothing outlives it.
    """

    def __init__(self, phi: Abstraction, strip_terminal: bool, node_budget: int, seq_budget: int):
        self.symbols = Symbols(phi, strip_terminal)
        self.node_budget = node_budget
        self.seq_budget = seq_budget
        self.supports: dict = {}  # signature -> _Support
        self.mdps: dict = {}  # TabularMDP, which hashes by identity -> _Support
        self.pairs: dict = {}  # (lower number, higher number) -> DriftStep with index 0

    def episode(self, mdp: TabularMDP) -> _Support:
        """Validate ``mdp``, mine it unless its signature is known, and return its support.

        An MDP object met before is neither validated nor signed again.
        """
        if mdp not in self.mdps:
            validate_mdp(mdp)
            key = support_signature(mdp)
            if key not in self.supports:
                graph = build_graph(mdp, self.symbols, self.node_budget)
                core = graph.core(self.seq_budget) if graph.roots else None
                self.supports[key] = _Support(len(self.supports), graph, core)
            self.mdps[mdp] = self.supports[key]
        return self.mdps[mdp]

    def individual(self, game: MarkovGame) -> CoreSet | None:
        """The core of the uniform peer's MDP; None when nothing succeeds under it."""
        validate_game(game)
        return self.episode(_fold_peer(game, uniform_peer(game))).core

    def step(self, index: int, a: _Support, b: _Support, individual: CoreSet | None) -> DriftStep:
        """The step from ``a`` to ``b``, read from the record of their pair."""
        if a.number > b.number:
            step = self.step(index, b, a, individual)
            return replace(step, vanished=step.gained, gained=step.vanished)
        if (a.number, b.number) not in self.pairs:
            self.pairs[a.number, b.number] = self._measure(a, b, individual)
        return replace(self.pairs[a.number, b.number], index=index)

    def _measure(self, a: _Support, b: _Support, individual: CoreSet | None) -> DriftStep:
        if a.core is None or b.core is None:
            return DriftStep(0, None, None, (), (), None)
        common = a.core if a is b else a.graph.union(b.graph).core(self.seq_budget)
        literal = canonical_member_order(set(a.core.members) & set(b.core.members))
        contained = None if individual is None else all(
            any(is_subsequence(member, big) for big in individual.members)
            for member in common.members
        )
        vanished = _certified_changes(a.core, b.core, b.graph)
        gained = _certified_changes(b.core, a.core, a.graph)
        return DriftStep(0, common, literal, vanished, gained, contained)


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
    found = _Mined(phi, strip_terminal, node_budget, seq_budget).individual(game)
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
    mined = _Mined(phi, strip_terminal, node_budget, seq_budget)
    return [mined.episode(mdp).core for mdp in seq.induced]


def _certified_changes(
    lost_from: CoreSet, kept_in: CoreSet, other: SuccessGraph
) -> tuple[PrototypeChange, ...]:
    """Members of ``lost_from`` with no superseding member in ``kept_in``.

    Each is certified by the first success of the other episode, in
    :class:`SuccessSet` order, that it fails to embed into; such a success
    must exist whenever no superseding member does.
    """
    changes = []
    for member in lost_from.members:
        if any(is_subsequence(member, kept) for kept in kept_in.members):
            continue
        witness = other.witness(member)
        if witness is None:
            raise ConsistencyError(
                f"prototype {member!r} embeds in every success yet has no "
                f"superseding core member; core computation is inconsistent"
            )
        image = apply_abstraction(witness, other.symbols.phi)
        changes.append(PrototypeChange(member=member, witness=witness, witness_image=image))
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
    structure is embedded in the individual core.  Episodes that share an
    induced MDP (bit-equal peer tables) share one validation and one support
    signature.  Episodes with equal support signatures share one graph and
    one core; a step between them has their core as its common core and no
    vanished or gained prototype.
    """
    mined = _Mined(phi, strip_terminal, node_budget, seq_budget)
    supports = [mined.episode(mdp) for mdp in seq.induced]
    individual = mined.individual(seq.game)
    pairs = enumerate(zip(supports, supports[1:]), start=1)
    steps = tuple(mined.step(index, a, b, individual) for index, (a, b) in pairs)
    return DriftReport(
        episode_cores=tuple(support.core for support in supports),
        steps=steps,
        individual=individual,
        budget=variation_budget(seq),
    )
