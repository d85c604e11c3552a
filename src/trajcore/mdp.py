"""Finite-horizon tabular MDPs, two-player Markov games, and trajectories.

Conventions used throughout the package:

* A trajectory is a sequence of (state, action) pairs.  A trajectory that
  reaches the goal set is closed with a reserved pseudo-pair
  ``(goal_state, TERMINAL)`` so that the goal symbol participates in all
  sequence algorithms.  ``TERMINAL`` is distinct from every real action.
* Success is support-based: a trajectory is successful iff it starts in the
  support of the initial distribution, every transition has positive kernel
  probability, no intermediate state is a goal, and the goal is reached at
  state index ``t <= horizon`` (states are 1-indexed, so a success has at
  most ``horizon - 1`` real action steps).  The support of a distribution is
  its set of entries ``> 0``; the small negative entries that validation
  tolerates (down to ``-ROW_TOL``) are outside it.  Every reader of the
  kernel support reads the one kept by :attr:`TabularMDP._support`.
* An MDP and a game differ only in the rank of the kernel: both construct
  through :func:`_build_model` and validate through :func:`_validate_model`.
  Each constructor validates, so every model object is valid, however it
  was made (directly, by ``dataclasses.replace``, by a file reader or by
  :func:`induce_mdp`), and no reader of one validates it again.
* The successes of an MDP are the root-to-goal paths of one layered graph
  over (state, t), pruned to the nodes from which a goal is still reachable
  within the horizon.  :func:`trajcore.graph.build_graph` walks and labels
  it; :func:`enumerate_successes` counts and lists its paths.
* Randomness comes from NumPy's PCG64 generator seeded explicitly, with
  categorical draws done by inverse-CDF on a single uniform, so rollouts are
  bit-reproducible for a fixed seed across platforms.

All container types are immutable after construction (arrays are marked
read-only) and safe to share between threads.  A game keeps the plan of its
first peer fold (:func:`_plan_fold`), an MDP its kernel support, and a
success set its frozenset and its encoding (:func:`_encode`: the distinct
items and one code-point string of every trajectory's items), each on first
use; :meth:`SuccessSet.from_iterable` makes the encoding while it sorts.
Each is read-only and built from the read-only fields alone, so no value the
object reports changes, and threads that read one object at once build equal
values at worst.
"""
from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyGoalError,
    ExplosionGuard,
    HorizonError,
    RowSumError,
    ValidationError,
)

TERMINAL = -1
ROW_TOL = 1e-9
DEFAULT_NODE_BUDGET = 1_000_000  # a support graph node peaks at 0.3 KB (key-door) to 0.8 KB
MAX_HORIZON = 2**63 - 1
_COUNTED_NODES = 1 << 16  # the graph size up to which a tripped enumeration counts its prefixes


def _freeze(values, dtype=float) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(values, dtype=dtype))
    arr.setflags(write=False)
    return arr


def _check_distribution(entries: np.ndarray, sums: np.ndarray, what: str, floor=-ROW_TOL) -> None:
    """Raise unless no entry is below ``floor`` and every row sum is 1 within ``ROW_TOL``."""
    if np.any(entries < floor):
        raise RowSumError(what, "(negative entry)", float(entries.min()), ROW_TOL)
    # a NaN or infinite entry makes its row sum non-finite, which fails `<=`
    bad = np.argwhere(~(np.abs(sums - 1.0) <= ROW_TOL))
    if bad.size:
        row = tuple(int(i) for i in bad[0])
        raise RowSumError(what, row, float(sums[tuple(bad[0])]), ROW_TOL)


@dataclass(frozen=True, eq=False)
class KernelRows:
    """The non-zero entries of a kernel, row by row (compressed sparse rows).

    A kernel's last axis is a distribution over next states; its leading axes,
    flattened row-major, number the rows: (s, a) for :class:`TabularMDP`,
    (s, a1, a2) for :class:`MarkovGame`.  Row ``r`` holds the next states
    ``targets[offsets[r]:offsets[r + 1]]`` in strictly ascending order and
    their entries at the same positions of ``probs``.  Zero entries are not
    stored; every other entry is, including the small negative ones that
    validation tolerates and the non-finite ones it rejects.  Construction
    raises :class:`DimensionMismatch` unless the offsets ascend from 0 to
    the number of entries and every target is a state in ``[0, shape[-1])``.
    """

    shape: tuple[int, ...]
    offsets: np.ndarray  # (rows + 1,)
    targets: np.ndarray  # (entries,)
    probs: np.ndarray  # (entries,)

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "offsets", _freeze(self.offsets, np.int64))
        object.__setattr__(self, "targets", _freeze(self.targets, np.int64))
        object.__setattr__(self, "probs", _freeze(self.probs))
        offsets, targets, width = self.offsets, self.targets, self.shape[-1]
        rows = math.prod(self.shape[:-1])
        if not (
            len(offsets) == rows + 1
            and offsets[0] == 0
            and offsets[-1] == len(targets) == len(self.probs)
            and (offsets[1:] >= offsets[:-1]).all()
        ):
            raise DimensionMismatch(
                f"rows of a {self.shape} kernel need {rows + 1} offsets, "
                f"ascending from 0 to the number of entries"
            )
        starts = np.zeros(len(targets) + 1, dtype=bool)
        starts[offsets] = True  # entry i begins a row iff starts[i]
        if len(targets) and not (
            0 <= targets.min()
            and targets.max() < width
            and ((targets[1:] > targets[:-1]) | starts[1:-1]).all()
        ):
            raise DimensionMismatch(
                f"rows of a {self.shape} kernel need targets in [0, {width}), "
                f"strictly ascending within each row"
            )

    @classmethod
    def from_dense(cls, table: np.ndarray) -> "KernelRows":
        """Rows of a dense table of at least one axis."""
        keys = np.flatnonzero(table)  # row-major, so ascending row * shape[-1] + target
        return cls.from_keys(table.shape, keys, table.ravel()[keys])

    @classmethod
    def from_keys(cls, shape: tuple[int, ...], keys: np.ndarray, probs: np.ndarray) -> "KernelRows":
        """Rows from ascending, distinct flat indices ``row * shape[-1] + target``."""
        width = shape[-1]
        counts = np.bincount(keys // width, minlength=math.prod(shape[:-1]))
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(shape, offsets, keys % width, probs)

    @property
    def num_rows(self) -> int:
        return len(self.offsets) - 1

    def entry_rows(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(self.num_rows), np.diff(self.offsets))

    def row_sums(self) -> np.ndarray:
        """Sum of each row's entries, added left to right (0.0 for an empty row)."""
        return np.bincount(self.entry_rows(), weights=self.probs, minlength=self.num_rows)

    def block(self, rows: np.ndarray) -> np.ndarray:
        """The listed rows as a dense (len(rows), shape[-1]) array."""
        rows = np.asarray(rows, dtype=np.int64)
        counts = self.offsets[rows + 1] - self.offsets[rows]
        starts = np.repeat(self.offsets[rows] - np.cumsum(counts) + counts, counts)
        at = starts + np.arange(counts.sum())
        out = np.zeros((len(rows), self.shape[-1]))
        out[np.repeat(np.arange(len(rows)), counts), self.targets[at]] = self.probs[at]
        return out

    def dense(self) -> np.ndarray:
        """The whole kernel as a new, read-only dense array of ``shape``."""
        table = self.block(np.arange(self.num_rows)).reshape(self.shape)
        table.setflags(write=False)
        return table


class _DenseView:
    """A kernel field of a frozen dataclass, held once as :class:`KernelRows`.

    Assigning a dense table or rows stores the value as the instance's
    ``rows`` (``__post_init__`` checks a table's shape and converts it).
    Reading the field builds a new dense array from the rows on every access,
    so no dense copy is kept beside them.  ``dataclasses.replace`` passes the
    dense view back in, which converts it again.
    """

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError("a kernel field has no default")
        return obj.rows.dense()

    def __set__(self, obj, value):
        # converted to rows by __post_init__, which runs right after __init__
        obj.__dict__["rows"] = value


def _build_model(model, reward: str, actions: tuple[str, ...], what: str) -> None:
    """The one constructor of both models: ``reward`` names the reward field, ``what`` the kernel.

    The horizon, ``num_states`` and the ``actions`` counts are stored as
    ``int``; a horizon that is not an integer is a :class:`HorizonError`.
    """
    for name in ("horizon", "num_states", *actions):
        value = getattr(model, name)
        try:
            object.__setattr__(model, name, operator.index(value))
        except TypeError:
            error = HorizonError if name == "horizon" else ValidationError
            raise error(f"{name} must be an integer, got {value!r}") from None
    shape = (model.num_states, *(getattr(model, name) for name in actions), model.num_states)
    table = _freeze(getattr(model, reward))
    object.__setattr__(model, reward, table)
    object.__setattr__(model, "initial", _freeze(model.initial))
    object.__setattr__(model, "goals", frozenset(map(int, model.goals)))
    kernel = model.rows
    dense = not isinstance(kernel, KernelRows)
    if dense:
        kernel = np.asarray(kernel, dtype=float)
    if kernel.shape != shape:
        raise DimensionMismatch(f"{what} shape {kernel.shape}, expected {shape}")
    object.__setattr__(model, "rows", KernelRows.from_dense(kernel) if dense else kernel)
    if table.shape != shape[:-1]:
        raise DimensionMismatch(f"reward shape {table.shape}, expected {shape[:-1]}")
    if model.initial.shape != shape[-1:]:
        raise DimensionMismatch(f"initial shape {model.initial.shape}, expected {shape[-1:]}")
    if model.goals and (min(model.goals) < 0 or max(model.goals) >= shape[-1]):
        raise DimensionMismatch(f"goal state out of range: {sorted(model.goals)}")


@dataclass(frozen=True, eq=False)
class TabularMDP:
    """Finite-horizon goal-conditioned MDP.

    kernel has shape (S, A, S), reward (S, A), initial (S,).  ``horizon`` is
    the last 1-indexed state index at which a goal still counts, so a
    success has at most ``horizon - 1`` action steps.  ``goal_absorbing``
    declares that every goal state self-loops under all actions; it is
    enforced by :func:`validate_mdp` when set.

    The kernel is held once, as :class:`KernelRows` over (s, a) in ``rows``;
    every operation of the package reads those.  ``kernel`` accepts a dense
    table or rows and reads as a dense array built anew on each access.  An
    ``mdp`` file keeps the dense kernel (format version 1): ``trajcore
    induce`` emits that payload as its results, whose digests must not
    change.
    """

    num_states: int
    num_actions: int
    kernel: np.ndarray = _DenseView()
    reward: np.ndarray
    horizon: int
    goals: frozenset[int]
    initial: np.ndarray
    goal_absorbing: bool = False

    def __post_init__(self):
        _build_model(self, "reward", ("num_actions",), "kernel")
        validate_mdp(self)

    @cached_property
    def _support(self) -> KernelRows:
        """The kernel support: the positive entries of ``rows``, or ``rows`` when all are.

        The one place that compares kernel entries with 0.  Folds store no
        zero sums, so an induced MDP is usually its own support.
        """
        rows = self.rows
        positive = rows.probs > 0
        if positive.all():
            return rows
        before = np.concatenate(([0], np.cumsum(positive)))  # positive entries before each
        return KernelRows(
            rows.shape, before[rows.offsets], rows.targets[positive], rows.probs[positive]
        )

    def support(self, state: int, action: int) -> tuple[int, ...]:
        """States reachable from (state, action) with probability ``> 0``."""
        if not (0 <= state < self.num_states and 0 <= action < self.num_actions):
            raise ValueError(f"pair ({state}, {action}) out of range for this MDP")
        support, row = self._support, state * self.num_actions + action
        return tuple(support.targets[support.offsets[row] : support.offsets[row + 1]].tolist())

    def initial_support(self) -> tuple[int, ...]:
        return tuple(int(t) for t in np.flatnonzero(self.initial > 0))


@dataclass(frozen=True, eq=False)
class MarkovGame:
    """Two-player decentralized game; rewards are the focal agent's.

    ``joint_kernel`` has shape (S, A1, A2, S) and is held once, as
    :class:`KernelRows` over (s, a1, a2) in ``rows``, like
    :attr:`TabularMDP.kernel`.  A game file (format version 2) stores the
    same non-zero entries, as ``[s, a1, a2, t, p]``; the reader also accepts
    the dense version 1.  Peer policies stay dense, in memory and in files:
    they hold one row of peer actions per state, not one per state pair.
    """

    num_states: int
    num_actions_1: int
    num_actions_2: int
    joint_kernel: np.ndarray = _DenseView()  # (S, A1, A2, S)
    reward_1: np.ndarray  # (S, A1, A2)
    horizon: int
    goals: frozenset[int]
    initial: np.ndarray

    def __post_init__(self):
        _build_model(self, "reward_1", ("num_actions_1", "num_actions_2"), "joint kernel")
        validate_game(self)

    @cached_property
    def _fold_plan(self) -> "_FoldPlan":
        """What every fold of a peer into this game shares, built on the first fold."""
        return _plan_fold(self)


@dataclass(frozen=True, eq=False)
class PeerPolicy:
    """Tabular peer policy: one distribution over peer actions per state."""

    probs: np.ndarray  # (S, A2)
    label: str = "peer"

    def __post_init__(self):
        object.__setattr__(self, "probs", _freeze(self.probs))
        if self.probs.ndim != 2:
            raise DimensionMismatch(f"policy table must be 2-d, got {self.probs.ndim}-d")


def _pair(item) -> tuple[int, int] | None:
    """A 2-item tuple or list of integers as a pair of Python ints; None for any other item."""
    if isinstance(item, (tuple, list)) and len(item) == 2:
        try:
            return operator.index(item[0]), operator.index(item[1])
        except TypeError:
            pass
    return None


@dataclass(frozen=True, slots=True)
class Trajectory:
    """State-action pair sequence, optionally closed by a goal pseudo-pair.

    ``steps`` holds the real (state, action) pairs; ``terminal_state`` is the
    goal state reached, or None for a trajectory that never reached a goal.
    """

    steps: tuple[tuple[int, int], ...]
    terminal_state: int | None = None

    @property
    def terminated(self) -> bool:
        return self.terminal_state is not None

    @property
    def num_action_steps(self) -> int:
        return len(self.steps)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Full symbol sequence, including the terminal pseudo-pair if present."""
        if self.terminal_state is None:
            return self.steps
        return self.steps + ((self.terminal_state, TERMINAL),)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Trajectory":
        pairs = tuple(map(_pair, pairs))
        if None in pairs:
            raise TypeError("a trajectory is made of (state, action) pairs of integers")
        if pairs and pairs[-1][1] == TERMINAL:
            return cls(steps=pairs[:-1], terminal_state=pairs[-1][0])
        return cls(steps=pairs)


_ENCODED_ITEMS = 0x10FFFF  # item codes from chr(0) up, and one code point more for the separator


def _encode(trajectories) -> tuple[tuple, str] | None:
    """The distinct items of ``trajectories`` and one string of their codes, or None.

    A trajectory's items are its steps, then its terminal pair if it has
    one.  The items are listed in the order first met, item ``i`` coded as
    ``chr(i)``, and the string holds each trajectory's codes in the given
    order, with ``chr(len(items))`` between trajectories.  Each step is
    hashed once to find its code, and each terminal pair is made once per
    goal state.  None when a trajectory is not a :class:`Trajectory`, an
    item is unhashable, or there are more than ``_ENCODED_ITEMS`` items.
    """
    codes: dict = {}
    ends: dict = {}  # goal state -> the code of its terminal pair

    def code(item) -> str:
        found = codes.get(item)
        if found is None:
            if len(codes) == _ENCODED_ITEMS:
                raise OverflowError
            found = codes[item] = chr(len(codes))
        return found

    known, words = codes.__getitem__, []
    try:
        for traj in trajectories:
            if not isinstance(traj, Trajectory):
                return None
            try:
                word = "".join(map(known, traj.steps))
            except KeyError:  # a step not met before
                word = "".join(map(code, traj.steps))
            goal = traj.terminal_state
            if goal is not None:
                end = ends.get(goal)
                if end is None:
                    end = ends[goal] = code((goal, TERMINAL))
                word += end
            words.append(word)
    except (TypeError, OverflowError):
        return None
    return tuple(codes), chr(len(codes)).join(words)


def _ranked(items: tuple) -> list[int] | None:
    """The indices of ``items`` in ascending item order; None unless ``<`` ranks them strictly."""
    try:
        ranked = sorted(range(len(items)), key=items.__getitem__)
        ordered = [items[i] for i in ranked]
        if all(map(operator.lt, ordered, ordered[1:])):
            return ranked
    except TypeError:
        pass
    return None


@dataclass(frozen=True)
class SuccessSet:
    """Deduplicated set of successful trajectories in canonical order.

    A set keeps their encoding (:func:`_encode`), which
    :meth:`~trajcore.graph.Symbols.words` reads to make their words.
    """

    trajectories: tuple[Trajectory, ...]

    @classmethod
    def from_iterable(cls, trajectories: Iterable[Trajectory]) -> "SuccessSet":
        """The distinct trajectories, in the order of their ``pairs()`` as tuples.

        Of two trajectories with equal ``pairs()``, one that ends in a step
        whose action is ``TERMINAL`` and one that ends in that terminal
        pair, the terminated one comes first.  The trajectories are
        deduplicated in arrival order (a dict keeps the first of equal
        ones, as a set would, and the sorts below start from the caller's
        order, often sorted already, not from hash order), the terminated
        ones put first (a stable partition, whose tie order each stable sort
        below keeps), and encoded, then sorted by their code strings with each code replaced
        by the rank of its item, which orders them as their ``pairs()``
        would.  The encoding is then renumbered in the order the items are
        first met along the sorted trajectories, and kept.  When the items
        cannot be encoded, or ``<`` does not rank them strictly, the set is
        sorted by ``pairs()`` and keeps no encoding.
        """
        unique = sorted(dict.fromkeys(trajectories), key=operator.attrgetter("terminated"), reverse=True)
        encoding = _encode(unique)
        ranked = None if encoding is None else _ranked(encoding[0])
        if ranked is None:
            made = cls(tuple(sorted(unique, key=Trajectory.pairs)))
            object.__setattr__(made, "_encoding", None)
            return made
        items, text = encoding
        gap = chr(len(items))  # the separator, which no renumbering moves
        keys = text.translate(dict(zip(ranked, range(len(items))))).split(gap)
        order = sorted(range(len(unique)), key=keys.__getitem__)
        text = gap.join(map(keys.__getitem__, order))
        met = [ord(c) for c in dict.fromkeys(text) if c != gap]  # ranks in the order first met
        made = cls(tuple(map(unique.__getitem__, order)))
        object.__setattr__(made, "_encoding", (
            tuple(items[ranked[r]] for r in met),
            text.translate(dict(zip(met, range(len(met))))),
        ))
        return made

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self.trajectories)

    def __len__(self) -> int:
        return len(self.trajectories)

    def __contains__(self, traj: Trajectory) -> bool:
        return traj in self._set

    def as_set(self) -> frozenset[Trajectory]:
        return self._set

    @cached_property
    def _set(self) -> frozenset[Trajectory]:
        return frozenset(self.trajectories)

    @cached_property
    def _encoding(self) -> tuple[tuple, str] | None:
        """The :func:`_encode` of ``trajectories``; :meth:`from_iterable` sets it instead."""
        return _encode(self.trajectories)


@dataclass(frozen=True)
class RolloutSet:
    """Multiset of raw sampled trajectories (successful or not)."""

    trajectories: tuple[Trajectory, ...]
    seed: int
    policy_label: str = "policy"

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self.trajectories)

    def __len__(self) -> int:
        return len(self.trajectories)

    def successes(self) -> tuple[Trajectory, ...]:
        return tuple(t for t in self.trajectories if t.terminated)


def _validate_model(model, reward: str, what: str) -> None:
    """The checks of :func:`validate_mdp` and :func:`validate_game`; ``reward`` names a field."""
    if not 1 <= model.horizon <= MAX_HORIZON:
        raise HorizonError(f"horizon must be from 1 to {MAX_HORIZON}, got {model.horizon}")
    if not model.goals:
        raise EmptyGoalError("goal set is empty")
    rows = model.rows  # a row with no entries sums to 0
    _check_distribution(rows.probs, rows.row_sums().reshape(rows.shape[:-1]), what)
    _check_distribution(model.initial, model.initial.sum(keepdims=True), "initial distribution")
    table = getattr(model, reward)
    if not np.isfinite(table).all():
        at = tuple(np.argwhere(~np.isfinite(table))[0].tolist())
        raise ValidationError(f"{reward} entry {at} is not finite: {table[at]}")


def validate_mdp(mdp: TabularMDP) -> None:
    """Raise unless every TabularMDP invariant holds; every TabularMDP runs it as it is built.

    The horizon is from 1 to ``MAX_HORIZON``, some state is a goal, every
    kernel row and the initial distribution sum to 1 within ``ROW_TOL`` with
    no entry below ``-ROW_TOL``, and every reward is finite.  With
    ``goal_absorbing`` set, the first (goal, action) row, in ascending order,
    whose :func:`_goal_loops` entry is more than ``ROW_TOL`` from 1 is a
    :class:`RowSumError` that reports that entry (0.0 where none is stored).
    """
    _validate_model(mdp, "reward", "kernel")
    if mdp.goal_absorbing:
        loops = _goal_loops(mdp.rows, mdp.goals)
        bad = np.argwhere(np.abs(loops - 1.0) > ROW_TOL)
        if bad.size:
            i, a = bad[0].tolist()
            loop = float(loops[i, a])
            raise RowSumError("absorbing goal kernel", (sorted(mdp.goals)[i], a), loop, ROW_TOL)


def validate_game(game: MarkovGame) -> None:
    """Raise unless every MarkovGame invariant of :func:`validate_mdp` but the goal loops holds."""
    _validate_model(game, "reward_1", "joint kernel")


def validate_peer(peer: PeerPolicy) -> None:
    """Raise unless every row of the peer table is a distribution with no negative entry."""
    _check_distribution(peer.probs, peer.probs.sum(axis=-1), f"peer policy {peer.label!r}", 0.0)


def _goal_loops(rows: KernelRows, goals: frozenset[int]) -> np.ndarray:
    """Each goal row's entry at its own goal state, 0.0 where none is stored.

    Shaped ``(len(goals),) + rows.shape[1:-1]``, goals ascending.  A row
    stores each target at most once, so a row's sum of loop entries is exact.
    """
    entry_rows = rows.entry_rows()
    loop = rows.targets == entry_rows // max(math.prod(rows.shape[1:-1]), 1)  # no rows if 0
    at_own = np.bincount(entry_rows[loop], weights=rows.probs[loop], minlength=rows.num_rows)
    return at_own.reshape(rows.shape[:-1])[sorted(goals)]


@dataclass(frozen=True, eq=False)
class _FoldPlan:
    """The parts of folding a peer into a game that depend only on the game.

    For every joint entry, in the order of the game's rows, ``peer_at`` is
    its flat (s, a2) index into a peer table and ``slot`` the position of
    its induced (s, a1, t) key in ``keys``, the ascending distinct keys
    ``(s * A1 + a1) * S + t``.  ``goal_absorbing`` is
    True iff every :func:`_goal_loops` entry of the joint kernel is 1 within
    ``ROW_TOL``, the rule :func:`validate_mdp` enforces when each induced MDP
    is built.
    """

    peer_at: np.ndarray
    keys: np.ndarray
    slot: np.ndarray
    goal_absorbing: bool


def _plan_fold(game: MarkovGame) -> _FoldPlan:
    """The fold plan of ``game``; :attr:`MarkovGame._fold_plan` keeps it."""
    joint = game.rows
    _, num_actions_1, num_actions_2, width = joint.shape
    rows = joint.entry_rows()
    state = rows // (num_actions_1 * num_actions_2)
    keys, slot = np.unique((rows // num_actions_2) * width + joint.targets, return_inverse=True)
    return _FoldPlan(
        peer_at=_freeze(state * num_actions_2 + rows % num_actions_2, np.int64),
        keys=_freeze(keys, np.int64),
        slot=_freeze(slot, np.int64),
        goal_absorbing=bool(np.all(np.abs(_goal_loops(joint, game.goals) - 1.0) <= ROW_TOL)),
    )


def induce_mdp(game: MarkovGame, peer: PeerPolicy) -> TabularMDP:
    """Fold a peer policy into a game, producing the focal agent's MDP.

    kernel(s, a1, s') = sum_a2 joint_kernel(s, a1, a2, s') * probs(s, a2)
    reward(s, a1)     = sum_a2 reward_1(s, a1, a2)        * probs(s, a2)

    The kernel is summed over the game's fold plan.  Each sum starts at 0.0
    and adds its products in ascending ``a2``, the order in which the dense
    ``einsum("sabt,sb->sat")`` accumulates: joint rows run over
    (s, a1, a2), so each key meets its products in ascending ``a2`` and
    ``bincount`` adds them in that order.  The folded entries therefore
    equal the dense fold's bit for bit.  Sums that come to 0 are not stored.

    A table of the wrong shape is a :class:`DimensionMismatch` before its
    rows are checked by :func:`validate_peer`, since its rows need not be the
    game's states.  The returned MDP validates itself as it is built: a
    valid game and peer can fold into a row more than ``ROW_TOL`` from 1,
    since each may be off by up to ``ROW_TOL``, and that row is a
    :class:`RowSumError`.
    """
    if peer.probs.shape != (game.num_states, game.num_actions_2):
        raise DimensionMismatch(
            f"peer table shape {peer.probs.shape}, expected "
            f"{(game.num_states, game.num_actions_2)}"
        )
    validate_peer(peer)
    plan = game._fold_plan
    products = game.rows.probs * peer.probs.ravel()[plan.peer_at]
    sums = np.bincount(plan.slot, weights=products, minlength=len(plan.keys))
    kept = sums != 0
    return TabularMDP(
        num_states=game.num_states,
        num_actions=game.num_actions_1,
        kernel=KernelRows.from_keys(
            (game.num_states, game.num_actions_1, game.num_states), plan.keys[kept], sums[kept]
        ),
        reward=np.einsum("sab,sb->sa", game.reward_1, peer.probs),
        horizon=game.horizon,
        goals=game.goals,
        initial=game.initial,
        goal_absorbing=plan.goal_absorbing,
    )


def game_from_mdp(mdp: TabularMDP) -> MarkovGame:
    """Embed an MDP as a degenerate game with a single peer action."""
    return MarkovGame(
        num_states=mdp.num_states,
        num_actions_1=mdp.num_actions,
        num_actions_2=1,
        joint_kernel=KernelRows(
            (mdp.num_states, mdp.num_actions, 1, mdp.num_states),
            mdp.rows.offsets,
            mdp.rows.targets,
            mdp.rows.probs,
        ),
        reward_1=mdp.reward[:, :, None],
        horizon=mdp.horizon,
        goals=mdp.goals,
        initial=mdp.initial,
    )


def enumerate_successes(
    mdp: TabularMDP, node_budget: int = DEFAULT_NODE_BUDGET
) -> SuccessSet:
    """Enumerate every successful trajectory feasible under the kernel support.

    The search is support-based: probability magnitudes are ignored beyond
    positive/non-positive, so the result depends only on the kernel support,
    initial support, goals, and horizon.  The successes are the paths of the
    support graph (:func:`trajcore.graph.build_graph`), so every node of the
    search is a prefix of some success and ``node_budget`` counts those
    prefixes, all before any success is listed.  When they number more than
    ``max(node_budget, 0)``, it raises :class:`ExplosionGuard` with
    ``visited`` one past that and ``needed`` the node count of the full
    search, and lists nothing.  ``needed`` is None where the graph has more
    (state, t) nodes than that and ``_COUNTED_NODES``: it is not stored.
    """
    from .graph import Symbols, build_graph
    from .mining import IDENTITY

    limit = max(node_budget, 0)
    try:  # a graph of more (state, t) nodes than this has more prefixes too
        graph = build_graph(mdp, Symbols(IDENTITY, False), max(limit, _COUNTED_NODES))
    except ExplosionGuard:
        raise ExplosionGuard(node_budget, limit + 1, None) from None
    needed = graph.count_paths()[1]
    if needed > limit:
        raise ExplosionGuard(node_budget, limit + 1, needed)
    return SuccessSet(graph.successes())


def _goal_closure(mdp: TabularMDP) -> tuple[dict[int, int], dict[int, tuple[list[int], list[int]]]]:
    """The states the initial support reaches, their goal distances and their support rows.

    A forward walk from the initial support, which steps on from non-goal
    states only, reads the kernel support rows of the states it reaches and
    of no other.  ``rows`` maps each walked non-goal state to
    ``(ends, reached)``: its next states action by action, each action's
    ascending, those of action ``a`` at
    ``reached[ends[a] - ends[0] : ends[a + 1] - ends[0]]``.  The walk holds
    every step of its non-goal states, so one backward breadth-first pass
    from its goals over those steps gives each walked state the distance a
    pass over the whole kernel support would: ``dist`` maps it to the
    fewest support steps to a goal through non-goal states (0 for a goal),
    or to ``horizon``, which no state at index ``t >= 1`` can afford, when
    none is within ``horizon - 1`` steps.
    """
    support, width, goals, horizon = mdp._support, mdp.num_actions, mdp.goals, mdp.horizon
    rows: dict[int, tuple[list[int], list[int]]] = {}
    sources = defaultdict(list)  # walked state -> the walked non-goal states that step into it
    todo = list(mdp.initial_support())
    walked = set(todo)
    while todo:
        s = todo.pop()
        if s in goals:
            continue
        ends = support.offsets[s * width : (s + 1) * width + 1].tolist()
        reached = support.targets[ends[0] : ends[-1]].tolist()
        rows[s] = ends, reached
        fresh = set(reached)
        for m in fresh:
            sources[m].append(s)
        fresh -= walked
        walked |= fresh
        todo += fresh
    dist = dict.fromkeys(walked, horizon)
    frontier = walked & goals
    dist.update(dict.fromkeys(frontier, 0))
    for d in range(1, horizon):
        following = []
        for m in frontier:
            for s in sources[m]:
                if dist[s] == horizon:
                    dist[s] = d
                    following.append(s)
        if not following:
            break
        frontier = following
    return dist, rows


def goal_reachable(mdp: TabularMDP) -> bool:
    """True iff a goal lies within ``horizon - 1`` support steps of the initial support.

    Decides ``len(enumerate_successes(mdp)) > 0`` without enumerating: some
    initial state is less than ``horizon`` steps from a goal in
    :func:`_goal_closure`, which reads the kernel support rows of the states
    the initial support reaches and of no other state.
    """
    dist, _ = _goal_closure(mdp)
    return any(dist[s] < mdp.horizon for s in mdp.initial_support())


def is_successful(traj: Trajectory, mdp: TabularMDP) -> bool:
    """Decide membership of ``traj`` in the support-based success set.

    Checks: terminal pair present with a goal state, goal reached within the
    horizon (at most ``horizon - 1`` real steps), start state in the initial
    support, no intermediate goal visit, and every transition in the kernel
    support.
    """
    supports = [mdp.support(s, a) for s, a in traj.steps]  # raises on a pair out of range
    if not traj.terminated or traj.terminal_state not in mdp.goals:
        return False
    if traj.num_action_steps > mdp.horizon - 1:
        return False
    states = [s for s, _ in traj.steps] + [traj.terminal_state]
    if states[0] not in mdp.initial_support():
        return False
    if any(s in mdp.goals for s, _ in traj.steps):
        return False
    return all(nxt in support for support, nxt in zip(supports, states[1:]))


def _draw(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """Inverse-CDF categorical draw from one uniform variate.

    A variate above a rounded-down ``cdf[-1]`` goes to the last outcome with
    positive probability.
    """
    index = int(np.searchsorted(cdf, rng.random(), side="right"))
    if index == len(cdf):
        index = int(np.flatnonzero(np.diff(cdf, prepend=0.0) > 0)[-1])
    return index


def rollout(
    mdp: TabularMDP,
    policy: np.ndarray,
    n: int,
    seed: int,
    policy_label: str = "policy",
) -> RolloutSet:
    """Sample ``n`` trajectories under a tabular policy.

    Episodes terminate at the first goal visit (within the horizon) or after
    ``horizon`` action steps.  Reproducible: PCG64(seed) plus inverse-CDF
    sampling.  Each (s, a) row drawn from is made dense once per call, so
    no dense kernel is built.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    policy = np.asarray(policy, dtype=float)
    if policy.shape != (mdp.num_states, mdp.num_actions):
        raise DimensionMismatch(
            f"policy shape {policy.shape}, expected "
            f"{(mdp.num_states, mdp.num_actions)}"
        )
    _check_distribution(policy, policy.sum(axis=1), "rollout policy")

    rng = np.random.Generator(np.random.PCG64(seed))
    init_cdf = np.cumsum(mdp.initial)
    policy_cdf = np.cumsum(policy, axis=1)
    kernel_cdf: dict[int, np.ndarray] = {}  # the cdf of each (s, a) row drawn from

    out: list[Trajectory] = []
    for _ in range(n):
        state = _draw(rng, init_cdf)
        steps: list[tuple[int, int]] = []
        terminal = None
        for _t in range(mdp.horizon):
            if state in mdp.goals:
                terminal = state
                break
            action = _draw(rng, policy_cdf[state])
            row = state * mdp.num_actions + action
            cdf = kernel_cdf.get(row)
            if cdf is None:
                cdf = kernel_cdf[row] = np.cumsum(mdp.rows.block([row])[0])
            nxt = _draw(rng, cdf)
            steps.append((state, action))
            state = nxt
        out.append(Trajectory(steps=tuple(steps), terminal_state=terminal))
    return RolloutSet(trajectories=tuple(out), seed=seed, policy_label=policy_label)
