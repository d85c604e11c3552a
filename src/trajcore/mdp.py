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
  tolerates (down to ``-ROW_TOL``) are outside it.
* Randomness comes from NumPy's PCG64 generator seeded explicitly, with
  categorical draws done by inverse-CDF on a single uniform, so rollouts are
  bit-reproducible for a fixed seed across platforms.

All container types are immutable after construction (arrays are marked
read-only) and safe to share between threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyGoalError,
    ExplosionGuard,
    HorizonError,
    RowSumError,
)

TERMINAL = -1
ROW_TOL = 1e-9
DEFAULT_NODE_BUDGET = 10_000_000


def _freeze(values, dtype=float) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(values, dtype=dtype))
    arr.setflags(write=False)
    return arr


def _check_rows(table: np.ndarray, what: str) -> None:
    """Check that the trailing axis of ``table`` is a distribution everywhere."""
    if np.any(table < -ROW_TOL):
        raise RowSumError(what, "(negative entry)", float(table.min()), ROW_TOL)
    sums = table.sum(axis=-1)
    # a NaN or infinite entry makes its row sum non-finite, which fails `<=`
    bad = np.argwhere(~(np.abs(sums - 1.0) <= ROW_TOL))
    if bad.size:
        row = tuple(int(i) for i in bad[0])
        raise RowSumError(what, row, float(sums[tuple(bad[0])]), ROW_TOL)


@dataclass(frozen=True, eq=False)
class TabularMDP:
    """Finite-horizon goal-conditioned MDP.

    kernel has shape (S, A, S), reward (S, A), initial (S,).  ``horizon`` is
    the last 1-indexed state index at which a goal still counts, so a
    success has at most ``horizon - 1`` action steps.  ``goal_absorbing``
    declares that every goal state self-loops under all actions; it is
    enforced by :func:`validate_mdp` when set.
    """

    num_states: int
    num_actions: int
    kernel: np.ndarray
    reward: np.ndarray
    horizon: int
    goals: frozenset[int]
    initial: np.ndarray
    goal_absorbing: bool = False

    def __post_init__(self):
        object.__setattr__(self, "kernel", _freeze(self.kernel))
        object.__setattr__(self, "reward", _freeze(self.reward))
        object.__setattr__(self, "initial", _freeze(self.initial))
        object.__setattr__(self, "goals", frozenset(int(g) for g in self.goals))
        s, a = self.num_states, self.num_actions
        if self.kernel.shape != (s, a, s):
            raise DimensionMismatch(
                f"kernel shape {self.kernel.shape}, expected {(s, a, s)}"
            )
        if self.reward.shape != (s, a):
            raise DimensionMismatch(
                f"reward shape {self.reward.shape}, expected {(s, a)}"
            )
        if self.initial.shape != (s,):
            raise DimensionMismatch(
                f"initial shape {self.initial.shape}, expected {(s,)}"
            )
        if any(g < 0 or g >= s for g in self.goals):
            raise DimensionMismatch(f"goal state out of range: {sorted(self.goals)}")

    def support(self, state: int, action: int) -> tuple[int, ...]:
        """States reachable from (state, action) with probability ``> 0``."""
        return tuple(int(t) for t in np.flatnonzero(self.kernel[state, action] > 0))

    def initial_support(self) -> tuple[int, ...]:
        return tuple(int(t) for t in np.flatnonzero(self.initial > 0))


@dataclass(frozen=True, eq=False)
class MarkovGame:
    """Two-player decentralized game; rewards are the focal agent's."""

    num_states: int
    num_actions_1: int
    num_actions_2: int
    joint_kernel: np.ndarray  # (S, A1, A2, S)
    reward_1: np.ndarray  # (S, A1, A2)
    horizon: int
    goals: frozenset[int]
    initial: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "joint_kernel", _freeze(self.joint_kernel))
        object.__setattr__(self, "reward_1", _freeze(self.reward_1))
        object.__setattr__(self, "initial", _freeze(self.initial))
        object.__setattr__(self, "goals", frozenset(int(g) for g in self.goals))
        s, a1, a2 = self.num_states, self.num_actions_1, self.num_actions_2
        if self.joint_kernel.shape != (s, a1, a2, s):
            raise DimensionMismatch(
                f"joint kernel shape {self.joint_kernel.shape}, expected {(s, a1, a2, s)}"
            )
        if self.reward_1.shape != (s, a1, a2):
            raise DimensionMismatch(
                f"reward shape {self.reward_1.shape}, expected {(s, a1, a2)}"
            )
        if self.initial.shape != (s,):
            raise DimensionMismatch(
                f"initial shape {self.initial.shape}, expected {(s,)}"
            )


@dataclass(frozen=True, eq=False)
class PeerPolicy:
    """Tabular peer policy: one distribution over peer actions per state."""

    probs: np.ndarray  # (S, A2)
    label: str = "peer"

    def __post_init__(self):
        object.__setattr__(self, "probs", _freeze(self.probs))
        if self.probs.ndim != 2:
            raise DimensionMismatch(f"policy table must be 2-d, got {self.probs.ndim}-d")


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
        pairs = tuple((int(s), int(a)) for s, a in pairs)
        if pairs and pairs[-1][1] == TERMINAL:
            return cls(steps=pairs[:-1], terminal_state=pairs[-1][0])
        return cls(steps=pairs)


@dataclass(frozen=True)
class SuccessSet:
    """Deduplicated set of successful trajectories in canonical order."""

    trajectories: tuple[Trajectory, ...]

    @classmethod
    def from_iterable(cls, trajectories: Iterable[Trajectory]) -> "SuccessSet":
        unique = sorted(set(trajectories), key=lambda t: t.pairs())
        return cls(trajectories=tuple(unique))

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self.trajectories)

    def __len__(self) -> int:
        return len(self.trajectories)

    def __contains__(self, traj: Trajectory) -> bool:
        return traj in set(self.trajectories)

    def as_set(self) -> frozenset[Trajectory]:
        return frozenset(self.trajectories)


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


def validate_mdp(mdp: TabularMDP) -> None:
    """Raise unless every TabularMDP invariant holds."""
    if mdp.horizon < 1:
        raise HorizonError(f"horizon must be >= 1, got {mdp.horizon}")
    if not mdp.goals:
        raise EmptyGoalError("goal set is empty")
    _check_rows(mdp.kernel, "kernel")
    _check_rows(mdp.initial[None, :], "initial distribution")
    if mdp.goal_absorbing:
        for g in sorted(mdp.goals):
            for a in range(mdp.num_actions):
                if abs(mdp.kernel[g, a, g] - 1.0) > ROW_TOL:
                    raise RowSumError(
                        "absorbing goal kernel", (g, a), float(mdp.kernel[g, a, g]), ROW_TOL
                    )


def validate_game(game: MarkovGame) -> None:
    """Raise unless every MarkovGame invariant holds."""
    if game.horizon < 1:
        raise HorizonError(f"horizon must be >= 1, got {game.horizon}")
    if not game.goals:
        raise EmptyGoalError("goal set is empty")
    _check_rows(game.joint_kernel, "joint kernel")
    _check_rows(game.initial[None, :], "initial distribution")


def validate_peer(peer: PeerPolicy) -> None:
    if np.any(peer.probs < 0):
        raise RowSumError(f"peer policy {peer.label!r}", "(negative entry)",
                          float(peer.probs.min()), ROW_TOL)
    _check_rows(peer.probs, f"peer policy {peer.label!r}")


def induce_mdp(game: MarkovGame, peer: PeerPolicy) -> TabularMDP:
    """Fold a peer policy into a game, producing the focal agent's MDP.

    kernel(s, a1, s') = sum_a2 joint_kernel(s, a1, a2, s') * probs(s, a2)
    reward(s, a1)     = sum_a2 reward_1(s, a1, a2)        * probs(s, a2)
    """
    validate_game(game)
    induced = _fold_peer(game, peer)
    validate_mdp(induced)
    return induced


def _fold_peer(game: MarkovGame, peer: PeerPolicy) -> TabularMDP:
    """:func:`induce_mdp` for a game the caller has already validated.

    The result is not validated: a validated game and peer fold into a valid
    MDP up to rounding, and :func:`enumerate_successes` validates its input.
    """
    validate_peer(peer)
    if peer.probs.shape != (game.num_states, game.num_actions_2):
        raise DimensionMismatch(
            f"peer table shape {peer.probs.shape}, expected "
            f"{(game.num_states, game.num_actions_2)}"
        )
    kernel = np.einsum("sabt,sb->sat", game.joint_kernel, peer.probs)
    reward = np.einsum("sab,sb->sa", game.reward_1, peer.probs)
    goals = sorted(game.goals)
    absorbing = bool(np.all(np.abs(game.joint_kernel[goals, :, :, goals] - 1.0) <= ROW_TOL))
    return TabularMDP(
        num_states=game.num_states,
        num_actions=game.num_actions_1,
        kernel=kernel,
        reward=reward,
        horizon=game.horizon,
        goals=game.goals,
        initial=game.initial,
        goal_absorbing=absorbing,
    )


def game_from_mdp(mdp: TabularMDP) -> MarkovGame:
    """Embed an MDP as a degenerate game with a single peer action."""
    return MarkovGame(
        num_states=mdp.num_states,
        num_actions_1=mdp.num_actions,
        num_actions_2=1,
        joint_kernel=mdp.kernel[:, :, None, :],
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
    initial support, goals, and horizon.  The DFS expands only nodes that can
    still reach a goal within the horizon (see :func:`_goal_distances`), so
    every node it visits is a prefix of some success and ``node_budget``
    counts prefixes of successes.  Raises :class:`ExplosionGuard` if the DFS
    visits more than ``node_budget`` nodes; its ``needed`` field is the node
    count of the full search.
    """
    validate_mdp(mdp)
    supports = _support_lists(mdp)
    goals = mdp.goals
    horizon = mdp.horizon
    dist = _goal_distances(mdp).tolist()
    seeds = [s for s in mdp.initial_support() if 1 + dist[s] <= horizon]
    found: list[Trajectory] = []
    visited = 0

    # Iterative DFS; stack entries are (state, state_index, prefix of pairs).
    # A node (state, t) is pushed only if t + dist[state] <= horizon, so a
    # non-goal node always has t < horizon.
    stack: list[tuple[int, int, tuple[tuple[int, int], ...]]] = [
        (s, 1, ()) for s in reversed(seeds)
    ]
    while stack:
        state, t, prefix = stack.pop()
        visited += 1
        if visited > node_budget:
            needed = _count_nodes(supports, goals, horizon, dist, seeds)
            raise ExplosionGuard(node_budget, visited, needed)
        if state in goals:
            found.append(Trajectory(steps=prefix, terminal_state=state))
            continue
        slack = horizon - t - 1
        for a in range(mdp.num_actions - 1, -1, -1):
            pair = (state, a)
            for nxt in reversed(supports[state][a]):
                if dist[nxt] <= slack:
                    stack.append((nxt, t + 1, prefix + (pair,)))
    return SuccessSet.from_iterable(found)


def _support_lists(mdp: TabularMDP) -> list[list[tuple[int, ...]]]:
    """``supports[s][a] == mdp.support(s, a)`` for every pair, in one kernel pass."""
    positive = mdp.kernel > 0
    # flat indices are row-major, so the targets come grouped by (s, a)
    targets = (np.flatnonzero(positive) % mdp.num_states).tolist()
    ends = np.cumsum(np.count_nonzero(positive, axis=2)).tolist()
    rows = [tuple(targets[start:end]) for start, end in zip([0] + ends, ends)]
    width = mdp.num_actions
    return [rows[s * width : (s + 1) * width] for s in range(mdp.num_states)]


def _goal_distances(mdp: TabularMDP) -> np.ndarray:
    """Fewest support steps from each state to a goal, through non-goal states.

    One backward breadth-first pass over the kernel support.  Goals are at
    distance 0; a state with no goal within ``horizon - 1`` steps gets
    ``horizon``, which no state reached at index ``t >= 1`` can afford.
    """
    dist = np.full(mdp.num_states, mdp.horizon, dtype=np.int64)
    adjacent = (mdp.kernel > 0).any(axis=1)
    frontier = np.zeros(mdp.num_states, dtype=bool)
    frontier[list(mdp.goals)] = True
    seen = frontier.copy()
    dist[frontier] = 0
    for steps in range(1, mdp.horizon):
        frontier = adjacent[:, frontier].any(axis=1) & ~seen
        if not frontier.any():
            break
        seen |= frontier
        dist[frontier] = steps
    return dist


def _count_nodes(supports, goals, horizon: int, dist: list, seeds: list) -> int:
    """Exact node count of the pruned DFS, by a forward count over (state, t).

    Python ints, so the count cannot overflow however large it is.
    """
    layer = {s: 1 for s in seeds}
    total = len(seeds)
    for t in range(1, horizon):
        slack = horizon - t - 1
        following: dict[int, int] = {}
        for state, paths in layer.items():
            if state in goals:
                continue
            for successors in supports[state]:
                for nxt in successors:
                    if dist[nxt] <= slack:
                        following[nxt] = following.get(nxt, 0) + paths
        total += sum(following.values())
        layer = following
    return total


def goal_reachable(mdp: TabularMDP) -> bool:
    """True iff a goal lies within ``horizon - 1`` support steps of the initial support.

    Decides ``len(enumerate_successes(mdp)) > 0`` without enumerating.
    """
    dist = _goal_distances(mdp)
    return any(1 + dist[s] <= mdp.horizon for s in mdp.initial_support())


def is_successful(traj: Trajectory, mdp: TabularMDP) -> bool:
    """Decide membership of ``traj`` in the support-based success set.

    Checks: terminal pair present with a goal state, goal reached within the
    horizon (at most ``horizon - 1`` real steps), start state in the initial
    support, no intermediate goal visit, and every transition in the kernel
    support.
    """
    for s, a in traj.steps:
        if not (0 <= s < mdp.num_states and 0 <= a < mdp.num_actions):
            raise ValueError(f"pair ({s}, {a}) out of range for this MDP")
    if not traj.terminated or traj.terminal_state not in mdp.goals:
        return False
    if not (0 <= traj.terminal_state < mdp.num_states):
        raise ValueError(f"terminal state {traj.terminal_state} out of range")
    if traj.num_action_steps > mdp.horizon - 1:
        return False
    states = [s for s, _ in traj.steps] + [traj.terminal_state]
    if states[0] not in mdp.initial_support():
        return False
    if any(s in mdp.goals for s, _ in traj.steps):
        return False
    for (s, a), nxt in zip(traj.steps, states[1:]):
        if mdp.kernel[s, a, nxt] <= 0.0:
            return False
    return True


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
    sampling.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    validate_mdp(mdp)
    policy = np.asarray(policy, dtype=float)
    if policy.shape != (mdp.num_states, mdp.num_actions):
        raise DimensionMismatch(
            f"policy shape {policy.shape}, expected "
            f"{(mdp.num_states, mdp.num_actions)}"
        )
    _check_rows(policy, "rollout policy")

    rng = np.random.Generator(np.random.PCG64(seed))
    init_cdf = np.cumsum(mdp.initial)
    policy_cdf = np.cumsum(policy, axis=1)
    kernel_cdf = np.cumsum(mdp.kernel, axis=2)

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
            nxt = _draw(rng, kernel_cdf[state, action])
            steps.append((state, action))
            state = nxt
        out.append(Trajectory(steps=tuple(steps), terminal_state=terminal))
    return RolloutSet(trajectories=tuple(out), seed=seed, policy_label=policy_label)
