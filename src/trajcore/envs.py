"""Deterministic key-door corridors and their cooperative two-agent variant.

Single-agent corridor: the agent walks cells ``0..length-1``; a key lies on
the floor, a door cell separates the start side from the goal.  The agent may
stand on the closed door cell but cannot cross the edge beyond it until the
door is opened by interacting on the door cell while carrying the key.

Cooperative corridor: the focal agent (player 1) cannot operate the door at
all; the lock faces the peer's side.  The focal agent can pick up the key and
drop it; the peer (player 2) can pick keys off the floor, carry them, and
open the door from the door cell.  While the door is closed the focal agent
cannot enter the door cell, so it cannot hand the key over directly; it must
leave it on the floor.  Whether the peer fetches the untouched key itself or
only ever collects keys dropped by the focal agent is purely a property of
the peer's policy, which is exactly what the episode schedules vary.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from math import prod

import numpy as np

from .errors import ConfigError
from .mdp import (
    TERMINAL,
    KernelRows,
    MarkovGame,
    PeerPolicy,
    TabularMDP,
    _fold_peer,
    goal_reachable,
    validate_game,
    validate_mdp,
)
from .mining import Abstraction

LEFT, RIGHT, INTERACT = 0, 1, 2
SWAP = 2  # focal pick-or-drop action in the cooperative game
USE = 2  # peer pick-or-open action

HELPER = "helper"
INDEPENDENT = "independent"

@dataclass(frozen=True)
class KeyDoorConfig:
    corridor_length: int
    key_pos: int
    door_pos: int
    goal_pos: int
    start_pos: int
    horizon: int


@dataclass(frozen=True)
class CoopKeyDoorConfig:
    corridor_length: int
    key_pos: int
    door_pos: int
    goal_pos: int
    start_pos: int  # focal agent start
    peer_start: int
    horizon: int
    peer_modes: tuple[str, ...] = (HELPER, INDEPENDENT)


DEFAULT_KEYDOOR = KeyDoorConfig(
    corridor_length=4, key_pos=0, door_pos=2, goal_pos=3, start_pos=1, horizon=8
)
DEFAULT_COOP = CoopKeyDoorConfig(
    corridor_length=4,
    key_pos=1,
    door_pos=2,
    goal_pos=3,
    start_pos=1,
    peer_start=1,
    horizon=8,
)


def _zeros(shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """``np.zeros(shape, dtype)``; a table too large for NumPy to index is a MemoryError."""
    dtype = np.dtype(dtype)
    if prod(shape) * dtype.itemsize > np.iinfo(np.intp).max:
        raise MemoryError(f"cannot allocate an array with shape {shape} and data type {dtype}")
    return np.zeros(shape, dtype)


# ---------------------------------------------------------------------------
# Single-agent corridor
# ---------------------------------------------------------------------------


def _check_keydoor(cfg: KeyDoorConfig | CoopKeyDoorConfig) -> int:
    """Validate a layout and return the corridor direction (+1 or -1)."""
    length = cfg.corridor_length
    positions = (cfg.key_pos, cfg.door_pos, cfg.goal_pos, cfg.start_pos)
    if length < 2:
        raise ConfigError(f"corridor length must be >= 2, got {length}")
    for pos in positions:
        if not 0 <= pos < length:
            raise ConfigError(f"position {pos} outside corridor of length {length}")
    if len({cfg.key_pos, cfg.door_pos, cfg.goal_pos}) != 3:
        raise ConfigError("key, door, and goal positions must be distinct")
    # the goal lies beyond the door by this choice, as the door and goal differ
    direction = 1 if cfg.goal_pos > cfg.door_pos else -1
    if (cfg.door_pos - cfg.start_pos) * direction <= 0:
        raise ConfigError("start must lie on the near side of the door")
    if (cfg.door_pos - cfg.key_pos) * direction <= 0:
        raise ConfigError("key must lie on the near side of the door")
    return direction


def shortest_solution_actions(cfg: KeyDoorConfig) -> int:
    """Action count of the shortest solve: walk to key, to door, to goal, plus two interacts."""
    return (
        abs(cfg.start_pos - cfg.key_pos)
        + abs(cfg.key_pos - cfg.door_pos)
        + abs(cfg.door_pos - cfg.goal_pos)
        + 2
    )


def keydoor_state(cfg: KeyDoorConfig, pos: int, has_key: bool, door_open: bool) -> int:
    return (pos * 2 + int(has_key)) * 2 + int(door_open)


def keydoor_decode(state: int) -> tuple[int, bool, bool]:
    return state // 4, bool((state // 2) % 2), bool(state % 2)


def build_keydoor(cfg: KeyDoorConfig) -> tuple[TabularMDP, Abstraction]:
    """Deterministic corridor MDP plus its option-level abstraction.

    State is (position, has_key, door_open); actions are LEFT, RIGHT,
    INTERACT.  Every successful trajectory's abstraction embeds
    find_key -> reach_door -> open_door in order.
    """
    direction = _check_keydoor(cfg)
    min_actions = shortest_solution_actions(cfg)
    if cfg.horizon < min_actions + 1:
        raise ConfigError(
            f"horizon {cfg.horizon} cannot reach the goal; the shortest solve "
            f"takes {min_actions} actions, so horizon must be >= {min_actions + 1}"
        )

    length = cfg.corridor_length
    num_states = length * 4
    num_actions = 3
    goal_state = keydoor_state(cfg, cfg.goal_pos, True, True)

    def step(pos: int, has_key: bool, door_open: bool, action: int):
        if action in (LEFT, RIGHT):
            nxt = pos + (1 if action == RIGHT else -1)
            if not 0 <= nxt < length:
                nxt = pos
            # the edge from the door cell toward the goal is locked until open
            if not door_open and (
                (pos == cfg.door_pos and nxt == cfg.door_pos + direction)
                or (pos == cfg.door_pos + direction and nxt == cfg.door_pos)
            ):
                nxt = pos
            return nxt, has_key, door_open
        if action == INTERACT:
            if pos == cfg.key_pos and not has_key:
                return pos, True, door_open
            if pos == cfg.door_pos and has_key and not door_open:
                return pos, has_key, True
        return pos, has_key, door_open

    kernel = _zeros((num_states, num_actions, num_states))
    reward = np.zeros((num_states, num_actions))
    for state in range(num_states):
        pos, has_key, door_open = keydoor_decode(state)
        for action in range(num_actions):
            if state == goal_state:
                nxt_state = state
            else:
                nxt_state = keydoor_state(cfg, *step(pos, has_key, door_open, action))
            kernel[state, action, nxt_state] = 1.0
            if state != goal_state and nxt_state == goal_state:
                reward[state, action] = 1.0

    initial = np.zeros(num_states)
    initial[keydoor_state(cfg, cfg.start_pos, False, False)] = 1.0
    mdp = TabularMDP(
        num_states=num_states,
        num_actions=num_actions,
        kernel=kernel,
        reward=reward,
        horizon=cfg.horizon,
        goals=frozenset({goal_state}),
        initial=initial,
        goal_absorbing=True,
    )
    validate_mdp(mdp)

    mapping: dict[tuple[int, int], str] = {}
    for state in range(num_states):
        pos, has_key, door_open = keydoor_decode(state)
        for action in range(num_actions):
            symbol = "move"
            if action == INTERACT and pos == cfg.key_pos and not has_key:
                symbol = "find_key"
            elif action == INTERACT and pos == cfg.door_pos and has_key and not door_open:
                symbol = "open_door"
            elif (
                has_key
                and not door_open
                and pos == cfg.door_pos - direction
                and action == (RIGHT if direction == 1 else LEFT)
            ):
                symbol = "reach_door"
            mapping[(state, action)] = symbol
    mapping[(goal_state, TERMINAL)] = "terminal"
    phi = Abstraction(mapping=mapping, label="keydoor")
    return mdp, phi


# ---------------------------------------------------------------------------
# Cooperative corridor
# ---------------------------------------------------------------------------


class _CoopLayout:
    """Index arithmetic and joint dynamics for one cooperative layout.

    Key location encoding: 0..L-1 means "dropped on the floor at that cell",
    L means the untouched original spot (at key_pos), L+1 held by the focal
    agent, L+2 held by the peer.  The peer operates on cells
    [key_pos, door_pos]; the focal agent cannot enter the closed door cell.
    """

    def __init__(self, cfg: CoopKeyDoorConfig):
        self.cfg = cfg
        self.length = cfg.corridor_length
        self.orig = self.length
        self.held_focal = self.length + 1
        self.held_peer = self.length + 2
        self.num_key_locs = self.length + 3
        self.num_states = self.length * self.length * self.num_key_locs * 2
        self.peer_lo = cfg.key_pos
        self.peer_hi = cfg.door_pos

    def encode(self, f: int, p: int, k: int, d: int) -> int:
        return ((f * self.length + p) * self.num_key_locs + k) * 2 + d

    def decode(self, state: int) -> tuple[int, int, int, int]:
        d = state % 2
        state //= 2
        k = state % self.num_key_locs
        state //= self.num_key_locs
        return state // self.length, state % self.length, k, d

    def floor_cell(self, k: int) -> int | None:
        """Cell index of a key lying on the floor, or None if carried."""
        if k < self.length:
            return k
        if k == self.orig:
            return self.cfg.key_pos
        return None

    def focal_effect(self, f: int, p: int, k: int, d: int, a1: int):
        cfg = self.cfg
        if a1 in (LEFT, RIGHT):
            nxt = f + (1 if a1 == RIGHT else -1)
            if not 0 <= nxt < self.length:
                nxt = f
            if not d and nxt == cfg.door_pos:
                nxt = f
            return nxt, p, k, d
        # SWAP: pick up a floor key here, else drop a held key here
        cell = self.floor_cell(k)
        if cell is not None and cell == f:
            return f, p, self.held_focal, d
        if k == self.held_focal:
            return f, p, f, d
        return f, p, k, d

    def peer_effect(self, f: int, p: int, k: int, d: int, a2: int):
        cfg = self.cfg
        if a2 in (LEFT, RIGHT):
            nxt = p + (1 if a2 == RIGHT else -1)
            nxt = min(max(nxt, self.peer_lo), self.peer_hi)
            return f, nxt, k, d
        # USE: pick up a floor key here, else open the door
        cell = self.floor_cell(k)
        if cell is not None and cell == p:
            return f, p, self.held_peer, d
        if k == self.held_peer and p == cfg.door_pos and not d:
            return f, p, k, 1
        return f, p, k, d

    def joint_step(self, state: int, a1: int, a2: int) -> int:
        f, p, k, d = self.decode(state)
        if f == self.cfg.goal_pos:
            return state
        f, p, k, d = self.focal_effect(f, p, k, d, a1)
        f, p, k, d = self.peer_effect(f, p, k, d, a2)
        return self.encode(f, p, k, d)

    def is_goal(self, state: int) -> bool:
        return self.decode(state)[0] == self.cfg.goal_pos

    def helper_action(self, state: int) -> int:
        """Scripted peer that only ever collects keys dropped by the focal agent."""
        _f, p, k, d = self.decode(state)
        if k == self.held_peer:
            if p < self.cfg.door_pos:
                return RIGHT
            return USE
        if k < self.length and self.peer_lo <= k <= self.peer_hi:
            if p == k:
                return USE
            return RIGHT if k > p else LEFT
        if k == self.held_focal:
            # hands ready: catches a key dropped at this cell in the same step
            return USE
        return LEFT  # wait near the range floor

    def independent_action(self, state: int) -> int:
        """Scripted peer that fetches the key itself, wherever it lies."""
        _f, p, k, d = self.decode(state)
        if k == self.held_peer:
            if p < self.cfg.door_pos:
                return RIGHT
            return USE
        cell = self.floor_cell(k)
        if cell is not None and self.peer_lo <= cell <= self.peer_hi:
            if p == cell:
                return USE
            return RIGHT if cell > p else LEFT
        return LEFT


def _check_coop(cfg: CoopKeyDoorConfig) -> None:
    direction = _check_keydoor(cfg)
    if direction != 1:
        raise ConfigError("cooperative layout requires key < door < goal ordering")
    if not cfg.key_pos <= cfg.peer_start <= cfg.door_pos:
        raise ConfigError(
            f"peer start {cfg.peer_start} outside its operating range "
            f"[{cfg.key_pos}, {cfg.door_pos}]"
        )
    if not cfg.peer_modes:
        raise ConfigError("schedule needs at least one peer mode")
    for mode in cfg.peer_modes:
        if mode not in (HELPER, INDEPENDENT):
            raise ConfigError(f"unknown peer mode {mode!r}")


def build_coop_keydoor(
    cfg: CoopKeyDoorConfig,
) -> tuple[MarkovGame, list[PeerPolicy], Abstraction]:
    """Cooperative corridor game, scripted peer schedule, and abstraction.

    Under the helper peer every success requires the focal agent to leave the
    key on the floor and the peer to carry it to the door and open it; under
    the independent peer the door still gets opened but successes that skip
    the hand-off exist.  Raises :class:`ConfigError` if any scheduled episode
    admits no success within the horizon.
    """
    _check_coop(cfg)
    layout = _CoopLayout(cfg)
    num_states = layout.num_states

    # deterministic dynamics: each (state, a1, a2) row holds one entry, 1.0
    successors = _zeros((num_states, 3, 3), np.int64)
    reward = np.zeros((num_states, 3, 3))
    goals = frozenset(s for s in range(num_states) if layout.is_goal(s))
    for state in range(num_states):
        for a1 in range(3):
            for a2 in range(3):
                nxt = layout.joint_step(state, a1, a2)
                successors[state, a1, a2] = nxt
                if state not in goals and nxt in goals:
                    reward[state, a1, a2] = 1.0
    kernel = KernelRows(
        (num_states, 3, 3, num_states),
        offsets=np.arange(successors.size + 1),
        targets=successors.ravel(),
        probs=np.ones(successors.size),
    )

    initial = np.zeros(num_states)
    initial[layout.encode(cfg.start_pos, cfg.peer_start, layout.orig, 0)] = 1.0
    game = MarkovGame(
        num_states=num_states,
        num_actions_1=3,
        num_actions_2=3,
        joint_kernel=kernel,
        reward_1=reward,
        horizon=cfg.horizon,
        goals=goals,
        initial=initial,
    )
    validate_game(game)

    scripts = {HELPER: layout.helper_action, INDEPENDENT: layout.independent_action}
    schedule = []
    for episode, mode in enumerate(cfg.peer_modes, start=1):
        probs = np.zeros((num_states, 3))
        script = scripts[mode]
        for state in range(num_states):
            probs[state, script(state)] = 1.0
        schedule.append(PeerPolicy(probs=probs, label=f"{mode}-e{episode}"))

    mapping: dict[tuple[int, int], str] = {}
    for state in range(num_states):
        f, p, k, d = layout.decode(state)
        for a1 in range(3):
            symbol = "move"
            if f != cfg.goal_pos:
                if k == layout.orig and f == cfg.key_pos and a1 == SWAP:
                    symbol = "find_key"
                elif k == layout.held_focal and a1 == SWAP:
                    symbol = "drop_key_for_peer"
                elif k == layout.held_peer and not d and p == cfg.door_pos - 1:
                    symbol = "peer_reaches_door"
                elif k == layout.held_peer and not d and p == cfg.door_pos:
                    symbol = "peer_opens_door"
            mapping[(state, a1)] = symbol
    for goal in goals:
        mapping[(goal, TERMINAL)] = "terminal"
    phi = Abstraction(mapping=mapping, label="coop-keydoor")

    for mode, peer in zip(cfg.peer_modes, schedule):
        if not goal_reachable(_fold_peer(game, peer)):
            raise ConfigError(
                f"peer mode {mode!r} admits no success within horizon {cfg.horizon}"
            )
    return game, schedule, phi


# ---------------------------------------------------------------------------
# Random instances for property tests
# ---------------------------------------------------------------------------


def random_mdp(
    num_states: int,
    num_actions: int,
    horizon: int,
    seed: int,
    support_size: int = 2,
) -> TabularMDP:
    """Seeded random MDP with a unique absorbing goal reachable from the start.

    Intended for desk-scale property tests (a handful of states and actions).
    Kernels are down-sampled to ``support_size`` successors per row and
    resampled until the goal is reachable within the horizon, so the result is
    a deterministic function of the seed.
    """
    if num_states < 2 or num_actions < 1 or horizon < 1:
        raise ConfigError("random_mdp needs >= 2 states, >= 1 action, horizon >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    goal = num_states - 1
    support_size = min(support_size, num_states)
    for _attempt in range(1000):
        kernel = np.zeros((num_states, num_actions, num_states))
        for s in range(num_states):
            for a in range(num_actions):
                if s == goal:
                    kernel[s, a, goal] = 1.0
                    continue
                support = rng.permutation(num_states)[:support_size]
                weights = rng.random(support_size) + 1e-3
                kernel[s, a, support] = weights / weights.sum()
        start = int(rng.integers(0, num_states - 1))
        initial = np.zeros(num_states)
        initial[start] = 1.0
        candidate = TabularMDP(
            num_states=num_states,
            num_actions=num_actions,
            kernel=kernel,
            reward=np.zeros((num_states, num_actions)),
            horizon=horizon,
            goals=frozenset({goal}),
            initial=initial,
            goal_absorbing=True,
        )
        if not goal_reachable(candidate):
            continue
        # the reward is drawn only for an accepted kernel
        mdp = replace(candidate, reward=rng.random((num_states, num_actions)))
        validate_mdp(mdp)
        return mdp
    raise ConfigError(
        f"could not sample a goal-reachable MDP for seed {seed} "
        f"({num_states} states, {num_actions} actions, horizon {horizon})"
    )
