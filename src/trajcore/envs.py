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
the peer's policy, which is exactly what the episode schedules vary; the two
scripted peers, helper and independent, differ in that one decision.

Each option symbol names the change its step makes: find_key picks up the
untouched key, reach_door enters the closed door cell with the key,
open_door opens the door, and drop_key_for_peer drops the held key.  A
cooperative focal step that changes no key is named by where the
key-carrying peer stands (peer_reaches_door, peer_opens_door); any other
step is move.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
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


def keydoor_state(pos: int, has_key: bool, door_open: bool) -> int:
    return (pos * 2 + int(has_key)) * 2 + int(door_open)


def keydoor_decode(state: int) -> tuple[int, bool, bool]:
    return state // 4, bool((state // 2) % 2), bool(state % 2)


def build_keydoor(cfg: KeyDoorConfig) -> tuple[TabularMDP, Abstraction]:
    """Deterministic corridor MDP plus its option-level abstraction.

    State is (position, has_key, door_open); actions are LEFT, RIGHT,
    INTERACT.  Each pair is named by the change its step makes, and every
    successful trajectory's abstraction embeds find_key -> reach_door ->
    open_door in order.
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
    goal_state = keydoor_state(cfg.goal_pos, True, True)

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
    mapping: dict[tuple[int, int], str] = {}
    for state in range(num_states):
        pos, has_key, door_open = keydoor_decode(state)
        for action in range(num_actions):
            if state == goal_state:
                nxt = pos, has_key, door_open
            else:
                nxt = step(pos, has_key, door_open, action)
            nxt_state = keydoor_state(*nxt)
            kernel[state, action, nxt_state] = 1.0
            if state != goal_state and nxt_state == goal_state:
                reward[state, action] = 1.0
            nxt_pos, nxt_key, nxt_open = nxt
            symbol = "move"
            if nxt_key and not has_key:
                symbol = "find_key"
            elif nxt_open and not door_open:
                symbol = "open_door"
            elif has_key and not door_open and nxt_pos == cfg.door_pos and pos != cfg.door_pos:
                symbol = "reach_door"
            mapping[(state, action)] = symbol
    mapping[(goal_state, TERMINAL)] = "terminal"
    phi = Abstraction(mapping=mapping, label="keydoor")

    initial = np.zeros(num_states)
    initial[keydoor_state(cfg.start_pos, False, False)] = 1.0
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
    return mdp, phi


# ---------------------------------------------------------------------------
# Cooperative corridor
# ---------------------------------------------------------------------------


class _CoopLayout:
    """Index arithmetic and each agent's effect for one cooperative layout.

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

    def floor_cell(self, k: int) -> int | None:
        """Cell index of a key lying on the floor, or None if carried."""
        if k < self.length:
            return k
        if k == self.orig:
            return self.cfg.key_pos
        return None

    def focal_effect(self, f: int, k: int, d: int, a1: int) -> tuple[int, int]:
        """The focal cell and key location after the focal action ``a1``."""
        if a1 in (LEFT, RIGHT):
            nxt = f + (1 if a1 == RIGHT else -1)
            if not 0 <= nxt < self.length:
                nxt = f
            if not d and nxt == self.cfg.door_pos:
                nxt = f
            return nxt, k
        # the third action: pick up a floor key here, else drop a held key here
        if self.floor_cell(k) == f:
            return f, self.held_focal
        if k == self.held_focal:
            return f, f
        return f, k

    def peer_effect(self, p: int, k: int, d: int, a2: int) -> tuple[int, int, int]:
        """The peer cell, key location and door after the peer action ``a2``."""
        if a2 in (LEFT, RIGHT):
            nxt = p + (1 if a2 == RIGHT else -1)
            nxt = min(max(nxt, self.peer_lo), self.peer_hi)
            return nxt, k, d
        # USE: pick up a floor key here, else open the door
        if self.floor_cell(k) == p:
            return p, self.held_peer, d
        if k == self.held_peer and p == self.cfg.door_pos and not d:
            return p, k, 1
        return p, k, d

    def peer_action(self, p: int, k: int, fetches: bool) -> int:
        """The scripted peer: carry a held key to the door and open it, else fetch a floor key.

        Its one switch: only a peer that ``fetches`` (independent) goes for the
        untouched key; the helper instead waits while the focal agent holds it.
        """
        if k == self.held_peer:
            if p < self.cfg.door_pos:
                return RIGHT
            return USE
        cell = self.floor_cell(k) if fetches or k != self.orig else None
        if cell is not None and self.peer_lo <= cell <= self.peer_hi:
            if p == cell:
                return USE
            return RIGHT if cell > p else LEFT
        if k == self.held_focal and not fetches:
            return USE  # hands ready: catches a key dropped at this cell in the same step
        return LEFT  # wait near the range floor


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
    key on the floor and the peer to carry it to the door and open it; the
    independent peer also fetches the untouched key, so successes that skip
    the hand-off exist.  Raises :class:`ConfigError` if any scheduled episode
    admits no success within the horizon.
    """
    _check_coop(cfg)
    layout = _CoopLayout(cfg)
    num_states = layout.num_states

    # deterministic dynamics: each (state, a1, a2) row holds one entry, 1.0
    successors = _zeros((num_states, 3, 3), np.int64)
    reward = np.zeros((num_states, 3, 3))
    policies = {mode: np.zeros((num_states, 3)) for mode in cfg.peer_modes}
    mapping: dict[tuple[int, int], str] = {}
    goals = []
    states = product(range(layout.length), range(layout.length), range(layout.num_key_locs), (0, 1))
    for state, (f, p, k, d) in enumerate(states):  # ascending, as encode numbers them
        for mode, probs in policies.items():
            probs[state, layout.peer_action(p, k, fetches=mode == INDEPENDENT)] = 1.0
        if f == cfg.goal_pos:
            goals.append(state)
            successors[state] = state
            mapping.update({(state, a1): "move" for a1 in range(3)})
            mapping[(state, TERMINAL)] = "terminal"
            continue
        peer_symbol = "move"
        if k == layout.held_peer and not d and p == cfg.door_pos - 1:
            peer_symbol = "peer_reaches_door"
        elif k == layout.held_peer and not d and p == cfg.door_pos:
            peer_symbol = "peer_opens_door"
        for a1 in range(3):
            f1, k1 = layout.focal_effect(f, k, d, a1)
            symbol = peer_symbol
            if k == layout.orig and k1 == layout.held_focal:
                symbol = "find_key"
            elif k == layout.held_focal and k1 != layout.held_focal:
                symbol = "drop_key_for_peer"
            mapping[(state, a1)] = symbol
            if f1 == cfg.goal_pos:
                reward[state, a1] = 1.0
            for a2 in range(3):
                successors[state, a1, a2] = layout.encode(f1, *layout.peer_effect(p, k1, d, a2))
    kernel = KernelRows(
        (num_states, 3, 3, num_states),
        offsets=np.arange(successors.size + 1),
        targets=successors.ravel(),
        probs=np.ones(successors.size),
    )
    phi = Abstraction(mapping=mapping, label="coop-keydoor")

    initial = np.zeros(num_states)
    initial[layout.encode(cfg.start_pos, cfg.peer_start, layout.orig, 0)] = 1.0
    game = MarkovGame(
        num_states=num_states,
        num_actions_1=3,
        num_actions_2=3,
        joint_kernel=kernel,
        reward_1=reward,
        horizon=cfg.horizon,
        goals=frozenset(goals),
        initial=initial,
    )
    validate_game(game)

    schedule = [
        PeerPolicy(probs=policies[mode], label=f"{mode}-e{episode}")
        for episode, mode in enumerate(cfg.peer_modes, start=1)
    ]
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
