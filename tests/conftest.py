"""Shared fixtures and independent oracles used across the test suite."""
from itertools import product

import numpy as np
import pytest

from trajcore import MarkovGame, PeerPolicy, SuccessSet, TabularMDP, Trajectory, formats


@pytest.fixture
def chain_mdp() -> TabularMDP:
    """3-state chain: 0 -L-> 0, 0 -R-> 1, 1 -L-> 0, 1 -R-> 2; goal {2} absorbing."""
    kernel = np.zeros((3, 2, 3))
    kernel[0, 0, 0] = 1.0
    kernel[0, 1, 1] = 1.0
    kernel[1, 0, 0] = 1.0
    kernel[1, 1, 2] = 1.0
    kernel[2, 0, 2] = 1.0
    kernel[2, 1, 2] = 1.0
    return TabularMDP(
        num_states=3,
        num_actions=2,
        kernel=kernel,
        reward=np.zeros((3, 2)),
        horizon=4,
        goals=frozenset({2}),
        initial=np.array([1.0, 0.0, 0.0]),
        goal_absorbing=True,
    )


def oracle_enumerate(mdp: TabularMDP) -> SuccessSet:
    """Generate-and-filter success enumeration, independent of the DFS path.

    Enumerates every pair sequence of length <= horizon - 1 over the full
    S x A alphabet together with every candidate goal, then keeps the valid
    ones.  Exponential; only for tiny instances.
    """
    pairs = list(product(range(mdp.num_states), range(mdp.num_actions)))
    init = set(mdp.initial_support())
    successes = []
    for length in range(mdp.horizon):
        for steps in product(pairs, repeat=length):
            for goal in sorted(mdp.goals):
                states = [s for s, _ in steps] + [goal]
                if states[0] not in init:
                    continue
                if any(s in mdp.goals for s, _ in steps):
                    continue
                if any(
                    mdp.kernel[s, a, nxt] <= 0.0
                    for (s, a), nxt in zip(steps, states[1:])
                ):
                    continue
                successes.append(Trajectory(steps=steps, terminal_state=goal))
    return SuccessSet.from_iterable(successes)


def random_game(
    rng: np.random.Generator,
    num_states: int = 4,
    num_actions_1: int = 2,
    num_actions_2: int = 2,
    horizon: int = 4,
) -> MarkovGame:
    """Dense random game with a single absorbing goal in the last state."""
    goal = num_states - 1
    joint = rng.random((num_states, num_actions_1, num_actions_2, num_states)) + 1e-3
    joint /= joint.sum(axis=-1, keepdims=True)
    joint[goal] = 0.0
    joint[goal, :, :, goal] = 1.0
    initial = np.zeros(num_states)
    initial[0] = 1.0
    return MarkovGame(
        num_states=num_states,
        num_actions_1=num_actions_1,
        num_actions_2=num_actions_2,
        joint_kernel=joint,
        reward_1=rng.random((num_states, num_actions_1, num_actions_2)),
        horizon=horizon,
        goals=frozenset({goal}),
        initial=initial,
    )


def scattered_game(
    rng: np.random.Generator, num_states: int, num_actions_1: int, num_actions_2: int
) -> MarkovGame:
    """Random game whose rows hold 3-8 non-zeros at scattered targets (needs 8+ states)."""
    joint = np.zeros((num_states, num_actions_1, num_actions_2, num_states))
    for row in joint.reshape(-1, num_states):
        targets = rng.choice(num_states, size=int(rng.integers(3, 9)), replace=False)
        weights = rng.random(len(targets)) + 1e-3
        row[targets] = weights / weights.sum()
    initial = np.zeros(num_states)
    initial[0] = 1.0
    return MarkovGame(
        num_states=num_states,
        num_actions_1=num_actions_1,
        num_actions_2=num_actions_2,
        joint_kernel=joint,
        reward_1=rng.random((num_states, num_actions_1, num_actions_2)),
        horizon=3,
        goals=frozenset({num_states - 1}),
        initial=initial,
    )


def dense_fold(game: MarkovGame, peer: PeerPolicy) -> np.ndarray:
    """Reference for the rows fold: the induced kernel as the dense einsum computes it."""
    return np.einsum("sabt,sb->sat", game.joint_kernel, peer.probs)


def dense_distance(kernel: np.ndarray, previous: np.ndarray) -> float:
    """Reference for the rows budget: the largest L1 row distance over whole dense kernels."""
    return float(np.abs(kernel - previous).sum(axis=-1).max())


def game_payload_v1(game: MarkovGame) -> dict:
    """A game's dense version-1 payload, as the version-1 writer emitted it."""
    payload = {k: v for k, v in formats.game_to_payload(game).items() if k != "entries"}
    return {**payload, "version": 1, "joint_kernel": game.joint_kernel.tolist()}


def random_peer(rng: np.random.Generator, game: MarkovGame, label: str = "peer") -> PeerPolicy:
    probs = rng.random((game.num_states, game.num_actions_2)) + 1e-3
    probs /= probs.sum(axis=1, keepdims=True)
    return PeerPolicy(probs=probs, label=label)


def reweight_support(rng: np.random.Generator, mdp: TabularMDP) -> TabularMDP:
    """Randomize kernel and initial magnitudes without touching their supports."""
    kernel = np.array(mdp.kernel)
    mask = kernel > 0
    kernel[mask] = rng.random(mask.sum()) + 1e-3
    kernel /= kernel.sum(axis=-1, keepdims=True)
    initial = np.array(mdp.initial)
    imask = initial > 0
    initial[imask] = rng.random(imask.sum()) + 1e-3
    initial /= initial.sum()
    return TabularMDP(
        num_states=mdp.num_states,
        num_actions=mdp.num_actions,
        kernel=kernel,
        reward=mdp.reward,
        horizon=mdp.horizon,
        goals=mdp.goals,
        initial=initial,
        goal_absorbing=mdp.goal_absorbing,
    )


def count_calls(monkeypatch, name: str) -> list:
    """Count calls of a package function under every module name that holds it."""
    from trajcore import drift, envs, mdp, mining

    calls = []
    for module in (mdp, mining, drift, envs):
        if not hasattr(module, name):
            continue

        def counted(*args, _original=getattr(module, name), **kwargs):
            calls.append(name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls
