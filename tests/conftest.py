"""Shared fixtures and independent oracles used across the test suite."""
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import strategies as st

from trajcore import (
    IDENTITY,
    TERMINAL,
    CoreSet,
    DriftReport,
    DriftStep,
    MarkovGame,
    PeerPolicy,
    PrototypeChange,
    SuccessSet,
    TabularMDP,
    Trajectory,
    apply_abstraction,
    common_subsequences,
    enumerate_successes,
    formats,
    induce_mdp,
    is_subsequence,
    random_mdp,
    uniform_peer,
    variation_budget,
)
from trajcore.mining import canonical_member_order, maximal_elements


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
    """Generate-and-filter success enumeration, independent of the pruned support graph.

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


def oracle_case(seed: int, horizon: int, support_size: int, goals: str) -> TabularMDP:
    """A random 4-state MDP, with its goals changed as ``goals`` says."""
    mdp = random_mdp(num_states=4, num_actions=2, horizon=4, seed=seed, support_size=support_size)
    mdp = replace(mdp, horizon=horizon)
    (goal,) = mdp.goals
    start = mdp.initial_support()[0]
    if goals == "two":  # a second goal, which need not be absorbing
        other = int(np.random.default_rng(seed).integers(0, goal))
        return replace(mdp, goals=frozenset({goal, other}), goal_absorbing=False)
    if goals == "leaky":  # the goal moves on under action 0
        kernel = np.array(mdp.kernel)
        kernel[goal, 0] = 0.0
        kernel[goal, 0, start] = 1.0
        return replace(mdp, kernel=kernel, goal_absorbing=False)
    if goals == "initial":  # the initial support holds the goal
        initial = np.zeros(mdp.num_states)
        initial[[start, goal]] = 0.5
        return replace(mdp, initial=initial)
    return mdp


def oracle_canonical(trajectories) -> tuple[Trajectory, ...]:
    """The order of ``SuccessSet.from_iterable`` by one plain sort, with no encoding.

    Deduplicate in arrival order, then sort by ``pairs()`` as tuples; of two
    trajectories with equal pairs, the terminated one comes first.  Items
    that ``<`` cannot rank, such as NaN, are left in the order the sort
    meets them, so both sorts must start from the same order.
    """
    return tuple(sorted(dict.fromkeys(trajectories), key=lambda traj: (traj.pairs(), not traj.terminated)))


def _int_forms(value: int):
    """``value`` as a Python int, a NumPy int64 and, for 0 and 1, a bool: equal, hashed alike."""
    return st.sampled_from([value, np.int64(value)] + ([bool(value)] if value in (0, 1) else []))


# states 0-2 and actions 0, 1 and TERMINAL, each drawn in any of its integer types, so a
# step may be (s, TERMINAL) and two distinct trajectories may share pairs()
_states = st.sampled_from([0, 1, 2]).flatmap(_int_forms)
_actions = st.sampled_from([0, 1, TERMINAL]).flatmap(_int_forms)
trajectories = st.builds(
    Trajectory,
    st.lists(st.tuples(_states, _actions), max_size=4).map(tuple),
    st.none() | _states,
)
trajectory_families = st.lists(trajectories, max_size=8)


def oracle_core(successes, phi=IDENTITY, strip_terminal: bool = False) -> CoreSet:
    """``core`` by exhaustive listing, independent of the graph search.

    The maximal elements of every common subsequence of the
    ``apply_abstraction`` images, with terminal symbols stripped after
    runs collapse.
    """
    images = {apply_abstraction(traj, phi) for traj in successes}
    if strip_terminal:
        images = {tuple(x for x in image if not phi.is_terminal_symbol(x)) for image in images}
    maximal = maximal_elements(common_subsequences(sorted(images)))
    return CoreSet(canonical_member_order(maximal - {()}), phi.label, strip_terminal)


def oracle_witness(member, successes: SuccessSet, phi=IDENTITY):
    """The list scan for a drift witness, independent of the graph walk.

    The first success, in ``SuccessSet`` order, whose image ``member`` does
    not embed in, as ``(trajectory, image)``; None if it embeds in all.
    """
    for traj in successes:
        image = apply_abstraction(traj, phi)
        if not is_subsequence(member, image):
            return traj, image
    return None


def oracle_drift_report(seq, phi=IDENTITY, strip_terminal: bool = False) -> DriftReport:
    """``drift_report`` composed from listed successes: enumerate, ``oracle_core`` and ``oracle_witness``."""
    successes = [enumerate_successes(mdp) for mdp in seq.induced]
    cores = [oracle_core(s, phi, strip_terminal) if len(s) else None for s in successes]
    full = enumerate_successes(induce_mdp(seq.game, uniform_peer(seq.game)))
    individual = oracle_core(full, phi, strip_terminal) if len(full) else None

    def changes(lost, kept, other):
        found = []
        for member in lost.members:
            if not any(is_subsequence(member, big) for big in kept.members):
                witness, image = oracle_witness(member, other, phi)
                found.append(PrototypeChange(member=member, witness=witness, witness_image=image))
        return tuple(found)

    steps = []
    for index in range(1, len(successes)):
        core_a, core_b = cores[index - 1], cores[index]
        if core_a is None or core_b is None:
            steps.append(DriftStep(index, None, None, (), (), None))
            continue
        common = oracle_core(successes[index - 1].trajectories + successes[index].trajectories,
                             phi, strip_terminal)
        contained = None if individual is None else all(
            any(is_subsequence(member, big) for big in individual.members)
            for member in common.members
        )
        literal = tuple(sorted(set(core_a.members) & set(core_b.members), key=lambda m: (-len(m), m)))
        steps.append(DriftStep(
            index=index,
            common_core=common,
            literal_intersection=literal,
            vanished=changes(core_a, core_b, successes[index]),
            gained=changes(core_b, core_a, successes[index - 1]),
            common_within_individual=contained,
        ))
    return DriftReport(episode_cores=tuple(cores), steps=tuple(steps), individual=individual,
                       budget=variation_budget(seq))


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


def sparse_game(
    rng: np.random.Generator, num_states: int = 5, num_actions_2: int = 2, horizon: int = 5
) -> MarkovGame:
    """Random 2-action game whose rows hold 1-2 targets, with an absorbing goal in the last state.

    The support of an induced MDP then depends on which peer actions the
    peer plays at all (see ``sparse_peer``).
    """
    goal = num_states - 1
    joint = np.zeros((num_states, 2, num_actions_2, num_states))
    for row in joint.reshape(-1, num_states):
        targets = rng.choice(num_states, size=int(rng.integers(1, 3)), replace=False)
        row[targets] = rng.random(len(targets)) + 1e-3
        row /= row.sum()
    joint[goal] = 0.0
    joint[goal, :, :, goal] = 1.0
    initial = np.zeros(num_states)
    initial[0] = 1.0
    return MarkovGame(
        num_states=num_states,
        num_actions_1=2,
        num_actions_2=num_actions_2,
        joint_kernel=joint,
        reward_1=rng.random((num_states, 2, num_actions_2)),
        horizon=horizon,
        goals=frozenset({goal}),
        initial=initial,
    )


def sparse_peer(rng: np.random.Generator, game: MarkovGame, label: str = "peer") -> PeerPolicy:
    """Random peer that gives each action probability 0 with chance 1/2 (one action always stays)."""
    probs = rng.random((game.num_states, game.num_actions_2)) + 1e-3
    probs[rng.random(probs.shape) < 0.5] = 0.0
    probs[probs.sum(axis=1) == 0, 0] = 1.0
    return PeerPolicy(probs=probs / probs.sum(axis=1, keepdims=True), label=label)


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


def dense_rollout(mdp: TabularMDP, policy: np.ndarray, n: int, seed: int) -> tuple[Trajectory, ...]:
    """Reference for ``rollout``: every kernel draw reads the cdf of the whole dense kernel."""
    from trajcore.mdp import _draw

    rng = np.random.Generator(np.random.PCG64(seed))
    init_cdf = np.cumsum(mdp.initial)
    policy_cdf = np.cumsum(policy, axis=1)
    kernel_cdf = np.cumsum(mdp.kernel, axis=2)
    out = []
    for _ in range(n):
        state, steps, terminal = _draw(rng, init_cdf), [], None
        for _t in range(mdp.horizon):
            if state in mdp.goals:
                terminal = state
                break
            action = _draw(rng, policy_cdf[state])
            nxt = _draw(rng, kernel_cdf[state, action])
            steps.append((state, action))
            state = nxt
        out.append(Trajectory(steps=tuple(steps), terminal_state=terminal))
    return tuple(out)


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


def count_set_builds(monkeypatch, module) -> list:
    """Record every ``set`` or ``frozenset`` that code in ``module`` builds from now on."""
    built = []
    for kind in (set, frozenset):

        def counted(*args, _kind=kind):
            built.append(_kind)
            return _kind(*args)

        monkeypatch.setattr(module, kind.__name__, counted, raising=False)
    return built


def count_calls(monkeypatch, name: str) -> list:
    """Count calls of a package function under every module name that holds it."""
    from trajcore import drift, envs, graph, mdp, mining

    calls = []
    for module in (mdp, mining, graph, drift, envs):
        if not hasattr(module, name):
            continue

        def counted(*args, _original=getattr(module, name), **kwargs):
            calls.append(name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls
