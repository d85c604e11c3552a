"""Metamorphic checks: the fast paths agree with themselves on relabelled inputs.

A relation compares a result with the result on a transformed input, so it
checks at sizes no oracle reaches.  Here the states are permuted: every
core, success count and drift member maps back exactly, and every witness
is a success of the other episode that avoids its member.  A witness need
not map to the witness, because the order of successes changes.
"""
from dataclasses import replace

import numpy as np
import pytest

from trajcore import (
    IDENTITY,
    Abstraction,
    EpisodeSequence,
    KernelRows,
    MarkovGame,
    PeerPolicy,
    TabularMDP,
    Trajectory,
    apply_abstraction,
    build_coop_keydoor,
    drift_report,
    is_subsequence,
    is_successful,
    random_mdp,
)
from trajcore.envs import DEFAULT_COOP
from trajcore.graph import Symbols, build_graph
from trajcore.mining import canonical_member_order


def _permuted_rows(rows: KernelRows, perm: np.ndarray) -> KernelRows:
    """``rows`` with state ``s`` renamed ``perm[s]``, on both the row and the target side."""
    inv = np.argsort(perm)
    per_state = int(np.prod(rows.shape[1:-1]))
    old = (inv[:, None] * per_state + np.arange(per_state)).ravel()  # old row of each new row
    targets, probs = [], []
    for start, end in zip(rows.offsets[old], rows.offsets[old + 1]):
        moved = perm[rows.targets[start:end]]
        order = np.argsort(moved)
        targets.append(moved[order])
        probs.append(rows.probs[start:end][order])
    offsets = np.concatenate(([0], np.cumsum([len(t) for t in targets])))
    return KernelRows(rows.shape, offsets, np.concatenate(targets), np.concatenate(probs))


def _permuted_mdp(mdp: TabularMDP, perm: np.ndarray) -> TabularMDP:
    inv = np.argsort(perm)
    return replace(
        mdp,
        kernel=_permuted_rows(mdp.rows, perm),
        reward=mdp.reward[inv],
        goals=frozenset(int(perm[g]) for g in mdp.goals),
        initial=mdp.initial[inv],
    )


def _map_symbol(symbol, perm: np.ndarray):
    """A (state, action) symbol with its state renamed by ``perm``; any other symbol as it is."""
    return (int(perm[symbol[0]]), symbol[1]) if isinstance(symbol, tuple) else symbol


def _map_members(members, perm: np.ndarray) -> tuple:
    return canonical_member_order(tuple(_map_symbol(x, perm) for x in m) for m in members)


def _map_trajectory(traj: Trajectory, perm: np.ndarray) -> Trajectory:
    return Trajectory(steps=tuple((int(perm[s]), a) for s, a in traj.steps),
                      terminal_state=int(perm[traj.terminal_state]))


@pytest.mark.parametrize("seed", range(40))
def test_state_relabelling_maps_the_core_and_count_back(seed):
    mdp = random_mdp(6, 2, 6, seed=seed)
    perm = np.random.default_rng(seed).permutation(mdp.num_states)
    graph = build_graph(mdp, Symbols(IDENTITY, False))
    relabelled = build_graph(_permuted_mdp(mdp, perm), Symbols(IDENTITY, False))
    assert relabelled.num_successes() == graph.num_successes()
    back = _map_members(relabelled.core().members, np.argsort(perm))
    assert back == graph.core().members


def _permuted_drift(game: MarkovGame, peers, phi: Abstraction, perm: np.ndarray):
    inv = np.argsort(perm)
    game = replace(
        game,
        joint_kernel=_permuted_rows(game.rows, perm),
        reward_1=game.reward_1[inv],
        goals=frozenset(int(perm[g]) for g in game.goals),
        initial=game.initial[inv],
    )
    peers = [PeerPolicy(probs=p.probs[inv], label=p.label) for p in peers]
    if not phi.is_identity:
        phi = replace(phi, mapping={_map_symbol(k, perm): v for k, v in phi.mapping.items()})
    return EpisodeSequence.from_schedule(game, peers), phi


@pytest.mark.parametrize("abstraction", ["identity", "coop-keydoor"])
def test_state_relabelling_maps_an_l8_coop_drift_back(abstraction):
    cfg = replace(DEFAULT_COOP, corridor_length=8, key_pos=1, door_pos=4, goal_pos=6,
                  start_pos=2, peer_start=2, horizon=16,
                  peer_modes=("helper", "independent", "helper"))
    game, peers, phi = build_coop_keydoor(cfg)
    if abstraction == "identity":
        phi = IDENTITY
    perm = np.random.default_rng(8).permutation(game.num_states)
    inv = np.argsort(perm)
    seq = EpisodeSequence.from_schedule(game, peers)
    relabelled, relabelled_phi = _permuted_drift(game, peers, phi, perm)
    base = drift_report(seq, phi, strip_terminal=True)
    other = drift_report(relabelled, relabelled_phi, strip_terminal=True)

    assert base.steps and all(step.vanished or step.gained for step in base.steps)
    assert [_map_members(c.members, inv) for c in other.episode_cores] == [
        c.members for c in base.episode_cores]
    assert _map_members(other.individual.members, inv) == base.individual.members
    for step, moved in zip(base.steps, other.steps):
        assert _map_members(moved.common_core.members, inv) == step.common_core.members
        assert _map_members(moved.literal_intersection, inv) == step.literal_intersection
        for changes, base_changes, witness_episode in (
            (moved.vanished, step.vanished, step.index),  # episodes are 0-based here
            (moved.gained, step.gained, step.index - 1),
        ):
            members = [change.member for change in changes]
            assert _map_members(members, inv) == tuple(c.member for c in base_changes)
            for change in changes:
                witness = _map_trajectory(change.witness, inv)
                assert is_successful(witness, seq.induced[witness_episode])
                member = tuple(_map_symbol(x, inv) for x in change.member)
                assert not is_subsequence(member, apply_abstraction(witness, phi))
