"""Metamorphic checks: the fast paths agree with themselves on transformed inputs.

A relation compares a result with the result on a transformed input, so it
checks at sizes no oracle reaches.  Each runs on hypothesis-drawn small
games and on two fixed cooperative corridors, L8 and L12.

* Permuting states or focal actions: every core, success count and drift
  member maps back exactly, and every witness, mapped back, is a success of
  the other episode that avoids its member.  A witness need not map to the
  witness, because the order of successes changes.
* Permuting peer actions: every core, member and witness is the same.  The
  budget deltas may differ in the last bits, because a fold adds its
  products in peer-action order.
* Reversing a schedule reverses its steps and swaps ``vanished`` and
  ``gained`` in each, and reverses the episode cores and the deltas.
* Appending states that no initial state reaches changes no core or step.
  When every episode's peer plays the same rows there, the deltas agree
  too, up to the rounding of a wider row sum.
* Reversing every word of a listed family reverses every core member, under
  any abstraction, with or without ``collapse_runs`` and ``strip_terminal``.
* Adding to a listed family a copy of one of its words with symbols
  inserted changes no core: every common subsequence embeds in that word,
  so also in the copy.
* Appending a copy of a focal action, under an abstraction that gives the
  copy the original's names, changes no core: of a drawn MDP, with or
  without ``collapse_runs`` and ``strip_terminal``, and no episode, common
  or individual core and no vanished or gained member of a drift.  The
  witnesses may differ, since a success may take the copy.
"""
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajcore import (
    IDENTITY,
    TERMINAL,
    Abstraction,
    EpisodeSequence,
    KernelRows,
    MarkovGame,
    PeerPolicy,
    TabularMDP,
    Trajectory,
    apply_abstraction,
    build_coop_keydoor,
    core,
    drift_report,
    is_subsequence,
    is_successful,
    random_mdp,
)
from trajcore.envs import DEFAULT_COOP
from trajcore.graph import Symbols, build_graph
from trajcore.mining import canonical_member_order

from conftest import random_game, sparse_game, sparse_peer

L8_COOP = replace(DEFAULT_COOP, corridor_length=8, key_pos=1, door_pos=4, goal_pos=6,
                  start_pos=2, peer_start=2, horizon=16,
                  peer_modes=("helper", "independent", "helper"))
L12_COOP = replace(DEFAULT_COOP, corridor_length=12, key_pos=1, door_pos=6, goal_pos=9,
                   start_pos=2, peer_start=2, horizon=20,
                   peer_modes=("helper", "independent", "helper"))
CORRIDORS = {"L8": (L8_COOP, 8), "L12": (L12_COOP, 12)}  # each with the seed of its relations


def _rows_from(rows: KernelRows, old: np.ndarray, shape: tuple | None = None) -> KernelRows:
    """Rows of ``shape`` (that of ``rows`` by default) whose row ``r`` is row ``old[r]`` of ``rows``."""
    counts = rows.offsets[old + 1] - rows.offsets[old]
    at = np.repeat(rows.offsets[old] - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return KernelRows(shape or rows.shape, offsets, rows.targets[at], rows.probs[at])


def _permuted_rows(rows: KernelRows, perm: np.ndarray) -> KernelRows:
    """``rows`` with state ``s`` renamed ``perm[s]``, on both the row and the target side."""
    inv = np.argsort(perm)
    per_state = int(np.prod(rows.shape[1:-1]))
    moved = _rows_from(rows, (inv[:, None] * per_state + np.arange(per_state)).ravel())
    targets = perm[moved.targets]
    order = np.lexsort((targets, moved.entry_rows()))  # ascending targets within each row
    return KernelRows(rows.shape, moved.offsets, targets[order], moved.probs[order])


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
    if phi.mapping is not None:
        phi = replace(phi, mapping={_map_symbol(k, perm): v for k, v in phi.mapping.items()})
    return EpisodeSequence.from_schedule(game, peers), phi


def _members(core_set) -> tuple | None:
    return None if core_set is None else core_set.members


def _assert_maps_back(base, other, seq: EpisodeSequence, phi: Abstraction, back) -> None:
    """``other``, the drift report of a relabelled ``seq``, maps back to ``base`` by ``back``.

    ``back`` maps a symbol of the relabelled input to the symbol of ``seq``;
    a witness maps back pair by pair, its terminal pseudo-pair included.
    """

    def members(found):
        return None if found is None else canonical_member_order(tuple(map(back, m)) for m in found)

    assert [members(_members(c)) for c in other.episode_cores] == [
        _members(c) for c in base.episode_cores]
    assert members(_members(other.individual)) == _members(base.individual)
    for step, moved in zip(base.steps, other.steps):
        assert members(_members(moved.common_core)) == _members(step.common_core)
        assert members(moved.literal_intersection) == step.literal_intersection
        assert moved.common_within_individual == step.common_within_individual
        for changes, base_changes, witness_episode in (
            (moved.vanished, step.vanished, step.index),  # episodes are 0-based here
            (moved.gained, step.gained, step.index - 1),
        ):
            assert members([change.member for change in changes]) == tuple(
                c.member for c in base_changes)
            for change in changes:
                witness = Trajectory.from_pairs(map(back, change.witness.pairs()))
                assert is_successful(witness, seq.induced[witness_episode])
                member = tuple(map(back, change.member))
                assert not is_subsequence(member, apply_abstraction(witness, phi))


def _coop_drift(config, abstraction: str):
    """A corridor's game, peers and abstraction (``IDENTITY`` for "identity")."""
    game, peers, phi = build_coop_keydoor(config)
    return game, peers, IDENTITY if abstraction == "identity" else phi


@pytest.mark.parametrize("abstraction", ["identity", "coop-keydoor"])
@pytest.mark.parametrize("corridor", list(CORRIDORS))
def test_every_step_of_a_coop_drift_changes_a_member(corridor, abstraction):
    # so each relation on the corridor compares vanished and gained members and their witnesses
    config, _seed = CORRIDORS[corridor]
    _, base = _drift(*_coop_drift(config, abstraction), strip_terminal=True)
    assert base.steps and all(step.vanished or step.gained for step in base.steps)


# ---------------------------------------------------------------------------
# Actions, schedule order and unreachable states, on small games and on L8
# ---------------------------------------------------------------------------


def _small_drift(kind: str, seed: int):
    """A drawn small game with a schedule of 4 sparse peers, and the identity abstraction."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        game = random_game(rng, num_states=int(rng.integers(3, 6)), num_actions_2=3, horizon=5)
    else:
        # about two in five of these schedules have a vanished or gained member
        game = sparse_game(rng, num_states=int(rng.integers(4, 8)),
                           num_actions_2=int(rng.integers(2, 4)), horizon=6)
    return game, [sparse_peer(rng, game, f"peer{i}") for i in range(4)], IDENTITY


def _drift(game: MarkovGame, peers, phi: Abstraction, strip_terminal: bool):
    seq = EpisodeSequence.from_schedule(game, peers)
    return seq, drift_report(seq, phi, strip_terminal=strip_terminal)


def _permuted_actions(game: MarkovGame, peers, focal: np.ndarray, peer: np.ndarray):
    """The game and peers with focal action ``a`` renamed ``focal[a]``.

    Peer action ``b`` is renamed ``peer[b]``.
    """
    inv_1, inv_2 = np.argsort(focal), np.argsort(peer)
    rows = np.arange(game.rows.num_rows).reshape(game.rows.shape[:-1])
    game = replace(
        game,
        joint_kernel=_rows_from(game.rows, rows[:, inv_1][:, :, inv_2].ravel()),
        reward_1=game.reward_1[:, inv_1][:, :, inv_2],
    )
    return game, [PeerPolicy(probs=p.probs[:, inv_2], label=p.label) for p in peers]


def _state_relabelling(game, peers, phi, strip_terminal, seed):
    perm = np.random.default_rng(seed).permutation(game.num_states)
    inv = np.argsort(perm)
    seq, base = _drift(game, peers, phi, strip_terminal)
    moved, moved_phi = _permuted_drift(game, peers, phi, perm)
    other = drift_report(moved, moved_phi, strip_terminal=strip_terminal)
    _assert_maps_back(base, other, seq, phi, lambda x: _map_symbol(x, inv))
    _assert_deltas_close(other.budget, base.budget)  # a row's entries are added in a new order


def _focal_relabelling(game, peers, phi, strip_terminal, seed):
    focal = np.random.default_rng(seed).permutation(game.num_actions_1)
    inv = np.argsort(focal)
    seq, base = _drift(game, peers, phi, strip_terminal)
    moved, moved_peers = _permuted_actions(game, peers, focal, np.arange(game.num_actions_2))
    phi_moved = phi if phi.mapping is None else replace(phi, mapping={
        (s, a if a == TERMINAL else int(focal[a])): v for (s, a), v in phi.mapping.items()})
    _, other = _drift(moved, moved_peers, phi_moved, strip_terminal)

    def back(x):
        return (x[0], int(inv[x[1]])) if isinstance(x, tuple) and x[1] != TERMINAL else x

    _assert_maps_back(base, other, seq, phi, back)
    assert other.budget == base.budget  # the fold adds over peer actions, in the same order


def _assert_deltas_close(budget, base) -> None:
    for name in ("kernel_deltas", "reward_deltas"):
        assert getattr(budget, name) == pytest.approx(getattr(base, name), rel=1e-12, abs=1e-15)


def _peer_relabelling(game, peers, phi, strip_terminal, seed):
    peer = np.random.default_rng(seed).permutation(game.num_actions_2)
    _, base = _drift(game, peers, phi, strip_terminal)
    moved, moved_peers = _permuted_actions(game, peers, np.arange(game.num_actions_1), peer)
    _, other = _drift(moved, moved_peers, phi, strip_terminal)
    assert other.episode_cores == base.episode_cores and other.individual == base.individual
    assert other.steps == base.steps  # members and witnesses alike
    _assert_deltas_close(other.budget, base.budget)


def _reversal(game, peers, phi, strip_terminal, seed):
    _, base = _drift(game, peers, phi, strip_terminal)
    _, back = _drift(game, peers[::-1], phi, strip_terminal)
    assert back.episode_cores == base.episode_cores[::-1] and back.individual == base.individual
    assert back.budget.kernel_deltas == base.budget.kernel_deltas[::-1]
    assert back.budget.reward_deltas == base.budget.reward_deltas[::-1]
    assert len(back.steps) == len(base.steps)
    for step, reversed_step in zip(base.steps, back.steps[::-1]):
        assert reversed_step == replace(
            step, index=reversed_step.index, vanished=step.gained, gained=step.vanished)


def _unreachable_states(game, peers, phi, strip_terminal, seed):
    """Appends states that lead anywhere but that nothing leads to and no episode starts at."""
    rng = np.random.default_rng(seed)
    extra = int(rng.integers(1, 4))
    n = game.num_states + extra
    added_rows = extra * game.num_actions_1 * game.num_actions_2
    rows = game.rows
    joint = KernelRows(
        (n, game.num_actions_1, game.num_actions_2, n),
        np.concatenate((rows.offsets, rows.offsets[-1] + np.arange(1, added_rows + 1))),
        np.concatenate((rows.targets, rng.integers(0, n, added_rows))),
        np.concatenate((rows.probs, np.ones(added_rows))),
    )
    grown = replace(
        game,
        num_states=n,
        joint_kernel=joint,
        reward_1=np.concatenate((game.reward_1, rng.random((extra,) + game.reward_1.shape[1:]))),
        initial=np.concatenate((game.initial, np.zeros(extra))),
    )
    _, base = _drift(game, peers, phi, strip_terminal)

    def grow(peer, tail):
        return PeerPolicy(probs=np.concatenate((peer.probs, tail)), label=peer.label)

    def tail():
        probs = rng.random((extra, game.num_actions_2)) + 1e-3
        return probs / probs.sum(axis=1, keepdims=True)

    _, differing = _drift(grown, [grow(p, tail()) for p in peers], phi, strip_terminal)
    assert differing.episode_cores == base.episode_cores
    assert differing.individual == base.individual and differing.steps == base.steps
    same = tail()
    _, alike = _drift(grown, [grow(p, same) for p in peers], phi, strip_terminal)
    assert replace(alike, budget=base.budget) == base
    # NumPy adds a row of 8 or more entries in 8 partial sums, so once the kernel is that
    # wide, the dense L1 sum of a row with 3 or more differences may round differently
    _assert_deltas_close(alike.budget, base.budget)


RELATIONS = {
    "permuted-states": _state_relabelling,
    "focal-actions": _focal_relabelling,
    "peer-actions": _peer_relabelling,
    "reversed-schedule": _reversal,
    "unreachable-states": _unreachable_states,
}


@pytest.mark.parametrize("relation", sorted(RELATIONS))
@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["dense", "sparse"]), seed=st.integers(0, 2**32 - 1))
def test_relations_hold_on_small_games(relation, kind, seed):
    RELATIONS[relation](*_small_drift(kind, seed), strip_terminal=False, seed=seed)


@pytest.mark.parametrize("abstraction", ["identity", "coop-keydoor"])
@pytest.mark.parametrize("relation", sorted(RELATIONS))
@pytest.mark.parametrize("corridor", list(CORRIDORS))
def test_relations_hold_on_a_coop_drift(corridor, relation, abstraction):
    config, seed = CORRIDORS[corridor]
    RELATIONS[relation](*_coop_drift(config, abstraction), strip_terminal=True, seed=seed)


_PAIRS = [(s, a) for s in range(3) for a in (0, 1)] + [(s, TERMINAL) for s in range(3)]
# few names, so runs of equal names are common under collapse_runs
_NAMES = {pair: "T" if pair[1] == TERMINAL else "xyz"[(2 * pair[0] + pair[1]) % 3] for pair in _PAIRS}
REVERSAL_PHIS = {
    "identity": IDENTITY,
    "names": Abstraction(mapping=_NAMES),
    "collapsed": Abstraction(mapping=_NAMES, collapse_runs=True),
}


def _assert_reversal_reverses_the_core(family, phi, strip_terminal) -> None:
    forward = core(family, phi, strip_terminal=strip_terminal)
    backward = core([seq[::-1] for seq in family], phi, strip_terminal=strip_terminal)
    assert {member[::-1] for member in forward} == set(backward.members)


@pytest.mark.parametrize("phi", sorted(REVERSAL_PHIS))
@settings(max_examples=60, deadline=None)
@given(
    family=st.lists(st.lists(st.sampled_from(_PAIRS), max_size=10).map(tuple), min_size=1, max_size=5),
    strip_terminal=st.booleans(),
)
def test_reversing_every_word_reverses_the_core(phi, family, strip_terminal):
    _assert_reversal_reverses_the_core(family, REVERSAL_PHIS[phi], strip_terminal)


def test_reversal_reverses_the_core_of_two_long_words():
    # 2,033 members: far past what the brute-force oracle can enumerate
    rng = random.Random(1)
    family = ["".join(rng.choice("abcdefgh") for _ in range(40)) for _ in range(2)]
    assert len(core(family)) == 2033
    _assert_reversal_reverses_the_core(family, IDENTITY, strip_terminal=False)


@settings(max_examples=60, deadline=None)
@given(
    family=st.one_of(
        st.lists(st.text("abc", max_size=10), min_size=1, max_size=5),
        st.lists(st.lists(st.sampled_from(_PAIRS), max_size=10).map(tuple), min_size=1, max_size=5),
    ),
    data=st.data(),
)
def test_a_copy_of_a_word_with_symbols_inserted_changes_no_core(family, data):
    word = list(data.draw(st.sampled_from(family)))
    strings = isinstance(family[0], str)
    inserted = data.draw(st.lists(
        st.tuples(st.integers(0, 20), st.sampled_from(list("abcd") if strings else [*_PAIRS, (3, 0)])),
        min_size=1, max_size=4,
    ))
    for at, symbol in inserted:
        word.insert(at % (len(word) + 1), symbol)
    copy = "".join(word) if strings else tuple(word)
    assert core([*family, copy]).members == core(family).members


# ---------------------------------------------------------------------------
# A copied focal action under an abstraction that names it as the original
# ---------------------------------------------------------------------------


def _copied_action(rows: KernelRows, num_actions: int, action: int) -> tuple[KernelRows, list]:
    """``rows`` over (s, a, ...) with a copy of ``action`` appended as action ``num_actions``.

    Also returns the action of the original that each new action reads.
    """
    actions = [*range(num_actions), action]
    per_state = rows.num_rows // (rows.shape[0] * num_actions)
    old = np.arange(rows.shape[0])[:, None, None] * num_actions + np.array(actions)[:, None]
    shape = (rows.shape[0], num_actions + 1, *rows.shape[2:])
    return _rows_from(rows, (old * per_state + np.arange(per_state)).ravel(), shape), actions


def _names_with_copy(phi: Abstraction, num_actions: int, action: int) -> Abstraction:
    copies = {(s, num_actions): v for (s, a), v in phi.mapping.items() if a == action}
    return replace(phi, mapping={**phi.mapping, **copies})


def _three_names(num_states: int, num_actions: int, goals) -> dict:
    names = {(s, a): "xyz"[(2 * s + a) % 3] for s in range(num_states) for a in range(num_actions)}
    return names | {(g, TERMINAL): "T" for g in goals}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.integers(3, 6),
    num_actions=st.integers(1, 3),
    horizon=st.integers(2, 6),
    collapse_runs=st.booleans(),
    strip_terminal=st.booleans(),
)
def test_a_copied_action_named_as_the_original_changes_no_mdp_core(
    seed, num_states, num_actions, horizon, collapse_runs, strip_terminal
):
    mdp = random_mdp(num_states, num_actions, horizon, seed=seed)
    action = seed % num_actions
    rows, actions = _copied_action(mdp.rows, num_actions, action)
    copied = replace(mdp, num_actions=num_actions + 1, kernel=rows, reward=mdp.reward[:, actions])
    phi = Abstraction(mapping=_three_names(num_states, num_actions, mdp.goals),
                      collapse_runs=collapse_runs)
    cores = [
        build_graph(model, Symbols(names, strip_terminal)).core().members
        for model, names in ((mdp, phi), (copied, _names_with_copy(phi, num_actions, action)))
    ]
    assert cores[0] == cores[1]


def _cores_and_members(report) -> tuple:
    """What a copied action must not change: every core, and each step's common core and members."""
    steps = [
        (_members(step.common_core), [c.member for c in step.vanished], [c.member for c in step.gained])
        for step in report.steps
    ]
    return [_members(c) for c in report.episode_cores], _members(report.individual), steps


def _assert_copied_action_changes_no_drift_core(game, peers, phi, strip_terminal, action) -> None:
    rows, actions = _copied_action(game.rows, game.num_actions_1, action)
    copied = replace(game, num_actions_1=game.num_actions_1 + 1, joint_kernel=rows,
                     reward_1=game.reward_1[:, actions])
    _, base = _drift(game, peers, phi, strip_terminal)
    _, other = _drift(copied, peers, _names_with_copy(phi, game.num_actions_1, action), strip_terminal)
    assert _cores_and_members(other) == _cores_and_members(base)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["dense", "sparse"]), seed=st.integers(0, 2**32 - 1))
def test_a_copied_focal_action_changes_no_drift_core_of_a_small_game(kind, seed):
    game, peers, _ = _small_drift(kind, seed)
    phi = Abstraction(mapping=_three_names(game.num_states, game.num_actions_1, game.goals))
    _assert_copied_action_changes_no_drift_core(game, peers, phi, False, seed % game.num_actions_1)


def test_a_copied_focal_action_changes_no_drift_core_of_an_l8_coop_drift():
    game, peers, phi = _coop_drift(L8_COOP, "coop-keydoor")
    _assert_copied_action_changes_no_drift_core(game, peers, phi, True, action=1)
