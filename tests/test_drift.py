import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from functools import cached_property
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajcore import (
    IDENTITY,
    TERMINAL,
    Abstraction,
    ConsistencyError,
    CoreSet,
    DimensionMismatch,
    EmptySuccessSet,
    EpisodeSequence,
    KernelRows,
    MarkovGame,
    OracleScaleError,
    PeerPolicy,
    TabularMDP,
    ValidationError,
    brute_force_core,
    build_coop_keydoor,
    build_keydoor,
    core,
    drift_report,
    enumerate_successes,
    episode_cores,
    game_from_mdp,
    individual_core,
    induce_mdp,
    is_subsequence,
    kernel_distance,
    reward_distance,
    uniform_peer,
    variation_budget,
)
from trajcore import drift as drift_module
from trajcore import formats
from trajcore.drift import _certified_changes, _common_core, _rows_distance
from trajcore.graph import DEFAULT_SEQ_BUDGET, Symbols, build_graph, support_signature
from trajcore.envs import DEFAULT_COOP, DEFAULT_KEYDOOR, CoopKeyDoorConfig

from conftest import (
    count_calls,
    dense_distance,
    dense_fold,
    oracle_drift_report,
    random_game,
    random_peer,
    scattered_game,
    sparse_game,
    sparse_peer,
)


def _gate_game() -> MarkovGame:
    """Goal reachable only when the peer plays action 0."""
    joint = np.zeros((2, 1, 2, 2))
    joint[0, 0, 0] = [0.0, 1.0]
    joint[0, 0, 1] = [1.0, 0.0]
    joint[1, 0, :, 1] = 1.0
    return MarkovGame(
        num_states=2,
        num_actions_1=1,
        num_actions_2=2,
        joint_kernel=joint,
        reward_1=np.zeros((2, 1, 2)),
        horizon=3,
        goals=frozenset({1}),
        initial=np.array([1.0, 0.0]),
    )


def _mixer_game() -> MarkovGame:
    """Peer action 0 keeps [1,0] rows; action 1 mixes to [0.5,0.5]."""
    joint = np.zeros((2, 1, 2, 2))
    joint[0, 0, 0] = [1.0, 0.0]
    joint[0, 0, 1] = [0.5, 0.5]
    joint[1, 0, :, 1] = 1.0
    return MarkovGame(
        num_states=2,
        num_actions_1=1,
        num_actions_2=2,
        joint_kernel=joint,
        reward_1=np.zeros((2, 1, 2)),
        horizon=2,
        goals=frozenset({1}),
        initial=np.array([1.0, 0.0]),
    )


def _peer(row) -> PeerPolicy:
    probs = np.tile(np.asarray(row, dtype=float), (2, 1))
    return PeerPolicy(probs=probs, label=f"peer{row}")


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_kernel_distance_zero_and_hand_cases():
    base = np.zeros((2, 1, 2))
    base[0, 0] = [1.0, 0.0]
    base[1, 0] = [0.0, 1.0]
    assert kernel_distance(base, base) == 0.0

    shifted = np.array(base)
    shifted[0, 0] = [0.9, 0.1]
    assert abs(kernel_distance(shifted, base) - 0.2) < 1e-12

    flipped = np.array(base)
    flipped[0, 0] = [0.0, 1.0]
    assert abs(kernel_distance(flipped, base) - 2.0) < 1e-12


def test_kernel_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        kernel_distance(np.zeros((2, 1, 2)), np.zeros((2, 2, 2)))
    with pytest.raises(DimensionMismatch, match="kernel shapes differ"):
        _rows_distance(KernelRows.from_dense(np.eye(2)), KernelRows.from_dense(np.eye(3)))
    with pytest.raises(DimensionMismatch, match="reward shapes differ"):
        reward_distance(np.zeros((2, 1)), np.zeros((2, 2)))


def test_reward_distance_cases():
    base = np.zeros((3, 2))
    assert reward_distance(base, base) == 0.0
    single = np.array(base)
    single[1, 0] = 0.5
    assert abs(reward_distance(single, base) - 0.5) < 1e-12
    assert abs(reward_distance(base + 1.25, base) - 1.25) < 1e-12


# ---------------------------------------------------------------------------
# variation budget
# ---------------------------------------------------------------------------


# (state-0 rewards under peer actions 0 and 1, peer rows per episode, what leaves the float range)
FLOAT_RANGE_CASES = {
    "delta": ([1e308, -1e308], [[1.0, 0.0], [0.0, 1.0]], "reward delta at step 1 (episode 1 to 2)"),
    "total": ([1e308, 0.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
              "variation budget total at step 2 (episode 2 to 3)"),
}


@pytest.mark.parametrize("case", sorted(FLOAT_RANGE_CASES))
def test_a_budget_past_the_float_range_is_a_validation_error(case, tmp_path):
    rewards, rows, message = FLOAT_RANGE_CASES[case]
    reward_1 = np.zeros((2, 1, 2))
    reward_1[0, 0] = rewards
    game = replace(_mixer_game(), reward_1=reward_1)
    schedule = [_peer(row) for row in rows]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError, match=re.escape(message)):
            variation_budget(EpisodeSequence.from_schedule(game, schedule))
    formats.write_json(str(tmp_path / "game.json"), formats.game_to_payload(game))
    formats.write_json(str(tmp_path / "schedule.json"), formats.schedule_to_payload(schedule))
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONWARNINGS": "error::RuntimeWarning"}
    for verb in ("budget", "drift"):
        done = subprocess.run(
            [sys.executable, "-m", "trajcore.cli", verb, "game.json", "schedule.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 4, done.stderr
        assert done.stderr.startswith(f"trajcore: invalid input: {message}"), done.stderr
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr


def test_budget_constant_schedule_is_zero():
    game = _mixer_game()
    seq = EpisodeSequence.from_schedule(game, [_peer([0.3, 0.7])] * 4)
    report = variation_budget(seq)
    assert report.total == 0.0
    assert all(d == 0.0 for d in report.kernel_deltas + report.reward_deltas)


def test_an_empty_schedule_is_refused():
    with pytest.raises(ValueError, match="at least one episode"):
        EpisodeSequence.from_schedule(_gate_game(), [])


def test_budget_single_episode_is_empty():
    seq = EpisodeSequence.from_schedule(_mixer_game(), [_peer([1.0, 0.0])])
    report = variation_budget(seq)
    assert report.kernel_deltas == () and report.reward_deltas == ()
    assert report.total == 0.0


def test_budget_hand_value_two_episodes():
    seq = EpisodeSequence.from_schedule(
        _mixer_game(), [_peer([1.0, 0.0]), _peer([0.8, 0.2])]
    )
    report = variation_budget(seq)
    assert abs(report.total - 0.2) < 1e-12


def test_budget_additivity_three_episodes():
    seq = EpisodeSequence.from_schedule(
        _mixer_game(), [_peer([1.0, 0.0]), _peer([0.8, 0.2]), _peer([0.5, 0.5])]
    )
    report = variation_budget(seq)
    assert abs(report.kernel_deltas[0] - 0.2) < 1e-12
    assert abs(report.kernel_deltas[1] - 0.3) < 1e-12
    assert abs(report.total - 0.5) < 1e-12
    assert abs(report.total - sum(report.kernel_deltas + report.reward_deltas)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_budget_zero_iff_stationary(seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng, num_states=int(rng.integers(2, 5)))
    peer_a = random_peer(rng, game, "a")
    peer_b = random_peer(rng, game, "b")
    seq = EpisodeSequence.from_schedule(game, [peer_a, peer_b])
    report = variation_budget(seq)
    stationary = np.array_equal(
        seq.induced[0].kernel, seq.induced[1].kernel
    ) and np.array_equal(seq.induced[0].reward, seq.induced[1].reward)
    if stationary:
        assert report.total == 0.0
    else:
        assert report.total > 0.0
    constant = EpisodeSequence.from_schedule(game, [peer_a, peer_a])
    assert variation_budget(constant).total == 0.0


def test_budget_permutation_equivariance():
    rng = np.random.default_rng(42)
    game = random_game(rng, num_states=4)
    peers = [random_peer(rng, game, "a"), random_peer(rng, game, "b")]
    base = variation_budget(EpisodeSequence.from_schedule(game, peers)).total

    perm = np.array([2, 0, 3, 1])
    inv = np.argsort(perm)
    joint = game.joint_kernel[inv][:, :, :, :][..., inv]
    relabeled = MarkovGame(
        num_states=4,
        num_actions_1=game.num_actions_1,
        num_actions_2=game.num_actions_2,
        joint_kernel=joint,
        reward_1=game.reward_1[inv],
        horizon=game.horizon,
        goals=frozenset(int(perm[g]) for g in game.goals),
        initial=game.initial[inv],
    )
    relabeled_peers = [
        PeerPolicy(probs=p.probs[inv], label=p.label) for p in peers
    ]
    permuted = variation_budget(
        EpisodeSequence.from_schedule(relabeled, relabeled_peers)
    ).total
    assert abs(base - permuted) < 1e-12


# ---------------------------------------------------------------------------
# episode cores and drift reports
# ---------------------------------------------------------------------------


def test_constant_schedule_has_identical_cores_and_no_drift():
    from dataclasses import replace

    game, schedule, phi = build_coop_keydoor(
        replace(DEFAULT_COOP, peer_modes=("helper", "helper"))
    )
    seq = EpisodeSequence.from_schedule(game, schedule)
    cores = episode_cores(seq, phi=phi)
    assert cores[0] is not None and cores[0].members == cores[1].members
    report = drift_report(seq, phi=phi)
    assert report.budget.total == 0.0
    step = report.steps[0]
    assert step.vanished == () and step.gained == ()
    assert step.common_core.members == cores[0].members
    assert set(step.literal_intersection) == set(cores[0].members)


def test_empty_episode_is_marked_not_fatal():
    game = _gate_game()
    open_peer = _peer([1.0, 0.0])
    closed_peer = _peer([0.0, 1.0])
    seq = EpisodeSequence.from_schedule(game, [open_peer, closed_peer])
    cores = episode_cores(seq)
    assert cores[0] is not None and cores[1] is None
    report = drift_report(seq)
    assert report.episode_cores[1] is None
    step = report.steps[0]
    assert step.common_core is None and step.common_within_individual is None
    assert step.vanished == () and step.gained == ()
    assert report.budget.total > 0.0


def test_coop_drift_report_certifies_vanished_prototype():
    game, schedule, phi = build_coop_keydoor(DEFAULT_COOP)
    seq = EpisodeSequence.from_schedule(game, schedule)
    report = drift_report(seq, phi=phi, strip_terminal=True)

    prototype = ("drop_key_for_peer", "peer_reaches_door", "peer_opens_door")
    core1 = report.episode_cores[0]
    assert any(is_subsequence(prototype, member) for member in core1.members)

    step = report.steps[0]
    assert step.vanished
    success_2 = enumerate_successes(seq.induced[1])
    for change in step.vanished:
        assert change.witness in success_2
        assert not is_subsequence(change.member, change.witness_image)
    assert any(is_subsequence(prototype, c.member) for c in step.vanished)
    assert report.budget.total > 0.0

    # the shared structure across both episodes embeds in the individual core
    assert step.common_within_individual is True
    for member in step.common_core.members:
        assert any(is_subsequence(member, big) for big in report.individual.members)

    # every cross-episode common member embeds in every success of both episodes
    from trajcore import apply_abstraction

    for member in step.common_core.members:
        for mdp in seq.induced:
            for traj in enumerate_successes(mdp):
                image = tuple(
                    s
                    for s in apply_abstraction(traj, phi)
                    if not phi.is_terminal_symbol(s)
                )
                assert is_subsequence(member, image)


def test_individual_core_of_a_game_where_nothing_succeeds_raises():
    # the goal is one step from the start, past a horizon of 1
    with pytest.raises(EmptySuccessSet):
        individual_core(replace(_gate_game(), horizon=1))


def test_individual_core_of_degenerate_game_matches_single_agent():
    mdp, phi = build_keydoor(DEFAULT_KEYDOOR)
    game = game_from_mdp(mdp)
    solo = individual_core(game, phi=phi)
    direct = core(enumerate_successes(mdp), phi=phi)
    assert solo.members == direct.members


def test_uniform_peer_has_full_support():
    game = _gate_game()
    peer = uniform_peer(game)
    assert peer.probs.shape == (2, 2)
    assert np.allclose(peer.probs, 0.5)


# ---------------------------------------------------------------------------
# one pass per episode
# ---------------------------------------------------------------------------


def test_from_schedule_validates_the_game_once(monkeypatch):
    # once, as it is built: neither the schedule nor the analysis validates it again
    calls = count_calls(monkeypatch, "validate_game")
    rng = np.random.default_rng(7)
    game = random_game(rng)
    schedule = [random_peer(rng, game) for _ in range(5)]
    seq = EpisodeSequence.from_schedule(game, schedule)
    drift_report(seq)
    assert seq.num_episodes == 5
    assert len(calls) == 1


def test_drift_report_builds_one_graph_per_signature_and_enumerates_nothing(monkeypatch):
    rng = np.random.default_rng(11)
    game = sparse_game(rng)
    gate = PeerPolicy(probs=np.tile([1.0, 0.0], (game.num_states, 1)), label="gate")
    peers = [random_peer(rng, game) for _ in range(3)]
    # two signatures (a full-support peer, or one that never plays action 1), repeated
    seq = EpisodeSequence.from_schedule(game, [peers[0], gate, peers[1], gate, peers[2]])
    expected = drift_report(seq)
    enumerated = count_calls(monkeypatch, "enumerate_successes")
    built = count_calls(monkeypatch, "build_graph")
    report = drift_report(seq)
    signatures = {support_signature(mdp) for mdp in seq.induced}
    assert len(signatures) == 2
    # one per distinct signature: the full-support peers induce the uniform
    # peer's support, so the individual core reuses their graph
    assert support_signature(seq.induced[0]) == support_signature(
        induce_mdp(game, uniform_peer(game))
    )
    assert enumerated == [] and len(built) == len(signatures)
    assert report == expected == oracle_drift_report(seq)


def test_drift_report_measures_each_support_pair_once(monkeypatch):
    rng = np.random.default_rng(736)
    game = sparse_game(rng)
    gate = PeerPolicy(probs=np.tile([1.0, 0.0], (game.num_states, 1)), label="gate")
    peers = [random_peer(rng, game) for _ in range(3)]
    # two signatures, A B A B A, so every step crosses the same unordered pair
    seq = EpisodeSequence.from_schedule(game, [peers[0], gate, peers[1], gate, peers[2]])
    assert len({support_signature(mdp) for mdp in seq.induced}) == 2
    # an action-level abstraction, under which the two cores share a member
    mapping = {(s, a): f"a{a}" for s in range(game.num_states) for a in range(2)}
    mapping.update({(g, TERMINAL): "T" for g in game.goals})
    phi = Abstraction(mapping=mapping)
    certified = count_calls(monkeypatch, "_certified_changes")
    common = count_calls(monkeypatch, "_common_core")
    report = drift_report(seq, phi)
    first, steps = report.steps[0], report.steps
    assert first.literal_intersection and first.gained
    assert all(step.literal_intersection is first.literal_intersection for step in steps)
    assert all(step.common_core is first.common_core for step in steps)
    assert steps[1].vanished is first.gained and steps[1].gained is first.vanished
    assert [step.index for step in steps] == [1, 2, 3, 4]
    assert len(certified) == 2 and len(common) == 1
    assert report == oracle_drift_report(seq, phi)


FAMILY_RULES = [
    (phi, strip) for phi in (IDENTITY, Abstraction(collapse_runs=True)) for strip in (False, True)
]
string_families = st.lists(st.lists(st.sampled_from("abc"), max_size=6).map(tuple),
                           min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(string_families, string_families, st.sampled_from(FAMILY_RULES))
@example([("a",), ("b",)], [("a", "b")], (IDENTITY, False))  # a core with no members
@example([("a", "b"), ("b", "a")], [("b", "a", "b")], (IDENTITY, False))  # several members
@example([(), ("a",)], [("a",)], (IDENTITY, True))  # an empty word
def test_the_common_core_of_two_cores_is_the_core_of_both_families(a, b, rules):
    phi, strip = rules
    expected = core(a + b, phi, strip)
    got = _common_core(core(a, phi, strip), core(b, phi, strip), DEFAULT_SEQ_BUDGET)
    assert got == expected == brute_force_core(a + b, phi, strip)


def _walk_game(rng: np.random.Generator, num_states: int = 6, horizon: int = 5) -> MarkovGame:
    """A game of 1-2 focal actions whose rows step back 1 or ahead 1-2 cells to 1-2 targets.

    The last state is an absorbing goal, and play starts at state 0 or at
    states 0 and 1.  Paths can visit the cells in crossing orders, so a
    success set can have several maximal common subsequences.
    """
    goal, focal = num_states - 1, int(rng.integers(1, 3))
    joint = np.zeros((num_states, focal, 2, num_states))
    for s in range(goal):
        moves = [m for m in (s - 1, s + 1, s + 2) if 0 <= m <= goal]
        for row in joint[s].reshape(-1, num_states):
            targets = rng.choice(moves, size=1 if rng.random() < 0.7 else 2, replace=False)
            row[targets] = rng.random(len(targets)) + 1e-3
            row /= row.sum()
    joint[goal, :, :, goal] = 1.0
    starts = [0] if rng.random() < 0.5 else [0, 1]
    return MarkovGame(
        num_states=num_states, num_actions_1=focal, num_actions_2=2, joint_kernel=joint,
        reward_1=np.zeros((num_states, focal, 2)), horizon=horizon, goals=frozenset({goal}),
        initial=np.eye(num_states)[starts].mean(axis=0),
    )


def _walk_case(seed: int) -> tuple[EpisodeSequence, list]:
    """Two sparse peers folded into one drawn walk game, and the rules to mine it under.

    The rules are the identity and a drawn mapping onto three names, each
    with and without ``collapse_runs`` and ``strip_terminal``.
    """
    rng = np.random.default_rng(seed)
    game = _walk_game(rng)
    seq = EpisodeSequence.from_schedule(game, [sparse_peer(rng, game) for _ in range(2)])
    mapping = {(s, a): "xyz"[rng.integers(3)]
               for s in range(game.num_states) for a in range(game.num_actions_1)}
    mapping.update({(g, TERMINAL): "T" for g in game.goals})
    phis = (IDENTITY, Abstraction(collapse_runs=True),
            Abstraction(mapping=mapping), Abstraction(mapping=mapping, collapse_runs=True))
    return seq, [(phi, strip) for phi in phis for strip in (False, True)]


def test_the_walk_examples_hold_cores_with_no_members_and_with_several():
    sizes = set()
    for seed in (10, 168):
        seq, rules = _walk_case(seed)
        sizes.update(len(c) for phi, strip in rules for c in episode_cores(seq, phi, strip))
    assert {0, 2} <= sizes


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(10)  # episode cores with no members
@example(168)  # episode cores with two members
def test_the_common_core_of_two_folded_peers_is_the_core_of_both_success_sets(seed):
    seq, rules = _walk_case(seed)
    a, b = (enumerate_successes(mdp) for mdp in seq.induced)
    both = a.trajectories + b.trajectories
    for phi, strip in rules:
        if not (len(a) and len(b)):
            assert drift_report(seq, phi, strip).steps[0].common_core is None
            continue
        expected = core(both, phi, strip)
        got = _common_core(core(a, phi, strip), core(b, phi, strip), DEFAULT_SEQ_BUDGET)
        assert got == expected == drift_report(seq, phi, strip).steps[0].common_core
        try:
            assert expected == brute_force_core(both, phi, strip)
        except OracleScaleError:
            pass


def _fork_game() -> MarkovGame:
    """From start 0 the one focal action goes to x = 1 or y = 4, each with 1/2.

    y goes to the goal 2.  x goes to the sink 3 under peer action 0 and to
    the goal under peer action 1.  The goal and the sink self-loop.
    """
    joint = np.zeros((5, 1, 2, 5))
    joint[0, 0, :, [1, 4]] = 0.5
    joint[1, 0, 0, 3] = joint[1, 0, 1, 2] = 1.0
    joint[[2, 3, 4], 0, :, [2, 3, 2]] = 1.0
    return MarkovGame(
        num_states=5, num_actions_1=1, num_actions_2=2, joint_kernel=joint,
        reward_1=np.zeros((5, 1, 2)), horizon=3, goals=frozenset({2}),
        initial=np.eye(5)[0],
    )


def test_a_peer_change_at_states_off_the_previous_graph_can_move_the_core():
    # a rule that skips the walk when the peer changes only at states the
    # previous graph does not hold would keep episode 1's core here
    game = _fork_game()
    stay = PeerPolicy(probs=np.tile([1.0, 0.0], (5, 1)), label="stay")
    switched = PeerPolicy(probs=np.where(np.arange(5)[:, None] == 1, [0.0, 1.0], stay.probs),
                          label="switched at x")
    seq = EpisodeSequence.from_schedule(game, [stay, switched])
    visited = {s for t in enumerate_successes(seq.induced[0]) for s, _ in t.pairs()}
    assert visited == {0, 2, 4}
    report = drift_report(seq)
    assert [c.member for c in report.steps[0].vanished] == [((0, 0), (4, 0), (2, TERMINAL))]
    assert report == oracle_drift_report(seq)


def test_drift_report_mines_the_uniform_peer_with_the_episodes(monkeypatch):
    rng = np.random.default_rng(11)
    game = sparse_game(rng)
    seq = EpisodeSequence.from_schedule(game, [uniform_peer(game)] * 3)
    built = count_calls(monkeypatch, "build_graph")
    report = drift_report(seq)
    assert len(built) == 1
    assert report.individual is not None
    assert report == oracle_drift_report(seq)


def test_drift_path_validates_each_induced_mdp_once(monkeypatch):
    rng = np.random.default_rng(13)
    game = random_game(rng)
    schedule = [random_peer(rng, game) for _ in range(5)]
    calls = count_calls(monkeypatch, "validate_mdp")
    seq = EpisodeSequence.from_schedule(game, schedule)
    drift_report(seq)
    # one per distinct induced MDP, as it is folded, plus one as the uniform peer's is folded
    assert len(calls) == seq.num_episodes + 1


def test_drift_builds_the_support_of_each_induced_mdp_once(monkeypatch):
    rng = np.random.default_rng(11)
    game = sparse_game(rng)
    gate = PeerPolicy(probs=np.tile([1.0, 0.0], (game.num_states, 1)), label="gate")
    schedule = [random_peer(rng, game), gate, random_peer(rng, game), gate]
    seq = EpisodeSequence.from_schedule(game, schedule)
    built = []
    plain = TabularMDP.__dict__["_support"].func

    def counted(mdp):
        built.append(mdp)
        return plain(mdp)

    support = cached_property(counted)
    support.__set_name__(TabularMDP, "_support")
    monkeypatch.setattr(TabularMDP, "_support", support)
    drift_report(seq)
    # the two gate episodes share one induced MDP
    distinct = len({id(mdp) for mdp in seq.induced})
    assert distinct == 3
    # one per distinct induced MDP plus one for the uniform peer; the signature,
    # the goal distances and the graph walk all read the same kept support
    assert len(built) == distinct + 1
    assert all(any(mdp is other for other in built) for mdp in seq.induced)
    drift_report(seq)  # the episodes keep theirs; only the uniform peer is folded anew
    assert len(built) == distinct + 2


def _repeating_schedule(rng, game) -> "list[PeerPolicy]":
    """Eight episodes drawn from five peer tables, each a copy of its own under its own label.

    The tables are a gate that never plays action 1, the same gate with -0.0
    for 0.0 (equal values, other bytes), two sparse peers and a full-support
    one.  The first pick recurs at once and again at the end.
    """
    gate = np.tile([1.0, 0.0], (game.num_states, 1))
    pool = [gate, np.copysign(gate, [1.0, -1.0]), sparse_peer(rng, game).probs,
            sparse_peer(rng, game).probs, random_peer(rng, game).probs]
    picks = [int(k) for k in rng.integers(0, len(pool), 6)]
    picks = [picks[0], picks[0], *picks[1:], picks[0]]
    return [PeerPolicy(probs=pool[k].copy(), label=f"e{n}") for n, k in enumerate(picks, start=1)]


def _tables(schedule) -> set:
    return {(peer.probs.shape, peer.probs.tobytes()) for peer in schedule}


@pytest.mark.parametrize("seed", range(12))
def test_episodes_that_share_a_fold_report_what_one_fold_per_episode_reports(seed):
    rng = np.random.default_rng(seed)
    game = sparse_game(rng)
    schedule = _repeating_schedule(rng, game)
    shared = EpisodeSequence.from_schedule(game, schedule)
    fresh = EpisodeSequence(game=game, schedule=tuple(schedule),
                            induced=tuple(induce_mdp(game, peer) for peer in schedule))
    assert len({id(mdp) for mdp in shared.induced}) == len(_tables(schedule)) < len(schedule)
    assert shared.induced[0] is shared.induced[1] and shared.induced[0] is shared.induced[-1]
    budget = variation_budget(shared)
    assert budget.kernel_deltas[0] == 0.0
    digests = [formats.digest(formats.budget_to_payload(variation_budget(seq))) for seq in (shared, fresh)]
    assert digests[0] == digests[1]
    for strip_terminal in (False, True):
        reports = [drift_report(seq, strip_terminal=strip_terminal) for seq in (shared, fresh)]
        digests = [formats.digest(formats.drift_to_payload(report)) for report in reports]
        assert digests[0] == digests[1]


def test_each_distinct_peer_table_is_folded_and_validated_once(monkeypatch):
    rng = np.random.default_rng(5)
    game = sparse_game(rng)
    schedule = _repeating_schedule(rng, game)
    folded = count_calls(monkeypatch, "induce_mdp")
    peers = count_calls(monkeypatch, "validate_peer")
    validated = count_calls(monkeypatch, "validate_mdp")
    seq = EpisodeSequence.from_schedule(game, schedule)
    # each induced MDP validates itself as it is folded, and the analysis does not again
    assert len(folded) == len(peers) == len(validated) == len(_tables(schedule))
    drift_report(seq)
    # plus one of each for the uniform peer of the individual core
    assert len(folded) == len(peers) == len(validated) == len(_tables(schedule)) + 1


def test_a_peer_table_with_equal_bytes_in_another_shape_is_not_shared():
    rng = np.random.default_rng(3)
    game = random_game(rng, num_states=2, num_actions_2=4)
    peer = random_peer(rng, game)
    transposed = PeerPolicy(probs=peer.probs.reshape(4, 2), label=peer.label)
    assert transposed.probs.tobytes() == peer.probs.tobytes()
    with pytest.raises(DimensionMismatch, match=r"peer table shape \(4, 2\), expected \(2, 4\)"):
        EpisodeSequence.from_schedule(game, [peer, transposed])


def test_certified_change_without_witness_is_a_consistency_error(chain_mdp):
    # every success of the chain embeds ((0, 1),), so the graph walk finds no witness
    graph = build_graph(chain_mdp, Symbols(IDENTITY, False))
    lost = CoreSet(members=(((0, 1),),))
    assert graph.witness(lost.members[0]) is None
    with pytest.raises(ConsistencyError):
        _certified_changes(lost, CoreSet(members=()), graph)


# Results digest of drift_report(..., phi, strip_terminal=True) on this layout,
# computed by the unpruned search with a 100M-node budget; the unpruned
# search trips a 10M-node guard here.
L5_K0_D2_G3_S1_P0_H9_DIGEST = "98f3798a49b7ec65fbfdd985cfeb23cffc2a3ac27e02a12b685f9b4d12fa5b28"


def test_horizon_9_coop_layout_drifts_under_the_default_budget():
    cfg = replace(DEFAULT_COOP, corridor_length=5, key_pos=0, door_pos=2, goal_pos=3,
                  start_pos=1, peer_start=0, horizon=9)
    game, schedule, phi = build_coop_keydoor(cfg)
    report = drift_report(EpisodeSequence.from_schedule(game, schedule), phi=phi,
                          strip_terminal=True)
    assert formats.digest(formats.drift_to_payload(report)) == L5_K0_D2_G3_S1_P0_H9_DIGEST


# Results digests of drift_report(..., strip_terminal=True) on the 100-episode
# L12 H40 schedule below, under the corridor's abstraction and under the
# identity; computed when each step mined the union of its two support graphs.
L12_H40_DRIFT_DIGESTS = {
    "coop": "c820eeb1b8764fab617e682c715df55869758576a922ff8715170c6ff40ada63",
    "identity": "3e0b677978167ce3fb278cacb8d73521f06d0e8ce3af5208ef62b2a97cb3de6b",
}


def test_a_100_episode_l12_schedule_drifts_to_its_pinned_digests():
    game, (helper, independent), phi = build_coop_keydoor(CoopKeyDoorConfig(12, 1, 5, 9, 2, 2, 40))
    # the helper, then 99 episodes, each the last one's table with the rows of
    # 5 drawn states set to the helper's row or the independent peer's
    rng = np.random.default_rng(0)
    probs = helper.probs.copy()
    peers = [PeerPolicy(probs=probs, label="e1")]
    for episode in range(2, 101):
        probs = probs.copy()
        for s in rng.choice(game.num_states, 5, replace=False):
            probs[s] = helper.probs[s] if rng.random() < 0.5 else independent.probs[s]
        peers.append(PeerPolicy(probs=probs, label=f"e{episode}"))
    seq = EpisodeSequence.from_schedule(game, peers)
    for name, abstraction in (("coop", phi), ("identity", IDENTITY)):
        report = drift_report(seq, abstraction, strip_terminal=True)
        assert formats.digest(formats.drift_to_payload(report)) == L12_H40_DRIFT_DIGESTS[name]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.sampled_from([8, 40, 129, 200, 300]),
    num_actions_1=st.integers(1, 3),
    num_actions_2=st.integers(1, 4),
    episodes=st.integers(3, 5),
)
def test_rows_fold_and_budget_equal_the_dense_oracles_bit_for_bit(
    seed, num_states, num_actions_1, num_actions_2, episodes
):
    # rows of 3-8 scattered non-zeros, and peers that give some actions
    # probability 0; past 128 states NumPy sums each dense row pairwise
    rng = np.random.default_rng(seed)
    game = scattered_game(rng, num_states, num_actions_1, num_actions_2)
    schedule = []
    for _ in range(episodes):
        probs = rng.random((num_states, num_actions_2))
        probs[rng.random(probs.shape) < 0.4] = 0.0
        probs[probs.sum(axis=1) == 0, 0] = 1.0
        schedule.append(PeerPolicy(probs=probs / probs.sum(axis=1, keepdims=True)))
    # a step that changes no row, then one that keeps every row's targets
    # and changes only probabilities
    schedule[1] = schedule[0]
    probs = np.where(schedule[1].probs > 0, rng.random(schedule[1].probs.shape) + 0.1, 0.0)
    schedule[2] = PeerPolicy(probs=probs / probs.sum(axis=1, keepdims=True))
    seq = EpisodeSequence.from_schedule(game, schedule)
    dense = [dense_fold(game, peer) for peer in schedule]
    for mdp, kernel in zip(seq.induced, dense):
        assert np.array_equal(mdp.kernel, kernel)
    expected = [dense_distance(b, a) for a, b in zip(dense, dense[1:])]
    assert all(
        got == want for got, want in zip(variation_budget(seq).kernel_deltas, expected, strict=True)
    )
    # the same when the changed rows are made dense a few at a time
    with mock.patch.object(drift_module, "_BLOCK_ENTRIES", 5 * num_states):
        assert variation_budget(seq).kernel_deltas == tuple(expected)


def test_rows_with_three_differences_are_summed_as_the_dense_kernel_sums_them():
    # row 0 differs at targets 0, 4 and 5 by 0.1, 0.2 and 0.3 (the key at 4
    # is stored only in the previous kernel); NumPy's dense row sum adds
    # 0.1 + (0.2 + 0.3), while adding left to right gives 0.6000000000000001
    kernel, previous = np.zeros((2, 1, 8)), np.zeros((2, 1, 8))
    kernel[0, 0, [0, 5]] = [0.1, 0.3]
    previous[0, 0, 4] = 0.2
    kernel[1, 0, 7] = previous[1, 0, 7] = 1.0
    want = kernel_distance(kernel, previous)
    assert want == 0.6 != 0.1 + 0.2 + 0.3
    assert _rows_distance(KernelRows.from_dense(kernel), KernelRows.from_dense(previous)) == want


def test_rows_with_at_most_two_differences_are_never_made_dense(monkeypatch):
    kernel, previous = np.zeros((3, 1, 8)), np.zeros((3, 1, 8))
    # mass moves from target 1 to 2; probabilities change at kept targets; no change
    previous[0, 0, [0, 1]], kernel[0, 0, [0, 2]] = [0.5, 0.5], [0.5, 0.5]
    previous[1, 0, [3, 6]], kernel[1, 0, [3, 6]] = [0.3, 0.7], [0.1, 0.9]
    previous[2, 0, 7] = kernel[2, 0, 7] = 1.0
    want = kernel_distance(kernel, previous)
    rows = KernelRows.from_dense(kernel), KernelRows.from_dense(previous)

    def refuse(self, rows):
        raise AssertionError("a row with at most two differences was made dense")

    monkeypatch.setattr(KernelRows, "block", refuse)
    assert _rows_distance(*rows) == want


def test_a_game_plans_its_fold_once_for_every_peer(monkeypatch):
    rng = np.random.default_rng(17)
    game = sparse_game(rng)
    planned = count_calls(monkeypatch, "_plan_fold")
    seq = EpisodeSequence.from_schedule(game, [sparse_peer(rng, game) for _ in range(24)])
    drift_report(seq)
    # the 24 episodes and the uniform peer of the individual core share one plan
    assert len(planned) == 1
    # a game built from equal entries plans its own fold, to equal rows
    twin = MarkovGame(
        num_states=game.num_states,
        num_actions_1=game.num_actions_1,
        num_actions_2=game.num_actions_2,
        joint_kernel=KernelRows(game.rows.shape, game.rows.offsets.copy(),
                                game.rows.targets.copy(), game.rows.probs.copy()),
        reward_1=game.reward_1,
        horizon=game.horizon,
        goals=game.goals,
        initial=game.initial,
    )
    folded, again = (induce_mdp(g, seq.schedule[0]).rows for g in (game, twin))
    assert len(planned) == 2
    assert folded.shape == again.shape
    for field in ("offsets", "targets", "probs"):
        assert np.array_equal(getattr(folded, field), getattr(again, field))


def test_drift_and_budget_on_a_version_2_game_build_no_dense_kernel(tmp_path, monkeypatch, capsys):
    from trajcore.cli import main

    game, schedule, phi = build_coop_keydoor(DEFAULT_COOP)
    paths = {name: str(tmp_path / f"{name}.json") for name in ("game", "schedule", "phi")}
    formats.write_json(paths["game"], formats.game_to_payload(game))
    formats.write_json(paths["schedule"], formats.schedule_to_payload(schedule))
    formats.write_json(paths["phi"], formats.abstraction_to_payload(phi))
    assert formats.read_json(paths["game"])["version"] == 2

    def refuse(rows):
        raise AssertionError("a dense kernel was built")

    monkeypatch.setattr(KernelRows, "dense", refuse)
    with pytest.raises(AssertionError):
        game.joint_kernel
    drift_argv = ["drift", paths["game"], paths["schedule"], "--phi", paths["phi"],
                  "--strip-terminal", "--out", str(tmp_path / "out.json")]
    assert main(drift_argv) == 0
    assert main(["budget", paths["game"], paths["schedule"]]) == 0
    assert "internal error" not in capsys.readouterr().err
