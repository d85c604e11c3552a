from dataclasses import replace

import numpy as np
import pytest

from trajcore import (
    ConfigError,
    CoopKeyDoorConfig,
    EpisodeSequence,
    KeyDoorConfig,
    apply_abstraction,
    build_coop_keydoor,
    build_keydoor,
    core,
    enumerate_successes,
    episode_cores,
    is_subsequence,
    validate_game,
    validate_mdp,
)
from trajcore.envs import (
    DEFAULT_COOP,
    DEFAULT_KEYDOOR,
    random_mdp,
    shortest_solution_actions,
)

from conftest import count_calls

PATTERN = ("find_key", "reach_door", "open_door")

SWEEP = [
    KeyDoorConfig(corridor_length=3, key_pos=0, door_pos=1, goal_pos=2, start_pos=0, horizon=5),
    KeyDoorConfig(corridor_length=4, key_pos=0, door_pos=2, goal_pos=3, start_pos=1, horizon=8),
    KeyDoorConfig(corridor_length=5, key_pos=1, door_pos=3, goal_pos=4, start_pos=2, horizon=7),
    KeyDoorConfig(corridor_length=6, key_pos=0, door_pos=3, goal_pos=5, start_pos=2, horizon=10),
]


def test_default_keydoor_is_valid_and_solvable():
    mdp, phi = build_keydoor(DEFAULT_KEYDOOR)
    validate_mdp(mdp)
    successes = enumerate_successes(mdp)
    assert len(successes) > 0
    mined = core(successes, phi=phi, strip_terminal=True)
    assert any(is_subsequence(PATTERN, member) for member in mined.members)


@pytest.mark.parametrize("cfg", SWEEP, ids=lambda c: f"L{c.corridor_length}")
def test_sweep_every_success_embeds_pattern_in_order(cfg):
    mdp, phi = build_keydoor(cfg)
    successes = enumerate_successes(mdp)
    assert len(successes) > 0
    for traj in successes:
        assert is_subsequence(PATTERN, apply_abstraction(traj, phi))


def test_horizon_below_shortest_solution_is_config_error():
    cfg = replace(DEFAULT_KEYDOOR, horizon=shortest_solution_actions(DEFAULT_KEYDOOR))
    with pytest.raises(ConfigError):
        build_keydoor(cfg)


def test_exact_minimal_horizon_gives_only_shortest_successes():
    min_actions = shortest_solution_actions(DEFAULT_KEYDOOR)
    cfg = replace(DEFAULT_KEYDOOR, horizon=min_actions + 1)
    mdp, phi = build_keydoor(cfg)
    successes = enumerate_successes(mdp)
    assert len(successes) >= 1
    for traj in successes:
        assert traj.num_action_steps == min_actions
        assert is_subsequence(PATTERN, apply_abstraction(traj, phi))


def test_keydoor_rejects_bad_layouts():
    with pytest.raises(ConfigError):
        build_keydoor(replace(DEFAULT_KEYDOOR, key_pos=3))  # key beyond door
    with pytest.raises(ConfigError):
        build_keydoor(replace(DEFAULT_KEYDOOR, goal_pos=1))  # goal before door
    with pytest.raises(ConfigError):
        build_keydoor(replace(DEFAULT_KEYDOOR, door_pos=9))  # outside corridor


@pytest.mark.parametrize(
    "change,message",
    [
        (dict(corridor_length=1, key_pos=0, door_pos=0, goal_pos=0, start_pos=0),
         "corridor length must be >= 2, got 1"),
        (dict(corridor_length=5, key_pos=3, goal_pos=4), "key must lie on the near side of the door"),
    ],
    ids=["length-1", "key-past-the-door"],
)
def test_keydoor_config_errors_say_what_is_wrong(change, message):
    with pytest.raises(ConfigError, match=message):
        build_keydoor(replace(DEFAULT_KEYDOOR, **change))


def test_keydoor_abstraction_is_total():
    mdp, phi = build_keydoor(DEFAULT_KEYDOOR)
    for state in range(mdp.num_states):
        for action in range(mdp.num_actions):
            assert (state, action) in phi.mapping
    goal = next(iter(mdp.goals))
    assert phi.mapping[(goal, -1)] == "terminal"


# ---------------------------------------------------------------------------
# cooperative variant
# ---------------------------------------------------------------------------


def test_default_coop_builds_and_both_modes_succeed():
    game, schedule, phi = build_coop_keydoor(DEFAULT_COOP)
    validate_game(game)
    assert [p.label for p in schedule] == ["helper-e1", "independent-e2"]
    seq = EpisodeSequence.from_schedule(game, schedule)
    for mdp in seq.induced:
        validate_mdp(mdp)
        assert len(enumerate_successes(mdp)) > 0


def test_coop_cores_differ_while_game_is_fixed():
    game, schedule, phi = build_coop_keydoor(DEFAULT_COOP)
    seq = EpisodeSequence.from_schedule(game, schedule)
    cores = episode_cores(seq, phi=phi)
    assert cores[0].members != cores[1].members


def test_helper_mode_requires_the_hand_off():
    game, schedule, phi = build_coop_keydoor(DEFAULT_COOP)
    helper_mdp = EpisodeSequence.from_schedule(game, schedule).induced[0]
    for traj in enumerate_successes(helper_mdp):
        image = apply_abstraction(traj, phi)
        assert is_subsequence(
            ("drop_key_for_peer", "peer_reaches_door", "peer_opens_door"), image
        )


def test_independent_mode_admits_success_without_hand_off():
    game, schedule, phi = build_coop_keydoor(DEFAULT_COOP)
    independent_mdp = EpisodeSequence.from_schedule(game, schedule).induced[1]
    images = [
        apply_abstraction(t, phi) for t in enumerate_successes(independent_mdp)
    ]
    assert any("drop_key_for_peer" not in image for image in images)
    # the peer still opens the door in every success
    assert all("peer_opens_door" in image for image in images)


def test_coop_rejects_unsolvable_and_bad_configs():
    with pytest.raises(ConfigError):
        build_coop_keydoor(replace(DEFAULT_COOP, horizon=4))
    with pytest.raises(ConfigError):
        build_coop_keydoor(replace(DEFAULT_COOP, peer_start=3))
    with pytest.raises(ConfigError):
        build_coop_keydoor(replace(DEFAULT_COOP, peer_modes=("surprising",)))
    with pytest.raises(ConfigError):
        build_coop_keydoor(replace(DEFAULT_COOP, peer_modes=()))
    # the mirror image of the default layout is a valid single-agent layout, but not a cooperative one
    mirrored = replace(DEFAULT_COOP, key_pos=2, door_pos=1, goal_pos=0, start_pos=2, peer_start=2)
    with pytest.raises(ConfigError, match="requires key < door < goal"):
        build_coop_keydoor(mirrored)


def test_coop_abstraction_is_total_over_states_and_terminals():
    game, _schedule, phi = build_coop_keydoor(DEFAULT_COOP)
    for state in range(game.num_states):
        for a1 in range(game.num_actions_1):
            assert (state, a1) in phi.mapping
    for goal in game.goals:
        assert phi.mapping[(goal, -1)] == "terminal"


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def test_random_mdp_is_valid_absorbing_and_reachable():
    for seed in range(25):
        mdp = random_mdp(num_states=6, num_actions=2, horizon=5, seed=seed)
        validate_mdp(mdp)
        assert mdp.goal_absorbing
        assert len(enumerate_successes(mdp)) > 0


def test_random_mdp_is_deterministic_per_seed():
    a = random_mdp(num_states=5, num_actions=3, horizon=4, seed=99)
    b = random_mdp(num_states=5, num_actions=3, horizon=4, seed=99)
    assert np.array_equal(a.kernel, b.kernel)
    assert np.array_equal(a.reward, b.reward)
    assert np.array_equal(a.initial, b.initial)
    c = random_mdp(num_states=5, num_actions=3, horizon=4, seed=100)
    assert not np.array_equal(a.kernel, c.kernel)


def test_random_mdp_rejects_degenerate_sizes():
    with pytest.raises(ConfigError):
        random_mdp(num_states=1, num_actions=1, horizon=1, seed=0)


def test_random_mdp_gives_up_after_1000_draws(monkeypatch):
    # at horizon 1 no goal is reachable, so every draw is rejected
    calls = count_calls(monkeypatch, "goal_reachable")
    message = r"could not sample .* for seed 0 \(4 states, 2 actions, horizon 1\)"
    with pytest.raises(ConfigError, match=message):
        random_mdp(num_states=4, num_actions=2, horizon=1, seed=0)
    assert len(calls) == 1000


def test_build_coop_keydoor_checks_feasibility_without_enumerating(monkeypatch):
    calls = count_calls(monkeypatch, "enumerate_successes")
    build_coop_keydoor(DEFAULT_COOP)
    with pytest.raises(ConfigError):
        build_coop_keydoor(replace(DEFAULT_COOP, horizon=4))
    assert calls == []
