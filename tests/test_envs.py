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
    formats,
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
# pinned payloads: every row and every symbol, reachable or not
# ---------------------------------------------------------------------------

# layout -> sha256 of the canonical mdp and abstraction payloads
KEYDOOR_PAYLOADS = {
    DEFAULT_KEYDOOR: (
        "5edde29bf8fd9f73e36b3a810a2815eb79477ebb9313a02329fd82710b87defe",
        "c9e5d9e61644e37354555bdcdfa0e50d10f97e1e5736bcc1e8528eb9157a1246",
    ),
    # mirrored: the goal lies left of the door
    KeyDoorConfig(corridor_length=6, key_pos=5, door_pos=3, goal_pos=0, start_pos=4, horizon=12): (
        "51ec15515b50f6f5eb8c8a857ddad1283251c0827f574c8147c371bf60003ceb",
        "7abcb4ea14aa8811990ed79bfdcafe31d9b3ada49518cce5a2c32f3a54a8face",
    ),
    KeyDoorConfig(corridor_length=3, key_pos=0, door_pos=1, goal_pos=2, start_pos=0, horizon=5): (
        "8bfb0e4c070582e12d27b7ea45af81eea877a312aa53804aaff6e6d541cfbeee",
        "2173550935ec5641d6bbe401d27a73086442d5dc8500231c8f599217bd7e0b85",
    ),
    KeyDoorConfig(corridor_length=7, key_pos=2, door_pos=4, goal_pos=6, start_pos=0, horizon=11): (
        "3712d5e15a3b587754142fe9850e646a42efb4972ef87cb9b19e54e64a36e064",
        "84ba789cebf30e910f45d7bb31e0e7a336f50e49c4c6f9a68960b6e3d0e2ddd1",
    ),
    KeyDoorConfig(corridor_length=5, key_pos=3, door_pos=2, goal_pos=0, start_pos=4, horizon=8): (
        "6751a6e3b4802d557294e7607bb28ea5e27cd7ebde39361cbcdcfc02403bade1",
        "2c339cf8ad925fd06dfb02d737f10f41319b41c993f7adca504f9884e4d9d483",
    ),
}

# layout -> sha256 of the canonical game, peer_schedule and abstraction payloads
COOP_PAYLOADS = {
    DEFAULT_COOP: (
        "cf38b8462ad0657d4fd40547f20d608a21f138eda60f1b07491aa0280e812235",
        "b724bc1714437a4cb43f47f2ab2339b20bf930560ffdc2f7bf46ff5aeda0cd1b",
        "2c379c66d4b4e7c270d128f444b24a770620d8486a931c87618daee2265b595f",
    ),
    CoopKeyDoorConfig(
        corridor_length=5, key_pos=0, door_pos=2, goal_pos=3, start_pos=0, peer_start=1,
        horizon=9, peer_modes=("helper", "independent", "helper"),
    ): (
        "284ed925b5ec734e7c2996a713439b198f49e0ee4381401924d28246221b3043",
        "96bc221ae6f74bc128b51d105c0c0cdf30dd953fb1e3fc167cd5e2a9abed5337",
        "a5a5914a26be1473f91865049112b80697d7a4c0ece92ad8f3605ec4e186befe",
    ),
    CoopKeyDoorConfig(
        corridor_length=6, key_pos=0, door_pos=3, goal_pos=5, start_pos=1, peer_start=2,
        horizon=12, peer_modes=("independent", "helper", "helper"),
    ): (
        "53f51d5409267492f9d05dc81f9753c00a5b00399c1dbaaad8ecea40153f7f64",
        "94671f6600da28dcda287c502c5019a59524c93db37173dea50eee084140a5d8",
        "3c282619587ff2555b3c1d151819332a1b75844f42cf989d32063f426fa7edf9",
    ),
    # the focal agent starts left of the key, and the peer on the door cell
    CoopKeyDoorConfig(
        corridor_length=6, key_pos=2, door_pos=3, goal_pos=4, start_pos=0, peer_start=3, horizon=10,
    ): (
        "5243b7671fc466ca967bcec8fed33aa7cbcc9bf8f4859052232a6c41984b8d81",
        "72f9f12b1c8ab6d3c31a066fa3f9f24d0003309fe525828a1409dca36f34ed80",
        "5c4d892824db11d855900c56493928fb7dcc30ace5ed9daa1f1ebb9b587ed6f5",
    ),
    CoopKeyDoorConfig(
        corridor_length=7, key_pos=1, door_pos=4, goal_pos=6, start_pos=3, peer_start=1,
        horizon=12, peer_modes=("independent", "helper"),
    ): (
        "283da94b877111a587b6831eaf2943c7af2f7d265445c1d1d1001dd43341e3c2",
        "6b4bbb073f871871cb62c05ce62278237bb83882611757f0e3eac9bdc86a531e",
        "bc068b06a9ea5ea3ec0fc3a23f5344afb223688a483e50099cba3320224f68fd",
    ),
    CoopKeyDoorConfig(
        corridor_length=8, key_pos=1, door_pos=5, goal_pos=7, start_pos=3, peer_start=2, horizon=14,
    ): (
        "bc587dc535b35138300ec349f1617f5b8ba1e468eb5ab2d7f86489046f6730a9",
        "3d1f459e75922864272f3140c30c7e966ceb760b75804e0929ba25ec3433e150",
        "7dd6fb2c6e8c85d133c6f4618dff4427d45dfa17047565787af029385b75dfd3",
    ),
}


def _layout_id(cfg) -> str:
    peer = f"p{cfg.peer_start}-{'-'.join(cfg.peer_modes)}" if hasattr(cfg, "peer_start") else ""
    return (f"L{cfg.corridor_length}k{cfg.key_pos}d{cfg.door_pos}g{cfg.goal_pos}"
            f"s{cfg.start_pos}{peer}H{cfg.horizon}")


@pytest.mark.parametrize("cfg", KEYDOOR_PAYLOADS, ids=_layout_id)
def test_keydoor_payloads_are_pinned(cfg):
    mdp, phi = build_keydoor(cfg)
    got = (formats.digest(formats.mdp_to_payload(mdp)), formats.digest(formats.abstraction_to_payload(phi)))
    assert got == KEYDOOR_PAYLOADS[cfg]


@pytest.mark.parametrize("cfg", COOP_PAYLOADS, ids=_layout_id)
def test_coop_payloads_are_pinned(cfg):
    game, schedule, phi = build_coop_keydoor(cfg)
    got = (
        formats.digest(formats.game_to_payload(game)),
        formats.digest(formats.schedule_to_payload(schedule)),
        formats.digest(formats.abstraction_to_payload(phi)),
    )
    assert got == COOP_PAYLOADS[cfg]


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
