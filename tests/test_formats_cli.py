import argparse
import hashlib
import json
import os
import stat
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from trajcore import (
    TERMINAL,
    Abstraction,
    CoreSet,
    EpisodeSequence,
    MarkovGame,
    PeerPolicy,
    RowSumError,
    core,
    enumerate_successes,
    induce_mdp,
)
from trajcore import cli, formats
from trajcore.cli import main
from trajcore.mdp import ROW_TOL
from trajcore.envs import (
    DEFAULT_COOP,
    DEFAULT_KEYDOOR,
    build_coop_keydoor,
    build_keydoor,
    random_mdp,
)

from conftest import game_payload_v1, random_game, random_peer


@pytest.fixture(scope="module")
def keydoor():
    return build_keydoor(DEFAULT_KEYDOOR)


@pytest.fixture(scope="module")
def coop():
    return build_coop_keydoor(DEFAULT_COOP)


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def test_mdp_round_trip(tmp_path, keydoor):
    mdp, _ = keydoor
    path = tmp_path / "m.json"
    formats.write_json(str(path), formats.mdp_to_payload(mdp))
    loaded = formats.mdp_from_payload(formats.read_json(str(path)), str(path))
    assert np.array_equal(loaded.kernel, mdp.kernel)
    assert np.array_equal(loaded.reward, mdp.reward)
    assert np.array_equal(loaded.initial, mdp.initial)
    assert loaded.goals == mdp.goals
    assert loaded.horizon == mdp.horizon
    assert loaded.goal_absorbing == mdp.goal_absorbing


def test_game_schedule_and_phi_round_trip(tmp_path, coop):
    game, schedule, phi = coop
    gp = tmp_path / "g.json"
    sp = tmp_path / "s.json"
    pp = tmp_path / "p.json"
    formats.write_json(str(gp), formats.game_to_payload(game))
    formats.write_json(str(sp), formats.schedule_to_payload(schedule))
    formats.write_json(str(pp), formats.abstraction_to_payload(phi))

    game2 = formats.game_from_payload(formats.read_json(str(gp)), str(gp))
    assert np.array_equal(game2.joint_kernel, game.joint_kernel)
    assert np.array_equal(game2.reward_1, game.reward_1)
    assert game2.goals == game.goals

    schedule2 = formats.schedule_from_payload(formats.read_json(str(sp)), str(sp))
    assert [p.label for p in schedule2] == [p.label for p in schedule]
    for a, b in zip(schedule, schedule2):
        assert np.array_equal(a.probs, b.probs)

    phi2 = formats.abstraction_from_payload(formats.read_json(str(pp)), str(pp))
    assert phi2.mapping == phi.mapping
    assert phi2.label == phi.label
    assert phi2.collapse_runs == phi.collapse_runs


def test_identity_abstraction_round_trip(tmp_path):
    path = tmp_path / "id.json"
    formats.write_json(str(path), formats.abstraction_to_payload(Abstraction()))
    loaded = formats.abstraction_from_payload(formats.read_json(str(path)), str(path))
    assert loaded.mapping is None


def test_symbol_to_json_writes_a_pair_as_two_ints_and_any_other_tuple_whole():
    pair = formats.symbol_to_json((np.int64(3), np.int32(TERMINAL)))
    assert pair == [3, -1] and {type(x) for x in pair} == {int}
    assert formats.symbol_to_json((1, 2, 3)) == [1, 2, 3]
    assert formats.symbol_to_json(("a", "b")) == ["a", "b"]
    assert formats.symbol_to_json("key") == "key"


def test_numpy_integer_pairs_mine_to_the_members_and_digest_of_python_ints():
    family = [((0, 1), (1, 0), (2, TERMINAL)), ((0, 1), (2, 0), (1, 0), (2, TERMINAL))]
    numpy_family = [tuple((np.int64(s), np.int32(a)) for s, a in seq) for seq in family]
    mined, expected = core(numpy_family), core(family)
    assert mined.members == expected.members == (((0, 1), (1, 0), (2, TERMINAL)),)
    digest = formats.digest(formats.core_to_payload(mined))
    assert digest == formats.digest(formats.core_to_payload(expected))
    assert digest[:16] == "04a568cd96395b12"


def test_successes_round_trip(tmp_path, keydoor):
    mdp, _ = keydoor
    successes = enumerate_successes(mdp)
    path = tmp_path / "succ.json"
    formats.write_json(str(path), formats.successes_to_payload(successes))
    loaded = formats.successes_from_payload(formats.read_json(str(path)), str(path))
    assert loaded.as_set() == successes.as_set()


def test_config_round_trips(tmp_path):
    kp = tmp_path / "kd.json"
    formats.write_json(str(kp), formats.keydoor_config_to_payload(DEFAULT_KEYDOOR))
    assert (
        formats.keydoor_config_from_payload(formats.read_json(str(kp)), str(kp))
        == DEFAULT_KEYDOOR
    )
    cp = tmp_path / "coop.json"
    formats.write_json(str(cp), formats.coop_config_to_payload(DEFAULT_COOP))
    assert (
        formats.coop_config_from_payload(formats.read_json(str(cp)), str(cp))
        == DEFAULT_COOP
    )


# sha256 prefixes of canonical_json(payload); a change here changes every file digest
PAYLOAD_DIGESTS = {
    "keydoor_mdp": "5edde29bf8fd9f73",
    "coop_game": "586989132b788c43",  # version 1, dense
    "coop_game_v2": "cf38b8462ad0657d",
    "coop_schedule": "b724bc1714437a4c",
    "coop_phi": "2c379c66d4b4e7c2",
    "keydoor_config": "c588aad0156539ee",
    "coop_config": "29a2c1a8924cedc9",
}
RANDOM_MDP_PAYLOADS_DIGEST = "44d005ecac90c0b3"


def test_payload_bytes_are_pinned_and_round_trip(keydoor, coop):
    mdp, _ = keydoor
    game, schedule, phi = coop
    cases = {
        "keydoor_mdp": (mdp, formats.mdp_to_payload, formats.mdp_from_payload),
        "coop_game": (game, game_payload_v1, formats.game_from_payload),
        "coop_game_v2": (game, formats.game_to_payload, formats.game_from_payload),
        "coop_schedule": (schedule, formats.schedule_to_payload, formats.schedule_from_payload),
        "coop_phi": (phi, formats.abstraction_to_payload, formats.abstraction_from_payload),
        "keydoor_config": (
            DEFAULT_KEYDOOR, formats.keydoor_config_to_payload, formats.keydoor_config_from_payload
        ),
        "coop_config": (
            DEFAULT_COOP, formats.coop_config_to_payload, formats.coop_config_from_payload
        ),
    }
    for name, (obj, to_payload, from_payload) in cases.items():
        payload = to_payload(obj)
        assert formats.digest(payload)[:16] == PAYLOAD_DIGESTS[name], name
        again = to_payload(from_payload(json.loads(formats.canonical_json(payload))))
        assert formats.canonical_json(again) == formats.canonical_json(payload), name

    # both versions of the coop game parse to the same rows
    loaded = [formats.game_from_payload(p) for p in (game_payload_v1(game), formats.game_to_payload(game))]
    for part in ("offsets", "targets", "probs"):
        assert np.array_equal(getattr(loaded[0].rows, part), getattr(game.rows, part))
        assert np.array_equal(getattr(loaded[1].rows, part), getattr(game.rows, part))

    hasher = hashlib.sha256()
    for seed in range(30):
        m = random_mdp(3 + seed % 5, 2 + seed % 2, 3 + seed % 4, seed=seed)
        text = formats.canonical_json(formats.mdp_to_payload(m))
        again = formats.mdp_to_payload(formats.mdp_from_payload(json.loads(text)))
        assert formats.canonical_json(again) == text
        hasher.update(text.encode("utf-8"))
    assert hasher.hexdigest()[:16] == RANDOM_MDP_PAYLOADS_DIGEST


def test_write_json_writes_the_digested_bytes(tmp_path, coop):
    game, _, _ = coop
    for payload in (formats.game_to_payload(game), {"b": 1, "a": [1.5, 0.1, "\u00e9"]}):
        path = tmp_path / "x.json"
        formats.write_json(str(path), payload)
        data = path.read_bytes()
        assert data == (formats.canonical_json(payload) + "\n").encode("utf-8")
        assert formats.file_digest(str(path)) == hashlib.sha256(data).hexdigest()


def test_fields_with_a_default_may_be_omitted(keydoor):
    mdp, _ = keydoor
    payload = formats.mdp_to_payload(mdp)
    del payload["goal_absorbing"]
    assert formats.mdp_from_payload(payload).goal_absorbing is False
    payload = formats.coop_config_to_payload(DEFAULT_COOP)
    del payload["peer_modes"]
    assert formats.coop_config_from_payload(payload) == DEFAULT_COOP


def test_sniff_format_reads_the_decoded_payload():
    assert formats.sniff_format({"format": "mdp"}) == "mdp"
    for bad in ([], {"version": 1}):
        with pytest.raises(formats.ParseError, match="missing 'format' field"):
            formats.sniff_format(bad, "in.json")
    with pytest.raises(formats.ParseError, match="expected a JSON string, got 5"):
        formats.sniff_format({"format": 5}, "in.json")


@pytest.mark.parametrize("make", [lambda path: None, os.mkdir], ids=["missing", "directory"])
def test_an_input_that_cannot_be_read_is_a_parse_error_naming_it(tmp_path, capsys, make):
    path = str(tmp_path / "mdp.json")
    make(path)
    assert main(["enumerate", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("trajcore: parse error: ") and "Traceback" not in err
    assert path in err


def test_parse_errors_name_the_problem(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(formats.ParseError) as err:
        formats.read_json(str(path))
    assert "line" in str(err.value)

    path2 = tmp_path / "wrong.json"
    formats.write_json(str(path2), {"format": "mdp", "version": 1})
    with pytest.raises(formats.ParseError) as err:
        formats.mdp_from_payload(formats.read_json(str(path2)), str(path2))
    assert "num_states" in str(err.value)

    for to_payload, from_payload, cfg in [
        (formats.keydoor_config_to_payload, formats.keydoor_config_from_payload, DEFAULT_KEYDOOR),
        (formats.coop_config_to_payload, formats.coop_config_from_payload, DEFAULT_COOP),
    ]:
        payload = to_payload(cfg)
        del payload["horizon"]
        with pytest.raises(formats.ParseError, match="missing field 'horizon'"):
            from_payload(payload)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _write_keydoor_config(tmp_path):
    path = tmp_path / "kd_config.json"
    formats.write_json(str(path), formats.keydoor_config_to_payload(DEFAULT_KEYDOOR))
    return str(path)


def _write_coop_config(tmp_path):
    path = tmp_path / "coop_config.json"
    formats.write_json(str(path), formats.coop_config_to_payload(DEFAULT_COOP))
    return str(path)


def test_cli_gen_enumerate_mine_pipeline(tmp_path, capsys):
    cfg = _write_keydoor_config(tmp_path)
    out_dir = str(tmp_path)
    assert main(["gen", "keydoor", cfg, "--out-dir", out_dir, "--prefix", "kd"]) == 0
    report = json.loads(capsys.readouterr().out)
    written = report["results"]["written"]
    assert all(os.path.exists(p) for p in written)
    mdp_file = written[0]
    phi_file = written[1]

    succ_file = str(tmp_path / "succ.json")
    assert main(["enumerate", mdp_file, "--out", succ_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["count"] == 8
    assert os.path.exists(succ_file)

    assert main(["mine", succ_file, "--phi", phi_file, "--strip-terminal"]) == 0
    report = json.loads(capsys.readouterr().out)
    members = report["results"]["members"]
    assert ["find_key", "reach_door", "open_door"] != members  # sanity: list of lists
    assert any(
        all(sym in member for sym in ("find_key", "reach_door", "open_door"))
        for member in members
    )
    assert report["results"]["alphabet_tag"] == "keydoor"
    assert report["results"]["strip_terminal_applied"] is True

    # mining straight from the MDP file gives the same core
    assert main(["mine", mdp_file, "--phi", phi_file, "--strip-terminal"]) == 0
    report2 = json.loads(capsys.readouterr().out)
    assert report2["results"]["members"] == members


def test_cli_induce_budget_drift(tmp_path, capsys):
    cfg = _write_coop_config(tmp_path)
    assert main(["gen", "coop-keydoor", cfg, "--out-dir", str(tmp_path), "--prefix", "coop"]) == 0
    report = json.loads(capsys.readouterr().out)
    game_file, schedule_file, phi_file = report["results"]["written"]

    # induce with an explicit peer file
    schedule_payload = formats.read_json(schedule_file)
    peer_file = str(tmp_path / "peer.json")
    first = schedule_payload["policies"][0]
    formats.write_json(
        str(peer_file),
        {
            "format": "peer_policy",
            "version": 1,
            "label": first["label"],
            "probs": first["probs"],
        },
    )
    induced_file = str(tmp_path / "induced.json")
    assert main(["induce", game_file, peer_file, "--out", induced_file]) == 0
    capsys.readouterr()
    induced = formats.mdp_from_payload(formats.read_json(induced_file), induced_file)
    assert induced.horizon == DEFAULT_COOP.horizon

    assert main(["budget", game_file, schedule_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["total"] > 0.0
    assert len(report["results"]["kernel_deltas"]) == 1

    out_file = str(tmp_path / "drift.json")
    assert main([
        "drift", game_file, schedule_file,
        "--phi", phi_file, "--strip-terminal", "--out", out_file,
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    results = report["results"]
    assert results["budget"]["total"] > 0.0
    step = results["steps"][0]
    assert step["vanished"]
    assert step["common_within_individual"] is True
    assert step["literal_intersection"] == []
    assert results["individual_core_definition"]
    assert os.path.exists(out_file)


def test_cli_enumerate_unreachable_goal_counts_zero(tmp_path, capsys, chain_mdp):
    payload = formats.mdp_to_payload(chain_mdp)
    payload["kernel"][1][1] = [1.0, 0.0, 0.0]  # sever the only route to the goal
    payload["goal_absorbing"] = False
    path = tmp_path / "blocked.json"
    formats.write_json(str(path), payload)
    assert main(["enumerate", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["count"] == 0


def test_cli_mine_empty_successes_is_validation_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    formats.write_json(
        str(path),
        {"format": "successes", "version": 1, "count": 0, "trajectories": []},
    )
    assert main(["mine", str(path)]) == 4
    capsys.readouterr()


def test_cli_gen_infeasible_config_is_validation_error(tmp_path, capsys):
    payload = formats.keydoor_config_to_payload(DEFAULT_KEYDOOR)
    payload["horizon"] = 2
    path = tmp_path / "bad_cfg.json"
    formats.write_json(str(path), payload)
    assert main(["gen", "keydoor", str(path), "--out-dir", str(tmp_path)]) == 4
    capsys.readouterr()


def test_cli_mine_echoes_collapse_runs_flag(tmp_path, capsys):
    cfg = _write_keydoor_config(tmp_path)
    assert main(["gen", "keydoor", cfg, "--out-dir", str(tmp_path), "--prefix", "kd"]) == 0
    report = json.loads(capsys.readouterr().out)
    mdp_file, phi_file = report["results"]["written"]
    assert main(["mine", mdp_file, "--phi", phi_file, "--collapse-runs"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["collapse_runs"] is True
    # collapsed members hold no immediate symbol repeats
    for member in report["results"]["members"]:
        assert all(a != b for a, b in zip(member, member[1:]))


def test_cli_oracle_check(capsys):
    assert main(["oracle-check", "--trials", "25", "--seed", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["agreements"] == 25
    assert report["results"]["mismatches"] == []


def test_the_module_entry_point_exits_with_the_code_of_main():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-m", "trajcore.cli", "oracle-check", "--trials", "3"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["results"]["agreements"] == 3


def test_a_report_that_cannot_reach_stdout_exits_7():
    # the pipe's reader is gone before the process starts, so printing the report fails
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "trajcore.cli", "oracle-check", "--trials", "1"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 7, done.stderr
    assert done.stderr.startswith("trajcore: output error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


def test_cli_oracle_disagreement_exits_internal_even_under_optimize():
    # under -O a bare assert would vanish and the run would exit 0
    script = (
        "import sys\n"
        "from trajcore import cli\n"
        "from trajcore.mining import CoreSet\n"
        "cli.brute_force_core = lambda family: CoreSet(members=(('z',),))\n"
        "sys.exit(cli.main(['oracle-check', '--trials', '3', '--seed', '1']))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 6
    assert done.stdout == ""
    assert "disagrees with oracle on 3 trials" in done.stderr


def test_cli_oracle_disagreement_exits_6_and_lists_the_trial(monkeypatch, capsys):
    families = []

    def wrong_core(family, budget):
        families.append([list(seq) for seq in family])
        return CoreSet(members=(("z",),))

    monkeypatch.setattr(cli, "core", wrong_core)
    assert main(["oracle-check", "--trials", "2", "--seed", "1"]) == 6
    out, err = capsys.readouterr()
    assert out == ""
    prefix = "trajcore: internal error: fast path disagrees with oracle on 2 trials: "
    assert err.startswith(prefix)
    listed = json.loads(err[len(prefix):])
    assert [m["trial"] for m in listed] == [0, 1]
    assert [m["family"] for m in listed] == families
    assert all(m["fast"] == [["z"]] for m in listed)


def test_write_json_removes_its_temp_file_and_reraises_an_error_that_is_not_an_os_error(tmp_path):
    with pytest.raises(TypeError):
        formats.write_json(str(tmp_path / "x.json"), {"a": object()})  # not JSON
    assert list(tmp_path.iterdir()) == []


def test_cli_malformed_peer_and_schedule_are_parse_errors(tmp_path, capsys):
    rng = np.random.default_rng(0)
    game = random_game(rng)
    game_file = tmp_path / "game.json"
    formats.write_json(str(game_file), formats.game_to_payload(game))

    bad_schedule = tmp_path / "schedule.json"
    formats.write_json(
        str(bad_schedule), {"format": "peer_schedule", "version": 1, "policies": [1]}
    )
    assert main(["budget", str(game_file), str(bad_schedule)]) == 3

    ragged_peer = tmp_path / "peer.json"
    payload = formats.peer_to_payload(random_peer(rng, game))
    payload["probs"][0] = payload["probs"][0][:1]
    formats.write_json(str(ragged_peer), payload)
    assert main(["induce", str(game_file), str(ragged_peer)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("parse error") == 2

    for policies in ([], {}):  # not a nonempty list
        formats.write_json(
            str(bad_schedule), {"format": "peer_schedule", "version": 1, "policies": policies}
        )
        for command in ("budget", "drift"):
            assert main([command, str(game_file), str(bad_schedule)]) == 3
            err = capsys.readouterr().err
            assert "Traceback" not in err and "field 'policies' must be a nonempty list" in err


def test_a_fold_past_the_row_tolerance_is_one_error_on_every_path(tmp_path, capsys):
    # the joint row and the peer row each sum to 1 + 9e-10, inside ROW_TOL, so the game and
    # the peer are valid, but the folded row sums to about 1 + 1.8e-9
    joint = np.zeros((2, 1, 2, 2))
    joint[0, 0, :] = [0.5 + 4.5e-10, 0.5 + 4.5e-10]
    joint[1, 0, :, 1] = 1.0
    game = MarkovGame(num_states=2, num_actions_1=1, num_actions_2=2, joint_kernel=joint,
                      reward_1=np.zeros((2, 1, 2)), horizon=3, goals=frozenset({1}),
                      initial=np.array([1.0, 0.0]))
    peer = PeerPolicy(probs=np.array([[0.5 + 4.5e-10, 0.5 + 4.5e-10], [0.5, 0.5]]))
    with pytest.raises(RowSumError) as folded:
        induce_mdp(game, peer)
    assert folded.value.row == (0, 0) and folded.value.total > 1 + ROW_TOL
    with pytest.raises(RowSumError) as scheduled:
        EpisodeSequence.from_schedule(game, [peer, peer])
    assert str(scheduled.value) == str(folded.value)

    paths = {name: str(tmp_path / f"{name}.json") for name in ("game", "peer", "schedule")}
    formats.write_json(paths["game"], formats.game_to_payload(game))
    formats.write_json(paths["peer"], formats.peer_to_payload(peer))
    formats.write_json(paths["schedule"], formats.schedule_to_payload([peer, peer]))
    for command, second in (("induce", "peer"), ("budget", "schedule"), ("drift", "schedule")):
        assert main([command, paths["game"], paths[second]]) == 4
        assert capsys.readouterr().err == f"trajcore: invalid input: {folded.value}\n"


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["enumerate", str(bad)]) == 3

    # malformed probabilities: validation failure
    mdp, _ = build_keydoor(DEFAULT_KEYDOOR)
    payload = formats.mdp_to_payload(mdp)
    payload["kernel"][0][0][0] = 0.5
    invalid = tmp_path / "invalid.json"
    formats.write_json(str(invalid), payload)
    assert main(["enumerate", str(invalid)]) == 4

    # a tiny budget trips the guard
    good = tmp_path / "good.json"
    formats.write_json(str(good), formats.mdp_to_payload(mdp))
    assert main(["enumerate", str(good), "--budget", "3"]) == 5
    capsys.readouterr()


def test_cli_enumerate_nan_probability_is_validation_error(tmp_path, capsys):
    mdp, _ = build_keydoor(DEFAULT_KEYDOOR)
    payload = formats.mdp_to_payload(mdp)
    payload["kernel"][0][0][0] = float("nan")
    path = tmp_path / "nan.json"
    formats.write_json(str(path), payload)
    assert "NaN" in path.read_text()
    assert main(["enumerate", str(path)]) == 4
    assert "sums to nan" in capsys.readouterr().err


def test_cli_guard_message_says_what_budget_would_suffice(tmp_path, capsys):
    mdp, _ = build_keydoor(DEFAULT_KEYDOOR)
    path = tmp_path / "good.json"
    formats.write_json(str(path), formats.mdp_to_payload(mdp))
    assert main(["enumerate", str(path), "--budget", "3"]) == 5
    needed = int(capsys.readouterr().err.split("the full search needs ")[1].split(")")[0])
    assert main(["enumerate", str(path), "--budget", str(needed - 1)]) == 5
    capsys.readouterr()
    assert main(["enumerate", str(path), "--budget", str(needed)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "kind,config",
    [
        ("keydoor", formats.keydoor_config_to_payload(
            replace(DEFAULT_KEYDOOR, corridor_length=1_000_000))),
        ("coop-keydoor", formats.coop_config_to_payload(
            replace(DEFAULT_COOP, corridor_length=10_000))),
        ("keydoor", formats.keydoor_config_to_payload(
            replace(DEFAULT_KEYDOOR, corridor_length=10**9))),
        ("coop-keydoor", formats.coop_config_to_payload(
            replace(DEFAULT_COOP, corridor_length=10**6))),
    ],
)
def test_cli_gen_of_a_layout_too_large_to_allocate_exits_5(tmp_path, capsys, kind, config):
    # the first dense array of each layout is above 2^47 bytes, so NumPy
    # refuses it at once, whatever the host's overcommit policy; the last two
    # are past the bytes NumPy can index at all, which the builders refuse first
    cfg = tmp_path / "cfg.json"
    formats.write_json(str(cfg), config)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["gen", kind, str(cfg), "--out-dir", str(out_dir)]) == 5
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("trajcore: budget guard: out of memory: ")
    assert captured.err.count("\n") == 1
    assert os.listdir(out_dir) == []


@pytest.mark.parametrize(
    "argv,blocked",
    [
        (["enumerate", "{mdp}", "--out", "{dir}"], "{dir}"),
        (["enumerate", "{mdp}", "--out", "{file}/x.json"], "{file}"),
        (["gen", "keydoor", "{cfg}", "--out-dir", "{file}"], "{file}"),
        (["enumerate", "{mdp}", "--out", "{fifo}"], "{fifo}"),
    ],
    ids=["out-is-a-directory", "out-under-a-file", "out-dir-is-a-file", "out-is-a-fifo"],
)
def test_cli_output_that_cannot_be_written_exits_7(tmp_path, capsys, keydoor, argv, blocked):
    paths = {"mdp": tmp_path / "m.json", "cfg": tmp_path / "cfg.json",
             "dir": tmp_path / "adir", "file": tmp_path / "afile", "fifo": tmp_path / "afifo"}
    formats.write_json(str(paths["mdp"]), formats.mdp_to_payload(keydoor[0]))
    formats.write_json(str(paths["cfg"]), formats.keydoor_config_to_payload(DEFAULT_KEYDOOR))
    paths["dir"].mkdir()
    paths["file"].write_text("{}")
    os.mkfifo(paths["fifo"])
    before = sorted(os.listdir(tmp_path))
    argv = [arg.format(**{k: str(v) for k, v in paths.items()}) for arg in argv]
    assert main(argv) == 7
    err = capsys.readouterr().err
    assert err.startswith("trajcore: output error: ") and "Traceback" not in err
    assert blocked.format(**{k: str(v) for k, v in paths.items()}) in err
    # no temp file is left behind
    assert sorted(os.listdir(tmp_path)) == before and os.listdir(paths["dir"]) == []
    assert stat.S_ISFIFO(os.lstat(paths["fifo"]).st_mode)  # not replaced by a regular file



def test_gen_that_cannot_write_a_target_writes_no_file(tmp_path, capsys):
    # the phi target is a directory, so no payload may be written, not even the mdp before it
    cfg = tmp_path / "cfg.json"
    formats.write_json(str(cfg), formats.keydoor_config_to_payload(DEFAULT_KEYDOOR))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "kd.phi.json").mkdir()
    (out_dir / "kd.mdp.json").write_bytes(b"known bytes\n")
    assert main(["gen", "keydoor", str(cfg), "--out-dir", str(out_dir), "--prefix", "kd"]) == 7
    err = capsys.readouterr().err
    assert err.startswith("trajcore: output error: ") and "Traceback" not in err
    assert str(out_dir / "kd.phi.json") in err
    assert (out_dir / "kd.mdp.json").read_bytes() == b"known bytes\n"
    assert sorted(os.listdir(out_dir)) == ["kd.mdp.json", "kd.phi.json"]
    assert os.listdir(out_dir / "kd.phi.json") == []

def test_out_through_a_symlink_writes_its_target_and_keeps_the_link(tmp_path, capsys, keydoor):
    mdp_path, real, link = tmp_path / "m.json", tmp_path / "real.json", tmp_path / "link.json"
    formats.write_json(str(mdp_path), formats.mdp_to_payload(keydoor[0]))
    real.write_text("stale\n")
    link.symlink_to(real.name)
    assert main(["enumerate", str(mdp_path), "--out", str(link)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert link.is_symlink() and os.readlink(link) == real.name
    assert real.read_text() == formats.canonical_json(report["results"]) + "\n"
    assert sorted(os.listdir(tmp_path)) == ["link.json", "m.json", "real.json"]


def test_gen_with_a_fifo_target_writes_no_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    formats.write_json(str(cfg), formats.keydoor_config_to_payload(DEFAULT_KEYDOOR))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    os.mkfifo(out_dir / "kd.phi.json")
    assert main(["gen", "keydoor", str(cfg), "--out-dir", str(out_dir), "--prefix", "kd"]) == 7
    err = capsys.readouterr().err
    assert err.startswith("trajcore: output error: ") and str(out_dir / "kd.phi.json") in err
    assert os.listdir(out_dir) == ["kd.phi.json"]
    assert stat.S_ISFIFO(os.lstat(out_dir / "kd.phi.json").st_mode)


def test_cli_env_budget_override(tmp_path, capsys, monkeypatch):
    mdp, _ = build_keydoor(DEFAULT_KEYDOOR)
    good = tmp_path / "good.json"
    formats.write_json(str(good), formats.mdp_to_payload(mdp))
    monkeypatch.setenv("TRAJCORE_BUDGET", "3")
    assert main(["enumerate", str(good)]) == 5
    monkeypatch.setenv("TRAJCORE_BUDGET", "junk")
    assert main(["enumerate", str(good)]) == 3
    monkeypatch.setenv("TRAJCORE_BUDGET", "0")
    assert main(["enumerate", str(good)]) == 3
    monkeypatch.delenv("TRAJCORE_BUDGET")
    assert main(["enumerate", str(good)]) == 0
    capsys.readouterr()


def test_cli_reports_are_deterministic(tmp_path, capsys):
    mdp, _ = build_keydoor(DEFAULT_KEYDOOR)
    good = tmp_path / "good.json"
    formats.write_json(str(good), formats.mdp_to_payload(mdp))
    assert main(["enumerate", str(good)]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["enumerate", str(good)]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["results"] == second["results"]
    assert first["results_digest"] == second["results_digest"]
    assert first["inputs"] == second["inputs"]


def test_write_json_is_atomic_and_stable(tmp_path):
    path = str(tmp_path / "x.json")
    formats.write_json(path, {"b": 1, "a": [1.5, 0.1]})
    with open(path) as handle:
        text = handle.read()
    formats.write_json(path, {"b": 1, "a": [1.5, 0.1]})
    with open(path) as handle:
        assert handle.read() == text
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


def test_a_file_holds_the_digested_bytes_then_a_newline(tmp_path, capsys, keydoor):
    mdp_file, out = tmp_path / "m.json", tmp_path / "out.json"
    formats.write_json(str(mdp_file), formats.mdp_to_payload(keydoor[0]))
    assert main(["enumerate", str(mdp_file), "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    data = out.read_bytes()
    assert data == (formats.canonical_json(report["results"]) + "\n").encode("utf-8")
    assert report["results_digest"] == hashlib.sha256(data[:-1]).hexdigest()
    assert formats.file_digest(str(out)) != report["results_digest"]


def test_the_cli_serializes_its_results_once_for_the_out_file_and_the_digest(
    tmp_path, capsys, keydoor, monkeypatch
):
    mdp_file, out = tmp_path / "m.json", tmp_path / "out.json"
    formats.write_json(str(mdp_file), formats.mdp_to_payload(keydoor[0]))
    plain, serialized = formats.canonical_json, []

    def counted(payload):
        serialized.append(payload)
        return plain(payload)

    monkeypatch.setattr(formats, "canonical_json", counted)
    assert main(["enumerate", str(mdp_file), "--out", str(out)]) == 0
    assert len(serialized) == 1
    report = json.loads(capsys.readouterr().out)
    assert out.read_text() == plain(report["results"]) + "\n"
    assert report["results_digest"] == hashlib.sha256(plain(report["results"]).encode()).hexdigest()


def test_the_cli_builds_its_parser_once_per_process(capsys, monkeypatch):
    assert main(["oracle-check", "--trials", "1"]) == 0  # builds the parser if no test has yet
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["oracle-check", "--trials", "1"]) == 0
    with pytest.raises(SystemExit):
        main(["oracle-check", "--trials", "-1"])
    assert built == []
    capsys.readouterr()


def test_write_canonical_removes_its_temp_file_and_reraises_an_error_that_is_not_an_os_error(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        formats.write_canonical(str(tmp_path / "x.json"), "\ud800")  # a lone surrogate
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_get_their_mode_from_the_umask(tmp_path, capsys, keydoor, umask, mode):
    mdp_file, out = tmp_path / "m.json", tmp_path / "out.json"
    formats.write_json(str(mdp_file), formats.mdp_to_payload(keydoor[0]))
    out.write_text("{}")
    out.chmod(0o600 if mode == 0o644 else 0o644)  # an existing file does not keep its mode
    cfg = _write_keydoor_config(tmp_path)
    before = os.umask(umask)
    try:
        assert main(["gen", "keydoor", cfg, "--out-dir", str(tmp_path / "gen")]) == 0
        written = json.loads(capsys.readouterr().out)["results"]["written"]
        assert main(["enumerate", str(mdp_file), "--out", str(out)]) == 0
        assert os.umask(umask) == umask  # the process umask is as it was
    finally:
        os.umask(before)
    capsys.readouterr()
    assert len(written) >= 2
    for path in written + [str(out)]:
        assert stat.S_IMODE(os.stat(path).st_mode) == mode


def test_float_round_trip_precision(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.random(64)
    values /= values.sum()
    path = str(tmp_path / "probs.json")
    formats.write_json(path, {"v": values.tolist()})
    loaded = np.array(formats.read_json(path)["v"])
    assert np.array_equal(loaded, values)


def test_cli_reads_each_input_once_and_digests_the_bytes_it_read(tmp_path, coop, monkeypatch, capsys):
    game, schedule, phi = coop
    paths = {name: str(tmp_path / f"{name}.json") for name in ("game", "schedule", "phi")}
    formats.write_json(paths["game"], formats.game_to_payload(game))
    formats.write_json(paths["schedule"], formats.schedule_to_payload(schedule))
    formats.write_json(paths["phi"], formats.abstraction_to_payload(phi))
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(formats, "open", counting_open, raising=False)
    assert main(["drift", paths["game"], paths["schedule"], "--phi", paths["phi"]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert sorted(opened) == sorted(paths.values())
    for path in paths.values():
        with open(path, "rb") as handle:
            assert report["inputs"][path] == hashlib.sha256(handle.read()).hexdigest()
