"""The behaviour contract: CLI results digests on the default environments.

Each verb runs in process on files generated from the default key-door and
cooperative configs.  The cases "on repeated peers" run on the default
cooperative layout with the peer modes helper, helper, independent, helper,
so equal peer tables follow each other and recur apart.  A change that keeps
these digests and the rest of the suite keeps the results of every verb
byte-identical.  The generated game
file is version 2 (non-zero entries); every case also runs on the same game
written as a dense version-1 file, and must give the same digest.
"""
import json
from dataclasses import replace

import pytest

from trajcore import formats
from trajcore.cli import main
from trajcore.envs import DEFAULT_COOP, DEFAULT_KEYDOOR

from conftest import game_payload_v1

# verb, flags and input -> (argv after the verb, with {placeholders}, results digest)
CONTRACT = {
    "enumerate": (
        ["{mdp}"],
        "9a54b2a1bd1053766e910b659975db422409028e4ab3a25d4e2fd8f17df30a25",
    ),
    "mine": (
        ["{mdp}"],
        "7da9e6028b06f62fc58513dbee8745099561a1bae053e27b26fca7286365cd0a",
    ),
    "mine --phi": (
        ["{mdp}", "--phi", "{keydoor_phi}"],
        "2736af132fb72cc58dfabb3d36d4c41965b64a0e2dadf3a4299d256632059019",
    ),
    "mine --phi --strip-terminal": (
        ["{mdp}", "--phi", "{keydoor_phi}", "--strip-terminal"],
        "e9f5b2d455c6d5bc48c6168912c65f33082be3baa2ccd0ca790fdb879018b05b",
    ),
    "mine --phi --strip-terminal --collapse-runs": (
        ["{mdp}", "--phi", "{keydoor_phi}", "--strip-terminal", "--collapse-runs"],
        "5e73e1776fee2b90f08afc8e643876abb1900929725fd796e13a9915683ac9b3",
    ),
    "budget": (
        ["{game}", "{schedule}"],
        "ba5b5a214ce2492cd11fc9a31fafa9a1d0ff89ba3ca4a2087d4a6abe19848fea",
    ),
    "drift": (
        ["{game}", "{schedule}"],
        "e731c6340ef2bfbba54d2a9915c6b5a455ba97bc0c7274f8350b25f3594f9b4d",
    ),
    "drift --phi": (
        ["{game}", "{schedule}", "--phi", "{coop_phi}"],
        "380a582f38e0e9552f895667763b85775ca0e487338451950c3b2bcc43ae545e",
    ),
    "drift --phi --strip-terminal": (
        ["{game}", "{schedule}", "--phi", "{coop_phi}", "--strip-terminal"],
        "735f9d94987cedb105065eee46e598ff7fd944b529738a5564714033a5db3f12",
    ),
    "drift --phi --collapse-runs --strip-terminal": (
        ["{game}", "{schedule}", "--phi", "{coop_phi}", "--collapse-runs", "--strip-terminal"],
        "41c719776e112a3fd7dbf03aceab4e432f804bbebcb9a07aceb1e586fbfc1cf8",
    ),
    "budget on repeated peers": (
        ["{game}", "{repeated}"],
        "20841a127507e76f80cb9911de8550014371b237b5a06528d718dd1bfdd0279d",
    ),
    "drift on repeated peers": (
        ["{game}", "{repeated}"],
        "176b120e499b4237ecf7842eac1d8916057a7e7043de5b9a15fa83d29ae4aa68",
    ),
    "drift --phi --strip-terminal on repeated peers": (
        ["{game}", "{repeated}", "--phi", "{coop_phi}", "--strip-terminal"],
        "2c484c30acd5e5787a25b915df6e2ad233fc639a13a581851773978131ccf13e",
    ),
    "induce": (
        ["{game}", "{peer}"],
        "84124e5888752a16c79b9e9838928bd9e57068027d6192359cae9b080138a22b",
    ),
    "oracle-check": (
        ["--trials", "200", "--seed", "3"],
        "fcdc8093e76f1b27a95c536e82d7eceea4d38710bd65eca0140fc73bb7ef4ff2",
    ),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Generated inputs: the default key-door MDP, the coop game, its schedules and first peer."""
    root = tmp_path_factory.mktemp("contract")
    keydoor_cfg, coop_cfg = str(root / "kd.json"), str(root / "coop.json")
    repeated_cfg = str(root / "repeated.json")
    formats.write_json(keydoor_cfg, formats.keydoor_config_to_payload(DEFAULT_KEYDOOR))
    formats.write_json(coop_cfg, formats.coop_config_to_payload(DEFAULT_COOP))
    repeated = replace(DEFAULT_COOP, peer_modes=("helper", "helper", "independent", "helper"))
    formats.write_json(repeated_cfg, formats.coop_config_to_payload(repeated))
    assert main(["gen", "keydoor", keydoor_cfg, "--out-dir", str(root)]) == 0
    assert main(["gen", "coop-keydoor", coop_cfg, "--out-dir", str(root)]) == 0
    repeated_gen = ["gen", "coop-keydoor", repeated_cfg, "--out-dir", str(root), "--prefix", "repeated"]
    assert main(repeated_gen) == 0
    paths = {
        "mdp": str(root / "keydoor.mdp.json"),
        "keydoor_phi": str(root / "keydoor.phi.json"),
        "game": str(root / "coop_keydoor.game.json"),
        "schedule": str(root / "coop_keydoor.schedule.json"),
        "repeated": str(root / "repeated.schedule.json"),
        "coop_phi": str(root / "coop_keydoor.phi.json"),
        "peer": str(root / "peer.json"),
    }
    first = formats.read_json(paths["schedule"])["policies"][0]
    formats.write_json(
        paths["peer"],
        {"format": "peer_policy", "version": 1, "label": first["label"], "probs": first["probs"]},
    )
    return paths


@pytest.mark.parametrize("case", sorted(CONTRACT))
def test_results_digest_is_pinned(case, files, capsys):
    capsys.readouterr()
    args, expected = CONTRACT[case]
    assert main([case.split()[0]] + [a.format(**files) for a in args]) == 0
    assert json.loads(capsys.readouterr().out)["results_digest"] == expected


@pytest.fixture(scope="module")
def files_v1(files, tmp_path_factory):
    """``files`` with the game rewritten as a dense version-1 file."""
    payload = formats.read_json(files["game"])
    assert payload["version"] == 2
    game = formats.game_from_payload(payload, files["game"])
    path = str(tmp_path_factory.mktemp("contract_v1") / "coop_keydoor.game.json")
    formats.write_json(path, game_payload_v1(game))
    assert formats.read_json(path)["version"] == 1
    return {**files, "game": path}


@pytest.mark.parametrize("case", sorted(CONTRACT))
def test_results_digest_is_pinned_on_a_version_1_game_file(case, files_v1, capsys):
    test_results_digest_is_pinned(case, files_v1, capsys)
