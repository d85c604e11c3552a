"""Every CLI verb maps malformed input files to a documented exit code.

Runs ``cli.main`` in process on valid input files with one file replaced by
arbitrary JSON, a truncated copy, arbitrary bytes, the valid payload with
one field replaced by an arbitrary JSON value, or, for a payload with
``entries`` (a version-2 game, an abstraction), one entry altered.  Each
run must exit 0, 3, 4 or 5 without raising, and print no traceback.
"""
import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trajcore import TERMINAL, Abstraction, enumerate_successes, formats
from trajcore.cli import main
from trajcore.envs import DEFAULT_COOP, DEFAULT_KEYDOOR, build_keydoor

from conftest import game_payload_v1, random_game, random_peer

DOCUMENTED_EXITS = {0, 3, 4, 5}


def _valid_payloads() -> dict:
    mdp, kd_phi = build_keydoor(DEFAULT_KEYDOOR)
    rng = np.random.default_rng(0)
    game = random_game(rng)
    game_phi = Abstraction(
        mapping={
            **{(s, a): f"a{a}" for s in range(game.num_states) for a in range(game.num_actions_1)},
            **{(g, TERMINAL): "goal" for g in game.goals},
        }
    )
    return {
        "mdp": formats.mdp_to_payload(mdp),
        "successes": formats.successes_to_payload(enumerate_successes(mdp)),
        "kd_phi": formats.abstraction_to_payload(kd_phi),
        "game": formats.game_to_payload(game),
        "game_v1": game_payload_v1(game),
        "peer": formats.peer_to_payload(random_peer(rng, game)),
        "schedule": formats.schedule_to_payload([random_peer(rng, game) for _ in range(2)]),
        "game_phi": formats.abstraction_to_payload(game_phi),
        "kd_cfg": formats.keydoor_config_to_payload(DEFAULT_KEYDOOR),
        "coop_cfg": formats.coop_config_to_payload(DEFAULT_COOP),
    }


VALID = _valid_payloads()

# (argv with {role} placeholders for input files, roles in argv order)
CASES = [
    (["enumerate", "{mdp}", "--budget", "100000", "--out", "{out}"], ["mdp"]),
    (["mine", "{mdp}", "--phi", "{kd_phi}", "--strip-terminal", "--budget", "100000"], ["mdp", "kd_phi"]),
    (["mine", "{successes}", "--collapse-runs", "--out", "{out}"], ["successes"]),
    (["induce", "{game}", "{peer}", "--out", "{out}"], ["game", "peer"]),
    (["budget", "{game}", "{schedule}"], ["game", "schedule"]),
    (["budget", "{game_v1}", "{schedule}"], ["game_v1", "schedule"]),
    (["drift", "{game}", "{schedule}", "--phi", "{game_phi}", "--budget", "100000"],
     ["game", "schedule", "game_phi"]),
    (["gen", "keydoor", "{kd_cfg}", "--out-dir", "{dir}"], ["kd_cfg"]),
    (["gen", "coop-keydoor", "{coop_cfg}", "--out-dir", "{dir}"], ["coop_cfg"]),
]

# small integers only: a config field of a few hundred would build a huge game
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 5)
    | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)


@st.composite
def altered_entries(draw, entries: list) -> list:
    """``entries`` with one entry replaced, one value changed, one entry copied or removed."""
    entries = [list(entry) for entry in entries]
    at = draw(st.integers(0, len(entries) - 1))
    kind = draw(st.sampled_from(["value", "coordinate", "copy", "remove"]))
    if kind == "value":
        entries[at] = draw(json_values)
    elif kind == "coordinate":
        position = draw(st.integers(0, len(entries[at]) - 1))
        entries[at][position] = draw(st.integers(-2, 5) | st.floats() | st.text(max_size=2))
    elif kind == "copy":
        entries.append(list(entries[at]))
    else:
        del entries[at]
    return entries


@st.composite
def corrupted_file(draw, payload: dict) -> bytes:
    valid = formats.canonical_json(payload).encode("utf-8")
    kinds = ["arbitrary", "truncated", "bytes", "field"] + ["entry"] * ("entries" in payload)
    kind = draw(st.sampled_from(kinds))
    if kind == "entry":
        entries = draw(altered_entries(payload["entries"]))
        return formats.canonical_json({**payload, "entries": entries}).encode("utf-8")
    if kind == "arbitrary":
        return formats.canonical_json(draw(json_values)).encode("utf-8")
    if kind == "truncated":
        return valid[: draw(st.integers(0, len(valid) - 1))]
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    name = draw(st.sampled_from(sorted(payload)))
    return formats.canonical_json({**payload, name: draw(json_values)}).encode("utf-8")


def _run(argv_template: list, files: dict) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"dir": tmp, "out": os.path.join(tmp, "out.json")}
        for role, data in files.items():
            paths[role] = os.path.join(tmp, f"{role}.json")
            with open(paths[role], "wb") as handle:
                handle.write(data)
        argv = [arg.format(**paths) for arg in argv_template]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    return code, stderr.getvalue()


def _valid_files(roles) -> dict:
    return {role: formats.canonical_json(VALID[role]).encode("utf-8") for role in roles}


@pytest.mark.parametrize("argv,roles", CASES, ids=[" ".join(c[0][:2]) for c in CASES])
def test_valid_inputs_exit_zero(argv, roles):
    code, err = _run(argv, _valid_files(roles))
    assert (code, err) == (0, "")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_verb_maps_malformed_files_to_documented_exits(data):
    argv, roles = data.draw(st.sampled_from(CASES))
    role = data.draw(st.sampled_from(roles))
    files = _valid_files(roles)
    files[role] = data.draw(corrupted_file(VALID[role]))
    code, err = _run(argv, files)
    assert code in DOCUMENTED_EXITS
    assert "Traceback" not in err


@settings(max_examples=20, deadline=None)
@given(trials=st.integers(-2, 5), seed=st.integers(-(2**70), 2**70))
def test_oracle_check_exits_are_documented(trials, seed):
    argv = ["oracle-check", "--trials", str(trials), "--seed", str(seed)]
    if trials < 0 or seed < 0:  # a usage error, before any trial runs
        with pytest.raises(SystemExit) as usage:
            _run(argv, {})
        assert usage.value.code == 2
        return
    code, err = _run(argv, {})
    assert code == 0
    assert "Traceback" not in err


def test_a_negative_seed_is_a_usage_error_that_names_the_flag(capsys):
    # the seed of a PCG64 generator must not be negative
    with pytest.raises(SystemExit) as usage:
        main(["oracle-check", "--trials", "0", "--seed", "-5"])
    assert usage.value.code == 2
    assert "argument --seed: must be at least 0, got -5" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize(
    "verb", [["enumerate", "m.json"], ["mine", "m.json"], ["drift", "g.json", "s.json"], ["oracle-check"]],
    ids=lambda verb: verb[0],
)
def test_a_budget_below_one_is_a_usage_error(verb, budget, capsys):
    with pytest.raises(SystemExit) as usage:
        main(verb + ["--budget", budget])
    assert usage.value.code == 2
    assert f"argument --budget: must be at least 1, got {budget}" in capsys.readouterr().err


def test_a_budget_that_is_not_an_integer_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as usage:
        main(["enumerate", "m.json", "--budget", "abc"])
    assert usage.value.code == 2
    assert "argument --budget: expected an integer, got 'abc'" in capsys.readouterr().err


def _with_literal(payload: dict, name: str, literal: str) -> bytes:
    text = formats.canonical_json({**payload, name: "@@"})
    return text.replace('"@@"', literal).encode("utf-8")


@pytest.mark.parametrize(
    "argv,role,data",
    [
        (["mine", "{successes}"], "successes", _with_literal(VALID["successes"], "trajectories", "5")),
        (["mine", "{successes}"], "successes", _with_literal(VALID["successes"], "trajectories", "[1]")),
        (["enumerate", "{mdp}"], "mdp", _with_literal(VALID["mdp"], "horizon", "1e400")),
        (["gen", "keydoor", "{kd_cfg}", "--out-dir", "{dir}"], "kd_cfg",
         _with_literal(VALID["kd_cfg"], "horizon", "1e400")),
        (["enumerate", "{mdp}"], "mdp", b'{"format": "mdp", "label": "\xff"}'),
        (["enumerate", "{mdp}"], "mdp", b"[" * 200_000 + b"]" * 200_000),
        (["mine", "{game}"], "game", formats.canonical_json(VALID["game"]).encode("utf-8")),
    ],
    ids=["trajectories-int", "trajectories-of-int", "mdp-horizon-overflow",
         "config-horizon-overflow", "not-utf8", "deep-nesting", "mine-a-game"],
)
def test_known_malformed_files_are_parse_errors(argv, role, data):
    code, err = _run(argv, {role: data})
    assert code == 3
    assert "parse error" in err and "Traceback" not in err


def test_an_integer_of_more_digits_than_json_reads_is_a_parse_error():
    # json.loads refuses an integer of more than 4,300 digits with a bare ValueError
    files = _valid_files(["game", "peer"])
    files["peer"] = _with_literal(VALID["peer"], "version", "9" * 5000)
    code, err = _run(["induce", "{game}", "{peer}"], files)
    assert code == 3
    assert err.startswith("trajcore: parse error: ") and "Traceback" not in err
    assert f"{os.sep}peer.json: " in err


@pytest.mark.parametrize("strip", [[], ["--strip-terminal"]], ids=["kept", "stripped"])
@pytest.mark.parametrize(
    "trajectory",
    [{"steps": [[0, TERMINAL]], "terminal_state": 3}, {"steps": [[-1, 0]], "terminal_state": 3},
     {"steps": [[0, 0]], "terminal_state": -1},
     # a successes file lists successes, so each trajectory ends at its goal
     {"steps": [[0, 0]], "terminal_state": None}, {"steps": [[0, 0], [1, 1]]}],
    ids=["reserved-action", "negative-state", "negative-terminal-state",
         "null-terminal-state", "no-terminal-state"],
)
def test_a_negative_state_or_action_in_a_successes_file_is_a_parse_error(trajectory, strip):
    # a step (s, TERMINAL) was mined as a terminal pair mid-trajectory, or dropped by --strip-terminal
    data = formats.canonical_json({**VALID["successes"], "trajectories": [trajectory]})
    code, err = _run(["mine", "{successes}", *strip], {"successes": data.encode("utf-8")})
    assert code == 3
    assert err.startswith("trajcore: parse error: ") and "Traceback" not in err
    assert f"{os.sep}successes.json: malformed trajectory entry: " in err


MINE_WITH_PHI = ["mine", "{mdp}", "--phi", "{kd_phi}"]
INDUCE = ["induce", "{game}", "{peer}"]
BUDGET = ["budget", "{game}", "{schedule}"]
GEN_COOP = ["gen", "coop-keydoor", "{coop_cfg}", "--out-dir", "{dir}"]


def _cell_as(role: str, name: str, literal: str) -> str:
    """Table ``name`` of ``role`` as JSON text, its first cell written as ``literal``.

    ``{}`` in ``literal`` stands for the cell's own JSON text, so ``'"{}"'``
    writes the number as a string that reads back as the same number.
    """
    table = json.loads(formats.canonical_json(VALID[role][name]))
    row = table
    while isinstance(row[0], list):
        row = row[0]
    cell, row[0] = json.dumps(row[0]), "@@"
    return formats.canonical_json(table).replace('"@@"', literal.format(cell))


def _phi_entries(*changed: list) -> str:
    """The key-door abstraction's entries, the first replaced by ``changed[0]``, ``changed[1:]`` added."""
    return formats.canonical_json([changed[0], *VALID["kd_phi"]["entries"][1:], *changed[1:]])


@pytest.mark.parametrize(
    "argv,roles,name,literal",
    [
        (["enumerate", "{mdp}"], ["mdp"], "goal_absorbing", '"no"'),
        (["enumerate", "{mdp}"], ["mdp"], "goal_absorbing", "1"),
        (["enumerate", "{mdp}"], ["mdp"], "horizon", "7.5"),
        (["enumerate", "{mdp}"], ["mdp"], "horizon", '"9"'),
        (["enumerate", "{mdp}"], ["mdp"], "horizon", "true"),
        (["enumerate", "{mdp}"], ["mdp"], "goals", "[15.0]"),
        (["gen", "keydoor", "{kd_cfg}", "--out-dir", "{dir}"], ["kd_cfg"], "corridor_length", "4.5"),
        (["budget", "{game}", "{schedule}"], ["game", "schedule"], "num_states", '"9"'),
        (["budget", "{game_v1}", "{schedule}"], ["game_v1", "schedule"], "horizon", "8.0"),
        (MINE_WITH_PHI, ["kd_phi", "mdp"], "collapse_runs", '"no"'),
        (MINE_WITH_PHI, ["kd_phi", "mdp"], "identity", "0"),
        (["mine", "{successes}"], ["successes"], "trajectories", '[{"steps": [[1.5, 0]]}]'),
        # every table cell is a JSON number: not a string, a bool or null
        (["enumerate", "{mdp}"], ["mdp"], "initial", _cell_as("mdp", "initial", '"{}"')),
        (["enumerate", "{mdp}"], ["mdp"], "kernel", _cell_as("mdp", "kernel", "true")),
        (["enumerate", "{mdp}"], ["mdp"], "reward", _cell_as("mdp", "reward", "null")),
        (INDUCE, ["peer", "game"], "probs", _cell_as("peer", "probs", '"{}"')),
        (INDUCE, ["peer", "game"], "probs", _cell_as("peer", "probs", "false")),
        (INDUCE, ["peer", "game"], "probs", _cell_as("peer", "probs", "null")),
        (BUDGET, ["game", "schedule"], "reward_1", _cell_as("game", "reward_1", '"{}"')),
        (BUDGET, ["game", "schedule"], "reward_1", _cell_as("game", "reward_1", "true")),
        (BUDGET, ["game", "schedule"], "reward_1", _cell_as("game", "reward_1", "null")),
        # a list field is a JSON list, of JSON strings where it holds names
        (GEN_COOP, ["coop_cfg"], "peer_modes", '{"helper": 0, "independent": 0}'),
        (GEN_COOP, ["coop_cfg"], "peer_modes", '"helper"'),
        (GEN_COOP, ["coop_cfg"], "peer_modes", "[1]"),
        (MINE_WITH_PHI, ["kd_phi", "mdp"], "entries", _phi_entries([0, 0, 7])),
        (MINE_WITH_PHI, ["kd_phi", "mdp"], "entries", _phi_entries([0, 0, None])),
        (MINE_WITH_PHI, ["kd_phi", "mdp"], "label", "7"),
        (MINE_WITH_PHI, ["kd_phi", "mdp"], "label", "null"),
        (INDUCE, ["peer", "game"], "label", "7"),
        # one entry per (s, a): a second one does not silently win
        (MINE_WITH_PHI, ["kd_phi", "mdp"], "entries", _phi_entries([0, 0, "move"], [0, 0, "find_key"])),
    ],
    ids=["bool-as-string", "bool-as-int", "int-as-float", "int-as-string", "int-as-bool",
         "goal-as-float", "config-int-as-float", "game-int-as-string", "dense-game-int-as-float",
         "phi-bool-as-string", "phi-bool-as-int", "step-as-float",
         "table-cell-string", "table-cell-bool", "table-cell-null",
         "peer-cell-string", "peer-cell-bool", "peer-cell-null",
         "reward-cell-string", "reward-cell-bool", "reward-cell-null",
         "peer-modes-object", "peer-modes-string", "peer-modes-of-int",
         "phi-symbol-int", "phi-symbol-null", "phi-label-int", "phi-label-null", "peer-label-int",
         "phi-duplicate-entry"],
)
def test_json_values_of_the_wrong_type_are_parse_errors(argv, roles, name, literal):
    # only JSON integers (not true or false) read as ints, and only true or false as bools
    files = _valid_files(roles)
    files[roles[0]] = _with_literal(VALID[roles[0]], name, literal)
    code, err = _run(argv, files)
    assert code == 3, err
    assert "parse error" in err and "expected a JSON" in err and "Traceback" not in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "argv,roles,name",
    [
        (["enumerate", "{mdp}"], ["mdp"], "reward"),
        (MINE_WITH_PHI, ["mdp", "kd_phi"], "reward"),
        (INDUCE, ["game", "peer"], "reward_1"),
        (BUDGET, ["game", "schedule"], "reward_1"),
        (["drift", "{game}", "{schedule}"], ["game", "schedule"], "reward_1"),
    ],
    ids=["enumerate", "mine", "induce", "budget", "drift"],
)
def test_a_non_finite_reward_is_a_validation_error(argv, roles, name, literal):
    # the reader takes NaN and Infinity, so validation is what keeps them out of every result
    files = _valid_files(roles)
    files[roles[0]] = _with_literal(VALID[roles[0]], name, _cell_as(roles[0], name, literal))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _run(argv, files)
    assert code == 4, err
    assert err.startswith(f"trajcore: invalid input: {name} entry (0, 0") and "is not finite" in err
    assert "Traceback" not in err and caught == []


def _game_with(change) -> bytes:
    payload = json.loads(formats.canonical_json(VALID["game"]))
    change(payload)
    return formats.canonical_json(payload).encode("utf-8")


def _set(index: int, value):
    def change(payload):
        payload["entries"][0][index] = value
    return change


def _listed(index: int):
    """Every entry's cell ``index`` written as a one-item list, which a column reader would flatten."""
    def change(payload):
        for entry in payload["entries"]:
            entry[index] = [entry[index]]
    return change


def _nested(depth: int):
    """A reward table of one cell inside ``depth`` lists: past NumPy's 32 or 64 dimensions."""
    def change(payload):
        table = 0.0
        for _ in range(depth):
            table = [table]
        payload["reward_1"] = table
    return change


def _remove_first_row(payload):
    payload["entries"] = [e for e in payload["entries"] if e[:3] != [0, 0, 0]]


def _scale_first_row(payload):
    for entry in payload["entries"]:
        if entry[:3] == [0, 0, 0]:
            entry[4] *= 0.5


VERSION_2_GAME_FAULTS = {
    "index-out-of-range": (3, _set(3, 4)),
    "index-negative": (3, _set(0, -1)),
    "index-float": (3, _set(1, 0.0)),
    "index-bool": (3, _set(2, False)),
    "index-list": (3, _listed(0)),
    "p-string": (3, _set(4, "0.5")),
    "p-null": (3, _set(4, None)),
    "p-list": (3, _listed(4)),
    "duplicate": (3, lambda p: p["entries"].append(list(p["entries"][0]))),
    "arity-4": (3, lambda p: p["entries"][0].pop()),
    "arity-6": (3, lambda p: p["entries"][0].append(0)),
    "entry-not-a-list": (3, lambda p: p["entries"].__setitem__(0, {"s": 0})),
    "entries-not-a-list": (3, lambda p: p.__setitem__("entries", 5)),
    "unknown-version": (3, lambda p: p.__setitem__("version", 3)),
    "version-float": (3, lambda p: p.__setitem__("version", 2.0)),
    "reward-shape": (4, lambda p: p["reward_1"].pop()),
    "reward-nested-40-deep": (4, _nested(40)),
    "reward-nested-70-deep": (3, _nested(70)),
    "p-negative": (4, _set(4, -0.5)),
    "p-nan": (4, _set(4, float("nan"))),
    "p-inf": (4, _set(4, float("inf"))),
    "row-sum": (4, _scale_first_row),
    "row-without-entries": (4, _remove_first_row),
    "goal-out-of-range": (4, lambda p: p.__setitem__("goals", [5])),
}


@pytest.mark.parametrize("fault", sorted(VERSION_2_GAME_FAULTS))
def test_malformed_version_2_game_entries_map_to_documented_exits(fault):
    expected, change = VERSION_2_GAME_FAULTS[fault]
    files = _valid_files(["schedule"])
    files["game"] = _game_with(change)
    code, err = _run(["budget", "{game}", "{schedule}"], files)
    assert code == expected, err
    assert "Traceback" not in err
    assert ("parse error" if expected == 3 else "invalid input") in err
