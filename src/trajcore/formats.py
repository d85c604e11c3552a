"""Versioned JSON file formats and deterministic report emission.

Every file is a single JSON object with a ``format`` and ``version`` field.
Floats round-trip exactly (shortest-repr decimal).  Files hold the bytes that
:func:`digest` hashes, the canonical form (sorted keys, no whitespace), plus
one newline.  Writes are atomic (temp file then rename), so fixed inputs
produce byte-identical files and payloads across runs and platforms.

Each decoded value is read by one exact rule per JSON kind, and a value of
another kind is a :class:`ParseError`: ints are JSON integers, bools are
``true`` or ``false``, strings are JSON strings, lists are JSON lists, table
cells are JSON numbers, and keyed entries hold one entry per key.

Games are written as version 2: the joint kernel is the list ``entries`` of
its non-zero entries ``[s, a1, a2, t, p]``, in ascending (s, a1, a2, t)
order, as :class:`~trajcore.mdp.KernelRows` holds it.  The reader also
accepts version 1, with the dense ``joint_kernel``.  Every other table and
format is dense version 1: the ``mdp`` payload because ``trajcore induce``
emits it as results whose digests must not change, peer policies and
schedules because they hold one row of peer actions per state.
"""
from __future__ import annotations

import hashlib
import json
import os
import stat
import tempfile
from contextlib import contextmanager
from dataclasses import MISSING, fields
from itertools import chain
from typing import Any, get_type_hints

import numpy as np

from . import __version__
from .drift import BudgetReport, DriftReport, PrototypeChange
from .envs import CoopKeyDoorConfig, KeyDoorConfig
from .errors import DimensionMismatch, OutputError, ParseError
from .mdp import KernelRows, MarkovGame, PeerPolicy, SuccessSet, TabularMDP, Trajectory, _pair
from .mining import Abstraction, CoreSet

FORMAT_VERSION = 1
GAME_FORMAT_VERSION = 2


def canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload: Any) -> str:
    return _sha256(canonical_json(payload))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def output_target(path: str) -> str:
    """The file that a write to ``path`` replaces: ``path`` with its links resolved.

    An existing target that is not a regular file, such as a directory, a
    FIFO or a device, is an :class:`OutputError`, so no write replaces it.
    """
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except OSError:  # no file there yet, or none can be: the write says why
        return target
    if not stat.S_ISREG(mode):
        kind = "Is a directory" if stat.S_ISDIR(mode) else "not a regular file"
        raise OutputError(path, f"cannot write: {kind}: {path}")
    return target


def write_json(path: str, payload: Any) -> None:
    """Atomic canonical write of ``payload``: :func:`write_canonical` of its canonical JSON."""
    write_canonical(path, canonical_json(payload))


def write_canonical(path: str, text: str) -> None:
    """Atomic write of ``text`` and a newline: temp file in the target directory, then rename.

    The target is :func:`output_target`, so a symbolic link keeps its place
    and its target gets the new bytes.  The file gets mode
    ``0o666 & ~umask``, as ``open`` would give it.  Any ``OSError`` on the
    way is an :class:`OutputError` that names the path.
    """
    tmp = None
    try:
        target = output_target(path)
        directory = os.path.dirname(target)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(text + "\n")
        umask = os.umask(0)  # the only way to read it; put back at once
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            where = exc.filename if exc.filename not in (None, tmp) else path
            raise OutputError(path, f"cannot write: {exc.strerror or exc}: {where}") from exc
        raise


def read_input(path: str) -> tuple[Any, str]:
    """Read a UTF-8 JSON file once: its decoded payload and the sha256 of its bytes.

    Any failure to read or decode the file is a :class:`ParseError`.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        return json.loads(data.decode("utf-8")), hashlib.sha256(data).hexdigest()
    except OSError as exc:
        raise ParseError(path, str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(path, f"not valid UTF-8 at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except ValueError as exc:  # an integer past the int_max_str_digits limit
        raise ParseError(path, f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(path, "JSON nested too deeply") from exc


def read_json(path: str) -> Any:
    """The decoded payload of :func:`read_input`."""
    return read_input(path)[0]


@contextmanager
def _malformed(path: str, what: str):
    """Report a fault met while converting a decoded payload as a :class:`ParseError`."""
    try:
        yield
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(path, f"malformed {what}: {exc}") from exc


def _expect(payload: Any, path: str, kind: str) -> dict:
    if not isinstance(payload, dict):
        raise ParseError(path, "top-level value must be a JSON object")
    got = payload.get("format")
    if got != kind:
        raise ParseError(path, f"expected format {kind!r}, found {got!r}")
    return payload


def _field(payload: dict, path: str, name: str):
    if name not in payload:
        raise ParseError(path, f"missing field {name!r}")
    return payload[name]


def sniff_format(payload: Any, path: str = "<memory>") -> str:
    """The ``format`` field of an already-decoded payload."""
    if not isinstance(payload, dict) or "format" not in payload:
        raise ParseError(path, "missing 'format' field")
    with _malformed(path, "format field"):
        return _str(payload["format"])


# ---------------------------------------------------------------------------
# Dataclass payloads: MDPs, games, environment configs
# ---------------------------------------------------------------------------

def _exact(kind: type, name: str):
    """A reader that takes only values of type ``kind``: no bool for an int, no 7.5 or "9"."""

    def read(value):
        if type(value) is not kind:
            raise TypeError(f"expected a JSON {name}, got {value!r}")
        return value

    return read


_int, _bool = _exact(int, "integer"), _exact(bool, "bool")
_str, _list = _exact(str, "string"), _exact(list, "list")


def _numbers(value, kinds: tuple[type, ...] = (int, float), name: str = "number") -> np.ndarray:
    """A table as floats: JSON lists, nested to any depth, of cells whose types are in ``kinds``.

    The lists are flattened one nesting level at a time, with one set of
    item types and one of lengths per level, while every item is a list
    and all have one length: the shape NumPy gives an object array of them.
    Every item of the last level is a cell.  An object array is read as the
    cells of its shape.
    """
    if isinstance(value, np.ndarray):
        shape, types, cells = value.shape, set(map(type, value.flat)), value
    else:
        shape, cells = [], [value]
        while (types := set(map(type, cells))) == {list}:
            lengths = set(map(len, cells))
            if len(lengths) != 1:
                break
            shape.append(lengths.pop())
            cells = list(chain.from_iterable(cells))
    if not types.issubset(kinds):
        bad = next(cell for cell in getattr(cells, "flat", cells) if type(cell) not in kinds)
        raise TypeError(f"expected a JSON {name}, got {bad!r}")
    return np.asarray(cells, dtype=float).reshape(shape)


# how a decoded JSON value becomes a field of each annotated type
_READERS = {
    int: _int,
    bool: _bool,
    np.ndarray: _numbers,
    frozenset[int]: lambda value: frozenset(map(_int, _list(value))),
    tuple[str, ...]: lambda value: tuple(map(_str, _list(value))),
}


def _to_payload(obj, kind: str, skip: str = "") -> dict:
    payload = {"format": kind, "version": FORMAT_VERSION}
    for f in fields(obj):
        if f.name == skip:
            continue
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, frozenset):
            value = sorted(value)
        elif isinstance(value, tuple):
            value = list(value)
        payload[f.name] = value
    return payload


def _from_payload(cls, payload: Any, path: str, kind: str, **ready):
    """Dataclass ``cls`` from ``ready`` and a payload holding each other field with no default."""
    payload = _expect(payload, path, kind)
    types = get_type_hints(cls)
    readers = [
        (f.name, _READERS[types[f.name]])
        for f in fields(cls)
        if f.name not in ready and (f.name in payload or f.default is MISSING)
    ]
    with _malformed(path, kind.replace("_", " ")):
        return cls(**ready, **{name: read(_field(payload, path, name)) for name, read in readers})


def mdp_to_payload(mdp: TabularMDP) -> dict:
    return _to_payload(mdp, "mdp")


def mdp_from_payload(payload: dict, path: str = "<memory>") -> TabularMDP:
    return _from_payload(TabularMDP, payload, path, "mdp")


def game_to_payload(game: MarkovGame) -> dict:
    """Version 2: the joint kernel as its non-zero ``entries``."""
    rows = game.rows
    index = np.unravel_index(rows.entry_rows(), rows.shape[:-1])
    columns = [column.tolist() for column in (*index, rows.targets, rows.probs)]
    return {
        **_to_payload(game, "game", skip="joint_kernel"),
        "version": GAME_FORMAT_VERSION,
        "entries": [list(entry) for entry in zip(*columns)],
    }


def game_from_payload(payload: dict, path: str = "<memory>") -> MarkovGame:
    """A game from a version-2 payload, or from a dense version-1 one."""
    payload = _expect(payload, path, "game")
    version = payload.get("version")
    if type(version) is not int or version not in (FORMAT_VERSION, GAME_FORMAT_VERSION):
        raise ParseError(path, f"unsupported game version {version!r}")
    ready = _version_2_tables(payload, path) if version == GAME_FORMAT_VERSION else {}
    return _from_payload(MarkovGame, payload, path, "game", **ready)


def _version_2_tables(payload: dict, path: str) -> dict:
    """The ``reward_1`` and the joint kernel rows of a version-2 game payload.

    Malformed ``entries`` are a :class:`ParseError`: not a list of JSON integers
    ``[s, a1, a2, t]`` and a number ``p``, an index out of range, or two entries
    at one (s, a1, a2, t).  Probabilities are checked, as for a dense table,
    by the game as it is built.
    """
    with _malformed(path, "game"):
        dims = tuple(
            _int(_field(payload, path, name))
            for name in ("num_states", "num_actions_1", "num_actions_2")
        )
        reward = _numbers(_field(payload, path, "reward_1"))
    # the dense reward has one value per row: checking it first bounds the
    # number of rows by the size of the file, whatever sizes the file declares
    if reward.shape != dims:
        raise DimensionMismatch(f"reward shape {reward.shape}, expected {dims}")
    shape = (*dims, dims[0])
    with _malformed(path, "game entries"):
        entries = _list(_field(payload, path, "entries"))
        cells = np.array(entries or np.empty((0, 5)), dtype=object)
        if cells.shape[1:] != (5,):
            raise ValueError("expected a JSON list of entries [s, a1, a2, t, p]")
        # exact for every index in range: the reward check bounds them far below 2**53
        index, probs = _numbers(cells[:, :4], (int,), "integer"), _numbers(cells[:, 4])
    outside = np.flatnonzero(((index < 0) | (index >= shape)).any(axis=1))
    if outside.size:
        raise ParseError(path, f"game entry {entries[outside[0]]!r} out of range for shape {shape}")
    keys = np.ravel_multi_index(index.astype(np.int64).T, shape)
    order = np.argsort(keys, kind="stable")
    keys, probs = keys[order], probs[order]
    repeated = np.flatnonzero(keys[1:] == keys[:-1])
    if repeated.size:
        raise ParseError(path, f"duplicate game entry at {entries[order[repeated[0]]][:4]!r}")
    kept = np.flatnonzero(probs)  # rows store no zero entry
    return dict(reward_1=reward, joint_kernel=KernelRows.from_keys(shape, keys[kept], probs[kept]))


def keydoor_config_to_payload(cfg: KeyDoorConfig) -> dict:
    return _to_payload(cfg, "keydoor_config")


def keydoor_config_from_payload(payload: dict, path: str = "<memory>") -> KeyDoorConfig:
    return _from_payload(KeyDoorConfig, payload, path, "keydoor_config")


def coop_config_to_payload(cfg: CoopKeyDoorConfig) -> dict:
    return _to_payload(cfg, "coop_keydoor_config")


def coop_config_from_payload(payload: dict, path: str = "<memory>") -> CoopKeyDoorConfig:
    return _from_payload(CoopKeyDoorConfig, payload, path, "coop_keydoor_config")


# ---------------------------------------------------------------------------
# Policies and schedules
# ---------------------------------------------------------------------------


def _peer_entry(peer: PeerPolicy) -> dict:
    return {"label": peer.label, "probs": peer.probs.tolist()}


def _peer_from_entry(entry: dict, path: str, default_label: str) -> PeerPolicy:
    with _malformed(path, "peer policy"):
        return PeerPolicy(
            probs=_numbers(_field(entry, path, "probs")),
            label=_str(entry.get("label", default_label)),
        )


def peer_to_payload(peer: PeerPolicy) -> dict:
    return {"format": "peer_policy", "version": FORMAT_VERSION, **_peer_entry(peer)}


def peer_from_payload(payload: dict, path: str = "<memory>") -> PeerPolicy:
    return _peer_from_entry(_expect(payload, path, "peer_policy"), path, "peer")


def schedule_to_payload(schedule: "list[PeerPolicy] | tuple[PeerPolicy, ...]") -> dict:
    return {
        "format": "peer_schedule",
        "version": FORMAT_VERSION,
        "policies": [_peer_entry(p) for p in schedule],
    }


def schedule_from_payload(payload: dict, path: str = "<memory>") -> list[PeerPolicy]:
    payload = _expect(payload, path, "peer_schedule")
    policies = _field(payload, path, "policies")
    if not isinstance(policies, list) or not policies:
        raise ParseError(path, "field 'policies' must be a nonempty list")
    return [_peer_from_entry(entry, path, f"peer-e{i + 1}") for i, entry in enumerate(policies)]


# ---------------------------------------------------------------------------
# Abstractions, trajectories, cores
# ---------------------------------------------------------------------------


def abstraction_to_payload(phi: Abstraction) -> dict:
    entries = []
    if phi.mapping is not None:
        entries = [[s, a, symbol] for (s, a), symbol in sorted(phi.mapping.items())]
    return {
        "format": "abstraction",
        "version": FORMAT_VERSION,
        "label": phi.label,
        "collapse_runs": phi.collapse_runs,
        "identity": phi.mapping is None,
        "entries": entries,
    }


def abstraction_from_payload(payload: dict, path: str = "<memory>") -> Abstraction:
    payload = _expect(payload, path, "abstraction")
    with _malformed(path, "abstraction"):
        mapping = None
        if not _bool(payload.get("identity", False)):
            entries = _list(_field(payload, path, "entries"))
            mapping = {(_int(s), _int(a)): _str(symbol) for s, a, symbol in map(_list, entries)}
            if len(mapping) < len(entries):
                raise ValueError("expected a JSON list of one entry per (s, a)")
        return Abstraction(
            mapping=mapping,
            collapse_runs=_bool(payload.get("collapse_runs", False)),
            label=_str(payload.get("label", "")),
        )


def trajectory_to_payload(traj: Trajectory) -> dict:
    return {
        "steps": [[s, a] for s, a in traj.steps],
        "terminal_state": traj.terminal_state,
    }


def _index(value) -> int:
    """A state or action: a JSON integer of at least 0, so no step is the reserved terminal pair."""
    if _int(value) < 0:
        raise ValueError(f"expected a state or action of at least 0, got {value}")
    return value


def trajectory_from_payload(entry: dict, path: str = "<memory>") -> Trajectory:
    """A success: a file that lists a trajectory with no goal ``terminal_state`` is malformed."""
    with _malformed(path, "trajectory entry"):
        return Trajectory(
            steps=tuple((_index(s), _index(a)) for s, a in map(_list, _list(entry["steps"]))),
            terminal_state=_index(entry["terminal_state"]),
        )


def successes_to_payload(successes: SuccessSet) -> dict:
    return {
        "format": "successes",
        "version": FORMAT_VERSION,
        "count": len(successes),
        "trajectories": [trajectory_to_payload(t) for t in successes],
    }


def successes_from_payload(payload: dict, path: str = "<memory>") -> SuccessSet:
    payload = _expect(payload, path, "successes")
    entries = _field(payload, path, "trajectories")
    with _malformed(path, "successes"):
        return SuccessSet.from_iterable(
            trajectory_from_payload(entry, path) for entry in _list(entries)
        )


def symbol_to_json(symbol) -> Any:
    """A pair as ``[s, a]``, any other tuple as the list of its items, a name as it is."""
    if isinstance(symbol, tuple):
        return list(_pair(symbol) or symbol)
    return symbol


def _members_to_payload(members) -> list:
    return [[symbol_to_json(sym) for sym in member] for member in members]


def core_to_payload(core_set: CoreSet) -> dict:
    return {
        "alphabet_tag": core_set.alphabet_tag,
        "strip_terminal_applied": core_set.strip_terminal_applied,
        "count": len(core_set),
        "members": _members_to_payload(core_set.members),
    }


# ---------------------------------------------------------------------------
# Drift payloads and reports
# ---------------------------------------------------------------------------


def budget_to_payload(budget: BudgetReport) -> dict:
    return {
        "kernel_deltas": list(budget.kernel_deltas),
        "reward_deltas": list(budget.reward_deltas),
        "total": budget.total,
    }


def _change_to_payload(change: PrototypeChange) -> dict:
    return {
        "member": [symbol_to_json(s) for s in change.member],
        "witness": trajectory_to_payload(change.witness),
        "witness_image": [symbol_to_json(s) for s in change.witness_image],
    }


def _unless_none(convert, value):
    return None if value is None else convert(value)


def drift_to_payload(report: DriftReport) -> dict:
    steps = [
        {
            "index": step.index,
            "common_core": _unless_none(core_to_payload, step.common_core),
            "literal_intersection": _unless_none(_members_to_payload, step.literal_intersection),
            "vanished": [_change_to_payload(change) for change in step.vanished],
            "gained": [_change_to_payload(change) for change in step.gained],
            "common_within_individual": step.common_within_individual,
        }
        for step in report.steps
    ]
    return {
        "episode_cores": [_unless_none(core_to_payload, c) for c in report.episode_cores],
        "steps": steps,
        "individual_core": _unless_none(core_to_payload, report.individual),
        "individual_core_definition": report.individual_core_definition,
        "budget": budget_to_payload(report.budget),
    }


def build_report(
    command: list[str], inputs: "dict[str, str]", results: Any, results_json: str, elapsed: float
) -> dict:
    """Self-describing command report with input and result digests.

    ``results_json`` is :func:`canonical_json` of ``results``, made once by
    the caller for the digest and for any ``--out`` file.
    """
    return {
        "format": "report",
        "version": FORMAT_VERSION,
        "tool_version": __version__,
        "command": list(command),
        "inputs": dict(sorted(inputs.items())),
        "results": results,
        "results_digest": _sha256(results_json),
        "timing_s": round(elapsed, 6),
    }
