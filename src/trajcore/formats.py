"""Versioned JSON file formats and deterministic report emission.

Every file is a single JSON object with a ``format`` and ``version`` field.
Probability tables are dense row-major nested lists; floats round-trip
exactly (shortest-repr decimal).  Files hold the canonical form (sorted keys,
no whitespace), the same bytes that :func:`digest` hashes, and writes are
atomic (temp file then rename), so fixed inputs produce byte-identical files
and payloads across runs and platforms.
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import MISSING, fields
from typing import Any, get_type_hints

import numpy as np

from . import __version__
from .drift import BudgetReport, DriftReport, PrototypeChange
from .envs import CoopKeyDoorConfig, KeyDoorConfig
from .errors import ParseError
from .mdp import MarkovGame, PeerPolicy, SuccessSet, TabularMDP, Trajectory
from .mining import Abstraction, CoreSet

FORMAT_VERSION = 1


def canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload: Any) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def write_json(path: str, payload: Any) -> None:
    """Atomic canonical write: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(canonical_json(payload) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path: str) -> Any:
    """Decode a UTF-8 JSON file; any failure to do so is a :class:`ParseError`."""
    try:
        with open(path, "rb") as handle:
            return json.loads(handle.read().decode("utf-8"))
    except OSError as exc:
        raise ParseError(path, str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(path, f"not valid UTF-8 at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except RecursionError as exc:
        raise ParseError(path, "JSON nested too deeply") from exc


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
    return str(payload["format"])


# ---------------------------------------------------------------------------
# Dataclass payloads: MDPs, games, environment configs
# ---------------------------------------------------------------------------

# how a decoded JSON value becomes a field of each annotated type
_READERS = {
    int: int,
    bool: bool,
    np.ndarray: lambda value: np.asarray(value, dtype=float),
    frozenset[int]: lambda value: frozenset(int(v) for v in value),
    tuple[str, ...]: lambda value: tuple(str(v) for v in value),
}


def _to_payload(obj, kind: str) -> dict:
    payload = {"format": kind, "version": FORMAT_VERSION}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, frozenset):
            value = sorted(value)
        elif isinstance(value, tuple):
            value = list(value)
        payload[f.name] = value
    return payload


def _from_payload(cls, payload: Any, path: str, kind: str):
    """Dataclass ``cls`` from a payload holding each field that has no default."""
    payload = _expect(payload, path, kind)
    types = get_type_hints(cls)
    readers = [
        (f.name, _READERS[types[f.name]])
        for f in fields(cls)
        if f.name in payload or f.default is MISSING
    ]
    with _malformed(path, kind.replace("_", " ")):
        return cls(**{name: read(_field(payload, path, name)) for name, read in readers})


def mdp_to_payload(mdp: TabularMDP) -> dict:
    return _to_payload(mdp, "mdp")


def mdp_from_payload(payload: dict, path: str = "<memory>") -> TabularMDP:
    return _from_payload(TabularMDP, payload, path, "mdp")


def game_to_payload(game: MarkovGame) -> dict:
    return _to_payload(game, "game")


def game_from_payload(payload: dict, path: str = "<memory>") -> MarkovGame:
    return _from_payload(MarkovGame, payload, path, "game")


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
            probs=np.asarray(_field(entry, path, "probs"), dtype=float),
            label=str(entry.get("label", default_label)),
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
    if payload.get("identity", False):
        mapping = None
    else:
        entries = _field(payload, path, "entries")
        with _malformed(path, "abstraction entries"):
            mapping = {(int(s), int(a)): str(symbol) for s, a, symbol in entries}
    return Abstraction(
        mapping=mapping,
        collapse_runs=bool(payload.get("collapse_runs", False)),
        label=str(payload.get("label", "")),
    )


def trajectory_to_payload(traj: Trajectory) -> dict:
    return {
        "steps": [[s, a] for s, a in traj.steps],
        "terminal_state": traj.terminal_state,
    }


def trajectory_from_payload(entry: dict, path: str = "<memory>") -> Trajectory:
    with _malformed(path, "trajectory entry"):
        terminal = entry.get("terminal_state")
        return Trajectory(
            steps=tuple((int(s), int(a)) for s, a in entry["steps"]),
            terminal_state=None if terminal is None else int(terminal),
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
            trajectory_from_payload(entry, path) for entry in entries
        )


def symbol_to_json(symbol) -> Any:
    if isinstance(symbol, tuple):
        return [int(symbol[0]), int(symbol[1])]
    return symbol


def symbol_from_json(value) -> Any:
    if isinstance(value, list):
        return (int(value[0]), int(value[1]))
    return value


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


def drift_to_payload(report: DriftReport) -> dict:
    steps = []
    for step in report.steps:
        steps.append(
            {
                "index": step.index,
                "common_core": None
                if step.common_core is None
                else core_to_payload(step.common_core),
                "literal_intersection": None
                if step.literal_intersection is None
                else _members_to_payload(step.literal_intersection),
                "vanished": [_change_to_payload(change) for change in step.vanished],
                "gained": [_change_to_payload(change) for change in step.gained],
                "common_within_individual": step.common_within_individual,
            }
        )
    return {
        "episode_cores": [
            None if c is None else core_to_payload(c) for c in report.episode_cores
        ],
        "steps": steps,
        "individual_core": None
        if report.individual is None
        else core_to_payload(report.individual),
        "individual_core_definition": report.individual_core_definition,
        "budget": budget_to_payload(report.budget),
    }


def build_report(command: list[str], inputs: "dict[str, str]", results: Any, elapsed: float) -> dict:
    """Self-describing command report with input and result digests."""
    return {
        "format": "report",
        "version": FORMAT_VERSION,
        "tool_version": __version__,
        "command": list(command),
        "inputs": dict(sorted(inputs.items())),
        "results": results,
        "results_digest": digest(results),
        "timing_s": round(elapsed, 6),
    }
