"""The three seeded workloads of the trajcore benchmark.

Each workload turns a seed into a fixed list of operations (one "pass") and
the set-up that builds their inputs.  The seed only changes inputs in ways
that keep the work of a pass the same, so runs with different seeds measure
the same amount of work on different concrete inputs:

* ``coop-drift`` deals corridor lengths to its layouts.  Cells beyond the
  goal are unreachable, so the length changes state numbering, table sizes
  and result digests but not the searches.
* ``schedule-cli`` draws one of ``SCHEDULE_VARIANTS`` sets of weights for
  the mixed episodes of its schedules; the order of episode kinds, and so
  every search, is the same for all seeds.
* ``mine-families`` relabels a fixed pool of sequence families with seeded
  symbol names and state permutations.  Mining commutes with relabelling,
  so each result is mapped back before it is compared with the reference.

Operations call the library through module attributes at call time, so the
span wrappers of ``tracer.py`` see them.  Nothing here reads the clock;
``run.py`` times the operations.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from trajcore import cli, drift, envs, formats, mdp, mining
from trajcore.envs import CoopKeyDoorConfig
from trajcore.mdp import PeerPolicy, SuccessSet, Trajectory
from trajcore.mining import CoreSet

# (key, door, goal, start, peer_start): every layout of the 4-cell corridor
# that is valid at horizon 8.  Longer corridors add cells beyond the goal.
COOP_SHAPES_H8 = (
    (0, 1, 2, 0, 0), (0, 1, 2, 0, 1), (0, 1, 3, 0, 0), (0, 1, 3, 0, 1),
    (0, 2, 3, 0, 0), (0, 2, 3, 0, 1), (1, 2, 3, 0, 1), (1, 2, 3, 0, 2),
    (1, 2, 3, 1, 1), (1, 2, 3, 1, 2),
)
# The cheapest horizon-9 layout that finishes under the default node budget.
COOP_SHAPES_H9 = ((0, 1, 3, 0, 1),)
# Horizon-9 layouts that trip the default 10M-node guard.  They are not
# timed (no timed operation may fail); their digests are in the reference,
# computed once with a raised budget.
COOP_GUARDED_H9 = tuple((0, 2, 3, s, p) for s in (0, 1) for p in (0, 1, 2))
COOP_LENGTHS = (4, 5, 6)

SCHEDULE_VARIANTS = 16
SCHEDULE_LAYOUT = CoopKeyDoorConfig(
    corridor_length=5, key_pos=1, door_pos=2, goal_pos=3, start_pos=1,
    peer_start=1, horizon=7,
)
SCHEDULES_PER_PASS = 8
# helper, independent and mixed episodes per schedule, in seeded order
SCHEDULE_MIX = (8, 8, 8)

DEEP_FAMILIES = 9  # with the wide ones, an odd number of ops, so no median falls between two
DEEP_ALPHABET = "abcd"
DEEP_LENGTH = 22
DEEP_COPIES = 3
DEEP_EDITS = 2
WIDE_FAMILIES = 4
WIDE_MDP = dict(num_states=8, num_actions=3, horizon=8)


@dataclass
class Op:
    """One timed call.  ``key`` names its inputs in the reference file."""

    key: str
    run: Callable[[], Any]
    check: Callable[[Any], "tuple[str | None, str | None]"]
    counts: Callable[[Any], dict]


# ---------------------------------------------------------------------------
# coop-drift: library drift_report on cooperative corridors
# ---------------------------------------------------------------------------


def coop_config(shape, length: int, horizon: int) -> CoopKeyDoorConfig:
    key, door, goal, start, peer = shape
    return CoopKeyDoorConfig(
        corridor_length=length, key_pos=key, door_pos=door, goal_pos=goal,
        start_pos=start, peer_start=peer, horizon=horizon,
    )


def layout_key(cfg: CoopKeyDoorConfig) -> str:
    return (f"L{cfg.corridor_length}-k{cfg.key_pos}-d{cfg.door_pos}-g{cfg.goal_pos}"
            f"-s{cfg.start_pos}-p{cfg.peer_start}-H{cfg.horizon}")


def _report_counts(report) -> dict:
    cores = [c for c in report.episode_cores if c is not None]
    cores += [s.common_core for s in report.steps if s.common_core is not None]
    if report.individual is not None:
        cores.append(report.individual)
    return {"episodes": len(report.episode_cores),
            "core_members": sum(len(c) for c in cores)}


def coop_op(cfg: CoopKeyDoorConfig, **budgets) -> Op:
    game, schedule, phi = envs.build_coop_keydoor(cfg)
    seq = drift.EpisodeSequence.from_schedule(game, schedule)
    return Op(
        key=layout_key(cfg),
        run=lambda: drift.drift_report(seq, phi=phi, strip_terminal=True, **budgets),
        check=lambda report: (formats.digest(formats.drift_to_payload(report)), None),
        counts=_report_counts,
    )


def setup_coop(seed: int, work_dir: str) -> "list[Op]":
    rng = np.random.Generator(np.random.PCG64(seed))
    picks = [(s, 8) for s in COOP_SHAPES_H8] + [(s, 9) for s in COOP_SHAPES_H9]
    # every seed deals the same lengths, in its own order, so table sizes
    # (memory and set-up time) do not depend on the seed
    lengths = np.resize(COOP_LENGTHS, len(picks))
    rng.shuffle(lengths)
    order = rng.permutation(len(picks))
    return [coop_op(coop_config(picks[i][0], int(lengths[i]), picks[i][1])) for i in order]


# ---------------------------------------------------------------------------
# schedule-cli: in-process `trajcore drift` on long drifting schedules
# ---------------------------------------------------------------------------


def schedule_policies(helper: PeerPolicy, independent: PeerPolicy, index: int, rng) -> "list[PeerPolicy]":
    """Schedule ``index`` of a pass: helper, independent and mixed episodes.

    The order of episode kinds depends only on ``index``, so every seed does
    the same searches; ``rng`` draws the weight ``w`` in (0.1, 0.9) of each
    mixed episode.  A mixed episode's support is the union of both peers',
    so support signatures repeat across the schedule while probability
    magnitudes drift.
    """
    kinds = np.repeat(np.arange(3), SCHEDULE_MIX)
    np.random.Generator(np.random.PCG64([3, index])).shuffle(kinds)
    policies = []
    for episode, kind in enumerate(kinds, start=1):
        w = (1.0, 0.0, float(rng.uniform(0.1, 0.9)))[kind]
        probs = w * helper.probs + (1.0 - w) * independent.probs
        policies.append(PeerPolicy(probs=probs, label=f"w{w:.3f}-e{episode}"))
    return policies


def run_cli(argv: "list[str]") -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_check(out_path: str):
    def check(result):
        code, stdout, stderr = result
        if code != 0:
            return None, f"exit {code}: {stderr.strip()}"
        digest = json.loads(stdout)["results_digest"]
        with open(out_path) as handle:
            written = formats.digest(json.load(handle))
        if written != digest:
            return None, f"--out payload digest {written} differs from report {digest}"
        return digest, None
    return check


def _cli_counts(result) -> dict:
    code, stdout, _ = result
    if code != 0:
        return {}
    results = json.loads(stdout)["results"]
    cores = [c for c in results["episode_cores"] if c is not None]
    cores += [s["common_core"] for s in results["steps"] if s["common_core"] is not None]
    if results["individual_core"] is not None:
        cores.append(results["individual_core"])
    return {"episodes": results["num_episodes"],
            "core_members": sum(c["count"] for c in cores)}


def setup_schedule(seed: int, work_dir: str) -> "list[Op]":
    variant = seed % SCHEDULE_VARIANTS
    rng = np.random.Generator(np.random.PCG64([1, variant]))
    game, (helper, independent), phi = envs.build_coop_keydoor(SCHEDULE_LAYOUT)
    game_path = os.path.join(work_dir, "coop.game.json")
    phi_path = os.path.join(work_dir, "coop.phi.json")
    formats.write_json(game_path, formats.game_to_payload(game))
    formats.write_json(phi_path, formats.abstraction_to_payload(phi))
    ops = []
    for j in range(SCHEDULES_PER_PASS):
        sched_path = os.path.join(work_dir, f"schedule-{j}.json")
        out_path = os.path.join(work_dir, f"drift-{j}.json")
        formats.write_json(
            sched_path, formats.schedule_to_payload(schedule_policies(helper, independent, j, rng))
        )
        argv = ["drift", game_path, sched_path, "--phi", phi_path,
                "--strip-terminal", "--out", out_path]
        ops.append(Op(key=f"v{variant}-s{j}", run=lambda argv=argv: run_cli(argv),
                      check=_cli_check(out_path), counts=_cli_counts))
    order = np.random.Generator(np.random.PCG64(seed)).permutation(len(ops))
    return [ops[i] for i in order]


# ---------------------------------------------------------------------------
# mine-families: library core() on explicit sequence families
# ---------------------------------------------------------------------------


def deep_family(index: int) -> "list[tuple[str, ...]]":
    """A few long, near-identical sequences over a small alphabet."""
    rng = np.random.Generator(np.random.PCG64([2, index]))
    letters = DEEP_ALPHABET
    base = [letters[i] for i in rng.integers(0, len(letters), DEEP_LENGTH)]
    family = []
    for _ in range(DEEP_COPIES):
        seq = list(base)
        for _ in range(DEEP_EDITS):
            seq[int(rng.integers(0, DEEP_LENGTH))] = letters[int(rng.integers(0, len(letters)))]
        family.append(tuple(seq))
    return family


def wide_successes(index: int) -> SuccessSet:
    """Identity success set of a seeded MDP: thousands of sequences, few commons."""
    model = envs.random_mdp(seed=index, **WIDE_MDP)
    return mdp.enumerate_successes(model)


def core_digest(core_set: CoreSet, unmap: Callable) -> str:
    """Digest of a core after mapping every symbol back to its base label."""
    members = mining.canonical_member_order(
        tuple(unmap(sym) for sym in member) for member in core_set.members
    )
    base = CoreSet(members=members, alphabet_tag=core_set.alphabet_tag,
                   strip_terminal_applied=core_set.strip_terminal_applied)
    return formats.digest(formats.core_to_payload(base))


def _core_op(key: str, family, unmap) -> Op:
    return Op(
        key=key,
        run=lambda: mining.core(family),
        check=lambda core_set: (core_digest(core_set, unmap), None),
        counts=lambda core_set: {"core_members": len(core_set)},
    )


def setup_mine(seed: int, work_dir: str) -> "list[Op]":
    rng = np.random.Generator(np.random.PCG64(seed))
    ops = []
    for i in range(DEEP_FAMILIES):
        names = [f"x{n:02d}" for n in rng.choice(100, size=len(DEEP_ALPHABET), replace=False)]
        rename = dict(zip(DEEP_ALPHABET, names))
        family = [tuple(rename[c] for c in seq) for seq in deep_family(i)]
        rng.shuffle(family)
        ops.append(_core_op(f"deep-{i}", family, dict(zip(names, DEEP_ALPHABET)).__getitem__))
    for j in range(WIDE_FAMILIES):
        perm = [int(s) for s in rng.permutation(WIDE_MDP["num_states"])]
        inverse = {new: old for old, new in enumerate(perm)}
        relabelled = SuccessSet.from_iterable(
            Trajectory(steps=tuple((perm[s], a) for s, a in traj.steps),
                       terminal_state=perm[traj.terminal_state])
            for traj in wide_successes(j)
        )
        ops.append(_core_op(f"wide-{j}", relabelled,
                            lambda sym, inverse=inverse: (inverse[sym[0]], sym[1])))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# workload name -> set-up: (seed, work directory) -> the operations of a pass
WORKLOADS = {
    "coop-drift": setup_coop,
    "schedule-cli": setup_schedule,
    "mine-families": setup_mine,
}
