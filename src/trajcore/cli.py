"""Command-line surface: desk-scale experiments over the file formats.

Verbs: enumerate, mine, induce, budget, drift, gen, oracle-check.  Every
command prints a self-describing JSON report to stdout; ``--out`` (or
``--out-dir`` for gen) additionally writes the primary payload to disk.

Exit codes: 0 success, 2 usage, 3 file parse error, 4 validation or precondition
failure, 5 a search-budget guard tripped, or an allocation failed, 6 internal
consistency check failed, 7 an output file could not be written.
The ``TRAJCORE_BUDGET`` environment variable overrides the default search
budget wherever ``--budget`` is not given explicitly.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache, partial

import numpy as np

from . import __version__
from .drift import EpisodeSequence, drift_report, variation_budget
from .envs import build_coop_keydoor, build_keydoor
from .errors import (
    UNPRINTABLE,
    ConsistencyError,
    EmptySuccessSet,
    GuardError,
    OracleScaleError,
    OutputError,
    ParseError,
    TrajcoreError,
    UnmappedSymbol,
    ValidationError,
)
from .graph import Symbols, build_graph
from .mdp import DEFAULT_NODE_BUDGET, enumerate_successes, induce_mdp, validate_mdp
from .mining import (
    DEFAULT_SEQ_BUDGET,
    IDENTITY,
    Abstraction,
    brute_force_core,
    core,
)
from . import formats

BUDGET_ENV = "TRAJCORE_BUDGET"

EXIT_OK = 0
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_GUARD = 5
EXIT_INTERNAL = 6
EXIT_OUTPUT = 7


def _budget_default() -> int | None:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError as exc:
        raise ParseError(BUDGET_ENV, f"budget override must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ParseError(BUDGET_ENV, f"budget override must be positive, got {value}")
    return value


def _budgets(args) -> tuple[int, int]:
    """Resolve (node_budget, seq_budget) from --budget / env / defaults."""
    override = args.budget if args.budget is not None else _budget_default()
    node = override if override is not None else DEFAULT_NODE_BUDGET
    seq = override if override is not None else DEFAULT_SEQ_BUDGET
    return node, seq


def _read(path: str, inputs: dict):
    """The decoded payload of an input file, read once; its digest goes to ``inputs``."""
    payload, inputs[path] = formats.read_input(path)
    return payload


def _load_phi(args, inputs: dict) -> Abstraction:
    if getattr(args, "phi", None):
        phi = formats.abstraction_from_payload(_read(args.phi, inputs), args.phi)
    else:
        phi = IDENTITY
    if getattr(args, "collapse_runs", False) and not phi.collapse_runs:
        phi = Abstraction(mapping=phi.mapping, collapse_runs=True, label=phi.label)
    return phi


# ---------------------------------------------------------------------------
# Command implementations: each returns its results payload and records the
# sha256 of every input file it reads in ``inputs`` (path -> digest)
# ---------------------------------------------------------------------------


def cmd_enumerate(args, inputs):
    node_budget, _ = _budgets(args)
    mdp = formats.mdp_from_payload(_read(args.mdp_file, inputs), args.mdp_file)
    successes = enumerate_successes(mdp, node_budget=node_budget)
    return formats.successes_to_payload(successes)


def cmd_mine(args, inputs):
    node_budget, seq_budget = _budgets(args)
    source = _read(args.input_file, inputs)
    kind = formats.sniff_format(source, args.input_file)
    if kind == "mdp":
        mdp = formats.mdp_from_payload(source, args.input_file)
        validate_mdp(mdp)
        phi = _load_phi(args, inputs)
        graph = build_graph(mdp, Symbols(phi, args.strip_terminal), node_budget)
        count, mine = graph.num_successes(), graph.core
    elif kind == "successes":
        successes = formats.successes_from_payload(source, args.input_file)
        phi = _load_phi(args, inputs)
        count, mine = len(successes), partial(core, successes, phi, args.strip_terminal)
    else:
        raise ParseError(args.input_file, f"cannot mine from format {kind!r}")
    if not count:
        raise EmptySuccessSet("input contains no successful trajectory")
    if count >= UNPRINTABLE:
        raise ValueError("num_successes is at least 10**4300, more than the 4,300 digits "
                         "that the report can print; the core was not mined")
    mined = mine(seq_budget)
    payload = {
        "format": "core",
        "version": formats.FORMAT_VERSION,
        "source_format": kind,
        "num_successes": count,
        "collapse_runs": phi.collapse_runs,
        **formats.core_to_payload(mined),
    }
    return payload


def cmd_induce(args, inputs):
    game = formats.game_from_payload(_read(args.game_file, inputs), args.game_file)
    peer = formats.peer_from_payload(_read(args.peer_file, inputs), args.peer_file)
    return formats.mdp_to_payload(induce_mdp(game, peer))


def _episode_sequence(args, inputs: dict) -> EpisodeSequence:
    game = formats.game_from_payload(_read(args.game_file, inputs), args.game_file)
    schedule = formats.schedule_from_payload(
        _read(args.schedule_file, inputs), args.schedule_file
    )
    return EpisodeSequence.from_schedule(game, schedule)


def cmd_budget(args, inputs):
    seq = _episode_sequence(args, inputs)
    budget = variation_budget(seq)
    payload = {
        "format": "budget",
        "version": formats.FORMAT_VERSION,
        "num_episodes": seq.num_episodes,
        **formats.budget_to_payload(budget),
    }
    return payload


def cmd_drift(args, inputs):
    node_budget, seq_budget = _budgets(args)
    seq = _episode_sequence(args, inputs)
    phi = _load_phi(args, inputs)
    report = drift_report(
        seq,
        phi=phi,
        strip_terminal=args.strip_terminal,
        node_budget=node_budget,
        seq_budget=seq_budget,
    )
    payload = {
        "format": "drift",
        "version": formats.FORMAT_VERSION,
        "num_episodes": seq.num_episodes,
        **formats.drift_to_payload(report),
    }
    return payload


def cmd_gen(args, inputs):
    config = _read(args.config_file, inputs)
    if args.env_kind == "keydoor":
        mdp, phi = build_keydoor(formats.keydoor_config_from_payload(config, args.config_file))
        payloads = {"mdp": formats.mdp_to_payload(mdp)}
    else:  # coop-keydoor
        cfg = formats.coop_config_from_payload(config, args.config_file)
        game, schedule, phi = build_coop_keydoor(cfg)
        payloads = {
            "game": formats.game_to_payload(game),
            "schedule": formats.schedule_to_payload(schedule),
        }
    payloads["phi"] = formats.abstraction_to_payload(phi)
    prefix = args.prefix or args.env_kind.replace("-", "_")
    written = [os.path.join(args.out_dir or ".", f"{prefix}.{name}.json") for name in payloads]
    # a target that is a directory, a FIFO or a device fails before any file is written
    for path in written:
        formats.output_target(path)
    for path, file_payload in zip(written, payloads.values()):
        formats.write_json(path, file_payload)
    payload = {
        "format": "gen",
        "version": formats.FORMAT_VERSION,
        "env_kind": args.env_kind,
        "written": written,
    }
    return payload


def _random_family(rng: np.random.Generator, alphabet: str) -> list[tuple]:
    k = int(rng.integers(2, 5))
    family = []
    for _ in range(k):
        length = int(rng.integers(1, 11))
        family.append(
            tuple(alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=length))
        )
    return family


def cmd_oracle_check(args, inputs):
    _, seq_budget = _budgets(args)
    rng = np.random.Generator(np.random.PCG64(args.seed))
    alphabet = "abcdef"
    mismatches = []
    for trial in range(args.trials):
        family = _random_family(rng, alphabet)
        fast = core(family, budget=seq_budget)
        slow = brute_force_core(family)
        if fast.members != slow.members:
            mismatches.append(
                {
                    "trial": trial,
                    "family": [list(seq) for seq in family],
                    "fast": [list(m) for m in fast.members],
                    "oracle": [list(m) for m in slow.members],
                }
            )
    if mismatches:
        raise ConsistencyError(
            f"fast path disagrees with oracle on {len(mismatches)} trials: "
            f"{formats.canonical_json(mismatches)}"
        )
    payload = {
        "format": "oracle_check",
        "version": formats.FORMAT_VERSION,
        "trials": args.trials,
        "seed": args.seed,
        "agreements": args.trials - len(mismatches),
        "mismatches": mismatches,
    }
    return payload


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _int_at_least(low: int):
    """An argparse ``type`` that accepts an integer ``>= low``, so anything else is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _add_budget(parser):
    parser.add_argument(
        "--budget",
        type=_int_at_least(1),
        default=None,
        help=f"search budget guard override (default from ${BUDGET_ENV} or built-in)",
    )


def _add_out(parser):
    parser.add_argument("--out", default=None, help="write the primary payload to this file")


def _add_mining_flags(parser):
    parser.add_argument("--phi", default=None, help="abstraction map file")
    parser.add_argument(
        "--strip-terminal",
        action="store_true",
        help="drop terminal symbols before mining",
    )
    parser.add_argument(
        "--collapse-runs",
        action="store_true",
        help="collapse runs of equal abstract symbols",
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and shared by all later ones.

    Each subcommand binds its ``cmd_*`` function when the parser is built,
    so an in-process caller of :func:`main` pays for the build once.  No
    default reads the environment; callers must not change the parser.
    """
    parser = argparse.ArgumentParser(
        prog="trajcore",
        description="Mine shared trajectory structure in tabular MDPs and games.",
    )
    parser.add_argument("--version", action="version", version=f"trajcore {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate all successful trajectories of an MDP")
    p.add_argument("mdp_file")
    _add_budget(p)
    _add_out(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("mine", help="mine the core of an MDP or a success-set file")
    p.add_argument("input_file")
    _add_mining_flags(p)
    _add_budget(p)
    _add_out(p)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("induce", help="fold a peer policy into a game")
    p.add_argument("game_file")
    p.add_argument("peer_file")
    _add_out(p)
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("budget", help="variation budget of an episode schedule")
    p.add_argument("game_file")
    p.add_argument("schedule_file")
    _add_out(p)
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("drift", help="full drift report for an episode schedule")
    p.add_argument("game_file")
    p.add_argument("schedule_file")
    _add_mining_flags(p)
    _add_budget(p)
    _add_out(p)
    p.set_defaults(func=cmd_drift)

    p = sub.add_parser("gen", help="generate a key-door environment from a config")
    p.add_argument("env_kind", choices=["keydoor", "coop-keydoor"])
    p.add_argument("config_file")
    p.add_argument("--out-dir", default=".", help="directory for generated files")
    p.add_argument("--prefix", default=None, help="filename prefix for generated files")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("oracle-check", help="compare fast core mining against the oracle")
    p.add_argument("--trials", type=_int_at_least(0), default=100)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    _add_budget(p)
    _add_out(p)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command_echo = list(sys.argv[1:] if argv is None else argv)
    start = time.perf_counter()
    inputs: dict[str, str] = {}
    try:
        results = args.func(args, inputs)
        results_json = formats.canonical_json(results)
        if getattr(args, "out", None):
            formats.write_canonical(args.out, results_json)
        report = formats.build_report(
            command_echo, inputs, results, results_json, time.perf_counter() - start
        )
    except OutputError as exc:
        print(f"trajcore: output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except ParseError as exc:
        print(f"trajcore: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, EmptySuccessSet, UnmappedSymbol, OracleScaleError, ValueError) as exc:
        print(f"trajcore: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (GuardError, MemoryError) as exc:
        memory = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"trajcore: budget guard: {memory}{exc}", file=sys.stderr)
        return EXIT_GUARD
    except (AssertionError, TrajcoreError) as exc:
        print(f"trajcore: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        print(json.dumps(report, indent=2, sort_keys=True))
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe, a full device
        # what is left in stdout's buffer goes to the null device at exit, not to a second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"trajcore: output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    return EXIT_OK


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
