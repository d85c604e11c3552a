#!/usr/bin/env python3
"""Mine the core of a single-agent key-door corridor.

Mines a configurable corridor on its support graph, as ``trajcore mine``
does, without listing its successful trajectories, and prints the maximal
common subsequences under the option-level abstraction, next to the raw
state-action core.
"""
import argparse

from trajcore import IDENTITY, KeyDoorConfig, build_keydoor, validate_mdp
from trajcore.graph import Symbols, build_graph


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=4)
    parser.add_argument("--key", type=int, default=0)
    parser.add_argument("--door", type=int, default=2)
    parser.add_argument("--goal", type=int, default=3)
    parser.add_argument("--start", type=int, default=1)
    parser.add_argument("--horizon", type=int, default=8)
    args = parser.parse_args()

    cfg = KeyDoorConfig(
        corridor_length=args.length,
        key_pos=args.key,
        door_pos=args.door,
        goal_pos=args.goal,
        start_pos=args.start,
        horizon=args.horizon,
    )
    mdp, phi = build_keydoor(cfg)
    validate_mdp(mdp)
    concrete_graph = build_graph(mdp, Symbols(IDENTITY, strip_terminal=False))
    print(f"{concrete_graph.num_successes()} successful trajectories within horizon {cfg.horizon}")

    abstract = build_graph(mdp, Symbols(phi, strip_terminal=True)).core()
    print("abstract core (terminal stripped):")
    for member in abstract.members:
        print("  " + " > ".join(member))

    concrete = concrete_graph.core()
    print("concrete core (state-action pairs):")
    for member in concrete.members:
        print("  " + " ".join(f"({s},{a})" for s, a in member))


if __name__ == "__main__":
    main()
