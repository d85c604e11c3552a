#!/usr/bin/env python3
"""Write ``reference.json``: the expected result digest of every operation.

    python3 perfbench/make_reference.py

Covers every input a seed can select: each coop-drift layout at every
corridor length, every schedule-cli variant and every mine-families base
family (results are compared after mapping their labels back).  The
horizon-9 layouts that trip the default node guard are run once at the
default budget, to record how far the search got, and once with
``GUARDED_NODE_BUDGET`` to fix their digest.  Takes several minutes.
"""
from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402
from trajcore.errors import ExplosionGuard  # noqa: E402

GUARDED_NODE_BUDGET = 100_000_000


def digest_of(op) -> str:
    digest, failure = op.check(op.run())
    if failure is not None:
        raise RuntimeError(f"{op.key}: {failure}")
    return digest


def coop_digests() -> dict:
    out = {}
    for shapes, horizon in ((workloads.COOP_SHAPES_H8, 8), (workloads.COOP_SHAPES_H9, 9)):
        for shape in shapes:
            for length in workloads.COOP_LENGTHS:
                op = workloads.coop_op(workloads.coop_config(shape, length, horizon))
                out[op.key] = digest_of(op)
    return out


def guarded_coop_digests() -> tuple[dict, dict]:
    digests, notes = {}, {}
    for shape in workloads.COOP_GUARDED_H9:
        for length in workloads.COOP_LENGTHS:
            cfg = workloads.coop_config(shape, length, 9)
            op = workloads.coop_op(cfg)
            try:
                op.run()
            except ExplosionGuard as exc:
                default = f"guard tripped at {exc.visited} nodes (node budget {exc.budget})"
            else:
                raise RuntimeError(f"{op.key} no longer trips the default guard")
            start = time.perf_counter()
            digests[op.key] = digest_of(
                workloads.coop_op(cfg, node_budget=GUARDED_NODE_BUDGET)
            )
            notes[op.key] = {
                "default_budget": default,
                "node_budget": GUARDED_NODE_BUDGET,
                "seconds": round(time.perf_counter() - start, 1),
            }
            print(op.key, default, notes[op.key]["seconds"], "s", flush=True)
    return digests, notes


def schedule_digests() -> dict:
    out = {}
    work_dir = BENCH_DIR.parent / ".perfbench_work" / "reference"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        for variant in range(workloads.SCHEDULE_VARIANTS):
            for op in workloads.setup_schedule(variant, str(work_dir)):
                out[op.key] = digest_of(op)
    finally:
        shutil.rmtree(work_dir)
    return out


def mine_digests() -> dict:
    return {op.key: digest_of(op) for op in workloads.setup_mine(0, "")}


def main() -> None:
    guarded, notes = guarded_coop_digests()
    reference = {
        "format": "perfbench_reference",
        "ops": {
            "coop-drift": {**coop_digests(), **guarded},
            "schedule-cli": schedule_digests(),
            "mine-families": mine_digests(),
        },
        "guarded": notes,
    }
    with open(BENCH_DIR / "reference.json", "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
