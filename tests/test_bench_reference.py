"""The benchmark's correctness gate, run once untimed.

Builds the seed-41 operations of every ``perfbench`` workload, runs each once
and checks every result digest against ``perfbench/reference.json``, as
``perfbench/run.py`` does before it times anything.  Reads those files and
writes nothing under ``perfbench/``.
"""
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH_DIR))
    writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = writes_bytecode
        sys.path.remove(str(BENCH_DIR))
    return workloads


@pytest.mark.parametrize("name", ["coop-drift", "schedule-cli", "mine-families"])
def test_benchmark_ops_match_the_reference_digests(workloads, name, tmp_path):
    reference = json.loads((BENCH_DIR / "reference.json").read_text())["ops"][name]
    ops = workloads.WORKLOADS[name](41, str(tmp_path))
    assert ops
    for op in ops:
        digest, failure = op.check(op.run())
        assert failure is None, f"{op.key}: {failure}"
        assert digest == reference[op.key], op.key
