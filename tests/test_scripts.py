"""The example scripts run end to end and print their cores."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


MINE_HEADERS = ["abstract core (terminal stripped):", "concrete core (state-action pairs):"]


@pytest.mark.parametrize(
    "script, args, expected",
    [
        ("mine_keydoor.py", [], MINE_HEADERS),
        ("run_drift_demo.py", [], ["episode 1 core:", "individual task core ("]),
        # 3,060,898 successes: mined on the support graph, never listed
        ("mine_keydoor.py", ["--length", "6", "--key", "0", "--door", "3", "--goal", "5",
                             "--start", "1", "--horizon", "19"], MINE_HEADERS),
    ],
    ids=["mine_keydoor", "run_drift_demo", "mine_keydoor_L6_H19"],
)
def test_script_runs_and_prints_its_cores(script, args, expected):
    """Each header in ``expected`` is printed and followed by a core member."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    lines = done.stdout.splitlines()
    for header in expected:
        at = next(i for i, line in enumerate(lines) if line.startswith(header))
        assert lines[at + 1].startswith("  "), f"{header} lists no member"
