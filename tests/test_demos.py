"""Every demo script runs to completion against the package in src/ and prints its computed results."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# stdout fragments each demo must print; every one comes from a computed value
EXPECTED = {
    "convergence_order.py": ["    1280   0.04909       1.257e-06     4.00"],
    "detuned_pulse.py": ["  1.00       0.4998          <- on resonance",
                         "Q after a half-turn pulse: 0.999648"],
    "ideal_search.py": ["  0    0.000000 0.000000   0        1.000000000000",
                        "  3    1.000000 1.000000   3        1.000000000000",
                        "item 1: |Q(12) - Q(21)| = 0.00e+00"],
    "nmr_instability.py": ["  1    0.9664  0.1680  (0.966, 0.171)   1            yes",
                           "  0    0.9562  0.0296  (0.955, 0.031)   1            NO",
                           "item 2: 0.934"],
    "oracle_walkthrough.py": ["item 3: pure at iterations [1, 4, 7, 10] (index correct: True)",
                              "item 1: 26 -> 10 instructions, relative phase -1"],
    "trajectories_csv.py": ["stable preparation: 2859 samples",
                            "final Q = (0.0291, 0.1654)",
                            "final Q = (0.9562, 0.0296)"],
}


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    assert demo.name in EXPECTED, f"no expected output listed for {demo.name}"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "-0.000000" not in proc.stdout
    for fragment in EXPECTED[demo.name]:
        assert fragment in proc.stdout
