"""Smoke tests: every example script must run end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples must narrate their output"


def test_all_six_examples_present():
    names = {p.name for p in EXAMPLES}
    assert {
        "quickstart.py",
        "smart_building.py",
        "opt_in_histograms.py",
        "exclusion_attack_demo.py",
        "policy_composition.py",
        "cluster_quickstart.py",
    } <= names


class TestExampleOutputs:
    """Spot-check that the walkthroughs demonstrate what they claim."""

    def _run(self, name: str) -> str:
        result = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / name)],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        return result.stdout

    def test_quickstart_shows_budget_ledger(self):
        out = self._run("quickstart.py")
        assert "OsdpRR released" in out
        assert "overall guarantee" in out

    def test_exclusion_demo_contrasts_mechanisms(self):
        out = self._run("exclusion_attack_demo.py")
        assert "INFINITY" in out
        assert "Theorem 3.1" in out

    def test_policy_composition_reports_composed_guarantee(self):
        out = self._run("policy_composition.py")
        assert "composed guarantee" in out
        assert "minimum relaxation" in out

    def test_cluster_quickstart_survives_a_kill_bit_identically(self):
        out = self._run("cluster_quickstart.py")
        assert "write acked with hi-r0 dead" in out
        assert "resync verdicts: {'hi-r0': 'caught_up'}" in out
        assert out.count("bit-identical") >= 3
        assert "through a kill, a restart, and a resync" in out
