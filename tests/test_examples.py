"""Every example script must run cleanly (small inputs)."""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=600):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py", "hmmer", "0.05")
    assert "normalised time" in out
    assert "GhostMinion activity" in out


def test_strictness_order():
    out = run_example("strictness_order.py")
    assert "MUST NOT influence" in out
    assert "Temporal Order" in out


def test_figure_mini():
    out = run_example("figure_mini.py", "0.04")
    assert "geomean" in out
    assert "#" in out          # bar chart


def test_pipeline_trace():
    out = run_example("pipeline_trace.py")
    assert "transient (squashed) instructions" in out
    assert "squash_events" in out


def test_custom_defense_plugin():
    out = run_example("custom_defense_plugin.py", "0.04")
    assert "FlushL1 plugin demo" in out
    assert "FlushL1(also_l1i=True)" in out
    assert "wipes" in out


def test_spectre_demo():
    out = run_example("spectre_demo.py")
    assert "LEAKS" in out       # unsafe
    assert "SAFE" in out        # ghostminion


def test_backwards_in_time():
    out = run_example("backwards_in_time.py")
    assert "SpectreRewind" in out
    assert "LEAKS" in out and "safe" in out
