"""The two fast demos, run as scripts: they must exit cleanly on the current
API. The other four demos take several seconds each and are run by hand."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo, expect", [
    ("two_hop_relay.py", "optimal alternation gives 2.5"),
    ("gradient_descent_targets.py", "realized averages"),
])
def test_demo_runs(demo, expect):
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout
