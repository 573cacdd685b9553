"""The benchmark tracer's self-test must keep passing against the package.

The tracer binds names from fracext when it installs, so a package change
that renames or removes one breaks traced benchmark runs; this catches it
in the unit suite.
"""
import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
