"""The benchmark's checker tests, run by Tier-1 in a fresh interpreter.

``perfbench/tests`` stays out of ``testpaths``: its ``conftest.py`` and this
directory's both import as ``tests.conftest``, so one collection of the two
breaks.  Its ``test_every_planned_command_passes_its_check`` catches a report
the benchmark would count as incorrect.
"""

import subprocess
import sys

from tests.conftest import REPO


def test_the_benchmark_checker_tests_pass():
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"]
    proc = subprocess.run(argv, cwd=REPO, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
