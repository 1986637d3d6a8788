"""The benchmark's self-tests pass. They check that the tracer can wrap and
restore every public function it names (``sim.run``, ``sim.apply_gate``,
``adversary.robust_check``, ...), so renaming or removing one of them fails
here instead of only under ``bench/run.py --trace 1``."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_self_tests_pass():
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/test_bench.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
