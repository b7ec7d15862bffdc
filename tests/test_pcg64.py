import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaudin import pcg64
from gaudin.pcg64 import Stream

SEEDS = list(range(200)) + [2 ** 32 - 1, 2 ** 32, 2 ** 64, 2 ** 64 + 7,
                            2 ** 127 + 3, 10 ** 40 + 1]


@pytest.mark.parametrize("chunk", range(0, len(SEEDS), 41))
def test_stream_is_numpy_default_rng(chunk):
    """Interleaved uniform and integers calls give numpy's values bit for
    bit, for seeds 0..199 and seeds of 32 to 133 bits (more entropy words
    than the pool has)."""
    for seed in SEEDS[chunk:chunk + 41]:
        calls = random.Random(seed)
        want, got = np.random.default_rng(seed), Stream(seed)
        for _ in range(40):
            if calls.random() < 0.6:
                arg = (calls.choice([0.05, 0.0]),
                       calls.choice([1.0, 2 * np.pi]), calls.randint(1, 6))
                a, b = want.uniform(*arg), got.uniform(*arg)
                assert a.dtype == b.dtype == np.float64
                assert np.array_equal(a, b), (seed, arg)
            else:
                k = calls.randint(1, 9)
                assert int(want.integers(0, k)) == got.integers(0, k), seed


def test_stream_golden_values_for_seed_0():
    """numpy 2.4's default_rng(0), recorded as float hex.  integers(0, 7)
    reads the upper half of the 64-bit output that integers(0, 5) split,
    kept across the uniform draws; integers(0, 1) draws nothing."""
    rng = Stream(0)
    assert [x.hex() for x in rng.uniform(0.05, 1.0, 3)] == [
        "0x1.4f6b0cd7b757fp-1", "0x1.39a60516be087p-2",
        "0x1.6c3c760d7aa03p-4"]
    assert rng.integers(0, 5) == 0
    assert [x.hex() for x in rng.uniform(0.0, 2 * np.pi, 2)] == [
        "0x1.47090dd8bf597p+2", "0x1.6f0a71959c4bbp+2"]
    assert [rng.integers(0, 7), rng.integers(0, 1), rng.integers(0, 3)] \
        == [0, 0, 1]


def test_negative_seed_is_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        pcg64._seed_words(-1)


def test_selftest_pipeline_does_not_import_numpy_random():
    """The multistart starts come from Stream: a `verify` run leaves
    numpy.random, with its hashlib and secrets imports, unloaded."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys\n"
            "from gaudin import harness_cli\n"
            "report = harness_cli.run_pipeline(*harness_cli.load_problem("
            "harness_cli.SELFTEST_PROBLEM)[:2])\n"
            "assert report['summary']['all_pass']\n"
            "print('numpy' in sys.modules, 'numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]
