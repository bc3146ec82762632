"""The package runs on numpy alone: scipy is a test-only dependency."""

import os
import subprocess
import sys

import ggelab

_SCRIPT = r"""
import importlib.abc
import sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())

from ggelab import cli, dynamics
from ggelab.sampling import EnsembleSpec

code = cli.main(["verify", "--check", "exp_moment", "--seed", "3",
                 "--out", sys.argv[1]])
report = dynamics.gge_invariance_test(EnsembleSpec("al", 16, 1.0), 0.5, 200,
                                      rng=4)
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
print("exit", code, "p", sorted(report.p_values.values()), "scipy", loaded)
sys.exit(code if not loaded else 3)
"""


def test_runs_with_scipy_blocked(tmp_path):
    src = os.path.dirname(os.path.dirname(ggelab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "scipy []" in proc.stdout
    assert (tmp_path / "exp_moment.json").exists()
