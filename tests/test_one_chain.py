"""One Metropolis chain serves every tilted sample: at most one package
function writes the acceptance test, a comparison of a log(...) call
(log-uniform against -delta Tr V), and that chain draws each sweep's
proposals and uniforms before the sweep's classes run."""

import ast
from pathlib import Path

import numpy as np
import pytest

from ggelab import sampling as sp
from ggelab.potentials import Potential

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ggelab"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_log(node):
    """Whether node calls a function named log: log(x), np.log(x), ..."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "log"
            or isinstance(func, ast.Attribute) and func.attr == "log")


def _acceptance_functions(tree):
    """Names of the functions with a comparison whose left side calls log."""
    return sorted({fn.name for fn in ast.walk(tree) if isinstance(fn, FUNCTIONS)
                   for node in ast.walk(fn)
                   if isinstance(node, ast.Compare) and _is_log(node.left)})


def test_one_function_runs_the_metropolis_acceptance():
    found = [f"{path.name}:{name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in _acceptance_functions(ast.parse(path.read_text()))]
    assert len(found) <= 1, f"Metropolis acceptance written in {found}"


def test_the_check_sees_an_acceptance():
    src = ("def a(u, dv):\n    return np.log(u) < -dv\n\n"
           "def b(u, dv):\n    if u == 0.0 or math.log(u) < -dv:\n"
           "        return 1\n\n"
           "def c(u, dv):\n    return -dv > np.log(u)\n")
    assert _acceptance_functions(ast.parse(src)) == ["a", "b"]


class CountingGenerator(np.random.Generator):
    """PCG64 generator that counts the calls of its public methods."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = 0

    def __getattribute__(self, name):
        attr = super().__getattribute__(name)
        if callable(attr) and not name.startswith("_"):
            self.calls += 1
        return attr


@pytest.mark.parametrize("kind, n, pot", [
    ("al", 16, Potential("torus", cos=[0.0, 0.5, 0.3])),
    ("al", 8, Potential("torus", cos=[0.0, 0.4, 0.2, 0.3])),
    ("schur", 8, Potential("interval", cheb=[0.2, 0.6, 0.5])),
    ("circular", 12, Potential("torus", cos=[0.0, 0.5])),
    ("jacobi", 8, Potential("interval", cheb=[0.0, 0.8]))],
    ids=["al-16-t2", "al-8-t3", "schur-8-i2", "circular-12-t1", "jacobi-4-i1"])
def test_chain_draws_once_per_sweep_and_never_per_class(kind, n, pot,
                                                        monkeypatch):
    # two stacked chains; the generator's count is read at every class
    entry = sp.KINDS[kind]
    wc = np.array([pot.trace_weights()] * 2)
    rng = CountingGenerator(7)
    seen = []
    increments = sp._class_delta_v

    def spy(*args):
        seen.append(rng.calls)
        return increments(*args)

    monkeypatch.setattr(sp, "_class_delta_v", spy)
    sweeps = 6
    sp._run_chain(entry, entry.interior(1.0, n), wc, 0, 1, sweeps, rng)
    classes = len(sp._classes(entry, n, wc.shape[1]))
    assert classes > 1
    at_class = np.array(seen).reshape(sweeps, classes)
    assert np.all(at_class == at_class[:, :1]), "a class drew from the generator"
    per_sweep = np.diff(at_class[:, 0])
    assert np.all((per_sweep >= 1) & (per_sweep <= 2)), per_sweep
    assert rng.calls == at_class[-1, 0]
