"""One Metropolis chain serves every tilted sample: at most one package
function writes the acceptance test, a comparison of a log(...) call
(log-uniform against -delta Tr V)."""

import ast
from pathlib import Path

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
