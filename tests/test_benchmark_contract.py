"""The names the benchmark relies on still exist.

benchmarks/tracing.py wraps public functions by module and name, and its
counters read work counts from positional arguments.  A renamed function
would only show there as an `unmeasured` layer, and a moved argument as a
wrong count, so both are checked here against the tracer's own tables.
benchmarks/workloads.py calls the program with positional and keyword
arguments read here from its source; a dropped keyword would turn every
operation of a workload into a TypeError.  One operation of each workload
runs here too: its gates must pass, and the repr of its result must hash
as recorded, so a change that moves a number on a workload path shows.
"""

import ast
import hashlib
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
WORKLOADS = TRACING.parent / "workloads.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("benchmark_tracing", TRACING)

# function -> {position: parameter name} that its counter reads
COUNTED_ARGUMENTS = {
    "batch_trace_powers": {0: "alpha", 1: "ell_max"},
    "trace_power": {0: "m", 1: "ell"},
    "sample_al_gge": {1: "mcmc"},
    "sample_schur_gge": {1: "mcmc"},
    "sample_circular_beta": {3: "mcmc"},
    "sample_jacobi_beta": {3: "mcmc"},
}


def _functions():
    for layer, (home, names) in sorted(tracing.LAYERS.items()):
        for name in names:
            yield layer, home, name


@pytest.mark.parametrize("layer,home,name", list(_functions()))
def test_every_traced_function_exists(layer, home, name):
    assert callable(getattr(importlib.import_module(home), name, None)), \
        f"layer {layer}: {home}.{name} is gone"


@pytest.mark.parametrize("name", sorted(COUNTED_ARGUMENTS))
def test_counted_arguments_keep_their_positions(name):
    assert name in tracing.COUNTERS
    home = next(h for _, h, n in _functions() if n == name)
    params = list(inspect.signature(
        getattr(importlib.import_module(home), name)).parameters.values())
    for pos, expected in COUNTED_ARGUMENTS[name].items():
        assert params[pos].name == expected
        assert params[pos].kind == inspect.Parameter.POSITIONAL_OR_KEYWORD


def _ggelab_names(tree):
    """What each name imported from ggelab in a module's AST refers to."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "ggelab":
            home = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(home, alias.name, None)
                if value is None:  # a submodule not imported yet
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                names[alias.asname or alias.name] = value
    return names


def _ggelab_calls():
    """(line, callee name, callable, positional count, keywords) of every
    call to a ggelab function or class in benchmarks/workloads.py."""
    tree = ast.parse(WORKLOADS.read_text())
    names = _ggelab_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            label, target = func.id, names[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and inspect.ismodule(names.get(func.value.id))):
            label = f"{func.value.id}.{func.attr}"
            target = getattr(names[func.value.id], func.attr, None)
        else:
            continue
        yield (node.lineno, label, target, len(node.args),
               [kw.arg for kw in node.keywords])


def test_workload_calls_bind_to_the_program():
    calls = list(_ggelab_calls())
    assert {"ldp_lab.check_dos_relation", "ldp_lab.check_free_energy_relation"} \
        <= {label for _, label, *_ in calls}
    for line, label, target, n_args, keywords in calls:
        assert callable(target), f"workloads.py:{line}: {label} is gone"
        try:
            inspect.signature(target).bind_partial(
                *([None] * n_args), **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"workloads.py:{line}: {label}: {exc}")


# sha256 of repr(result), first 16 hex digits, of one operation at input
# seed 3 after the warm-up.  A change that moves a number on a workload
# path re-records its digest and says why
WORKLOAD_DIGESTS = {
    "dos_torus": "a08d875b9a056e4c",
    "dos_interval": "385189696548916b",
    "free_energy_site": "d886bc98675d19eb",
    "isospectral_flow": "d1b84242b9b63e00",
}


@pytest.fixture(scope="module")
def workloads():
    return _load("benchmark_workloads", WORKLOADS).WORKLOADS


def test_every_workload_has_a_digest(workloads):
    assert set(workloads) == set(WORKLOAD_DIGESTS)


@pytest.mark.parametrize("name", sorted(WORKLOAD_DIGESTS))
def test_workload_operation_passes_its_gates_with_recorded_digest(name,
                                                                  workloads):
    workload = workloads[name]
    inputs = workload.make_inputs(3)
    workload.warm_up(inputs)
    result = workload.operation(inputs)
    assert workload.gates(inputs, result) == []
    digest = hashlib.sha256(repr(result).encode()).hexdigest()[:16]
    assert digest == WORKLOAD_DIGESTS[name]
