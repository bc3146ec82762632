"""The names the traced benchmark run relies on still exist.

benchmarks/tracing.py wraps public functions by module and name, and its
counters read work counts from positional arguments.  A renamed function
would only show there as an `unmeasured` layer, and a moved argument as a
wrong count, so both are checked here against the tracer's own tables.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()

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
