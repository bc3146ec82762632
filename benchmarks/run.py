"""Benchmark of the ggelab checks: end-to-end timings and a traced run.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload dos_torus --seed 1 --seconds 15

The workloads are defined in ``workloads.py``.  One operation is one call
of the workload's check; operations repeat until ``--seconds`` of
operation wall time have been measured, and each one's output is checked
against the workload's correctness gates.

With ``--trace 0`` the public entry points run unwrapped and the last line
of standard output is a JSON object whose metrics are the end-to-end ones:

* ``wall_s``, ``cpu_s``: median wall and process-CPU seconds per operation;
* ``setup_s``: median wall time of fresh interpreters that import the
  package, generate the inputs and warm up (five per run, started between
  operations);
* ``peak_rss_mb``: peak resident memory of this process;
* ``ok_frac``: share of operations that neither raised nor missed a gate.

With ``--trace 1`` the public functions of each module are wrapped from
outside (see ``tracing.py``) and the metrics are the per-layer ones.  Lines
before the last one carry provenance (versions, BLAS, thread variables,
source digest) and any layers the tracer could not find.

The traced run also writes its spans to ``.bench_spans/`` for inspection.
The program is imported from ``src/`` of the current directory; without it
the benchmark exits with a nonzero status and prints no result.
"""

import os

# Pinned before numpy is imported, so that BLAS and OpenMP pools start with
# one thread and the timings measure the single-threaded algorithms.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
PACKAGE = SRC / "ggelab"

# fresh interpreters started per run to measure set-up time
SETUP_PROBES = 5


def _import_program():
    """Put the checkout's sources first on the path and import them."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"error: {PACKAGE} not found; run from the root of a "
                 "ggelab source checkout")
    sys.path.insert(0, str(SRC))
    import ggelab
    if Path(ggelab.__file__).resolve().parent != PACKAGE:
        sys.exit(f"error: imported ggelab from {ggelab.__file__}, "
                 f"not from {PACKAGE}")


def _git_sha():
    """Commit of the checkout read from .git, or None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest():
    """SHA-256 over the package sources, identifying the program measured."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance():
    import numpy as np
    import scipy
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def probe_setup(workload, seed):
    """Wall seconds of a fresh interpreter doing this run's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    wl.warm_up(inputs)
    if args.setup_probe:
        return 0

    tracer = None
    probes = 0
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    else:
        probes = SETUP_PROBES

    # set-up probes run between operations, so that both sample the same
    # stretch of a machine whose speed drifts over tens of seconds
    walls, cpus, failures, setups = [], [], [], []
    measured = 0.0
    i = 0
    while i == 0 or measured < args.seconds:
        if tracer is not None:
            tracer.begin_op()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = wl.operation(inputs)
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if tracer is not None:
            tracer.end_op(wall)
        walls.append(wall)
        cpus.append(cpu)
        measured += wall
        misses = [error] if error else wl.gates(inputs, result)
        if misses:
            failures.append(i)
            print(f"op {i} failed: {'; '.join(misses)}", file=sys.stderr)
        if len(setups) < probes:
            setups.append(probe_setup(args.workload, args.seed))
        i += 1
    while len(setups) < probes:
        setups.append(probe_setup(args.workload, args.seed))

    attempted = len(walls)
    failed = len(failures)
    print(json.dumps({"provenance": provenance()}))
    if tracer is None:
        metrics = {
            "wall_s": metric(statistics.median(walls), "s"),
            "cpu_s": metric(statistics.median(cpus), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
            "ok_frac": metric((attempted - failed) / attempted, "fraction"),
        }
    else:
        tracer.uninstall()
        tracer.dump(ROOT / ".bench_spans"
                    / f"{args.workload}-{args.seed}.json")
        if tracer.missing:
            print("unmeasured: " + ", ".join(tracer.missing))
        metrics = tracer.metrics()
        metrics["failed_frac"] = metric(failed / attempted, "fraction")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
