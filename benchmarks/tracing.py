"""Per-layer tracing of the ggelab modules, wrapped from outside.

Each layer is a set of public functions of one module.  ``Tracer.install``
replaces every function at each name a caller looks it up by: the home
module's attribute (which ``sampling`` reaches through ``cc.`` and the
benchmark through ``module.name``) and every ``ggelab`` module that
imported the same object by name (``ldp_lab`` and ``dynamics`` import
``batch_trace_powers`` that way).  A listed name that no longer exists is
reported as unmeasured, the metrics of its layer are null, and the run
goes on; the untraced run never depends on the wrappers.

Each wrapped call inside an operation records a span (layer, start, end,
parent); spans stay in memory.  Per operation the tracer derives:

* ``<layer>.time_s``: wall time inside the layer, nested calls of the same
  layer counted once; ``<layer>.share``: that over the operation's wall;
* ``<layer>.self_time_s``: the same minus the time of spans it caused;
* work counts taken from arguments and results (site powers, site updates,
  solver iterations, RK4 site-steps, matrices), and rates over the
  layer's time.

Reported values are medians over the run's operations; at a fixed seed the
counts repeat exactly.  ``trace.overhead_frac`` estimates the wrappers' own
cost: the calls recorded per operation times the measured cost of one
wrapped no-op call, over the traced operation's wall time.
"""

import functools
import importlib
import json
import math
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> (home module, public functions)
LAYERS = {
    "cmv_core.traces": ("ggelab.cmv_core", ("batch_trace_powers",
                                            "trace_power")),
    "cmv_core.build": ("ggelab.cmv_core", ("build_cmv",
                                           "build_periodic_cmv")),
    "cmv_core.eigen": ("ggelab.cmv_core", ("eigen_angles",)),
    "sampling": ("ggelab.sampling", ("sample_al_gge", "sample_schur_gge",
                                     "sample_circular_beta",
                                     "sample_jacobi_beta")),
    "equilibrium.interval": ("ggelab.equilibrium", ("minimize_interval",)),
    "equilibrium.torus": ("ggelab.equilibrium", ("minimize_torus",)),
    "dynamics.integrate": ("ggelab.dynamics", ("integrate",)),
    "dynamics.conservation": ("ggelab.dynamics", ("conservation_report",)),
    "dynamics.invariance": ("ggelab.dynamics", ("gge_invariance_test",)),
    "spectral_measures": ("ggelab.spectral_measures", ("distance_D",
                                                       "fourier_coeffs")),
    "ldp_lab": ("ggelab.ldp_lab", ("check_dos_relation",
                                   "check_free_energy_relation",
                                   "estimate_free_energy")),
}


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def tau_int(x):
    """Integrated autocorrelation time, initial positive sequence cutoff."""
    x = np.asarray(x, dtype=float)
    if x.size < 2 or float(np.ptp(x)) == 0.0:
        return 1.0
    c = x - x.mean()
    c0 = float(np.mean(c * c))
    tau = 1.0
    for lag in range(1, min(x.size // 2, 256)):
        r = float(np.mean(c[:-lag] * c[lag:])) / c0
        if r <= 0.0:
            break
        tau += 2.0 * r
    return tau


# Counters map (args, kwargs, result) to work counts of one call.

def _count_batch_traces(args, kwargs, result):
    shape = np.shape(_arg(args, kwargs, 0, "alpha"))
    batch = math.prod(shape[:-1]) if len(shape) > 1 else 1
    return {"site_powers": batch * shape[-1]
            * int(_arg(args, kwargs, 1, "ell_max"))}


def _count_trace_power(args, kwargs, result):
    return {"site_powers": _arg(args, kwargs, 0, "m").n
            * int(_arg(args, kwargs, 1, "ell"))}


def _count_sample(pos_mcmc):
    """Site updates, acceptances and mixing of one sampler call.

    Follows McmcParams: burn_in sweeps (default 10 N) of the mutable sites,
    then `thinning` site updates (default N) per kept state.  Exact draws
    do no Metropolis updates and have nothing to reject.
    """
    def count(args, kwargs, batch):
        mcmc = _arg(args, kwargs, pos_mcmc, "mcmc")
        rows, size = batch.alphas.shape
        taus = tau_int(np.mean(np.abs(batch.alphas) ** 2, axis=1))
        out = {"kept": rows, "ess": rows / taus, "chain_calls": 0,
               "site_updates": 0, "accepted": 0}
        if batch.acceptance_rate is not None:
            mutable = size - 1 if batch.kind == "jacobi" else size
            burn = mcmc.burn_in if mcmc.burn_in is not None else 10 * size
            thin = mcmc.thinning if mcmc.thinning is not None else size
            updates = burn * mutable + rows * thin
            out.update(chain_calls=1, site_updates=updates,
                       accepted=round(batch.acceptance_rate * updates))
        return out
    return count


def _count_solve(args, kwargs, rho):
    return {"iterations": rho.iterations, "residual": rho.residual}


def _count_integrate(args, kwargs, traj):
    return {"site_steps": traj.n_steps * traj[0].n}


def _count_invariance(args, kwargs, rep):
    steps = round(rep.t_final / rep.dt) if rep.dt > 0 else 0
    return {"site_steps": rep.n_samples * rep.n_sites * steps}


def _count_conservation(args, kwargs, rep):
    return {"max_drift": rep.max_drift}


def _one_call(args, kwargs, result):
    return {}


COUNTERS = {
    "batch_trace_powers": _count_batch_traces,
    "trace_power": _count_trace_power,
    "eigen_angles": lambda a, k, r: {"matrices": 1},
    "sample_al_gge": _count_sample(1),
    "sample_schur_gge": _count_sample(1),
    "sample_circular_beta": _count_sample(3),
    "sample_jacobi_beta": _count_sample(3),
    "minimize_interval": _count_solve,
    "minimize_torus": _count_solve,
    "integrate": _count_integrate,
    "gge_invariance_test": _count_invariance,
    "conservation_report": _count_conservation,
}

# metrics named outside their layer's prefix
ALIASES = {"dynamics.max_drift": "dynamics.conservation"}

# counts that are maxima over the calls of an operation, not sums
MAX_COUNTS = ("residual", "max_drift")


class Tracer:
    """Installs the wrappers and turns recorded spans into layer metrics."""

    def __init__(self):
        self.active = False
        self.missing = []
        self._patches = []     # (module, name, original)
        self._stack = []       # open spans: [layer, child_seconds, id]
        self._depth = defaultdict(int)
        self._op = None
        self._ops = []
        self.spans = []  # (id, parent id, op, layer, function, start, end)
        self._next_id = 0

    # -- installation ------------------------------------------------------

    def install(self):
        for home, _ in LAYERS.values():
            importlib.import_module(home)
        modules = [mod for key, mod in sys.modules.items()
                   if key == "ggelab" or key.startswith("ggelab.")]
        for layer, (home, names) in LAYERS.items():
            module = sys.modules[home]
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append(f"{home}.{name}")
                    continue
                wrapper = self._wrap(layer, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))
        self._per_call = self._calibrate()

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def _wrap(self, layer, name, fn):
        counter = COUNTERS.get(name, _one_call)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            outer = self._depth[layer] == 0
            self._depth[layer] += 1
            parent = self._stack[-1] if self._stack else None
            frame = [layer, 0.0, self._next_id]
            self._next_id += 1
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self._depth[layer] -= 1
            if parent is not None:
                parent[1] += t1 - t0
            self._record(layer, name, t0, t1, frame, outer,
                         parent[2] if parent else None,
                         counter, args, kwargs, result)
            return result

        return wrapper

    def _calibrate(self, calls=20000):
        """Seconds one wrapped call adds, measured on a no-op."""
        probe = self._wrap("calibration", "noop", lambda x: x)
        saved_op, self._op = self._op, defaultdict(float)
        self.active = True
        t0 = time.perf_counter()
        for i in range(calls):
            probe(i)
        wrapped = time.perf_counter() - t0
        self.active = False
        bare = lambda x: x  # noqa: E731
        t0 = time.perf_counter()
        for i in range(calls):
            bare(i)
        self._op = saved_op
        return max(wrapped - (time.perf_counter() - t0), 0.0) / calls

    # -- recording ---------------------------------------------------------

    def _record(self, layer, name, t0, t1, frame, outer, parent, counter,
                args, kwargs, result):
        op = self._op
        op["calls"] += 1
        op[f"{layer}.calls"] += 1
        op[f"{layer}.self_time_s"] += t1 - t0 - frame[1]
        if outer:
            op[f"{layer}.time_s"] += t1 - t0
        for key, value in counter(args, kwargs, result).items():
            key = f"{layer}.{key}"
            op[key] = max(op[key], value) if key.endswith(MAX_COUNTS) \
                else op[key] + value
        if layer != "calibration":
            self.spans.append((frame[2], parent, len(self._ops), layer, name,
                               t0, t1))

    def begin_op(self):
        self._op = defaultdict(float)
        self.active = True

    def end_op(self, wall):
        self.active = False
        self._op["wall_s"] = wall
        self._ops.append(self._op)

    # -- metrics -----------------------------------------------------------

    def _per_op(self, op):
        """Layer metrics of one operation."""
        wall = op["wall_s"]

        def get(key):
            return op.get(key, 0.0)

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.time_s"] = get(f"{layer}.time_s")
            out[f"{layer}.share"] = get(f"{layer}.time_s") / wall
        out["sampling.self_time_s"] = get("sampling.self_time_s")
        out["ldp_lab.self_time_s"] = get("ldp_lab.self_time_s")

        calls = get("cmv_core.traces.calls")
        powers = get("cmv_core.traces.site_powers")
        t_tr = get("cmv_core.traces.time_s")
        out["cmv_core.traces.calls"] = calls
        out["cmv_core.traces.site_powers"] = powers
        out["cmv_core.traces.site_powers_per_s"] = rate(powers, t_tr)
        out["cmv_core.traces.us_per_call"] = rate(1e6 * t_tr, calls)
        out["cmv_core.build.calls"] = get("cmv_core.build.calls")
        out["cmv_core.eigen.calls"] = get("cmv_core.eigen.matrices")
        out["cmv_core.eigen.matrices_per_s"] = rate(
            get("cmv_core.eigen.matrices"), get("cmv_core.eigen.time_s"))

        t_s = get("sampling.time_s")
        updates = get("sampling.site_updates")
        ess = get("sampling.ess")
        out["sampling.site_updates"] = updates
        out["sampling.accepted"] = get("sampling.accepted")
        out["sampling.site_updates_per_s"] = rate(updates, t_s)
        # exact draws have nothing to reject
        out["sampling.acceptance_rate"] = (
            get("sampling.accepted") / updates if updates else 1.0)
        out["sampling.tau_int"] = get("sampling.kept") / ess if ess else 1.0
        out["sampling.ess"] = ess
        out["sampling.ess_per_s"] = rate(ess, t_s)

        for side in ("interval", "torus"):
            out[f"equilibrium.{side}.iterations"] = get(
                f"equilibrium.{side}.iterations")
            out[f"equilibrium.{side}.residual"] = get(
                f"equilibrium.{side}.residual")
        steps = get("dynamics.integrate.site_steps")
        out["dynamics.integrate.site_steps"] = steps
        out["dynamics.integrate.site_steps_per_s"] = rate(
            steps, get("dynamics.integrate.time_s"))
        out["dynamics.invariance.site_steps"] = get(
            "dynamics.invariance.site_steps")
        out["dynamics.max_drift"] = get("dynamics.conservation.max_drift")

        out["trace.wall_s"] = wall
        out["trace.calls"] = op["calls"]
        out["trace.overhead_frac"] = op["calls"] * self._per_call / wall
        return out

    def dump(self, path):
        """Write the recorded spans as JSON, one record per wrapped call."""
        keys = ("id", "parent", "op", "layer", "function", "start", "end")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))

    def metrics(self):
        """Median over operations of every layer metric, with units.

        Metrics of a layer with a missing function are None: its numbers
        would cover only part of the layer."""
        per_op = [self._per_op(op) for op in self._ops]
        unmeasured = {layer for layer, (home, names) in LAYERS.items()
                      if any(f"{home}.{n}" in self.missing for n in names)}
        out = {}
        for key in per_op[0]:
            layer = ALIASES.get(key) or next(
                (lay for lay in LAYERS if key.startswith(lay + ".")), None)
            value = (None if layer in unmeasured
                     else statistics.median(op[key] for op in per_op))
            out[key] = {"value": value, "unit": unit_of(key)}
        return out


def unit_of(key):
    leaf = key.rsplit(".", 1)[-1]
    if leaf.endswith("_per_s"):
        return "1/s"
    if leaf.endswith("_s"):
        return "s"
    return {"us_per_call": "us", "share": "fraction",
            "acceptance_rate": "fraction", "overhead_frac": "fraction",
            "tau_int": "kept_states", "residual": "1",
            "max_drift": "1"}.get(leaf, "count")
