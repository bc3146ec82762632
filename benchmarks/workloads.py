"""The four benchmark workloads and their correctness gates.

Each workload calls only the stable public entry points of ``ldp_lab``,
``dynamics`` and ``cmv_core``, looked up as module attributes at call time
so that the traced run sees them through its wrappers.

Seeds.  The statistical gates are 3-sigma and 1% tests, and at these sample
sizes they miss on a few percent of fresh Monte Carlo streams although the
samplers are exact (of the first 16 streams tried, 2 missed on dos_torus
and 1 on dos_interval).  So that a verdict is reproducible, every operation
of a workload runs the stream its acceptance criterion fixes (07: 77,
08: 88, 09: 99, 10: 110); the work done does not depend on the stream.
The run seed draws the inputs of the deterministic gates: the states whose
power traces are checked against eigenvalue sums, and the initial states
of the flows.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ggelab import cmv_core, dynamics, equilibrium, ldp_lab, sampling
from ggelab.potentials import Potential
from ggelab.sampling import EnsembleSpec, McmcParams, make_rng

BETA = 1.0
# degree-1 torus potential: the colour-parallel Metropolis path (criterion 07)
V_COLOUR = Potential("torus", cos=[0.0, 1.0])
# degree-2 torus potential: forces the single-site chain on the lattice
V_SITE = Potential("torus", cos=[0.0, 0.5, 0.3])
# degree-1 potential for the open (circular) single-site chain
V_CIRCULAR = Potential("torus", cos=[0.0, 0.5])

TORUS_N, TORUS_K = 256, 16
TORUS_MCMC = McmcParams(sweeps=256, burn_in=640)
INTERVAL_N, INTERVAL_K = 128, 16
INTERVAL_MCMC = McmcParams(sweeps=800)
SITE_N, CIRCULAR_N = 16, 32
SITE_MCMC = McmcParams(sweeps=30, burn_in=10)
FLOW_N = 32
FLOW_PARAMS = dynamics.IntegratorParams(dt=1e-3, t_final=2.0)
INVARIANCE_SAMPLES, INVARIANCE_T, INVARIANCE_DT = 2000, 1.0, 0.02
TINY_MCMC = McmcParams(sweeps=2, burn_in=1)

D_MAX = 0.02
Z_MAX = 3.0
TRACE_TOL = 1e-8
# conservation tolerance of acceptance criterion 09; RK4 at dt = 1e-3 keeps
# both the invariants and the eigen-angles far inside it
DRIFT_MAX = 1e-6
P_MIN = 0.01
ORACLE_STATES = 2


@dataclass(frozen=True)
class Workload:
    """One workload: inputs from a seed, warm-up, operation and its gates.

    gates(inputs, result) returns the list of gates the operation missed.
    """

    name: str
    make_inputs: Callable
    warm_up: Callable
    operation: Callable
    gates: Callable


def _disk(rng, size, radius=0.9):
    return (radius * np.sqrt(rng.uniform(size=size))
            * np.exp(2j * np.pi * rng.uniform(size=size)))


def _oracle_misses(states, k_max):
    """Gates on power traces of (alpha, topology) pairs: the batched kernel
    for periodic states, trace_power for open ones, both against sums of
    eigenvalue powers."""
    k = np.arange(1, k_max + 1)
    misses = []
    for alpha, topology in states:
        if topology == "periodic":
            m = cmv_core.build_periodic_cmv(alpha)
            traces = cmv_core.conserved_quantities(alpha, k_max).trace_powers
        else:
            m = cmv_core.build_cmv(alpha)
            traces = np.array([cmv_core.trace_power(m, j) for j in k])
        lam = np.linalg.eigvals(m.dense())
        err = float(np.abs(traces - (lam[None, :] ** k[:, None]).sum(1)).max())
        if not err <= TRACE_TOL:
            misses.append(f"{topology} traces (n = {alpha.size}) differ "
                          f"from eigenvalue sums by {err:.3g}")
    return misses


def _report_misses(rep):
    return [] if rep.passed else ["report did not pass"]


def _max_z(rep):
    return max(abs(row["z"]) for row in rep.statistics["moments"])


# --------------------------------------------------------------------------
# dos_torus: check_dos_relation on the colour path, traces in bulk


def _torus_inputs(seed):
    rng = np.random.default_rng(seed)
    return {"oracle": [(_disk(rng, TORUS_N), "periodic")
                       for _ in range(ORACLE_STATES)]}


def _torus_op(inputs):
    return ldp_lab.check_dos_relation(
        "al", V_COLOUR, BETA, TORUS_N, mcmc=TORUS_MCMC, delta=0.05,
        rng=make_rng(77), k_max=TORUS_K)


def _torus_warm_up(inputs):
    ldp_lab.check_dos_relation("al", V_COLOUR, BETA, TORUS_N, mcmc=TINY_MCMC,
                               delta=0.05, rng=0, k_max=TORUS_K)


def _torus_gates(inputs, rep):
    misses = _report_misses(rep)
    if not rep.d_value <= D_MAX:
        misses.append(f"D = {rep.d_value:.4g} > {D_MAX}")
    if not _max_z(rep) <= Z_MAX:
        misses.append(f"max|z| = {_max_z(rep):.3g} > {Z_MAX}")
    return misses + _oracle_misses(inputs["oracle"], TORUS_K)


# --------------------------------------------------------------------------
# dos_interval: exact Schur draws and the interval solver, no chain


def _interval_inputs(seed):
    rng = np.random.default_rng(seed)
    return {"oracle": [(rng.uniform(-0.9, 0.9, INTERVAL_N), "periodic")
                       for _ in range(ORACLE_STATES)]}


def _interval_op(inputs):
    return ldp_lab.check_dos_relation(
        "schur", None, BETA, INTERVAL_N, mcmc=INTERVAL_MCMC, rng=make_rng(88),
        k_max=INTERVAL_K)


def _interval_warm_up(inputs):
    # a loose solve fills the solver's cached quadrature operator; a full
    # check would repeat the two solves every operation does
    equilibrium.minimize_interval(None, BETA,
                                  equilibrium.SolverParams(tolerance=1e-2))
    sampling.sample_schur_gge(EnsembleSpec("schur", INTERVAL_N, BETA),
                              TINY_MCMC, make_rng(0))


def _interval_gates(inputs, rep):
    misses = _report_misses(rep)
    x1 = {row["name"]: row for row in rep.statistics["moments"]}["x^1"]
    if not (abs(x1["target"]) <= 1e-8
            and abs(x1["mean"]) <= Z_MAX * x1["std_error"]):
        misses.append(f"x^1 symmetry row: mean {x1['mean']:.3g}, "
                      f"std error {x1['std_error']:.3g}")
    return misses + _oracle_misses(inputs["oracle"], INTERVAL_K)


# --------------------------------------------------------------------------
# free_energy_site: both parts on the single-site chain


def _site_inputs(seed):
    rng = np.random.default_rng(seed)
    oracle = []
    for _ in range(ORACLE_STATES):
        oracle.append((_disk(rng, SITE_N), "periodic"))
        open_state = _disk(rng, CIRCULAR_N)
        open_state[-1] = np.exp(2j * np.pi * rng.uniform())
        oracle.append((open_state, "open"))
    return {"oracle": oracle}


def _site_op(inputs):
    rng = make_rng(110)
    relation = ldp_lab.check_free_energy_relation(
        V_SITE, BETA, delta=0.1, mcmc=SITE_MCMC, rng=rng, n=SITE_N)
    circular = ldp_lab.estimate_free_energy(
        "circular", V_CIRCULAR, BETA, mcmc=SITE_MCMC, rng=rng, n=CIRCULAR_N)
    return relation, circular


def _site_warm_up(inputs):
    ldp_lab.check_free_energy_relation(V_SITE, BETA, delta=0.1,
                                       s_grid=(0.0, 1.0), mcmc=TINY_MCMC,
                                       rng=0, n=SITE_N)
    ldp_lab.estimate_free_energy("circular", V_CIRCULAR, BETA,
                                 s_grid=(0.0, 1.0), mcmc=TINY_MCMC, rng=0,
                                 n=CIRCULAR_N)


@functools.cache
def _circular_reference():
    """Variational circular free energy, normalized to 0 at V = 0."""
    rho = equilibrium.minimize_torus(V_CIRCULAR, BETA)
    return (equilibrium.free_energy_torus(rho, V_CIRCULAR, BETA).total
            - BETA * math.log(2.0))


def _site_gates(inputs, result):
    relation, circular = result
    misses = _report_misses(relation)
    ref = _circular_reference()
    if not abs(circular.value - ref) <= Z_MAX * circular.std_error:
        misses.append(f"circular free energy {circular.value:.4g} +- "
                      f"{circular.std_error:.2g} vs variational {ref:.4g}")
    return misses + _oracle_misses(inputs["oracle"], V_SITE.degree)


# --------------------------------------------------------------------------
# isospectral_flow: RK4 trajectories, dense eigen-angles, batched invariance


def _flow_inputs(seed):
    rng = np.random.default_rng(seed)
    return {"al": _disk(rng, FLOW_N, radius=0.5),
            "schur": rng.uniform(-0.5, 0.5, FLOW_N)}


def _angles(states):
    return [cmv_core.eigen_angles(cmv_core.build_periodic_cmv(s.alphas.alpha))
            for s in states]


def _flow_op(inputs):
    rng = make_rng(99)
    out = {}
    for flow, a0 in inputs.items():
        traj = dynamics.integrate(dynamics.FlowState(a0), flow, FLOW_PARAMS)
        invariance = dynamics.gge_invariance_test(
            EnsembleSpec(flow, FLOW_N, BETA), t_final=INVARIANCE_T,
            n_samples=INVARIANCE_SAMPLES, rng=rng, dt=INVARIANCE_DT)
        out[flow] = (dynamics.conservation_report(traj), _angles(traj),
                     invariance)
    return out


def _flow_warm_up(inputs):
    params = dynamics.IntegratorParams(dt=FLOW_PARAMS.dt,
                                       t_final=4 * FLOW_PARAMS.dt)
    for flow, a0 in inputs.items():
        traj = dynamics.integrate(dynamics.FlowState(a0), flow, params)
        dynamics.conservation_report(traj)
        _angles(traj)
        dynamics.gge_invariance_test(EnsembleSpec(flow, FLOW_N, BETA),
                                     t_final=INVARIANCE_DT, n_samples=2,
                                     rng=0, dt=INVARIANCE_DT)


def _angle_gap(angles):
    """Largest distance on the circle from a frame's eigenvalue to the
    nearest eigenvalue of the first frame."""
    z0 = np.exp(1j * angles[0])
    return max(float(np.abs(np.exp(1j * a)[:, None] - z0[None, :])
                     .min(axis=1).max()) for a in angles[1:])


def _flow_gates(inputs, result):
    misses = []
    for flow, (conservation, angles, invariance) in result.items():
        if not conservation.max_drift <= DRIFT_MAX:
            misses.append(f"{flow}: drift {conservation.max_drift:.3g}")
        gap = _angle_gap(angles)
        if not gap <= DRIFT_MAX:
            misses.append(f"{flow}: eigen-angles moved by {gap:.3g}")
        if not invariance.passes(P_MIN):
            misses.append(f"{flow}: invariance p-values "
                          f"{min(invariance.p_values.values()):.3g}")
    return misses


WORKLOADS = {w.name: w for w in (
    Workload("dos_torus", _torus_inputs, _torus_warm_up, _torus_op,
             _torus_gates),
    Workload("dos_interval", _interval_inputs, _interval_warm_up,
             _interval_op, _interval_gates),
    Workload("free_energy_site", _site_inputs, _site_warm_up, _site_op,
             _site_gates),
    Workload("isospectral_flow", _flow_inputs, _flow_warm_up, _flow_op,
             _flow_gates),
)}
