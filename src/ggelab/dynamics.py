"""Fixed-step integration of the Ablowitz-Ladik and Schur flows.

Both flows act on periodic Verblunsky vectors (even length, all entries
strictly inside the disk).  With rho_j^2 = 1 - |alpha_j|^2 and cyclic
indexing, the defocusing Ablowitz-Ladik system is

    d/dt alpha_j = i [rho_j^2 (alpha_{j+1} + alpha_{j-1}) - 2 alpha_j],

and the Schur flow is its real restriction

    d/dt alpha_j = rho_j^2 (alpha_{j+1} - alpha_{j-1}).

The overall sign and phase of the AL right-hand side are normative
here: they are the unique choice under which the Lax matrix E(t) built
from alpha(t) satisfies

    dE/dt = i [E, E+ + (E+)* + D],    D = diag(-1, +1, -1, ...),

where E+ keeps half the diagonal of E together with its first two upper
cyclic bands and * is the conjugate transpose.  The constant parity
matrix D generates the uniform phase rotation alpha_j -> e^{-2it}
alpha_j hidden in the -2 alpha_j term of the flow; dropping that term
from the equation of motion drops D from the generator.  lax_residual
measures exactly this identity, so the convention is pinned by a
runtime check rather than by documentation alone.

Both flows are isospectral: K0 = prod_j rho_j^2, K1 = -sum_j alpha_j
conj(alpha_{j+1}) and every power trace Tr E^ell are constant along
trajectories.  conservation_report turns that into a drift diagnostic,
and gge_invariance_test checks the statistical counterpart, namely that
Gibbs ensembles built from conserved quantities are left invariant.

Integration is classical fourth-order Runge-Kutta with a fixed step.
The step count is round(t_final / dt), so commensurate (dt, t_final)
pairs land on t_final exactly.  No adaptivity: a trajectory that leaves
the closed unit polydisk by more than 1e-8 aborts with a stability
error instead of being renormalized.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import stats

from .cmv_core import (
    BoundaryMode,
    NumericalError,
    VerblunskyVector,
    _keep_upper_cyclic,
    batch_trace_powers,
    build_periodic_cmv,
    e_plus,
)
from .sampling import McmcParams, make_rng, sample_ensemble

__all__ = [
    "FlowState",
    "IntegratorParams",
    "Trajectory",
    "ConservationReport",
    "InvarianceReport",
    "al_rhs",
    "schur_rhs",
    "integrate",
    "conservation_report",
    "lax_residual",
    "gge_invariance_test",
]

POLYDISK_TOL = 1e-8
COMMUTATOR_TOL = 1e-12


# --------------------------------------------------------------------------
# states and parameters


@dataclass(frozen=True)
class FlowState:
    """A point on a flow: coefficient vector plus the clock.

    `alphas` may be given as a VerblunskyVector or as a plain array of
    strictly interior entries; arrays are wrapped with the all-interior
    boundary convention.  Schur states should be real arrays, AL states
    complex.
    """

    alphas: VerblunskyVector
    time: float = 0.0

    def __post_init__(self):
        if not isinstance(self.alphas, VerblunskyVector):
            object.__setattr__(
                self, "alphas",
                VerblunskyVector(np.asarray(self.alphas),
                                 BoundaryMode.ALL_INTERIOR))
        object.__setattr__(self, "time", float(self.time))

    @property
    def n(self):
        return self.alphas.n


@dataclass(frozen=True)
class IntegratorParams:
    """Step and horizon of the fixed-step classical RK4 integrator."""

    dt: float
    t_final: float

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.t_final > 0:
            raise ValueError("t_final must be positive")
        if self.dt > self.t_final:
            raise ValueError(
                f"dt = {self.dt:g} exceeds t_final = {self.t_final:g}")


# --------------------------------------------------------------------------
# vector fields (batched: any (..., n) array works, last axis cyclic)


def _coefficients(state):
    if isinstance(state, FlowState):
        return state.alphas.alpha
    if isinstance(state, VerblunskyVector):
        return state.alpha
    return np.asarray(state)


def al_rhs(state):
    """Right-hand side of the Ablowitz-Ladik system.

    Accepts a FlowState, a VerblunskyVector, or a bare (..., n) array and
    returns i [rho^2 (alpha_{j+1} + alpha_{j-1}) - 2 alpha_j] with the
    last axis treated cyclically.
    """
    a = np.asarray(_coefficients(state), dtype=complex)
    nb = np.roll(a, -1, axis=-1) + np.roll(a, 1, axis=-1)
    return 1j * ((1.0 - np.abs(a) ** 2) * nb - 2.0 * a)


def schur_rhs(state):
    """Right-hand side rho^2 (alpha_{j+1} - alpha_{j-1}) of the Schur flow.

    Defined on real vectors only; complex input is a domain error.  The
    arithmetic never leaves the reals, so imaginary parts stay exactly
    zero along any trajectory started from real data.
    """
    a = _coefficients(state)
    if np.iscomplexobj(a):
        raise ValueError("the Schur flow acts on real coefficient vectors")
    a = np.asarray(a, dtype=float)
    diff = np.roll(a, -1, axis=-1) - np.roll(a, 1, axis=-1)
    return (1.0 - a**2) * diff


_FLOWS = {"al": al_rhs, "schur": schur_rhs}


def _rk4_step(rhs, a, h):
    k1 = rhs(a)
    k2 = rhs(a + (0.5 * h) * k1)
    k3 = rhs(a + (0.5 * h) * k2)
    k4 = rhs(a + h * k3)
    return a + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _check_polydisk(a, t):
    amax = float(np.abs(a).max())
    if amax > 1.0 + POLYDISK_TOL:
        raise NumericalError(
            f"trajectory left the unit polydisk (max |alpha| = {amax:.6g} "
            f"at t = {t:.6g}); try a smaller dt", residual=amax - 1.0)


# --------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True)
class Trajectory:
    """Output frames of one integration run.

    Behaves as a sequence of FlowState.  Frames are a subsample of the
    computed steps (first and last always included); `alphas` stacks
    them into an (frames, n) array.
    """

    states: tuple
    flow: str
    dt: float
    n_steps: int

    def __len__(self):
        return len(self.states)

    def __getitem__(self, i):
        return self.states[i]

    @property
    def times(self):
        return np.array([s.time for s in self.states])

    @property
    def alphas(self):
        return np.stack([s.alphas.alpha for s in self.states])

    @property
    def initial(self):
        return self.states[0]

    @property
    def final(self):
        return self.states[-1]

    def conserved_series(self, ell_max=4):
        """Per-frame conserved data.

        Returns {"k0": (F,) real, "k1": (F,) complex, "trace_powers":
        (F, ell_max), complex or real for real states}; every row should
        be constant in exact arithmetic.
        """
        A = self.alphas
        rho2 = 1.0 - np.abs(A) ** 2
        k0 = np.prod(rho2, axis=-1).real.astype(float)
        k1 = -np.sum(A * np.conj(np.roll(A, -1, axis=-1)), axis=-1)
        return {"k0": k0, "k1": np.asarray(k1, complex),
                "trace_powers": batch_trace_powers(A, ell_max)}

    def to_csv(self, path):
        """Frame table with header t,re_alpha_1,im_alpha_1,..."""
        n = self.states[0].n
        header = ["t"]
        for j in range(1, n + 1):
            header += [f"re_alpha_{j}", f"im_alpha_{j}"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for s in self.states:
                a = np.asarray(s.alphas.alpha, complex)
                row = [repr(float(s.time))]
                for j in range(n):
                    row += [repr(float(a[j].real)), repr(float(a[j].imag))]
                writer.writerow(row)


def _frame(a, t):
    try:
        vec = VerblunskyVector(a.copy(), BoundaryMode.ALL_INTERIOR)
    except ValueError:
        # inside the stability band but already on or past the circle
        amax = float(np.abs(a).max())
        raise NumericalError(
            f"trajectory reached the polydisk boundary (max |alpha| = "
            f"{amax:.12g} at t = {t:.6g}); try a smaller dt",
            residual=amax - 1.0) from None
    return FlowState(vec, t)


def integrate(state0, which_flow, params, max_frames=256,
              direction="forward"):
    """Integrate one trajectory with classical RK4 at fixed dt.

    Args:
        state0: FlowState, VerblunskyVector, or interior coefficient
            array; Schur input must be real.
        which_flow: "al" or "schur".
        params: IntegratorParams; the run takes round(t_final/dt) >= 1
            steps of size dt, so pick commensurate values to land on
            t_final exactly.
        max_frames: cap on stored frames (endpoints always kept).
        direction: "forward" or "backward"; backward runs the same
            scheme with step -dt, so integrating forward for t_final and
            then backward for t_final returns to the initial state up to
            the discretization error.

    Returns:
        Trajectory.

    Raises:
        NumericalError: the state left the closed unit polydisk by more
            than 1e-8 (the step is too large for the data).
        ValueError: unknown flow or direction, or invalid parameters.
    """
    if which_flow not in _FLOWS:
        raise ValueError(f"unknown flow {which_flow!r}")
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    if not isinstance(params, IntegratorParams):
        raise TypeError("params must be IntegratorParams")
    if not isinstance(state0, FlowState):
        state0 = FlowState(state0)
    rhs = _FLOWS[which_flow]
    if max_frames < 2:
        raise ValueError("max_frames must be at least 2")

    n_steps = max(1, int(round(params.t_final / params.dt)))
    stride = max(1, math.ceil(n_steps / (max_frames - 1)))
    sign = 1.0 if direction == "forward" else -1.0
    t0 = state0.time
    raw = state0.alphas.alpha
    if which_flow == "schur":
        if np.iscomplexobj(raw):
            raise ValueError("the Schur flow acts on real coefficient vectors")
        a = np.array(raw, dtype=float)
    else:
        a = np.array(raw, dtype=complex)

    frames = [_frame(a, t0)]
    h = sign * params.dt
    for k in range(1, n_steps + 1):
        a = _rk4_step(rhs, a, h)
        t = t0 + sign * k * params.dt
        _check_polydisk(a, t)
        if k % stride == 0 or k == n_steps:
            frames.append(_frame(a, t))
    return Trajectory(states=tuple(frames), flow=which_flow,
                      dt=params.dt, n_steps=n_steps)


# --------------------------------------------------------------------------
# conservation diagnostics


@dataclass(frozen=True)
class ConservationReport:
    """Relative drift of the conserved quantities over a trajectory.

    Each drift is max_t |K(t) - K(0)| / max(|K(0)|, 1), so quantities
    crossing zero are measured on an absolute scale instead of blowing
    up the quotient.
    """

    flow: str
    n_sites: int
    n_frames: int
    ell_max: int
    drifts: dict

    @property
    def max_drift(self):
        return max(self.drifts.values())

    def to_json(self, path=None):
        blob = {
            "flow": self.flow,
            "n_sites": self.n_sites,
            "n_frames": self.n_frames,
            "ell_max": self.ell_max,
            "drifts": {k: float(v) for k, v in self.drifts.items()},
            "max_drift": float(self.max_drift),
        }
        if path is not None:
            with open(path, "w") as fh:
                json.dump(blob, fh, indent=2, sort_keys=True)
        return blob


def _drift(series):
    ref = series[0]
    dev = float(np.abs(series - ref).max())
    return dev / max(abs(ref), 1.0)


def conservation_report(trajectory, ell_max=4):
    """Relative drifts of K0, K1 and Tr E^ell (ell <= ell_max).

    Accepts a Trajectory or any nonempty sequence of FlowState.
    """
    if isinstance(trajectory, Trajectory):
        traj = trajectory
    else:
        states = tuple(trajectory)
        if not states:
            raise ValueError("trajectory is empty")
        flow = "schur" if all(
            not np.iscomplexobj(s.alphas.alpha) for s in states) else "al"
        traj = Trajectory(states=states, flow=flow, dt=float("nan"),
                          n_steps=len(states) - 1)
    ell_max = int(ell_max)
    if ell_max < 1:
        raise ValueError("ell_max must be at least 1")
    series = traj.conserved_series(ell_max)
    drifts = {"k0": _drift(series["k0"]), "k1": _drift(series["k1"])}
    for ell in range(1, ell_max + 1):
        drifts[f"trace_{ell}"] = _drift(series["trace_powers"][:, ell - 1])
    return ConservationReport(flow=traj.flow, n_sites=traj[0].n,
                              n_frames=len(traj), ell_max=ell_max,
                              drifts=drifts)


# --------------------------------------------------------------------------
# Lax equation residual


def lax_residual(state, dt_probe=1e-6):
    """Finite-difference check of dE/dt = i [E, E+ + (E+)* + D].

    Advances the state by one RK4 step of size dt_probe under the AL
    flow, forms (E(t+dt) - E(t)) / dt, and returns the max-norm gap to
    the commutator i [E, E+ + (E+)* + D] evaluated at t, where D is the
    constant parity diagonal diag(-1, +1, -1, ...).  D accounts for the
    -2 alpha_j phase term of the equation of motion (a uniform phase
    rotation, generated by a commutator with a parity matrix); without
    that term in the flow no D is needed.  The probe is a forward
    difference, so the residual decays linearly in dt_probe (down to
    the integrator's own O(dt_probe^4) floor).

    The algebraically equivalent generator E+ - (E*)+ + D is evaluated
    too and both commutators must agree to 1e-12; E* E = E E* makes the
    two forms differ by i [E, E*] = 0.
    """
    if not isinstance(state, FlowState):
        state = FlowState(state)
    if not dt_probe > 0:
        raise ValueError("dt_probe must be positive")
    a0 = np.asarray(state.alphas.alpha, dtype=complex)
    m0 = build_periodic_cmv(a0)
    E0 = m0.dense()
    P = e_plus(m0)
    parity = -((-1.0) ** np.arange(m0.n))
    gen = P + P.conj().T + np.diag(parity)
    commutator = 1j * (E0 @ gen - gen @ E0)
    gen_alt = P - _keep_upper_cyclic(E0.conj().T) + np.diag(parity)
    alt = 1j * (E0 @ gen_alt - gen_alt @ E0)
    gap = float(np.abs(commutator - alt).max())
    if not gap <= COMMUTATOR_TOL:
        raise NumericalError(f"the two Lax generators disagree by {gap:.3e}",
                             residual=gap)

    a1 = _rk4_step(al_rhs, a0, dt_probe)
    E1 = build_periodic_cmv(a1).dense()
    fd = (E1 - E0) / dt_probe
    return float(np.abs(fd - commutator).max())


# --------------------------------------------------------------------------
# statistical invariance of the Gibbs ensembles


@dataclass(frozen=True)
class InvarianceReport:
    """Two-sample comparison of ensemble statistics before and after a flow.

    statistics maps a name (re_trace_k for k = 1..k_max, mean_abs_sq) to
    {pre_mean, post_mean, z, p_value}.  The trace statistics are
    conserved along every trajectory, so for them the test doubles as an
    integrator consistency check; mean |alpha|^2 moves per trajectory
    and probes the invariance of the sampled law itself.
    """

    flow: str
    beta: float
    n_sites: int
    n_samples: int
    t_final: float
    dt: float
    statistics: dict
    warnings: tuple = field(default_factory=tuple)

    @property
    def p_values(self):
        return {k: v["p_value"] for k, v in self.statistics.items()}

    def passes(self, level=0.01):
        return all(p > level for p in self.p_values.values())

    def to_json(self, path=None):
        blob = {
            "flow": self.flow,
            "beta": self.beta,
            "n_sites": self.n_sites,
            "n_samples": self.n_samples,
            "t_final": self.t_final,
            "dt": self.dt,
            "statistics": {k: {kk: float(vv) for kk, vv in v.items()}
                           for k, v in self.statistics.items()},
            "warnings": list(self.warnings),
        }
        if path is not None:
            with open(path, "w") as fh:
                json.dump(blob, fh, indent=2, sort_keys=True)
        return blob


def _ensemble_statistics(A, k_max):
    """Per-sample Re Tr E^k (k <= k_max) and mean |alpha|^2, as columns."""
    A = np.atleast_2d(A)
    traces = batch_trace_powers(A, k_max)
    cols = {f"re_trace_{k}": traces[:, k - 1].real
            for k in range(1, k_max + 1)}
    cols["mean_abs_sq"] = np.mean(np.abs(A) ** 2, axis=-1)
    return cols


def _two_sample_z(x, y):
    n, m = x.size, y.size
    se = math.sqrt(x.var(ddof=1) / n + y.var(ddof=1) / m)
    if se == 0.0:
        z = 0.0 if float(x.mean()) == float(y.mean()) else math.inf
    else:
        z = (float(y.mean()) - float(x.mean())) / se
    return z, 2.0 * float(stats.norm.sf(abs(z)))


def gge_invariance_test(spec, t_final, n_samples, rng=None, dt=0.02,
                        k_max=4):
    """Check that the sampled Gibbs law is invariant under its flow.

    Draws n_samples states from the ensemble of `spec` ("al" or
    "schur"), flows the whole batch to t_final with RK4, and compares
    pre/post ensemble averages of Re Tr E^k (k <= k_max) and of
    (1/n) sum |alpha_j|^2 by two-sample z-tests.

    The step is t_final / ceil(t_final / dt), so t_final is hit exactly;
    t_final = 0 skips the flow and every p-value is 1 by construction.
    Small ensembles get a warning entry instead of an error, except that
    fewer than two samples cannot feed a z-test at all.

    Returns:
        InvarianceReport with per-statistic z and p values.
    """
    if spec.kind not in _FLOWS:
        raise ValueError("the lattice flows act on 'al' or 'schur' ensembles")
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    n_samples = int(n_samples)
    if n_samples < 2:
        raise ValueError("need at least two samples for a z-test")
    rng = make_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    warnings = []
    if n_samples < 100:
        warnings.append(
            f"only {n_samples} samples; the normal approximation of the "
            "test statistic is unreliable below 100")

    batch = sample_ensemble(spec, McmcParams(sweeps=n_samples), rng)
    A0 = batch.alphas
    pre = _ensemble_statistics(A0, k_max)

    if t_final == 0:
        A1 = A0
        step = 0.0
    else:
        rhs = _FLOWS[spec.kind]
        n_steps = max(1, math.ceil(t_final / dt))
        step = t_final / n_steps
        A1 = np.array(A0)
        for k in range(n_steps):
            A1 = _rk4_step(rhs, A1, step)
            _check_polydisk(A1, (k + 1) * step)
    post = _ensemble_statistics(A1, k_max)

    statistics = {}
    for name in pre:
        z, p = _two_sample_z(np.asarray(pre[name]), np.asarray(post[name]))
        statistics[name] = {
            "pre_mean": float(np.mean(pre[name])),
            "post_mean": float(np.mean(post[name])),
            "z": z,
            "p_value": p,
        }
    return InvarianceReport(flow=spec.kind, beta=spec.beta,
                            n_sites=spec.size, n_samples=n_samples,
                            t_final=float(t_final), dt=float(step),
                            statistics=statistics,
                            warnings=tuple(warnings))
