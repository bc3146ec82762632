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
the one place where conservation is checked, and gge_invariance_test
checks the statistical counterpart, namely that Gibbs ensembles built
from conserved quantities are left invariant.  It pairs each sampled
state with its flowed image and compares only statistics that the flow
moves: a conserved one would pass by construction.

Integration is classical fourth-order Runge-Kutta with a fixed step.
The step count is round(t_final / dt), so commensurate (dt, t_final)
pairs land on t_final exactly.  No adaptivity: a step that takes any
site onto or past the unit circle aborts with a stability error instead
of being renormalized.  One stepper, _Rk4, serves the single
trajectories of integrate, the ensemble batches of gge_invariance_test
and the probe step of lax_residual, and _check_polydisk checks each of
their steps by that one rule.  The stepper owns the four stages and the
scratch arrays of one run, and every vector field is written into them
in place, the cyclic neighbours by three slice operations instead of two
rolled copies.  The stepper is site-major: the
ring is the first axis of its states, one ring (n,) or a block (n, B) of
B rings, while al_rhs and schur_rhs keep their (..., n) contract through
moved-axis views.  gge_invariance_test copies its batch site-major once
and flows it in blocks of columns of ENSEMBLE_BLOCK_BYTES per state
array, small enough that a step's eight arrays stay in an L2 cache; each
block takes all its steps before the next one starts.  Each field keeps
the operations of al_rhs and schur_rhs in their order, so a buffered
step of any layout is bit-identical to the same formula over fresh
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .cmv_core import (
    NumericalError,
    VerblunskyVector,
    _check_size,
    _positive,
    _power_count,
    build_periodic_cmv,
    conserved_quantities,
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

# conservation_report follows Tr E^ell for ell = 1.._ELL_MAX
_ELL_MAX = 4
# bytes of one state array of an ensemble block: the eight arrays a step
# touches (state, stage, four stages, two scratch) then fit a 2 MB L2 cache
ENSEMBLE_BLOCK_BYTES = 128 * 1024


# --------------------------------------------------------------------------
# states and parameters


@dataclass(frozen=True)
class FlowState:
    """A point on a flow: coefficient vector plus the clock.

    `alphas` may be given as a VerblunskyVector or as a plain array, which
    is wrapped in one, so every entry lies strictly inside the unit disk
    (ValueError otherwise).  The ring size n must be even and at least 2.
    Schur states should be real arrays, AL states complex.
    """

    alphas: VerblunskyVector
    time: float = 0.0

    def __post_init__(self):
        if not isinstance(self.alphas, VerblunskyVector):
            object.__setattr__(self, "alphas", VerblunskyVector(self.alphas))
        _check_size(self.alphas.n, "periodic")
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
        _positive(self.dt, "dt")
        _positive(self.t_final, "t_final")
        if self.dt > self.t_final:
            raise ValueError(
                f"dt = {self.dt:g} exceeds t_final = {self.t_final:g}")


# --------------------------------------------------------------------------
# vector fields: public on (..., n) arrays, private on site-major (n, ...)


def _coefficients(state):
    if isinstance(state, FlowState):
        return state.alphas.alpha
    if isinstance(state, VerblunskyVector):
        return state.alpha
    return np.asarray(state)


def _neighbours(a, op, out):
    """out[j] = op(a[j+1], a[j-1]), the first axis cyclic: a ring (n,) or a
    site-major block (n, B) of B rings."""
    op(a[2:], a[:-2], out=out[1:-1])
    op(a[1:2], a[-1:], out=out[:1])
    op(a[:1], a[-2:-1], out=out[-1:])


def _al_field(a, out, nb, r):
    """Write the AL field of complex site-major `a` into `out`; `nb`
    (complex) and `r` (real) are scratch of a's shape.  The steps evaluate
    i ((1 - |a|^2) nb - 2 a) in this order and these dtypes: |a|^2 as
    re^2 + im^2, or the factor i as a swap of real and imaginary parts,
    would change the last bits or signed zeros."""
    _neighbours(a, np.add, nb)
    np.abs(a, out=r)
    np.square(r, out=r)
    np.subtract(1.0, r, out=r)
    np.multiply(r, nb, out=out)
    np.multiply(2.0, a, out=nb)
    np.subtract(out, nb, out=out)
    return np.multiply(1j, out, out=out)


def _schur_field(a, out, nb, r):
    """Write the Schur field of real site-major `a` into `out`; `nb` and `r`
    are real scratch of a's shape."""
    _neighbours(a, np.subtract, nb)
    np.square(a, out=r)
    np.subtract(1.0, r, out=r)
    return np.multiply(r, nb, out=out)


# flow name -> (coefficient dtype, in-place vector field)
_FIELDS = {"al": (complex, _al_field), "schur": (float, _schur_field)}


def _ring(a):
    _check_size(a.shape[-1] if a.ndim else 0, "periodic")
    return a


def _site_major(*arrays):
    """Views of (..., n) arrays with the ring moved to the first axis, the
    layout of the in-place fields."""
    return [np.moveaxis(x, -1, 0) for x in arrays]


def al_rhs(state):
    """Right-hand side of the Ablowitz-Ladik system.

    Accepts a FlowState, a VerblunskyVector, or a bare (..., n) array and
    returns i [rho^2 (alpha_{j+1} + alpha_{j-1}) - 2 alpha_j] with the
    last axis treated cyclically; n must be even and at least 2.
    """
    a = _ring(np.asarray(_coefficients(state), dtype=complex))
    out = np.empty(a.shape, complex)
    _al_field(*_site_major(a, out, np.empty(a.shape, complex),
                           np.empty(a.shape)))
    return out


def schur_rhs(state):
    """Right-hand side rho^2 (alpha_{j+1} - alpha_{j-1}) of the Schur flow.

    Defined on real vectors only; complex input is a domain error, and n
    must be even and at least 2.  The arithmetic never leaves the reals,
    so imaginary parts stay exactly zero along any trajectory started
    from real data.
    """
    a = _coefficients(state)
    if np.iscomplexobj(a):
        raise ValueError("the Schur flow acts on real coefficient vectors")
    a = _ring(np.asarray(a, dtype=float))
    out = np.empty(a.shape)
    _schur_field(*_site_major(a, out, np.empty(a.shape), np.empty(a.shape)))
    return out


class _Rk4:
    """Classical RK4 steps of one flow on site-major states of one shape.

    A state is one ring (n,) or a block (n, B) of B rings, the ring along
    the first axis, so each neighbour slice is a few long contiguous runs
    rather than B short ones.  Holds the four stages, the stage state and
    two scratch arrays, so a step allocates only the new state it returns.
    """

    def __init__(self, flow, shape):
        dtype, self._field = _FIELDS[flow]
        self._k = [np.empty(shape, dtype) for _ in range(4)]
        self._stage = np.empty(shape, dtype)
        self._nb = np.empty(shape, dtype)
        self._r = np.empty(shape, float)

    def __call__(self, a, h):
        """a + h/6 (k1 + 2 (k2 + k3) + k4), as a fresh array."""
        k1, k2, k3, k4 = self._k
        s, nb, r = self._stage, self._nb, self._r
        self._field(a, k1, nb, r)
        for c, k, kn in ((0.5 * h, k1, k2), (0.5 * h, k2, k3), (h, k3, k4)):
            np.multiply(c, k, out=s)
            np.add(a, s, out=s)
            self._field(s, kn, nb, r)
        np.add(k2, k3, out=k2)
        np.multiply(2.0, k2, out=k2)
        np.add(k1, k2, out=k1)
        np.add(k1, k4, out=k1)
        np.multiply(h / 6.0, k1, out=k1)
        return np.add(a, k1)


def _check_polydisk(a, t):
    """Raise NumericalError unless every site of `a` lies strictly inside
    the unit circle, the rule of VerblunskyVector."""
    amax = float(np.abs(a).max())
    if not amax < 1.0:  # NaN fails too
        raise NumericalError(
            f"trajectory left the unit polydisk (max |alpha| = {amax:.12g} "
            f"at t = {t:.6g}); try a smaller dt", residual=amax - 1.0)


# --------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True)
class Trajectory:
    """Output frames of one integration run: `times` (frames,) and `alphas`
    (frames, n), a subsample of the computed steps (first and last always
    included).  traj[i] is frame i as a FlowState, built when read on a
    view of alphas[i].
    """

    times: np.ndarray
    alphas: np.ndarray
    flow: str
    n_steps: int

    def __len__(self):
        return len(self.times)

    def __getitem__(self, i):
        return FlowState(self.alphas[i], self.times[i])


def integrate(state0, which_flow, params, max_frames=256):
    """Integrate one trajectory with classical RK4 at fixed dt.

    Args:
        state0: FlowState, VerblunskyVector, or interior coefficient
            array; Schur input must be real.
        which_flow: "al" or "schur".
        params: IntegratorParams; the run takes round(t_final/dt) >= 1
            steps of size dt, so pick commensurate values to land on
            t_final exactly.
        max_frames: cap on stored frames (endpoints always kept).

    Returns:
        Trajectory.

    Raises:
        NumericalError: a step took a site onto or past the unit circle
            (the step is too large for the data).
        ValueError: unknown flow, or invalid parameters.
    """
    if which_flow not in _FIELDS:
        raise ValueError(f"unknown flow {which_flow!r}")
    if not isinstance(params, IntegratorParams):
        raise TypeError("params must be IntegratorParams")
    if not isinstance(state0, FlowState):
        state0 = FlowState(state0)
    max_frames = _power_count(max_frames, "max_frames", -math.inf)
    if max_frames < 2:
        raise ValueError("max_frames must be at least 2")

    n_steps = max(1, int(round(params.t_final / params.dt)))
    stride = max(1, math.ceil(n_steps / (max_frames - 1)))
    t0 = state0.time
    raw = state0.alphas.alpha
    if which_flow == "schur":
        if np.iscomplexobj(raw):
            raise ValueError("the Schur flow acts on real coefficient vectors")
        a = np.array(raw, dtype=float)
    else:
        a = np.array(raw, dtype=complex)

    times, frames = [t0], [a]
    step = _Rk4(which_flow, a.shape)
    for k in range(1, n_steps + 1):
        a = step(a, params.dt)  # a fresh array: a frame needs no copy
        t = t0 + k * params.dt
        _check_polydisk(a, t)
        if k % stride == 0 or k == n_steps:
            times.append(t)
            frames.append(a)
    return Trajectory(times=np.array(times), alphas=np.stack(frames),
                      flow=which_flow, n_steps=n_steps)


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

    def to_dict(self):
        return {
            "flow": self.flow,
            "n_sites": self.n_sites,
            "n_frames": self.n_frames,
            "ell_max": self.ell_max,
            "drifts": {k: float(v) for k, v in self.drifts.items()},
            "max_drift": float(self.max_drift),
        }


def _drift(series):
    ref = series[0]
    dev = float(np.abs(series - ref).max())
    return dev / max(abs(ref), 1.0)


def conservation_report(trajectory):
    """Relative drifts of K0, K1 and Tr E^ell (ell <= 4) over the frames of
    a Trajectory (TypeError for anything else).
    """
    if not isinstance(trajectory, Trajectory):
        raise TypeError(f"conservation_report takes a Trajectory, "
                        f"got {type(trajectory).__name__}")
    series = conserved_quantities(trajectory.alphas, _ELL_MAX)
    drifts = {"k0": _drift(series.k0), "k1": _drift(series.k1)}
    for ell in range(1, _ELL_MAX + 1):
        drifts[f"trace_{ell}"] = _drift(series.trace_powers[:, ell - 1])
    n_frames, n_sites = trajectory.alphas.shape
    return ConservationReport(flow=trajectory.flow, n_sites=n_sites,
                              n_frames=n_frames, ell_max=_ELL_MAX,
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
    the integrator's own O(dt_probe^4) floor).  A probe step that takes a
    site onto or past the unit circle raises NumericalError, as in
    integrate.

    The generator E+ - (E*)+ + D gives the same commutator, since E* E =
    E E* makes the two differ by i [E, E*] = 0; the tests check that
    identity against a dense projection.
    """
    if not isinstance(state, FlowState):
        state = FlowState(state)
    _positive(dt_probe, "dt_probe")
    a0 = np.asarray(state.alphas.alpha, dtype=complex)
    m0 = build_periodic_cmv(a0)
    E0 = m0.dense()
    P = e_plus(m0)
    parity = -((-1.0) ** np.arange(m0.n))
    gen = P + P.conj().T + np.diag(parity)
    commutator = 1j * (E0 @ gen - gen @ E0)
    a1 = _Rk4("al", a0.shape)(a0, dt_probe)
    _check_polydisk(a1, state.time + dt_probe)
    E1 = build_periodic_cmv(a1).dense()
    fd = (E1 - E0) / dt_probe
    return float(np.abs(fd - commutator).max())


# --------------------------------------------------------------------------
# statistical invariance of the Gibbs ensembles


@dataclass(frozen=True)
class InvarianceReport:
    """Paired comparison of ensemble statistics before and after a flow.

    statistics maps a name (mean_abs_sq, mean_re: the site means of
    |alpha_j|^2 and of Re alpha_j) to {pre_mean, post_mean, z, p_value},
    z being that of the mean of post - pre over the samples.  Both move
    along a trajectory, so they probe the invariance of the sampled law;
    conserved quantities are left to conservation_report.
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


def _ensemble_statistics(A):
    """Per-sample site means of |alpha_j|^2 and of Re alpha_j, as columns.

    No conserved quantity may enter: paired with itself it reads only the
    integrator's round-off.  The site mean of Re(alpha_{j+1} conj(alpha_j)),
    for one, is -Re K1 / n.
    """
    A = np.atleast_2d(A)
    return {"mean_abs_sq": np.mean(np.abs(A) ** 2, axis=-1),
            "mean_re": np.mean(A.real, axis=-1)}


def _flow_ensemble(flow, A, n_steps, h):
    """n_steps RK4 steps of size h for every row of the batch A (S, n).

    The batch is copied site-major once and flowed in blocks of columns,
    ENSEMBLE_BLOCK_BYTES per state array; each block takes all its steps
    before the next starts.  Every row gets the operations of a step of
    the whole batch, so the result, sample-major and C-contiguous, is
    bit-identical to it.
    """
    dtype = _FIELDS[flow][0]
    width = max(1, ENSEMBLE_BLOCK_BYTES
                // (A.shape[-1] * np.dtype(dtype).itemsize))
    X = np.ascontiguousarray(A.T)
    out = np.empty(A.shape, np.result_type(A, dtype))
    for lo in range(0, A.shape[0], width):
        a = X[:, lo:lo + width]
        rk4 = _Rk4(flow, a.shape)
        for k in range(n_steps):
            a = rk4(a, h)
            _check_polydisk(a, (k + 1) * h)
        out[lo:lo + width] = a.T
    return out


def _paired_z(pre, post):
    """z of the mean of post - pre over paired samples, and its two-sided
    normal p = 2 P(N > |z|) = erfc(|z| / sqrt 2)."""
    d = post - pre
    se = math.sqrt(d.var(ddof=1) / d.size)
    if se == 0.0:
        z = 0.0 if float(d.mean()) == 0.0 else math.inf
    else:
        z = float(d.mean()) / se
    return z, math.erfc(abs(z) / math.sqrt(2.0))


def gge_invariance_test(spec, t_final, n_samples, rng=None, dt=0.02):
    """Check that the sampled Gibbs law is invariant under its flow.

    Draws n_samples states from the ensemble of `spec` ("al" or
    "schur"), flows every state to t_final with RK4, and compares the
    site means (1/n) sum |alpha_j|^2 and (1/n) sum Re alpha_j of each
    state with those of its own image by a paired z-test on post - pre.
    Both move along a trajectory while their law stays fixed under an
    invariant ensemble; conserved quantities would pass by construction,
    so they are left to conservation_report.  The batch is flowed
    site-major in blocks of columns sized to stay in an L2 cache
    (ENSEMBLE_BLOCK_BYTES per state array); each block runs all its steps
    in turn, and a step that takes a site onto or past the unit circle
    raises NumericalError.

    The step is t_final / ceil(t_final / dt), so t_final is hit exactly;
    t_final = 0 skips the flow, so every difference is 0, z = 0 and p = 1.
    Small ensembles get a warning entry instead of an error, except that
    fewer than two samples cannot feed a z-test at all.  dt must be finite
    and positive, t_final finite and nonnegative.

    Returns:
        InvarianceReport with per-statistic z and p values.
    """
    if spec.kind not in _FIELDS:
        raise ValueError("the lattice flows act on 'al' or 'schur' ensembles")
    _positive(dt, "dt")
    if not (t_final >= 0 and math.isfinite(t_final)):
        raise ValueError(
            f"t_final must be nonnegative and finite, got {t_final!r}")
    n_samples = _power_count(n_samples, "n_samples", -math.inf)
    if n_samples < 2:
        raise ValueError("need at least two samples for a z-test")
    rng = make_rng(rng)
    warnings = []
    if n_samples < 100:
        warnings.append(
            f"only {n_samples} samples; the normal approximation of the "
            "test statistic is unreliable below 100")

    batch = sample_ensemble(spec, McmcParams(sweeps=n_samples), rng)
    A0 = batch.alphas
    pre = _ensemble_statistics(A0)

    if t_final == 0:
        A1 = A0
        step = 0.0
    else:
        n_steps = max(1, math.ceil(t_final / dt))
        step = t_final / n_steps
        A1 = _flow_ensemble(spec.kind, A0, n_steps, step)
    post = _ensemble_statistics(A1)

    statistics = {}
    for name in pre:
        z, p = _paired_z(pre[name], post[name])
        statistics[name] = {
            "pre_mean": float(np.mean(pre[name])),
            "post_mean": float(np.mean(post[name])),
            "z": z,
            "p_value": p,
        }
    return InvarianceReport(flow=spec.kind, beta=spec.beta,
                            n_sites=spec.n, n_samples=n_samples,
                            t_final=float(t_final), dt=float(step),
                            statistics=statistics,
                            warnings=tuple(warnings))
