"""Samplers for Verblunsky-coefficient ensembles.

Zero-potential laws are sampled exactly; a nonzero potential is handled
by Metropolis-within-Gibbs with fresh single-site proposals drawn from
the zero-potential marginals, so the acceptance probability reduces to
min(1, exp(-delta Tr V(E))) with the trace increment evaluated exactly.
Degree-1 torus potentials on rings update a whole colour class of sites
per numpy call.  The single-site chain takes the increment of a degree <= 2
potential from the closed-form row terms of Tr E and Tr E^2 around the
site (cmv_core.site_trace_increments), at a cost independent of N, and
recomputes the power traces of the whole state for higher degrees and for
rings of fewer than six sites.
"""

import cmath
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import cmv_core as cc
from .potentials import Potential

__all__ = [
    "ThetaParams",
    "CoupledPair",
    "CoupledFamily",
    "McmcParams",
    "EnsembleKind",
    "EnsembleSpec",
    "KINDS",
    "SampleBatch",
    "SeededGenerator",
    "make_rng",
    "sample_theta",
    "sample_chi",
    "sample_coupled_pair",
    "sample_coupled_family",
    "sample_al_gge",
    "sample_schur_gge",
    "sample_circular_beta",
    "sample_jacobi_beta",
    "sample_ensemble",
]


class SeededGenerator(np.random.Generator):
    """PCG64 generator that remembers the integer seed it was built from.

    The recorded seed lets every emitted batch (and any file written from
    it) identify the stream it came from; within a batch the row index is
    the stream index.
    """

    def __init__(self, seed):
        seed = int(seed) & (2**64 - 1)
        super().__init__(np.random.PCG64(seed))
        self.seed_value = seed


def make_rng(seed=None):
    """Build the package generator; an existing generator passes through.

    Resolution order: explicit argument, the ``GGE_SEED`` environment
    variable (unset when blank), fresh OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        env = os.environ.get("GGE_SEED", "").strip()
        if env:
            try:
                seed = int(env)
            except ValueError:
                raise ValueError(f"GGE_SEED={env!r} is not an integer") from None
    if seed is None:
        seed = int.from_bytes(os.urandom(8), "little")
    return SeededGenerator(seed)


# --------------------------------------------------------------------------
# single-site laws


@dataclass(frozen=True)
class ThetaParams:
    """Parameters of the disk law with density ~ (1 - |z|^2)^((nu-3)/2).

    Attributes:
        nu: shape parameter, must exceed 1.
        method: "radial" draws |z|^2 ~ Beta(1, (nu-1)/2) with a uniform
            phase; "ratio" builds (X1 + i X2)/sqrt(X1^2 + X2^2 + Y^2)
            with Y a chi variable with nu - 1 degrees of freedom.
    """

    nu: float
    method: str = "radial"

    def __post_init__(self):
        if not self.nu > 1.0:
            raise ValueError(f"nu must exceed 1, got {self.nu}")
        if self.method not in ("radial", "ratio"):
            raise ValueError(f"unknown method {self.method!r}")


def sample_theta(params, rng, size=None):
    """Draw from the rotation-invariant disk law Theta_nu.

    `params` may be a ThetaParams or a bare nu value.  Both methods
    target the same distribution; the second moment is E|z|^2 = 2/(nu+1)
    and nu = 3 is the uniform law on the disk.
    """
    if not isinstance(params, ThetaParams):
        params = ThetaParams(float(params))
    nu = params.nu
    if params.method == "radial":
        return _radial_theta(nu, rng, size)
    x1 = rng.standard_normal(size)
    x2 = rng.standard_normal(size)
    y = sample_chi(nu - 1.0, rng, size)
    return _into_open_disk((x1 + 1j * x2) / np.sqrt(x1**2 + x2**2 + y**2))


def _radial_theta(nu, rng, size=None):
    """The radial method of sample_theta, nu unchecked: |z|^2 ~ Beta(1,
    (nu - 1)/2) and a uniform phase.  One draw (size None) is a Python
    complex with the bits the array form gives."""
    if size is None:
        # rng.uniform(lo, hi) draws lo + (hi - lo) * rng.random()
        r = math.sqrt(rng.beta(1.0, (nu - 1.0) / 2.0))
        phase = 2.0 * math.pi * rng.random()
        return _into_open_disk(r * complex(math.cos(phase), math.sin(phase)))
    r = np.sqrt(rng.beta(1.0, (nu - 1.0) / 2.0, size=size))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=size)
    return _into_open_disk(r * np.exp(1j * phase))


def _into_open_disk(z, bound=1.0 - 1e-15):
    """Pull boundary-grazing draws back to the largest usable modulus.

    For nu barely above 1 the radial law puts visible mass within one ulp
    of the unit circle, where rounding can push |z| to 1 or slightly past
    it; downstream factorizations need |z| < 1 strictly.  A Python complex
    stays one, and np.abs decides near the bound, as for arrays.
    """
    if isinstance(z, complex):
        if abs(z) < bound - 1e-15:  # abs and np.abs differ by an ulp or so
            return z
        r = float(np.abs(z))
        return z * (bound / r) if r >= bound else z
    r = np.abs(z)
    hot = r >= bound
    if np.any(hot):
        z = np.where(hot, z * (bound / np.maximum(r, bound)), z)
    return z


def sample_chi(dof, rng, size=None):
    """Draw chi variables; fractional degrees of freedom are allowed."""
    if not dof > 0:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    return np.sqrt(rng.gamma(dof / 2.0, 2.0, size=size))


# --------------------------------------------------------------------------
# couplings between neighbouring shape parameters


@dataclass(frozen=True)
class CoupledPair:
    """Joint draw of (alpha_nu, alpha_{nu+h}) with its distance bound Z_h.

    Both marginals are exact Theta laws and every sample satisfies
    |alpha_nu - alpha_nu_h| <= z_h as well as the same bound for the
    complementary radii sqrt(1 - |alpha|^2).  Z_h has density h w^(h-1)
    on (0, 1).
    """

    alpha_nu: np.ndarray
    alpha_nu_h: np.ndarray
    z_h: np.ndarray
    nu: float
    h: float


@dataclass(frozen=True)
class CoupledFamily:
    """Monotone coupling of Theta draws across several increments h.

    z[:, k] is the bound variable for h_values[k]; columns are pointwise
    nondecreasing because the underlying chi variables are built by
    accumulating independent increments.
    """

    alpha_nu: np.ndarray
    alphas: np.ndarray
    z: np.ndarray
    nu: float
    h_values: tuple


def _check_h(h):
    if not 0.0 < h < 1.0:
        raise ValueError(f"h must lie in (0, 1), got {h}")


def sample_coupled_pair(nu, h, rng, size=None):
    """Couple Theta_nu and Theta_(nu+h) on common Gaussian data."""
    ThetaParams(nu)
    _check_h(h)
    x1 = rng.standard_normal(size)
    x2 = rng.standard_normal(size)
    s = x1**2 + x2**2
    y = sample_chi(nu - 1.0, rng, size)
    y_h = sample_chi(h, rng, size)
    w = x1 + 1j * x2
    return CoupledPair(
        alpha_nu=w / np.sqrt(s + y**2),
        alpha_nu_h=w / np.sqrt(s + y**2 + y_h**2),
        z_h=y_h / np.sqrt(s + y_h**2),
        nu=float(nu),
        h=float(h),
    )


def sample_coupled_family(nu, h_values, rng, size=None):
    """Couple Theta_(nu+h) across a strictly increasing grid of h.

    The chi variables for successive h share their lower increments, so
    z columns are monotone in h sample by sample.
    """
    ThetaParams(nu)
    h = np.asarray(h_values, float)
    if h.ndim != 1 or h.size == 0:
        raise ValueError("h_values must be a nonempty 1d sequence")
    for val in h:
        _check_h(val)
    if np.any(np.diff(h) <= 0):
        raise ValueError("h_values must be strictly increasing")
    shape = () if size is None else (size,)
    x1 = rng.standard_normal(shape)
    x2 = rng.standard_normal(shape)
    s = x1**2 + x2**2
    y = sample_chi(nu - 1.0, rng, shape)
    w = x1 + 1j * x2
    alpha_nu = w / np.sqrt(s + y**2)
    z = np.empty(shape + (h.size,))
    alphas = np.empty(shape + (h.size,), complex)
    yh_sq = np.zeros(shape)
    prev = 0.0
    for k, hk in enumerate(h):
        yh_sq = yh_sq + sample_chi(hk - prev, rng, shape) ** 2
        prev = hk
        z[..., k] = np.sqrt(yh_sq / (s + yh_sq))
        alphas[..., k] = w / np.sqrt(s + y**2 + yh_sq)
    return CoupledFamily(alpha_nu=alpha_nu, alphas=alphas, z=z,
                         nu=float(nu), h_values=tuple(float(v) for v in h))


# --------------------------------------------------------------------------
# ensemble specifications


@dataclass(frozen=True)
class McmcParams:
    """Chain controls for the Metropolis samplers.

    Attributes:
        sweeps: number of kept states to emit (>= 1).  At the default
            thinning one full sweep separates kept states, hence the name.
        burn_in: sweeps discarded before recording; None means 10 N.
        thinning: site updates between kept states; None means N, i.e.
            one sweep.  N is the matrix dimension in both defaults.  The
            colour chain (degree-1 torus potentials on rings) updates
            whole sweeps and keeps a state every ceil(thinning / N) of
            them, so every thinning up to N keeps one state per sweep.
    """

    sweeps: int = 1000
    burn_in: Optional[int] = None
    thinning: Optional[int] = None

    def __post_init__(self):
        if int(self.sweeps) < 1:
            raise ValueError("sweeps must be at least 1")
        if self.burn_in is not None and int(self.burn_in) < 0:
            raise ValueError("burn_in must be nonnegative")
        if self.thinning is not None and int(self.thinning) < 1:
            raise ValueError("thinning must be at least 1")


@dataclass(frozen=True)
class EnsembleKind:
    """What fixes one Gibbs family: the V = 0 laws of its coefficients.

    Every family draws its Verblunsky coefficients independently site by
    site (Killip-Nenciu): complex Theta_nu_j on the torus kinds, real
    (1 + alpha_j)/2 ~ Beta(s_j, s_j) on the interval kinds.

    Attributes:
        domain: "torus" or "interval", where the spectrum and the
            potentials live.  Interval kinds have real coefficients, so
            their spectra come in conjugate pairs read as x = cos(theta).
        boundary: the last-coefficient convention.  ALL_INTERIOR is the
            periodic matrix, translation invariant, so every site has the
            same law; the other two are the open matrix, whose last entry
            is uniform on the unit circle or fixed at -1.
        pairs: EnsembleSpec.n counts spectral pairs, so the coefficient
            vector has 2n entries.
        interior: (beta, size) -> the shape parameters nu_j or s_j of the
            interior sites j = 1, 2, ..., all `size` sites when periodic,
            the first size - 1 otherwise.
    """

    domain: str
    boundary: cc.BoundaryMode
    pairs: bool
    interior: Callable

    @property
    def periodic(self):
        return self.boundary == cc.BoundaryMode.ALL_INTERIOR

    @property
    def topology(self):
        """The matrix the coefficients build: "periodic" or "open"."""
        return "periodic" if self.periodic else "open"

    def mutable(self, size):
        """Sites a Metropolis sweep redraws: all but a last entry of -1."""
        fixed = self.boundary == cc.BoundaryMode.LAST_MINUS_ONE
        return size - 1 if fixed else size


KINDS = {
    "al": EnsembleKind("torus", cc.BoundaryMode.ALL_INTERIOR, False,
                       lambda beta, size: np.full(size, 2.0 * beta + 1.0)),
    "schur": EnsembleKind("interval", cc.BoundaryMode.ALL_INTERIOR, False,
                          lambda beta, size: np.full(size, beta)),
    "circular": EnsembleKind(
        "torus", cc.BoundaryMode.LAST_ON_CIRCLE, False,
        lambda beta, size: beta * np.arange(size - 1, 0, -1) + 1.0),
    "jacobi": EnsembleKind(
        "interval", cc.BoundaryMode.LAST_MINUS_ONE, True,
        lambda beta, size: beta * (1.0 - np.arange(1, size) / size)),
}

ENSEMBLE_KINDS = tuple(KINDS)


@dataclass(frozen=True)
class EnsembleSpec:
    """Which Gibbs ensemble to draw from.

    Attributes:
        kind: one of "al", "schur", "circular", "jacobi" (a key of KINDS).
        n: matrix size for al/schur/circular; number of spectral pairs
           for jacobi (the coefficient vector then has length 2n).
        beta: inverse temperature, positive and finite.  For circular
           this is the per-site rate beta_tilde, for jacobi the exponent
           scale.
        potential: optional Potential tilting the law by exp(-Tr V(E)).
           Interval potentials count conjugate pairs once, so they are
           rejected on the torus kinds, whose spectra are not paired.
    """

    kind: str
    n: int
    beta: float
    potential: Optional[Potential] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        kind = KINDS[self.kind]
        if (self.potential is not None and self.potential.domain == "interval"
                and kind.domain == "torus"):
            raise ValueError(f"{self.kind} spectra are not conjugate pairs; "
                             "interval potentials need an interval kind")
        periodic = kind.periodic
        if self.size < 2 or (periodic and self.size % 2):
            even = " and an even count" if periodic else ""
            raise ValueError(f"{self.kind} needs at least two coefficients"
                             f"{even}, got n = {self.n}")

    @property
    def size(self):
        """Length of the coefficient vector."""
        return 2 * self.n if KINDS[self.kind].pairs else self.n


@dataclass
class SampleBatch:
    """Kept states of one sampling run.

    alphas has shape (samples, size); row i is stream index i of the
    generator identified by `seed`.  acceptance_rate is None for exact
    (potential-free) sampling.
    """

    alphas: np.ndarray
    kind: str
    beta: float
    boundary: cc.BoundaryMode
    acceptance_rate: Optional[float] = None
    seed: Optional[int] = None
    potential: Optional[Potential] = None

    @property
    def n_samples(self):
        return self.alphas.shape[0]

    @property
    def size(self):
        return self.alphas.shape[1]


# --------------------------------------------------------------------------
# zero-potential draws


def _real_interior(rng, a, b, size=None):
    """Beta draw mapped to (-1, 1), kept strictly inside the interval.

    Tiny shape parameters pile mass onto the endpoints, where rounding can
    produce exactly +-1; the clip keeps downstream factorizations valid.
    One draw (size None) is a Python float.
    """
    vals = 2.0 * rng.beta(a, b, size=size) - 1.0
    if size is None:
        return min(max(vals, -1.0 + 1e-15), 1.0 - 1e-15)
    return np.clip(vals, -1.0 + 1e-15, 1.0 - 1e-15)


def _draw_sites(kind, params, rng, site=None, size=None):
    """Fresh draws from the V = 0 site laws of one ensemble kind.

    `params` is kind.interior(beta, N).  With `site` given this draws
    `size` values of that site alone (a Python scalar for None, the
    single-site chain's proposal); without it, `size` whole coefficient
    vectors.  Fixed seeds reproduce batches bit for bit, so the order of
    generator calls is fixed too: periodic rows come from one (size, N)
    call, open rows column by column.
    """
    if site is None:
        if kind.periodic:
            return _draw_sites(kind, params, rng, 0, (size, params.size))
        out = np.empty((size, params.size + 1),
                       complex if kind.domain == "torus" else float)
        for j in range(params.size + 1):
            out[:, j] = _draw_sites(kind, params, rng, j, size)
        return out
    if site == params.size:  # the last entry of an open matrix
        if kind.boundary == cc.BoundaryMode.LAST_MINUS_ONE:
            return -1.0
        if size is None:
            return cmath.exp(2j * math.pi * rng.random())
        return np.exp(2j * np.pi * rng.uniform(size=size))
    if kind.domain == "torus":
        return _radial_theta(params[site], rng, size)
    return _real_interior(rng, params[site], params[site], size=size)


# --------------------------------------------------------------------------
# Metropolis machinery


def _color_spacing(n):
    """Spacing s dividing n with s >= 3, so same-colour sites do not share
    neighbours; None when no such divisor exists (n = 2)."""
    for s in (8, 4, 3, 5, 6, 7):
        if s <= n and n % s == 0:
            return s
    for s in range(9, n + 1):
        if n % s == 0:
            return s
    return None


def _run_color_chain(kind, params, wc, spacing, burn, thin, n_keep, rng):
    """Vectorised sweeps for periodic matrices and degree <= 1 torus V.

    A degree-1 trace increment at site j only involves alpha_{j-1} and
    alpha_{j+1}, so sites of a common residue class mod `spacing` update
    independently and one numpy call handles the whole class.
    """
    alpha = _draw_sites(kind, params, rng, size=1)[0]
    size_n = alpha.size
    w1 = wc[0] if wc.size else 0.0
    stride = max(1, -(-thin // size_n))
    kept = np.empty((n_keep, size_n), dtype=alpha.dtype)
    accepted = 0
    proposed = 0
    sweep = 0
    k_idx = 0
    offsets = [np.arange(off, size_n, spacing) for off in range(spacing)]
    while k_idx < n_keep:
        for sites in offsets:
            # periodic sites share one law, so one call draws the class
            prop = _draw_sites(kind, params, rng, sites[0], sites.size)
            d = prop - alpha[sites]
            dtr = -(alpha[(sites - 1) % size_n] * np.conj(d)
                    + d * np.conj(alpha[(sites + 1) % size_n]))
            dv = (w1 * dtr).real
            acc = np.log(rng.uniform(size=sites.size)) < -dv
            alpha[sites[acc]] = prop[acc]
            accepted += int(acc.sum())
            proposed += sites.size
        sweep += 1
        if sweep > burn and (sweep - burn) % stride == 0:
            kept[k_idx] = alpha
            k_idx += 1
    return kept, accepted / proposed


def _run_site_chain(kind, params, wc, burn, thin, n_keep, rng):
    """Sequential single-site chain, exact for any potential degree.

    The state is a list of Python scalars.  For degree <= 2 the trace
    increment of an update is the closed form cc.site_trace_increments,
    whose cost does not grow with N; higher degrees and rings of fewer than
    six sites recompute every trace of the state, O(N) work per update.
    """
    deg = wc.size
    alpha = _draw_sites(kind, params, rng, size=1)[0]
    topology = kind.topology
    local = cc.has_site_increments(alpha.size, topology, deg)
    if local:
        w1, w2 = wc.tolist() + [0.0] * (2 - deg)
    else:
        tr_cur = cc.batch_trace_powers(alpha, deg, topology)[0]
    state = alpha.tolist()
    mutable = kind.mutable(alpha.size)
    kept = np.empty((n_keep, alpha.size), dtype=alpha.dtype)
    burn_updates = burn * mutable
    accepted = 0
    updates = 0
    k_idx = 0
    while k_idx < n_keep:
        j = updates % mutable
        prop = _draw_sites(kind, params, rng, j)
        if local:
            d1, d2 = cc.site_trace_increments(state, j, prop, topology)
            dv = (w1 * d1 + w2 * d2).real
        else:
            old, state[j] = state[j], prop
            tr_new = cc.batch_trace_powers(state, deg, topology)[0]
            state[j] = old
            dv = float(np.real(wc @ (tr_new - tr_cur)))
        u = rng.random()  # the draw of rng.uniform()
        if u == 0.0 or math.log(u) < -dv:
            state[j] = prop
            if not local:
                tr_cur = tr_new
            accepted += 1
        updates += 1
        if updates > burn_updates and (updates - burn_updates) % thin == 0:
            kept[k_idx] = state
            k_idx += 1
    return kept, accepted / updates


def _sample(spec, mcmc, rng):
    rng = make_rng(rng)
    seed = getattr(rng, "seed_value", None)
    n_keep = int(mcmc.sweeps)
    kind = KINDS[spec.kind]
    size_n, beta, potential = spec.size, float(spec.beta), spec.potential
    params = kind.interior(beta, size_n)

    if potential is None or potential.is_zero:
        alphas = _draw_sites(kind, params, rng, size=n_keep)
        rate = None
    else:
        wc = potential.trace_weights()
        burn = int(mcmc.burn_in) if mcmc.burn_in is not None else 10 * size_n
        thin = int(mcmc.thinning) if mcmc.thinning is not None else size_n
        spacing = _color_spacing(size_n) if kind.periodic else None
        use_color = (kind.periodic and potential.domain == "torus"
                     and wc.size <= 1 and spacing is not None)
        if use_color:
            alphas, rate = _run_color_chain(kind, params, wc, spacing, burn,
                                            thin, n_keep, rng)
        else:
            alphas, rate = _run_site_chain(kind, params, wc, burn, thin,
                                           n_keep, rng)
    return SampleBatch(alphas=alphas, kind=spec.kind, beta=beta,
                       boundary=kind.boundary, acceptance_rate=rate,
                       seed=seed, potential=potential)


# --------------------------------------------------------------------------
# public samplers


def sample_al_gge(spec, mcmc, rng=None):
    """Sample the Gibbs ensemble of the Ablowitz-Ladik chain.

    With zero potential each alpha_j is an exact i.i.d. Theta_(2 beta + 1)
    draw; otherwise the Metropolis chain targets the exp(-Tr V(E)) tilt.
    Returns a SampleBatch of `mcmc.sweeps` kept states.
    """
    if spec.kind != "al":
        raise ValueError(f"spec is for {spec.kind!r}, expected 'al'")
    return _sample(spec, mcmc, rng)


def sample_schur_gge(spec, mcmc, rng=None):
    """Sample the Schur-flow ensemble; entries are real in (-1, 1) with
    (1 + alpha_j)/2 ~ Beta(beta, beta) when the potential vanishes."""
    if spec.kind != "schur":
        raise ValueError(f"spec is for {spec.kind!r}, expected 'schur'")
    return _sample(spec, mcmc, rng)


def sample_circular_beta(n, beta_tilde, potential, mcmc, rng=None):
    """Sample the circular ensemble through its coefficient law.

    Site j (1-based) follows Theta_(beta_tilde (n - j) + 1) and the last
    entry is uniform on the unit circle, so the open CMV matrix carries
    the ensemble's eigen-angles.
    """
    spec = EnsembleSpec("circular", int(n), float(beta_tilde), potential)
    return _sample(spec, mcmc, rng)


def sample_jacobi_beta(n, beta, potential, mcmc, rng=None):
    """Sample the Jacobi-type ensemble on 2n coefficients.

    (1 + alpha_j)/2 ~ Beta(s_j, s_j) with s_j = beta (1 - j/(2n)) for
    j < 2n, and alpha_2n = -1 exactly; eigenvalues come in conjugate
    pairs cos(theta) on [-1, 1].
    """
    spec = EnsembleSpec("jacobi", int(n), float(beta), potential)
    return _sample(spec, mcmc, rng)


def sample_ensemble(spec, mcmc, rng=None):
    """Sample the ensemble of any kind through its own sampler.

    spec.beta and spec.n keep EnsembleSpec's convention: the circular
    beta is the per-site rate beta_tilde, and jacobi's n counts spectral
    pairs.
    """
    if spec.kind == "al":
        return sample_al_gge(spec, mcmc, rng)
    if spec.kind == "schur":
        return sample_schur_gge(spec, mcmc, rng)
    if spec.kind == "circular":
        return sample_circular_beta(spec.n, spec.beta, spec.potential, mcmc,
                                    rng)
    return sample_jacobi_beta(spec.n, spec.beta, spec.potential, mcmc, rng)
