"""Samplers for Verblunsky-coefficient ensembles.

Zero-potential laws are sampled exactly; a nonzero potential is handled
by Metropolis-within-Gibbs with fresh single-site proposals drawn from
the zero-potential marginals, so the acceptance probability reduces to
min(1, exp(-delta Tr V(E))) with the trace increment evaluated exactly.
Every Theta_nu draw of the ensembles, exact or proposed, goes through
_torus_sites: |z|^2 from the exact inverse CDF of Beta(1, (nu - 1)/2) and
a uniform phase, so a disk-law draw costs two uniforms and no rejection
loop.  The couplings of Theta_nu with Theta_(nu+h) come from one sampler,
sample_coupled_family, which builds every coefficient of a draw from
common Gaussian and chi variables; a single increment (h,) is the coupled
pair, and its alpha_nu is the public Theta_nu draw.
Tr E^K couples only coefficients within distance K, so one chain
(_run_chain) updates a whole class of sites K + 1 or more apart per numpy
call, on rings and open rows alike; a ring of n sites spaces its classes
by the smallest divisor of n above K.  A class's increments of Tr E and
Tr E^2 are closed forms over the rows around each site; higher degrees
and rings of n <= 2K take one batched trace call on the class's trial
rows.  The chain runs a stack of independent chains in lockstep, one per
scale of the potential (the nodes of a thermodynamic integral), and draws
a whole sweep's proposals and acceptance uniforms, for every class and
chain, before the sweep's classes run: one generator call per sweep on
the torus kinds, two on the interval kinds.
"""

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import cmv_core as cc
from .potentials import Potential

__all__ = [
    "CoupledFamily",
    "McmcParams",
    "EnsembleKind",
    "EnsembleSpec",
    "KINDS",
    "SampleBatch",
    "make_rng",
    "sample_chi",
    "sample_coupled_family",
    "sample_al_gge",
    "sample_schur_gge",
    "sample_circular_beta",
    "sample_jacobi_beta",
    "sample_ensemble",
]


def _seed(seed):
    """The integer seed of a run, mod 2^64: the explicit value, else the
    ``GGE_SEED`` environment variable (unset when blank), else fresh OS
    entropy.  The command line records it in every file it writes, so each
    file names the stream it came from."""
    if seed is None:
        env = os.environ.get("GGE_SEED", "").strip()
        if not env:
            return int.from_bytes(os.urandom(8), "little")
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"GGE_SEED={env!r} is not an integer") from None
    return cc._power_count(seed, "seed", -math.inf) & (2**64 - 1)


def make_rng(seed=None):
    """The package generator, PCG64 at the seed of _seed; an existing
    generator passes through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(_seed(seed)))


# --------------------------------------------------------------------------
# single-site laws


def _check_nu(nu):
    if not nu > 1.0:
        raise ValueError(f"nu must exceed 1, got {nu}")


def _disk_modulus(u, b):
    """|z| of Theta_nu, b = (nu - 1)/2, from uniforms u on [0, 1) by the
    exact inverse CDF of |z|^2 ~ Beta(1, b): 1 - (1 - u)^(1/b), computed as
    -expm1(log1p(-u) / b), which keeps the digits of small u and large b.
    For nu barely above 1 the law puts visible mass within one ulp of the
    unit circle, and downstream factorizations need |z| < 1 strictly, so
    the modulus is capped at 1 - 1e-15."""
    return np.minimum(np.sqrt(-np.expm1(np.log1p(-u) / b)), 1.0 - 1e-15)


def _torus_sites(u, b):
    """Theta draws from uniform pairs u (2, ..., M), radius then phase:
    phase 2 pi u[1] everywhere, and at the first b.shape[-1] sites along
    the last axis the modulus _disk_modulus(u[0], b).  The sites past them,
    a circular row's last, stay on the unit circle (r = 1)."""
    z = np.exp(2j * np.pi * u[1])
    k = b.shape[-1]
    z[..., :k] *= _disk_modulus(u[0, ..., :k], b)
    return z


def sample_chi(dof, rng, size=None):
    """Draw chi variables; fractional degrees of freedom are allowed."""
    cc._positive(dof, "dof")
    return np.sqrt(rng.gamma(dof / 2.0, 2.0, size=size))


# --------------------------------------------------------------------------
# couplings between neighbouring shape parameters


@dataclass(frozen=True)
class CoupledFamily:
    """Joint draw of alpha_nu ~ Theta_nu and alphas[:, k] ~ Theta_(nu+h_k)
    with the bound variables z[:, k], one column per increment h_k.

    Every sample satisfies |alpha_nu - alphas[:, k]| <= z[:, k], and the
    same bound for the complementary radii sqrt(1 - |alpha|^2).  z[:, k]
    has density h_k w^(h_k - 1) on (0, 1), and the columns are pointwise
    nondecreasing because the underlying chi variables are built by
    accumulating independent increments.  A single increment (h,) is the
    coupled pair (alpha_nu, alpha_(nu+h)) with its bound Z_h.
    """

    alpha_nu: np.ndarray
    alphas: np.ndarray
    z: np.ndarray


def _check_h(h):
    if not 0.0 < h < 1.0:
        raise ValueError(f"h must lie in (0, 1), got {h}")


def sample_coupled_family(nu, h_values, rng, size=None):
    """Couple Theta_nu and Theta_(nu+h) across a strictly increasing grid
    of h on common Gaussian data: w = X1 + i X2, alpha_nu = w / sqrt(|w|^2
    + Y^2) with Y a chi variable of nu - 1 degrees of freedom, and
    alpha_(nu+h) adds chi increments Y_h to the denominator.  The chi
    variables for successive h share their lower increments, so z columns
    are monotone in h sample by sample.  The generator calls are X1, X2, Y,
    then one chi increment per h, in order.
    """
    _check_nu(nu)
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
    return CoupledFamily(alpha_nu=alpha_nu, alphas=alphas, z=z)


# --------------------------------------------------------------------------
# ensemble specifications


@dataclass(frozen=True)
class McmcParams:
    """Chain controls for the Metropolis samplers.

    Attributes:
        sweeps: number of kept states to emit (>= 1).  At the default
            thinning one full sweep separates kept states, hence the name.
        burn_in: sweeps discarded before recording; None means 10 N.
        thinning: site updates between kept states; None means N, the
            matrix dimension, as in the burn-in default.  The chain runs
            whole sweeps, each redrawing the sites that EnsembleKind.mutable
            counts, and keeps a state every ceil(thinning / N) of them, so
            every thinning up to N keeps one state per sweep.
    """

    sweeps: int = 1000
    burn_in: Optional[int] = None
    thinning: Optional[int] = None

    def __post_init__(self):
        # plain ints: a non-integral value (2.5, "3") raises TypeError
        for name, least in (("sweeps", 1), ("burn_in", 0), ("thinning", 1)):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name,
                                   cc._power_count(value, name, least))


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
        periodic: True for the periodic matrix, translation invariant, so
            every site has the same law; False for the open matrix, whose
            last entry the domain fixes: uniform on the unit circle on the
            torus, -1 on the interval.
        interior: (beta, n) -> the shape parameters nu_j or s_j of the
            interior sites j = 1, 2, ... of an n x n matrix at the paper's
            beta: all n sites when periodic, the first n - 1 otherwise.
            The open kinds hold the high-temperature scaling, a per-site
            rate 2 beta / n.
    """

    domain: str
    periodic: bool
    interior: Callable

    @property
    def topology(self):
        """The matrix the coefficients build: "periodic" or "open"."""
        return "periodic" if self.periodic else "open"

    def mutable(self, size):
        """Sites a Metropolis sweep redraws: all but a last entry of -1."""
        fixed = not self.periodic and self.domain == "interval"
        return size - 1 if fixed else size


KINDS = {
    "al": EnsembleKind("torus", True,
                       lambda beta, n: np.full(n, 2.0 * beta + 1.0)),
    "schur": EnsembleKind("interval", True, lambda beta, n: np.full(n, beta)),
    "circular": EnsembleKind(
        "torus", False,
        lambda beta, n: 2.0 * beta / n * np.arange(n - 1, 0, -1) + 1.0),
    "jacobi": EnsembleKind(
        "interval", False, lambda beta, n: beta * (1.0 - np.arange(1, n) / n)),
}


@dataclass(frozen=True)
class EnsembleSpec:
    """Which Gibbs ensemble to draw from.

    Attributes:
        kind: one of "al", "schur", "circular", "jacobi" (a key of KINDS).
        n: matrix size, the length of the coefficient vector, for every
           kind; stored as a plain int.  Rings and interval kinds need an
           even n.
        beta: the paper's inverse temperature, positive and finite, for
           every kind; KINDS[kind].interior turns it into site laws.
        potential: optional Potential tilting the law by exp(-Tr V(E)), on
           the kind's domain.
    """

    kind: str
    n: int
    beta: float
    potential: Optional[Potential] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        cc._positive(self.beta, "beta")
        # a plain int: a non-integral n (6.5, "6") raises TypeError, and
        # the size rule below words the lower bound
        n = cc._power_count(self.n, "n", -math.inf)
        object.__setattr__(self, "n", n)
        kind = KINDS[self.kind]
        domain = getattr(self.potential, "domain", kind.domain)
        if domain != kind.domain:
            raise ValueError(f"{self.kind} ensembles take {kind.domain} "
                             f"potentials, not {domain} potentials")
        # rings pair their sites, interval spectra their eigenvalues
        even = kind.periodic or kind.domain == "interval"
        if n < 2 or (even and n % 2):
            raise ValueError(f"{self.kind} needs at least two coefficients"
                             f"{' and an even count' if even else ''}, "
                             f"got n = {n}")


@dataclass
class SampleBatch:
    """Kept states of one sampling run.

    alphas has shape (samples, size), one kept state per row, in the
    order drawn.  acceptance_rate is None for exact (potential-free)
    sampling.
    """

    alphas: np.ndarray
    kind: str
    beta: float
    acceptance_rate: Optional[float] = None

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
    """
    vals = 2.0 * rng.beta(a, b, size=size) - 1.0
    return np.clip(vals, -1.0 + 1e-15, 1.0 - 1e-15)


def _draw_sites(kind, params, rng, size):
    """`size` exact draws of whole coefficient vectors from the V = 0 site
    laws of one ensemble kind, params = kind.interior(beta, N).

    Fixed seeds reproduce batches bit for bit, so the generator calls are
    fixed too.  Torus rows take one uniform call (2, size, N) for
    _torus_sites, so a circular row's last entry is uniform on the unit
    circle.  Interval rows take one Beta call: (size, N) at a ring's one
    shape, or (N - 1, size) at per-site shapes for an open row, column
    after column, whose last entry is -1.
    """
    n = params.size if kind.periodic else params.size + 1
    if kind.domain == "torus":
        return _torus_sites(rng.uniform(size=(2, size, n)), (params - 1.0) / 2.0)
    if kind.periodic:
        return _real_interior(rng, params[0], params[0], (size, n))
    out = np.full((size, n), -1.0)
    p = params[:, None]
    out[:, :-1] = _real_interior(rng, p, p, (n - 1, size)).T
    return out


def _sweep_draws(kind, shapes, count, rng):
    """One sweep's `count` proposals from the V = 0 site laws, class after
    class and, within a class, chain after chain, and as many acceptance
    uniforms.  `shapes` holds the sites' Beta shapes: b = (nu - 1)/2 on the
    torus kinds, for all but a circular row's last site (the sweep's last
    class, which _torus_sites puts on the unit circle), and s on the
    interval kinds.  Torus kinds take one uniform call (3, count): radius,
    phase and acceptance; interval kinds one Beta call, then one uniform
    call.  Proposals do not depend on the state, so drawing them before
    the sweep leaves the chain's law exact.
    """
    if kind.domain == "torus":
        u = rng.uniform(size=(3, count))
        return _torus_sites(u[:2], shapes), u[2]
    return _real_interior(rng, shapes, shapes, count), rng.uniform(size=count)


# --------------------------------------------------------------------------
# Metropolis machinery


def _padded(alpha, periodic):
    """A chain's state ext, with ext[..., i + 2] = alpha_i, for one row or a
    stack of rows.  Open rows read alpha_-1 = -1 (the leading 1 of M) and
    zeros past their ends; a ring leaves the four pads unused."""
    ext = np.zeros(alpha.shape[:-1] + (alpha.shape[-1] + 4,), alpha.dtype)
    ext[..., 1] = 0.0 if periodic else -1.0
    ext[..., 2:-2] = alpha
    return ext


def _classes(kind, n, degree):
    """The site classes of one sweep, in order, as index windows (5, m)
    into the padded state: row k + 2 indexes alpha_(j + k) of each site j.

    Sites of a class are at least degree + 1 apart, so Tr E^degree never
    couples two of them.  A ring takes the smallest divisor s of n with
    s > degree (n itself if there is none) and the classes j = r mod s.
    An open row spaces its interior sites degree + 1 apart, and a circular
    row's unimodular last site is a class of its own.
    """
    offsets = np.arange(-2, 3)[:, None]
    if kind.periodic:
        s = next((s for s in range(degree + 1, n) if n % s == 0), n)
        return [(np.arange(r, n, s) + offsets) % n + 2 for r in range(s)]
    s = degree + 1
    classes = [np.arange(r, n - 1, s) + offsets + 2
               for r in range(min(s, n - 1))]
    if kind.domain == "torus":
        classes.append(np.array([n - 1]) + offsets + 2)
    return classes


def _class_delta_v(ext, win, prop, wc, topology):
    """delta Tr V = Re sum_k wc[k-1] delta Tr E^k, k = 1..K, of each site's
    move when it alone takes its proposal: array (M,).

    ext is one padded state (N + 4,) or a stack of them (C, N + 4), and
    win holds the windows (5, M) of the moved sites, as indices into
    ext.reshape(-1): for a stack, chain after chain, chain c's shifted by
    c (N + 4) (_run_chain).  wc holds the trace weights (K,), or one column
    (K, M) per site.

    Site j enters the row terms of Tr E = -sum_m conj(alpha_m) alpha_(m-1)
    through its two neighbours, and those of

        Tr E^2 = sum_m (conj(alpha_m) alpha_(m-1))^2
                 - 2 conj(alpha_(m+1)) alpha_(m-1) rho_m^2

    through the rows m = j - 1, j, j + 1, read from the window
    alpha_(j-2) .. alpha_(j+2); on an open row the pads of _padded make
    these sums stop at its ends.  On a ring of n <= 2 degree, band offsets
    wrap onto the diagonal and the row terms miss parts of the traces, so
    there, and for degree > 2, one batch_trace_powers call on the trial
    rows of every state, each state first, gives the increments.
    """
    degree = wc.shape[0]
    width = ext.shape[-1]
    if degree > 2 or (topology == "periodic" and width - 4 <= 2 * degree):
        rows = ext.reshape(-1, width)
        chains = rows.shape[0]
        m = prop.size // chains
        trial = np.repeat(rows[:, None, 2:-2], m + 1, axis=1)
        trial[np.arange(chains)[:, None], np.arange(1, m + 1),
              (win[2] % width - 2).reshape(chains, m)] = prop.reshape(chains, m)
        tr = cc.batch_trace_powers(trial.reshape(-1, width - 4), degree,
                                   topology).reshape(chains, m + 1, degree)
        # each chain's weights: the column of its first site
        w = wc.reshape(degree, chains, -1)[:, :, 0].T[:, :, None]
        return ((tr[:, 1:] - tr[:, :1]) @ w).reshape(-1).real
    flat = ext.reshape(-1)
    d = prop - flat[win[2]]
    dv = (wc[0] if degree else 0.0) * -(flat[win[1]] * np.conj(d)
                                        + d * np.conj(flat[win[3]]))
    if degree == 2:  # the three rows at the state, then with the proposals
        m = prop.size
        both = flat[win]
        both = np.concatenate((both, both), axis=1)
        both[2, m:] = prop
        mid = both[1:4]
        t = np.conj(mid) * both[:3]
        rho_sq = 1.0 - (mid.real ** 2 + mid.imag ** 2)
        rows = (t * t - 2.0 * np.conj(both[2:]) * both[:3] * rho_sq).sum(0)
        dv = dv + wc[1] * (rows[m:] - rows[:m])
    return dv.real


def _run_chain(kind, params, wc, burn, stride, n_keep, rng):
    """Metropolis-within-Gibbs by classes of sites that update together,
    for a stack of independent chains, one per row of trace weights wc
    (C, K), run in lockstep on one generator.

    A sweep first draws its proposals and acceptance uniforms for every
    class and chain (_sweep_draws: one generator call on the torus kinds,
    two on the interval kinds), then visits the classes of _classes in
    order.  Each class reads its slice of both, chain after chain, and
    moves the sites whose log-uniform lies below -delta Tr V
    (_class_delta_v), with no generator call.  A class's sites are evenly
    spaced, so its move is one masked copy into a basic slice of the
    states.  After `burn` sweeps a state is kept every `stride` sweeps.
    Returns the kept states (C, n_keep, N) and each chain's acceptance
    rate over all its proposals.
    """
    chains = wc.shape[0]
    ext = _padded(_draw_sites(kind, params, rng, chains), kind.periodic)
    alpha = ext[:, 2:-2]
    size = alpha.shape[1]
    shift = (size + 4) * np.arange(chains)[:, None]
    row = (params - 1.0) / 2.0 if kind.domain == "torus" else params
    classes, shapes, end = [], [], 0
    for win in _classes(kind, size, wc.shape[1]):
        at = win[2] - 2
        step = at[1] - at[0] if at.size > 1 else 1
        m = chains * at.size
        end += m
        shapes.append(np.tile(row[at[at < row.size]], chains))
        classes.append((slice(end - m, end), alpha[:, at[0]:at[-1] + 1:step],
                        (win[:, None] + shift).reshape(5, -1),
                        np.repeat(wc.T, at.size, axis=1),
                        np.zeros(m, dtype=int)))
    shapes = np.concatenate(shapes)
    topology = kind.topology
    kept = np.empty((chains, n_keep, size), dtype=alpha.dtype)
    sweep = k_idx = 0
    while k_idx < n_keep:
        props, uniforms = _sweep_draws(kind, shapes, end, rng)
        for cut, view, win, weights, accepted in classes:
            prop = props[cut]
            dv = _class_delta_v(ext, win, prop, weights, topology)
            acc = np.log(uniforms[cut]) < -dv
            np.copyto(view, prop.reshape(view.shape),
                      where=acc.reshape(view.shape))
            accepted += acc
        sweep += 1
        if sweep > burn and (sweep - burn) % stride == 0:
            kept[:, k_idx] = alpha
            k_idx += 1
    # each chain proposes a move at every mutable site once per sweep
    moves = sum(c[-1].reshape(chains, -1).sum(1) for c in classes)
    return kept, moves / (sweep * kind.mutable(size))


def _sample(spec, mcmc, rng, scales=(1.0,)):
    """One SampleBatch per scale s, drawn from the spec's law tilted by
    s V, V = spec.potential.  Scales whose potential s V is zero take exact
    draws, first and in order; all others run as one stack of chains
    (_run_chain), one chain per scale, in order.  sample_ensemble is the
    single scale 1.
    """
    rng = make_rng(rng)
    n_keep = mcmc.sweeps
    kind = KINDS[spec.kind]
    n, beta, potential = spec.n, float(spec.beta), spec.potential
    params = kind.interior(beta, n)
    tilts = [None if potential is None else potential.scaled(float(s))
             for s in scales]
    batches = [SampleBatch(alphas=_draw_sites(kind, params, rng, n_keep),
                           kind=spec.kind, beta=beta)
               if v is None or v.is_zero else None for v in tilts]
    chained = [i for i, batch in enumerate(batches) if batch is None]
    if chained:
        degree = max(tilts[i].degree for i in chained)
        wc = np.array([np.pad(tilts[i].trace_weights(),
                              (0, degree - tilts[i].degree)) for i in chained])
        burn = mcmc.burn_in if mcmc.burn_in is not None else 10 * n
        thin = mcmc.thinning if mcmc.thinning is not None else n
        alphas, rates = _run_chain(kind, params, wc, burn, -(-thin // n),
                                   n_keep, rng)
        for i, a, rate in zip(chained, alphas, rates):
            batches[i] = SampleBatch(alphas=a, kind=spec.kind, beta=beta,
                                     acceptance_rate=float(rate))
    return batches


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
    return _sample(spec, mcmc, rng)[0]


def sample_schur_gge(spec, mcmc, rng=None):
    """Sample the Schur-flow ensemble; entries are real in (-1, 1) with
    (1 + alpha_j)/2 ~ Beta(beta, beta) when the potential vanishes."""
    if spec.kind != "schur":
        raise ValueError(f"spec is for {spec.kind!r}, expected 'schur'")
    return _sample(spec, mcmc, rng)[0]


def sample_circular_beta(n, beta, potential, mcmc, rng=None):
    """Sample the circular ensemble of n x n matrices through its
    coefficient law.

    Site j (1-based) follows Theta_(2 beta (n - j)/n + 1), the paper's
    beta at the high-temperature per-site rate 2 beta / n, and the last
    entry is uniform on the unit circle, so the open CMV matrix carries the
    ensemble's eigen-angles.
    """
    spec = EnsembleSpec("circular", n, beta, potential)
    return _sample(spec, mcmc, rng)[0]


def sample_jacobi_beta(n, beta, potential, mcmc, rng=None):
    """Sample the Jacobi-type ensemble on n coefficients, n even.

    (1 + alpha_j)/2 ~ Beta(s_j, s_j) with s_j = beta (1 - j/n) for j < n,
    and alpha_n = -1 exactly; the n/2 eigenvalue pairs read as cos(theta)
    on [-1, 1].
    """
    spec = EnsembleSpec("jacobi", n, beta, potential)
    return _sample(spec, mcmc, rng)[0]


def sample_ensemble(spec, mcmc, rng=None):
    """Sample the ensemble of any kind through its own sampler; spec.n is
    the matrix size and spec.beta the paper's beta for every kind."""
    if spec.kind == "al":
        return sample_al_gge(spec, mcmc, rng)
    if spec.kind == "schur":
        return sample_schur_gge(spec, mcmc, rng)
    if spec.kind == "circular":
        return sample_circular_beta(spec.n, spec.beta, spec.potential, mcmc,
                                    rng)
    return sample_jacobi_beta(spec.n, spec.beta, spec.potential, mcmc, rng)
