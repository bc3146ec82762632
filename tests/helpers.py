"""Shared helpers for the test suite."""

import numpy as np


def random_interior_alpha(rng, n, rmax=0.9, real=False):
    """Random Verblunsky entries strictly inside the disk (or interval)."""
    if real:
        return rng.uniform(-rmax, rmax, n)
    r = rmax * np.sqrt(rng.uniform(0, 1, n))
    phi = rng.uniform(-np.pi, np.pi, n)
    return r * np.exp(1j * phi)


def reference_periodic_entries(alpha):
    """Periodic Lax matrix written entry by entry, 1-based site bookkeeping.

    Independent of the block-product construction: rows come from the
    closed-form entry table (odd rows carry conj(alpha_j) factors, even rows
    carry -alpha_j factors, with alpha_0 identified with alpha_N).
    """
    a = np.asarray(alpha)
    n = len(a)
    rho = np.sqrt(1.0 - np.abs(a) ** 2)
    E = np.zeros((n, n), complex)

    def A(j):  # alpha_j, 1-based, cyclic
        return a[(j - 1) % n]

    def R(j):
        return rho[(j - 1) % n]

    for j in range(1, n + 1, 2):  # odd site, rows j and j+1 (1-based)
        r0, r1 = j - 1, j % n  # 0-based row indices
        cols = [(j - 2) % n, (j - 1) % n, j % n, (j + 1) % n]
        E[r0, cols[0]] += np.conj(A(j)) * R(j - 1)
        E[r0, cols[1]] += -np.conj(A(j)) * A(j - 1)
        E[r0, cols[2]] += R(j) * np.conj(A(j + 1))
        E[r0, cols[3]] += R(j) * R(j + 1)
        E[r1, cols[0]] += R(j) * R(j - 1)
        E[r1, cols[1]] += -R(j) * A(j - 1)
        E[r1, cols[2]] += -A(j) * np.conj(A(j + 1))
        E[r1, cols[3]] += -A(j) * R(j + 1)
    return E


def central_difference(f, beta, delta):
    """[(beta + delta) f(beta + delta) - (beta - delta) f(beta - delta)] / (2 delta):
    the finite-difference oracle of d/dbeta [beta f(beta)], error O(delta^2)."""
    return ((beta + delta) * f(beta + delta) - (beta - delta) * f(beta - delta)) / (2 * delta)


def richardson(f, beta, delta):
    """central_difference at delta and delta/2 extrapolated to delta -> 0,
    error O(delta^4): the oracle of the exact beta-derivatives."""
    return (4 * central_difference(f, beta, delta / 2) - central_difference(f, beta, delta)) / 3


def dense_interval_kernel(m):
    """The m x m log-kernel matrix q of the interval solver, assembled entry by
    entry on the solver's grid (field = q @ p): the Toeplitz lookup of the
    hat-function log weights, one-sided hats in the two end columns, and the
    smooth kernel rest at the trapezoid weights."""
    from ggelab.equilibrium import _hat_log_weights, _interval_grid, _log_cosh

    t, _, h = _interval_grid(m)
    lc = _log_cosh(t)
    full, lh, rh = _hat_log_weights(m, h)
    pos = np.rint((t[:, None] - t[None, :]) / h).astype(int) + m - 1
    q_log = full[pos]
    q_log[:, 0] = lh[pos[:, 0]]
    q_log[:, -1] = rh[pos[:, -1]]
    dd = 0.5 * (t[:, None] - t[None, :])
    add = np.abs(dd)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = add + np.log1p(-np.exp(-2.0 * add)) - np.log(4.0 * add)
    np.fill_diagonal(ratio, -np.log(2.0))
    half_lc = 0.5 * (lc[:, None] + lc[None, :])
    r_smooth = np.log(2.0) + ratio - half_lc
    b_kernel = np.log(2.0) + _log_cosh(dd) - half_lc
    w = np.full(m, h)
    w[0] = w[-1] = h / 2
    return q_log + (r_smooth + b_kernel) * w[None, :]


def site_chain(spec, mcmc, rng):
    """Run the single-site Metropolis chain on a tilted spec, even where the
    sampler would pick the colour chain: the exact oracle of the colour chain.
    Burn-in and thinning default as in the samplers.  Returns the kept states
    and the acceptance rate."""
    from ggelab import sampling as sp

    kind = sp.KINDS[spec.kind]
    size = spec.size
    burn = 10 * size if mcmc.burn_in is None else int(mcmc.burn_in)
    thin = size if mcmc.thinning is None else int(mcmc.thinning)
    return sp._run_site_chain(kind, kind.interior(float(spec.beta), size),
                              spec.potential.trace_weights(), burn, thin,
                              int(mcmc.sweeps), sp.make_rng(rng))


def keep_upper_cyclic(A):
    """Dense E+ projection: half the diagonal plus the cyclic offsets +1 and
    +2, the rest zeroed.  Agrees with the banded e_plus only for n >= 6,
    where no two band offsets wrap onto one entry."""
    n = A.shape[0]
    idx = np.arange(n)
    out = np.zeros_like(A)
    out[idx, idx] = 0.5 * A[idx, idx]
    out[idx, (idx + 1) % n] = A[idx, (idx + 1) % n]
    out[idx, (idx + 2) % n] = A[idx, (idx + 2) % n]
    return out


def reference_rk4_step(rhs, a, h):
    """One classical RK4 step over fresh arrays: the oracle of the buffered
    stepper in ggelab.dynamics, which must match it bit for bit."""
    k1 = rhs(a)
    k2 = rhs(a + (0.5 * h) * k1)
    k3 = rhs(a + (0.5 * h) * k2)
    k4 = rhs(a + h * k3)
    return a + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def reference_degree(v):
    """Degree of a Potential by scanning its coefficient arrays per domain:
    the oracle of Potential.degree, which must match it exactly."""
    if v.domain == "torus":
        deg = 0
        if v.cos.size > 1:
            nz = np.nonzero(v.cos[1:])[0]
            if nz.size:
                deg = max(deg, int(nz[-1]) + 1)
        if v.sin.size:
            nz = np.nonzero(v.sin)[0]
            if nz.size:
                deg = max(deg, int(nz[-1]) + 1)
        return deg
    nz = np.nonzero(v.cheb[1:])[0] if v.cheb.size > 1 else np.array([], int)
    return int(nz[-1]) + 1 if nz.size else 0


def reference_trace_weights(v):
    """Weights of Tr V(E) in power traces, one coefficient at a time: the
    oracle of Potential.trace_weights, which must match it bit for bit."""
    deg = reference_degree(v)
    w = np.zeros(deg, complex)
    if v.domain == "torus":
        for k in range(1, deg + 1):
            c_k = v.cos[k] if k < v.cos.size else 0.0
            s_k = v.sin[k - 1] if k - 1 < v.sin.size else 0.0
            w[k - 1] = c_k - 1j * s_k
    else:
        for k in range(1, deg + 1):
            w[k - 1] = 0.5 * v.cheb[k]
    return w
