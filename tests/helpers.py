"""Shared helpers for the test suite."""

import ast
import io
import math
import sys
import tokenize

import numpy as np

from ggelab import cmv_core as cc
from ggelab import sampling as sp
from ggelab.equilibrium import GridDensity, _grid
from ggelab.spectral_measures import EmpiricalMeasure

# floating slack of check_bv_lip_bound's two inequalities
_BOUND_SLACK = 1e-12


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


def block_factors(m):
    """(L, M) of a CmvMatrix built from coefficients, block by block: the
    block Xi(alpha_j) on rows j, j + 1, in L for even j and in M for odd j.
    The ring wraps row n onto row 0; the open matrix adds the block of
    alpha_-1 = -1 and drops rows outside the matrix, as open_diagonals
    does.  The oracle of the closed-form band: m.dense() must equal L @ M."""
    n, ring = m.n, m.topology == "periodic"
    a, rho = cc._extended(m.alpha, m.topology)
    pad = 0 if ring else 1
    f = np.zeros((2, n + 2 * pad, n + 2 * pad), m.band.dtype)
    for j in range(-pad, n):
        rows = np.array([j, j + 1])
        rows = rows % n if ring else rows + pad
        f[j % 2][np.ix_(rows, rows)] = [[np.conj(a[j + 2]), rho[j + 2]],
                                        [rho[j + 2], -a[j + 2]]]
    return f[:, pad:n + pad, pad:n + pad]


class TestFunction:
    """Dictionary entry: a test function with hand-computed norms.

    The BV norm is the total variation over one full winding of the circle
    (so cos(k theta) has bv = 4k); lip is the global Lipschitz constant.
    """

    def __init__(self, name, fn, bv, lip):
        self.name = name
        self.fn = fn
        self.bv = float(bv)
        self.lip = float(lip)

    def __call__(self, theta):
        return self.fn(theta)


DEFAULT_TEST_FUNCTIONS = (
    TestFunction("cos", np.cos, bv=4.0, lip=1.0),
    TestFunction("sin", np.sin, bv=4.0, lip=1.0),
    TestFunction("cos2", lambda th: np.cos(2 * th), bv=8.0, lip=2.0),
)


class BoundCheckReport:
    """Outcome of check_bv_lip_bound: per-function deviations and bounds."""

    def __init__(self, rank, entrywise_sum, rows):
        self.rank = rank
        self.entrywise_sum = entrywise_sum
        self.rows = rows
        self.all_pass = all(r["bv_ok"] and r["lip_ok"] for r in rows)


def check_bv_lip_bound(a, b):
    """Check |int f dmu(A) - int f dmu(B)| against the BV-rank and
    Lipschitz-entrywise bounds: the paper's lemma behind the distance D.

    For each function of DEFAULT_TEST_FUNCTIONS the deviation must satisfy
    both

        |.| <= bv(f) * rank(A - B) / N       and
        |.| <= lip(f) * (1/N) sum_ij |(A - B)_ij|,

    with rank counted as singular values above 1e-9 * ||A - B||, each up
    to a floating slack of 1e-12.
    """
    da = a.dense()
    db = b.dense()
    if da.shape != db.shape:
        raise ValueError(f"dimension mismatch: {da.shape} vs {db.shape}")
    n = da.shape[0]
    diff = da - db
    sv = np.linalg.svd(diff, compute_uv=False)
    if sv.size and sv[0] > 0:
        rank = int(np.sum(sv > 1e-9 * sv[0]))
    else:
        rank = 0
    entry = float(np.abs(diff).sum()) / n
    mu_a = EmpiricalMeasure(cc.eigen_angles(a))
    mu_b = EmpiricalMeasure(cc.eigen_angles(b))
    rows = []
    for f in DEFAULT_TEST_FUNCTIONS:
        dev = abs(mu_a.integrate(f) - mu_b.integrate(f))
        bv_bound = f.bv * rank / n
        lip_bound = f.lip * entry
        rows.append({
            "name": f.name,
            "deviation": dev,
            "bv_bound": bv_bound,
            "lip_bound": lip_bound,
            "bv_ok": dev <= bv_bound + _BOUND_SLACK,
            "lip_ok": dev <= lip_bound + _BOUND_SLACK,
        })
    return BoundCheckReport(rank, entry, rows)


def einsum_next_power(sb, prev, prev2, t, cur):
    """The band product of cmv_core._next_power as one einsum for every
    dtype: the kernel's own code before complex bands moved to np.matmul,
    with its module's helpers named through cc.  The oracle that each
    complex power the kernel builds has the same bytes as the einsum's."""
    _, width, n = sb.shape
    h = width // 2
    w0 = (prev.shape[2] - n) // 2
    w = w0 + h
    shifted = cc._strided(prev, prev.shape[1] // 2 - w0, w0 - h,
                          (width, 2 * w + 1, n), ((-1, 1), (1, 0), (0, 1)))
    core = cc._power_rows(cur, n)
    np.einsum("rdi,rdfi->rfi", sb, shifted, out=core[..., w:w + n])
    if t and prev2 is None:
        core[:, w, w:w + n] -= t
    elif t:
        w2 = w0 - h
        core[:, 2 * h:2 * h + 2 * w2 + 1, w:w + n] -= \
            t * cc._power_rows(prev2, n)[..., w2:w2 + n]
    cc._wrap(core, n)


def unitarity_residual(m):
    """Largest entry of |E* E - I| of a built CMV matrix."""
    E = m.dense()
    return float(np.abs(E.conj().T @ E - np.eye(m.n)).max())


def uniform_torus(grid_size=1024):
    """The uniform GridDensity on the torus."""
    return GridDensity("torus", np.full(grid_size, 1.0 / (2 * np.pi)))


def interval_arcsine(grid_size=1024):
    """The arcsine law 1/(pi sqrt(1-x^2)) as a GridDensity: P(t) =
    sech(t)/pi, no edge mass."""
    t, w = _grid("interval", grid_size)
    p = 1.0 / (np.pi * np.cosh(t))
    return GridDensity("interval", p / float(w @ p))


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


def _into_open_disk(z, bound=1.0 - 1e-15):
    """Pull boundary-grazing draws back to the largest usable modulus.

    For nu barely above 1 the law puts visible mass within one ulp of the
    unit circle, where rounding can push |z| to 1 or slightly past it;
    downstream factorizations need |z| < 1 strictly.
    """
    r = np.abs(z)
    hot = r >= bound
    if hot.any():
        z = np.where(hot, z * (bound / np.maximum(r, bound)), z)
    return z


def sample_theta(nu, rng, size=None):
    """Draw from the rotation-invariant disk law Theta_nu, nu > 1, with
    density ~ (1 - |z|^2)^((nu-3)/2), through sampling._torus_sites, the
    path of every ensemble draw: one uniform call (2, size), |z|^2 ~
    Beta(1, (nu-1)/2) by its exact inverse CDF and a uniform phase.  The
    second moment is E|z|^2 = 2/(nu+1), and nu = 3 is the uniform law on
    the disk.  One draw without a size."""
    sp._check_nu(nu)
    count = 1 if size is None else size
    z = sp._torus_sites(rng.uniform(size=(2, count)),
                        np.full(count, (nu - 1.0) / 2.0))
    return z[0] if size is None else z


def theta_ratio_draw(nu, rng, size=None):
    """Theta_nu by its chi-ratio construction (X1 + i X2)/sqrt(X1^2 + X2^2
    + Y^2), Y a chi variable with nu - 1 degrees of freedom: the oracle of
    the inverse-CDF draw of sample_theta, and the construction that
    sampling.sample_coupled_family builds on."""
    x1 = rng.standard_normal(size)
    x2 = rng.standard_normal(size)
    y = sp.sample_chi(nu - 1.0, rng, size)
    return _into_open_disk((x1 + 1j * x2) / np.sqrt(x1**2 + x2**2 + y**2))


def site_law_draw(kind, params, rng, j, rows=1):
    """`rows` draws at site j from the V = 0 law of one ensemble kind,
    params = kind.interior(beta, N), with numpy's own samplers: Theta_nu as
    |z|^2 ~ rng.beta(1, (nu - 1)/2) with a uniform phase (independent of
    the sampler's inverse CDF), uniform on the unit circle at a circular
    row's last site, and (1 + alpha)/2 ~ Beta(s, s) on the interval kinds."""
    if not kind.periodic and j == params.size:
        return np.exp(2j * np.pi * rng.uniform(size=rows))
    p = params[0] if kind.periodic else params[j]
    if kind.domain == "interval":
        return sp._real_interior(rng, p, p, rows)
    r = np.sqrt(rng.beta(1.0, (p - 1.0) / 2.0, size=rows))
    return _into_open_disk(r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi,
                                                       size=rows)))


def site_chain(spec, mcmc, rng):
    """Run the single-site Metropolis chain on a tilted spec, recomputing
    every power trace of the state per update: the exact oracle of the
    sampler's class-parallel chain.  Every draw comes from site_law_draw,
    one site at a time: a ring's initial state in one draw of N values at
    its one law, an open row's site after site.  Sites are visited one at a
    time in order; each draws its proposal, then one uniform.  Burn-in
    counts sweeps of the mutable sites and thinning counts site updates,
    with the samplers' defaults (10 N and N).  Returns the kept states and
    the acceptance rate."""
    kind = sp.KINDS[spec.kind]
    size, topology = spec.n, kind.topology
    burn = 10 * size if mcmc.burn_in is None else int(mcmc.burn_in)
    thin = size if mcmc.thinning is None else int(mcmc.thinning)
    params = kind.interior(float(spec.beta), size)
    wc = spec.potential.trace_weights()
    rng = sp.make_rng(rng)
    mutable = kind.mutable(size)
    if kind.periodic:
        state = site_law_draw(kind, params, rng, 0, size)
    else:
        state = np.full(size, -1.0, complex if kind.domain == "torus" else float)
        for j in range(mutable):
            state[j] = site_law_draw(kind, params, rng, j)[0]
    traces = cc.batch_trace_powers(state, wc.size, topology)[0]
    kept = np.empty((int(mcmc.sweeps), size), dtype=state.dtype)
    burn_updates = burn * mutable
    accepted = updates = k_idx = 0
    while k_idx < kept.shape[0]:
        j = updates % mutable
        trial = state.copy()
        trial[j] = site_law_draw(kind, params, rng, j)[0]
        new = cc.batch_trace_powers(trial, wc.size, topology)[0]
        u = rng.uniform()
        if u == 0.0 or math.log(u) < -float(np.real(wc @ (new - traces))):
            state, traces = trial, new
            accepted += 1
        updates += 1
        if updates > burn_updates and (updates - burn_updates) % thin == 0:
            kept[k_idx] = state
            k_idx += 1
    return kept, accepted / updates


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


def code_lines(source):
    """Lines of Python source that hold code: lines with a token other than
    a comment or a line break, outside the docstrings of the module, its
    classes and its functions.  A multi-line token, such as a string that
    is not a docstring, counts every line it spans.  The package's code
    size is the sum over its modules (code_line_table).
    """
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    blank = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in blank:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def code_line_table(paths):
    """One line per file, its code_lines count and path, then the total:

        PYTHONPATH=src python tests/helpers.py src/ggelab/*.py
    """
    counts = [(code_lines(open(path).read()), path) for path in paths]
    rows = [f"{n:6d} {path}" for n, path in counts]
    return "\n".join(rows + [f"{sum(n for n, _ in counts):6d} total"])


if __name__ == "__main__":
    print(code_line_table(sys.argv[1:]))
