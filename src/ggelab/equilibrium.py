"""Free-energy functionals on the torus and interval, their minimizers, and beta-derivatives.

Torus functional (angle densities rho on [-pi, pi)):

    f_beta^V(mu) = beta sum_{k>=1} |mu_k|^2 / k + beta log 2
                   + int V dmu + int log rho dmu + log 2pi.

The double-log kernel satisfies log|e^{i theta} - e^{i phi}| = log 2
- sum_{k>=1} cos(k(theta-phi))/k, so -beta IInt log|e^{i th}-e^{i ph}| equals
beta sum |mu_k|^2/k - beta log 2; the displayed beta log 2 restores the
normalization making the V = 0 minimal value exactly beta log 2.  Both log 2
contributions are carried explicitly in free_energy_torus.

Interval functional (probability densities on [-1, 1]):

    q_beta^V(mu) = int (V + ln(1+x) + ln(1-x)) dmu
                   - beta IInt ln|x-y| dmu dmu + int ln(dmu/dx) dmu.

Derivation note for the interaction coefficient: the ensemble density
prod_{i<j} |x_i - x_j|^{2 beta / n} gives interaction exponent
(2 beta/n) sum_{i<j} ln|x_i-x_j| = (beta/n) sum_{i != j} ~ n * beta IInt, so at
large-deviation speed n the rate functional carries -beta IInt and the first
variation yields the Euler-Lagrange fixed point

    rho_x(x) ∝ (1-x^2)^{-1} exp(-V(x) + 2 beta U[rho](x)),
    U[rho](x) = int ln|x-y| rho(y) dy,

i.e. a 4 beta L factor in angle form.  (A -2 beta IInt normalization would
instead produce the minimizer family at doubled beta; the V = 0 minimizers of
the normalization used here reproduce the independently computed density of
states of the corresponding Gibbs chains across beta.)

Interval minimizers develop boundary layers at x = +-1: writing
t = ln tan(theta/2), x = -tanh t, the transported density P(t) =
sigma(theta) sin(theta) is smooth and slowly varying with universal power
tails P(t) ~ 2 beta / (2 beta |t| + c)^2.  The solver therefore works on a
uniform t-grid truncated at +-T and carries the two tails analytically: the
layer tail-mass function G(t) obeys G' = -2 beta G^2, so the mass beyond an
end node with density P_end is exactly G = sqrt(P_end / (2 beta)) under the
matched profile.  Interval densities are stored in these coordinates together
with their two analytic edge masses.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .cmv_core import NumericalError, _positive, _power_count
from .potentials import Potential
from .spectral_measures import FourierCoeffs

__all__ = [
    "ConvergenceError",
    "EndpointSingularityError",
    "SolverParams",
    "FreeEnergyBreakdown",
    "GridDensity",
    "free_energy_torus",
    "minimize_torus",
    "free_energy_interval",
    "minimize_interval",
    "beta_derivative_measure",
]


class ConvergenceError(NumericalError):
    """Fixed-point iteration failed to reach tolerance; carries the last residual."""


class EndpointSingularityError(NumericalError):
    """Interval iterate too singular at an endpoint for the tail model.

    The ``exponent`` attribute reports the measured local exponent
    d ln sigma / d ln theta of the angle density at the offending edge.
    """

    def __init__(self, message, exponent=None):
        super().__init__(message)
        self.exponent = exponent


# step factor of the damped fixed-point maps, before each Fourier mode is
# damped further; the acceleration builds on the damped map, so a different
# factor changes the iteration count, never the fixed point
_DAMPING = 0.5


@dataclass(frozen=True)
class SolverParams:
    """Stopping rule, budget and grid of both minimizers and of
    beta_derivative_measure: stop once the damped step is below
    `tolerance` (positive and finite), give up after `max_iterations`,
    solve on `grid_size` nodes.  The two counts are stored as plain ints:
    a non-integral value (64.0, "64") raises TypeError.  The damping is
    the fixed _DAMPING."""

    tolerance: float = 1e-10
    max_iterations: int = 20000
    grid_size: int = 1024

    def __post_init__(self):
        _positive(self.tolerance, "tolerance")
        for name, least in (("max_iterations", 1), ("grid_size", 16)):
            object.__setattr__(self, name,
                               _power_count(getattr(self, name), name, least))


@dataclass(frozen=True)
class FreeEnergyBreakdown:
    """Additive pieces of a free-energy value; total is always their sum."""

    interaction: float
    potential: float
    entropy: float
    total: float

    @classmethod
    def assemble(cls, interaction, potential, entropy):
        return cls(float(interaction), float(potential), float(entropy),
                   float(interaction) + float(potential) + float(entropy))


def _potential_callable(v, domain):
    if v is None:
        return lambda arr: np.zeros_like(arr)
    if not isinstance(v, Potential):
        raise TypeError(f"potential must be None or a Potential, got {type(v).__name__}")
    if v.domain != domain:
        raise ValueError(f"potential domain {v.domain!r} does not match {domain!r}")
    return v


def _check_density(rho):
    """Raise ValueError unless rho is a GridDensity (naming the type of
    anything else) with no negative value, which only a signed one holds."""
    if not isinstance(rho, GridDensity):
        raise ValueError("the density must be a GridDensity on the torus or "
                         f"the interval, got {type(rho).__name__}")
    if np.any(rho.values < 0):
        raise ValueError("negative density")


def _log_cosh(t):
    a = np.abs(t)
    return a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0)


class GridDensity:
    """Probability density sampled on the fixed m-point grid of its domain.

    The values fix everything else: ``nodes`` and ``weights`` are those of
    _grid(domain, m).  Torus: values rho(theta_i) on the equispaced midpoint
    grid of [-pi, pi), weights 2 pi / m.  Interval: values P(t_i) =
    sigma(theta) sin(theta) on the uniform grid in t = ln tan(theta/2) over
    [-T, T] with trapezoid weights, plus the two analytic edge masses (near
    x = +1 and x = -1); a torus density has none.  ``signed`` marks
    beta-derivative measures, which may carry small negative values.
    """

    def __init__(self, domain, values, edge_masses=(0.0, 0.0), *, residual=None,
                 iterations=None, signed=False):
        if domain not in ("torus", "interval"):
            raise ValueError(f"unknown domain {domain!r}")
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ValueError(f"density values must be 1-d with at least 2 entries, "
                             f"got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        self.edge_masses = (float(edge_masses[0]), float(edge_masses[1]))
        if not signed:  # one slack below zero for the values and both edges
            for what, low in (("density value", values.min()),
                              ("edge mass at x = +1", self.edge_masses[0]),
                              ("edge mass at x = -1", self.edge_masses[1])):
                if low < -1e-12:
                    raise ValueError(f"negative {what} {low}")
            values = np.clip(values, 0.0, None)
        self.domain = domain
        self.nodes, self.weights = _grid(domain, values.size)
        self.values = values
        if domain == "torus" and self.edge_masses != (0.0, 0.0):
            # the circle has no edges: integrate and fourier would drop them
            raise ValueError(f"a torus density has no edge masses, "
                             f"got {self.edge_masses}")
        self.residual = residual
        self.iterations = iterations
        self.signed = signed
        m = self.mass()
        if not abs(m - 1.0) < 1e-10:
            raise ValueError(f"density mass {m} is not 1")

    # -- geometry --------------------------------------------------------

    @property
    def grid_size(self):
        return self.nodes.size

    @property
    def theta(self):
        if self.domain == "torus":
            return self.nodes
        return 2.0 * np.arctan(np.exp(self.nodes))

    @property
    def x(self):
        if self.domain != "interval":
            raise AttributeError("x is defined for interval densities only")
        return -np.tanh(self.nodes)

    # -- measure interface ----------------------------------------------

    def mass(self):
        return float(self.weights @ self.values) + self.edge_masses[0] + self.edge_masses[1]

    def integrate(self, f):
        """Quadrature of f against the density (f takes theta on the torus, x on the interval)."""
        if self.domain == "torus":
            return float(self.weights @ (self.values * f(self.nodes)))
        gm, gp = self.edge_masses
        body = float(self.weights @ (self.values * f(self.x)))
        return body + gm * float(f(1.0)) + gp * float(f(-1.0))

    def fourier(self, k_max):
        """FourierCoeffs of the measure; interval densities use the symmetrized lift."""
        k = np.arange(1, _power_count(k_max, "k_max", 1) + 1)
        if self.domain == "torus":
            m = self.grid_size
            h = 2 * np.pi / m
            c = h * _torus_phase(k, h) * (np.fft.ifft(self.values) * m)[k % m]
        else:
            gm, gp = self.edge_masses
            th = self.theta
            c = np.cos(k[:, None] * th[None, :]) @ (self.weights * self.values)
            c = c + gm + gp * np.cos(k * np.pi)
            c = c.astype(complex)
        tol = 1e-3 if self.signed else 1e-9
        worst = float(np.max(np.abs(c)))
        if not worst <= 1.0 + tol:
            raise ValueError(f"|mu_k| = {worst} exceeds 1")
        return FourierCoeffs(np.clip(np.abs(c), None, 1.0) * np.exp(1j * np.angle(c)))


# -- accelerated fixed point ---------------------------------------------


# past iterates the accelerated update combines
_ANDERSON_DEPTH = 6
# largest sup-norm shift, in ln(density), that mixing may add to the plain
# update; far from the fixed point the least-squares fit can be nearly
# singular and would otherwise extrapolate the iterate off the grid's range
_ANDERSON_REACH = 1.0


def _fixed_point(step_map, x0, params):
    """Anderson-accelerated iteration of a damped fixed-point map.

    ``step_map(x)`` returns the plain damped update g(x) and the sup norm of
    its damped step.  The iteration stops once that step at the current iterate
    is below ``params.tolerance`` and returns g(x) with the iteration count.
    Otherwise the next iterate is the combination of the last
    _ANDERSON_DEPTH + 1 updates that minimizes the linearized residual
    g(x) - x in least squares (Anderson mixing; Walker & Ni, SIAM J. Numer.
    Anal. 49, 2011), its shift from g(x) capped at _ANDERSON_REACH.  A mixed
    iterate that the map rejects with EndpointSingularityError, or whose
    update is not finite, is dropped: the history is cleared and the plain
    update taken instead.  At a plain iterate the error propagates, and a
    non-finite update raises ConvergenceError.
    """
    x, mixed = x0, False
    g_prev = f_prev = None
    d_g, d_f = [], []
    delta = np.inf
    for it in range(params.max_iterations):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                g, step = step_map(x)
            usable = bool(np.all(np.isfinite(g)))
        except EndpointSingularityError:
            if not mixed:
                raise
            usable = False
        if not usable:
            if not mixed:
                raise ConvergenceError(f"non-finite update at iteration {it + 1}",
                                       residual=step)
            x, mixed, f_prev = g_prev, False, None
            d_g.clear()
            d_f.clear()
            continue
        delta = step
        if delta < params.tolerance:
            return g, it + 1
        f = g - x
        if f_prev is not None:
            d_g.append(g - g_prev)
            d_f.append(f - f_prev)
            del d_g[:-_ANDERSON_DEPTH], d_f[:-_ANDERSON_DEPTH]
        g_prev, f_prev = g, f
        mixed = bool(d_f)
        x = g
        if mixed:
            gamma = np.linalg.lstsq(np.array(d_f).T, f, rcond=None)[0]
            shift = gamma @ np.array(d_g)
            reach = np.max(np.abs(shift))
            if reach > _ANDERSON_REACH:
                shift *= _ANDERSON_REACH / reach
            x = g - shift
    raise ConvergenceError(
        f"no convergence in {params.max_iterations} iterations "
        f"(last update {delta:.3e})", residual=delta)


# -- torus solver --------------------------------------------------------


def _torus_grid(m):
    """The midpoint grid theta_i = -pi + (i + 1/2) h of [-pi, pi), and h = 2 pi / m."""
    h = 2 * np.pi / m
    return -np.pi + (np.arange(m) + 0.5) * h, h


def _torus_phase(k, h):
    """e^{ik theta_0}, with which the midpoint grid gives
    sum_i f_i e^{ik theta_i} = phase_k (m ifft(f))_(k mod m)."""
    return np.exp(1j * k * (-np.pi + h / 2))


def _torus_L(values, h, phase, kk):
    """Log-potential field L[rho](theta_i) = -sum_k Re(mu_k e^{-ik theta})/k via FFT."""
    m = values.size
    muh = h * phase * (np.fft.ifft(values) * m)
    c = np.zeros(m, complex)
    c[1:kk.size + 1] = (muh[1:kk.size + 1] / kk) * np.conj(phase[1:kk.size + 1])
    return -np.real(np.fft.fft(c))


def _centered_sup(res):
    """Sup norm of a residual up to its free additive constant."""
    return float(np.max(np.abs(res - res.mean())))


def _torus_problem(v, beta, params):
    """The torus fixed point at grid size m: V on the grid, the spacing h,
    the field L[rho] and the damped step of a log-space difference.

    Updates are damped per Fourier mode, gamma_k = _DAMPING / (1 + 2 beta / k),
    which keeps the iteration contractive for all beta (a mode-independent
    damping corresponds to rho_{n+1} = normalize(rho_n^{1-gamma}
    target^gamma) and destabilizes low modes once 2 beta > 1).  The circle
    has no edge masses, so the field ignores any.
    """
    m = params.grid_size
    theta, h = _torus_grid(m)
    k = np.arange(m)
    kfold = np.abs(((k + m // 2) % m) - m // 2).astype(float)
    damp = _DAMPING / (1.0 + 2.0 * beta / np.maximum(kfold, 1.0))
    phase = _torus_phase(k, h)
    kk = np.arange(1, m // 2)

    def field(values, *edges):
        return _torus_L(values, h, phase, kk)

    def damped(diff):
        return np.real(np.fft.fft(np.fft.ifft(diff - diff.mean()) * damp))

    return _potential_callable(v, "torus")(theta), h, field, damped


def minimize_torus(v, beta, params=None):
    """Minimize f_beta^V by an accelerated damped log-space fixed point.

    The Euler-Lagrange condition is rho ∝ exp(-V + 2 beta L[rho]) with
    L[rho](theta) = -sum_k Re(mu_k e^{-ik theta})/k computed by FFT, each
    mode damped as in _torus_problem.  _fixed_point accelerates this damped
    map and stops on its step.  Returns the density with Euler-Lagrange
    residual and iteration count attached.
    """
    _positive(beta, "beta")
    params = params or SolverParams()
    vv, h, field, damped = _torus_problem(v, beta, params)

    def normalize(lnr):
        return lnr - np.log(np.sum(np.exp(lnr)) * h)

    def step_map(lnr):
        step = damped(-vv + 2 * beta * field(np.exp(lnr)) - lnr)
        return normalize(lnr + step), float(np.max(np.abs(step)))

    lnr = np.full(vv.size, -np.log(2 * np.pi))
    lnr, iterations = _fixed_point(step_map, lnr, params)
    rho = np.exp(lnr)
    residual = _centered_sup(lnr + vv - 2 * beta * field(rho))
    return GridDensity("torus", rho, residual=residual, iterations=iterations)


def free_energy_torus(rho, v, beta):
    """Evaluate f_beta^V(mu) for a torus grid density.

    interaction = beta sum_{k>=1} |mu_k|^2/k + beta log 2 (the kernel identity
    -beta IInt log|e^{i th} - e^{i ph}| = beta sum |mu_k|^2/k - beta log 2 plus
    the displayed +beta log 2 of the functional; the two log 2 terms are what
    make the V = 0 minimal value equal beta log 2).  entropy uses 0 log 0 = 0.
    """
    _check_density(rho)
    _positive(beta, "beta")
    if rho.domain != "torus":
        raise ValueError("free_energy_torus expects a torus density")
    vfun = _potential_callable(v, "torus")
    kmax = rho.grid_size // 2 - 1
    c = rho.fourier(kmax).c
    k = np.arange(1, kmax + 1)
    interaction = beta * float(np.sum(np.abs(c) ** 2 / k)) + beta * np.log(2.0)
    potential = rho.integrate(vfun)
    vals = rho.values
    logs = np.where(vals > 0, np.log(np.maximum(vals, 1e-300)), 0.0)
    entropy = float(rho.weights @ (vals * logs)) + np.log(2 * np.pi)
    return FreeEnergyBreakdown.assemble(interaction, potential, entropy)


# -- interval solver -----------------------------------------------------


_INTERVAL_CACHE = {}
# half-width T of the interval's t-grid, whatever its size
_T_SPAN = 36.0


def _interval_grid(m):
    """Uniform t-grid with endpoint nodes at +-T: more nodes refine it."""
    t = np.linspace(-_T_SPAN, _T_SPAN, m)
    return t, _T_SPAN, t[1] - t[0]


def _grid(domain, m):
    """Nodes and quadrature weights of the m-point grid of a domain: the
    midpoint rule on _torus_grid, the trapezoid rule on _interval_grid."""
    if domain == "torus":
        theta, h = _torus_grid(m)
        return theta, np.full(m, h)
    t, _, h = _interval_grid(m)
    w = np.full(m, h)
    w[0] = w[-1] = h / 2
    return t, w


def _hat_log_weights(m, h):
    """Product-integration of ln|t_i - s| against hat functions on the uniform grid."""
    def stack(d):
        with np.errstate(divide="ignore", invalid="ignore"):
            f0 = np.where(d == 0, 0.0, d * (np.log(np.abs(np.where(d == 0, 1.0, d))) - 1.0))
            f1 = np.where(d == 0, 0.0, 0.5 * d * d * np.log(np.abs(np.where(d == 0, 1.0, d))) - 0.25 * d * d)
        return f0, f1

    d = np.arange(-(m - 1), m) * h
    f0m, f1m = stack(d - h)
    f00, f10 = stack(d)
    f0p, f1p = stack(d + h)
    # left half of the hat: support [t_j, t_j + h], integrand (1 - v/h) ln|d - v|
    lh = (1 - d / h) * (f00 - f0m) + (f10 - f1m) / h
    # right half: support [t_j - h, t_j], integrand (1 + v/h) ln|d - v|
    rh = (1 + d / h) * (f0p - f00) - (f1p - f10) / h
    return lh + rh, lh, rh


def _interval_operator(m):
    """Cached O(m) quadrature data for the interval problem at grid size m.

    The log field of a grid density is q @ p with kernel
    ln|x(t) - x(s)| + ln 2 = ln|t - s| + ln(sinh|t - s| / |t - s|) + ln 2
    - lc(t) - lc(s), lc = ln cosh: hat-function product integration of
    ln|t - s| plus the smooth rest at the trapezoid weights w.  Both lag
    parts depend only on i - j, so q is one symmetric Toeplitz matrix
    (interior weight h, applied by FFT of its circulant embedding; Chan & Ng,
    SIAM Review 38, 1996), corrected in its two end columns for the
    one-sided hats and half weights, plus the two rank-1 terms in lc.
    """
    if m in _INTERVAL_CACHE:
        return _INTERVAL_CACHE[m]
    t, t_span, h = _interval_grid(m)
    w = _grid("interval", m)[1]
    lc = _log_cosh(t)
    full, lh, rh = _hat_log_weights(m, h)
    # half of |u|, u = t_i - t_j at the lags i - j = -(m - 1) .. m - 1; the
    # smooth kernel 2 ln 2 + ratio + lc(u / 2) equals ln 2 + ln(sinh|u| / |u|)
    half =0.5 * np.abs(np.arange(-(m - 1), m) * h)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = half + np.log1p(-np.exp(-2.0 * half)) - np.log(4.0 * half)
    ratio[m - 1] = -np.log(2.0)
    smooth = 2 * np.log(2.0) + ratio + _log_cosh(half)
    column = full + h * smooth
    # circulant embedding of length 2m: lags 0 .. m - 1, one zero, lags -(m - 1) .. -1
    kernel_hat = np.fft.rfft(np.concatenate([column[m - 1:], [0.0], column[:m - 1]]))
    # column 0 sees lags 0 .. m - 1, column m - 1 lags -(m - 1) .. 0
    ends = np.stack([lh[m - 1:] - full[m - 1:] - 0.5 * h * smooth[m - 1:],
                     rh[:m] - full[:m] - 0.5 * h * smooth[:m]])
    k0 = 0.5 * np.log(2.0) + 0.5 * t - 0.5 * lc
    kpi = 0.5 * np.log(2.0) - 0.5 * t - 0.5 * lc
    data = dict(t=t, t_span=t_span, h=h, w=w, lc=lc, wlc=w * lc, kernel_hat=kernel_hat,
                ends=ends, k0=k0, kpi=kpi)
    _INTERVAL_CACHE[m] = data
    return data


def _log_field(op, p):
    """q @ p for the log kernel of _interval_operator, in O(m log m)."""
    m = p.size
    field = np.fft.irfft(op["kernel_hat"] * np.fft.rfft(p, 2 * m), 2 * m)[:m]
    field += p[0] * op["ends"][0] + p[-1] * op["ends"][1]
    return field - op["lc"] * (op["w"] @ p) - op["wlc"] @ p


def _charges(p, beta):
    return np.sqrt(max(p[0], 0.0) / (2 * beta)), np.sqrt(max(p[-1], 0.0) / (2 * beta))


def _interval_normalize(ln_p, w, beta):
    """Scale exp(ln_p) so grid mass plus both sqrt-scaling edge masses is 1."""
    p = np.exp(ln_p)
    body = float(w @ p)
    tail = np.sqrt(p[0] / (2 * beta)) + np.sqrt(p[-1] / (2 * beta))
    s = 1.0 / (body + tail)
    for _ in range(80):
        f = s * body + np.sqrt(s) * tail - 1.0
        if abs(f) < 1e-15:
            break
        s -= f / (body + 0.5 * tail / np.sqrt(s))
    return ln_p + np.log(s)


def _edge_exponent(ln_p, h, end):
    """Local exponent d ln sigma / d ln theta at an edge of the t-grid."""
    if end == 0:
        slope = (ln_p[1] - ln_p[0]) / h
        return slope - 1.0
    slope = (ln_p[-1] - ln_p[-2]) / h
    return -slope - 1.0


def _interval_problem(v, beta, params):
    """The interval fixed point at grid size m: V on the t-grid, the cached
    operator of _interval_operator, the field of a grid density P with edge
    masses (gm, gp), and the damped step of a log-space difference."""
    op = _interval_operator(params.grid_size)
    t, h = op["t"], op["h"]
    freq = np.fft.rfftfreq(t.size, d=h) * 2 * np.pi
    damp = _DAMPING / (1.0 + np.pi * beta / np.maximum(freq, freq[1]))

    def field(p, gm, gp):
        return _log_field(op, p) + 2 * gm * op["k0"] + 2 * gp * op["kpi"]

    def damped(diff):
        return np.fft.irfft(np.fft.rfft(diff - diff.mean()) * damp, t.size)

    return _potential_callable(v, "interval")(-np.tanh(t)), op, field, damped


def minimize_interval(v, beta, params=None):
    """Minimize q_beta^V via the Euler-Lagrange fixed point in t-coordinates.

    The iterate is ln P = -V(x(t)) + 2 beta W[P] + const with
    W(theta) = int (ln|2 sin((theta-phi)/2)| + ln|2 sin((theta+phi)/2)|) sigma(phi) dphi
    (U[rho](x) = -ln 2 + W(theta)), evaluated by hat-function product
    integration of the log kernel on the t-grid plus the point fields of the
    two analytic edge masses.  The damped map is accelerated and stopped by
    _fixed_point, as in minimize_torus.  Raises EndpointSingularityError when
    an edge mass grows beyond what the tail model resolves (beta too small).

    The grid spans t in [-T, T], T = 36 (_interval_grid), so a larger
    grid_size refines it and the O(spacing^2) quadrature bias shrinks.
    """
    _positive(beta, "beta")
    params = params or SolverParams()
    vv, op, field, damped = _interval_problem(v, beta, params)
    t, h, w = op["t"], op["h"], op["w"]

    def step_map(ln_p):
        p = np.exp(ln_p)
        gm, gp = _charges(p, beta)
        if max(gm, gp) > 0.25:
            end = 0 if gm >= gp else 1
            expo = _edge_exponent(ln_p, h, end)
            raise EndpointSingularityError(
                f"edge mass {max(gm, gp):.3f} exceeds the resolvable tail "
                f"(beta = {beta} too small); local angle-density exponent {expo:.3f}",
                exponent=expo)
        step = damped(-vv + 2 * beta * field(p, gm, gp) - ln_p)
        return _interval_normalize(ln_p + step, w, beta), float(np.max(np.abs(step)))

    ln_p = _interval_normalize(-np.log(np.pi * np.cosh(t)), w, beta)
    ln_p, iterations = _fixed_point(step_map, ln_p, params)
    p = np.exp(ln_p)
    gm, gp = _charges(p, beta)
    residual = _centered_sup(ln_p + vv - 2 * beta * field(p, gm, gp))
    return GridDensity("interval", p, (gm, gp), residual=residual, iterations=iterations)


def free_energy_interval(rho, v, beta):
    """Evaluate q_beta^V(mu) for an interval grid density.

    potential = int V dmu; interaction = -beta IInt ln|x-y| dmu dmu;
    entropy = int (ln rho_x + ln(1-x^2)) dmu, i.e. the confining logs folded
    into the relative entropy with reference dx/(1-x^2), which keeps the
    term finite on minimizers (the separate pieces diverge at the edges).
    In t-coordinates that combination is just int P ln P dt.  Edge masses
    enter through the matched tail profile: mass G per edge with analytic
    entropy G (ln 2 beta - 2 ln Y - 2), Y = 1/G, and pair self-energy
    G^2 ln 2 - (2/beta)(1/Y - (Y - 2 beta T)/(2 Y^2)).
    """
    _check_density(rho)
    _positive(beta, "beta")
    if rho.domain != "interval":
        raise ValueError("free_energy_interval expects an interval density")
    op = _interval_operator(rho.grid_size)
    w, p = rho.weights, rho.values
    gm, gp = rho.edge_masses
    potential = rho.integrate(_potential_callable(v, "interval"))
    # IInt ln|x-y| mu mu = grid x grid + 2 grid x charges + charge terms
    wfield = _log_field(op, p)
    s_gg = float(w @ (p * (-np.log(2.0) + wfield)))
    s_gc = float(w @ (p * (gm * (-np.log(2.0) + 2 * op["k0"]) + gp * (-np.log(2.0) + 2 * op["kpi"]))))
    s_cc = 2 * gm * gp * np.log(2.0) + _tail_self_energy(gm, beta, op["t_span"]) \
        + _tail_self_energy(gp, beta, op["t_span"])
    interaction = -beta * (s_gg + 2 * s_gc + s_cc)
    logs = np.where(p > 0, np.log(np.maximum(p, 1e-300)), 0.0)
    entropy = float(w @ (p * logs)) + _tail_entropy(gm, beta) + _tail_entropy(gp, beta)
    return FreeEnergyBreakdown.assemble(interaction, potential, entropy)


def _tail_self_energy(g, beta, t_span):
    if g <= 0:
        return 0.0
    y = 1.0 / g
    return g * g * np.log(2.0) - (2.0 / beta) * (1.0 / y - (y - 2 * beta * t_span) / (2 * y * y))


def _tail_entropy(g, beta):
    if g <= 0:
        return 0.0
    y = 1.0 / g
    return g * (np.log(2 * beta) - 2 * np.log(y) - 2.0)


# -- beta derivative -----------------------------------------------------


def beta_derivative_measure(v, beta, params=None, domain=None):
    """nu = d/dbeta (beta mu_beta^V), exactly, from one solve at beta.

    Differentiating the discrete Euler-Lagrange fixed point
    ln rho = -V + 2 beta field[rho] + c in beta gives the linear fixed point

        nu = rho (1 + 2 beta field[nu] + c'),   mass(nu) = 1,

    where mass(nu) = 1 because d/dbeta (beta * 1) = 1.  On the torus the
    field is L.  On the interval it also carries the point fields of the
    edge masses: beta G = sqrt(beta P_end / 2) gives nu's edge masses
    G_nu = nu_end G / (2 P_end).  The linear problem is iterated in
    psi = nu / rho - 1 with the minimizer's own damped step and
    _fixed_point, which is the minimizer's map linearized at rho.
    ``residual`` covers both solves and ``iterations`` counts both.

    The domain is ``domain`` when given, else the potential's, else the
    torus; a potential on the other domain raises ValueError.
    """
    _positive(beta, "beta")
    if domain is None:
        domain = v.domain if isinstance(v, Potential) else "torus"
    if domain not in ("torus", "interval"):
        raise ValueError(f"unknown domain {domain!r}")
    params = params or SolverParams()
    # looked up by name at call time, so that wrappers of the minimizers see the solve
    if domain == "torus":
        rho = minimize_torus(v, beta, params)
        _, _, field, damped = _torus_problem(v, beta, params)
    else:
        rho = minimize_interval(v, beta, params)
        _, _, field, damped = _interval_problem(v, beta, params)
    p, w = rho.values, rho.weights
    half = 0.5 * np.array(rho.edge_masses)

    def measure(psi):
        return p * (1 + psi), half * (1 + psi[[0, -1]])

    def step_map(psi):
        nu, edges = measure(psi)
        step = damped(2 * beta * field(nu, *edges) - psi)
        nu, edges = measure(psi + step)
        shift = (1 - w @ nu - edges.sum()) / (w @ p + half.sum())
        return psi + step + shift, float(np.max(np.abs(step)))

    psi, iterations = _fixed_point(step_map, np.zeros(p.size), params)
    nu, edges = measure(psi)
    worst = float(nu.min())
    if worst < -1e-6:
        warnings.warn(f"beta-derivative density dips to {worst:.3e}; it is kept signed")
    residual = _centered_sup(psi - 2 * beta * field(nu, *edges))
    return GridDensity(domain, nu, edges, signed=True,
                       residual=max(rho.residual, residual),
                       iterations=rho.iterations + iterations)
