"""Statistical checks linking samplers, equilibrium measures and free energies.

This module closes the loop between the Monte Carlo side of the package
(sampling) and the variational side (equilibrium).  It provides:

* coupling checks for the Theta family on one coupled draw
  (sampling.sample_coupled_family): per-sample distance bounds and the
  monotone bound variable Z_h with density h w^(h-1),
* exponential-moment comparisons of Z_h against their exact Kummer series,
* free energies by thermodynamic integration over a coupling constant,
* the free-energy relation: the lattice thermodynamic integral against
  d/dbeta [beta F_C] of the circular free energy,
* a consistency check of the sampled density of states against the
  beta-derivative of the variational minimizer,
* the rate function value f(mu) - min f of a candidate density.

Ensemble kinds are named exactly as in sampling.KINDS, case included, and
every count (samples, k_max) is a plain integer: a non-integral value
raises TypeError through cmv_core._power_count.

Both beta-derivatives are exact, from one solve at beta: the
density-of-states target through equilibrium.beta_derivative_measure, the
free-energy derivative by the envelope theorem.

Free energies are normalized so that V = 0 gives exactly zero: the torus
(circular) value is the minimized functional minus beta log 2, the lattice
value is the thermodynamic integral of the mean potential trace per site.
Every check returns a report object whose ``to_dict`` gives a plain
JSON-ready dict with the keys "check", "parameters", "statistics", "pass"
and "warnings"; the command line writes it to disk.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .cmv_core import (NumericalError, _positive, _power_count,
                       batch_trace_powers)
from .equilibrium import (_check_density, beta_derivative_measure,
                          free_energy_interval, free_energy_torus,
                          minimize_interval, minimize_torus)
from .sampling import (KINDS, EnsembleSpec, McmcParams, _sample, make_rng,
                       sample_chi, sample_coupled_family, sample_ensemble)
from .spectral_measures import FourierCoeffs, distance_D, fourier_coeffs

__all__ = [
    "CheckReport",
    "FreeEnergyEstimate",
    "RelationReport",
    "check_coupling_lemma",
    "check_dos_relation",
    "check_exp_moment",
    "check_free_energy_relation",
    "estimate_free_energy",
    "rate_function_value",
]

LOG2 = math.log(2.0)

# floating slack for the almost-sure coupling bounds
COUPLING_SLACK = 1e-14

# default acceptance threshold for the density-of-states distance
DEFAULT_D_THRESHOLD = 0.02

# integrated autocorrelation time above which a series draws a warning
TAU_WARN = 10.0

# Metropolis acceptance rate below which a chain draws a warning
ACCEPTANCE_WARN = 0.2


# --------------------------------------------------------------------------
# report containers


def _plain(obj):
    """Recursively convert report payloads to JSON-friendly types."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one statistical check.

    Attributes:
        check: short name of the check.
        parameters: inputs the check was run with.
        statistics: measured quantities backing the verdict.
        passed: overall verdict; serialized under the key "pass".
        warnings: non-fatal quality notes.
    """

    check: str
    parameters: dict
    statistics: dict
    passed: bool
    warnings: tuple = ()

    def to_dict(self):
        """The report as a dict of plain JSON-ready values."""
        return {
            "check": self.check,
            "parameters": _plain(self.parameters),
            "statistics": _plain(self.statistics),
            "pass": bool(self.passed),
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class FreeEnergyEstimate:
    """Monte Carlo free energy with its propagated standard error.

    value integrates the mean potential trace per site over the coupling
    constant s in [0, 1]; grid records the quadrature nodes used, and
    method names the one estimator.
    """

    value: float
    std_error: float
    method: ClassVar[str] = "ThermoIntegration"
    grid: tuple = ()
    ensemble: str = ""
    beta: float = 0.0
    n_samples: int = 0
    warnings: tuple = ()

    def __post_init__(self):
        if not self.std_error >= 0.0:
            raise ValueError(f"std_error must be nonnegative, got {self.std_error}")

    def to_dict(self):
        return CheckReport(
            check="free_energy",
            parameters={"ensemble": self.ensemble, "beta": self.beta,
                        "grid": list(self.grid), "n_samples": self.n_samples},
            statistics={"value": self.value, "std_error": self.std_error,
                        "method": self.method},
            passed=True, warnings=self.warnings).to_dict()


@dataclass(frozen=True)
class RelationReport:
    """Result of a relation check between two routes to the same object.

    d_value is the scalar discrepancy the verdict is based on (a Fourier
    distance for density-of-states checks, an absolute difference for the
    free-energy relation); passed compares it against threshold together
    with any per-moment conditions in statistics.
    """

    check: str
    beta: float
    potential: dict | None
    d_value: float
    mc_samples: int
    solver_residual: float | None
    threshold: float
    passed: bool
    parameters: dict
    statistics: dict
    warnings: tuple = ()

    def __post_init__(self):
        if not self.d_value >= 0.0:
            raise ValueError(f"d_value must be nonnegative, got {self.d_value}")

    def to_dict(self):
        """The CheckReport dict of the relation; the top-level fields are
        defaults that entries of parameters and statistics override."""
        return CheckReport(
            check=self.check,
            parameters={"beta": self.beta, "potential": self.potential,
                        "threshold": self.threshold, **self.parameters},
            statistics={"d_value": self.d_value, "mc_samples": self.mc_samples,
                        "solver_residual": self.solver_residual,
                        **self.statistics},
            passed=self.passed, warnings=self.warnings).to_dict()


# --------------------------------------------------------------------------
# shared numerics


def _z_score(diff, se):
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return float(diff / se)


def _mean_and_error(w):
    """Mean, standard error and integrated autocorrelation time of a series.

    The error bar inflates the naive term by the integrated autocorrelation
    time, estimated with an initial positive sequence cutoff; exact draws
    give tau close to 1.
    """
    w = np.asarray(w, dtype=float)
    size = w.size
    mean = float(w.mean())
    if size < 2 or float(np.ptp(w)) == 0.0:
        return mean, 0.0, 1.0
    var = float(w.var(ddof=1))
    centered = w - mean
    c0 = float(np.mean(centered**2))
    tau = 1.0
    for lag in range(1, min(size // 2, 256)):
        r = float(np.mean(centered[:-lag] * centered[lag:])) / c0
        if r <= 0.0:
            break
        tau += 2.0 * r
    se = math.sqrt(var * tau / size)
    return mean, se, tau


def _correlation_warnings(taus):
    """A warning per (label, tau_int) pair whose series is strongly
    correlated (tau_int > TAU_WARN)."""
    return [f"correlated chain at {label} (tau = {tau:.1f}); "
            "increase thinning" for label, tau in taus if tau > TAU_WARN]


def _acceptance_warning(rate, where=""):
    """A warning, as a list of zero or one, when a chain's acceptance rate
    lies below ACCEPTANCE_WARN; exact draws (rate None) draw none."""
    if rate is None or rate >= ACCEPTANCE_WARN:
        return []
    return [f"low acceptance rate {rate:.3f}{where}; the chain may mix poorly"]


def _chain_params(mcmc):
    """mcmc, or the default McmcParams.  A standard error needs at least
    two kept states per chain; one would report an error of zero."""
    mcmc = mcmc if mcmc is not None else McmcParams()
    if int(mcmc.sweeps) < 2:
        raise ValueError("need at least two samples per chain for a "
                         "standard error")
    return mcmc


# --------------------------------------------------------------------------
# coupling checks


def check_coupling_lemma(nu, h, n_samples, rng=None):
    """Verify the almost-sure coupling bounds on coupled Theta draws.

    Makes one draw of n_samples coupled families (alpha_nu, alpha_{nu+h/2},
    alpha_{nu+h}) and asserts, up to floating slack, at both increments
    h_k that |alpha_nu - alpha_{nu+h_k}| <= Z_{h_k}, together with the same
    bound for the complementary radii sqrt(1 - |alpha|^2), and that the
    bound variables are pointwise nondecreasing from h/2 to h.  mean_z is
    the mean of Z_h.
    """
    n_samples = _power_count(n_samples, "n_samples", -math.inf)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    fam = sample_coupled_family(nu, (0.5 * h, h), make_rng(rng),
                                size=n_samples)

    def radius(a):
        return np.sqrt(np.clip(1.0 - np.abs(a) ** 2, 0.0, None))

    base = fam.alpha_nu[:, None]
    excess_alpha = np.abs(base - fam.alphas) - fam.z
    excess_rho = np.abs(radius(base) - radius(fam.alphas)) - fam.z
    v_alpha = int(np.sum(excess_alpha > COUPLING_SLACK))
    v_rho = int(np.sum(excess_rho > COUPLING_SLACK))
    v_mono = int(np.sum(np.diff(fam.z, axis=1) < -COUPLING_SLACK))

    statistics = {
        "max_excess_alpha": float(excess_alpha.max()),
        "max_excess_rho": float(excess_rho.max()),
        "violations_alpha": v_alpha,
        "violations_rho": v_rho,
        "violations_monotone": v_mono,
        "mean_z": float(fam.z[:, -1].mean()),
    }
    passed = v_alpha == 0 and v_rho == 0 and v_mono == 0
    return CheckReport(
        check="coupling_lemma",
        parameters={"nu": float(nu), "h": float(h), "n_samples": n_samples,
                    "slack": COUPLING_SLACK},
        statistics=statistics,
        passed=passed,
    )


def check_exp_moment(h_grid, n_samples, rng=None):
    """Compare E[exp(a(h) Z_h)] by Monte Carlo against its exact value.

    Z_h has density h w^(h-1) on (0, 1) and a(h) = 1 - log(h)/2.  As
    E[Z_h^k] = h/(h + k), the exact value is the Kummer series
    1F1(h; h + 1; a) = sum_k a^k h / (k! (h + k)).  Its terms are positive,
    and those past k = 0 sum to at most h e^a = e sqrt(h), so 80 terms reach
    double precision for every h in (0, 1].  The Monte Carlo side rebuilds
    Z_h from its chi-variable representation.  The report records the
    uniform bound K = max over the grid of the exact values; h = 1 is
    allowed (Z_1 is uniform).

    The z-test under-covers for h below about 1e-3.  There exp(a Z_h) is
    heavily skewed: most of E - 1 comes from rare draws near Z_h = 1, so
    the sample variance underestimates.  At h = 1e-4 with 200k samples, z
    had sd 1.56 over 40 streams.  The verdict rule is the same at every h;
    the CLI grid (0.1, 0.5, 0.9) is not affected.
    """
    n_samples = _power_count(n_samples, "n_samples", -math.inf)
    if n_samples < 2:
        raise ValueError("need at least two samples")
    h_grid = tuple(float(h) for h in np.atleast_1d(np.asarray(h_grid, dtype=float)))
    for h in h_grid:
        if not 0.0 < h <= 1.0:
            raise ValueError(f"h must lie in (0, 1], got {h}")
    rng = make_rng(rng)

    k = np.arange(80)
    rows = []
    passed = True
    for h in h_grid:
        a = 1.0 - 0.5 * math.log(h)
        # the terms a^k / k! * h / (h + k) of the series, k < 80
        exact = math.fsum(np.cumprod(np.r_[1.0, a / k[1:]]) * (h / (h + k)))
        x1 = rng.standard_normal(n_samples)
        x2 = rng.standard_normal(n_samples)
        y = sample_chi(h, rng, size=n_samples)
        z = y / np.sqrt(x1 * x1 + x2 * x2 + y * y)
        w = np.exp(a * z)
        mc = float(w.mean())
        se = float(w.std(ddof=1)) / math.sqrt(n_samples)
        zscore = _z_score(mc - exact, se)
        ok = abs(zscore) <= 3.0
        passed = passed and ok
        rows.append({"h": h, "a": a, "exact": exact, "mc": mc,
                     "std_error": se, "z": zscore, "ok": ok})

    bound = max(row["exact"] for row in rows)
    statistics = {"rows": rows, "uniform_bound": bound,
                  "max_abs_z": max(abs(r["z"]) for r in rows)}
    return CheckReport(
        check="exp_moment",
        parameters={"h_grid": list(h_grid), "n_samples": n_samples},
        statistics=statistics,
        passed=passed and math.isfinite(bound),
    )


# --------------------------------------------------------------------------
# free energies


def estimate_free_energy(ensemble, v, beta, s_grid=None, mcmc=None, rng=None,
                         n=64):
    """Normalized free energy of one ensemble by thermodynamic integration.

    Integrates d/ds of -(1/M) log E[exp(-s Tr V)] = E_{sV}[Tr V / M] over
    the coupling s in [0, 1], where M counts the spectral atoms (matrix
    size on the torus, conjugate pairs on the interval).  V = None or a
    zero potential gives exactly 0, and a constant c0 gives exactly c0,
    once EnsembleSpec has checked the kind, n, beta and the domain of V,
    and mcmc its two kept states, as for a sampled run.  The s = 0 node
    takes exact draws; the s > 0 nodes run as one stacked Metropolis
    chain, one chain per node, on the shared rng.  A node whose acceptance
    rate lies below ACCEPTANCE_WARN draws a warning.

    Args:
        ensemble: "al", "circular", "schur" or "jacobi", as in EnsembleSpec.
        v: Potential on the kind's domain, or None.
        beta: the paper's inverse temperature, positive.
        s_grid: increasing coupling nodes from 0 to 1 (default 5 nodes).
        mcmc: chain parameters per node, at least two kept states.
        rng: generator or seed, shared by all nodes.
        n: matrix size, as in EnsembleSpec.

    Returns:
        FreeEnergyEstimate with the trapezoid value and propagated error.
    """
    spec = EnsembleSpec(ensemble, n, beta, v)
    if s_grid is None:
        s_grid = np.linspace(0.0, 1.0, 5)
    s = np.asarray(s_grid, dtype=float)
    if s.ndim != 1 or s.size < 2:
        raise ValueError("s_grid needs at least the two endpoints")
    if not np.all(np.diff(s) > 0):
        raise ValueError("s_grid must be strictly increasing")
    if abs(s[0]) > 1e-12 or abs(s[-1] - 1.0) > 1e-12:
        raise ValueError("s_grid must run from 0 to 1")

    grid = tuple(float(x) for x in s)
    mcmc = _chain_params(mcmc)
    if v is None or v.is_zero:
        return FreeEnergyEstimate(0.0, 0.0, grid=grid, ensemble=spec.kind,
                                  beta=float(beta))
    if v.degree == 0:
        return FreeEnergyEstimate(v.constant, 0.0, grid=grid,
                                  ensemble=spec.kind, beta=float(beta))

    means = np.empty(s.size)
    errors = np.empty(s.size)
    warnings = []
    total = 0
    for i, (si, batch) in enumerate(zip(s, _sample(spec, mcmc, rng, s))):
        traces = batch_trace_powers(batch.alphas, v.degree,
                                    KINDS[spec.kind].topology)
        w = v.spectral_mean(traces, batch.alphas.shape[-1])
        mean, se, tau = _mean_and_error(w)
        means[i] = mean
        errors[i] = se
        total += batch.n_samples
        warnings += _correlation_warnings([(f"s = {si:g}", tau)])
        warnings += _acceptance_warning(batch.acceptance_rate,
                                        f" at s = {si:g}")

    # trapezoid weights: half-gaps at the ends, mean gaps inside
    gaps = np.diff(s)
    coeff = np.zeros(s.size)
    coeff[:-1] += 0.5 * gaps
    coeff[1:] += 0.5 * gaps
    value = float(coeff @ means)
    std_error = float(np.sqrt(np.sum((coeff * errors) ** 2)))
    return FreeEnergyEstimate(value, std_error, grid=grid, ensemble=spec.kind,
                              beta=float(beta), n_samples=total,
                              warnings=tuple(warnings))


def _circular_beta_derivative(v, beta):
    """d/dbeta [beta F_C(beta)] from one solve at beta, and its residual.

    F_C(b) is the minimized torus functional minus b log 2.  Only the
    interaction term b (sum_k |mu_k|^2/k + log 2) of the functional depends
    on b, so by the envelope theorem the derivative is the minimal value
    plus that interaction term at the minimizer, minus 2 beta log 2.
    """
    if v is None or v.is_zero:
        return 0.0, 0.0
    rho = minimize_torus(v, beta)
    fe = free_energy_torus(rho, v, beta)
    return fe.total + fe.interaction - 2.0 * beta * LOG2, float(rho.residual)


def check_free_energy_relation(v, beta, delta=None, s_grid=None, mcmc=None,
                               rng=None, n=64):
    """Test the lattice free energy against the beta-derivative identity.

    The left side is the Monte Carlo thermodynamic integral for the lattice
    ensemble at beta, with V on the torus.  The right side is d/dbeta
    [beta F_C(beta)], computed exactly from one torus solve
    (_circular_beta_derivative).  The right
    side carries only solver error, far below the Monte Carlo error, so the
    verdict allows three Monte Carlo standard errors.

    delta is ignored.  It is kept only so that existing callers that pass
    it, such as benchmarks/workloads.py (delta=0.1), keep working.
    """
    lhs = estimate_free_energy("al", v, beta, s_grid=s_grid, mcmc=mcmc,
                               rng=rng, n=n)
    rhs, residual = _circular_beta_derivative(v, beta)
    discrepancy = lhs.value - rhs
    budget = 3.0 * lhs.std_error

    statistics = {
        "mc_value": lhs.value,
        "mc_std_error": lhs.std_error,
        "variational_value": rhs,
        "discrepancy": discrepancy,
    }
    return RelationReport(
        check="free_energy_relation",
        beta=float(beta),
        potential=v.to_dict() if v is not None else None,
        d_value=abs(discrepancy),
        mc_samples=lhs.n_samples,
        solver_residual=residual,
        threshold=budget,
        passed=abs(discrepancy) <= budget,
        parameters={"n": n, "s_grid": list(lhs.grid)},
        statistics=statistics,
        warnings=lhs.warnings,
    )


# --------------------------------------------------------------------------
# density of states


# monomial moments E[x^k], k <= 4, from Chebyshev moments E[T_j(x)] at
# position j - 1 of the last axis
_MONOMIALS = (
    ("x^1", lambda t: t[..., 0]),
    ("x^2", lambda t: 0.5 * (1.0 + t[..., 1])),
    ("x^3", lambda t: 0.25 * (3.0 * t[..., 0] + t[..., 2])),
    ("x^4", lambda t: 0.125 * (3.0 + 4.0 * t[..., 1] + t[..., 3])),
)


def _moment_rows(traces_over_n, target, domain):
    """Per-sample low moments against the target's, with z-scores and the
    integrated autocorrelation time of each series: cos/sin moments on the
    torus, monomial moments on the interval."""
    tk = fourier_coeffs(target, k_max=4).c
    if domain == "torus":
        table = [(f"{part}_{k}", take(traces_over_n[:, k - 1]),
                  take(tk[k - 1]))
                 for k in range(1, 5)
                 for part, take in (("cos", np.real), ("sin", np.imag))]
    else:
        table = [(name, monomial(traces_over_n.real), monomial(tk.real))
                 for name, monomial in _MONOMIALS]
    rows = []
    for name, series, goal in table:
        mean, se, tau = _mean_and_error(series)
        z = _z_score(mean - float(goal), se)
        rows.append({"name": name, "mean": mean, "std_error": se,
                     "tau_int": tau, "target": float(goal), "z": z,
                     "ok": abs(z) <= 3.0})
    return rows


def check_dos_relation(ensemble, v, beta, n, mcmc=None, delta=None, rng=None,
                       threshold=DEFAULT_D_THRESHOLD, k_max=16):
    """Compare a sampled density of states with its variational prediction.

    Samples the lattice ensemble (al or schur), pools the empirical
    spectral measure exactly through power traces, and compares it with
    the beta-derivative of the variational minimizer on the matching
    domain.  The verdict combines the truncated Fourier distance against
    threshold with low moments (k <= 4) within three standard errors:
    cos/sin moments on the torus, monomial moments on the interval, where
    the first interval row doubles as the symmetry check for even
    potentials.  A moment series with tau_int > TAU_WARN draws a warning,
    and so does an acceptance rate below ACCEPTANCE_WARN.  threshold must
    be positive and finite, or no D could pass, and mcmc must keep at least
    two states.

    delta is ignored: the target is the exact beta-derivative.  It is kept
    only so that existing callers that pass it, such as
    benchmarks/workloads.py (delta=0.05), keep working.
    """
    spec = EnsembleSpec(ensemble, n, beta, v)
    if not KINDS[spec.kind].periodic:
        raise ValueError("density-of-states checks cover al and schur runs")
    domain = KINDS[spec.kind].domain
    k_max = _power_count(k_max, "k_max", -math.inf)
    if k_max < 4:
        raise ValueError("k_max must be at least 4 to cover the moment table")
    threshold = float(threshold)
    _positive(threshold, "threshold")

    mcmc = _chain_params(mcmc)
    batch = sample_ensemble(spec, mcmc, make_rng(rng))
    target = beta_derivative_measure(v, beta, domain=domain)

    traces = batch_trace_powers(batch.alphas, k_max) / spec.n
    pooled = traces.mean(axis=0)
    if domain == "torus":
        empirical = FourierCoeffs(pooled)
    else:
        empirical = FourierCoeffs(pooled.real.astype(complex))
    rows = _moment_rows(traces, target, domain)
    d_value = distance_D(empirical, target, k_max=k_max)

    warnings = _correlation_warnings([(f"moment {row['name']}", row["tau_int"])
                                      for row in rows])
    warnings += _acceptance_warning(batch.acceptance_rate)
    moments_ok = all(row["ok"] for row in rows)
    passed = d_value <= threshold and moments_ok

    statistics = {
        "d_value": d_value,
        "moments": rows,
        "moments_ok": moments_ok,
        "acceptance_rate": batch.acceptance_rate,
    }
    return RelationReport(
        check="dos_relation",
        beta=float(beta),
        potential=v.to_dict() if v is not None else None,
        d_value=d_value,
        mc_samples=batch.n_samples,
        solver_residual=target.residual,
        threshold=threshold,
        passed=passed,
        parameters={"ensemble": spec.kind, "n": spec.n, "k_max": k_max,
                    "sweeps": mcmc.sweeps},
        statistics=statistics,
        warnings=tuple(warnings),
    )


# --------------------------------------------------------------------------
# rate function


def rate_function_value(mu, v, beta, params=None):
    """Rate function f(mu) - min f of a candidate density, nonnegative.

    Args:
        mu: GridDensity; its domain, the torus or the interval, selects the
            functional.
        v: Potential on the same domain, or None.
        beta: inverse temperature, positive.
        params: optional solver parameters for the minimization.

    Returns:
        The gap f(mu) - f(minimizer), floored at zero; values below a
        small negative guard raise NumericalError.
    """
    _check_density(mu)
    _positive(beta, "beta")

    if mu.domain == "torus":
        value = free_energy_torus(mu, v, beta).total
        best = free_energy_torus(minimize_torus(v, beta, params=params),
                                 v, beta).total
    else:
        value = free_energy_interval(mu, v, beta).total
        best = free_energy_interval(minimize_interval(v, beta, params=params),
                                    v, beta).total
    gap = float(value - best)
    if gap < -1e-6:
        raise NumericalError(
            f"rate function came out negative ({gap:.3e}); "
            "the candidate beats the minimizer beyond grid accuracy",
            residual=gap)
    return max(gap, 0.0)
