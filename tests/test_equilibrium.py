"""Free-energy evaluation, minimization, and the beta-derivative measure.

Closed-form anchors used below, for the V = 0 interval family (Verblunsky
exponent beta): mu_2(beta) = 1/(2 beta + 1), mu_4(1/2) = 7/16,
mu_4(1) = 13/45, mu_4(2) = 31/175, and for the derivative family
nu_k = d/dbeta (beta mu_k): nu_2(1) = 1/9, nu_4(1) = 67/675.
"""


import numpy as np
import pytest
from scipy.integrate import quad

from ggelab.equilibrium import (
    ConvergenceError,
    EndpointSingularityError,
    FreeEnergyBreakdown,
    GridDensity,
    SolverParams,
    _fixed_point,
    _interval_grid,
    _torus_grid,
    _interval_operator,
    _log_field,
    beta_derivative_measure,
    free_energy_interval,
    free_energy_torus,
    minimize_interval,
    minimize_torus,
)
from ggelab import equilibrium
from ggelab.potentials import Potential
from ggelab.spectral_measures import EmpiricalMeasure, distance_D

from helpers import (dense_interval_kernel, interval_arcsine, richardson,
                     uniform_torus)

LOG2 = np.log(2.0)


@pytest.fixture(scope="module")
def interval_flat():
    """V = 0 interval minimizers at the three anchor betas."""
    return {beta: minimize_interval(None, beta) for beta in (0.5, 1.0, 2.0)}


@pytest.fixture(scope="module")
def torus_tilted():
    return minimize_torus(Potential("torus", cos=[0.0, 0.5]), 1.0)


class TestSolverParams:
    def test_rejects_bad_controls(self):
        with pytest.raises(ValueError):
            SolverParams(tolerance=0.0)
        with pytest.raises(ValueError):
            SolverParams(max_iterations=0)
        with pytest.raises(ValueError):
            SolverParams(grid_size=8)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
    def test_rejects_non_finite_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            SolverParams(tolerance=tolerance)

    def test_defaults(self):
        p = SolverParams()
        assert p.tolerance == 1e-10 and p.max_iterations == 20000
        assert p.grid_size == 1024

    @pytest.mark.parametrize("name, value", [
        ("grid_size", 64.0), ("grid_size", 100.5), ("grid_size", "64"),
        ("max_iterations", 100.0), ("max_iterations", 2.5)])
    def test_non_integral_counts_are_rejected(self, name, value):
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            SolverParams(**{name: value})

    @pytest.mark.parametrize("name, least", [("grid_size", 16),
                                             ("max_iterations", 1)])
    def test_count_bounds_keep_their_message(self, name, least):
        with pytest.raises(ValueError,
                           match=f"^{name} must be >= {least}, got {least - 1}$"):
            SolverParams(**{name: least - 1})

    def test_counts_are_stored_as_plain_ints(self):
        p = SolverParams(grid_size=np.int64(64), max_iterations=np.int32(50))
        assert type(p.grid_size) is int and type(p.max_iterations) is int


class TestBreakdown:
    def test_total_is_sum_of_parts(self):
        fe = FreeEnergyBreakdown.assemble(0.3, -1.2, 0.75)
        assert fe.total == 0.3 + (-1.2) + 0.75


class TestGridDensity:
    def test_uniform_torus_basics(self):
        g = uniform_torus(512)
        assert abs(g.mass() - 1.0) < 1e-12
        assert abs(g.integrate(lambda th: np.ones_like(th)) - 1.0) < 1e-14
        assert np.max(np.abs(g.fourier(16).c)) < 1e-13

    @pytest.mark.parametrize("m", [64, 1024])
    def test_torus_fourier_matches_dense_sum(self, torus_tilted, m):
        # FFT on the midpoint grid against sum_i w_i rho_i e^{ik theta_i},
        # at the k_max of free_energy_torus and past m, where k aliases
        th = -np.pi + (np.arange(m) + 0.5) * (2 * np.pi / m)
        g = (torus_tilted if m == 1024 else
             GridDensity("torus", (1 + 0.6 * np.cos(th) + 0.3 * np.sin(3 * th))
                         / (2 * np.pi)))
        for k_max in (m // 2 - 1, 2 * m + 3):
            k = np.arange(1, k_max + 1)
            dense = np.exp(1j * k[:, None] * g.nodes[None, :]) @ (g.weights * g.values)
            assert np.abs(g.fourier(k_max).c - dense).max() < 1e-12

    @pytest.mark.parametrize("m", [16, 64, 1024])
    def test_nodes_and_weights_come_from_the_grid_size(self, m):
        theta, h = _torus_grid(m)
        g = GridDensity("torus", np.full(m, 1 / (2 * np.pi)))
        assert np.array_equal(g.nodes, theta)
        assert np.array_equal(g.weights, np.full(m, h))
        t, _, h = _interval_grid(m)
        trapezoid = np.full(m, h)
        trapezoid[0] = trapezoid[-1] = h / 2
        p = 1 / np.cosh(t)
        g = GridDensity("interval", p / (trapezoid @ p))
        assert np.array_equal(g.nodes, t)
        assert np.array_equal(g.weights, trapezoid)

    @pytest.mark.parametrize("domain", ["torus", "interval"])
    def test_values_need_at_least_two_nodes(self, domain):
        for values in (1.0, [1.0], np.full((4, 4), 1.0)):
            with pytest.raises(ValueError, match="at least 2 entries"):
                GridDensity(domain, values)

    def test_negative_values_rejected(self):
        vals = np.full(64, 1 / (2 * np.pi))
        vals[3] = -0.01
        with pytest.raises(ValueError):
            GridDensity("torus", vals)

    @pytest.mark.parametrize("edges, edge", [((-0.5, 0.0), r"\+1"),
                                             ((0.0, -0.5), "-1")],
                             ids=["plus_one", "minus_one"])
    def test_negative_edge_masses_rejected(self, edges, edge):
        body = interval_arcsine(256).values * 1.5
        with pytest.raises(ValueError,
                           match=rf"negative edge mass at x = {edge} -0\.5"):
            GridDensity("interval", body, edges)
        # a signed density may carry them
        GridDensity("interval", body, edges, signed=True)

    @pytest.mark.parametrize("side", [0, 1], ids=["plus_one", "minus_one"])
    def test_edge_mass_within_the_slack_is_clipped(self, side):
        # an unsigned density clips its edge masses as it clips its values:
        # -5e-13 reads 0.0 and the free energy evaluates, -2e-12 raises
        g = 0.1
        body = interval_arcsine(256).values * (1.0 - g)
        edges = [g, g]
        edges[side] = -5e-13
        rho = GridDensity("interval", body, tuple(edges))
        assert rho.edge_masses[side] == 0.0
        assert repr(rho.edge_masses[side]) == "0.0"
        v = Potential("interval", cheb=[0.0, 0.5])
        assert np.isfinite(free_energy_interval(rho, v, 1.0).total)
        edges[side] = -2e-12
        with pytest.raises(ValueError, match="negative edge mass"):
            GridDensity("interval", body, tuple(edges))

    def test_unnormalized_mass_rejected(self):
        with pytest.raises(ValueError):
            GridDensity("torus", np.full(64, 1.0))

    def test_torus_edge_masses_rejected(self):
        # the mass check would count them, integrate and fourier would not
        with pytest.raises(ValueError, match="edge masses"):
            GridDensity("torus", np.full(64, 0.8 / (2 * np.pi)), (0.1, 0.1))

    def test_arcsine_lift_has_vanishing_coefficients(self):
        ar = interval_arcsine(1024)
        assert abs(ar.mass() - 1.0) < 1e-12
        assert np.max(np.abs(ar.fourier(8).c)) < 1e-12

    def test_interval_moment_matches_chebyshev_identity(self, interval_flat):
        r = interval_flat[1.0]
        # cos 2 theta = 2 x^2 - 1 pointwise, so mu_2 = 2 E[x^2] - 1 exactly
        second = r.integrate(lambda x: x ** 2)
        assert abs(r.fourier(2)[2].real - (2 * second - 1)) < 1e-13

    @staticmethod
    def _interval_with_edges(signed=False):
        # an arcsine body carrying 0.7 of the mass, 0.1 and 0.2 at the edges
        body = interval_arcsine(256).values * 0.7
        if signed:
            body = body + 1e-3 * np.sin(np.arange(body.size))
            body *= 0.7 / float(interval_arcsine(256).weights
                                @ body)
        return GridDensity("interval", body, (0.1, 0.2), signed=signed)

    @pytest.mark.parametrize("domain", ["torus", "interval"])
    def test_fourier_follows_values_changed_in_place(self, domain):
        if domain == "torus":
            th = _torus_grid(256)[0]
            g = GridDensity("torus", (1 + 0.5 * np.cos(th)) / (2 * np.pi))
        else:
            g = self._interval_with_edges()
        first = g.fourier(4).c
        g.values *= 0.5
        g.edge_masses = (0.05, 0.1)
        assert np.abs(first).max() > 0.1
        np.testing.assert_allclose(g.fourier(4).c, 0.5 * first, rtol=1e-14)

    def test_solve_records_run_metadata(self, interval_flat):
        r = interval_flat[1.0]
        assert r.domain == "interval"
        assert r.grid_size == 1024
        assert r.residual < 1e-6
        assert r.iterations > 0


class TestTorusMinimizer:
    def test_plain_function_potential_is_rejected(self):
        with pytest.raises(TypeError, match="Potential"):
            minimize_torus(lambda th: 0.5 * np.cos(th), 1.0)

    def test_flat_potential_gives_exact_uniform(self):
        for beta in (0.5, 1.0, 4.0):
            r = minimize_torus(None, beta)
            assert np.max(np.abs(r.values - 1 / (2 * np.pi))) <= 1e-10
            assert r.residual <= 1e-9

    def test_flat_potential_value_is_beta_log_two(self):
        for beta in (0.5, 1.0, 4.0):
            r = minimize_torus(None, beta)
            fe = free_energy_torus(r, None, beta)
            assert abs(fe.total - beta * LOG2) < 1e-8, f"beta={beta}: {fe.total}"

    def test_weak_coupling_limit_is_gibbs(self):
        v = Potential("torus", cos=[0.0, 1.0])
        r = minimize_torus(v, 1e-4)
        th = r.nodes
        target = np.exp(-v(th))
        target /= target.sum() * (2 * np.pi / th.size)
        assert np.max(np.abs(r.values - target)) < 1e-3

    def test_linear_response_of_first_coefficient(self):
        eta = 0.01
        for beta in (0.5, 1.0, 4.0):
            r = minimize_torus(Potential("torus", cos=[0.0, eta]), beta)
            mu1 = r.fourier(1)[1].real
            assert abs(mu1 + eta / (2 * (1 + beta))) < 1e-6, f"beta={beta}: mu1={mu1}"

    def test_rotation_covariance(self):
        phi = 0.83
        a, b = 0.4, 0.3
        v = Potential("torus", cos=[0.0, a], sin=[b])
        # V(theta - phi) expanded back into the cos/sin basis
        vrot = Potential("torus",
                         cos=[0.0, a * np.cos(phi) - b * np.sin(phi)],
                         sin=[a * np.sin(phi) + b * np.cos(phi)])
        c0 = minimize_torus(v, 1.5).fourier(6).c
        c1 = minimize_torus(vrot, 1.5).fourier(6).c
        k = np.arange(1, 7)
        assert np.max(np.abs(c1 - c0 * np.exp(1j * k * phi))) < 1e-8

    def test_grid_refinement_stability(self):
        v = Potential("torus", cos=[0.0, 0.4], sin=[0.3])
        c0 = minimize_torus(v, 1.5, SolverParams(grid_size=512)).fourier(8).c
        c1 = minimize_torus(v, 1.5, SolverParams(grid_size=1024)).fourier(8).c
        assert np.max(np.abs(c1 - c0)) < 1e-6

    def test_minimizer_beats_perturbations(self, torus_tilted):
        v = Potential("torus", cos=[0.0, 0.5])
        fe0 = free_energy_torus(torus_tilted, v, 1.0)
        rng = np.random.default_rng(8)
        th = torus_tilted.nodes
        for _ in range(3):
            amp, k = rng.uniform(0.02, 0.1), rng.integers(1, 6)
            vals = torus_tilted.values * np.exp(amp * np.cos(k * th + rng.uniform(0, np.pi)))
            vals /= vals.sum() * (2 * np.pi / th.size)
            fe = free_energy_torus(GridDensity("torus", vals), v, 1.0)
            assert fe.total > fe0.total, "perturbed density must not beat the minimizer"

    def test_nonconvergence_reports_residual(self):
        with pytest.raises(ConvergenceError) as exc:
            minimize_torus(Potential("torus", cos=[0.0, 1.0]), 2.0,
                           SolverParams(max_iterations=2))
        assert exc.value.residual > 0

    def test_domain_and_beta_validation(self):
        with pytest.raises(ValueError):
            minimize_torus(Potential("interval", cheb=[0.0, 1.0]), 1.0)
        with pytest.raises(ValueError):
            minimize_torus(None, 0.0)


class TestTorusFreeEnergy:
    def test_cardioid_interaction_excess_is_quarter(self):
        m = 1024
        h = 2 * np.pi / m
        th = -np.pi + (np.arange(m) + 0.5) * h
        g = GridDensity("torus", (1 + np.cos(th)) / (2 * np.pi))
        fe = free_energy_torus(g, None, 1.0)
        assert abs(fe.interaction - LOG2 - 0.25) < 1e-12

    def test_interaction_vanishes_with_beta(self):
        g = uniform_torus(256)
        fe = free_energy_torus(g, None, 1e-8)
        assert abs(fe.interaction) < 1e-7

    def test_zero_density_regions_contribute_no_entropy(self):
        m = 512
        h = 2 * np.pi / m
        th = -np.pi + (np.arange(m) + 0.5) * h
        vals = np.where(np.abs(th) < np.pi / 2, 1 / np.pi, 0.0)
        vals /= vals.sum() * h
        fe = free_energy_torus(GridDensity("torus", vals), None, 1.0)
        assert np.isfinite(fe.total)
        # entropy of uniform on half the circle: log 2
        assert abs(fe.entropy - LOG2) < 1e-10

    def test_signed_density_rejected(self):
        nd = beta_derivative_measure(Potential("torus", cos=[0.0, 1.5]), 1.0,
                                     params=SolverParams(grid_size=256))
        if np.any(nd.values < 0):
            with pytest.raises(ValueError):
                free_energy_torus(nd, None, 1.0)


class TestIntervalMinimizer:
    def test_second_coefficient_matches_family(self, interval_flat):
        for beta, exact in ((0.5, 0.5), (1.0, 1 / 3), (2.0, 0.2)):
            got = interval_flat[beta].fourier(2)[2].real
            assert abs(got - exact) < 3e-4, f"beta={beta}: mu_2={got} vs {exact}"

    def test_fourth_coefficient_matches_family(self, interval_flat):
        for beta, exact in ((0.5, 7 / 16), (1.0, 13 / 45), (2.0, 31 / 175)):
            got = interval_flat[beta].fourier(4)[4].real
            assert abs(got - exact) < 5e-5, f"beta={beta}: mu_4={got} vs {exact}"

    def test_mass_and_residual(self, interval_flat):
        for r in interval_flat.values():
            assert abs(r.mass() - 1.0) < 1e-12
            assert r.residual <= 1e-6

    def test_flat_potential_density_is_even(self, interval_flat):
        r = interval_flat[1.0]
        assert abs(r.integrate(lambda x: x)) < 1e-12
        assert np.max(np.abs(r.values - r.values[::-1])) < 1e-12

    def test_even_potential_keeps_symmetry(self):
        r = minimize_interval(Potential("interval", cheb=[0.0, 0.0, 0.7]), 1.0)
        assert np.max(np.abs(r.values - r.values[::-1])) < 1e-8
        assert abs(r.integrate(lambda x: x)) < 1e-10

    def test_linear_potential_tilts_the_mean(self):
        r = minimize_interval(Potential("interval", cheb=[0.0, 1.0]), 1.0)
        mean = r.integrate(lambda x: x)
        assert mean < -0.05
        assert abs(r.fourier(1)[1].real - mean) < 1e-13

    def test_grid_refinement_consistency(self):
        a = minimize_interval(None, 1.0, SolverParams(grid_size=512))
        b = minimize_interval(None, 1.0, SolverParams(grid_size=1024))
        assert abs(a.fourier(2)[2].real - b.fourier(2)[2].real) < 5e-4

    def test_too_singular_edge_raises_diagnostic(self):
        with pytest.raises(EndpointSingularityError) as exc:
            minimize_interval(None, 0.01)
        assert -1.2 < exc.value.exponent < -0.7

    def test_both_edges_report_the_same_exponent(self, monkeypatch):
        # V = +5 T_1 piles mass at x = -1, the last t-node (end 1), and
        # V = -5 T_1 at x = +1, the first (end 0): mirror images
        real = equilibrium._edge_exponent
        ends = []
        monkeypatch.setattr(equilibrium, "_edge_exponent",
                            lambda ln_p, h, end: ends.append(end)
                            or real(ln_p, h, end))
        exponents, edges = [], []
        for c in (5.0, -5.0):
            ends.clear()
            with pytest.raises(EndpointSingularityError) as exc:
                minimize_interval(Potential("interval", cheb=[0.0, c]), 0.03)
            exponents.append(exc.value.exponent)
            edges.append(set(ends))
        assert edges == [{1}, {0}]
        assert np.isfinite(exponents).all()
        assert abs(exponents[0] - exponents[1]) < 1e-12
        assert abs(exponents[0] + 0.949) < 5e-4

    def test_small_beta_still_converges(self):
        r = minimize_interval(None, 0.05)
        assert abs(r.fourier(2)[2].real - 1 / 1.1) < 2e-3
        assert r.edge_masses[0] < 0.25

    def test_nonconvergence_reports_residual(self):
        with pytest.raises(ConvergenceError) as exc:
            minimize_interval(None, 1.0, SolverParams(max_iterations=3))
        assert exc.value.residual > 0


def _hat_log_integral(t, i, j):
    """int ln|t_i - s| hat_j(s) ds by adaptive quadrature, split at the
    nodes so the log singularity sits on an end of each piece."""
    h = t[1] - t[0]
    total = 0.0
    if j > 0:
        total += quad(lambda s: np.log(abs(t[i] - s)) * (1 - (t[j] - s) / h),
                      t[j] - h, t[j], epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    if j < t.size - 1:
        total += quad(lambda s: np.log(abs(t[i] - s)) * (1 - (s - t[j]) / h),
                      t[j], t[j] + h, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    return total


class TestIntervalKernel:
    M = 64

    @pytest.fixture(scope="class")
    def columns(self):
        op = _interval_operator(self.M)
        return np.stack([_log_field(op, e) for e in np.eye(self.M)], axis=1)

    @pytest.mark.parametrize("i, j", [(0, 0), (5, 0), (63, 0), (0, 63), (40, 63), (63, 63),
                                      (10, 10), (10, 11), (30, 12), (2, 50)])
    def test_columns_match_quadrature(self, columns, i, j):
        # the solver's kernel ln|x(t) - x(s)| + ln 2 splits into ln|t - s|,
        # integrated exactly against the hat at t_j, and a smooth rest
        # ln 2 + ln(sinh|u| / |u|) - ln cosh t - ln cosh s, u = t - s, taken at
        # the node with the trapezoid weight
        t, _, h = _interval_grid(self.M)
        u = abs(t[i] - t[j])
        sinhc = np.sinh(u) / u if u > 0 else 1.0
        weight = h / 2 if j in (0, self.M - 1) else h
        smooth = np.log(2.0) + np.log(sinhc) - np.log(np.cosh(t[i])) - np.log(np.cosh(t[j]))
        expected = _hat_log_integral(t, i, j) + weight * smooth
        assert abs(columns[i, j] - expected) <= 1e-10 * max(1.0, abs(expected))

    @pytest.mark.parametrize("m", [64, 256])
    def test_fft_apply_matches_dense_assembly(self, m):
        q = dense_interval_kernel(m)
        op = _interval_operator(m)
        cols = np.stack([_log_field(op, e) for e in np.eye(m)], axis=1)
        assert np.max(np.abs(cols - q)) <= 1e-12 * np.max(np.abs(q))
        p = np.random.default_rng(m).uniform(0.0, 1.0, m)
        assert np.max(np.abs(_log_field(op, p) - q @ p)) <= 1e-12 * np.max(np.abs(q @ p))

    def test_cache_holds_no_square_array(self):
        op = _interval_operator(1024)
        assert all(np.ndim(val) < 2 or np.shape(val)[-1] != np.shape(val)[-2]
                   for val in op.values())
        assert max(np.size(val) for val in op.values()) <= 2 * 1024


# iterations and Euler-Lagrange residual of the plain damped iteration that
# preceded the accelerated one, at the default SolverParams apart from the
# grid size
PLAIN_DAMPED = [
    ("interval", None, 0.5, 1024, 492, 3.70e-9),
    ("interval", None, 1.0, 1024, 913, 7.50e-9),
    ("interval", None, 2.0, 1024, 1722, 1.48e-8),
    ("interval", None, 3.0, 1024, 2503, 2.23e-8),
    ("interval", None, 0.05, 1024, 96, 3.88e-10),
    ("interval", {"cheb": [0.0, 0.0, 0.7]}, 1.0, 1024, 923, 7.44e-9),
    ("interval", {"cheb": [0.0, 1.0]}, 1.0, 1024, 915, 7.41e-9),
    ("torus", {"cos": [0.0, 0.5]}, 1.0, 1024, 55, 2.55e-10),
    ("torus", {"cos": [0.0, 1.0]}, 1e-4, 1024, 34, 5.86e-11),
    ("torus", {"cos": [0.0, 1.0]}, 1e-3, 1024, 34, 6.12e-11),
    ("torus", {"cos": [0.0, 0.01]}, 0.5, 1024, 38, 1.77e-10),
    ("torus", {"cos": [0.0, 0.01]}, 1.0, 1024, 43, 2.70e-10),
    ("torus", {"cos": [0.0, 0.01]}, 4.0, 1024, 49, 1.20e-9),
    ("torus", {"cos": [0.0, 0.4], "sin": [0.3]}, 1.5, 1024, 58, 4.13e-10),
    ("torus", {"cos": [0.0, 1.0]}, 2.0, 1024, 67, 4.47e-10),
    # starts far from the fixed point, where uncapped mixing extrapolated the
    # iterate into non-finite updates or a false EndpointSingularityError
    ("interval", {"cheb": [0.0, 1.0]}, 0.2, 2048, 435, 2.95e-9),
    ("interval", {"cheb": [0.0, 2.0, -1.0, 0.5]}, 0.2, 256, 233, 1.16e-9),
    ("interval", {"cheb": [0.0, 0.0, 3.0]}, 1.0, 256, 879, 6.81e-9),
]


class TestAcceleratedFixedPoint:
    @pytest.mark.parametrize("domain, coeffs, beta, grid_size, iterations, residual",
                             PLAIN_DAMPED)
    def test_no_more_iterations_and_no_larger_residual(self, domain, coeffs, beta, grid_size,
                                                       iterations, residual):
        v = Potential(domain, **coeffs) if coeffs else None
        solver = minimize_torus if domain == "torus" else minimize_interval
        r = solver(v, beta, SolverParams(grid_size=grid_size))
        assert r.iterations <= iterations
        assert r.residual <= residual

    def test_interval_iterations_cut(self):
        assert minimize_interval(None, 3.0).iterations < 400

    def test_flat_torus_stops_at_first_step(self):
        assert minimize_torus(None, 1.0).iterations == 1

    @staticmethod
    def _linear_step_map(calls, reject_call=None):
        """Damped map of x = A x + b with slow modes, logging every input; it
        rejects the input of call number reject_call."""
        a = np.diag([0.95, 0.9, 0.5, -0.3])
        b = np.array([1.0, -2.0, 0.5, 0.25])

        def plain(x):
            return x + 0.5 * (a @ x + b - x)

        def step_map(x):
            calls.append(x.copy())
            if len(calls) == reject_call:
                raise EndpointSingularityError("rejected", exponent=-1.0)
            g = plain(x)
            return g, float(np.max(np.abs(g - x)))
        return step_map, plain, np.linalg.solve(np.eye(4) - a, b)

    def test_reaches_the_fixed_point(self):
        calls = []
        step_map, _, exact = self._linear_step_map(calls)
        x, it = _fixed_point(step_map, np.zeros(4), SolverParams(tolerance=1e-12))
        assert np.max(np.abs(x - exact)) < 1e-10
        assert it == len(calls) < 30

    def test_rejected_mixed_iterate_falls_back_to_plain_step(self):
        calls = []
        # calls 1 and 2 are plain steps; the third input is the first mixed iterate
        step_map, plain, exact = self._linear_step_map(calls, reject_call=3)
        x, _ = _fixed_point(step_map, np.zeros(4), SolverParams(tolerance=1e-12))
        assert np.max(np.abs(x - exact)) < 1e-10
        assert not np.array_equal(calls[2], plain(calls[1]))
        assert np.array_equal(calls[3], plain(calls[1]))

    def test_rejection_at_a_plain_iterate_propagates(self):
        calls = []
        step_map, _, _ = self._linear_step_map(calls, reject_call=1)
        with pytest.raises(EndpointSingularityError):
            _fixed_point(step_map, np.zeros(4), SolverParams())

    def test_non_finite_plain_update_raises(self):
        with pytest.raises(ConvergenceError):
            _fixed_point(lambda x: (x + np.nan, np.nan), np.zeros(4), SolverParams())

    def test_nonconvergence_reports_last_plain_step(self):
        calls = []
        step_map, _, _ = self._linear_step_map(calls)
        with pytest.raises(ConvergenceError) as exc:
            _fixed_point(step_map, np.zeros(4), SolverParams(max_iterations=2))
        assert exc.value.residual > 0 and len(calls) == 2


class TestIntervalFreeEnergy:
    def test_arcsine_interaction_is_beta_log_two(self):
        ar = interval_arcsine(1024)
        for beta in (1.0, 2.0):
            fe = free_energy_interval(ar, None, beta)
            assert abs(fe.interaction - beta * LOG2) < 1e-3 * max(1.0, beta)

    def test_reflection_invariance_for_even_potential(self, interval_flat):
        r = interval_flat[1.0]
        flipped = GridDensity("interval", r.values[::-1],
                              (r.edge_masses[1], r.edge_masses[0]))
        a = free_energy_interval(r, None, 1.0)
        b = free_energy_interval(flipped, None, 1.0)
        assert abs(a.total - b.total) < 1e-12

    def test_interaction_vanishes_with_beta(self):
        ar = interval_arcsine(1024)
        fe = free_energy_interval(ar, None, 1e-8)
        assert abs(fe.interaction) < 1e-7

    def test_minimizer_beats_perturbations(self, interval_flat):
        r = interval_flat[1.0]
        fe0 = free_energy_interval(r, None, 1.0)
        t, w = r.nodes, r.weights
        rng = np.random.default_rng(3)
        for _ in range(3):
            vals = r.values * np.exp(rng.uniform(0.02, 0.08) * np.cos(t / rng.uniform(3, 9)))
            gm, gp = r.edge_masses
            vals *= (1 - gm - gp) / float(w @ vals)
            fe = free_energy_interval(GridDensity("interval", vals, (gm, gp)), None, 1.0)
            assert fe.total > fe0.total


class TestBetaDerivative:
    def test_interval_flat_coefficients_match_family(self):
        nd = beta_derivative_measure(None, 1.0, domain="interval")
        c = nd.fourier(4)
        assert abs(c[2].real - 1 / 9) < 3e-4
        assert abs(c[4].real - 67 / 675) < 3e-4

    def test_interval_grid_refines_with_its_size(self):
        # the t-span is fixed, so doubling m halves the spacing and the
        # O(h^2) quadrature bias of nu_2 falls about fourfold
        errors = []
        for m in (1024, 2048, 4096):
            nd = beta_derivative_measure(None, 1.0, domain="interval",
                                         params=SolverParams(grid_size=m))
            errors.append(abs(nd.fourier(2)[2].real - 1 / 9))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine * 3.0 <= coarse, errors

    def test_interval_family_at_half(self):
        nd = beta_derivative_measure(None, 0.5, domain="interval")
        assert abs(nd.fourier(2)[2].real - 0.25) < 5e-4

    def test_mass_is_exactly_one(self):
        for dom in ("torus", "interval"):
            nd = beta_derivative_measure(None, 1.0, domain=dom,
                                         params=SolverParams(grid_size=256 if dom == "torus" else 1024))
            assert abs(nd.mass() - 1.0) < 1e-12
            assert abs(nd.integrate(lambda u: np.ones_like(u)) - 1.0) < 1e-12

    def test_flat_torus_derivative_is_uniform(self):
        nd = beta_derivative_measure(None, 2.0, params=SolverParams(grid_size=256))
        assert np.max(np.abs(nd.values - 1 / (2 * np.pi))) < 1e-12

    @pytest.mark.parametrize("domain,v,beta", [
        ("torus", None, 1.0),
        ("torus", Potential("torus", cos=[0.0, 1.0]), 1.0),
        ("torus", Potential("torus", cos=[0.0, 0.5, 0.3], sin=[0.2]), 0.8),
        ("interval", None, 1.0),
        ("interval", None, 0.5),
        ("interval", Potential("interval", cheb=[0.0, 0.3, 0.4]), 1.3),
    ])
    def test_matches_richardson_oracle(self, domain, v, beta):
        solve = minimize_torus if domain == "torus" else minimize_interval
        nd = beta_derivative_measure(v, beta, domain=domain)
        oracle = richardson(lambda b: solve(v, b).fourier(16).c, beta, 0.05 * beta)
        assert np.max(np.abs(nd.fourier(16).c - oracle)) < 1e-7
        assert abs(nd.mass() - 1.0) < 1e-12
        assert nd.residual >= solve(v, beta).residual

    def test_one_solve_and_its_counts(self, monkeypatch):
        import ggelab.equilibrium as eq

        calls = []
        original = eq.minimize_interval

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(eq, "minimize_interval", counted)
        nd = beta_derivative_measure(None, 1.0, domain="interval")
        assert calls == [1.0]
        assert nd.iterations > original(None, 1.0).iterations

    def test_domain_must_agree_with_the_potential(self):
        with pytest.raises(ValueError, match="domain"):
            beta_derivative_measure(Potential("interval", cheb=[0.0, 0.3]), 1.0,
                                    domain="torus")
        with pytest.raises(ValueError, match="domain"):
            beta_derivative_measure(Potential("torus", cos=[0.0, 1.0]), 1.0,
                                    domain="interval")
        with pytest.raises(ValueError, match="domain"):
            beta_derivative_measure(None, 1.0, domain="disk")

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf")])
    def test_entry_points_reject_bad_beta(self, beta):
        rho = uniform_torus(64)
        for call in (lambda: minimize_torus(None, beta),
                     lambda: minimize_interval(None, beta),
                     lambda: beta_derivative_measure(None, beta),
                     lambda: free_energy_torus(rho, None, beta),
                     lambda: free_energy_interval(interval_arcsine(64),
                                                  None, beta)):
            with pytest.raises(ValueError, match="beta must be positive and finite"):
                call()

    @pytest.mark.parametrize("domain,free_energy",
                             [("torus", free_energy_torus),
                              ("interval", free_energy_interval)])
    def test_free_energy_takes_only_a_grid_density(self, domain, free_energy):
        atoms = EmpiricalMeasure(np.linspace(-0.9, 0.9, 50), domain)
        with pytest.raises(ValueError, match="got EmpiricalMeasure"):
            free_energy(atoms, None, 1.0)
        with pytest.raises(ValueError, match="got ndarray"):
            free_energy(np.ones(64), None, 1.0)

    @pytest.mark.parametrize("domain, free_energy", [
        ("torus", free_energy_torus), ("interval", free_energy_interval)])
    def test_free_energy_rejects_a_negative_signed_density(self, domain,
                                                           free_energy):
        values = np.ones(64)
        values[3] = -0.5
        values /= equilibrium._grid(domain, 64)[1] @ values
        rho = GridDensity(domain, values, signed=True)
        with pytest.raises(ValueError, match="negative density"):
            free_energy(rho, None, 1.0)

    def test_free_energy_rejects_a_negative_signed_edge_mass(self):
        # scored -2.1527 before the edge masses were checked
        rho = GridDensity("interval", 1.5 * interval_arcsine(256).values,
                          (-0.5, 0.0), signed=True)
        with pytest.raises(ValueError, match="negative density"):
            free_energy_interval(rho, None, 1.0)

    def test_beta_lipschitz_distance(self):
        v = Potential("torus", cos=[0.0, 0.5])
        betas = [0.6, 1.0, 1.4]
        sols = {b: minimize_torus(v, b, SolverParams(grid_size=512)) for b in betas}
        d_small = distance_D(sols[0.6], sols[1.0], k_max=64)
        d_mid = distance_D(sols[1.0], sols[1.4], k_max=64)
        d_big = distance_D(sols[0.6], sols[1.4], k_max=64)
        c_fit = max(d_small / 0.4, d_mid / 0.4, d_big / 0.8)
        assert d_big <= c_fit * 0.8 + 1e-15
        assert d_big >= max(d_small, d_mid) - 1e-12, "distance must grow with beta separation"
