"""Tests for the statistical check layer.

Anchors used here:
  * Z_h has density h w^(h-1), so E[Z_h] = h/(1+h) and at h = 1 the
    exponential moment E[exp(Z)] equals e - 1.
  * the interval equilibrium second moment at beta = 1 is 5/9.
  * the rate of the cardioid density (1 + cos)/2pi at beta = 1, V = 0 is
    1/4 + (1 - log 2).
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ggelab import ldp_lab, sampling
from ggelab.cmv_core import NumericalError
from ggelab.equilibrium import (GridDensity, free_energy_torus,
                                minimize_interval, minimize_torus)
from ggelab.ldp_lab import (CheckReport, FreeEnergyEstimate, RelationReport,
                            _circular_beta_derivative, check_coupling_lemma,
                            check_dos_relation, check_exp_moment,
                            check_free_energy_relation, estimate_free_energy,
                            rate_function_value)
from ggelab.potentials import Potential
from ggelab.sampling import McmcParams
from ggelab.spectral_measures import EmpiricalMeasure

from helpers import richardson

COS = Potential("torus", cos=[0.0, 1.0])
CHEB1 = Potential("interval", cheb=[0.0, 0.3])


def _no_sampling(*args, **kwargs):
    raise AssertionError("sampled before the arguments were checked")


def _forbid_sampling(monkeypatch):
    """Make every sampler that ldp_lab calls fail the test."""
    for name in ("_sample", "sample_ensemble"):
        monkeypatch.setattr(ldp_lab, name, _no_sampling)


def torus_density(values_fn, m=2048):
    theta = -np.pi + (np.arange(m) + 0.5) * (2.0 * np.pi / m)
    vals = values_fn(theta)
    vals = vals / (vals.sum() * 2.0 * np.pi / m)
    return GridDensity("torus", vals)


class TestCouplingLemma:
    def test_bulk_zero_violations(self):
        rep = check_coupling_lemma(3.0, 0.5, 100000, rng=101)
        assert rep.passed
        assert rep.statistics["violations_alpha"] == 0
        assert rep.statistics["violations_rho"] == 0
        assert rep.statistics["violations_monotone"] == 0

    def test_increment_close_to_one(self):
        rep = check_coupling_lemma(3.0, 0.999, 20000, rng=102)
        assert rep.passed

    def test_small_nu(self):
        rep = check_coupling_lemma(2.0, 0.1, 20000, rng=103)
        assert rep.passed

    def test_mean_of_bound_variable(self):
        # E[Z_h] = h/(1+h); sd(Z_0.5) = sqrt(1/5 - 1/9)
        rep = check_coupling_lemma(3.0, 0.5, 100000, rng=101)
        se = math.sqrt(0.5 / 2.5 - (1.0 / 3.0) ** 2) / math.sqrt(100000)
        assert abs(rep.statistics["mean_z"] - 1.0 / 3.0) < 4.0 * se

    def test_validation(self):
        with pytest.raises(ValueError, match="need at least one sample"):
            check_coupling_lemma(3.0, 0.5, 0)
        with pytest.raises(ValueError):
            check_coupling_lemma(3.0, 1.2, 100)

    def test_non_integral_sample_count_is_rejected(self):
        with pytest.raises(TypeError, match="n_samples must be an integer"):
            check_coupling_lemma(3.0, 0.5, 10.7)

    def test_one_family_draw_checks_both_increments(self, monkeypatch):
        calls = []

        def spy(nu, h_values, rng, size=None):
            calls.append((nu, tuple(h_values), size))
            return sampling.sample_coupled_family(nu, h_values, rng, size)
        monkeypatch.setattr(ldp_lab, "sample_coupled_family", spy)
        rep = check_coupling_lemma(3.0, 0.5, 1000, rng=105)
        assert calls == [(3.0, (0.25, 0.5), 1000)]
        assert rep.passed and "h_values" not in rep.parameters

    def test_json_schema(self):
        rep = check_coupling_lemma(3.0, 0.3, 500, rng=9)
        doc = rep.to_dict()
        assert set(doc) == {"check", "parameters", "statistics", "pass", "warnings"}
        assert doc["check"] == "coupling_lemma"
        assert doc["pass"] is True


class TestExpMoment:
    def test_uniform_case_is_e_minus_one(self):
        rep = check_exp_moment((1.0,), 50000, rng=201)
        row = rep.statistics["rows"][0]
        assert row["exact"] == pytest.approx(math.e - 1.0, abs=1e-9)
        assert abs(row["z"]) <= 3.0

    def test_grid_with_uniform_bound(self):
        rep = check_exp_moment((0.01, 0.1, 0.5, 0.9), 50000, rng=202)
        assert rep.passed
        bound = rep.statistics["uniform_bound"]
        assert bound == max(r["exact"] for r in rep.statistics["rows"])
        assert bound < 2.0, f"uniform bound {bound} unexpectedly large"

    @staticmethod
    def _exact(h):
        return check_exp_moment((h,), 2, rng=0).statistics["rows"][0]["exact"]

    def test_exact_matches_algebraic_weight_quadrature_at_small_h(self):
        # plain quadrature of exp(a u^(1/h)) returns 1.0 here; the weight
        # w^(h - 1) taken out of the integrand leaves a smooth one
        for h in (5e-5, 1e-4):
            a = 1.0 - 0.5 * math.log(h)
            oracle, _ = quad(lambda w: h * math.exp(a * w), 0.0, 1.0,
                             weight="alg", wvar=(h - 1.0, 0.0))
            assert self._exact(h) == pytest.approx(oracle, rel=1e-12, abs=0)
        assert self._exact(1e-300) == pytest.approx(1.0, rel=0, abs=1e-15)

    @pytest.mark.parametrize("h", [0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 1.0])
    def test_exact_matches_quadrature(self, h):
        a = 1.0 - 0.5 * math.log(h)
        oracle, _ = quad(lambda u: math.exp(a * u ** (1.0 / h)), 0.0, 1.0,
                         limit=200, epsabs=1e-11, epsrel=1e-11)
        assert self._exact(h) == pytest.approx(oracle, rel=1e-12, abs=0)

    def test_exact_values_decrease_with_shrinking_h(self):
        rep = check_exp_moment((0.05, 0.3, 0.8), 5000, rng=203)
        exact = [r["exact"] for r in rep.statistics["rows"]]
        assert exact[0] < exact[1] < exact[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            check_exp_moment((0.0,), 100)
        with pytest.raises(ValueError):
            check_exp_moment((1.2,), 100)
        with pytest.raises(ValueError, match="need at least two samples"):
            check_exp_moment((0.5,), 1)

    def test_non_integral_sample_count_is_rejected(self):
        with pytest.raises(TypeError, match="n_samples must be an integer"):
            check_exp_moment((0.5,), 10.7)


class TestFreeEnergyEstimate:
    def test_zero_potential_all_kinds(self):
        for kind in ("al", "circular", "schur", "jacobi"):
            fe = estimate_free_energy(kind, None, 1.0)
            assert fe.value == 0.0 and fe.std_error == 0.0
            assert fe.method == "ThermoIntegration"

    def test_constant_potential_exact(self):
        fe = estimate_free_energy("al", Potential("torus", cos=[0.7]), 2.0)
        assert fe.value == 0.7 and fe.std_error == 0.0
        fe = estimate_free_energy("schur", Potential("interval", cheb=[-0.4]), 1.0)
        assert fe.value == -0.4 and fe.std_error == 0.0

    @pytest.mark.parametrize("v", [None, Potential("torus", cos=[0.7]), COS])
    def test_one_sample_per_node_rejected(self, monkeypatch, v):
        # one kept state has no standard error; the check comes before any
        # sampling and before the exact shortcuts
        _forbid_sampling(monkeypatch)
        with pytest.raises(ValueError, match="two samples"):
            estimate_free_energy("al", v, 1.0, mcmc=McmcParams(sweeps=1), n=8)

    def test_one_stacked_chain_per_estimate(self, monkeypatch):
        # the s = 0 node takes exact draws, the other four nodes of the
        # default grid run as the four rows of one chain
        rows = []
        run = sampling._run_chain

        def counted(kind, params, wc, *rest):
            rows.append(wc.shape[0])
            return run(kind, params, wc, *rest)

        monkeypatch.setattr(sampling, "_run_chain", counted)
        estimate_free_energy("al", COS, 1.0, mcmc=McmcParams(sweeps=5), rng=3,
                             n=8)
        assert rows == [4]

    def test_low_acceptance_warns_at_its_node(self):
        # cos = [0, 5] on 8 sites accepts about one move in ten at s = 1
        fe = estimate_free_energy("al", Potential("torus", cos=[0.0, 5.0]),
                                  1.0, mcmc=McmcParams(sweeps=50), rng=1, n=8)
        low = [w for w in fe.warnings if w.startswith("low acceptance rate")]
        assert any(" at s = 1;" in w for w in low), fe.warnings
        assert not any(" at s = 0;" in w for w in low)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            estimate_free_energy("al", COS, 1.0, s_grid=(0.0, 0.5, 0.5, 1.0))
        with pytest.raises(ValueError, match="increasing"):
            estimate_free_energy("al", COS, 1.0, s_grid=(0.0, math.nan, 1.0))
        with pytest.raises(ValueError, match="0 to 1"):
            estimate_free_energy("al", COS, 1.0, s_grid=(0.1, 1.0))
        with pytest.raises(ValueError, match="endpoints"):
            estimate_free_energy("al", COS, 1.0, s_grid=(1.0,))

    @pytest.mark.parametrize("kind, v, n", [
        ("al", None, 3), ("al", None, 0), ("circular", None, 0),
        ("circular", None, -4), ("jacobi", None, 3), ("jacobi", None, 0),
        ("al", Potential("torus", cos=[0.7]), 1),
        ("schur", Potential("interval", cheb=[-0.4]), 5)])
    def test_exact_shortcuts_check_the_size(self, kind, v, n):
        # V = 0 and constant V need no sample, but n must still be a size
        # the sampled run would take
        with pytest.raises(ValueError, match="size|coefficients"):
            estimate_free_energy(kind, v, 1.0, n=n)

    def test_domain_mismatch(self):
        with pytest.raises(ValueError, match="torus"):
            estimate_free_energy("al", CHEB1, 1.0)
        with pytest.raises(ValueError, match="torus"):
            estimate_free_energy("al", Potential("interval", cheb=[0.0]), 1.0)
        with pytest.raises(ValueError, match="interval"):
            estimate_free_energy("jacobi", COS, 1.0)

    def test_unknown_ensemble(self):
        with pytest.raises(ValueError, match="ensemble"):
            estimate_free_energy("toda", COS, 1.0)

    def test_kind_names_are_case_sensitive(self, monkeypatch):
        _forbid_sampling(monkeypatch)
        with pytest.raises(ValueError, match="unknown ensemble kind 'AL'"):
            estimate_free_energy("AL", COS, 1.0)

    @pytest.mark.parametrize("v", [None, COS])
    def test_non_integral_size_rejected_before_sampling(self, monkeypatch, v):
        # at a non-integral n the rate 2 beta / n and the row size disagree
        _forbid_sampling(monkeypatch)
        with pytest.raises(TypeError, match="n must be an integer"):
            estimate_free_energy("circular", v, 1.0, n=6.5)

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            FreeEnergyEstimate(0.0, -1.0)
        with pytest.raises(TypeError, match="method"):
            FreeEnergyEstimate(0.0, 0.0, method="Jarzynski")

    def test_reproducible_under_seed(self):
        kw = dict(mcmc=McmcParams(sweeps=60), n=16, s_grid=(0.0, 0.5, 1.0))
        a = estimate_free_energy("al", COS, 1.0, rng=77, **kw)
        b = estimate_free_energy("al", COS, 1.0, rng=77, **kw)
        assert a.value == b.value and a.std_error == b.std_error

    def test_needs_no_numpy_trapezoid(self, monkeypatch):
        # np.trapezoid is numpy >= 2.0; the supported floor is 1.24
        kw = dict(mcmc=McmcParams(sweeps=30), n=8, s_grid=(0.0, 0.4, 1.0))
        want = estimate_free_energy("al", COS, 1.0, rng=5, **kw)
        monkeypatch.delattr(np, "trapezoid", raising=False)
        got = estimate_free_energy("al", COS, 1.0, rng=5, **kw)
        assert got.value == want.value and got.std_error == want.std_error

    def test_al_tilt_lowers_value(self):
        fe = estimate_free_energy("al", COS, 1.0, mcmc=McmcParams(sweeps=300),
                                  rng=11, n=64)
        assert fe.value < 0.0
        assert 0.0 < fe.std_error < 0.01
        assert fe.n_samples == 300 * len(fe.grid)
        assert not any("acceptance" in w for w in fe.warnings)

    def test_circular_matches_variational_value(self):
        # high-temperature scaling: MC at n = 32 against the minimized
        # functional; the finite-size allowance covers the 1/n bias
        eta = 0.2
        v = Potential("torus", cos=[0.0, 2.0 * eta])
        rho = minimize_torus(v, 1.0)
        from ggelab.equilibrium import free_energy_torus
        solver = free_energy_torus(rho, v, 1.0).total - math.log(2.0)
        assert solver == pytest.approx(-eta**2 / 2.0, abs=2.5 * eta**4)
        fe = estimate_free_energy("circular", v, 1.0,
                                  mcmc=McmcParams(sweeps=150), rng=17, n=32)
        assert abs(fe.value - solver) <= 3.0 * fe.std_error + 0.003

    def test_jacobi_runs(self):
        fe = estimate_free_energy("jacobi", CHEB1, 1.0,
                                  mcmc=McmcParams(sweeps=80), rng=14, n=16,
                                  s_grid=(0.0, 0.5, 1.0))
        assert fe.value < 0.0
        assert fe.std_error > 0.0

    def test_report_dict(self):
        fe = estimate_free_energy("al", None, 1.0)
        doc = fe.to_dict()
        assert doc["check"] == "free_energy"
        assert doc["statistics"]["method"] == "ThermoIntegration"


class TestFreeEnergyRelation:
    def test_cos_potential_passes(self):
        """The relation on streams 21-25; at most one may miss.

        One stream's 3-standard-error check misses about 2% of the time on
        a correct sampler (3 misses in 150 fresh streams), so this test
        fails falsely with probability 1 - 0.98^5 - 5 (0.02) 0.98^4, about
        0.4%.
        """
        misses = []
        for rng in range(21, 26):
            rep = check_free_energy_relation(COS, 1.0, delta=0.1,
                                             mcmc=McmcParams(sweeps=500),
                                             rng=rng, n=64)
            assert rep.solver_residual >= 0.0
            assert rep.d_value == abs(rep.statistics["discrepancy"])
            assert not any("acceptance" in w for w in rep.warnings)
            if not (rep.passed and rep.statistics["mc_value"] < 0.0):
                misses.append((rng, rep.statistics))
        assert len(misses) <= 1, misses

    def test_zero_potential_trivial(self):
        rep = check_free_energy_relation(None, 1.0, delta=0.1)
        assert rep.passed
        assert rep.d_value == 0.0

    @pytest.mark.parametrize("v", [None, COS])
    def test_one_sample_per_node_rejected(self, monkeypatch, v):
        _forbid_sampling(monkeypatch)
        with pytest.raises(ValueError, match="two samples"):
            check_free_energy_relation(v, 1.0, mcmc=McmcParams(sweeps=1), n=8)

    @pytest.mark.parametrize("beta", [0.0, float("nan"), float("inf")])
    def test_beta_validation(self, beta):
        with pytest.raises(ValueError, match="beta"):
            check_free_energy_relation(COS, beta)

    @pytest.mark.parametrize("v,beta", [
        (COS, 1.0),
        (Potential("torus", cos=[0.0, 0.5, 0.3], sin=[0.2]), 0.8),
    ])
    def test_envelope_matches_richardson_oracle(self, v, beta):
        def circular(b):
            rho = minimize_torus(v, b)
            return free_energy_torus(rho, v, b).total - b * math.log(2.0)

        value, residual = _circular_beta_derivative(v, beta)
        assert abs(value - richardson(circular, beta, 0.05 * beta)) < 1e-7
        assert 0.0 <= residual < 1e-8

    def test_budget_is_the_monte_carlo_error(self):
        rep = check_free_energy_relation(COS, 1.0, mcmc=McmcParams(sweeps=50),
                                         rng=3, n=16)
        s = rep.statistics
        assert set(s) == {"mc_value", "mc_std_error", "variational_value",
                          "discrepancy"}
        assert rep.threshold == 3.0 * s["mc_std_error"]
        assert s["variational_value"] == _circular_beta_derivative(COS, 1.0)[0]
        assert "delta" not in rep.to_dict()["parameters"]

    def test_json_schema(self):
        rep = check_free_energy_relation(None, 2.0, delta=0.5)
        doc = rep.to_dict()
        assert set(doc) == {"check", "parameters", "statistics", "pass", "warnings"}
        assert doc["check"] == "free_energy_relation"
        assert doc["statistics"]["d_value"] == 0.0


class TestDosRelation:
    @pytest.mark.parametrize("v", [None, COS])
    def test_one_sample_rejected(self, monkeypatch, v):
        # a series of one state would report moments with a zero error
        _forbid_sampling(monkeypatch)
        with pytest.raises(ValueError, match="two samples"):
            check_dos_relation("al", v, 1.0, 8, mcmc=McmcParams(sweeps=1))

    def test_al_zero_potential_noise_floor(self):
        sweeps, n = 2000, 64
        rep = check_dos_relation("al", None, 1.0, n,
                                 mcmc=McmcParams(sweeps=sweeps), rng=31,
                                 threshold=3.0 / math.sqrt(sweeps * n))
        assert rep.passed, f"D = {rep.d_value} over {rep.threshold}"
        assert rep.solver_residual < 1e-10

    def test_al_tilted_moments(self):
        """The check on streams 32-36; at most one may miss.

        One stream's check (every moment within 3 standard errors) misses
        about 2% of the time on a correct sampler (3 misses in 150 fresh
        streams), so this test fails falsely with probability
        1 - 0.98^5 - 5 (0.02) 0.98^4, about 0.4%.
        """
        misses = []
        for rng in range(32, 37):
            rep = check_dos_relation("al", COS, 1.0, 64,
                                     mcmc=McmcParams(sweeps=1500), rng=rng)
            zs = [row["z"] for row in rep.statistics["moments"]]
            assert len(zs) == 8
            if not (rep.passed and max(abs(z) for z in zs) <= 3.0):
                misses.append((rng, rep.d_value, zs))
        assert len(misses) <= 1, misses

    def test_al_asymmetric_potential(self):
        v = Potential("torus", cos=[0.0, 0.3], sin=[0.4])
        rep = check_dos_relation("al", v, 1.0, 64,
                                 mcmc=McmcParams(sweeps=1200), rng=7)
        assert rep.passed
        sin_targets = [row["target"] for row in rep.statistics["moments"]
                       if row["name"].startswith("sin")]
        assert max(abs(t) for t in sin_targets) > 0.01

    def test_schur_zero_potential(self):
        rep = check_dos_relation("schur", None, 1.0, 64,
                                 mcmc=McmcParams(sweeps=2000), rng=33)
        assert rep.passed
        row = rep.statistics["moments"][1]
        assert row["name"] == "x^2"
        # interval equilibrium second moment at beta = 1
        assert row["target"] == pytest.approx(5.0 / 9.0, abs=5e-4)

    def test_distance_shrinks_with_samples(self):
        d_small = check_dos_relation("al", None, 1.0, 64,
                                     mcmc=McmcParams(sweeps=400), rng=1).d_value
        d_large = check_dos_relation("al", None, 1.0, 64,
                                     mcmc=McmcParams(sweeps=6400), rng=101).d_value
        assert d_large < d_small
        ratio = d_small / d_large
        assert 2.0 < ratio < 8.0, f"scaling ratio {ratio} is far from 4"

    def test_threshold_semantics(self):
        rep = check_dos_relation("al", None, 1.0, 16,
                                 mcmc=McmcParams(sweeps=200), rng=41,
                                 threshold=1e-9)
        assert not rep.passed
        assert rep.d_value > rep.threshold

    def test_validation(self):
        with pytest.raises(ValueError, match="al and schur"):
            check_dos_relation("circular", None, 1.0, 16)
        with pytest.raises(ValueError, match="k_max must be at least 4"):
            check_dos_relation("al", None, 1.0, 16, k_max=2)
        with pytest.raises(ValueError, match="even"):
            check_dos_relation("al", None, 1.0, 15)
        with pytest.raises(ValueError, match="interval"):
            check_dos_relation("schur", COS, 1.0, 16)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
    def test_threshold_is_checked_before_sampling(self, monkeypatch,
                                                  threshold):
        def no_sampling(*args):
            raise AssertionError("sampled with a threshold no D can pass")
        monkeypatch.setattr(ldp_lab, "sample_ensemble", no_sampling)
        with pytest.raises(ValueError, match="threshold must be positive"):
            check_dos_relation("al", None, 1.0, 16, threshold=threshold)

    def test_non_integral_size_is_rejected_before_sampling(self,
                                                          monkeypatch):
        _forbid_sampling(monkeypatch)
        with pytest.raises(TypeError, match="n must be an integer"):
            check_dos_relation("al", None, 1.0, 32.9)

    @pytest.mark.parametrize("k_max", [4.7, 16.0, "16"])
    def test_non_integral_k_max_is_rejected_before_sampling(self, monkeypatch,
                                                            k_max):
        _forbid_sampling(monkeypatch)
        with pytest.raises(TypeError, match="k_max must be an integer"):
            check_dos_relation("al", None, 1.0, 16, k_max=k_max)

    def test_odd_size_is_rejected_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled at a size the ring cannot have")
        monkeypatch.setattr(ldp_lab, "sample_ensemble", no_sampling)
        for kind in ("al", "schur"):
            with pytest.raises(ValueError, match="even"):
                check_dos_relation(kind, None, 1.0, 15)

    def test_rows_carry_tau_int(self):
        exact = check_dos_relation("schur", None, 1.0, 16,
                                   mcmc=McmcParams(sweeps=200), rng=5)
        assert all(0.0 < row["tau_int"] < 10.0
                   for row in exact.statistics["moments"])
        assert not any("correlated" in w for w in exact.warnings)
        # a strong degree-2 tilt: the chain mixes slowly over whole sweeps
        slow = check_dos_relation("al", Potential("torus", cos=[0.0, 0.0, 3.0]),
                                  1.0, 8, mcmc=McmcParams(sweeps=400), rng=5)
        flagged = [row["name"] for row in slow.statistics["moments"]
                   if row["tau_int"] > 10.0]
        assert flagged
        for name in flagged:
            assert any(f"at moment {name} (tau = " in w for w in slow.warnings)

    def test_json_schema(self):
        rep = check_dos_relation("al", None, 1.0, 16,
                                 mcmc=McmcParams(sweeps=100), rng=2)
        doc = rep.to_dict()
        assert set(doc) == {"check", "parameters", "statistics", "pass", "warnings"}
        assert doc["parameters"]["ensemble"] == "al"
        assert "d_value" in doc["statistics"]
        assert "solver_residual" in doc["statistics"]

    def test_negative_d_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            RelationReport("x", 1.0, None, -0.1, 10, None, 0.02, False, {}, {})


class TestRateFunction:
    def test_minimizer_gives_zero(self):
        rho = minimize_torus(COS, 1.0)
        assert rate_function_value(rho, COS, 1.0) == 0.0

    def test_cardioid_value(self):
        # V = 0, beta = 1: rate = 1/4 + integral of log(2 pi rho) d mu
        card = torus_density(lambda th: 1.0 + np.cos(th))
        val = rate_function_value(card, None, 1.0)
        assert val == pytest.approx(0.25 + 1.0 - math.log(2.0), abs=1e-4)

    def test_uniform_pays_for_potential(self):
        unif = torus_density(lambda th: np.ones_like(th))
        assert rate_function_value(unif, COS, 1.0) > 0.01

    def test_midpoint_convexity(self):
        a = torus_density(lambda th: 1.0 + 0.8 * np.cos(th))
        b = torus_density(lambda th: 1.0 + 0.8 * np.cos(2.0 * th))
        mix = GridDensity("torus", 0.5 * (a.values + b.values))
        ra = rate_function_value(a, COS, 1.0)
        rb = rate_function_value(b, COS, 1.0)
        rm = rate_function_value(mix, COS, 1.0)
        assert rm <= 0.5 * (ra + rb) + 1e-12

    def test_interval_minimizer_gives_zero(self):
        rho = minimize_interval(CHEB1, 1.0)
        assert rate_function_value(rho, CHEB1, 1.0) == 0.0

    def test_interval_cross_potential_positive(self):
        other = Potential("interval", cheb=[0.0, -0.6])
        rho = minimize_interval(other, 1.0)
        assert rate_function_value(rho, CHEB1, 1.0) > 1e-4

    def test_validation(self):
        rho = minimize_torus(COS, 1.0)
        with pytest.raises(ValueError, match="does not match"):
            rate_function_value(rho, CHEB1, 1.0)
        with pytest.raises(ValueError, match="does not match"):
            rate_function_value(minimize_interval(CHEB1, 1.0), COS, 1.0)
        with pytest.raises(ValueError, match="got ndarray"):
            rate_function_value(rho.values, COS, 1.0)
        with pytest.raises(ValueError, match="got EmpiricalMeasure"):
            rate_function_value(EmpiricalMeasure(rho.nodes, "torus"), COS, 1.0)
        with pytest.raises(ValueError, match="beta"):
            rate_function_value(rho, COS, 0.0)
