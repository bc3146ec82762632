"""Empirical measures, Fourier coefficients, the distance D, and the BV/Lip bounds."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ggelab
from ggelab.cmv_core import build_periodic_cmv, build_cmv, eigen_angles
from ggelab.equilibrium import GridDensity
from ggelab.spectral_measures import (
    DEFAULT_TEST_FUNCTIONS,
    EmpiricalMeasure,
    FourierCoeffs,
    check_bv_lip_bound,
    distance_D,
    fourier_coeffs,
)


def equispaced(n):
    h = 2 * np.pi / n
    return EmpiricalMeasure(-np.pi + (np.arange(n) + 0.5) * h)


def cardioid_density(m=2048):
    h = 2 * np.pi / m
    th = -np.pi + (np.arange(m) + 0.5) * h
    return GridDensity("torus", (1 + np.cos(th)) / (2 * np.pi))


class TestFourierCoefficients:
    def test_equispaced_atoms_have_vanishing_low_coefficients(self):
        c = fourier_coeffs(equispaced(64), k_max=63)
        assert np.max(np.abs(c.c)) < 1e-13, "low modes of the uniform atom grid must vanish"

    def test_single_atom_gives_pure_phases(self):
        th0 = 1.234
        c = fourier_coeffs(EmpiricalMeasure([th0]), k_max=8)
        k = np.arange(1, 9)
        assert np.max(np.abs(c.c - np.exp(1j * k * th0))) < 1e-12

    def test_cardioid_first_coefficient_is_half(self):
        c = fourier_coeffs(cardioid_density(), k_max=8)
        assert abs(c[1] - 0.5) < 1e-13
        assert max(abs(c[k]) for k in range(2, 9)) < 1e-13

    def test_interval_atoms_give_real_chebyshev_averages(self):
        pts = np.array([-0.7, 0.1, 0.4])
        c = fourier_coeffs(EmpiricalMeasure(pts, "interval"), k_max=3)
        # mu_k of the symmetrized lift is the mean of cos(k arccos x) = T_k(x)
        t2 = 2 * pts ** 2 - 1
        assert abs(c[2] - t2.mean()) < 1e-12
        assert abs(c[1].imag) == 0.0

    def test_passthrough_truncates(self):
        c = FourierCoeffs(np.array([0.5 + 0j, 0.25, 0.1]))
        out = fourier_coeffs(c, k_max=2)
        assert out.k_max == 2 and out[2] == 0.25

    def test_modulus_above_one_is_rejected(self):
        with pytest.raises(ValueError):
            FourierCoeffs(np.array([1.5 + 0j]))

    def test_rejection_survives_optimized_mode(self):
        src = os.path.dirname(os.path.dirname(ggelab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c",
             "from ggelab.spectral_measures import FourierCoeffs\n"
             "FourierCoeffs([1.5])"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0
        assert "ValueError" in proc.stderr

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=30),
           st.floats(-7, 7))
    def test_rotation_multiplies_coefficients_by_phases(self, angles, phi):
        mu = EmpiricalMeasure(angles)
        a = fourier_coeffs(mu, k_max=6).c
        b = fourier_coeffs(EmpiricalMeasure(mu.atoms + phi), k_max=6).c
        k = np.arange(1, 7)
        assert np.max(np.abs(b - a * np.exp(1j * k * phi))) < 1e-10


class TestDistance:
    def test_distance_to_self_is_zero(self):
        mu = EmpiricalMeasure([0.2, -1.0, 2.5])
        assert distance_D(mu, mu) == 0.0

    def test_uniform_to_cardioid_is_half(self):
        d = distance_D(equispaced(4096), cardioid_density(), k_max=64)
        # only k = 1 differs: sqrt(|0 - 1/2|^2 / 1)
        assert abs(d - 0.5) < 1e-10, f"D = {d}"

    def test_is_a_float_summed_up_to_the_shorter_input(self):
        assert type(distance_D(equispaced(8), cardioid_density(), k_max=32)) is float
        # only k = 1, 2 enter; the cardioid has mu_1 = 1/2 and mu_2 = 0
        short = FourierCoeffs(np.array([0.1 + 0j, 0.05]))
        d = distance_D(short, cardioid_density(), k_max=32)
        assert abs(d - np.sqrt(0.4 ** 2 + 0.05 ** 2 / 2)) < 1e-15

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            mus = [EmpiricalMeasure(rng.uniform(-np.pi, np.pi, rng.integers(1, 20)))
                   for _ in range(3)]
            dab = distance_D(mus[0], mus[1], k_max=32)
            dba = distance_D(mus[1], mus[0], k_max=32)
            dac = distance_D(mus[0], mus[2], k_max=32)
            dcb = distance_D(mus[2], mus[1], k_max=32)
            assert abs(dab - dba) < 1e-14
            assert dab >= 0
            assert dab <= dac + dcb + 1e-12, "triangle inequality failed"

    def test_joint_rotation_invariance(self):
        rng = np.random.default_rng(5)
        a = EmpiricalMeasure(rng.uniform(-np.pi, np.pi, 11))
        b = EmpiricalMeasure(rng.uniform(-np.pi, np.pi, 7))
        d0 = distance_D(a, b, k_max=48)
        d1 = distance_D(EmpiricalMeasure(a.atoms + 0.83),
                        EmpiricalMeasure(b.atoms + 0.83), k_max=48)
        assert abs(d0 - d1) < 1e-12

    def test_real_coefficients_for_conjugation_symmetric_spectra(self):
        rng = np.random.default_rng(3)
        alpha = rng.uniform(-0.9, 0.9, 16)
        alpha[-1] = -1.0
        mu = EmpiricalMeasure(eigen_angles(build_cmv(alpha)))
        c = fourier_coeffs(mu, k_max=24)
        assert np.max(np.abs(c.c.imag)) < 1e-9


class TestIntegrate:
    def test_constant_integrates_to_one(self):
        assert equispaced(17).integrate(lambda th: np.ones_like(th)) == 1.0
        assert abs(cardioid_density().integrate(lambda th: np.ones_like(th)) - 1.0) < 1e-14

    def test_cosine_against_uniform_vanishes(self):
        assert abs(equispaced(64).integrate(np.cos)) < 1e-13

    def test_cosine_against_cardioid_is_half(self):
        assert abs(cardioid_density().integrate(np.cos) - 0.5) < 1e-13

    def test_interval_measure_uses_points(self):
        pts = np.array([-0.5, 0.25])
        assert abs(EmpiricalMeasure(pts, "interval").integrate(lambda x: x) - pts.mean()) < 1e-15


def random_alpha(rng, n):
    r = np.sqrt(rng.uniform(0, 0.9, n))
    return r * np.exp(1j * rng.uniform(0, 2 * np.pi, n))


class TestBvLipBounds:
    def test_identical_matrices_give_zero(self):
        a = build_periodic_cmv(random_alpha(np.random.default_rng(1), 16))
        rep = check_bv_lip_bound(a, a)
        assert rep.rank == 0 and rep.entrywise_sum == 0.0
        assert rep.all_pass
        assert all(r["deviation"] == 0.0 for r in rep.rows)

    def test_single_block_replacement_is_low_rank(self):
        rng = np.random.default_rng(7)
        n = 16
        worst = 0.0
        for _ in range(1000):
            alpha = random_alpha(rng, n)
            beta_v = alpha.copy()
            beta_v[rng.integers(0, n)] = random_alpha(rng, 1)[0]
            rep = check_bv_lip_bound(build_periodic_cmv(alpha), build_periodic_cmv(beta_v))
            assert rep.rank <= 2, f"one coefficient change must be rank <= 2, got {rep.rank}"
            row = rep.rows[0]  # cos theta, total variation 4
            assert row["deviation"] <= 2 * 4.0 / n + 1e-12
            worst = max(worst, row["deviation"] - row["bv_bound"])
        assert worst <= 1e-12, f"variation bound violated by {worst}"

    def test_entrywise_bound_for_sine_on_random_pairs(self):
        rng = np.random.default_rng(13)
        n = 12
        for _ in range(1000):
            a = build_periodic_cmv(random_alpha(rng, n))
            b = build_periodic_cmv(random_alpha(rng, n))
            rep = check_bv_lip_bound(a, b)
            row = rep.rows[1]  # sin theta, Lipschitz constant 1
            assert row["lip_ok"], (
                f"deviation {row['deviation']} above entrywise bound {row['lip_bound']}")

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        a = build_periodic_cmv(random_alpha(rng, 8))
        b = build_periodic_cmv(random_alpha(rng, 10))
        with pytest.raises(ValueError):
            check_bv_lip_bound(a, b)

    def test_report_rows(self):
        rng = np.random.default_rng(4)
        a = build_periodic_cmv(random_alpha(rng, 8))
        b = build_periodic_cmv(random_alpha(rng, 8))
        rep = check_bv_lip_bound(a, b)
        assert {r["name"] for r in rep.rows} == {"cos", "sin", "cos2"}
        assert rep.all_pass == all(r["bv_ok"] and r["lip_ok"]
                                   for r in rep.rows)
        assert 0 < rep.rank <= 8 and rep.entrywise_sum > 0


class TestWrapping:
    def test_seam_angles_land_in_convention(self):
        mu = EmpiricalMeasure([np.pi, -np.pi, 3 * np.pi])
        assert np.all(mu.atoms >= -np.pi) and np.all(mu.atoms < np.pi)

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure([0.1], "sphere")

    def test_interval_points_must_be_interior(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure([1.0], "interval")
        with pytest.raises(ValueError):
            EmpiricalMeasure([-1.0, 0.0], "interval")


class TestDomains:
    def test_interval_atoms_are_the_sorted_points(self):
        mu = EmpiricalMeasure([0.3, -0.6, 0.9], "interval")
        assert np.array_equal(mu.atoms, [-0.6, 0.3, 0.9])

    def test_measures_answer_fourier_and_integrate_themselves(self):
        rng = np.random.default_rng(8)
        for mu in (EmpiricalMeasure(rng.uniform(-4, 4, 50)),
                   EmpiricalMeasure(rng.uniform(-1, 1, 50), "interval"),
                   cardioid_density()):
            assert np.array_equal(mu.fourier(7).c, fourier_coeffs(mu, 7).c)
            # Re mu_1 is the integral of cos(theta), which is x on [-1, 1]
            f = np.cos if mu.domain == "torus" else (lambda x: x)
            assert abs(mu.integrate(f) - mu.fourier(1)[1].real) < 1e-12

    def test_unknown_measure_types_are_rejected(self):
        with pytest.raises(TypeError):
            fourier_coeffs(np.array([0.1, 0.2]), k_max=2)

    @pytest.mark.parametrize("k_max", [2.5, 8.0, "8"])
    def test_non_integral_k_max_is_rejected(self, k_max):
        for mu in (equispaced(8), EmpiricalMeasure([0.5], "interval"),
                   cardioid_density(), FourierCoeffs([0.5, 0.25, 0.1])):
            with pytest.raises(TypeError, match="k_max must be an integer"):
                fourier_coeffs(mu, k_max)
            with pytest.raises(TypeError, match="k_max must be an integer"):
                mu.fourier(k_max)
        with pytest.raises(TypeError, match="k_max must be an integer"):
            distance_D(equispaced(8), cardioid_density(), k_max)
