"""Tests for the coefficient vector of a Potential and its power-trace sums.

Anchors used here:
  * trace_weights and degree match the per-coefficient formulas of
    helpers.reference_trace_weights bit for bit, signed zeros included.
  * spectral_mean is the mean of V over the eigenvalues: V(theta) on the
    torus, V(cos theta) on the interval, where each conjugate pair appears
    twice and so counts once.
"""

import numpy as np
import pytest

from ggelab import cmv_core as cc
from ggelab.potentials import Potential
from ggelab.sampling import KINDS, EnsembleSpec, McmcParams, sample_ensemble

from helpers import reference_degree, reference_trace_weights

EDGE_CASES = [
    Potential("torus"),
    Potential("torus", cos=[0.3]),
    Potential("torus", cos=[0.0, -0.0], sin=[-0.0, 0.0]),
    Potential("torus", cos=[-0.0, -0.0, 1.0, 0.0], sin=[-0.5, -0.0, 0.0]),
    Potential("torus", cos=[1.0], sin=[0.0, -0.0, 2.0, -0.0]),
    Potential("torus", cos=[0.0, 1.5, -0.0, 0.0, 0.0], sin=[-0.0]),
    Potential("interval"),
    Potential("interval", cheb=[-0.0, -0.0, 0.0]),
    Potential("interval", cheb=[0.2, -0.0, 0.7, -0.0, 0.0]),
    Potential("interval", cheb=[0.0, -1.0, 0.0, 5e-324]),
]


def _coefficients(rng, size):
    x = rng.standard_normal(size)
    u = rng.uniform(size=size)
    x[u < 0.3] = 0.0
    x[(u >= 0.3) & (u < 0.5)] = -0.0
    return x


def _random_potentials(rng, count):
    for i in range(count):
        if i % 2:
            yield Potential("interval",
                            cheb=_coefficients(rng, rng.integers(1, 8)))
        else:
            yield Potential("torus", cos=_coefficients(rng, rng.integers(1, 8)),
                            sin=_coefficients(rng, rng.integers(0, 8)))


def test_weights_and_degree_match_reference_bitwise():
    rng = np.random.default_rng(2024)
    for v in EDGE_CASES + list(_random_potentials(rng, 2000)):
        w = v.trace_weights()
        ref = reference_trace_weights(v)
        assert v.degree == reference_degree(v) == w.size, v
        assert w.dtype == ref.dtype and w.tobytes() == ref.tobytes(), v
        assert v.is_zero == (v.degree == 0 and v.constant == 0.0), v


def test_trace_weights_is_a_fresh_array():
    v = Potential("torus", cos=[0.0, 1.0])
    v.trace_weights()[0] = 9.0
    assert v.trace_weights()[0] == 1.0


def test_coefficients_are_a_read_only_copy():
    cos = np.array([0.0, 1.0])
    v = Potential("torus", cos=cos, sin=[0.5])
    cos[1] = 3.0
    assert v.trace_weights().tolist() == [1.0 - 0.5j]
    for coeffs in (v.cos, v.sin, Potential("interval").cheb):
        with pytest.raises(ValueError, match="read-only"):
            coeffs[0] = 2.0


def test_empty_constant_term_rejected():
    with pytest.raises(ValueError, match="constant"):
        Potential("torus", cos=[])
    with pytest.raises(ValueError, match="constant"):
        Potential("interval", cheb=[])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficients_rejected(bad):
    # a NaN delta V fails every Metropolis comparison and freezes the chain
    for coeffs in (dict(cos=[bad]), dict(cos=[0.0, bad]),
                   dict(cos=[0.0, 1.0], sin=[0.0, bad]),
                   dict(domain="interval", cheb=[0.0, 0.0, bad])):
        with pytest.raises(ValueError, match="finite"):
            Potential(**coeffs)


@pytest.mark.parametrize("kind, v", [
    ("al", Potential("torus", cos=[0.2, 1.0, -0.3, 0.0],
                     sin=[0.5, 0.1, 0.4])),
    ("schur", Potential("interval", cheb=[0.1, 1.0, 0.0, -0.4, 0.0])),
    ("jacobi", Potential("interval", cheb=[-0.3, 0.0, 0.6, 0.25])),
])
def test_spectral_mean_is_the_eigenvalue_mean(kind, v):
    n = 12 if kind == "jacobi" else 6  # jacobi: six conjugate pairs
    batch = sample_ensemble(EnsembleSpec(kind, n, 1.0), McmcParams(sweeps=5),
                            np.random.default_rng(7))
    alphas = batch.alphas
    topology = KINDS[kind].topology
    size = alphas.shape[-1]
    assert size == n
    build = cc.build_periodic_cmv if KINDS[kind].periodic else cc.build_cmv
    angles = np.array([cc.eigen_angles(build(row.astype(complex)))
                       for row in alphas])
    points = angles if v.domain == "torus" else np.cos(angles)
    want = v(points).mean(axis=1)

    traces = cc.batch_trace_powers(alphas, v.degree, topology)
    got = v.spectral_mean(traces, size)
    assert np.max(np.abs(got - want)) <= 1e-12
    # the same row reduction with the reference weights
    ref = v.constant + np.einsum("...k,k->...", traces,
                                 reference_trace_weights(v)).real \
        / v.atoms(size)
    assert np.array_equal(got, ref)
    # extra trace columns are ignored, a single row gives a scalar
    wide = cc.batch_trace_powers(alphas, v.degree + 3, topology)
    assert np.max(np.abs(v.spectral_mean(wide, size) - want)) <= 1e-12
    # the traces do not depend on ell_max, so neither does the mean
    assert np.array_equal(v.spectral_mean(wide, size), got)
    assert v.spectral_mean(traces[0], size) == got[0]


def test_spectral_mean_of_a_constant_is_exact():
    traces = np.ones((3, 4), complex)
    assert np.all(Potential("torus", cos=[0.7]).spectral_mean(traces, 8)
                  == 0.7)
    assert np.all(Potential("interval", cheb=[-0.4]).spectral_mean(traces, 8)
                  == -0.4)
    with pytest.raises(ValueError, match="even matrix size"):
        Potential("interval", cheb=[0.0, 1.0]).spectral_mean(traces, 7)


def test_atoms_count_every_eigenvalue_on_the_torus_and_pairs_on_the_interval():
    assert Potential("interval").atoms(8) == 4
    assert Potential("torus").atoms(7) == 7
    with pytest.raises(ValueError, match="even matrix size"):
        Potential("interval").atoms(7)
