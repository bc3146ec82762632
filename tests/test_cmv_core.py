"""Lax matrix construction, spectra, and banded trace powers."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ggelab import cmv_core as cc
from ggelab.potentials import Potential

from helpers import random_interior_alpha, reference_periodic_entries


RNG = np.random.default_rng(20260821)


# ---------------------------------------------------------------- frozen cases

def test_periodic_n2_zero_alpha_is_identity():
    m = cc.build_periodic_cmv(np.zeros(2))
    assert np.array_equal(m.dense(), np.eye(2))


def test_periodic_n4_zero_alpha_is_double_transposition():
    m = cc.build_periodic_cmv(np.zeros(4))
    expected = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ],
        float,
    )
    assert np.abs(m.dense() - expected).max() == 0.0
    angles = cc.eigen_angles(m)
    assert np.abs(angles - np.array([-np.pi, -np.pi, 0.0, 0.0])).max() <= 1e-12


def test_open_n2_closed_form():
    a1 = 0.3 - 0.4j
    a2 = np.exp(0.7j)
    m = cc.build_cmv(np.array([a1, a2]))
    r1 = np.sqrt(1 - abs(a1) ** 2)
    expected = np.array(
        [[np.conj(a1), r1 * np.conj(a2)], [r1, -a1 * np.conj(a2)]]
    )
    assert np.abs(m.dense() - expected).max() <= 1e-15


def test_open_jacobi_one_pair_eigenangles():
    # n = 1 Jacobi case: alpha = (a, -1) gives eigenvalues exp(+-i arccos a)
    a = 0.37
    m = cc.build_cmv(np.array([a, -1.0]))
    angles = cc.eigen_angles(m)
    th = np.arccos(a)
    assert np.abs(np.sort(angles) - np.array([-th, th])).max() <= 1e-12


# ----------------------------------------------------------- structure checks

@pytest.mark.parametrize("n", [2, 4, 6, 10, 16, 34])
def test_periodic_matches_entry_table(n):
    alpha = random_interior_alpha(RNG, n)
    m = cc.build_periodic_cmv(alpha)
    ref = reference_periodic_entries(alpha)
    assert np.abs(m.dense() - ref).max() <= 1e-14


@pytest.mark.parametrize("n", [6, 10, 64])
def test_periodic_sparsity_outside_pattern_exactly_zero(n):
    alpha = random_interior_alpha(RNG, n)
    d = cc.build_periodic_cmv(alpha).dense()
    mask = np.abs(reference_periodic_entries(np.full(n, 0.5 + 0.25j))) > 0
    assert np.all(d[~mask] == 0.0)


@pytest.mark.parametrize("n,topology", [(8, "periodic"), (64, "periodic"),
                                        (9, "open"), (64, "open")])
def test_unitarity(n, topology):
    alpha = random_interior_alpha(RNG, n)
    if topology == "periodic":
        m = cc.build_periodic_cmv(alpha)
    else:
        alpha[-1] = np.exp(1j * RNG.uniform(-np.pi, np.pi))
        m = cc.build_cmv(alpha)
    assert cc.unitarity_residual(m) <= 1e-12


def test_periodic_requires_even_size():
    with pytest.raises(ValueError):
        cc.build_periodic_cmv(random_interior_alpha(RNG, 5))


def test_periodic_rejects_boundary_entry():
    alpha = random_interior_alpha(RNG, 6)
    alpha[-1] = 1.0
    with pytest.raises(ValueError):
        cc.build_periodic_cmv(alpha)


def test_open_requires_unimodular_last_entry():
    with pytest.raises(ValueError):
        cc.build_cmv(random_interior_alpha(RNG, 6, rmax=0.5))


def test_real_input_builds_real_matrix():
    alpha = random_interior_alpha(RNG, 8, real=True)
    m = cc.build_periodic_cmv(alpha)
    assert m.dense().dtype == np.float64


def test_conjugate_pairing_real_minus_one_boundary():
    alpha = random_interior_alpha(RNG, 11, real=True)
    alpha = np.append(alpha, -1.0)
    m = cc.build_cmv(alpha)
    angles = cc.eigen_angles(m)
    assert np.abs(np.sort(angles) + np.sort(-angles)[::-1]).max() <= 1e-9


def test_eigen_angles_sorted_in_principal_range():
    m = cc.build_periodic_cmv(random_interior_alpha(RNG, 16))
    angles = cc.eigen_angles(m)
    assert np.all(np.diff(angles) >= 0)
    assert angles.min() >= -np.pi and angles.max() < np.pi


def test_eigen_angle_sum_matches_determinant_argument():
    m = cc.build_periodic_cmv(random_interior_alpha(RNG, 12))
    angles = cc.eigen_angles(m)
    target = np.angle(np.linalg.det(m.dense()))
    diff = (angles.sum() - target) % (2 * np.pi)
    assert min(diff, 2 * np.pi - diff) <= 1e-8


# -------------------------------------------------------------- trace algebra

def _random_matrix(rng, n, topology, real):
    """(alpha, built matrix) for one topology and dtype."""
    alpha = random_interior_alpha(rng, n, real=real)
    if topology == "periodic":
        return alpha, cc.build_periodic_cmv(alpha)
    alpha[-1] = -1.0 if real else np.exp(0.3j)
    return alpha, cc.build_cmv(alpha)


@pytest.mark.parametrize("topology", ["periodic", "open"])
def test_trace_power_matches_eigenvalue_sums(topology):
    for n in range(2, 13):
        if topology == "periodic" and n % 2:
            continue
        for real in (False, True):
            alpha, m = _random_matrix(RNG, n, topology, real)
            lam = np.linalg.eigvals(m.dense())
            batch = cc.batch_trace_powers(alpha, 9, topology)[0]
            assert batch.dtype == (np.float64 if real else np.complex128)
            for ell in range(10):
                direct = np.sum(lam**ell)
                assert abs(cc.trace_power(m, ell) - direct) <= 1e-10
                if ell:
                    assert abs(batch[ell - 1] - direct) <= 1e-10


def test_trace_power_small_sizes_where_offsets_collide():
    for n in (2, 4):
        alpha = random_interior_alpha(RNG, n)
        m = cc.build_periodic_cmv(alpha)
        lam = np.linalg.eigvals(m.dense())
        for ell in range(1, 7):
            assert abs(cc.trace_power(m, ell) - np.sum(lam**ell)) <= 1e-10


def test_first_trace_equals_nearest_neighbour_sum():
    alpha = random_interior_alpha(RNG, 20)
    m = cc.build_periodic_cmv(alpha)
    k1 = -np.sum(alpha * np.conj(np.roll(alpha, -1)))
    assert abs(cc.trace_power(m, 1) - k1) <= 1e-13


def test_periodic_diagonal_formulas_match_dense():
    for n in (2, 4, 18):
        alpha, m = _random_matrix(RNG, n, "periodic", real=False)
        band = cc.periodic_diagonals(alpha[None, :])[0]
        idx = np.arange(n)
        dense = np.zeros((n, n), complex)
        for d in range(-2, 3):  # offsets that wrap onto one entry add up
            np.add.at(dense, (idx, (idx + d) % n), band[d + 2])
        assert np.abs(dense - m.l_factor @ m.m_factor).max() <= 1e-14


def test_open_diagonal_formulas_match_dense():
    for n in (2, 3, 9):
        for real in (False, True):
            alpha, m = _random_matrix(RNG, n, "open", real)
            band = cc.open_diagonals(alpha)
            product = m.l_factor @ m.m_factor
            assert band.dtype == product.dtype
            idx = np.arange(n)
            for d in range(-2, 3):
                inside = (idx + d >= 0) & (idx + d < n)
                assert np.all(band[d + 2, ~inside] == 0.0)
                got = band[d + 2, inside]
                want = product[idx[inside], idx[inside] + d]
                assert np.abs(got - want).max(initial=0.0) <= 1e-14


@pytest.mark.parametrize("topology", ["periodic", "open"])
def test_dense_matches_block_factor_product(topology):
    for n in range(2, 13):
        if topology == "periodic" and n % 2:
            continue
        for real in (False, True):
            _, m = _random_matrix(RNG, n, topology, real)
            product = m.l_factor @ m.m_factor
            assert m.dense().dtype == product.dtype
            assert np.abs(m.dense() - product).max() <= 1e-14


def test_batch_rows_past_the_block_match_single_rows():
    rows = 2 * cc._BLOCK + 3
    for topology, real in (("periodic", False), ("open", True)):
        batch = np.stack([_random_matrix(RNG, 10, topology, real)[0]
                          for _ in range(rows)])
        traces = cc.batch_trace_powers(batch, 7, topology)
        assert traces.shape == (rows, 7)
        for b in range(rows):
            single = cc.batch_trace_powers(batch[b], 7, topology)[0]
            assert np.abs(traces[b] - single).max() <= 1e-13


def test_batch_trace_powers_rejects_bad_input():
    with pytest.raises(ValueError):
        cc.batch_trace_powers(np.zeros(4), 2, "torus")
    with pytest.raises(ValueError):
        cc.batch_trace_powers(np.zeros(5), 2)
    with pytest.raises(ValueError):
        cc.batch_trace_powers(np.full(4, 0.5), 2, "open")
    assert cc.batch_trace_powers(np.zeros((3, 4)), 0).shape == (3, 0)


def test_batched_trace_powers_match_loop():
    batch = np.stack([random_interior_alpha(RNG, 16) for _ in range(7)])
    traces = cc.batch_trace_powers(batch, 6)
    assert traces.shape == (7, 6)
    for b in range(7):
        m = cc.build_periodic_cmv(batch[b])
        for ell in range(1, 7):
            assert abs(traces[b, ell - 1] - cc.trace_power(m, ell)) <= 1e-10


def test_conserved_quantities_values():
    alpha = random_interior_alpha(RNG, 12)
    q = cc.conserved_quantities(alpha, ell_max=4)
    assert abs(q.k0 - np.prod(1 - np.abs(alpha) ** 2)) <= 1e-14
    assert abs(q.k1 - (-np.sum(alpha * np.conj(np.roll(alpha, -1))))) <= 1e-14
    m = cc.build_periodic_cmv(alpha)
    lam = np.linalg.eigvals(m.dense())
    for ell in range(1, 5):
        assert abs(q.trace_powers[ell - 1] - np.sum(lam**ell)) <= 1e-9
    assert abs(q.k1 - q.trace_powers[0]) <= 1e-13


# -------------------------------------------------------------------- e_plus

def test_e_plus_truncation_identity():
    # dagger(E+) + plus(dagger E) reassembles dagger(E) when offsets do not
    # collide mod n (n >= 6)
    alpha = random_interior_alpha(RNG, 10)
    m = cc.build_periodic_cmv(alpha)
    E = m.dense()
    P = cc.e_plus(m)
    Ed = E.conj().T
    Pd = cc._keep_upper_cyclic(Ed)
    assert np.abs(P.conj().T + Pd - Ed).max() <= 1e-15


def test_e_plus_open_topology_rejected():
    alpha = random_interior_alpha(RNG, 6)
    alpha[-1] = 1.0
    m = cc.build_cmv(alpha)
    with pytest.raises(cc.UnsupportedTopologyError):
        cc.e_plus(m)


def test_lax_commutator_forms_agree():
    alpha = random_interior_alpha(RNG, 16, rmax=0.7)
    m = cc.build_periodic_cmv(alpha)
    E = m.dense()
    P = cc.e_plus(m)
    A = P + P.conj().T
    B = P - cc._keep_upper_cyclic(E.conj().T)
    c1 = 1j * (E @ A - A @ E)
    c2 = 1j * (E @ B - B @ E)
    assert np.abs(c1 - c2).max() <= 1e-12


# ------------------------------------------------------------ trace potential

def test_trace_potential_torus_matches_eigen_sum():
    alpha = random_interior_alpha(RNG, 32)
    m = cc.build_periodic_cmv(alpha)
    p = Potential("torus", cos=[0.2, 1.0, -0.3], sin=[0.5, 0.1])
    angles = cc.eigen_angles(m)
    assert abs(cc.trace_potential(m, p) - p(angles).sum()) <= 1e-8


def test_trace_potential_interval_matches_paired_eigen_sum():
    alpha = random_interior_alpha(RNG, 15, real=True)
    alpha = np.append(alpha, -1.0)
    m = cc.build_cmv(alpha)
    p = Potential("interval", cheb=[0.1, 1.0, 0.0, -0.4])
    angles = cc.eigen_angles(m)
    x = np.cos(angles[angles >= 0])
    assert len(x) == 8
    assert abs(cc.trace_potential(m, p) - p(x).sum()) <= 1e-8


def test_trace_potential_open_circular_matches_eigen_sum():
    _, m = _random_matrix(RNG, 11, "open", real=False)
    p = Potential("torus", cos=[0.3, -0.7, 0.2, 0.1], sin=[0.4, 0.0, -0.2])
    angles = cc.eigen_angles(m)
    assert abs(cc.trace_potential(m, p) - p(angles).sum()) <= 1e-10


@pytest.mark.parametrize("topology", ["periodic", "open"])
def test_trace_potential_interval_rejects_complex_matrix(topology):
    # a complex spectrum is not conjugate-paired, so the pair rule is wrong
    _, m = _random_matrix(RNG, 8, topology, real=False)
    with pytest.raises(ValueError, match="real matrix"):
        cc.trace_potential(m, Potential("interval", cheb=[0.0, 1.0]))


# ----------------------------------------------------------------- properties

@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0, 0.95), st.floats(-np.pi, np.pi)),
        min_size=2,
        max_size=20,
    ).filter(lambda v: len(v) % 2 == 0)
)
def test_unitarity_property(polar):
    alpha = np.array([r * np.exp(1j * p) for r, p in polar])
    m = cc.build_periodic_cmv(alpha)
    assert cc.unitarity_residual(m) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 12), st.integers(0, 10**9))
def test_trace_identity_property(half, seed):
    rng = np.random.default_rng(seed)
    alpha = random_interior_alpha(rng, 2 * half)
    m = cc.build_periodic_cmv(alpha)
    k1 = -np.sum(alpha * np.conj(np.roll(alpha, -1)))
    assert abs(cc.trace_power(m, 1) - k1) <= 1e-12


# ------------------------------------------------------------------ json form

def test_json_round_trip_and_structural_entries():
    alpha = random_interior_alpha(RNG, 10)
    m = cc.build_periodic_cmv(alpha)
    blob = m.to_json()
    doc = json.loads(blob)
    assert doc["n"] == 10 and doc["topology"] == "periodic"
    # no entry outside the structural pattern, and the dense matrix rebuilds
    mask = np.abs(reference_periodic_entries(np.full(10, 0.5 + 0.25j))) > 0
    for r, c, re, im in doc["entries"]:
        assert mask[r, c]
    m2 = cc.CmvMatrix.from_json(blob)
    assert np.abs(m2.dense() - m.dense()).max() <= 1e-15


def test_trace_power_after_json_round_trip():
    for n, topology in ((4, "periodic"), (10, "periodic"), (7, "open")):
        _, m = _random_matrix(RNG, n, topology, real=False)
        m2 = cc.CmvMatrix.from_json(m.to_json())
        assert m2.alpha is None
        for ell in range(8):
            assert abs(cc.trace_power(m2, ell) - cc.trace_power(m, ell)) \
                <= 1e-12


def _json_doc(n, topology, entries):
    return json.dumps({"n": n, "topology": topology, "entries": entries})


@pytest.mark.parametrize("blob", [
    _json_doc(4, "torus", [[0, 0, 1.0, 0.0]]),
    _json_doc(5, "periodic", [[0, 0, 1.0, 0.0]]),
    _json_doc(0, "periodic", []),
    _json_doc(1, "open", [[0, 0, 1.0, 0.0]]),
    _json_doc(4, "periodic", [[-1, 0, 1.0, 0.0]]),
    _json_doc(4, "open", [[7, 0, 1.0, 0.0]]),
    _json_doc(4, "open", [[0, 4, 1.0, 0.0]]),
    _json_doc(4, "open", [[0, 3, 1.0, 0.0]]),
    _json_doc(8, "periodic", [[0, 4, 1.0, 0.0]]),
    _json_doc(8, "periodic", [[0, 6, 1.0, 0.0]]),
], ids=["unknown-topology", "odd-ring", "empty-ring", "open-size-1",
        "negative-row", "row-past-n", "column-past-n", "open-outside-band",
        "ring-outside-band", "ring-even-row-offset-minus-2"])
def test_from_json_rejects_bad_documents(blob):
    with pytest.raises(ValueError):
        cc.CmvMatrix.from_json(blob)


def test_verblunsky_vector_validation():
    with pytest.raises(ValueError):
        cc.VerblunskyVector(np.array([0.2, 1.2]), cc.BoundaryMode.ALL_INTERIOR)
    v = cc.VerblunskyVector(np.array([0.2, -1.0]), cc.BoundaryMode.LAST_MINUS_ONE)
    assert v.n == 2
    with pytest.raises(ValueError):
        cc.VerblunskyVector(np.array([0.2, 0.5]), cc.BoundaryMode.LAST_ON_CIRCLE)
