"""Lax matrix construction, spectra, and banded trace powers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ggelab import cmv_core as cc
from ggelab.dynamics import IntegratorParams, gge_invariance_test, lax_residual
from ggelab.equilibrium import SolverParams, minimize_torus
from ggelab.ldp_lab import check_dos_relation
from ggelab.potentials import Potential
from ggelab.sampling import EnsembleSpec, sample_chi

from helpers import (block_factors, einsum_next_power, keep_upper_cyclic,
                     random_interior_alpha, reference_periodic_entries,
                     unitarity_residual)


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
    assert unitarity_residual(m) <= 1e-12


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


def _circle_gap(angles, z):
    """Largest distance on the circle from an angle to the nearest oracle
    eigenvalue z, and from an oracle eigenvalue to the nearest angle."""
    dist = np.abs(np.exp(1j * np.asarray(angles))[:, None] - z[None, :])
    return max(dist.min(axis=1).max(), dist.min(axis=0).max())


def _assert_principal(angles):
    assert np.all(np.diff(angles) >= 0)
    assert angles.min() >= -np.pi and angles.max() < np.pi


@pytest.mark.parametrize("topology, real", [
    ("periodic", False), ("open", False), ("open", True)])
def test_dense_eigen_angles_match_numpy_eigvals(topology, real):
    # np.linalg.eigvals (LAPACK geev) is the oracle of the Cayley route
    rng = np.random.default_rng(510)
    sizes = list(range(2, 65, 2 if topology == "periodic" else 1))
    for n in sizes + [128, 256]:
        for _ in range(3 if n <= 64 else 1):
            _, m = _random_matrix(rng, n, topology, real)
            for matrix in (m, cc.CmvMatrix(m.topology, m.band)):
                got = cc.eigen_angles(matrix)
                _assert_principal(got)
                gap = _circle_gap(got, np.linalg.eigvals(matrix.dense()))
                assert gap <= 1e-12, (n, topology, real, gap)


@pytest.mark.parametrize("n", [2, 4, 8, 32, 64, 256])
def test_cayley_angles_near_minus_one(n):
    # random unitaries Q diag(exp(i theta)) Q* with an eigenvalue at
    # distance d from -1 on either side, and one at -1 itself
    rng = np.random.default_rng(900 + n)
    for d in (1e-2, 1e-4, 1e-6, 1e-8, 1e-12, 0.0):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, _ = np.linalg.qr(g)
        theta = rng.uniform(-np.pi, np.pi, n)
        theta[0] = np.pi - d
        theta[-1] = -np.pi + d
        U = (q * np.exp(1j * theta)) @ q.conj().T
        got = cc._cayley_angles(U)
        assert got.shape == (n,)
        assert _circle_gap(got, np.linalg.eigvals(U)) <= 1e-12, d


def _zero_ring(n):
    # E moves the even sites two places one way and the odd sites two
    # places the other: two cycles of n/2 sites, so for even n/2 the
    # eigenvalue -1 is exact and double
    return cc.build_periodic_cmv(np.zeros(n, complex))


@pytest.mark.parametrize("m", [
    *(_zero_ring(n) for n in (4, 8, 256)),
    cc.build_cmv(np.append(np.random.default_rng(9).uniform(-0.9, 0.9, 8),
                           -1.0)),
], ids=["ring4", "ring8", "ring256", "open9"])
def test_eigen_angles_at_minus_one(m):
    # I + E is singular: the solve raises on the zero rings and, on the real
    # open n = 9 row, returns a transform far from Hermitian whose
    # eigenvalues are all small; both take the second pass.  The oracle
    # itself may put -1 at either end of [-pi, pi)
    E = m.dense()
    assert np.abs(np.linalg.eigvals(E) + 1.0).min() <= 1e-12
    for matrix in (m, cc.CmvMatrix(m.topology, m.band)):
        got = cc.eigen_angles(matrix)
        _assert_principal(got)
        assert _circle_gap(got, np.linalg.eigvals(E)) <= 1e-12


def test_dense_eigen_angles_reject_non_finite_entries():
    m = cc.build_periodic_cmv(random_interior_alpha(RNG, 6))
    band = m.band.copy()
    band[2, 0] = np.nan
    with pytest.raises(cc.NumericalError, match="iteration failed"):
        cc.eigen_angles(cc.CmvMatrix(m.topology, band))


def test_dense_eigen_angles_reject_a_non_unitary_matrix():
    m = cc.build_periodic_cmv(random_interior_alpha(RNG, 8))
    band = m.band.copy()
    band[2, 3] += 1e-3
    with pytest.raises(cc.NumericalError, match="unit circle") as info:
        cc.eigen_angles(cc.CmvMatrix(m.topology, band))
    assert info.value.residual > 1e-9


def test_dense_eigen_angles_report_a_failed_iteration(monkeypatch):
    m = cc.build_periodic_cmv(random_interior_alpha(RNG, 6))

    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(cc.NumericalError, match="iteration failed"):
        cc.eigen_angles(m)


def test_dense_eigen_angles_report_a_failed_second_pass(monkeypatch):
    # a rotated pass whose transform is not Hermitian either is an error,
    # never a silent answer
    m = cc.build_periodic_cmv(random_interior_alpha(RNG, 6))
    monkeypatch.setattr(cc, "_cayley_pass",
                        lambda E: (np.zeros(len(E)), np.inf))
    with pytest.raises(cc.NumericalError, match="iteration failed"):
        cc.eigen_angles(m)


@pytest.mark.parametrize("above", [False, True])
def test_cayley_skew_just_above_rounding_takes_the_second_pass(monkeypatch,
                                                               above):
    # the first pass reports a skew at the trusted limit, or one ulp above
    # it: only the latter is redone, and the answer holds either way
    m = cc.build_periodic_cmv(random_interior_alpha(RNG, 32))
    first_pass, skews = cc._cayley_pass, []

    def spy(E):
        lam, skew = first_pass(E)
        if not skews:
            limit = (cc._SKEW_EPS * np.finfo(float).eps
                     * (1.0 + np.abs(lam).max()) ** 2)
            skew = np.nextafter(limit, np.inf) if above else limit
        skews.append(skew)
        return lam, skew

    monkeypatch.setattr(cc, "_cayley_pass", spy)
    got = cc.eigen_angles(m)
    assert len(skews) == (2 if above else 1)
    assert _circle_gap(got, np.linalg.eigvals(m.dense())) <= 1e-12


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
        L, M = block_factors(m)
        assert np.abs(dense - L @ M).max() <= 1e-14


def test_open_diagonal_formulas_match_dense():
    for n in (2, 3, 9):
        for real in (False, True):
            alpha, m = _random_matrix(RNG, n, "open", real)
            band = cc.open_diagonals(alpha)
            L, M = block_factors(m)
            product = L @ M
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
            L, M = block_factors(m)
            product = L @ M
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


# (n, ell_max, topology, real): the dos_torus shape, the real ring through
# its Jacobi band, an open matrix of both dtypes, and rings of 2 and 4 sites,
# where _pair_trace reads the pad rows of the buffers
_KERNEL_CASES = [(256, 16, "periodic", False), (128, 16, "periodic", True),
                 (10, 11, "open", False), (10, 11, "open", True),
                 (2, 16, "periodic", False), (2, 16, "periodic", True),
                 (4, 16, "periodic", False), (4, 16, "periodic", True)]


def _kernel_batch(case, rows, seed):
    n, _, topology, real = case
    rng = np.random.default_rng(seed)
    return np.stack([_random_matrix(rng, n, topology, real)[0]
                     for _ in range(rows)])


def _fresh_buffer_traces(batch, ell_max, topology):
    """batch_trace_powers block by block, each block with buffers of its
    own.  einsum may sum a product in another order for another row count
    (single rows of small rings differ in the last bits), so the blocks
    stay those of the kernel."""
    real_ring = topology == "periodic" and not np.iscomplexobj(batch)
    blocks = []
    for lo in range(0, len(batch), cc._BLOCK):
        block = batch[lo:lo + cc._BLOCK]
        if real_ring:
            band = cc.geronimus_diagonals(block)
            blocks.append(2 * cc._band_traces(band, ell_max, 2, 1))
        else:
            band = cc._DIAGONALS[topology](block)
            blocks.append(cc._band_traces(band, ell_max))
    return np.concatenate(blocks)


@pytest.mark.parametrize("case", _KERNEL_CASES,
                         ids=["-".join(map(str, c)) for c in _KERNEL_CASES])
def test_blocks_sharing_buffers_equal_fresh_buffers_bit_for_bit(case):
    # two full blocks and a ragged one, which takes the first rows of
    # buffers a full block has filled
    n, ell_max, topology, _ = case
    batch = _kernel_batch(case, 2 * cc._BLOCK + 5, 500)
    traces = cc.batch_trace_powers(batch, ell_max, topology)
    fresh = _fresh_buffer_traces(batch, ell_max, topology)
    assert traces.dtype == fresh.dtype
    assert traces.tobytes() == fresh.tobytes()
    if n == 256:  # rows this long are summed alike at any row count
        for row, got in zip(batch, traces):
            single = cc.batch_trace_powers(row, ell_max, topology)[0]
            assert got.tobytes() == single.tobytes()


def test_consecutive_calls_keep_nothing_between_them():
    cases = _KERNEL_CASES[:4] + [(6, 5, "periodic", False)]
    batches = [_kernel_batch(case, 2 * cc._BLOCK + 5, 600 + i)
               for i, case in enumerate(cases)]

    def call(i):
        _, ell_max, topology, _ = cases[i]
        return cc.batch_trace_powers(batches[i], ell_max, topology).tobytes()

    alone = [call(i) for i in range(len(cases))]
    for i in range(len(cases)):
        for j in range(len(cases)):
            if i != j:
                assert call(i) == alone[i] and call(j) == alone[j]


@pytest.mark.parametrize("ell_max", [0, 1, 2, 11, 16])
def test_each_half_power_buffer_is_allocated_once_per_call(ell_max,
                                                           monkeypatch):
    calls = []
    fresh = cc._power_buffer

    def counted(*args):
        calls.append(args)
        return fresh(*args)

    monkeypatch.setattr(cc, "_power_buffer", counted)
    for case in _KERNEL_CASES[:4]:
        topology = case[2]
        batch = _kernel_batch(case, 2 * cc._BLOCK + 5, 700)
        calls.clear()
        cc.batch_trace_powers(batch, ell_max, topology)
        assert len(calls) <= -(-ell_max // 2)


def _assert_einsum_bytes(batch, ell_max, topology, monkeypatch):
    """The kernel's traces against those of the einsum band product."""
    traces = cc.batch_trace_powers(batch, ell_max, topology)
    monkeypatch.setattr(cc, "_next_power", einsum_next_power)
    oracle = cc.batch_trace_powers(batch, ell_max, topology)
    assert traces.dtype == oracle.dtype
    assert traces.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("case", _KERNEL_CASES,
                         ids=["-".join(map(str, c)) for c in _KERNEL_CASES])
def test_band_product_equals_the_einsum_oracle_bit_for_bit(case, monkeypatch):
    _, ell_max, topology, _ = case
    _assert_einsum_bytes(_kernel_batch(case, 2 * cc._BLOCK + 5, 800),
                         ell_max, topology, monkeypatch)


@pytest.mark.parametrize("n", [2, 4, 32])
@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["zero", "minus-zero"])
def test_zero_rings_equal_the_einsum_oracle_bit_for_bit(zero, n, monkeypatch):
    batch = np.full((2 * cc._BLOCK + 5, n), complex(zero, zero))
    _assert_einsum_bytes(batch, 16, "periodic", monkeypatch)


@pytest.mark.parametrize("topology", ["periodic", "open"])
@pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.int64])
def test_traces_are_computed_in_double_precision(dtype, topology):
    rng = np.random.default_rng(900)
    n, rows = 64, 2 * cc._BLOCK + 5
    if np.dtype(dtype).kind == "i":  # the integers inside the disk: 0
        alpha = np.zeros((rows, n), dtype)
        if topology == "open":
            alpha[:, -1] = rng.choice([-1, 1], rows)
    else:
        real = np.dtype(dtype).kind == "f"
        alpha = np.stack([_random_matrix(rng, n, topology, real)[0]
                          for _ in range(rows)]).astype(dtype)
        if topology == "open":  # unimodular in single precision too
            alpha[:, -1] = -1.0 if real else 1j
    double = alpha.astype(np.result_type(alpha, np.float64))
    traces = cc.batch_trace_powers(alpha, 16, topology)
    assert traces.dtype == double.dtype
    assert traces.tobytes() == cc.batch_trace_powers(double, 16,
                                                     topology).tobytes()
    band = cc._DIAGONALS[topology](alpha)
    assert band.tobytes() == cc._DIAGONALS[topology](double).tobytes()
    if topology == "periodic" and np.dtype(dtype).kind != "c":
        assert (cc.geronimus_diagonals(alpha).tobytes()
                == cc.geronimus_diagonals(double).tobytes())


def test_open_last_entry_is_checked_in_the_input_precision():
    # |e^(0.3i)| is 1 in complex64 but misses 1 by 1e-8 once promoted
    alpha = np.array([0.3, 0.2j, np.exp(0.3j)], np.complex64)
    band = cc.open_diagonals(alpha)
    double = alpha.astype(complex)
    assert band.dtype == np.complex128
    assert band[2, -1] == -np.conj(double[-1]) * double[-2]


def test_conserved_quantities_are_computed_in_double_precision():
    alpha = random_interior_alpha(np.random.default_rng(901), 64, real=True)
    single = cc.conserved_quantities(alpha.astype(np.float32))
    double = cc.conserved_quantities(alpha.astype(np.float32).astype(float))
    assert single.k0 == double.k0 and single.k1 == double.k1
    assert single.trace_powers.tobytes() == double.trace_powers.tobytes()


def test_batch_trace_powers_rejects_more_than_two_axes():
    with pytest.raises(ValueError, match=r"got shape \(2, 3, 8\)"):
        cc.batch_trace_powers(np.zeros((2, 3, 8)), 4)


def test_batch_trace_powers_rejects_bad_input():
    with pytest.raises(ValueError):
        cc.batch_trace_powers(np.zeros(4), 2, "torus")
    with pytest.raises(ValueError):
        cc.batch_trace_powers(np.zeros(5), 2)
    with pytest.raises(ValueError):
        cc.batch_trace_powers(np.full(4, 0.5), 2, "open")
    assert cc.batch_trace_powers(np.zeros((3, 4)), 0).shape == (3, 0)


@pytest.mark.parametrize("alpha, topology", [
    (np.full(4, 1.5), "periodic"),
    ([0.3, 0.2, 1.0, 0.1], "periodic"),
    ([0.3, np.nan], "periodic"),
    ([0.3, 2.0, 1.0], "open"),
    ([[0.3, 0.2, -1.0], [0.3, -1.0, -1.0]], "open"),
], ids=["ring-outside", "ring-on-circle", "ring-nan", "open-outside",
        "open-second-row-on-circle"])
def test_batch_trace_powers_rejects_entries_off_the_open_disk(alpha, topology):
    with pytest.raises(ValueError, match=r"\|alpha_j\| < 1"):
        cc.batch_trace_powers(alpha, 2, topology)


def test_batched_trace_powers_match_loop():
    batch = np.stack([random_interior_alpha(RNG, 16) for _ in range(7)])
    traces = cc.batch_trace_powers(batch, 6)
    assert traces.shape == (7, 6)
    for b in range(7):
        m = cc.build_periodic_cmv(batch[b])
        for ell in range(1, 7):
            assert abs(traces[b, ell - 1] - cc.trace_power(m, ell)) <= 1e-10


# ------------------------------------------------- Geronimus Jacobi band

@pytest.mark.parametrize("n", [2, 4, 6, 8, 32, 128, 256])
def test_geronimus_spectrum_is_the_cmv_cosine_spectrum(n):
    # each eigenvalue x of X = J/2, taken twice, is cos(theta) of a conjugate
    # pair; rings of n = 2 and 4 wrap the corner onto the inner offsets
    rng = np.random.default_rng(300 + n)
    for _ in range(3):
        alpha = random_interior_alpha(rng, n, rmax=0.95, real=True)
        band = cc.geronimus_diagonals(alpha[None])[0]
        assert band.shape == (3, n // 2)
        x = np.linalg.eigvalsh(cc._scatter(band))
        lam = np.linalg.eigvals(cc.build_periodic_cmv(alpha).dense())
        assert np.abs(np.sort(np.r_[x, x]) - np.sort(lam.real)).max() <= 1e-13


@pytest.mark.parametrize("n", [2, 4, 6, 8, 12, 32, 64])
def test_chebyshev_traces_match_the_cmv_band_kernel(n):
    # real rings take Tr E^k = 2 Tr T_k(X); the CMV band kernel and the
    # eigenvalue sums stay the oracle
    rng = np.random.default_rng(400 + n)
    alphas = np.stack([random_interior_alpha(rng, n, rmax=0.95, real=True)
                       for _ in range(5)])
    got = cc.batch_trace_powers(alphas, 16)
    oracle = cc._band_traces(cc.periodic_diagonals(alphas), 16)
    assert got.dtype == oracle.dtype == np.float64
    assert np.abs(got - oracle).max() <= 1e-12 * n
    for row, traces in zip(alphas, got):
        lam = np.linalg.eigvals(cc.build_periodic_cmv(row).dense())
        sums = (lam[:, None] ** np.arange(1, 17)).sum(axis=0)
        assert np.abs(traces - sums).max() <= 1e-12 * n


def test_geronimus_diagonals_check_their_input():
    with pytest.raises(ValueError, match="real coefficients"):
        cc.geronimus_diagonals(np.full(4, 0.1 + 0.1j))
    with pytest.raises(ValueError, match="even"):
        cc.geronimus_diagonals(np.zeros(5))
    for bad in (np.array([0.2, 1.0]), np.array([np.nan, 0.1])):
        with pytest.raises(ValueError, match=r"\|alpha_j\| < 1"):
            cc.geronimus_diagonals(bad)


@pytest.mark.parametrize("topology, real", [("periodic", True),
                                            ("periodic", False),
                                            ("open", True), ("open", False)])
def test_traces_do_not_depend_on_ell_max(topology, real):
    # every Tr P_k comes from one pair rule, so a column is the same bits
    # whatever the number of columns asked for
    for n in (2, 4, 6, 12, 40):
        if topology == "open" and n == 2:
            continue
        alphas = np.stack([_random_matrix(RNG, n, topology, real)[0]
                           for _ in range(20)])
        full = cc.batch_trace_powers(alphas, 16, topology)
        for ell_max in range(16):
            assert np.array_equal(
                cc.batch_trace_powers(alphas, ell_max, topology),
                full[:, :ell_max]), (n, ell_max)


@pytest.mark.parametrize("power, error", [
    (2.5, TypeError), ("3", TypeError), (None, TypeError), (2.0, TypeError),
    (-1, ValueError),
])
def test_powers_must_be_nonnegative_integers(power, error):
    m = cc.build_periodic_cmv(np.array([0.1, 0.2, -0.3, 0.4]))
    with pytest.raises(error, match="ell_max"):
        cc.batch_trace_powers(m.alpha, power)
    with pytest.raises(error, match="ell "):
        cc.trace_power(m, power)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_positive_rejects_zero_negative_and_non_finite(value):
    with pytest.raises(ValueError,
                       match=r"^width must be positive and finite, got "):
        cc._positive(value, "width")


@pytest.mark.parametrize("value", [1e-300, 2, np.float64(0.5)])
def test_positive_accepts_positive_finite_values(value):
    cc._positive(value, "width")


@pytest.mark.parametrize("name, call", [
    ("beta", lambda v: EnsembleSpec("al", 8, v)),
    ("beta", lambda v: minimize_torus(None, v)),
    ("tolerance", lambda v: SolverParams(tolerance=v)),
    ("dt", lambda v: IntegratorParams(dt=v, t_final=1.0)),
    ("t_final", lambda v: IntegratorParams(dt=0.1, t_final=v)),
    ("dt", lambda v: gge_invariance_test(EnsembleSpec("al", 8, 1.0), 1.0,
                                         10, dt=v)),
    ("threshold", lambda v: check_dos_relation("al", None, 1.0, 8,
                                               threshold=v)),
    ("dt_probe", lambda v: lax_residual(np.zeros(6, complex), v)),
    ("dof", lambda v: sample_chi(v, np.random.default_rng(0), 3)),
], ids=["EnsembleSpec", "minimize_torus", "SolverParams",
        "IntegratorParams.dt", "IntegratorParams.t_final",
        "gge_invariance_test", "check_dos_relation", "lax_residual",
        "sample_chi"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
def test_every_positive_argument_takes_the_one_rule(name, call, value):
    with pytest.raises(ValueError,
                       match=rf"^{name} must be positive and finite, got "):
        call(value)


def test_numpy_integer_powers_are_accepted():
    alpha = np.array([0.1, 0.2, -0.3, 0.4])
    m = cc.build_periodic_cmv(alpha)
    want = cc.batch_trace_powers(alpha, 3)
    assert np.array_equal(cc.batch_trace_powers(alpha, np.int64(3)), want)
    assert cc.trace_power(m, np.int32(3)) == cc.trace_power(m, 3)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 32, 128, 256])
def test_real_ring_eigen_angles_match_the_dense_spectrum(n):
    # arccos loses accuracy near x = +-1, as does the dense pair split, so x
    # is compared directly and |theta| within 1e-13 / |sin theta|; a pair
    # near -1 may sit at -pi on one path and at +-(pi - eps) on the other
    rng = np.random.default_rng(500 + n)
    for _ in range(3):
        alpha = random_interior_alpha(rng, n, rmax=0.95, real=True)
        m = cc.build_periodic_cmv(alpha)
        got = cc.eigen_angles(m)
        dense = cc.eigen_angles(cc.CmvMatrix(m.topology, m.band))
        assert got.shape == (n,) and np.all(np.diff(got) >= 0)
        assert got.min() >= -np.pi and got.max() < np.pi
        assert np.abs(np.sort(np.cos(got))
                      - np.sort(np.cos(dense))).max() <= 1e-13
        got, dense = np.sort(np.abs(got)), np.sort(np.abs(dense))
        bound = 1e-13 / np.maximum(np.abs(np.sin(dense)), 1e-300)
        assert np.all(np.abs(got - dense) <= bound)


def test_real_ring_eigen_angles_at_the_band_edges():
    # theta = pi is reported as -pi and theta = 0 as +0, as on the dense path
    for n, want in ((2, [0.0, 0.0]), (4, [-np.pi, -np.pi, 0.0, 0.0])):
        angles = cc.eigen_angles(cc.build_periodic_cmv(np.zeros(n)))
        assert np.array_equal(angles, want)
        assert not np.any(np.signbit(angles[angles == 0.0]))


def test_real_ring_eigen_angles_reject_a_spectrum_off_the_interval(
        monkeypatch):
    m = cc.build_periodic_cmv(np.array([0.1, 0.2, -0.3, 0.4]))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: np.array([-0.5, 1.0 + 2e-9]))
    with pytest.raises(cc.NumericalError, match=r"outside \[-1, 1\]") as info:
        cc.eigen_angles(m)
    assert info.value.residual == pytest.approx(2e-9, rel=1e-6)


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


def test_batched_conserved_quantities_keep_leading_axes():
    rng = np.random.default_rng(25)
    a = np.stack([random_interior_alpha(rng, 6, rmax=0.6, real=True)
                  for _ in range(6)]).reshape(2, 3, 6)
    q = cc.conserved_quantities(a, 3)
    assert q.k0.shape == (2, 3) and q.k1.shape == (2, 3)
    assert q.k1.dtype == complex and q.trace_powers.shape == (2, 3, 3)
    one = cc.conserved_quantities(a[1, 2], 3)
    assert q.k0[1, 2] == one.k0 and q.k1[1, 2] == one.k1
    assert np.array_equal(q.trace_powers[1, 2], one.trace_powers)


# -------------------------------------------------------------------- e_plus

def test_e_plus_truncation_identity():
    # dagger(E+) + plus(dagger E) reassembles dagger(E) when offsets do not
    # collide mod n (n >= 6)
    alpha = random_interior_alpha(RNG, 10)
    m = cc.build_periodic_cmv(alpha)
    E = m.dense()
    P = cc.e_plus(m)
    Ed = E.conj().T
    Pd = keep_upper_cyclic(Ed)
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
    B = P - keep_upper_cyclic(E.conj().T)
    c1 = 1j * (E @ A - A @ E)
    c2 = 1j * (E @ B - B @ E)
    assert np.abs(c1 - c2).max() <= 1e-12


# ------------------------------------------------------ Tr V from traces

def _trace_of_v(alpha, p, topology):
    """Tr V(E): the atom count times the spectral mean of the power traces."""
    traces = cc.batch_trace_powers(alpha, p.degree, topology)
    return p.atoms(alpha.size) * p.spectral_mean(traces, alpha.size)[0]


def test_trace_of_v_torus_matches_eigen_sum():
    alpha = random_interior_alpha(RNG, 32)
    m = cc.build_periodic_cmv(alpha)
    p = Potential("torus", cos=[0.2, 1.0, -0.3], sin=[0.5, 0.1])
    angles = cc.eigen_angles(m)
    assert abs(_trace_of_v(alpha, p, "periodic") - p(angles).sum()) <= 1e-8


def test_trace_of_v_interval_matches_paired_eigen_sum():
    alpha = random_interior_alpha(RNG, 15, real=True)
    alpha = np.append(alpha, -1.0)
    m = cc.build_cmv(alpha)
    p = Potential("interval", cheb=[0.1, 1.0, 0.0, -0.4])
    angles = cc.eigen_angles(m)
    x = np.cos(angles[angles >= 0])
    assert len(x) == 8
    assert abs(_trace_of_v(alpha, p, "open") - p(x).sum()) <= 1e-8


def test_trace_of_v_open_circular_matches_eigen_sum():
    alpha, m = _random_matrix(RNG, 11, "open", real=False)
    p = Potential("torus", cos=[0.3, -0.7, 0.2, 0.1], sin=[0.4, 0.0, -0.2])
    angles = cc.eigen_angles(m)
    assert abs(_trace_of_v(alpha, p, "open") - p(angles).sum()) <= 1e-10


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
    assert unitarity_residual(m) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 12), st.integers(0, 10**9))
def test_trace_identity_property(half, seed):
    rng = np.random.default_rng(seed)
    alpha = random_interior_alpha(rng, 2 * half)
    m = cc.build_periodic_cmv(alpha)
    k1 = -np.sum(alpha * np.conj(np.roll(alpha, -1)))
    assert abs(cc.trace_power(m, 1) - k1) <= 1e-12


@pytest.mark.parametrize("n,topology", [(4, "periodic"), (10, "periodic"),
                                        (7, "open")])
def test_band_only_matrix_keeps_its_traces(n, topology):
    # a matrix built from a band alone has no coefficients, but its dense
    # form and trace powers are those of the original
    _, m = _random_matrix(RNG, n, topology, real=False)
    m2 = cc.CmvMatrix(m.topology, m.band)
    assert m2.alpha is None
    assert np.array_equal(m2.dense(), m.dense())
    E = m.dense()
    for ell in range(8):
        dense_trace = np.trace(np.linalg.matrix_power(E, ell))
        assert abs(cc.trace_power(m2, ell) - dense_trace) <= 1e-12
        assert abs(cc.trace_power(m2, ell) - cc.trace_power(m, ell)) <= 1e-12


def test_verblunsky_vector_validation():
    v = cc.VerblunskyVector(np.array([0.2, -0.5j]))
    assert v.n == 2
    # a unimodular last entry is an open row's, checked by its band
    for last in (1.2, 1.0, -1.0, 1j):
        with pytest.raises(ValueError, match=r"\|alpha\| < 1"):
            cc.VerblunskyVector(np.array([0.2, last]))


@pytest.mark.parametrize("where", ["interior", "last"])
def test_verblunsky_vector_rejects_nan(where):
    a = np.array([0.1, 0.2, 0.3, 0.4], complex)
    cc.VerblunskyVector(a)
    a[0 if where == "interior" else -1] = np.nan
    with pytest.raises(ValueError, match="must"):
        cc.VerblunskyVector(a)


@pytest.mark.parametrize("build", [
    cc.build_cmv, cc.open_diagonals,
    lambda a: cc.batch_trace_powers([a], 2, "open")],
    ids=["build_cmv", "open_diagonals", "batch_trace_powers"])
def test_open_row_rejects_a_nan_last_entry(build):
    with pytest.raises(ValueError, match="last entry must be unimodular"):
        build(np.array([0.1, 0.2, np.nan]))
