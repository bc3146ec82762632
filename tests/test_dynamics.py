"""Flows, conservation, the Lax identity, and Gibbs-ensemble invariance.

Closed-form anchors: constant data alpha_j = c evolves as c e^{-2i|c|^2 t}
under the lattice flow (substitute the ansatz: the neighbor sum is 2c and
the bracket collapses to -2i|c|^2 c), and the Hamiltonian
H = -2 ln prod(rho^2) + 2 Re K1 generates the same vector field through
alphadot_j = -i rho_j^2 (dH/dx_j + i dH/dy_j)/2.
"""

import math

import numpy as np
import pytest
from scipy import stats

from ggelab.cmv_core import (
    NumericalError,
    VerblunskyVector,
    build_periodic_cmv,
    conserved_quantities,
    e_plus,
)
from ggelab import cmv_core, dynamics
from ggelab.dynamics import (
    _Rk4,
    _neighbours,
    ConservationReport,
    FlowState,
    IntegratorParams,
    al_rhs,
    conservation_report,
    gge_invariance_test,
    integrate,
    lax_residual,
    schur_rhs,
)
from ggelab.sampling import EnsembleSpec, SampleBatch, make_rng

from helpers import (keep_upper_cyclic, random_interior_alpha,
                     reference_rk4_step, unitarity_residual)


def lattice_hamiltonian(a):
    k0 = np.prod(1.0 - np.abs(a) ** 2)
    k1 = -np.sum(a * np.conj(np.roll(a, -1)))
    return -2.0 * np.log(k0) + 2.0 * k1.real


def hamiltonian_vector_field(a, step=1e-6):
    """alphadot_j = -i rho_j^2 dH/dconj(alpha_j) by central differences."""
    out = np.empty_like(a)
    for j in range(a.size):
        e = np.zeros_like(a)
        e[j] = step
        dx = (lattice_hamiltonian(a + e) - lattice_hamiltonian(a - e))
        e[j] = 1j * step
        dy = (lattice_hamiltonian(a + e) - lattice_hamiltonian(a - e))
        wirtinger = (dx + 1j * dy) / (4.0 * step)
        out[j] = -1j * (1.0 - abs(a[j]) ** 2) * wirtinger
    return out


class TestAlRhs:
    def test_zero_data_is_fixed_point(self):
        out = al_rhs(np.zeros(8, complex))
        assert np.abs(out).max() == 0.0

    def test_constant_vector_rotates_uniformly(self):
        c = 0.37 - 0.21j
        out = al_rhs(np.full(10, c))
        expected = -2j * abs(c) ** 2 * c
        assert np.abs(out - expected).max() < 1e-15

    @pytest.mark.parametrize("n", [2, 6])
    def test_matches_hamiltonian_gradient_flow(self, n):
        rng = np.random.default_rng(50 + n)
        a = random_interior_alpha(rng, n, rmax=0.6)
        gap = np.abs(al_rhs(a) - hamiltonian_vector_field(a)).max()
        assert gap < 1e-8, f"vector field off the Hamiltonian flow by {gap:.2e}"

    def test_cyclic_equivariance(self):
        rng = np.random.default_rng(3)
        a = random_interior_alpha(rng, 12)
        for k in (1, 5):
            gap = np.abs(al_rhs(np.roll(a, k)) - np.roll(al_rhs(a), k)).max()
            assert gap < 1e-15

    def test_batched_rows_match_loop(self):
        rng = np.random.default_rng(4)
        A = np.stack([random_interior_alpha(rng, 8) for _ in range(5)])
        batched = al_rhs(A)
        for i in range(5):
            assert np.abs(batched[i] - al_rhs(A[i])).max() == 0.0

    def test_accepts_states_and_vectors(self):
        rng = np.random.default_rng(5)
        a = random_interior_alpha(rng, 6)
        from_state = al_rhs(FlowState(a, time=2.0))
        from_vector = al_rhs(VerblunskyVector(a))
        assert np.array_equal(from_state, from_vector)
        assert np.array_equal(from_state, al_rhs(a))


class TestRingSize:
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_flow_state_rejects_odd_or_tiny_rings(self, n):
        with pytest.raises(ValueError, match="even size >= 2"):
            FlowState(np.zeros(n, complex))

    @pytest.mark.parametrize("last", [1.0, -1.0, 1j])
    def test_flow_state_rejects_a_unimodular_entry(self, last):
        with pytest.raises(ValueError, match=r"\|alpha\| < 1"):
            FlowState(np.array([0.1, 0.2, 0.3, last], complex))

    @pytest.mark.parametrize("where", [0, 3])
    def test_flow_state_rejects_nan(self, where):
        a = np.array([0.1, 0.2, 0.3, 0.4], complex)
        a[where] = np.nan
        with pytest.raises(ValueError, match=r"\|alpha\| < 1"):
            FlowState(a)

    @pytest.mark.parametrize("shape", [(1,), (3,), (5, 3)])
    def test_rhs_rejects_odd_rings(self, shape):
        with pytest.raises(ValueError, match="even size >= 2"):
            al_rhs(np.zeros(shape, complex))
        with pytest.raises(ValueError, match="even size >= 2"):
            schur_rhs(np.zeros(shape))

    @pytest.mark.parametrize("n", [2, 4])
    def test_small_rings_match_rolled_formula(self, n):
        # the slicing kernel's first and last site coincide with the
        # wrap-around of the interior on these rings
        rng = np.random.default_rng(60 + n)
        a = random_interior_alpha(rng, n)
        nb = np.roll(a, -1) + np.roll(a, 1)
        rolled = 1j * ((1.0 - np.abs(a) ** 2) * nb - 2.0 * a)
        assert al_rhs(a).tobytes() == rolled.tobytes()
        x = a.real
        rolled = (1.0 - x ** 2) * (np.roll(x, -1) - np.roll(x, 1))
        assert schur_rhs(x).tobytes() == rolled.tobytes()

    def test_strided_batches_match_rolled_formula(self):
        # non-contiguous inputs, and a non-contiguous output buffer
        rng = np.random.default_rng(64)
        A = np.stack([random_interior_alpha(rng, 12) for _ in range(8)])
        for v in (A[::2, ::3], np.asfortranarray(A), A[:, 1:9]):
            nb = np.roll(v, -1, axis=-1) + np.roll(v, 1, axis=-1)
            rolled = 1j * ((1.0 - np.abs(v) ** 2) * nb - 2.0 * v)
            assert al_rhs(v).tobytes() == rolled.tobytes()
            x = v.real
            diff = np.roll(x, -1, axis=-1) - np.roll(x, 1, axis=-1)
            assert schur_rhs(x).tobytes() == ((1.0 - x ** 2) * diff).tobytes()
            # the private kernel is site-major: the ring is the first axis
            out = np.zeros(v.shape).T
            _neighbours(x.T, np.subtract, out)
            assert out.T.tobytes() == diff.tobytes()


class TestSchurRhs:
    def test_formula(self):
        rng = np.random.default_rng(6)
        a = random_interior_alpha(rng, 10, real=True)
        out = schur_rhs(a)
        for j in range(10):
            expected = (1 - a[j] ** 2) * (a[(j + 1) % 10] - a[(j - 1) % 10])
            assert abs(out[j] - expected) < 1e-15

    def test_constant_is_stationary(self):
        assert np.abs(schur_rhs(np.full(8, 0.3))).max() == 0.0

    def test_unimodular_site_frozen(self):
        a = np.array([0.2, -0.4, 1.0, 0.1])
        assert schur_rhs(a)[2] == 0.0

    def test_complex_input_rejected(self):
        with pytest.raises(ValueError, match="real"):
            schur_rhs(np.array([0.1 + 0j, 0.2, 0.3, 0.0]))

    def test_output_stays_real_dtype(self):
        out = schur_rhs(np.array([0.5, -0.25, 0.0, 0.125]))
        assert not np.iscomplexobj(out)


class TestIntegratorParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorParams(dt=0.0, t_final=1.0)
        with pytest.raises(ValueError):
            IntegratorParams(dt=0.1, t_final=0.0)
        with pytest.raises(ValueError):
            IntegratorParams(dt=2.0, t_final=1.0)

    @pytest.mark.parametrize("dt, t_final", [(1e-3, math.inf),
                                             (math.nan, 1.0),
                                             (1e-3, math.nan)])
    def test_non_finite_values_rejected(self, dt, t_final):
        with pytest.raises(ValueError, match="finite"):
            IntegratorParams(dt=dt, t_final=t_final)


def _flow_states(flow, shape, rng):
    """Random, all-zero, negative-zero and constant states of one flow, of
    sample-major shape (..., n)."""
    real = flow == "schur"
    dtype = float if real else complex
    n = shape[-1]
    random = np.stack([random_interior_alpha(rng, n, rmax=0.8, real=real)
                       for _ in range(int(np.prod(shape[:-1])))])
    return {"random": random.reshape(shape),
            "zero": np.zeros(shape, dtype),
            "negative_zero": -np.zeros(shape, dtype),
            "constant": np.full(shape, 0.3 if real else 0.37 - 0.21j)}


class TestRk4Stepper:
    """The buffered stepper against fresh-array RK4 over al_rhs/schur_rhs.

    The stepper is site-major: a block of B rings of n sites has shape
    (n, B), the transpose of the (B, n) batch the public fields take.
    """

    @pytest.mark.parametrize("flow", ["al", "schur"])
    @pytest.mark.parametrize("shape", [(2,), (4,), (6,), (32,), (32, 50)])
    def test_bit_identical_to_reference(self, flow, shape):
        rhs = {"al": al_rhs, "schur": schur_rhs}[flow]
        rng = np.random.default_rng(70 + shape[0] + len(shape))
        for name, a0 in _flow_states(flow, shape[::-1], rng).items():
            for h in (0.01, -0.01):
                step = _Rk4(flow, shape)
                fast, ref = np.ascontiguousarray(a0.T), a0
                for k in range(200):
                    fast = step(fast, h)
                    ref = reference_rk4_step(rhs, ref, h)
                    assert fast.shape == shape
                    assert fast.dtype == ref.dtype
                    assert fast.T.tobytes() == ref.tobytes(), \
                        f"{name} state, h = {h}: bits differ at step {k + 1}"

    @pytest.mark.parametrize("flow", ["al", "schur"])
    def test_returns_fresh_arrays(self, flow):
        rng = np.random.default_rng(80)
        a0 = np.ascontiguousarray(_flow_states(flow, (3, 8), rng)["random"].T)
        step = _Rk4(flow, a0.shape)
        first = step(a0, 0.05)
        kept = first.copy()
        second = step(first, 0.05)
        assert first.tobytes() == kept.tobytes()
        assert not np.shares_memory(first, second)


class TestIntegrate:
    def test_zero_data_stays_zero(self):
        traj = integrate(np.zeros(8, complex), "al",
                         IntegratorParams(dt=0.1, t_final=1.0))
        assert np.abs(traj.alphas).max() == 0.0
        assert traj.times[0] == 0.0
        assert abs(traj.times[-1] - 1.0) < 1e-12
        assert traj.n_steps == 10

    def test_constant_data_orbit_fourth_order(self):
        c = 0.4 + 0.2j
        errs = []
        for dt in (0.02, 0.01):
            traj = integrate(np.full(8, c), "al",
                             IntegratorParams(dt=dt, t_final=2.0))
            exact = c * np.exp(-2j * abs(c) ** 2 * 2.0)
            errs.append(np.abs(traj.alphas[-1] - exact).max())
        assert errs[0] < 1e-9
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 24.0, f"halving dt gave ratio {ratio:.2f}"

    def test_frames_bounded_with_endpoints(self):
        traj = integrate(np.zeros(6, complex), "al",
                         IntegratorParams(dt=1e-3, t_final=1.0),
                         max_frames=11)
        assert len(traj) <= 11
        assert traj.times[0] == 0.0
        assert abs(traj.times[-1] - 1.0) < 1e-12

    def test_frame_cap_is_an_integer_of_at_least_two(self):
        params = IntegratorParams(dt=1e-3, t_final=0.01)
        for value in (2.5, 3.0, "3"):
            with pytest.raises(TypeError, match="max_frames must be an integer"):
                integrate(np.zeros(6, complex), "al", params, max_frames=value)
        with pytest.raises(ValueError, match="max_frames must be at least 2"):
            integrate(np.zeros(6, complex), "al", params, max_frames=1)
        assert len(integrate(np.zeros(6, complex), "al", params,
                             max_frames=np.int64(3))) == 3

    def test_noncommensurate_final_time_rounds(self):
        traj = integrate(np.zeros(4, complex), "al",
                         IntegratorParams(dt=0.3, t_final=1.0))
        assert traj.n_steps == 3
        assert abs(traj.times[-1] - 0.9) < 1e-12

    def test_leaving_the_polydisk_raises(self):
        rng = np.random.default_rng(7)
        bad = 0.98 * np.exp(2j * np.pi * rng.uniform(0, 1, 8))
        with pytest.raises(NumericalError, match="smaller dt"):
            integrate(bad, "al", IntegratorParams(dt=0.5, t_final=50.0))

    def test_schur_realness_is_bit_exact(self):
        rng = np.random.default_rng(8)
        a = random_interior_alpha(rng, 16, rmax=0.5, real=True)
        traj = integrate(a, "schur", IntegratorParams(dt=0.01, t_final=1.0))
        assert not np.iscomplexobj(traj.alphas)

    def test_schur_rejects_complex_state(self):
        with pytest.raises(ValueError, match="real"):
            integrate(np.array([0.1 + 0j, 0.2, -0.1, 0.05]), "schur",
                      IntegratorParams(dt=0.1, t_final=1.0))

    def test_invalid_flow(self):
        p = IntegratorParams(dt=0.1, t_final=1.0)
        with pytest.raises(ValueError, match="flow"):
            integrate(np.zeros(4, complex), "toda", p)

    def test_initial_state_must_be_interior(self):
        with pytest.raises(ValueError):
            integrate(np.array([0.2, 1.1, 0.0, 0.0], complex), "al",
                      IntegratorParams(dt=0.1, t_final=1.0))


@pytest.fixture(scope="module")
def al_run():
    """One lattice trajectory at the conservation budget parameters."""
    rng = np.random.default_rng(9)
    a = random_interior_alpha(rng, 32, rmax=0.5)
    return integrate(a, "al", IntegratorParams(dt=1e-3, t_final=10.0))


class _PastTheCircle:
    """Stand-in for _Rk4 whose first step puts site 0 at |alpha| =
    1 + 5e-9; every later step returns the state before that step, so
    the excursion lasts one step."""

    def __init__(self, flow, shape):
        self._before = None

    def __call__(self, a, h):
        if self._before is None:
            self._before = a.copy()
            out = a.copy()
            out[0] = 1.0 + 5e-9
            return out
        return self._before.copy()


class TestOnePolydiskRule:
    """Every step, kept as a frame or not, in a single run or an ensemble
    batch, must keep each site strictly inside the unit circle."""

    def test_integrate_rejects_a_step_that_is_not_a_frame(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_Rk4", _PastTheCircle)
        # four steps, frames at steps 2 and 4: step 1 is not kept
        with pytest.raises(NumericalError, match=r"left the unit polydisk "
                           r"\(max \|alpha\| = 1\.000000005 at t = 0\.1\); "
                           r"try a smaller dt"):
            integrate(np.zeros(6, complex), "al",
                      IntegratorParams(dt=0.1, t_final=0.4), max_frames=3)

    def test_invariance_test_rejects_the_same_step(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_Rk4", _PastTheCircle)
        spec = EnsembleSpec(kind="al", n=8, beta=1.0)
        with pytest.raises(NumericalError, match="left the unit polydisk"):
            gge_invariance_test(spec, 0.04, 4, make_rng(25), dt=0.02)


class TestConservation:
    def test_zero_data_zero_drift(self):
        traj = integrate(np.zeros(8, complex), "al",
                         IntegratorParams(dt=0.1, t_final=1.0))
        report = conservation_report(traj)
        assert report.max_drift == 0.0

    def test_al_drift_within_budget(self, al_run):
        report = conservation_report(al_run)
        assert report.max_drift <= 1e-6, \
            f"max drift {report.max_drift:.2e} exceeds 1e-6"
        assert set(report.drifts) == {"k0", "k1", "trace_1", "trace_2",
                                      "trace_3", "trace_4"}

    def test_schur_drift_within_budget(self):
        rng = np.random.default_rng(10)
        a = random_interior_alpha(rng, 32, rmax=0.5, real=True)
        traj = integrate(a, "schur", IntegratorParams(dt=1e-3, t_final=10.0))
        report = conservation_report(traj)
        assert report.max_drift <= 1e-6, \
            f"max drift {report.max_drift:.2e} exceeds 1e-6"

    def test_drift_scales_fourth_order(self):
        rng = np.random.default_rng(11)
        a = random_interior_alpha(rng, 32, rmax=0.5)
        drifts = []
        for dt in (4e-3, 2e-3):
            traj = integrate(a, "al", IntegratorParams(dt=dt, t_final=1.0))
            drifts.append(conservation_report(traj).max_drift)
        ratio = drifts[0] / drifts[1]
        assert 8.0 < ratio < 32.0, f"dt halving gave drift ratio {ratio:.2f}"

    def test_report_matches_conserved_quantities(self, al_run):
        series = conserved_quantities(al_run.alphas, 4)
        assert series.k0.shape == series.k1.shape == (len(al_run),)
        assert series.trace_powers.shape == (len(al_run), 4)
        for i in (0, len(al_run) // 2, len(al_run) - 1):
            one = conserved_quantities(al_run[i].alphas.alpha, 4)
            assert isinstance(one.k0, float) and isinstance(one.k1, complex)
            assert series.k0[i] == one.k0 and series.k1[i] == one.k1
            assert np.array_equal(series.trace_powers[i], one.trace_powers)
        report = conservation_report(al_run)
        k0 = series.k0
        assert report.drifts["k0"] == \
            np.abs(k0 - k0[0]).max() / max(abs(k0[0]), 1.0)
        t4 = series.trace_powers[:, 3]
        assert report.drifts["trace_4"] == \
            np.abs(t4 - t4[0]).max() / max(abs(t4[0]), 1.0)

    def test_dict_report(self, al_run):
        report = conservation_report(al_run)
        blob = report.to_dict()
        assert blob["flow"] == "al"
        assert blob["n_sites"] == 32
        assert blob["ell_max"] == 4 and type(blob["ell_max"]) is int
        assert blob["max_drift"] == report.max_drift

    def test_takes_only_a_trajectory(self, al_run):
        with pytest.raises(TypeError, match="takes a Trajectory, got list"):
            conservation_report(list(al_run))

    def test_unitarity_along_trajectory(self, al_run):
        worst = max(unitarity_residual(build_periodic_cmv(s.alphas.alpha))
                    for s in al_run)
        assert worst <= 1e-8, f"unitarity residual {worst:.2e}"

    def test_time_reversal_roundtrip(self):
        # the stepper of integrate, run back with step -dt, retraces a
        # forward run up to the scheme's own error
        rng = np.random.default_rng(13)
        a = random_interior_alpha(rng, 16, rmax=0.5)
        forward = integrate(a, "al", IntegratorParams(dt=1e-2, t_final=2.0))
        step = _Rk4("al", a.shape)
        b = a
        for _ in range(forward.n_steps):
            b = step(b, 1e-2)
        assert b.tobytes() == forward.alphas[-1].tobytes()
        for _ in range(forward.n_steps):
            b = step(b, -1e-2)
        round_trip = np.abs(b - a).max()
        finer = integrate(a, "al", IntegratorParams(dt=5e-3, t_final=2.0))
        one_way = np.abs(forward.alphas[-1] - finer.alphas[-1]).max()
        assert round_trip <= 10.0 * max(one_way, 1e-14), \
            f"round trip {round_trip:.2e} vs one-way {one_way:.2e}"


class TestLaxResidual:
    def test_zero_data(self):
        assert lax_residual(np.zeros(8, complex)) <= 1e-12

    def test_first_order_decay(self):
        rng = np.random.default_rng(14)
        a = random_interior_alpha(rng, 16, rmax=0.6)
        r1 = lax_residual(a, 1e-4)
        r2 = lax_residual(a, 5e-5)
        ratio = r1 / r2
        assert 1.7 < ratio < 2.3, f"probe halving gave ratio {ratio:.3f}"

    @pytest.mark.parametrize("n", [2, 4])
    def test_first_order_decay_on_small_rings(self, n):
        # band offsets wrap onto shared entries here, so E+ must be
        # projected on the band, not on the dense matrix
        rng = np.random.default_rng(17 + n)
        a = random_interior_alpha(rng, n, rmax=0.6)
        r1 = lax_residual(a, 1e-4)
        r2 = lax_residual(a, 5e-5)
        ratio = r1 / r2
        assert r1 < 1e-2
        assert 1.7 < ratio < 2.3, f"probe halving gave ratio {ratio:.3f}"

    def test_commutator_forms_agree_on_random_states(self):
        # lax_residual forms the generator E+ + (E+)* + D only; E+ - (E*)+
        # + D gives the same commutator, since E* E = E E*
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.choice([6, 8, 12]))
            m = build_periodic_cmv(random_interior_alpha(rng, n, rmax=0.8))
            E, P = m.dense(), e_plus(m)
            D = np.diag(-((-1.0) ** np.arange(n)))
            A = P + P.conj().T + D
            B = P - keep_upper_cyclic(E.conj().T) + D
            assert np.abs((E @ A - A @ E) - (E @ B - B @ E)).max() <= 1e-12

    def test_small_residual_at_small_probe(self):
        rng = np.random.default_rng(16)
        a = random_interior_alpha(rng, 12, rmax=0.5)
        assert lax_residual(a, 1e-6) < 1e-4

    def test_a_probe_past_the_circle_raises(self):
        rng = np.random.default_rng(1)
        a = 0.6 * np.exp(2j * np.pi * rng.uniform(size=8))
        with pytest.raises(NumericalError, match="smaller dt"):
            lax_residual(a, 2.0)

    def test_invalid_probe_rejected(self):
        with pytest.raises(ValueError):
            lax_residual(np.zeros(6, complex), 0.0)


class TestGgeInvariance:
    def test_t_zero_is_identity(self):
        spec = EnsembleSpec(kind="al", n=8, beta=1.0)
        report = gge_invariance_test(spec, 0.0, 200, make_rng(17))
        for stat in report.statistics.values():
            assert stat["p_value"] == 1.0
            assert stat["pre_mean"] == stat["post_mean"]

    def test_al_ensemble_is_invariant(self):
        spec = EnsembleSpec(kind="al", n=32, beta=1.0)
        report = gge_invariance_test(spec, 5.0, 2000, make_rng(123))
        assert report.passes(0.01), f"p-values {report.p_values}"
        assert report.warnings == ()
        assert report.n_samples == 2000

    def test_schur_ensemble_is_invariant(self):
        spec = EnsembleSpec(kind="schur", n=16, beta=1.0)
        report = gge_invariance_test(spec, 2.0, 500, make_rng(42))
        assert report.passes(0.01), f"p-values {report.p_values}"

    def test_small_sample_warning(self):
        spec = EnsembleSpec(kind="al", n=8, beta=1.0)
        report = gge_invariance_test(spec, 0.5, 50, make_rng(19))
        assert report.warnings
        assert "50 samples" in report.warnings[0]

    def test_too_few_samples_rejected(self):
        spec = EnsembleSpec(kind="al", n=8, beta=1.0)
        with pytest.raises(ValueError, match="two samples"):
            gge_invariance_test(spec, 1.0, 1, make_rng(20))

    def test_non_integral_sample_count_rejected(self):
        spec = EnsembleSpec(kind="al", n=8, beta=1.0)
        with pytest.raises(TypeError, match="n_samples must be an integer"):
            gge_invariance_test(spec, 1.0, 2.5, make_rng(20))

    @pytest.mark.parametrize("dt, t_final, name", [
        (-0.02, 1.0, "dt"), (0.0, 1.0, "dt"), (math.nan, 1.0, "dt"),
        (math.inf, 1.0, "dt"), (0.02, math.nan, "t_final"),
        (0.02, math.inf, "t_final"), (0.02, -1.0, "t_final")])
    def test_bad_step_or_horizon_rejected(self, dt, t_final, name):
        spec = EnsembleSpec(kind="al", n=8, beta=1.0)
        with pytest.raises(ValueError, match=name):
            gge_invariance_test(spec, t_final, 100, make_rng(23), dt=dt)

    def test_non_lattice_ensemble_rejected(self):
        spec = EnsembleSpec(kind="circular", n=8, beta=1.0)
        with pytest.raises(ValueError, match="al|schur"):
            gge_invariance_test(spec, 1.0, 100, make_rng(21))

    def test_report_fields(self):
        spec = EnsembleSpec(kind="al", n=8, beta=1.0)
        report = gge_invariance_test(spec, 0.5, 120, make_rng(22))
        assert (report.flow, report.n_sites, report.n_samples) == ("al", 8, 120)
        assert set(report.statistics) == {"mean_abs_sq", "mean_re"}
        for stat in report.statistics.values():
            assert set(stat) == {"pre_mean", "post_mean", "z", "p_value"}
        assert report.p_values == {k: v["p_value"]
                                   for k, v in report.statistics.items()}

    def test_makes_no_trace_call(self, monkeypatch):
        # conservation is checked by conservation_report alone
        def no_traces(*args, **kwargs):
            raise AssertionError("gge_invariance_test computed power traces")
        monkeypatch.setattr(cmv_core, "_band_traces", no_traces)
        for kind in ("al", "schur"):
            report = gge_invariance_test(EnsembleSpec(kind, 16, 1.0), 0.5,
                                         200, make_rng(26))
            assert set(report.statistics) == {"mean_abs_sq", "mean_re"}

    def test_paired_z_is_the_mean_difference_over_its_error(self,
                                                           monkeypatch):
        calls = []
        real = dynamics._ensemble_statistics

        def spy(A):
            calls.append(real(A))
            return calls[-1]
        monkeypatch.setattr(dynamics, "_ensemble_statistics", spy)
        report = gge_invariance_test(EnsembleSpec("al", 16, 1.0), 0.5, 300,
                                     make_rng(27))
        pre, post = calls
        for name, stat in report.statistics.items():
            d = post[name] - pre[name]
            z = d.mean() / (d.std(ddof=1) / math.sqrt(d.size))
            assert stat["z"] == pytest.approx(z, rel=1e-12)
            assert stat["pre_mean"] == np.mean(pre[name])
            assert stat["post_mean"] == np.mean(post[name])

    def test_paired_p_is_the_two_sided_normal_tail(self):
        rng = np.random.default_rng(28)
        noise = rng.standard_normal(400)
        noise = (noise - noise.mean()) / noise.std(ddof=1)
        pre = rng.standard_normal(400)
        zs = []
        for target in np.linspace(-8.0, 8.0, 81):
            # mean target / sqrt(n) over a unit standard deviation: z = target
            z, p = dynamics._paired_z(pre, pre + noise + target / 20.0)
            zs.append(z)
            assert p == pytest.approx(2.0 * stats.norm.sf(abs(z)), rel=1e-13)
        assert min(zs) < -7.9 and max(zs) > 7.9

    def test_paired_p_at_zero_and_infinite_z(self):
        pre = np.arange(50.0)
        assert dynamics._paired_z(pre, pre.copy()) == (0.0, 1.0)
        assert dynamics._paired_z(pre, pre + 0.5) == (math.inf, 0.0)


def _sign_alternating(A, rng):
    return (-1.0) ** np.arange(A.shape[-1]) * np.abs(A)


def _phase_walk(A, rng):
    phi = (rng.uniform(0.0, 2 * np.pi, (A.shape[0], 1))
           + np.cumsum(rng.normal(0.0, 0.3, A.shape), axis=-1))
    return np.abs(A) * np.exp(1j * phi)


class TestInvariancePositiveControls:
    """Laws that no flow leaves invariant must fail the check at the size of
    criterion 09 (n = 32, 2000 samples, t = 1, dt = 0.02): GGE moduli with
    their phases or signs replaced."""

    @pytest.mark.parametrize("kind, distort", [
        ("al", lambda A, rng: np.abs(A).astype(complex)),
        ("al", _phase_walk),
        ("schur", lambda A, rng: np.abs(A)),
        ("schur", _sign_alternating),
    ], ids=["al-phases-zero", "al-phase-walk", "schur-signs-plus",
            "schur-signs-alternating"])
    def test_non_invariant_law_fails(self, kind, distort, monkeypatch):
        real = dynamics.sample_ensemble

        def distorted(spec, mcmc, rng):
            batch = real(spec, mcmc, rng)
            return SampleBatch(alphas=distort(batch.alphas, rng),
                               kind=batch.kind, beta=batch.beta)
        monkeypatch.setattr(dynamics, "sample_ensemble", distorted)
        report = gge_invariance_test(EnsembleSpec(kind, 32, 1.0), 1.0, 2000,
                                     make_rng(99), dt=0.02)
        assert not report.passes(0.01)
        assert report.p_values["mean_abs_sq"] < 0.01


def _whole_batch_flow(flow, A, n_steps, h):
    """The ensemble flow as one fresh-array RK4 over the whole batch."""
    rhs = {"al": al_rhs, "schur": schur_rhs}[flow]
    for _ in range(n_steps):
        A = reference_rk4_step(rhs, A, h)
    return A


class TestBlockedEnsemble:
    """gge_invariance_test flows its batch site-major in column blocks;
    the oracle flows the whole sample-major batch at once."""

    @staticmethod
    def _width(flow, n):
        itemsize = 16 if flow == "al" else 8
        return dynamics.ENSEMBLE_BLOCK_BYTES // (n * itemsize)

    @pytest.mark.parametrize("flow, n", [("al", 32), ("schur", 16)])
    def test_statistics_bit_identical_to_whole_batch(self, flow, n,
                                                     monkeypatch):
        # two full blocks and a ragged tail
        n_samples = 2 * self._width(flow, n) + 37
        spec = EnsembleSpec(kind=flow, n=n, beta=1.0)
        got = gge_invariance_test(spec, 0.2, n_samples, make_rng(31))
        monkeypatch.setattr(dynamics, "_flow_ensemble", _whole_batch_flow)
        want = gge_invariance_test(spec, 0.2, n_samples, make_rng(31))
        assert repr(got.statistics) == repr(want.statistics)

    @pytest.mark.parametrize("flow", ["al", "schur"])
    def test_flowed_batch_is_bit_identical_and_sample_major(self, flow):
        n = 8
        shape = (2 * self._width(flow, n) + 5, n)
        rng = np.random.default_rng(90)
        for name, A in _flow_states(flow, shape, rng).items():
            got = dynamics._flow_ensemble(flow, A, 3, 0.05)
            want = _whole_batch_flow(flow, A, 3, 0.05)
            assert got.flags.c_contiguous and got.shape == shape
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), name

    def test_leaving_the_polydisk_in_a_later_block_raises(self, monkeypatch):
        # only the last row, in the ragged tail, is unstable: a constant
        # ring near the circle rotates at rate 2|c|^2, and RK4 amplifies
        # it at that rate times dt = 2
        n = 32
        A = np.zeros((2 * self._width("al", n) + 3, n), complex)
        A[-1] = 0.99
        spec = EnsembleSpec(kind="al", n=n, beta=1.0)
        batch = SampleBatch(alphas=A, kind="al", beta=1.0)
        monkeypatch.setattr(dynamics, "sample_ensemble",
                            lambda spec, mcmc, rng: batch)
        with pytest.raises(NumericalError, match=r"left the unit polydisk "
                           r"\(max \|alpha\| = .* at t = .*\); try a "
                           r"smaller dt"):
            gge_invariance_test(spec, 4.0, len(A), make_rng(24), dt=2.0)


class TestTrajectory:
    def test_sequence_protocol(self):
        traj = integrate(np.zeros(4, complex), "al",
                         IntegratorParams(dt=0.25, t_final=1.0))
        assert isinstance(traj[0], FlowState)
        assert len([s for s in traj]) == len(traj)
        assert traj[0].time == 0.0 and traj[-1].time == 1.0

    def test_frames_are_read_from_two_arrays(self):
        a = random_interior_alpha(np.random.default_rng(14), 6, rmax=0.5)
        traj = integrate(a, "al", IntegratorParams(dt=0.1, t_final=1.0),
                         max_frames=6)
        assert traj.times.shape == (6,) and traj.alphas.shape == (6, 6)
        assert np.array_equal(traj.times, [k * 0.1 for k in range(0, 11, 2)])
        assert traj.alphas[0].tobytes() == a.tobytes()
        for i, state in enumerate(traj):
            assert state.time == traj.times[i]
            assert state.alphas.alpha.tobytes() == traj.alphas[i].tobytes()
