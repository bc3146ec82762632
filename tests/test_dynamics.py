"""Flows, conservation, the Lax identity, and Gibbs-ensemble invariance.

Closed-form anchors: constant data alpha_j = c evolves as c e^{-2i|c|^2 t}
under the lattice flow (substitute the ansatz: the neighbor sum is 2c and
the bracket collapses to -2i|c|^2 c), and the Hamiltonian
H = -2 ln prod(rho^2) + 2 Re K1 generates the same vector field through
alphadot_j = -i rho_j^2 (dH/dx_j + i dH/dy_j)/2.
"""

import csv
import math

import numpy as np
import pytest

from ggelab.cmv_core import (
    NumericalError,
    VerblunskyVector,
    build_periodic_cmv,
    conserved_quantities,
    unitarity_residual,
)
from ggelab.dynamics import (
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
from ggelab.sampling import EnsembleSpec, make_rng

from helpers import random_interior_alpha


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
            errs.append(np.abs(traj.final.alphas.alpha - exact).max())
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

    def test_backward_direction(self):
        traj = integrate(np.full(4, 0.1 + 0.1j), "al",
                         IntegratorParams(dt=0.1, t_final=1.0),
                         direction="backward")
        assert traj.times[0] == 0.0
        assert abs(traj.times[-1] + 1.0) < 1e-12

    def test_schur_realness_is_bit_exact(self):
        rng = np.random.default_rng(8)
        a = random_interior_alpha(rng, 16, rmax=0.5, real=True)
        traj = integrate(a, "schur", IntegratorParams(dt=0.01, t_final=1.0))
        assert not np.iscomplexobj(traj.alphas)

    def test_schur_rejects_complex_state(self):
        with pytest.raises(ValueError, match="real"):
            integrate(np.array([0.1 + 0j, 0.2, -0.1, 0.05]), "schur",
                      IntegratorParams(dt=0.1, t_final=1.0))

    def test_invalid_flow_and_direction(self):
        p = IntegratorParams(dt=0.1, t_final=1.0)
        with pytest.raises(ValueError, match="flow"):
            integrate(np.zeros(4, complex), "toda", p)
        with pytest.raises(ValueError, match="direction"):
            integrate(np.zeros(4, complex), "al", p, direction="up")

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


class TestConservation:
    def test_zero_data_zero_drift(self):
        traj = integrate(np.zeros(8, complex), "al",
                         IntegratorParams(dt=0.1, t_final=1.0))
        report = conservation_report(traj, 4)
        assert report.max_drift == 0.0

    def test_al_drift_within_budget(self, al_run):
        report = conservation_report(al_run, 4)
        assert report.max_drift <= 1e-6, \
            f"max drift {report.max_drift:.2e} exceeds 1e-6"
        assert set(report.drifts) == {"k0", "k1", "trace_1", "trace_2",
                                      "trace_3", "trace_4"}

    def test_schur_drift_within_budget(self):
        rng = np.random.default_rng(10)
        a = random_interior_alpha(rng, 32, rmax=0.5, real=True)
        traj = integrate(a, "schur", IntegratorParams(dt=1e-3, t_final=10.0))
        report = conservation_report(traj, 4)
        assert report.max_drift <= 1e-6, \
            f"max drift {report.max_drift:.2e} exceeds 1e-6"

    def test_drift_scales_fourth_order(self):
        rng = np.random.default_rng(11)
        a = random_interior_alpha(rng, 32, rmax=0.5)
        drifts = []
        for dt in (4e-3, 2e-3):
            traj = integrate(a, "al", IntegratorParams(dt=dt, t_final=1.0))
            drifts.append(conservation_report(traj, 4).max_drift)
        ratio = drifts[0] / drifts[1]
        assert 8.0 < ratio < 32.0, f"dt halving gave drift ratio {ratio:.2f}"

    def test_report_matches_conserved_quantities(self, al_run):
        series = al_run.conserved_series(4)
        start = conserved_quantities(al_run[0].alphas.alpha, 4)
        assert abs(series["k0"][0] - start.k0) < 1e-14
        assert abs(series["k1"][0] - start.k1) < 1e-14
        assert np.abs(series["trace_powers"][0] - start.trace_powers).max() \
            < 1e-12

    def test_json_report(self, al_run, tmp_path):
        report = conservation_report(al_run, 2)
        path = tmp_path / "cons.json"
        blob = report.to_json(path)
        assert blob["flow"] == "al"
        assert blob["n_sites"] == 32
        assert blob["max_drift"] == report.max_drift
        import json
        assert json.loads(path.read_text()) == blob

    def test_accepts_plain_state_sequence(self):
        rng = np.random.default_rng(12)
        a = random_interior_alpha(rng, 8, rmax=0.4)
        states = [FlowState(a, 0.0), FlowState(a, 1.0)]
        report = conservation_report(states, 3)
        assert report.max_drift == 0.0
        assert report.n_frames == 2

    def test_unitarity_along_trajectory(self, al_run):
        worst = max(unitarity_residual(build_periodic_cmv(s.alphas.alpha))
                    for s in al_run)
        assert worst <= 1e-8, f"unitarity residual {worst:.2e}"

    def test_time_reversal_roundtrip(self):
        rng = np.random.default_rng(13)
        a = random_interior_alpha(rng, 16, rmax=0.5)
        params = IntegratorParams(dt=1e-2, t_final=2.0)
        forward = integrate(a, "al", params)
        back = integrate(forward.final, "al", params, direction="backward")
        round_trip = np.abs(back.final.alphas.alpha - a).max()
        finer = integrate(a, "al", IntegratorParams(dt=5e-3, t_final=2.0))
        one_way = np.abs(forward.final.alphas.alpha
                         - finer.final.alphas.alpha).max()
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

    def test_commutator_forms_agree_on_random_states(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.choice([6, 8, 12]))
            a = random_interior_alpha(rng, n, rmax=0.8)
            lax_residual(a, 1e-5)  # internal 1e-12 equivalence assert

    def test_small_residual_at_small_probe(self):
        rng = np.random.default_rng(16)
        a = random_interior_alpha(rng, 12, rmax=0.5)
        assert lax_residual(a, 1e-6) < 1e-4

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

    def test_trace_statistics_are_consistency_checks(self):
        # conserved per trajectory, so pre/post virtually coincide
        spec = EnsembleSpec(kind="al", n=16, beta=2.0)
        report = gge_invariance_test(spec, 1.0, 400, make_rng(18))
        for k in range(1, 5):
            assert report.statistics[f"re_trace_{k}"]["p_value"] > 0.99

    def test_small_sample_warning(self):
        spec = EnsembleSpec(kind="al", n=8, beta=1.0)
        report = gge_invariance_test(spec, 0.5, 50, make_rng(19))
        assert report.warnings
        assert "50 samples" in report.warnings[0]

    def test_too_few_samples_rejected(self):
        spec = EnsembleSpec(kind="al", n=8, beta=1.0)
        with pytest.raises(ValueError, match="two samples"):
            gge_invariance_test(spec, 1.0, 1, make_rng(20))

    def test_non_lattice_ensemble_rejected(self):
        spec = EnsembleSpec(kind="circular", n=8, beta=1.0)
        with pytest.raises(ValueError, match="al|schur"):
            gge_invariance_test(spec, 1.0, 100, make_rng(21))

    def test_json_report(self, tmp_path):
        spec = EnsembleSpec(kind="al", n=8, beta=1.0)
        report = gge_invariance_test(spec, 0.5, 120, make_rng(22))
        blob = report.to_json(tmp_path / "inv.json")
        assert blob["flow"] == "al"
        assert set(blob["statistics"]) == {"re_trace_1", "re_trace_2",
                                           "re_trace_3", "re_trace_4",
                                           "mean_abs_sq"}
        for stat in blob["statistics"].values():
            assert set(stat) == {"pre_mean", "post_mean", "z", "p_value"}


class TestTrajectoryExport:
    def test_csv_header_and_roundtrip(self, tmp_path):
        traj = integrate(np.full(4, 0.3 + 0.1j), "al",
                         IntegratorParams(dt=0.1, t_final=1.0))
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["t", "re_alpha_1", "im_alpha_1"]
        assert len(rows[0]) == 1 + 2 * 4
        assert len(rows) - 1 == len(traj)
        back = np.array([[float(x) for x in row] for row in rows[1:]])
        assert np.array_equal(back[:, 0], traj.times)
        assert np.array_equal(back[:, 1] + 1j * back[:, 2],
                              traj.alphas[:, 0])

    def test_sequence_protocol(self):
        traj = integrate(np.zeros(4, complex), "al",
                         IntegratorParams(dt=0.25, t_final=1.0))
        assert isinstance(traj[0], FlowState)
        assert len([s for s in traj]) == len(traj)
        assert traj.initial.time == 0.0
        assert traj.final is traj[-1]
