"""End-to-end acceptance gate for the whole laboratory.

Ten numbered criteria, one test each, covering the samplers, the Lax
matrices, the variational solvers, the flows and the statistical checks
that tie them together.  Every test prints a single PASS/FAIL line with
its runtime and budget, so a full run reads as a checklist.  Tolerances
are pinned in the assertions; statistical criteria use fixed seeds and
three-standard-error margins.
"""

import time

import numpy as np
from scipy import stats
from scipy.integrate import quad
from scipy.special import i0

from ggelab.cmv_core import (build_cmv, build_periodic_cmv, eigen_angles,
                             trace_power)
from ggelab.dynamics import (FlowState, IntegratorParams, conservation_report,
                             gge_invariance_test, integrate, lax_residual)
from ggelab.equilibrium import free_energy_torus, minimize_torus
from ggelab.ldp_lab import check_dos_relation, check_free_energy_relation
from ggelab.potentials import Potential
from ggelab.sampling import (EnsembleSpec, McmcParams, make_rng,
                             sample_circular_beta, sample_coupled_family,
                             sample_theta)
from ggelab.spectral_measures import check_bv_lip_bound

from helpers import block_factors, theta_ratio_draw, unitarity_residual


def _verdict(capsys, num, label, ok, t0, budget, detail=""):
    """Print the criterion line, then enforce it."""
    elapsed = time.monotonic() - t0
    in_time = elapsed < budget
    word = "PASS" if (ok and in_time) else "FAIL"
    line = f"criterion {num:02d} {label}: {word} ({elapsed:.1f} s / {budget:.0f} s)"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line
    assert in_time, line


def test_01_disk_law_moments_and_method_agreement(capsys):
    t0 = time.monotonic()
    rng = make_rng(11)
    ok = True
    notes = []
    for nu in (2.0, 3.0, 5.5):
        z = sample_theta(nu, rng, size=100_000)
        m2 = np.abs(z) ** 2
        se = float(m2.std(ddof=1)) / np.sqrt(m2.size)
        dev = abs(float(m2.mean()) - 2.0 / (nu + 1.0))
        w = theta_ratio_draw(nu, rng, size=100_000)
        p = float(stats.ks_2samp(np.abs(z), np.abs(w)).pvalue)
        ok = ok and dev <= 3.0 * se and p > 0.01
        notes.append(f"nu={nu:g} dev={dev:.1e}<=3se={3 * se:.1e} ks_p={p:.2f}")
    _verdict(capsys, 1, "disk-law moments, two methods agree", ok, t0, 10.0,
             "; ".join(notes))


def test_02_distance_variable_law_and_moment_bound(capsys):
    t0 = time.monotonic()
    rng = make_rng(22)
    ok = True
    notes = []
    for h in (0.1, 0.5, 0.9):
        z = sample_coupled_family(2.0, (h,), rng, size=100_000).z[:, 0]
        p = float(stats.kstest(z, lambda w, hh=h: w ** hh).pvalue)
        ok = ok and p > 0.01
        notes.append(f"h={h:g} ks_p={p:.2f}")
    # closed-form exponential moment, substitution w = u^(1/h) removes
    # the w^(h-1) endpoint singularity
    vals = []
    for h in np.arange(0.01, 1.0, 0.01):
        a = 1.0 - 0.5 * np.log(h)
        val, err = quad(lambda u, aa=a, hh=h: np.exp(aa * u ** (1.0 / hh)),
                        0.0, 1.0, limit=200)
        assert err < 1e-7, f"quadrature error {err:.1e} at h={h:g}"
        vals.append(val)
    bound = max(vals)
    ok = ok and bound < 2.0
    notes.append(f"sup_h moment={bound:.4f}<2")
    _verdict(capsys, 2, "coupling distance law, uniform moment bound",
             ok, t0, 30.0, "; ".join(notes))


def test_03_lax_matrix_unitarity_spectrum_traces(capsys):
    t0 = time.monotonic()
    rng = make_rng(33)

    def random_matrix(n, periodic):
        inner = sample_theta(3.0, rng, size=n)
        if periodic:
            return build_periodic_cmv(inner)
        last = np.exp(2j * np.pi * rng.uniform())
        return build_cmv(np.append(inner[:-1], last))

    max_resid = 0.0
    sizes = np.r_[rng.integers(2, 513, size=98), 512, 512]
    for i, n in enumerate(sizes):
        periodic = i % 2 == 0
        if periodic and n % 2:
            n += 1
        max_resid = max(max_resid, unitarity_residual(random_matrix(int(n), periodic)))
    ok = max_resid <= 1e-12

    angles = eigen_angles(build_periodic_cmv(np.zeros(4)))
    spec_err = float(np.abs(angles - np.array([-np.pi, -np.pi, 0.0, 0.0])).max())
    ok = ok and spec_err <= 1e-12

    max_trace_gap = 0.0
    for i in range(10):
        m = random_matrix(int(rng.integers(6, 65)) * 2, periodic=i % 2 == 0)
        th = eigen_angles(m)
        for ell in range(1, 9):
            gap = abs(trace_power(m, ell) - np.sum(np.exp(1j * ell * th)))
            max_trace_gap = max(max_trace_gap, gap)
    ok = ok and max_trace_gap <= 1e-8

    _verdict(capsys, 3, "unitarity, zero-coefficient spectrum, trace powers",
             ok, t0, 120.0,
             f"resid={max_resid:.1e} spectrum={spec_err:.1e} "
             f"traces={max_trace_gap:.1e}")


def test_04_two_site_circular_correlation(capsys):
    t0 = time.monotonic()
    rng = make_rng(44)
    batch = sample_circular_beta(2, 2.0, None, McmcParams(sweeps=100_000),
                                 rng=rng)
    a = batch.alphas
    # closed form for the 2x2 trace, checked against the built matrix
    tr = np.conj(a[:, 0]) - a[:, 0] * np.conj(a[:, 1])
    for row in a[:50]:
        built = complex(np.trace(build_cmv(row).dense()))
        assert abs(built - (np.conj(row[0]) - row[0] * np.conj(row[1]))) < 1e-12
    # |tr|^2 = |e^{i th1} + e^{i th2}|^2 = 2 + 2 cos(th1 - th2)
    cos_gap = 0.5 * (np.abs(tr) ** 2 - 2.0)
    se = float(cos_gap.std(ddof=1)) / np.sqrt(cos_gap.size)
    dev = abs(float(cos_gap.mean()) + 0.5)
    ok = dev <= 3.0 * se
    _verdict(capsys, 4, "two-site angle correlation -1/2", ok, t0, 30.0,
             f"mean={float(cos_gap.mean()):.5f} dev={dev:.1e}<=3se={3 * se:.1e}")


def test_05_inequality_suites(capsys):
    t0 = time.monotonic()
    rng = make_rng(55)
    slack = 1e-12
    violations = {"distance": 0, "product": 0, "coupling": 0, "monotone": 0}

    # distance/rank and entrywise bounds over matrix pairs differing in
    # a few coefficients
    for _ in range(1000):
        n = 16
        base = sample_theta(3.0, rng, size=n)
        other = base.copy()
        k = int(rng.integers(1, 4))
        idx = rng.choice(n, size=k, replace=False)
        other[idx] = sample_theta(3.0, rng, size=k)
        rep = check_bv_lip_bound(build_periodic_cmv(base),
                                 build_periodic_cmv(other))
        violations["distance"] += 0 if rep.all_pass else 1

    # factor products: entrywise sums grow at most twofold
    for _ in range(1000):
        n = 2 * int(rng.integers(1, 17))
        L, M = block_factors(build_periodic_cmv(sample_theta(3.0, rng,
                                                            size=n)))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        total = np.abs(A).sum()
        if np.abs(L @ A).sum() > 2.0 * total + slack:
            violations["product"] += 1
        if np.abs(A @ M).sum() > 2.0 * total + slack:
            violations["product"] += 1

    # per-sample coupling bounds on both the coefficients and their radii
    pair = sample_coupled_family(2.5, (0.4,), rng, size=2000)
    a, a_h, z_h = pair.alpha_nu, pair.alphas[:, 0], pair.z[:, 0]
    gap = np.abs(a - a_h)
    rho_gap = np.abs(np.sqrt(1.0 - np.abs(a) ** 2)
                     - np.sqrt(1.0 - np.abs(a_h) ** 2))
    violations["coupling"] += int(np.sum(gap > z_h + slack))
    violations["coupling"] += int(np.sum(rho_gap > z_h + slack))

    # monotone coupling across increasing increments
    fam = sample_coupled_family(2.0, (0.1, 0.25, 0.5, 0.75, 0.9), rng,
                                size=2000)
    violations["monotone"] += int(np.sum(np.diff(fam.z, axis=1) < -slack))

    ok = all(v == 0 for v in violations.values())
    _verdict(capsys, 5, "inequality suites, zero violations", ok, t0, 120.0,
             " ".join(f"{k}={v}" for k, v in violations.items()))


def test_06_torus_minimizer_exact_limits(capsys):
    t0 = time.monotonic()
    ok = True
    notes = []
    for beta in (0.5, 1.0, 4.0):
        rho = minimize_torus(None, beta)
        sup = float(np.abs(rho.values - 1.0 / (2.0 * np.pi)).max())
        fe_gap = abs(free_energy_torus(rho, None, beta).total
                     - beta * np.log(2.0))
        ok = ok and sup <= 1e-10 and fe_gap <= 1e-8
        notes.append(f"beta={beta:g} sup={sup:.1e} fe_gap={fe_gap:.1e}")
    # beta -> 0: the minimizer approaches exp(-V)/Z with a first-order
    # correction in beta (0.21 * beta in sup norm for V = cos), so the
    # limit itself is probed by extrapolating from beta and beta/2 while
    # the direct gap must shrink at the linear rate
    v = Potential("torus", cos=[0.0, 1.0])
    rho_b = minimize_torus(v, 1e-3)
    rho_h = minimize_torus(v, 5e-4)
    target = np.exp(-np.cos(rho_b.nodes)) / (2.0 * np.pi * i0(1.0))
    rate = (float(np.abs(rho_b.values - target).max())
            / float(np.abs(rho_h.values - target).max()))
    limit_gap = float(np.abs(2.0 * rho_h.values - rho_b.values - target).max())
    ok = ok and limit_gap <= 1e-4 and 1.9 < rate < 2.1
    notes.append(f"beta->0 limit_gap={limit_gap:.1e} rate={rate:.2f}")
    _verdict(capsys, 6, "torus minimizer exact limits", ok, t0, 60.0,
             "; ".join(notes))


def test_07_lattice_density_of_states(capsys):
    t0 = time.monotonic()
    rep = check_dos_relation("al", Potential("torus", cos=[0.0, 1.0]), 1.0,
                             256, mcmc=McmcParams(sweeps=10_000), delta=0.05,
                             rng=make_rng(77))
    worst = max(abs(row["z"]) for row in rep.statistics["moments"])
    ok = rep.passed and rep.d_value <= 0.02 and worst <= 3.0
    _verdict(capsys, 7, "torus density of states vs variational prediction",
             ok, t0, 900.0,
             f"D={rep.d_value:.4f}<=0.02 max|z|={worst:.2f}<=3")


def test_08_real_lattice_interval_moments(capsys):
    t0 = time.monotonic()
    rep = check_dos_relation("schur", None, 1.0, 128,
                             mcmc=McmcParams(sweeps=10_000), rng=make_rng(88))
    rows = {row["name"]: row for row in rep.statistics["moments"]}
    worst = max(abs(row["z"]) for row in rows.values())
    # the first moment targets zero, so its row is the symmetry check
    symmetric = (abs(rows["x^1"]["target"]) <= 1e-8
                 and abs(rows["x^1"]["mean"]) <= 3.0 * rows["x^1"]["std_error"])
    ok = rep.passed and worst <= 3.0 and symmetric
    _verdict(capsys, 8, "interval moments and spectral symmetry", ok, t0,
             600.0,
             f"max|z|={worst:.2f}<=3 mean_x={rows['x^1']['mean']:+.2e}")


def test_09_flow_conservation_decay_invariance(capsys):
    t0 = time.monotonic()
    rng = make_rng(99)
    n = 32
    params = IntegratorParams(dt=1e-3, t_final=10.0)
    drifts = {}
    for flow in ("al", "schur"):
        if flow == "al":
            a0 = (0.5 * np.sqrt(rng.uniform(size=n))
                  * np.exp(2j * np.pi * rng.uniform(size=n)))
        else:
            a0 = rng.uniform(-0.5, 0.5, size=n)
        traj = integrate(FlowState(a0), flow, params)
        drifts[flow] = conservation_report(traj).max_drift
    ok = max(drifts.values()) <= 1e-6

    state = FlowState(0.4 * np.sqrt(rng.uniform(size=n))
                      * np.exp(2j * np.pi * rng.uniform(size=n)))
    r_coarse = lax_residual(state, dt_probe=1e-4)
    r_fine = lax_residual(state, dt_probe=5e-5)
    ratio = r_coarse / r_fine
    ok = ok and 1.5 < ratio < 2.5

    p_min = 1.0
    for kind in ("al", "schur"):
        rep = gge_invariance_test(EnsembleSpec(kind, n, 1.0), t_final=1.0,
                                  n_samples=2000, rng=rng, dt=0.02)
        p_min = min(p_min, min(rep.p_values.values()))
        ok = ok and rep.passes(0.01)
    _verdict(capsys, 9, "conservation, first-order commutator decay, "
             "ensemble invariance", ok, t0, 600.0,
             f"max_drift={max(drifts.values()):.1e}<=1e-6 "
             f"decay_ratio={ratio:.2f} min_p={p_min:.3f}>0.01")


def test_10_free_energy_derivative_relation(capsys):
    t0 = time.monotonic()
    rep = check_free_energy_relation(Potential("torus", cos=[0.0, 1.0]), 1.0,
                                     delta=0.1,
                                     mcmc=McmcParams(sweeps=2000),
                                     rng=make_rng(110), n=64)
    s = rep.statistics
    ok = rep.passed and abs(s["discrepancy"]) <= 3.0 * s["mc_std_error"]
    _verdict(capsys, 10, "free-energy derivative relation", ok, t0, 900.0,
             f"|disc|={abs(s['discrepancy']):.2e}<=3x"
             f"(mc={s['mc_std_error']:.2e})")
