"""Disk distributions, coupled families, and the four ensemble samplers."""

import hashlib

import numpy as np
import pytest
from scipy import integrate, special, stats

from ggelab import cmv_core as cc
from ggelab import sampling as sp
from ggelab.potentials import Potential

from helpers import random_interior_alpha, site_chain, theta_ratio_draw

# the Theta_nu draws under test: the sampler's inverse CDF, and the
# chi-ratio construction of the test oracle
THETA_DRAWS = {"radial": sp.sample_theta, "ratio": theta_ratio_draw}


# ------------------------------------------------------------------- theta law

@pytest.mark.parametrize("nu", [2.0, 3.0, 5.5])
@pytest.mark.parametrize("method", ["radial", "ratio"])
def test_theta_second_moment(nu, method):
    rng = np.random.default_rng(101)
    z = THETA_DRAWS[method](nu, rng, size=20000)
    m = np.abs(z) ** 2
    se = m.std(ddof=1) / np.sqrt(m.size)
    assert abs(m.mean() - 2.0 / (nu + 1.0)) <= 3 * se


@pytest.mark.parametrize("nu", [2.0, 3.0, 5.5])
def test_theta_methods_agree(nu):
    rng = np.random.default_rng(7)
    za = sp.sample_theta(nu, rng, size=10000)
    zb = theta_ratio_draw(nu, rng, size=10000)
    assert stats.ks_2samp(np.abs(za) ** 2, np.abs(zb) ** 2).pvalue > 0.01
    assert stats.ks_2samp(np.angle(za), np.angle(zb)).pvalue > 0.01


def test_theta_nu3_is_uniform_disk():
    rng = np.random.default_rng(11)
    z = sp.sample_theta(3.0, rng, size=20000)
    assert stats.kstest(np.abs(z) ** 2, "uniform").pvalue > 0.01


def test_theta_radial_law_matches_beta():
    nu = 4.2
    rng = np.random.default_rng(12)
    z = theta_ratio_draw(nu, rng, size=20000)
    cdf = stats.beta(1.0, (nu - 1.0) / 2.0).cdf
    assert stats.kstest(np.abs(z) ** 2, cdf).pvalue > 0.01


def test_theta_mean_is_zero():
    rng = np.random.default_rng(13)
    z = sp.sample_theta(2.4, rng, size=20000)
    se = np.sqrt(np.var(z.real) + np.var(z.imag)) / np.sqrt(z.size)
    assert abs(z.mean()) <= 3 * se


@pytest.mark.parametrize("nu, seed", [(1.5, 301), (3.0, 302), (7.0, 303),
                                      (201.0, 304)])
def test_theta_inverse_cdf_matches_exact_law(nu, seed):
    # |z|^2 ~ Beta(1, b), b = (nu - 1)/2, whose CDF is 1 - (1 - x)^b
    b = (nu - 1.0) / 2.0
    z = sp.sample_theta(nu, np.random.default_rng(seed), size=200_000)
    cdf = lambda x: -np.expm1(b * np.log1p(-np.clip(x, 0.0, 1.0)))
    assert stats.kstest(np.abs(z) ** 2, cdf).pvalue > 0.01


def test_theta_grazing_draws_stay_inside_the_disk():
    # nu = 1 + 1e-3 puts most of the mass within an ulp of the unit circle
    r = np.abs(sp.sample_theta(1.0 + 1e-3, np.random.default_rng(305),
                               size=100_000))
    assert r.max() < 1.0
    assert np.mean(r >= 1.0 - 2e-15) > 0.5


@pytest.mark.parametrize("pot", [None, Potential("torus", cos=[0.0, 0.5])],
                         ids=["exact", "tilted"])
def test_circular_last_site_is_unimodular(pot):
    spec = sp.EnsembleSpec("circular", 16, 8e-3, pot)  # per-site rate 1e-3
    a = sp.sample_ensemble(spec, sp.McmcParams(sweeps=200), 306).alphas
    assert np.all(np.abs(np.abs(a[:, -1]) - 1.0) <= 1e-15)
    assert np.abs(a[:, :-1]).max() < 1.0


def test_theta_rejects_bad_nu():
    rng = np.random.default_rng(0)
    for nu in (1.0, 0.3, -2.0):
        with pytest.raises(ValueError):
            sp.sample_theta(nu, rng)


# ------------------------------------------------------------------------- chi

@pytest.mark.parametrize("dof", [0.5, 1.0, 2.5])
def test_chi_square_mean(dof):
    rng = np.random.default_rng(21)
    y = sp.sample_chi(dof, rng, size=40000)
    m = y**2
    se = m.std(ddof=1) / np.sqrt(m.size)
    assert abs(m.mean() - dof) <= 3 * se


def test_chi_dof1_is_absolute_gaussian():
    rng = np.random.default_rng(22)
    y = sp.sample_chi(1.0, rng, size=20000)
    assert stats.kstest(y, stats.halfnorm.cdf).pvalue > 0.01


def test_chi_fractional_dof_gamma_law():
    rng = np.random.default_rng(23)
    y = sp.sample_chi(0.5, rng, size=20000)
    assert stats.kstest(y**2, stats.gamma(0.25, scale=2.0).cdf).pvalue > 0.01


def test_chi_rejects_nonpositive_dof():
    with pytest.raises(ValueError):
        sp.sample_chi(0.0, np.random.default_rng(0))


# ------------------------------------------------------------------- coupling

def _pair(nu, h, rng, size):
    """(alpha_nu, alpha_(nu+h), Z_h) of a one-increment coupled family."""
    fam = sp.sample_coupled_family(nu, (h,), rng, size=size)
    return fam.alpha_nu, fam.alphas[:, 0], fam.z[:, 0]


@pytest.mark.parametrize("h", [0.1, 0.5, 0.9])
def test_coupled_pair_bounds_hold_per_sample(h):
    rng = np.random.default_rng(31)
    a, a_h, z_h = _pair(2.5, h, rng, 20000)
    d_alpha = np.abs(a - a_h)
    rho = lambda a: np.sqrt(1.0 - np.abs(a) ** 2)
    d_rho = np.abs(rho(a) - rho(a_h))
    assert np.all(d_alpha <= z_h + 1e-14)
    assert np.all(d_rho <= z_h + 1e-14)


def test_coupled_pair_marginals():
    nu, h = 2.2, 0.6
    rng = np.random.default_rng(32)
    a, a_h, _ = _pair(nu, h, rng, 20000)
    cdf_a = stats.beta(1.0, (nu - 1.0) / 2.0).cdf
    cdf_b = stats.beta(1.0, (nu + h - 1.0) / 2.0).cdf
    assert stats.kstest(np.abs(a) ** 2, cdf_a).pvalue > 0.01
    assert stats.kstest(np.abs(a_h) ** 2, cdf_b).pvalue > 0.01


def test_z_law_and_mean():
    h = 0.3
    rng = np.random.default_rng(33)
    z = _pair(2.0, h, rng, 40000)[2]
    assert stats.kstest(z, lambda w: np.clip(w, 0, 1) ** h).pvalue > 0.01
    se = z.std(ddof=1) / np.sqrt(z.size)
    assert abs(z.mean() - h / (1.0 + h)) <= 3 * se


def test_z_equals_power_of_uniform():
    h = 0.45
    rng = np.random.default_rng(34)
    z = _pair(3.0, h, rng, 20000)[2]
    u = rng.uniform(0, 1, 20000) ** (1.0 / h)
    assert stats.ks_2samp(z, u).pvalue > 0.01


# sha256 prefixes of (alpha_nu, alpha_(nu+h)) of the coupled pair at the
# (nu, h, size, stream) of acceptance criteria 02 (one stream, the three h
# in turn) and 05 (a fresh stream), recorded from the two-coefficient pair
# sampler that the one-increment family replaced
PAIR_DIGESTS = {
    "criterion-02": (2.0, (0.1, 0.5, 0.9), 100_000, 22, [
        ("7f36e86962ca5be8", "4592bc229887d7f2"),
        ("fb736e2982c260a2", "0ce2b6781c80321e"),
        ("5051da5369428842", "f7c16df8e9f2ceb9")]),
    "criterion-05": (2.5, (0.4,), 2000, 55, [
        ("ce4d4c814f5724c3", "0ca8055266b0a5b0")]),
}


@pytest.mark.parametrize("name", sorted(PAIR_DIGESTS))
def test_one_increment_family_draws_the_pair_bit_for_bit(name):
    nu, hs, size, seed, want = PAIR_DIGESTS[name]
    rng = sp.make_rng(seed)
    got = []
    for h in hs:
        a, a_h, _ = _pair(nu, h, rng, size)
        got.append(tuple(hashlib.sha256(x.tobytes()).hexdigest()[:16]
                         for x in (a, a_h)))
    assert got == want


def test_monotone_family_zero_violations():
    rng = np.random.default_rng(35)
    hs = [0.1, 0.3, 0.6, 0.9]
    fam = sp.sample_coupled_family(2.5, hs, rng, size=5000)
    assert fam.z.shape == (5000, 4)
    assert np.all(np.diff(fam.z, axis=1) >= -1e-15)
    # each column still follows the w^h law
    assert stats.kstest(fam.z[:, 2], lambda w: np.clip(w, 0, 1) ** 0.6).pvalue > 0.01


def test_coupling_rejects_bad_h():
    rng = np.random.default_rng(0)
    for h in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            sp.sample_coupled_family(2.0, (h,), rng)


# ------------------------------------------------------------------- ensembles

def test_al_v0_marginal_uniform_disk():
    spec = sp.EnsembleSpec("al", 16, beta=1.0)
    batch = sp.sample_al_gge(spec, sp.McmcParams(sweeps=500), np.random.default_rng(41))
    assert batch.alphas.shape == (500, 16)
    assert batch.acceptance_rate is None
    flat = np.abs(batch.alphas.ravel()) ** 2
    assert stats.kstest(flat, "uniform").pvalue > 0.01


def test_al_v0_marginal_general_beta():
    beta = 2.5
    spec = sp.EnsembleSpec("al", 8, beta=beta)
    batch = sp.sample_al_gge(spec, sp.McmcParams(sweeps=2000), np.random.default_rng(42))
    cdf = stats.beta(1.0, beta).cdf  # nu = 2 beta + 1, (nu-1)/2 = beta
    assert stats.kstest(np.abs(batch.alphas.ravel()) ** 2, cdf).pvalue > 0.01


def test_al_v0_first_fourier_coefficient_vanishes():
    spec = sp.EnsembleSpec("al", 32, beta=1.0)
    batch = sp.sample_al_gge(spec, sp.McmcParams(sweeps=2000), np.random.default_rng(43))
    mu1 = cc.batch_trace_powers(batch.alphas, 1)[:, 0] / 32.0
    se = np.sqrt(np.var(mu1.real) + np.var(mu1.imag)) / np.sqrt(mu1.size)
    assert abs(mu1.mean()) <= 3 * se


def test_schur_v0_law():
    beta = 2.0
    spec = sp.EnsembleSpec("schur", 16, beta=beta)
    batch = sp.sample_schur_gge(spec, sp.McmcParams(sweeps=1500), np.random.default_rng(44))
    a = batch.alphas
    assert a.dtype == np.float64
    m2 = a.ravel() ** 2
    se = m2.std(ddof=1) / np.sqrt(m2.size)
    assert abs(m2.mean() - 1.0 / (2 * beta + 1)) <= 3 * se
    assert stats.kstest((1 + a.ravel()) / 2, stats.beta(beta, beta).cdf).pvalue > 0.01


def test_schur_v0_trace_moment_oracles():
    # frozen exact values for beta = 1: E[Tr E^2]/N = 1/9, E[Tr E^4]/N = 67/675
    spec = sp.EnsembleSpec("schur", 64, beta=1.0)
    batch = sp.sample_schur_gge(spec, sp.McmcParams(sweeps=4000), np.random.default_rng(45))
    tr = cc.batch_trace_powers(batch.alphas, 4).real / 64.0
    for col, target in ((1, 1.0 / 9.0), (3, 67.0 / 675.0)):
        vals = tr[:, col]
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - target) <= 3 * se, (col, vals.mean(), target)


def test_circular_v0_structure_and_marginal():
    n, beta = 6, 2.4  # per-site rate 2 beta / n = 0.8
    batch = sp.sample_circular_beta(n, beta, None, sp.McmcParams(sweeps=3000),
                                    np.random.default_rng(46))
    a = batch.alphas
    assert np.abs(np.abs(a[:, -1]) - 1.0).max() <= 1e-12
    assert np.abs(a[:, :-1]).max() < 1.0
    # site j = 1: nu = 2 beta (n - 1)/n + 1, |alpha|^2 ~ Beta(1, (nu - 1)/2)
    cdf = stats.beta(1.0, beta * (n - 1) / n).cdf
    assert stats.kstest(np.abs(a[:, 0]) ** 2, cdf).pvalue > 0.01
    assert stats.kstest(np.angle(a[:, -1]), stats.uniform(-np.pi, 2 * np.pi).cdf).pvalue > 0.01


def test_circular_two_sites_pair_correlation():
    # beta = 2 at n = 2 is the per-site rate 2 beta / n = 2: joint density
    # prop to |e^{i t1} - e^{i t2}|^2, whose pair correlation is
    # E[cos(t1 - t2)] = -1/2
    batch = sp.sample_circular_beta(2, 2.0, None, sp.McmcParams(sweeps=20000),
                                    np.random.default_rng(47))
    vals = np.empty(batch.alphas.shape[0])
    for i, row in enumerate(batch.alphas):
        th = cc.eigen_angles(cc.build_cmv(row))
        vals[i] = np.cos(th[0] - th[1])
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() + 0.5) <= 3 * se


@pytest.mark.parametrize("pairs", [1, 4, 16, 64])
def test_jacobi_rows_eigen_angles_match_numpy_eigvals(pairs):
    # alpha_n = -1 exactly, and small beta puts coefficients near +-1 and
    # eigenvalues near -1, where the Cayley route takes its second pass
    batch = sp.sample_jacobi_beta(2 * pairs, 0.5, None,
                                  sp.McmcParams(sweeps=20),
                                  np.random.default_rng(49 + pairs))
    for row in batch.alphas:
        m = cc.build_cmv(row)
        th = cc.eigen_angles(m)
        assert np.all(np.diff(th) >= 0)
        assert th.min() >= -np.pi and th.max() < np.pi
        dist = np.abs(np.exp(1j * th)[:, None]
                      - np.linalg.eigvals(m.dense())[None, :])
        assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-12


def test_jacobi_v0_structure_and_marginal():
    n, beta = 8, 2.0
    batch = sp.sample_jacobi_beta(n, beta, None, sp.McmcParams(sweeps=3000),
                                  np.random.default_rng(48))
    a = batch.alphas
    assert a.shape == (3000, 8)
    assert np.all(a[:, -1] == -1.0)
    s1 = beta * (1 - 1 / n)
    assert stats.kstest((1 + a[:, 0]) / 2, stats.beta(s1, s1).cdf).pvalue > 0.01


def test_jacobi_one_pair_cos_squared_moment():
    # n = 2, beta = 2: s_1 = 1, alpha_1 uniform; cos(theta) = alpha_1 so
    # E[cos^2 theta] = 1/3
    batch = sp.sample_jacobi_beta(2, 2.0, None, sp.McmcParams(sweeps=20000),
                                  np.random.default_rng(49))
    c2 = batch.alphas[:, 0] ** 2
    se = c2.std(ddof=1) / np.sqrt(c2.size)
    assert abs(c2.mean() - 1.0 / 3.0) <= 3 * se


# ------------------------------------------------------------------------ mcmc

def test_mcmc_zero_delta_accepts_everything():
    spec = sp.EnsembleSpec("al", 8, beta=1.0,
                           potential=Potential("torus", cos=[5.0]))  # constant V
    batch = sp.sample_al_gge(spec, sp.McmcParams(sweeps=50), np.random.default_rng(51))
    assert batch.acceptance_rate == 1.0


def test_mcmc_two_site_chain_matches_quadrature():
    # N = 2 periodic: the wrap puts the rho_j rho_{j+1} entries on the
    # diagonal, so Tr E = 2 rho1 rho2 - 2 Re(a1 conj(a2)) and V = 2 eta cos
    # tilts by exp(4 eta (r1 r2 cos psi - rho1 rho2)).  The psi integral is
    # closed-form, int exp(c cos psi) (1, cos psi) dpsi = 2 pi (I0(c), I1(c))
    # with c = 4 eta r1 r2, so the stationary moments are 2D quadratures in
    # (r1, r2).
    beta, eta = 1.5, 0.4
    spec = sp.EnsembleSpec("al", 2, beta=beta,
                           potential=Potential("torus", cos=[0.0, 2 * eta]))
    batch = sp.sample_al_gge(spec, sp.McmcParams(sweeps=6000),
                             np.random.default_rng(52))
    assert 0.0 < batch.acceptance_rate <= 1.0

    def radial(r1, r2):
        rho = np.sqrt((1 - r1**2) * (1 - r2**2))
        return (
            (1 - r1**2) ** (beta - 1) * (1 - r2**2) ** (beta - 1)
            * np.exp(-4 * eta * rho) * r1 * r2 * 2 * np.pi
        )

    def moment(f):
        return integrate.dblquad(lambda r1, r2: f(r1, r2) * radial(r1, r2),
                                 0, 1, 0, 1)[0]

    z = moment(lambda r1, r2: special.i0(4 * eta * r1 * r2))
    m_r2 = moment(lambda r1, r2: r1**2 * special.i0(4 * eta * r1 * r2))
    m_x = moment(lambda r1, r2: r1 * r2 * special.i1(4 * eta * r1 * r2))

    a = batch.alphas
    obs_r2 = np.abs(a[:, 0]) ** 2
    obs_x = (a[:, 0] * np.conj(a[:, 1])).real
    for obs, target in ((obs_r2, m_r2 / z), (obs_x, m_x / z)):
        se = obs.std(ddof=1) / np.sqrt(obs.size)  # thinning keeps correlation low
        assert abs(obs.mean() - target) <= 4 * se, (obs.mean(), target, se)


_T1 = Potential("torus", cos=[0.0, 0.5])
_T2 = Potential("torus", cos=[0.1, 0.5, 0.3], sin=[0.2, -0.1])
_T3 = Potential("torus", cos=[0.0, 0.4, 0.2, 0.3])
_I1 = Potential("interval", cheb=[0.0, 0.8])
_I2 = Potential("interval", cheb=[0.2, 0.6, 0.5])
# name: (kind, n, beta, potential, (SHA-256 prefix of alphas, acceptance
# rate) of the site chain).  Recorded from the full-recompute site chain;
# they cover degrees 0-3, real and complex coefficients, rings of 4, 6, 8
# and 12 sites, both open boundaries, and a circular chain at a per-site
# rate 2 beta / n = 1e-3 whose nu_j near 1 put most draws within an ulp of
# the unit circle.
CHAIN_FINGERPRINTS = {
    "al-12-t1": ("al", 12, 1.0, _T1,
        ("46b28b6105ea3c38", 0.8452380952380952)),
    "al-24-t1": ("al", 24, 1.0, _T1,
        ("0fb091fb88507e8e", 0.8809523809523809)),
    "circular-6-c": ("circular", 6, 3.0, Potential("torus", cos=[0.3]),
        ("a7802f106f76e1c8", 1.0)),
    "al-8-t2": ("al", 8, 1.0, _T2,
        ("6d0d267ab412826e", 0.8258928571428571)),
    "al-6-t2": ("al", 6, 0.8, _T2,
        ("61a6edb0887f08a6", 0.8095238095238095)),
    "al-4-t2": ("al", 4, 1.2, _T2,
        ("f741d04b6d897d42", 0.75)),
    "al-8-t3": ("al", 8, 1.0, _T3,
        ("3358131716086849", 0.8080357142857143)),
    "schur-8-i1": ("schur", 8, 1.0, _I1,
        ("e5701b2a7dc3c0d6", 0.8973214285714286)),
    "schur-8-i2": ("schur", 8, 0.6, _I2,
        ("0920109887c3e18c", 0.8616071428571429)),
    "schur-6-i2": ("schur", 6, 1.5, _I2,
        ("a5adc7a66f75f76b", 0.9464285714285714)),
    "circular-8-t1": ("circular", 8, 4.0, _T1,
        ("7f4b618f769c1d2d", 0.9107142857142857)),
    "circular-8-t2": ("circular", 8, 2.8, _T2,
        ("2d97a9ff527a9fec", 0.8303571428571429)),
    "circular-2-t2": ("circular", 2, 1.0, _T2,
        ("14610fce66061aa7", 0.8035714285714286)),
    "circular-16-t1-grazing": ("circular", 16, 8e-3, _T1,
        ("bf553b9d747be3df", 0.7745535714285714)),
    "jacobi-4-i1": ("jacobi", 8, 1.0, _I1,
        ("3661a6565a02e5b7", 0.8733031674208145)),
    "jacobi-4-i2": ("jacobi", 8, 2.0, _I2,
        ("a82809d2bf58fc2b", 0.9049773755656109)),
    "jacobi-1-i2": ("jacobi", 2, 1.0, _I2,
        ("a6a5ddbb70329e4a", 0.8301886792452831)),
}
# the sampler's class-parallel chain: a sweep draws all its proposals and
# uniforms first, class after class, and kept states fall ceil(thinning /
# N) whole sweeps apart.  Its Theta proposals come from the inverse CDF and
# the site chain's from numpy's Beta sampler, so only jacobi-1-i2 (one
# interval site per sweep) repeats the site chain's bytes.
CLASS_FINGERPRINTS = {
    "al-12-t1": ("23b67e0843dec135", 0.8809523809523809),
    "al-24-t1": ("2974484d19684d8f", 0.9047619047619048),
    "al-4-t2": ("9aa20ff7abb23d81", 0.8035714285714286),
    "al-6-t2": ("b6c63e5cefaf7a3f", 0.7857142857142857),
    "al-8-t2": ("a528c78ecc6071ef", 0.8705357142857143),
    "al-8-t3": ("85a46fc2bbbb55e0", 0.8526785714285714),
    "circular-16-t1-grazing": ("462e0da8fc4599c3", 0.734375),
    "circular-2-t2": ("d9c920ebe5fb8b43", 0.9107142857142857),
    "circular-6-c": ("93b8bfc25ba56de8", 1.0),
    "circular-8-t1": ("6803a0b9f380139e", 0.8883928571428571),
    "circular-8-t2": ("85a6bf88fc1ee183", 0.8883928571428571),
    "jacobi-1-i2": ("684100d566b7c029", 0.8571428571428571),
    "jacobi-4-i1": ("be43259082d52862", 0.7755102040816326),
    "jacobi-4-i2": ("d4afa9083704d01d", 0.826530612244898),
    "schur-6-i2": ("2d1846182f94dc67", 0.9107142857142857),
    "schur-8-i1": ("a63e13c6244354d5", 0.8660714285714286),
    "schur-8-i2": ("cba86152c92dbee3", 0.8616071428571429),
}


# exact V = 0 draws of sample_ensemble, 25 rows on stream 2024: name:
# (kind, n, beta, SHA-256 prefix of alphas).  schur and jacobi take
# numpy's Beta sampler, al and circular the disk law's inverse CDF;
# circular-16-grazing puts most of its draws on the modulus cap.
EXACT_FINGERPRINTS = {
    "al-8": ("al", 8, 1.0, "916feb034ed75025"),
    "schur-8": ("schur", 8, 0.6, "ac4d474d8bc30c24"),
    "circular-6": ("circular", 6, 3.0, "f00b53d3ca5d1eff"),
    "circular-16-grazing": ("circular", 16, 8e-3, "e759de692c29f2cc"),
    "jacobi-4": ("jacobi", 8, 2.0, "47b628dffe1e8116"),
}


@pytest.mark.parametrize("name", sorted(EXACT_FINGERPRINTS))
def test_exact_draws_match_recorded_fingerprints(name):
    kind, n, beta, want = EXACT_FINGERPRINTS[name]
    batch = sp.sample_ensemble(sp.EnsembleSpec(kind, n, beta),
                               sp.McmcParams(sweeps=25), sp.make_rng(2024))
    assert batch.acceptance_rate is None
    assert hashlib.sha256(batch.alphas.tobytes()).hexdigest()[:16] == want


@pytest.mark.parametrize("name", sorted(CHAIN_FINGERPRINTS))
@pytest.mark.parametrize("path", [None, "site"])
def test_chain_samples_match_recorded_fingerprints(name, path):
    """path None runs the kind's own sampler, "site" the site-chain oracle."""
    kind, n, beta, pot, site = CHAIN_FINGERPRINTS[name]
    spec = sp.EnsembleSpec(kind, n, beta, pot)
    mcmc = sp.McmcParams(sweeps=25, burn_in=3)
    rng = sp.make_rng(2024)
    if path == "site":
        alphas, rate = site_chain(spec, mcmc, rng)
    else:
        batch = sp.sample_ensemble(spec, mcmc, rng)
        alphas, rate = batch.alphas, batch.acceptance_rate
    digest = hashlib.sha256(alphas.tobytes()).hexdigest()[:16]
    want = site if path else CLASS_FINGERPRINTS[name]
    assert (digest, rate) == want


@pytest.mark.parametrize("kind, n, pot, scales", [
    ("al", 16, Potential("torus", cos=[0.0, 1.0]), (1.0,)),
    ("al", 16, _T2, (1.0,)), ("al", 8, _T3, (1.0,)),
    ("schur", 16, _I2, (1.0,)), ("jacobi", 16, _I2, (1.0,)),
    ("circular", 32, _T1, (1.0,)), ("al", 16, _T2, (0.5, 1.0))],
    ids=["al-16-cos", "al-16-t2", "al-8-t3", "schur-16-i2", "jacobi-8-i2",
         "circular-32-t1", "al-16-t2-stacked"])
def test_mcmc_chain_matches_site_oracle(kind, n, pot, scales):
    # every case runs the sampler, one stacked chain with a row per scale,
    # on stream 53, and the oracle at the k-th scale on stream 54 + k; the
    # circular row runs at the per-site rate 2 beta / n = 1
    beta = n / 2 if kind == "circular" else 1.0
    spec = sp.EnsembleSpec(kind, n, beta, pot)
    mcmc = sp.McmcParams(sweeps=3000)
    batches = sp._sample(spec, mcmc, np.random.default_rng(53), scales)
    wc = pot.trace_weights()
    for k, (scale, batch) in enumerate(zip(scales, batches)):
        tilted = sp.EnsembleSpec(kind, n, beta, pot.scaled(scale))
        slow, _ = site_chain(tilted, mcmc, np.random.default_rng(54 + k))
        tf, ts = ((cc.batch_trace_powers(a, wc.size, sp.KINDS[kind].topology)
                   @ wc).real / n for a in (batch.alphas, slow))
        se = np.sqrt(tf.var() / tf.size + ts.var() / ts.size)
        assert abs(tf.mean() - ts.mean()) <= 4 * se, scale


@pytest.mark.parametrize("kind, n, pot", [
    ("al", 16, Potential("torus", cos=[0.0, 1.0])), ("circular", 16, _T1),
    ("jacobi", 8, _I1)])
def test_chain_keeps_whole_sweeps(kind, n, pot):
    # thinning rounds up to ceil(thinning / N) whole sweeps, N the matrix size
    spec = sp.EnsembleSpec(kind, n, 1.0, pot)

    def kept(sweeps, thinning):
        mcmc = sp.McmcParams(sweeps, thinning=thinning)
        return sp.sample_ensemble(spec, mcmc, sp.make_rng(12)).alphas

    every_sweep = kept(40, n)
    assert np.array_equal(kept(40, 1), every_sweep)
    assert np.array_equal(kept(20, n + 1), every_sweep[1::2])


# the four ensemble kinds' coefficient vectors: (topology, real)
SITE_CASES = {
    "al": ("periodic", False), "schur": ("periodic", True),
    "circular": ("open", False), "jacobi": ("open", True),
}


def _site_state(kind, n, rng):
    topology, real = SITE_CASES[kind]
    alpha = random_interior_alpha(rng, n, rmax=0.95, real=real)
    if topology == "open":
        alpha[-1] = -1.0 if real else np.exp(2j * np.pi * rng.uniform())
    return alpha


def _class_increments(ext, win, prop, degree, topology):
    """Tr E^k increments, k = 1..degree, read back from the chain's
    _class_delta_v: the weight e_k gives Re, the weight i e_k gives -Im."""
    unit = np.eye(degree, dtype=complex)
    return np.array([sp._class_delta_v(ext, win, prop, w, topology)
                     - 1j * sp._class_delta_v(ext, win, prop, 1j * w, topology)
                     for w in unit])


def _full_increments(alpha, sites, prop, degree, topology):
    """Tr E^k, k = 1..degree, of each trial row (sites[i] moved to prop[i])
    minus that of alpha, from whole traces: array (degree, m)."""
    moved = np.tile(alpha, (sites.size, 1))
    moved[np.arange(sites.size), sites] = prop
    return (cc.batch_trace_powers(moved, degree, topology)
            - cc.batch_trace_powers(alpha, degree, topology)).T


@pytest.mark.parametrize("kind", sorted(SITE_CASES))
def test_site_trace_increments_match_full_traces(kind):
    topology, _ = SITE_CASES[kind]
    entry = sp.KINDS[kind]
    rng = np.random.default_rng(71)
    sizes = range(6, 33, 2) if topology == "periodic" else range(2, 33)
    for n in sizes:
        alpha, fresh = _site_state(kind, n, rng), _site_state(kind, n, rng)
        ext = sp._padded(alpha, entry.periodic)
        classes = sp._classes(entry, n, 2)
        sites = [win[2] - 2 for win in classes]
        assert np.array_equal(np.sort(np.concatenate(sites)),
                              np.arange(entry.mutable(n)))
        for win, at in zip(classes, sites):
            got = _class_increments(ext, win, fresh[at], 2, topology)
            want = _full_increments(alpha, at, fresh[at], 2, topology)
            assert np.abs(got - want).max() <= 1e-13, (n, at)
        assert np.array_equal(ext[2:-2], alpha)


@pytest.mark.parametrize("kind", ["al", "schur"])
def test_ring_classes_take_the_smallest_divisor_above_the_degree(kind):
    # class r holds the sites j = r mod s, s the smallest divisor of n
    # that exceeds the degree
    for n in range(2, 65, 2):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for degree in range(5):
            s = min((d for d in divisors if d > degree), default=n)
            sites = [win[2] - 2
                     for win in sp._classes(sp.KINDS[kind], n, degree)]
            assert len(sites) == s, (n, degree)
            for r, at in enumerate(sites):
                assert np.array_equal(at, np.arange(r, n, s)), (n, degree)
            assert np.array_equal(np.sort(np.concatenate(sites)),
                                  np.arange(n))


def test_small_rings_and_high_degrees_take_batched_traces(monkeypatch):
    # on rings of n <= 2K band offsets wrap onto the diagonal, so the closed
    # forms miss terms of Tr E^K, and above degree 2 there are none: those
    # classes take one batch_trace_powers call on their trial rows
    calls = []
    full = cc.batch_trace_powers

    def spy(alpha, ell_max, topology="periodic"):
        calls.append(len(alpha))
        return full(alpha, ell_max, topology)

    monkeypatch.setattr(cc, "batch_trace_powers", spy)
    rng = np.random.default_rng(72)
    for kind, n, degree, batched in (
            ("al", 2, 1, True), ("schur", 2, 2, True), ("al", 4, 2, True),
            ("al", 8, 3, True), ("circular", 8, 3, True),
            ("jacobi", 8, 3, True), ("al", 4, 1, False),
            ("schur", 6, 2, False), ("circular", 2, 2, False)):
        topology, _ = SITE_CASES[kind]
        entry = sp.KINDS[kind]
        alpha, fresh = _site_state(kind, n, rng), _site_state(kind, n, rng)
        ext = sp._padded(alpha, entry.periodic)
        for win in sp._classes(entry, n, degree):
            at = win[2] - 2
            calls.clear()
            sp._class_delta_v(ext, win, fresh[at], np.ones(degree), topology)
            assert calls == ([at.size + 1] if batched else []), (kind, n)
            got = _class_increments(ext, win, fresh[at], degree, topology)
            want = _full_increments(alpha, at, fresh[at], degree, topology)
            assert np.abs(got - want).max() <= 1e-13, (kind, n, degree)


@pytest.mark.parametrize("kind", sorted(SITE_CASES))
def test_stacked_class_increments_match_each_row(kind, monkeypatch):
    # a stack of 3 states, windows shifted by one padded row per chain and
    # one column of weights per site, gives every row's own increments bit
    # for bit; where the batched trace call serves (rings of n <= 2K,
    # degree > 2) it traces all 3 (m + 1) trial rows at once
    calls = []
    full = cc.batch_trace_powers

    def spy(alpha, ell_max, topology="periodic"):
        calls.append(len(alpha))
        return full(alpha, ell_max, topology)

    monkeypatch.setattr(cc, "batch_trace_powers", spy)
    topology, _ = SITE_CASES[kind]
    entry = sp.KINDS[kind]
    rng = np.random.default_rng(73)
    for n in (2, 4, 8) if entry.periodic else (2, 3, 8):
        for degree in (1, 2, 3):
            alpha = np.array([_site_state(kind, n, rng) for _ in range(3)])
            fresh = np.array([_site_state(kind, n, rng) for _ in range(3)])
            wc = rng.normal(size=(3, degree)) + 1j * rng.normal(size=(3, degree))
            ext = sp._padded(alpha, entry.periodic)
            batched = degree > 2 or (entry.periodic and n <= 2 * degree)
            for win in sp._classes(entry, n, degree):
                at = win[2] - 2
                stacked = (win[:, None] + (n + 4) * np.arange(3)[:, None])
                calls.clear()
                got = sp._class_delta_v(
                    ext, stacked.reshape(5, -1), fresh[:, at].reshape(-1),
                    np.repeat(wc.T, at.size, axis=1), topology)
                assert calls == ([3 * (at.size + 1)] if batched else [])
                want = [sp._class_delta_v(row, win, f[at], w, topology)
                        for row, f, w in zip(ext, fresh, wc)]
                assert np.array_equal(got, np.concatenate(want)), (n, degree)
            assert np.array_equal(ext[:, 2:-2], alpha)


def test_mcmc_schur_with_potential_stays_real_and_bounded():
    pot = Potential("interval", cheb=[0.0, 2.0])
    spec = sp.EnsembleSpec("schur", 16, beta=1.0, potential=pot)
    batch = sp.sample_schur_gge(spec, sp.McmcParams(sweeps=200),
                                np.random.default_rng(55))
    assert batch.alphas.dtype == np.float64
    assert np.abs(batch.alphas).max() < 1.0


def test_mcmc_jacobi_with_interval_potential_runs():
    pot = Potential("interval", cheb=[0.0, 0.8])
    batch = sp.sample_jacobi_beta(6, 1.5, pot, sp.McmcParams(sweeps=100),
                                  np.random.default_rng(56))
    assert np.all(batch.alphas[:, -1] == -1.0)
    assert 0.0 < batch.acceptance_rate <= 1.0


@pytest.mark.parametrize("kind", ["al", "circular"])
def test_torus_kinds_reject_interval_potentials(kind):
    pot = Potential("interval", cheb=[0.0, 1.0])
    mcmc = sp.McmcParams(sweeps=5)
    draw = {"al": lambda: sp.sample_al_gge(sp.EnsembleSpec("al", 8, 1.0, pot),
                                           mcmc, 1),
            "circular": lambda: sp.sample_circular_beta(8, 1.0, pot, mcmc, 1)}
    with pytest.raises(ValueError, match="interval potentials"):
        draw[kind]()


# -------------------------------------------------------------- reproducibility

def test_same_seed_gives_identical_batches():
    spec = sp.EnsembleSpec("al", 8, beta=1.0,
                           potential=Potential("torus", cos=[0.0, 1.0]))
    b1 = sp.sample_al_gge(spec, sp.McmcParams(sweeps=20), np.random.default_rng(99))
    b2 = sp.sample_al_gge(spec, sp.McmcParams(sweeps=20), np.random.default_rng(99))
    assert np.array_equal(b1.alphas, b2.alphas)


def test_make_rng_env_fallback(monkeypatch):
    monkeypatch.setenv("GGE_SEED", "4242")
    rng = sp.make_rng(None)
    rng2 = sp.make_rng(None)
    assert rng.integers(1 << 30) == rng2.integers(1 << 30)


@pytest.mark.parametrize("blank", ["", "  "])
def test_make_rng_blank_env_is_unset(monkeypatch, blank):
    monkeypatch.setenv("GGE_SEED", blank)
    seed = sp._seed(None)
    assert type(seed) is int and 0 <= seed < 2**64
    assert sp._seed(5) == 5
    assert isinstance(sp.make_rng(None), np.random.Generator)


@pytest.mark.parametrize("seed, stream", [(5, 5), (np.int64(5), 5),
                                          (2**64 + 5, 5), (-1, 2**64 - 1)])
def test_make_rng_is_pcg64_at_the_seed_mod_2_64(seed, stream):
    want = np.random.Generator(np.random.PCG64(stream)).uniform(size=4)
    assert sp.make_rng(seed).uniform(size=4).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [1.5, 2.0, "7", np.float64(3.0)])
def test_make_rng_takes_only_an_integer_seed(seed):
    with pytest.raises(TypeError, match="seed must be an integer"):
        sp.make_rng(seed)


def test_make_rng_bad_env(monkeypatch):
    monkeypatch.setenv("GGE_SEED", "abc")
    with pytest.raises(ValueError, match="GGE_SEED"):
        sp.make_rng(None)


# ----------------------------------------------------------------- kind table

KIND_CASES = {
    # kind: (n, beta, potential, own sampler call)
    "al": (8, 1.2, Potential("torus", cos=[0.0, 0.6]),
           lambda spec, mcmc, rng: sp.sample_al_gge(spec, mcmc, rng)),
    "schur": (8, 0.9, Potential("interval", cheb=[0.0, 0.5]),
              lambda spec, mcmc, rng: sp.sample_schur_gge(spec, mcmc, rng)),
    "circular": (6, 0.7, Potential("torus", cos=[0.0, 0.5], sin=[0.2]),
                 lambda spec, mcmc, rng: sp.sample_circular_beta(
                     spec.n, spec.beta, spec.potential, mcmc, rng)),
    "jacobi": (6, 1.5, Potential("interval", cheb=[0.0, 0.8]),
               lambda spec, mcmc, rng: sp.sample_jacobi_beta(
                   spec.n, spec.beta, spec.potential, mcmc, rng)),
}


@pytest.mark.parametrize("kind", sorted(KIND_CASES))
@pytest.mark.parametrize("tilted", [False, True])
def test_sample_ensemble_matches_own_sampler(kind, tilted):
    n, beta, pot, own = KIND_CASES[kind]
    spec = sp.EnsembleSpec(kind, n, beta, pot if tilted else None)
    mcmc = sp.McmcParams(sweeps=20, burn_in=2)
    got = sp.sample_ensemble(spec, mcmc, 61)  # an integer seed works too
    ref = own(spec, mcmc, sp.make_rng(61))
    assert got.kind == kind
    assert got.alphas.shape == (20, n)
    assert np.array_equal(got.alphas, ref.alphas)
    assert got.acceptance_rate == ref.acceptance_rate
    assert (got.acceptance_rate is None) == (not tilted)


@pytest.mark.parametrize("kind, expected", [
    # al: Theta_(2 beta + 1) at every site
    ("al", lambda beta, n: [2 * beta + 1] * n),
    # schur: Beta(beta, beta) at every site
    ("schur", lambda beta, n: [beta] * n),
    # circular: nu_j = 2 beta (n - j)/n + 1 for j = 1..n-1
    ("circular",
     lambda beta, n: [2 * beta * (n - j) / n + 1 for j in range(1, n)]),
    # jacobi: s_j = beta (1 - j/n) for j < n
    ("jacobi", lambda beta, n: [beta * (1 - j / n) for j in range(1, n)]),
])
def test_kind_table_site_parameters(kind, expected):
    entry = sp.KINDS[kind]
    for beta, n in ((0.7, 2), (1.5, 6), (2.0, 10)):
        params = entry.interior(beta, n)
        assert np.allclose(params, expected(beta, n), rtol=1e-15, atol=0)
        mutable = n - 1 if kind == "jacobi" else n
        assert entry.mutable(n) == mutable
    assert entry.periodic == (kind in ("al", "schur"))
    assert entry.domain == ("torus" if kind in ("al", "circular")
                            else "interval")


def test_mcmc_params_store_plain_ints():
    m = sp.McmcParams(np.int64(30), burn_in=np.int32(4), thinning=np.int16(1))
    assert (m.sweeps, m.burn_in, m.thinning) == (30, 4, 1)
    assert all(type(v) is int for v in (m.sweeps, m.burn_in, m.thinning))
    assert sp.McmcParams(5).burn_in is None and sp.McmcParams(5).thinning is None


@pytest.mark.parametrize("kw, field", [
    (dict(sweeps=2.5, burn_in=1.7, thinning=1.9), "sweeps"),
    (dict(sweeps="3"), "sweeps"), (dict(sweeps=3.0), "sweeps"),
    (dict(sweeps=3, burn_in=1.7), "burn_in"),
    (dict(sweeps=3, thinning=0.5), "thinning"),
    (dict(sweeps=3, thinning="2"), "thinning")])
def test_mcmc_params_reject_non_integral_values(kw, field):
    with pytest.raises(TypeError, match=f"{field} must be an integer"):
        sp.McmcParams(**kw)


@pytest.mark.parametrize("kw, field", [
    (dict(sweeps=0), "sweeps"), (dict(sweeps=-2), "sweeps"),
    (dict(sweeps=3, burn_in=-1), "burn_in"),
    (dict(sweeps=3, thinning=0), "thinning")])
def test_mcmc_params_reject_values_below_their_bound(kw, field):
    with pytest.raises(ValueError, match=f"{field} must be >="):
        sp.McmcParams(**kw)


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        sp.EnsembleSpec("al", 7, beta=1.0)  # odd size
    with pytest.raises(ValueError):
        sp.EnsembleSpec("schur", 8, beta=0.0)
    with pytest.raises(ValueError):
        sp.EnsembleSpec("toda", 8, beta=1.0)


def test_ensemble_spec_stores_a_plain_int_size():
    spec = sp.EnsembleSpec("al", np.int64(8), 1.0)
    assert spec.n == 8 and type(spec.n) is int


@pytest.mark.parametrize("kind, n", [
    ("circular", 6.5), ("jacobi", 1.5), ("al", 8.0), ("schur", "8")])
def test_ensemble_spec_rejects_a_non_integral_size(kind, n):
    with pytest.raises(TypeError, match="n must be an integer"):
        sp.EnsembleSpec(kind, n, 0.3)


def test_thin_samplers_reject_a_non_integral_size():
    mcmc = sp.McmcParams(sweeps=2)
    with pytest.raises(TypeError, match="n must be an integer"):
        sp.sample_circular_beta(6.7, 1.0, None, mcmc, 1)
    with pytest.raises(TypeError, match="n must be an integer"):
        sp.sample_jacobi_beta(4.2, 1.0, None, mcmc, 1)


@pytest.mark.parametrize("kind, n, even", [
    ("al", 7, True), ("schur", 1, True), ("jacobi", 3, True),
    ("jacobi", 0, True), ("circular", 1, False), ("circular", -4, False)])
def test_ensemble_spec_size_rule(kind, n, even):
    # rings and interval kinds need an even count; circular rows any n >= 2
    words = "at least two coefficients" + (" and an even count" if even
                                           else ", got")
    with pytest.raises(ValueError, match=words):
        sp.EnsembleSpec(kind, n, 1.0)


@pytest.mark.parametrize("kind, pot", [
    ("al", Potential("interval", cheb=[0.0, 1.0])),
    ("circular", Potential("interval", cheb=[0.0, 1.0])),
    ("schur", Potential("torus", cos=[0.0, 1.0])),
    ("jacobi", Potential("torus", cos=[0.0, 1.0]))])
def test_ensemble_spec_takes_potentials_on_its_own_domain(kind, pot):
    domain = sp.KINDS[kind].domain
    with pytest.raises(ValueError, match=f"take {domain} potentials, not "
                                         f"{pot.domain} potentials"):
        sp.EnsembleSpec(kind, 8, 1.0, pot)


@pytest.mark.parametrize("kind, n", [
    ("al", 8), ("schur", 8), ("circular", 7), ("jacobi", 8)])
def test_every_kind_samples_rows_of_n_coefficients(kind, n):
    batch = sp.sample_ensemble(sp.EnsembleSpec(kind, n, 1.0),
                               sp.McmcParams(sweeps=3), 9)
    assert batch.alphas.shape == (3, n)
