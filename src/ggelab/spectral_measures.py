"""Empirical spectral measures, Fourier coefficients, and the distance D.

One EmpiricalMeasure type serves both domains: on the unit circle its atoms
are eigenvalue angles in [-pi, pi), on [-1, 1] the points x_j = cos(theta_j).
Every measure type answers fourier(k_max), and the empirical and grid
measures answer integrate(f) by their own rules.  The quantitative
metric is the truncated Fourier distance, a plain float,

    D(mu, nu) = sqrt(sum_{k=1}^{k_max} |mu_k - nu_k|^2 / k),

with mu_k = int e^{ik theta} dmu.  The sup-form distance over test functions
with joint BV/Lipschitz constraints is not computable; its defining
inequalities are exercised through a fixed dictionary of test functions with
hand-computed norms (check_bv_lip_bound).
"""

import numpy as np

from .cmv_core import _power_count, eigen_angles

DEFAULT_K_MAX = 256
# floating slack of check_bv_lip_bound's two inequalities
_BOUND_SLACK = 1e-12

__all__ = [
    "DEFAULT_K_MAX",
    "EmpiricalMeasure",
    "FourierCoeffs",
    "TestFunction",
    "DEFAULT_TEST_FUNCTIONS",
    "BoundCheckReport",
    "fourier_coeffs",
    "distance_D",
    "check_bv_lip_bound",
]


def _wrap_angles(angles):
    """Map angles into the convention [-pi, pi)."""
    wrapped = np.mod(np.asarray(angles, dtype=float) + np.pi, 2 * np.pi) - np.pi
    # mod can return +pi when the argument sits exactly on the seam
    wrapped[wrapped >= np.pi] -= 2 * np.pi
    return wrapped


class EmpiricalMeasure:
    """Uniformly weighted atoms on the torus or on the interval.

    Parameters
    ----------
    atoms : array_like
        Atom positions, sorted: angles wrapped into [-pi, pi) on the torus,
        points x_j = cos(theta_j) strictly inside (-1, 1) on the interval.
    domain : {"torus", "interval"}
    """

    def __init__(self, atoms, domain="torus"):
        if domain not in ("torus", "interval"):
            raise ValueError(f"unknown domain {domain!r}")
        atoms = np.atleast_1d(np.asarray(atoms, dtype=float))
        if atoms.size == 0:
            raise ValueError("empirical measure needs at least one atom")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms must be finite")
        if domain == "torus":
            atoms = _wrap_angles(atoms)
        elif np.any(np.abs(atoms) >= 1.0):
            raise ValueError("points must lie strictly inside (-1, 1)")
        self.domain = domain
        self.atoms = np.sort(atoms)

    def integrate(self, f):
        """Mean of f over the atoms (angles on the torus, points x on the interval)."""
        return float(np.mean(f(self.atoms)))

    def fourier(self, k_max):
        """FourierCoeffs of the measure; on the interval those of the
        symmetrized lift, the real means of T_k(x_j) = cos(k arccos x_j)."""
        k = np.arange(1, _power_count(k_max, "k_max", 1) + 1)
        if self.domain == "torus":
            return FourierCoeffs(np.exp(1j * k[:, None] * self.atoms[None, :]).mean(axis=1))
        th = np.arccos(self.atoms)
        return FourierCoeffs(np.cos(k[:, None] * th[None, :]).mean(axis=1).astype(complex))


class FourierCoeffs:
    """Coefficients mu_k = int e^{ik theta} dmu for k = 1..k_max."""

    def __init__(self, c):
        c = np.atleast_1d(np.asarray(c, dtype=complex))
        if c.size == 0:
            raise ValueError("need at least one coefficient")
        worst = float(np.max(np.abs(c)))
        if not worst <= 1.0 + 1e-9:
            raise ValueError(f"|mu_k| = {worst} exceeds 1")
        self.c = c
        self.k_max = c.size

    def __getitem__(self, k):
        if not 1 <= k <= self.k_max:
            raise IndexError(f"k = {k} outside 1..{self.k_max}")
        return self.c[k - 1]

    def truncated(self, k_max):
        if k_max > self.k_max:
            raise ValueError(f"cannot extend truncation {self.k_max} to {k_max}")
        return FourierCoeffs(self.c[:k_max])

    def fourier(self, k_max):
        """The coefficients up to k_max, or all of them if there are fewer."""
        return self.truncated(min(_power_count(k_max, "k_max", 1), self.k_max))


def fourier_coeffs(mu, k_max=DEFAULT_K_MAX):
    """Fourier coefficients of a measure for k = 1..k_max.

    Every measure type computes its own: EmpiricalMeasure (on the interval
    the symmetrized lift, real coefficients mean T_k(x_j)), GridDensity (its
    own quadrature), and FourierCoeffs (truncated).
    """
    k_max = _power_count(k_max, "k_max", 1)
    if not hasattr(mu, "fourier"):
        raise TypeError(f"cannot compute Fourier coefficients of {type(mu).__name__}")
    return mu.fourier(k_max)


def distance_D(mu, nu, k_max=DEFAULT_K_MAX):
    """Truncated Fourier distance sqrt(sum_{k<=k_max} |mu_k - nu_k|^2 / k),
    a float; the sum stops early where either input has fewer
    coefficients (a FourierCoeffs shorter than k_max)."""
    a = fourier_coeffs(mu, k_max)
    b = fourier_coeffs(nu, k_max)
    kk = min(a.k_max, b.k_max)
    k = np.arange(1, kk + 1)
    val = np.sqrt(np.sum(np.abs(a.c[:kk] - b.c[:kk]) ** 2 / k))
    return float(val)


class TestFunction:
    """Dictionary entry: a test function with hand-computed norms.

    The BV norm is the total variation over one full winding of the circle
    (so cos(k theta) has bv = 4k); lip is the global Lipschitz constant.
    """

    def __init__(self, name, fn, bv, lip):
        self.name = name
        self.fn = fn
        self.bv = float(bv)
        self.lip = float(lip)

    def __call__(self, theta):
        return self.fn(theta)


DEFAULT_TEST_FUNCTIONS = (
    TestFunction("cos", np.cos, bv=4.0, lip=1.0),
    TestFunction("sin", np.sin, bv=4.0, lip=1.0),
    TestFunction("cos2", lambda th: np.cos(2 * th), bv=8.0, lip=2.0),
)


class BoundCheckReport:
    """Outcome of check_bv_lip_bound: per-function deviations and bounds."""

    def __init__(self, rank, entrywise_sum, rows):
        self.rank = rank
        self.entrywise_sum = entrywise_sum
        self.rows = rows
        self.all_pass = all(r["bv_ok"] and r["lip_ok"] for r in rows)


def check_bv_lip_bound(a, b):
    """Check |int f dmu(A) - int f dmu(B)| against the BV-rank and Lipschitz-entrywise bounds.

    For each function of DEFAULT_TEST_FUNCTIONS the deviation must satisfy
    both

        |.| <= bv(f) * rank(A - B) / N       and
        |.| <= lip(f) * (1/N) sum_ij |(A - B)_ij|,

    with rank counted as singular values above 1e-9 * ||A - B||, each up
    to a floating slack of 1e-12.
    """
    da = a.dense()
    db = b.dense()
    if da.shape != db.shape:
        raise ValueError(f"dimension mismatch: {da.shape} vs {db.shape}")
    n = da.shape[0]
    diff = da - db
    sv = np.linalg.svd(diff, compute_uv=False)
    if sv.size and sv[0] > 0:
        rank = int(np.sum(sv > 1e-9 * sv[0]))
    else:
        rank = 0
    entry = float(np.abs(diff).sum()) / n
    mu_a = EmpiricalMeasure(eigen_angles(a))
    mu_b = EmpiricalMeasure(eigen_angles(b))
    rows = []
    for f in DEFAULT_TEST_FUNCTIONS:
        dev = abs(mu_a.integrate(f) - mu_b.integrate(f))
        bv_bound = f.bv * rank / n
        lip_bound = f.lip * entry
        rows.append({
            "name": f.name,
            "deviation": dev,
            "bv_bound": bv_bound,
            "lip_bound": lip_bound,
            "bv_ok": dev <= bv_bound + _BOUND_SLACK,
            "lip_ok": dev <= lip_bound + _BOUND_SLACK,
        })
    return BoundCheckReport(rank, entry, rows)
