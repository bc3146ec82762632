"""Empirical spectral measures, Fourier coefficients, and the distance D.

Measures on the unit circle are represented by their eigenvalue angles in
[-pi, pi); measures on [-1, 1] by their points x_j = cos(theta_j).  The
quantitative metric is the truncated Fourier distance

    D(mu, nu) = sqrt(sum_{k=1}^{k_max} |mu_k - nu_k|^2 / k),

with mu_k = int e^{ik theta} dmu.  The sup-form distance over test functions
with joint BV/Lipschitz constraints is not computable; its defining
inequalities are exercised through a fixed dictionary of test functions with
hand-computed norms (check_bv_lip_bound).
"""

import csv
import json

import numpy as np

from .cmv_core import eigen_angles
from .potentials import Potential

DEFAULT_K_MAX = 256

__all__ = [
    "DEFAULT_K_MAX",
    "EmpiricalMeasure",
    "IntervalEmpiricalMeasure",
    "FourierCoeffs",
    "TruncatedDistance",
    "TestFunction",
    "DEFAULT_TEST_FUNCTIONS",
    "BoundCheckReport",
    "fourier_coeffs",
    "distance_D",
    "integrate",
    "density_estimate",
    "check_bv_lip_bound",
]


def _wrap_angles(angles):
    """Map angles into the convention [-pi, pi)."""
    wrapped = np.mod(np.asarray(angles, dtype=float) + np.pi, 2 * np.pi) - np.pi
    # mod can return +pi when the argument sits exactly on the seam
    wrapped[wrapped >= np.pi] -= 2 * np.pi
    return wrapped


class EmpiricalMeasure:
    """Uniformly weighted atoms on the torus.

    Parameters
    ----------
    angles : array_like
        Atom positions; wrapped into [-pi, pi) and sorted.
    """

    def __init__(self, angles):
        angles = np.atleast_1d(np.asarray(angles, dtype=float))
        if angles.size == 0:
            raise ValueError("empirical measure needs at least one atom")
        if not np.all(np.isfinite(angles)):
            raise ValueError("angles must be finite")
        self.angles = np.sort(_wrap_angles(angles))
        self.weight = 1.0 / self.angles.size

    @property
    def count(self):
        return self.angles.size

    def mass(self):
        return 1.0

    def rotated(self, phi):
        """Pushforward under theta -> theta + phi."""
        return EmpiricalMeasure(self.angles + phi)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["theta", "weight"])
            for th in self.angles:
                writer.writerow([repr(float(th)), repr(float(self.weight))])

    def to_json(self):
        return json.dumps({
            "type": "empirical_torus",
            "convention": "angles in [-pi, pi), uniform weights",
            "count": int(self.count),
            "angles": self.angles.tolist(),
        })


class IntervalEmpiricalMeasure:
    """Uniformly weighted atoms x_j = cos(theta_j) in the open interval (-1, 1)."""

    def __init__(self, points):
        points = np.atleast_1d(np.asarray(points, dtype=float))
        if points.size == 0:
            raise ValueError("empirical measure needs at least one point")
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        if np.any(points <= -1.0) or np.any(points >= 1.0):
            raise ValueError("points must lie strictly inside (-1, 1)")
        self.points = np.sort(points)
        self.weight = 1.0 / self.points.size

    @property
    def count(self):
        return self.points.size

    def mass(self):
        return 1.0

    @property
    def angles(self):
        """Angles theta_j = arccos(x_j) in [0, pi); the symmetrized torus lift."""
        return np.arccos(self.points[::-1])

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x", "weight"])
            for x in self.points:
                writer.writerow([repr(float(x)), repr(float(self.weight))])

    def to_json(self):
        return json.dumps({
            "type": "empirical_interval",
            "convention": "points in (-1, 1), x = cos theta, uniform weights",
            "count": int(self.count),
            "points": self.points.tolist(),
        })


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


def fourier_coeffs(mu, k_max=DEFAULT_K_MAX):
    """Fourier coefficients of a measure for k = 1..k_max.

    Accepts EmpiricalMeasure, IntervalEmpiricalMeasure (symmetrized lift,
    real coefficients mean T_k(x_j)), grid densities (their own quadrature),
    or a FourierCoeffs passthrough (truncated).
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if isinstance(mu, FourierCoeffs):
        return mu.truncated(min(k_max, mu.k_max))
    if isinstance(mu, EmpiricalMeasure):
        k = np.arange(1, k_max + 1)
        c = np.exp(1j * k[:, None] * mu.angles[None, :]).mean(axis=1)
        return FourierCoeffs(c)
    if isinstance(mu, IntervalEmpiricalMeasure):
        k = np.arange(1, k_max + 1)
        th = np.arccos(mu.points)
        c = np.cos(k[:, None] * th[None, :]).mean(axis=1).astype(complex)
        return FourierCoeffs(c)
    if hasattr(mu, "fourier"):
        return mu.fourier(k_max)
    raise TypeError(f"cannot compute Fourier coefficients of {type(mu).__name__}")


class TruncatedDistance(float):
    """Value of D at a finite truncation; carries the truncation level used."""

    def __new__(cls, value, k_max):
        obj = super().__new__(cls, value)
        obj.k_max = k_max
        return obj


def distance_D(mu, nu, k_max=DEFAULT_K_MAX):
    """Truncated Fourier distance sqrt(sum_{k<=k_max} |mu_k - nu_k|^2 / k).

    Returns a float subclass whose ``k_max`` attribute reports the truncation
    actually used (the minimum of the requested level and what either input
    can provide).
    """
    a = fourier_coeffs(mu, k_max)
    b = fourier_coeffs(nu, k_max)
    kk = min(a.k_max, b.k_max)
    k = np.arange(1, kk + 1)
    val = np.sqrt(np.sum(np.abs(a.c[:kk] - b.c[:kk]) ** 2 / k))
    return TruncatedDistance(float(val), kk)


def integrate(f, mu):
    """Integral of a test function against a measure.

    ``f`` may be a Potential (evaluated in its native variable) or any
    callable; it receives angles for torus measures and points x for interval
    measures.  Grid densities integrate by their own quadrature rule.
    """
    if isinstance(mu, EmpiricalMeasure):
        return float(np.mean(f(mu.angles)))
    if isinstance(mu, IntervalEmpiricalMeasure):
        return float(np.mean(f(mu.points)))
    if hasattr(mu, "integrate"):
        return mu.integrate(f)
    raise TypeError(f"cannot integrate against {type(mu).__name__}")


def density_estimate(mu, bins=None, bandwidth=None, grid_size=512):
    """Histogram or wrapped-Gaussian KDE of a torus empirical measure.

    Exactly one of ``bins`` (circular histogram) or ``bandwidth`` (KDE scale)
    must be given.  The result is a torus GridDensity with unit mass.
    """
    from .equilibrium import GridDensity, _torus_grid

    if not isinstance(mu, EmpiricalMeasure):
        raise TypeError("density_estimate expects a torus EmpiricalMeasure")
    if (bins is None) == (bandwidth is None):
        raise ValueError("give exactly one of bins or bandwidth")
    if bins is not None:
        if bins <= 0:
            raise ValueError(f"bins must be positive, got {bins}")
        edges = np.linspace(-np.pi, np.pi, bins + 1)
        counts, _ = np.histogram(mu.angles, bins=edges)
        h = 2 * np.pi / bins
        values = counts / (mu.count * h)
        return GridDensity("torus", values)
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    # wrapped Gaussian via its Fourier series: rho = (1/2pi)(1 + 2 sum_k e^{-k^2 s^2/2} Re(mu_k e^{-ik theta}))
    k_cut = int(np.ceil(np.sqrt(2 * np.log(1e18)) / bandwidth)) + 1
    k_cut = min(k_cut, 8 * grid_size)
    k = np.arange(1, k_cut + 1)
    mk = fourier_coeffs(mu, k_cut).c
    damp = np.exp(-0.5 * (k * bandwidth) ** 2)
    theta, h = _torus_grid(grid_size)
    values = (1 + 2 * np.real((damp * mk)[None, :] * np.exp(-1j * theta[:, None] * k[None, :])).sum(axis=1)) / (2 * np.pi)
    values = np.clip(values, 0.0, None)
    values /= values.sum() * h
    return GridDensity("torus", values)


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

    def to_json(self):
        return json.dumps({
            "rank": int(self.rank),
            "entrywise_sum": self.entrywise_sum,
            "rows": self.rows,
            "all_pass": self.all_pass,
        })


def check_bv_lip_bound(a, b, slack=1e-12):
    """Check |int f dmu(A) - int f dmu(B)| against the BV-rank and Lipschitz-entrywise bounds.

    For each function of DEFAULT_TEST_FUNCTIONS the deviation must satisfy
    both

        |.| <= bv(f) * rank(A - B) / N       and
        |.| <= lip(f) * (1/N) sum_ij |(A - B)_ij|,

    with rank counted as singular values above 1e-9 * ||A - B||.
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
        dev = abs(integrate(f, mu_a) - integrate(f, mu_b))
        bv_bound = f.bv * rank / n
        lip_bound = f.lip * entry
        rows.append({
            "name": f.name,
            "deviation": dev,
            "bv_bound": bv_bound,
            "lip_bound": lip_bound,
            "bv_ok": dev <= bv_bound + slack,
            "lip_ok": dev <= lip_bound + slack,
        })
    return BoundCheckReport(rank, entry, rows)
