"""Unitary Lax matrices built from Verblunsky coefficients.

The matrix E = L M is the pentadiagonal unitary matrix obtained by
interleaving 2x2 blocks

    Xi(a) = [[conj(a), rho], [rho, -a]],   rho = sqrt(1 - |a|^2),

with odd-site blocks in L and even-site blocks in M.  The periodic
variant (even size, last block wrapping the corner of M) is the Lax
matrix of the defocusing Ablowitz-Ladik lattice; the open variant with
a unimodular final coefficient is the Killip-Nenciu matrix whose
eigenvalues realize the circular and Jacobi beta ensembles.

Power traces are computed in a cyclic-diagonal representation, cost
O(n * ell * bandwidth) per trace, without any dense eigendecomposition.
"""

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "BoundaryMode",
    "VerblunskyVector",
    "CmvMatrix",
    "ConservedQuantities",
    "NumericalError",
    "UnsupportedTopologyError",
    "build_xi",
    "build_periodic_cmv",
    "build_cmv",
    "eigen_angles",
    "trace_power",
    "batch_trace_powers",
    "periodic_diagonals",
    "e_plus",
    "trace_potential",
    "conserved_quantities",
    "unitarity_residual",
]

BOUNDARY_TOL = 1e-10


class NumericalError(RuntimeError):
    """Raised when a numerically certified result cannot be produced."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class UnsupportedTopologyError(ValueError):
    """Raised for operations that only make sense on one topology."""


class BoundaryMode(str, Enum):
    ALL_INTERIOR = "all-interior"
    LAST_ON_CIRCLE = "last-on-circle"
    LAST_MINUS_ONE = "last-minus-one"


@dataclass(frozen=True)
class VerblunskyVector:
    """Verblunsky coefficients with a declared boundary convention.

    Interior entries must lie strictly inside the unit disk.  With
    LAST_ON_CIRCLE the final entry is unimodular, with LAST_MINUS_ONE it
    equals -1 (the Jacobi case); both make the open matrix unitary.
    """

    alpha: np.ndarray
    boundary: BoundaryMode = BoundaryMode.ALL_INTERIOR

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.alpha))
        object.__setattr__(self, "alpha", a)
        interior = a if self.boundary == BoundaryMode.ALL_INTERIOR else a[:-1]
        if interior.size and np.abs(interior).max() >= 1.0:
            raise ValueError("interior Verblunsky entries must satisfy |alpha| < 1")
        if self.boundary == BoundaryMode.LAST_ON_CIRCLE:
            if abs(abs(a[-1]) - 1.0) > BOUNDARY_TOL:
                raise ValueError("last entry must lie on the unit circle")
        elif self.boundary == BoundaryMode.LAST_MINUS_ONE:
            if abs(a[-1] + 1.0) > BOUNDARY_TOL:
                raise ValueError("last entry must equal -1")

    @property
    def n(self):
        return self.alpha.size

    @property
    def rho(self):
        return np.sqrt(np.maximum(0.0, 1.0 - np.abs(self.alpha) ** 2))


@dataclass
class ConservedQuantities:
    """k0 = prod(1 - |alpha_j|^2), k1 = -sum alpha_j conj(alpha_{j+1}),
    and the power traces Tr E^ell for ell = 1..len(trace_powers)."""

    k0: float
    k1: complex
    trace_powers: np.ndarray


def build_xi(alpha):
    """The 2x2 block [[conj(a), rho], [rho, -a]] for a single coefficient."""
    a = complex(alpha) if np.iscomplexobj(np.asarray(alpha)) else float(alpha)
    r = np.sqrt(max(0.0, 1.0 - abs(a) ** 2))
    return np.array([[np.conj(a), r], [r, -a]])


class CmvMatrix:
    """A built Lax matrix with its two block factors.

    Attributes:
        n: matrix size.
        topology: "periodic" or "open".
        alpha: the generating coefficients, or None when reloaded from JSON.
        l_factor, m_factor: the unitary block factors, or None from JSON.
    """

    def __init__(self, n, topology, dense, alpha=None, l_factor=None, m_factor=None):
        self.n = int(n)
        self.topology = topology
        self.alpha = alpha
        self.l_factor = l_factor
        self.m_factor = m_factor
        self._dense = dense
        self._diags = None

    def dense(self):
        return self._dense

    def diagonals(self):
        """Cyclic-diagonal storage {offset: values}, offsets mod n."""
        if self._diags is None:
            n = self.n
            offsets = range(n) if n <= 5 else (0, 1, 2, n - 1, n - 2)
            idx = np.arange(n)
            self._diags = {
                off: self._dense[idx, (idx + off) % n] for off in offsets
            }
        return self._diags

    def to_json(self):
        """Serialize as {"n", "topology", "entries": [[row, col, re, im], ...]}
        carrying only the structurally nonzero positions."""
        mask = _structural_mask(self.n, self.topology)
        rows, cols = np.nonzero(mask)
        entries = [
            [int(r), int(c), float(np.real(self._dense[r, c])),
             float(np.imag(self._dense[r, c]))]
            for r, c in zip(rows, cols)
        ]
        return json.dumps({"n": self.n, "topology": self.topology,
                           "entries": entries})

    @classmethod
    def from_json(cls, blob):
        doc = json.loads(blob)
        n = int(doc["n"])
        dense = np.zeros((n, n), complex)
        for r, c, re, im in doc["entries"]:
            dense[r, c] = re + 1j * im
        return cls(n, doc["topology"], dense)


def _coerce(v, builder):
    if isinstance(v, VerblunskyVector):
        return v.alpha, v.boundary
    a = np.atleast_1d(np.asarray(v))
    if builder == "periodic":
        return a, BoundaryMode.ALL_INTERIOR
    return a, None


def build_periodic_cmv(v):
    """Periodic Lax matrix for an even number of strictly interior entries.

    L carries the odd-site blocks on the diagonal; M carries the even-site
    blocks with the final block wrapped around the corner.
    """
    alpha, mode = _coerce(v, "periodic")
    if mode != BoundaryMode.ALL_INTERIOR:
        raise ValueError("periodic topology requires all-interior entries")
    n = alpha.size
    if n < 2 or n % 2:
        raise ValueError(f"periodic matrix needs even size >= 2, got {n}")
    if np.abs(alpha).max() >= 1.0:
        raise ValueError("periodic topology requires |alpha_j| < 1 for all j")
    dtype = alpha.dtype if np.iscomplexobj(alpha) else np.float64
    alpha = alpha.astype(dtype)
    rho = np.sqrt(1.0 - np.abs(alpha) ** 2)
    L = np.zeros((n, n), dtype)
    M = np.zeros((n, n), dtype)
    for j in range(0, n, 2):  # site j+1 (odd, 1-based)
        L[j: j + 2, j: j + 2] = [[np.conj(alpha[j]), rho[j]],
                                 [rho[j], -alpha[j]]]
    for j in range(1, n - 2, 2):  # sites 2..n-2 (even, 1-based)
        M[j: j + 2, j: j + 2] = [[np.conj(alpha[j]), rho[j]],
                                 [rho[j], -alpha[j]]]
    M[0, 0] = -alpha[n - 1]
    M[0, n - 1] = rho[n - 1]
    M[n - 1, 0] = rho[n - 1]
    M[n - 1, n - 1] = np.conj(alpha[n - 1])
    return CmvMatrix(n, "periodic", L @ M, alpha, L, M)


def build_cmv(v):
    """Open Lax matrix: interior entries plus a unimodular final entry.

    The factors are L = diag(Xi_1, Xi_3, ...) and M = diag(1, Xi_2, ...),
    with the final coefficient entering as the scalar block conj(alpha_n).
    """
    alpha, mode = _coerce(v, "open")
    n = alpha.size
    if n < 2:
        raise ValueError("open matrix needs at least two entries")
    if np.abs(alpha[:-1]).max() >= 1.0:
        raise ValueError("interior entries must satisfy |alpha_j| < 1")
    if abs(abs(alpha[-1]) - 1.0) > BOUNDARY_TOL:
        raise ValueError(
            "last entry must be unimodular for a unitary open matrix "
            f"(|alpha_n| = {abs(alpha[-1]):.6g})"
        )
    if mode == BoundaryMode.LAST_MINUS_ONE and abs(alpha[-1] + 1) > BOUNDARY_TOL:
        raise ValueError("boundary mode says alpha_n = -1 but it is not")
    dtype = alpha.dtype if np.iscomplexobj(alpha) else np.float64
    alpha = alpha.astype(dtype)
    rho = np.sqrt(np.maximum(0.0, 1.0 - np.abs(alpha) ** 2))
    L = np.zeros((n, n), dtype)
    M = np.zeros((n, n), dtype)
    M[0, 0] = 1.0
    for j in range(0, n - 1):  # site j+1, block on rows j, j+1
        blk = np.array([[np.conj(alpha[j]), rho[j]], [rho[j], -alpha[j]]])
        if j % 2 == 0:
            L[j: j + 2, j: j + 2] = blk
        else:
            M[j: j + 2, j: j + 2] = blk
    if (n - 1) % 2 == 0:  # final scalar block lands in L (odd n) or M (even n)
        L[n - 1, n - 1] = np.conj(alpha[n - 1])
    else:
        M[n - 1, n - 1] = np.conj(alpha[n - 1])
    return CmvMatrix(n, "open", L @ M, alpha, L, M)


def unitarity_residual(m):
    """Largest entry of |E* E - I|."""
    E = m.dense()
    return float(np.abs(E.conj().T @ E - np.eye(m.n)).max())


def eigen_angles(m):
    """Sorted eigenvalue arguments in [-pi, pi).

    Raises NumericalError (with the offending residual) if the computed
    spectrum strays from the unit circle by more than 1e-9 or if the
    eigenvalue iteration fails.
    """
    try:
        lam = np.linalg.eigvals(m.dense())
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
    resid = float(np.abs(np.abs(lam) - 1.0).max())
    if resid > 1e-9:
        raise NumericalError(
            f"spectrum off the unit circle by {resid:.3e}", residual=resid
        )
    angles = np.angle(lam)
    angles[angles >= np.pi] = -np.pi
    return np.sort(angles)


def _diag_multiply(base, power, n):
    """One step of cyclic-diagonal matrix multiplication (base @ power)."""
    out = {}
    for d, a in base.items():
        for e, b in power.items():
            f = (d + e) % n
            term = a * np.roll(b, -d, axis=-1)
            if f in out:
                out[f] = out[f] + term
            else:
                out[f] = term
    return out


def trace_power(m, ell):
    """Tr E^ell by repeated banded multiplication.

    Never touches an eigensolver; cost O(n * ell * bandwidth).
    """
    ell = int(ell)
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    n = m.n
    if ell == 0:
        return complex(n)
    base = m.diagonals()
    power = {k: v.copy() for k, v in base.items()}
    for _ in range(ell - 1):
        power = _diag_multiply(base, power, n)
    return complex(np.sum(power.get(0, 0.0)))


def periodic_diagonals(alpha):
    """The five cyclic diagonals of the periodic matrix, batched.

    Args:
        alpha: array (..., n) of interior coefficients, n even, n >= 6.

    Returns:
        {offset: array (..., n)} with offsets {0, 1, 2, n-2, n-1}; entry i of
        offset d holds E[i, (i + d) mod n].
    """
    a = np.asarray(alpha)
    n = a.shape[-1]
    if n % 2 or n < 6:
        raise ValueError("batched diagonals need even n >= 6")
    rho = np.sqrt(1.0 - np.abs(a) ** 2)
    even = (np.arange(n) % 2 == 0)
    ac = np.conj(a)
    a1 = np.roll(a, 1, axis=-1)    # alpha_{i-1}
    a2 = np.roll(a, 2, axis=-1)
    r1 = np.roll(rho, 1, axis=-1)
    r2 = np.roll(rho, 2, axis=-1)
    d0 = -ac * a1
    dm1 = np.where(even, ac * r1, -r1 * a2)
    dm2 = np.where(even, 0.0, r1 * r2)
    dp1 = np.where(even, rho * np.conj(np.roll(a, -1, axis=-1)), -a1 * rho)
    dp2 = np.where(even, rho * np.roll(rho, -1, axis=-1), 0.0)
    return {0: d0, 1: dp1, 2: dp2, (n - 1) % n: dm1, (n - 2) % n: dm2}


def batch_trace_powers(alpha, ell_max, diags=None):
    """Tr E^ell for ell = 1..ell_max over a batch of coefficient vectors.

    Args:
        alpha: array (batch, n), interior periodic coefficients.
        ell_max: highest power.
        diags: optionally precomputed periodic_diagonals(alpha).

    Returns:
        array (batch, ell_max), complex.
    """
    a = np.atleast_2d(np.asarray(alpha))
    n = a.shape[-1]
    base = diags if diags is not None else periodic_diagonals(a)
    power = {k: v.copy() for k, v in base.items()}
    out = np.empty((a.shape[0], ell_max), complex)
    out[:, 0] = np.sum(power[0], axis=-1)
    for ell in range(2, ell_max + 1):
        power = _diag_multiply(base, power, n)
        out[:, ell - 1] = np.sum(power.get(0, np.zeros(1)), axis=-1)
    return out


def _keep_upper_cyclic(A):
    """Half the diagonal plus the cyclic offsets +1 and +2; the rest zeroed."""
    n = A.shape[0]
    idx = np.arange(n)
    out = np.zeros_like(A)
    out[idx, idx] = 0.5 * A[idx, idx]
    out[idx, (idx + 1) % n] = A[idx, (idx + 1) % n]
    out[idx, (idx + 2) % n] = A[idx, (idx + 2) % n]
    return out


def e_plus(m):
    """Projection of a periodic matrix onto half-diagonal plus upper cyclic band.

    This is the generator appearing in the Lax form of the flows; it is
    only defined for the periodic topology.
    """
    if m.topology != "periodic":
        raise UnsupportedTopologyError("e_plus requires a periodic matrix")
    return _keep_upper_cyclic(m.dense())


def trace_potential(m, potential):
    """Tr V(E) evaluated exactly from power traces.

    Torus potentials use Tr cos(k theta) = Re Tr E^k and the sine analogue;
    interval potentials assume a spectrum in conjugate pairs and count each
    pair once, so the constant term counts n/2 times
    (Potential.trace_weights).
    """
    atoms = m.n
    if potential.domain == "interval":
        if m.n % 2:
            raise ValueError("interval potentials need an even matrix size")
        atoms = m.n // 2
    w = potential.trace_weights()
    traces = np.array([trace_power(m, k) for k in range(1, w.size + 1)],
                      complex)
    return float(potential.constant * atoms + (w @ traces).real)


def conserved_quantities(alpha, ell_max=4):
    """Conserved data of the periodic lattice for one coefficient vector."""
    a = np.asarray(alpha)
    k0 = float(np.prod(1.0 - np.abs(a) ** 2))
    k1 = complex(-np.sum(a * np.conj(np.roll(a, -1))))
    if a.size >= 6 and a.size % 2 == 0:
        traces = batch_trace_powers(a[None, :], ell_max)[0]
    else:
        m = build_periodic_cmv(a)
        traces = np.array([trace_power(m, ell) for ell in range(1, ell_max + 1)])
    return ConservedQuantities(k0=k0, k1=k1, trace_powers=traces)


_MASK_CACHE = {}


def _structural_mask(n, topology):
    key = (n, topology)
    if key not in _MASK_CACHE:
        generic = np.full(n, 0.5 + 0.25j)
        if topology == "periodic":
            ref = build_periodic_cmv(generic)
        else:
            generic[-1] = np.exp(0.3j)
            ref = build_cmv(generic)
        _MASK_CACHE[key] = np.abs(ref.dense()) > 1e-12
    return _MASK_CACHE[key]
