"""Unitary Lax matrices built from Verblunsky coefficients.

The matrix E = L M is the pentadiagonal unitary matrix obtained by
interleaving 2x2 blocks

    Xi(a) = [[conj(a), rho], [rho, -a]],   rho = sqrt(1 - |a|^2),

with odd-site blocks in L and even-site blocks in M.  The periodic
variant (even size, last block wrapping the corner of M) is the Lax
matrix of the defocusing Ablowitz-Ladik lattice; the open variant with
a unimodular final coefficient is the Killip-Nenciu matrix whose
eigenvalues realize the circular and Jacobi beta ensembles.

Power traces never touch an eigensolver: batch_trace_powers keeps E as
one band (rows, 5, n) of closed-form diagonals, builds E^c only up to
c = ceil(K/2) and reads each higher trace from two half powers,
Tr E^(c + c') = sum_f <diag_f(E^c), shift_f(diag_-f(E^c'))>.  All K traces
of a size-n row cost about 3 K^2 n multiply-adds (10 K^2 n by repeated
banded multiplication), real for real coefficients, in fixed row blocks.
"""

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
    "open_diagonals",
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

    def dense(self):
        return self._dense

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


# rows of a batch handled together: small enough that a block's powers stay
# in cache, large enough that the per-block numpy calls do not dominate
_BLOCK = 16


def _band(a, rho):
    """Band (..., 5, n) of E = LM, offsets -2..2 along axis -2, from the
    coefficients and moduli extended by two sites before site 0 and one
    after site n - 1.  Even rows reach offsets -1..2, odd rows -2..1."""
    n = a.shape[-1] - 3
    band = np.zeros(a.shape[:-1] + (5, n), np.result_type(a, rho))
    ac = np.conj(a)

    def at(x, k, first):  # x_{i-k} for the rows i = first, first + 2, ...
        return x[..., 2 - k + first: 2 - k + n: 2]

    even, odd = band[..., 0::2], band[..., 1::2]
    band[..., 2, :] = -ac[..., 2:n + 2] * a[..., 1:n + 1]
    even[..., 1, :] = at(ac, 0, 0) * at(rho, 1, 0)
    even[..., 3, :] = at(rho, 0, 0) * at(ac, -1, 0)
    even[..., 4, :] = at(rho, 0, 0) * at(rho, -1, 0)
    odd[..., 0, :] = at(rho, 1, 1) * at(rho, 2, 1)
    odd[..., 1, :] = -at(rho, 1, 1) * at(a, 2, 1)
    odd[..., 3, :] = -at(a, 1, 1) * at(rho, 0, 1)
    return band


def periodic_diagonals(alpha):
    """The five diagonals of the periodic matrix, batched.

    Args:
        alpha: array (..., n) of interior coefficients, n even.

    Returns:
        array (..., 5, n); entry [d + 2, i] holds the part of
        E[i, (i + d) mod n] reached at offset d.  Offsets are not reduced
        mod n, so on a ring of n < 5 sites a dense entry is the sum of the
        offsets that wrap onto it.
    """
    a = np.asarray(alpha)
    n = a.shape[-1]
    if n < 2 or n % 2:
        raise ValueError(f"periodic matrix needs even size >= 2, got {n}")
    ext = a[..., np.arange(-2, n + 1) % n]
    return _band(ext, np.sqrt(1.0 - np.abs(ext) ** 2))


def open_diagonals(alpha):
    """The five diagonals of the open matrix, batched.

    Args:
        alpha: array (..., n), interior entries and a unimodular last one.

    Returns:
        array (..., 5, n); entry [d + 2, i] holds E[i, i + d], zero where
        i + d falls outside the matrix.  The open matrix is the periodic
        formula with alpha_{-1} = -1 (the leading 1 of M) and a zero
        modulus at both ends.
    """
    a = np.asarray(alpha)
    n = a.shape[-1]
    if n < 2:
        raise ValueError("open matrix needs at least two entries")
    if np.any(np.abs(np.abs(a[..., -1]) - 1.0) > BOUNDARY_TOL):
        raise ValueError("last entry must be unimodular for a unitary "
                         "open matrix")
    ext = np.zeros(a.shape[:-1] + (n + 3,), a.dtype)
    ext[..., 1] = -1.0
    ext[..., 2:n + 2] = a
    rho = np.zeros(ext.shape)
    rho[..., 2:n + 1] = np.sqrt(np.maximum(0.0,
                                           1.0 - np.abs(a[..., :-1]) ** 2))
    return _band(ext, rho)


def _diagonal_sum(power, n):
    """Tr of a banded power; the offsets that are multiples of n (only 0
    once n exceeds the bandwidth) lie on the diagonal."""
    half = power.shape[1] // 2
    return power[:, np.arange(-half, half + 1) % n == 0].sum(axis=(1, 2))


def _pair_trace(a, b, n):
    """Tr(A B) from the bands of A and B: offset f of A meets the offsets
    g of B with f + g = 0 mod n, read at the rows i + f."""
    ha, hb = a.shape[1] // 2, b.shape[1] // 2
    f, g = np.nonzero((np.arange(-ha, ha + 1)[:, None]
                       + np.arange(-hb, hb + 1)) % n == 0)
    cols = (np.arange(n) + (f - ha)[:, None]) % n
    rows = a.shape[0]
    return (a[:, f].reshape(rows, 1, -1)
            @ b[:, g[:, None], cols].reshape(rows, -1, 1))[:, 0, 0]


def _band_traces(band, ell_max):
    """Tr E^ell, ell = 1..ell_max, for each row of a band (rows, 5, n).

    E^c, c <= ceil(ell_max / 2), lives in one of two buffers: offset row g
    at row 4 + g between zero rows, site j at column 2 + j between two
    wrapped halo columns, so the strided view shifted[r, d, f, i] =
    P[f - d][(i + d - 2) mod n] makes E P one einsum.  Wrapping is exact
    on the open topology too, whose bands are zero wherever i + d leaves
    the matrix.  Tr E^(2c-1) and Tr E^(2c) pair E^c with E^(c-1) and E^c.
    """
    rows, _, n = band.shape
    half = -(-ell_max // 2)
    out = np.empty((rows, ell_max), band.dtype)
    bufs = np.zeros((2, rows, 4 * max(half, 1) + 9, n + 4), band.dtype)
    bufs[0, :, 4:9, 2:n + 2] = band
    for c in range(1, half + 1):
        width = 4 * c + 1
        cur, prev = bufs[(c - 1) % 2], bufs[c % 2]
        if c > 1:
            s_row, s_off, s_site = prev.strides
            shifted = as_strided(prev[:, 4:], (rows, 5, width, n),
                                 (s_row, s_site - s_off, s_off, s_site),
                                 writeable=False)
            np.einsum("rdi,rdfi->rfi", band, shifted,
                      out=cur[:, 4:4 + width, 2:n + 2])
        cur[:, 4:4 + width, :2] = cur[:, 4:4 + width, n:n + 2]
        cur[:, 4:4 + width, n + 2:] = cur[:, 4:4 + width, 2:4]
        power = cur[:, 4:4 + width, 2:n + 2]
        out[:, c - 1] = _diagonal_sum(power, n)
        if half < 2 * c - 1 <= ell_max:
            out[:, 2 * c - 2] = _pair_trace(power, prev[:, 4:width, 2:n + 2],
                                            n)
        if half < 2 * c <= ell_max:
            out[:, 2 * c - 1] = _pair_trace(power, power, n)
    return out


def _dense_band(m):
    """Band (1, 5, n) read off a built matrix; on a ring of n < 5 sites
    only the offsets d < n - 2 are used, one per dense entry."""
    E, n = m.dense(), m.n
    i = np.arange(n)
    band = np.zeros((1, 5, n), E.dtype)
    for d in range(-2, 3):
        keep = ((i + d >= 0) & (i + d < n) if m.topology == "open"
                else np.full(n, d < n - 2))
        band[0, d + 2, keep] = E[i[keep], (i[keep] + d) % n]
    return band


def trace_power(m, ell):
    """Tr E^ell of a built matrix, through the banded kernel of
    batch_trace_powers applied to its dense entries."""
    ell = int(ell)
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if ell == 0:
        return complex(m.n)
    return complex(_band_traces(_dense_band(m), ell)[0, -1])


def batch_trace_powers(alpha, ell_max, topology="periodic"):
    """Tr E^ell for ell = 1..ell_max over a batch of coefficient vectors.

    Args:
        alpha: array (batch, n); periodic rows hold n (even) interior
            coefficients, open rows end with a unimodular entry.
        ell_max: highest power.
        topology: "periodic" or "open".

    Returns:
        array (batch, ell_max): complex for complex coefficients, float64
        for real ones.
    """
    diagonals = {"periodic": periodic_diagonals,
                 "open": open_diagonals}.get(topology)
    if diagonals is None:
        raise ValueError(f"unknown topology {topology!r}")
    a = np.atleast_2d(np.asarray(alpha))
    ell_max = int(ell_max)
    out = np.empty((a.shape[0], ell_max),
                   complex if np.iscomplexobj(a) else float)
    for lo in range(0, a.shape[0], _BLOCK):
        out[lo:lo + _BLOCK] = _band_traces(diagonals(a[lo:lo + _BLOCK]),
                                           ell_max)
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
    traces = _band_traces(_dense_band(m), w.size)[0]
    return float(potential.constant * atoms + (w @ traces).real)


def conserved_quantities(alpha, ell_max=4):
    """Conserved data of the periodic lattice for one coefficient vector."""
    a = np.asarray(alpha)
    k0 = float(np.prod(1.0 - np.abs(a) ** 2))
    k1 = complex(-np.sum(a * np.conj(np.roll(a, -1))))
    traces = batch_trace_powers(a[None, :], ell_max)[0]
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
