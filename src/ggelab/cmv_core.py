"""Unitary Lax matrices built from Verblunsky coefficients.

The matrix E = L M is the pentadiagonal unitary matrix obtained by
interleaving 2x2 blocks

    Xi(a) = [[conj(a), rho], [rho, -a]],   rho = sqrt(1 - |a|^2),

with odd-site blocks in L and even-site blocks in M.  The periodic
variant (even size, last block wrapping the corner of M) is the Lax
matrix of the defocusing Ablowitz-Ladik lattice; the open variant with
a unimodular final coefficient is the Killip-Nenciu matrix whose
eigenvalues realize the circular and Jacobi beta ensembles.

Both variants are read from one closed-form band of five diagonals
(periodic_diagonals, open_diagonals).  A built CmvMatrix holds only that
band: its dense matrix is a scatter of the band, and the factors L and M
are formed on first use, as an independent check of the band.

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
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "BoundaryMode",
    "VerblunskyVector",
    "CmvMatrix",
    "ConservedQuantities",
    "NumericalError",
    "UnsupportedTopologyError",
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


@dataclass
class ConservedQuantities:
    """k0 = prod(1 - |alpha_j|^2), k1 = -sum alpha_j conj(alpha_{j+1}),
    and the power traces Tr E^ell for ell = 1..len(trace_powers)."""

    k0: float
    k1: complex
    trace_powers: np.ndarray


class CmvMatrix:
    """A built Lax matrix, held as its band of five diagonals.

    Attributes:
        n: matrix size.
        topology: "periodic" or "open".
        band: array (5, n) in the layout of periodic_diagonals and
            open_diagonals; the dense matrix and every trace come from it.
        alpha: the generating coefficients, or None when reloaded from JSON.
    """

    def __init__(self, topology, band, alpha=None):
        self.topology = topology
        self.band = band
        self.n = band.shape[-1]
        self.alpha = alpha

    def dense(self):
        """The n x n matrix, scattered from the band."""
        return _scatter(self.band)

    @cached_property
    def _factors(self):
        """(L, M) with the block Xi(alpha_j) on rows j, j + 1: in L for even
        j, in M for odd j.  The ring wraps row n onto row 0; the open matrix
        adds the block of alpha_{-1} = -1 and drops rows outside the matrix,
        as open_diagonals does."""
        if self.alpha is None:
            return None, None
        n, ring = self.n, self.topology == "periodic"
        a, rho = _extended(self.alpha, self.topology)
        pad = 0 if ring else 1
        f = np.zeros((2, n + 2 * pad, n + 2 * pad), self.band.dtype)
        for j in range(-pad, n):
            rows = np.array([j, j + 1])
            rows = rows % n if ring else rows + pad
            f[j % 2][np.ix_(rows, rows)] = [[np.conj(a[j + 2]), rho[j + 2]],
                                            [rho[j + 2], -a[j + 2]]]
        return f[:, pad:n + pad, pad:n + pad]

    @property
    def l_factor(self):
        """The odd-site block factor L, or None from JSON."""
        return self._factors[0]

    @property
    def m_factor(self):
        """The even-site block factor M, or None from JSON."""
        return self._factors[1]

    def to_json(self):
        """Serialize as {"n", "topology", "entries": [[row, col, re, im], ...]}
        carrying only the structurally nonzero positions."""
        E = self.dense()
        rows, cols = np.nonzero(_scatter(_pattern(self.n, self.topology)))
        entries = [[int(r), int(c), float(np.real(E[r, c])),
                    float(np.imag(E[r, c]))] for r, c in zip(rows, cols)]
        return json.dumps({"n": self.n, "topology": self.topology,
                           "entries": entries})

    @classmethod
    def from_json(cls, blob):
        """Rebuild a matrix from to_json output, each entry at the first band
        offset that reaches it.  Raises ValueError for an unknown topology, a
        size the topology cannot have, and an entry outside the matrix or
        outside its structural pattern."""
        doc = json.loads(blob)
        n, topology = int(doc["n"]), doc["topology"]
        pattern = _pattern(n, topology)
        band = np.zeros((5, n), complex)
        for r, c, re, im in doc["entries"]:
            if not (0 <= r < n and 0 <= c < n):
                raise ValueError(f"entry ({r}, {c}) lies outside a matrix "
                                 f"of size {n}")
            hit = np.flatnonzero(pattern[:, r]
                                 & ((r + np.arange(-2, 3) - c) % n == 0))
            if not hit.size:
                raise ValueError(f"entry ({r}, {c}) lies outside the "
                                 f"{topology} band")
            band[hit[0], r] = re + 1j * im
        return cls(topology, band)


def _build(v, topology):
    """Validate the interior coefficients and build the band; the size and
    the last entry of an open vector are checked by its *_diagonals."""
    alpha = np.atleast_1d(v.alpha if isinstance(v, VerblunskyVector) else v)
    interior = alpha if topology == "periodic" else alpha[:-1]
    if np.max(np.abs(interior), initial=0.0) >= 1.0:
        raise ValueError("interior entries must satisfy |alpha_j| < 1")
    return CmvMatrix(topology, _DIAGONALS[topology](alpha), alpha)


def build_periodic_cmv(v):
    """Periodic Lax matrix for an even number of strictly interior entries:
    L carries the odd-site blocks, M the even-site blocks with the final
    block wrapped around the corner."""
    return _build(v, "periodic")


def build_cmv(v):
    """Open Lax matrix: interior entries plus a unimodular final entry.  The
    factors are L = diag(Xi_1, Xi_3, ...) and M = diag(1, Xi_2, ...), the
    final coefficient entering as the scalar block conj(alpha_n)."""
    return _build(v, "open")


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


def _check_size(n, topology):
    """The size rule of each topology: even n >= 2 on the ring, n >= 2 open."""
    if topology not in ("periodic", "open"):
        raise ValueError(f"unknown topology {topology!r}")
    if n < 2 or (topology == "periodic" and n % 2):
        raise ValueError(f"{topology} matrix needs "
                         f"{'an even ' if topology == 'periodic' else ''}"
                         f"size >= 2, got {n}")


def _extended(a, topology):
    """Coefficients and moduli of a batch (..., n) at the sites -2..n.  The
    ring repeats them cyclically; the open matrix has alpha_{-1} = -1 (the
    leading 1 of M) and a zero modulus at both ends."""
    n = a.shape[-1]
    if topology == "periodic":
        ext = a[..., np.arange(-2, n + 1) % n]
        return ext, np.sqrt(1.0 - np.abs(ext) ** 2)
    ext = np.zeros(a.shape[:-1] + (n + 3,), a.dtype)
    ext[..., 1] = -1.0
    ext[..., 2:n + 2] = a
    rho = np.zeros(ext.shape)
    rho[..., 2:n + 1] = np.sqrt(np.maximum(0.0,
                                           1.0 - np.abs(a[..., :-1]) ** 2))
    return ext, rho


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
    _check_size(a.shape[-1], "periodic")
    return _band(*_extended(a, "periodic"))


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
    _check_size(a.shape[-1], "open")
    if np.any(np.abs(np.abs(a[..., -1]) - 1.0) > BOUNDARY_TOL):
        raise ValueError("last entry must be unimodular for a unitary "
                         "open matrix")
    return _band(*_extended(a, "open"))


_DIAGONALS = {"periodic": periodic_diagonals, "open": open_diagonals}


def _pattern(n, topology):
    """Boolean band (5, n) of the positions E can fill: offsets -1..2 on
    even rows, -2..1 on odd rows, and on the open matrix only inside it."""
    _check_size(n, topology)
    d, i = np.arange(-2, 3)[:, None], np.arange(n)
    keep = (d + i % 2 >= -1) & (d + i % 2 <= 2)
    if topology == "open":
        keep &= (i + d >= 0) & (i + d < n)
    return keep


def _scatter(band):
    """The dense matrix of a band (5, n); offsets that wrap onto one entry
    of a small ring add up, and an open band is zero outside the matrix."""
    n = band.shape[-1]
    dense = np.zeros((n, n), band.dtype)
    i = np.arange(n)
    for d in range(-2, 3):
        dense[i, (i + d) % n] += band[d + 2]
    return dense


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


def trace_power(m, ell):
    """Tr E^ell of a built matrix, through the banded kernel of
    batch_trace_powers applied to its band."""
    ell = int(ell)
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if ell == 0:
        return complex(m.n)
    return complex(_band_traces(m.band[None], ell)[0, -1])


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
    a = np.atleast_2d(np.asarray(alpha))
    _check_size(a.shape[-1], topology)
    diagonals = _DIAGONALS[topology]
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
    interval potentials count each conjugate pair of eigenvalues once, so
    the constant term counts n/2 times (Potential.trace_weights).  Only a
    real matrix of even size has its spectrum in conjugate pairs; any other
    raises ValueError for an interval potential.
    """
    atoms = m.n
    if potential.domain == "interval":
        if m.n % 2:
            raise ValueError("interval potentials need an even matrix size")
        if np.any(np.imag(m.band)):
            raise ValueError("interval potentials need a real matrix, whose "
                             "spectrum comes in conjugate pairs")
        atoms = m.n // 2
    w = potential.trace_weights()
    traces = _band_traces(m.band[None], w.size)[0]
    return float(potential.constant * atoms + (w @ traces).real)


def conserved_quantities(alpha, ell_max=4):
    """Conserved data of the periodic lattice for one coefficient vector."""
    a = np.asarray(alpha)
    k0 = float(np.prod(1.0 - np.abs(a) ** 2))
    k1 = complex(-np.sum(a * np.conj(np.roll(a, -1))))
    traces = batch_trace_powers(a[None, :], ell_max)[0]
    return ConservedQuantities(k0=k0, k1=k1, trace_powers=traces)
