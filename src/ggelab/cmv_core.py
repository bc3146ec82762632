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
band: its dense matrix is a scatter of the band.  The factors L and M are
not formed; the tests build them block by block as an independent check
of the band.

Power traces never touch an eigensolver.  One kernel, _band_traces, takes
a band of any half-width h and builds P_c = s B P_(c-1) - t P_(c-2) only up
to c = ceil(K/2), each band product one contraction over a strided view of
P_(c-1): np.matmul on complex bands, np.einsum on real ones (_next_power).
Every higher trace comes from two half powers,
Tr P_(a+b) = s Tr(P_a P_b) - t Tr P_(a-b), one einsum over a strided view
of the wider power's transposed band.  Coefficients enter the bands in
double precision, float64 or complex128, whatever the input's precision.
Complex and open rows run the
five-diagonal CMV band with (s, t) = (1, 0), so P_c = E^c.  Real periodic
rows run the three-diagonal band of X = J/2, half the size, where J is
their Geronimus Jacobi matrix (geronimus_diagonals), with (s, t) = (2, 1):
P_c is the Chebyshev polynomial T_c(X) and Tr E^k = 2 Tr T_k(X), with no
detour through monomials, whose conversion to T_k amplifies rounding by
about (1 + sqrt 2)^k.  All K traces of a size-n row cost about 3.5 K^2 n
multiply-adds on the CMV band and 0.6 K^2 n on the Jacobi band, in fixed
row blocks.  The same band gives the eigen-angles of a real ring: its n/2
eigenvalues are the values cos(theta) of the conjugate pairs.  Every other
matrix is unitary but not Hermitian; its angles come from the Hermitian
Cayley transform i (I + E)^-1 (I - E), whose eigenvalues are tan(theta/2),
so every eigen-angle comes from a Hermitian eigvalsh.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
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
    "geronimus_diagonals",
    "e_plus",
    "conserved_quantities",
]

BOUNDARY_TOL = 1e-10


class NumericalError(RuntimeError):
    """Raised when a numerically certified result cannot be produced."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class UnsupportedTopologyError(ValueError):
    """Raised for operations that only make sense on one topology."""


@dataclass(frozen=True)
class VerblunskyVector:
    """Verblunsky coefficients strictly inside the unit disk.

    An open row's unimodular last entry does not belong here: the band it
    builds checks it (open_diagonals).
    """

    alpha: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.alpha))
        object.__setattr__(self, "alpha", a)
        if a.size and not np.abs(a).max() < 1.0:  # NaN fails too
            raise ValueError("interior Verblunsky entries must satisfy |alpha| < 1")

    @property
    def n(self):
        return self.alpha.size


@dataclass
class ConservedQuantities:
    """k0 = prod(1 - |alpha_j|^2), k1 = -sum alpha_j conj(alpha_{j+1}),
    and the power traces Tr E^ell for ell = 1..ell_max, along the last axis
    of trace_powers; a batch holds arrays over its leading axes."""

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
        alpha: the generating coefficients, or None when built from a band.
    """

    def __init__(self, topology, band, alpha=None):
        self.topology = topology
        self.band = band
        self.n = band.shape[-1]
        self.alpha = alpha

    def dense(self):
        """The n x n matrix, scattered from the band."""
        return _scatter(self.band)


def _build(v, topology):
    """Build the band; its *_diagonals check the size, the interior entries
    and the last entry of an open vector."""
    alpha = np.atleast_1d(v.alpha if isinstance(v, VerblunskyVector) else v)
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


def _check_residual(resid, what):
    """Raise NumericalError when a spectrum misses its set by more than 1e-9."""
    if resid > 1e-9:
        raise NumericalError(f"{what} by {resid:.3e}", residual=resid)


def _eigvalsh(h):
    """np.linalg.eigvalsh, with a failed iteration raised as NumericalError."""
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc


# A backward-stable solve of (I + E) X = I - E errs by about eps |X|^2, and
# so leaves the transform that far from Hermitian: the skew max|A - A*| was
# at most 1.3 eps (1 + max|tan(theta/2)|)^2 on complex rings, open rows and
# jacobi rows up to n = 256.  A pass is trusted while its skew is within
# _SKEW_EPS times that and |tan(theta/2)| <= _TAN_MAX, that is, while no
# eigenvalue lies within about 2 / _TAN_MAX of -1.  Its angle error grows
# as up to 6e-16 |tan(theta/2)|, at most 3e-13 at _TAN_MAX.  A solve that
# meets an eigenvalue at -1 leaves a skew far above that (1e16 on odd real
# open rows) even when every |tan(theta/2)| is small
_SKEW_EPS = 16.0
_TAN_MAX = 500.0


def _cayley_pass(E):
    """tan(theta/2) for a unitary E: the eigenvalues of the Hermitised
    A = i (I + E)^-1 (I - E), and the skew max|A - A*| before that, which
    is inf where the solve finds I + E singular."""
    eye = np.eye(len(E))
    try:
        X = np.linalg.solve(eye + E, eye - E)  # A = i X
    except np.linalg.LinAlgError:
        return np.zeros(len(E)), np.inf
    Xh = X.conj().T
    return _eigvalsh(0.5j * (X - Xh)), float(np.abs(X + Xh).max())


def _hermitian(lam, skew):
    """Whether a pass's skew is no more than rounding leaves (_SKEW_EPS)."""
    eps = np.finfo(float).eps
    return skew <= _SKEW_EPS * eps * (1.0 + np.abs(lam).max()) ** 2


def _gap_middle(angles):
    """Middle of the largest gap between the angles, around the circle."""
    s = np.sort(angles)
    gaps = np.diff(s, append=s[0] + 2.0 * np.pi)
    k = np.argmax(gaps)
    return s[k] + 0.5 * gaps[k]


def _cayley_angles(E):
    """Eigen-angles of a unitary matrix E, unsorted.

    A unitary E with eigenvalue exp(i theta) has the Hermitian Cayley
    transform A = i (I + E)^-1 (I - E) with eigenvalue tan(theta/2), so
    theta = 2 arctan of an eigvalsh.  When the pass is not trusted (I + E
    singular, a skew above rounding, or max|tan(theta/2)| > _TAN_MAX), a
    second pass runs on exp(-i phi) E and adds phi back; phi puts -1 in
    the middle of the largest gap of a set known to hold the spectrum: the
    first-pass angles where A was Hermitian, else +-arccos of the
    eigenvalues of (E + E*)/2.  Such a gap is at least pi/n wide, so the
    second pass has |tan(theta/2)| <= 4n/pi and an angle error of up to
    about 8e-16 n; against np.linalg.eigvals, it was at most 3e-13 on the
    circle up to n = 256.

    Raises NumericalError for non-finite entries, for |E* E - I| above
    1e-9 (the transform of a matrix that is not unitary still has real
    eigenvalues, so eigvalsh cannot see it), when an eigvalsh fails, and
    when the second pass is not Hermitian either.
    """
    if not np.isfinite(E).all():
        raise NumericalError("eigenvalue iteration failed: the matrix has "
                             "non-finite entries")
    _check_residual(float(np.abs(E.conj().T @ E - np.eye(len(E))).max()),
                    "spectrum off the unit circle: E* E misses I")
    lam, skew = _cayley_pass(E)
    theta = 2.0 * np.arctan(lam)
    hermitian = _hermitian(lam, skew)
    if hermitian and np.abs(lam).max() <= _TAN_MAX:
        return theta
    if not hermitian:
        x = np.arccos(np.clip(_eigvalsh(0.5 * (E + E.conj().T)), -1.0, 1.0))
        theta = np.concatenate((x, -x))
    phi = _gap_middle(theta) - np.pi
    lam, skew = _cayley_pass(np.exp(-1j * phi) * E)
    if not _hermitian(lam, skew):
        raise NumericalError("eigenvalue iteration failed: the rotated "
                             "Cayley transform is not Hermitian")
    theta = 2.0 * np.arctan(lam) + phi
    return np.remainder(theta + np.pi, 2.0 * np.pi) - np.pi


def eigen_angles(m):
    """Sorted eigenvalue arguments in [-pi, pi), by one rule.

    A periodic matrix built from real coefficients takes its n/2 values
    x = cos(theta) from a dense eigvalsh of its Geronimus Jacobi band X
    (geronimus_diagonals) and returns the n angles +-arccos(x).  Every
    other matrix (complex rows, open rows, matrices built from a band alone)
    takes theta = 2 arctan of the eigvalsh of its Hermitian Cayley
    transform i (I + E)^-1 (I - E), with a second pass on a rotated E for
    a matrix that has an eigenvalue near -1 or whose first pass fails
    (_cayley_angles).

    The two routes differ in accuracy.  The Cayley angles agree with
    np.linalg.eigvals to 1e-12 on the circle.  The real-ring angles inherit
    the conditioning of arccos near x = +-1 and miss by up to about
    1e-13 / |sin(theta)|: 1.9e-10 on 20 schur rows at n = 64, beta = 1.

    Raises NumericalError (with the offending residual) if E has
    non-finite entries, if |E* E - I| or |x| - 1 exceeds 1e-9, or if an
    eigenvalue iteration fails.
    """
    real_ring = (m.topology == "periodic" and m.alpha is not None
                 and not np.iscomplexobj(m.alpha))
    if real_ring:
        x = _eigvalsh(_scatter(geronimus_diagonals(m.alpha)))
        _check_residual(float(np.abs(x).max() - 1.0),
                        "Jacobi spectrum outside [-1, 1]")
        theta = np.arccos(np.clip(x, -1.0, 1.0))
        angles = np.concatenate((theta, 0.0 - theta))  # +0, as np.angle
    else:
        angles = _cayley_angles(m.dense())
    angles[angles >= np.pi] = -np.pi
    return np.sort(angles)


# rows of a batch handled together, sharing one set of power buffers.  On
# one thread at K = 16, blocks of 4, 8, 16 and 32 rows took 0.109, 0.104,
# 0.107 and 0.110 s for 256 complex rings of n = 256 (np.matmul), and 70,
# 44, 32 and 27 ms for 800 real rings of n = 128 (np.einsum, whose fixed
# cost per call a larger block spreads over more rows)
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


def _interior_rho(mod):
    """sqrt(1 - |alpha_j|^2) from interior moduli; raises ValueError unless
    every entry lies strictly inside the unit disk."""
    if not mod.max(initial=0.0) < 1.0:
        raise ValueError("interior entries must satisfy |alpha_j| < 1")
    return np.sqrt(1.0 - mod ** 2)


def _extended(a, topology):
    """Coefficients and moduli of a batch (..., n) at the sites -2..n.  The
    ring repeats them cyclically; the open matrix has alpha_{-1} = -1 (the
    leading 1 of M) and a zero modulus at both ends."""
    n = a.shape[-1]
    if topology == "periodic":
        ext = a[..., np.arange(-2, n + 1) % n]
        return ext, _interior_rho(np.abs(ext))
    ext = np.zeros(a.shape[:-1] + (n + 3,), a.dtype)
    ext[..., 1] = -1.0
    ext[..., 2:n + 2] = a
    rho = np.zeros(ext.shape)
    rho[..., 2:n + 1] = _interior_rho(np.abs(a[..., :-1]))
    return ext, rho


def _double(alpha):
    """alpha as complex128 if complex, else float64: every band, and so every
    trace, is computed in double precision whatever the input's."""
    return np.asarray(alpha, complex if np.iscomplexobj(alpha) else float)


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
    a = _double(alpha)
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
    # in the input's precision, where a single-precision e^(i phi) is
    # unimodular; the band is then built in double precision.  NaN fails
    if not np.all(np.abs(np.abs(a[..., -1]) - 1.0) <= BOUNDARY_TOL):
        raise ValueError("last entry must be unimodular for a unitary "
                         "open matrix")
    return _band(*_extended(_double(a), "open"))


def geronimus_diagonals(alpha):
    """The three diagonals of X = J/2 for real periodic coefficients, batched.

    J is the (n/2) x (n/2) periodic Jacobi matrix of the Geronimus
    relations (Simon, OPUC, Thm 13.1.7; Killip-Nenciu 2004), read with
    indices mod n:

        b_(k+1)   = (1 - alpha_(2k-1)) alpha_(2k) - (1 + alpha_(2k-1)) alpha_(2k-2),
        a_(k+1)^2 = (1 - alpha_(2k-1)) (1 - alpha_(2k)^2) (1 + alpha_(2k+1)),

    with b on the diagonal, a_(k+1) >= 0 joining rows k and k + 1, and the
    corner a_(n/2) joining the last row to the first with sign +1.  Each
    eigenvalue x of X, taken twice, is cos(theta) of a conjugate pair
    exp(+-i theta) of the periodic CMV matrix, so Tr E^ell = 2 Tr T_ell(X).

    Args:
        alpha: real array (..., n) of interior coefficients, n even.

    Returns:
        array (..., 3, n/2) in the layout of periodic_diagonals: entry
        [d + 1, k] holds the part of X[k, (k + d) mod n/2] reached at
        offset d, and on rings of n/2 < 3 offsets that wrap add up.
    """
    a = _double(alpha)
    n = a.shape[-1]
    _check_size(n, "periodic")
    if np.iscomplexobj(a):
        raise ValueError("the Geronimus relations need real coefficients")
    rho = _interior_rho(np.abs(a))
    back = np.concatenate((a[..., -2:], a[..., :-2]), axis=-1)
    odd_before = back[..., 1::2]  # alpha_(2k-1); back[..., 0::2] is alpha_(2k-2)
    minus = 1.0 - odd_before
    band = np.empty(a.shape[:-1] + (3, n // 2))
    band[..., 1, :] = 0.5 * (minus * a[..., 0::2]
                             - (1.0 + odd_before) * back[..., 0::2])
    band[..., 2, :] = 0.5 * rho[..., 0::2] * np.sqrt(minus
                                                     * (1.0 + a[..., 1::2]))
    band[..., 0, 1:] = band[..., 2, :-1]
    band[..., 0, 0] = band[..., 2, -1]
    return band


_DIAGONALS = {"periodic": periodic_diagonals, "open": open_diagonals}


def _scatter(band):
    """The dense matrix of a band (2h + 1, n); offsets that wrap onto one
    entry of a small ring add up, and an open band is zero outside the
    matrix."""
    n, h = band.shape[-1], band.shape[0] // 2
    dense = np.zeros((n, n), band.dtype)
    i = np.arange(n)
    for d in range(-h, h + 1):
        dense[i, (i + d) % n] += band[d + h]
    return dense


def _diagonal_sum(band, n):
    """Tr of a band (rows, 2w + 1, n); the offsets that are multiples of n
    (only 0 once n exceeds the bandwidth) lie on the diagonal."""
    return band[:, band.shape[1] // 2 % n::n].sum(axis=(1, 2))


def _strided(buf, row, col, shape, steps):
    """The view v[r, ...] of a power buffer (rows, height, width) that starts
    at buf[r, row, col] and moves by steps[k] = (rows, columns) along axis
    k + 1.  The ndarray constructor checks that the view stays inside buf."""
    s_row, s_off, s_site = buf.strides
    return np.ndarray((buf.shape[0],) + shape, buf.dtype, buf,
                      offset=row * s_off + col * s_site,
                      strides=(s_row,) + tuple(dr * s_off + dc * s_site
                                               for dr, dc in steps))


def _power_buffer(rows, w, h, n, dtype):
    """Zeroed buffer of a power of half-width w of a band of half-width h:
    offset g at the centre row plus g, site i at column w + i between w
    halo columns on each side.  2h zero rows on each side let the band
    product read past the power; on rings of n <= 2w, 2w more let
    _pair_trace read every offset that wraps onto the diagonal.

    A buffer can serve one row block after another: each block overwrites
    the whole core (_power_rows: the 2w + 1 offset rows, site and halo
    columns alike), and nothing ever writes the pad rows, so they stay
    zero."""
    pad = 2 * h + (2 * w if 2 * w >= n else 0)
    return np.zeros((rows, 2 * (w + pad) + 1, n + 2 * w), dtype)


def _power_buffers(rows, band, ell_max):
    """The buffers of P_1 .. P_ceil(ell_max/2) for up to `rows` rows of
    bands shaped and typed like `band` (rows', 2h + 1, n)."""
    h, n = band.shape[1] // 2, band.shape[2]
    return [_power_buffer(rows, h * c, h, n, band.dtype)
            for c in range(1, -(-ell_max // 2) + 1)]


def _power_rows(buf, n):
    """The 2w + 1 offset rows of a power buffer, halo columns included."""
    w, centre = (buf.shape[2] - n) // 2, buf.shape[1] // 2
    return buf[:, centre - w:centre + w + 1]


def _wrap(rows, n):
    """Fill the halo columns of power rows from their n site columns, so
    that column w + i holds site i mod n (on rings of n < w, many times)."""
    w = (rows.shape[2] - n) // 2
    for lo in range(w - n, -n, -n):
        first = max(lo, 0)
        rows[:, :, first:lo + n] = rows[:, :, w + first - lo:w + n]
    for lo in range(w + n, n + 2 * w, n):
        last = min(lo + n, n + 2 * w)
        rows[:, :, lo:last] = rows[:, :, w:w + last - lo]


def _next_power(sb, prev, prev2, t, cur):
    """Write P_c = (s B) P_(c-1) - t P_(c-2) into its buffer `cur`, from the
    buffers of P_(c-1) and P_(c-2) (None for P_0 = I).  The strided view
    shifted[r, d, f, i] = P_(c-1)[f - d][i + d] of the previous buffer makes
    the band product one contraction over d.

    The band's dtype picks numpy's loop, and both give the einsum's bytes
    (the tests hold the kernel to it).  np.einsum has no fast complex128
    loop for this sum, so a complex band is one batched np.matmul of
    transposed views: on one thread, a complex 256 x 256 call of
    batch_trace_powers at K = 16 took 0.105 s against the einsum's 0.165 s.
    A real band stays on np.einsum, which vectorises float64: on np.matmul,
    the real 800 x 128 ring call took 38 ms against 32 ms, and the real
    open 256 x 64 call 20 ms against 15 ms."""
    _, width, n = sb.shape
    h = width // 2
    w0 = (prev.shape[2] - n) // 2
    w = w0 + h
    shifted = _strided(prev, prev.shape[1] // 2 - w0, w0 - h,
                       (width, 2 * w + 1, n), ((-1, 1), (1, 0), (0, 1)))
    core = _power_rows(cur, n)
    if np.iscomplexobj(sb):  # as (rows, n) products (1, 2h+1) (2h+1, 2w+1)
        np.matmul(sb.transpose(0, 2, 1)[:, :, None],
                  shifted.transpose(0, 3, 1, 2),
                  out=core[..., w:w + n].transpose(0, 2, 1)[:, :, None])
    else:
        np.einsum("rdi,rdfi->rfi", sb, shifted, out=core[..., w:w + n])
    if t and prev2 is None:
        core[:, w, w:w + n] -= t
    elif t:
        w2 = w0 - h
        core[:, 2 * h:2 * h + 2 * w2 + 1, w:w + n] -= \
            t * _power_rows(prev2, n)[..., w2:w2 + n]
    _wrap(core, n)


def _pair_trace(a, b, n):
    """Tr(A B) from the buffers of two powers, B no wider than A.

    Offset g of B at row i meets the offsets f = m n - g of A at row
    i + g, for each multiple m n of n that the two half-widths reach (only
    m = 0 once n exceeds them).  These entries of A lie on one strided view
    of its buffer, anti-diagonal in (g, i) and read through the halo
    columns, so the trace is one einsum and nothing is gathered.
    """
    wa, wb = (a.shape[2] - n) // 2, (b.shape[2] - n) // 2
    reach = (wa + wb) // n
    transposed = _strided(a, a.shape[1] // 2 - reach * n + wb, wa - wb,
                          (2 * reach + 1, 2 * wb + 1, n),
                          ((n, 0), (-1, 1), (0, 1)))
    return np.einsum("rgi,rmgi->r", _power_rows(b, n)[..., wb:wb + n],
                     transposed)


def _band_traces(band, ell_max, s=1, t=0, buffers=None):
    """Tr P_k, k = 1..ell_max, for each row of a band (rows, 2h + 1, n) of a
    matrix B, where P_0 = I, P_1 = B and P_c = s B P_(c-1) - t P_(c-2).

    (s, t) = (1, 0) gives the powers B^c of a CMV band, (2, 1) the
    Chebyshev polynomials T_c(B) of a Jacobi band.  P_c has half-width h c
    and is built only up to c = ceil(ell_max / 2), in the first `rows` rows
    of buffers[c - 1] (_power_buffers, allocated here when None; a caller
    that runs many blocks passes the same buffers to each).  Past Tr B,
    every trace comes from the one pair rule

        Tr P_k = s Tr(P_a P_b) - t Tr P_(a - b),  a = ceil(k/2), b = floor(k/2),

    so no value depends on ell_max.  Halo columns wrap the ring, which is
    exact on the open topology too, whose bands are zero wherever i + d
    leaves the matrix.
    """
    rows, width, n = band.shape
    out = np.empty((rows, ell_max), band.dtype)
    if not ell_max:
        return out
    h = width // 2
    if buffers is None:
        buffers = _power_buffers(rows, band, ell_max)
    out[:, 0] = _diagonal_sum(band, n)
    sb = s * band
    prev2 = prev = None
    for c in range(1, -(-ell_max // 2) + 1):
        cur = buffers[c - 1][:rows]
        if c == 1:
            core = _power_rows(cur, n)
            core[..., h:h + n] = band
            _wrap(core, n)
        else:
            _next_power(sb, prev, prev2, t, cur)
            out[:, 2 * c - 2] = s * _pair_trace(cur, prev, n) - t * out[:, 0]
        if 2 * c <= ell_max:
            out[:, 2 * c - 1] = s * _pair_trace(cur, cur, n) - t * n
        prev2, prev = prev, cur
    return out


def trace_power(m, ell):
    """Tr E^ell of a built matrix, through the banded kernel of
    batch_trace_powers applied to its band.

    It stays beside batch_trace_powers because it takes a built matrix,
    one built from a band alone included, and because the benchmark uses
    it: as the trace oracle of open rows against eigenvalue sums, and as
    one of the two functions its tracer times in the cmv_core.traces
    layer."""
    ell = _power_count(ell, "ell")
    if ell == 0:
        return complex(m.n)
    return complex(_band_traces(m.band[None], ell)[0, -1])


def _power_count(value, name, least=0):
    """`value` as an int >= least: raises TypeError, naming the argument,
    for a value that is not integral (2.5, "3"), and ValueError below the
    bound."""
    try:
        k = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if k < least:
        raise ValueError(f"{name} must be >= {least}, got {k}")
    return k


def _positive(value, name):
    """Raise ValueError, naming the argument, unless value is positive and
    finite: NaN and +-inf fail."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def batch_trace_powers(alpha, ell_max, topology="periodic"):
    """Tr E^ell for ell = 1..ell_max over a batch of coefficient vectors.

    Real periodic rows go through their Geronimus Jacobi band X
    (geronimus_diagonals), whose spectrum cos(theta) carries each conjugate
    pair of eigenvalues of E once: Tr E^ell = 2 Tr T_ell(X).  Complex and
    open rows go through the CMV band.  Both run the one kernel
    _band_traces, in fixed row blocks that share one buffer per half
    power, allocated once per call.

    Args:
        alpha: array (batch, n); periodic rows hold n (even) interior
            coefficients, open rows end with a unimodular entry.
        ell_max: highest power, an integer >= 0.
        topology: "periodic" or "open".

    Returns:
        array (batch, ell_max): complex for complex coefficients, float64
        for real ones.
    """
    a = np.atleast_2d(np.asarray(alpha))
    if a.ndim > 2:
        raise ValueError("alpha must be one row (n,) or a batch (rows, n), "
                         f"got shape {a.shape}")
    _check_size(a.shape[-1], topology)
    ell_max = _power_count(ell_max, "ell_max")
    real_ring = topology == "periodic" and not np.iscomplexobj(a)
    out = np.empty((a.shape[0], ell_max),
                   complex if np.iscomplexobj(a) else float)
    diagonals = geronimus_diagonals if real_ring else _DIAGONALS[topology]
    s, t = (2, 1) if real_ring else (1, 0)
    buffers = None
    for lo in range(0, a.shape[0], _BLOCK):
        band = diagonals(a[lo:lo + _BLOCK])
        if buffers is None:
            buffers = _power_buffers(band.shape[0], band, ell_max)
        traces = _band_traces(band, ell_max, s, t, buffers)
        out[lo:lo + _BLOCK] = 2 * traces if real_ring else traces
    return out


def _plus(band):
    """Dense E+ of a band (5, n): half of offset 0 plus offsets +1 and +2.
    On rings of n <= 4 these offsets share entries with the dropped ones,
    so the projection is taken on the band, before the scatter."""
    upper = band.copy()
    upper[:2] = 0
    upper[2] *= 0.5
    return _scatter(upper)


def _adjoint_band(band):
    """Band (5, n) of the conjugate transpose of _scatter(band)."""
    i = np.arange(band.shape[-1])
    return np.stack([np.conj(band[2 - d, (i + d) % i.size])
                     for d in range(-2, 3)])


def e_plus(m):
    """Projection of a periodic matrix onto half-diagonal plus upper cyclic band.

    This is the generator appearing in the Lax form of the flows; it is
    only defined for the periodic topology.
    """
    if m.topology != "periodic":
        raise UnsupportedTopologyError("e_plus requires a periodic matrix")
    return _plus(m.band)


def conserved_quantities(alpha, ell_max=4):
    """Conserved data of the periodic lattice for coefficient vectors (..., n).

    One vector gives a float k0, a complex k1 and trace_powers (ell_max,);
    a batch gives arrays k0 (...) real, k1 (...) complex and trace_powers
    (..., ell_max), all in double precision.
    """
    a = _double(alpha)
    k0 = np.prod(1.0 - np.abs(a) ** 2, axis=-1)
    k1 = -np.sum(a * np.conj(np.roll(a, -1, axis=-1)), axis=-1).astype(complex)
    traces = batch_trace_powers(a.reshape(-1, a.shape[-1]), ell_max)
    traces = traces.reshape(a.shape[:-1] + traces.shape[1:])
    if a.ndim == 1:
        k0, k1 = float(k0), complex(k1)
    return ConservedQuantities(k0=k0, k1=k1, trace_powers=traces)
