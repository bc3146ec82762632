"""Trigonometric and Chebyshev polynomial potentials.

A torus potential is a real trigonometric polynomial

    V(theta) = c_0 + sum_k c_k cos(k theta) + s_k sin(k theta),

an interval potential is a Chebyshev expansion V(x) = sum_k t_k T_k(x).
Both admit exact evaluation of Tr V(E) from power traces of the Lax
matrix, which is why no other basis is supported.  A potential keeps its
constant and one complex coefficient vector, w_k = c_k - i s_k on the torus
and w_k = t_k on the interval, so that

    Tr V(E) = constant * M + Re sum_k w_k Tr E^k

with M atoms (every eigenvalue on the torus, each conjugate pair once on
the interval, where the weights are halved).  Potential.spectral_mean is the
one place that turns power traces into V; the Metropolis chains read the
weights directly for the change of Tr V under a move.
"""

import numpy as np

__all__ = ["Potential"]


def _frozen(coeffs):
    """A read-only float copy, so the coefficients cannot drift from the
    weight vector derived from them.  Every coefficient must be finite."""
    out = np.atleast_1d(np.array(coeffs, float))
    if not np.isfinite(out).all():
        raise ValueError("potential coefficients must be finite")
    out.flags.writeable = False
    return out


class Potential:
    """Real polynomial potential on the torus or on [-1, 1].

    Args:
        domain: "torus" or "interval".
        cos: cosine coefficients (c_0, c_1, ...); torus only.
        sin: sine coefficients (s_1, s_2, ...); torus only.
        cheb: Chebyshev coefficients (t_0, t_1, ...); interval only.

    The coefficient arrays are kept as read-only copies; `constant` is c_0
    on the torus and t_0 on the interval.
    """

    def __init__(self, domain="torus", cos=None, sin=None, cheb=None):
        if domain not in ("torus", "interval"):
            raise ValueError(f"unknown domain {domain!r}")
        self.domain = domain
        if domain == "torus":
            if cheb is not None:
                raise ValueError("cheb coefficients are for interval potentials")
            self.cos = _frozen(cos if cos is not None else [0.0])
            self.sin = _frozen(sin if sin is not None else [])
            self.cheb = None
            c, s = self.cos[1:], self.sin
            w = (np.pad(c, (0, max(s.size - c.size, 0)))
                 - 1j * np.pad(s, (0, max(c.size - s.size, 0))))
        else:
            if cos is not None or sin is not None:
                raise ValueError("cos/sin coefficients are for torus potentials")
            self.cheb = _frozen(cheb if cheb is not None else [0.0])
            self.cos = None
            self.sin = None
            w = self.cheb[1:].astype(complex)
        head = self.cos if domain == "torus" else self.cheb
        if not head.size:
            raise ValueError("a potential needs its constant term")
        self.constant = float(head[0])
        # w_k, k = 1..degree: c_k - i s_k on the torus, t_k on the interval
        nz = np.flatnonzero(w)
        self._w = w[:nz[-1] + 1] if nz.size else w[:0]

    @property
    def degree(self):
        return self._w.size

    @property
    def is_zero(self):
        return self.degree == 0 and self.constant == 0.0

    def trace_weights(self):
        """Complex weights w_k, k = 1..degree, of Tr V(E) in power traces.

        Tr V(E) = constant * M + Re sum_k w_k Tr E^k, where M is the
        matrix size on the torus, with w_k = c_k - i s_k.  Interval
        potentials assume a spectrum of conjugate pairs x = cos(theta)
        and count each pair once, so M is half the matrix size and
        w_k = t_k / 2.
        """
        return self._w.copy() if self.domain == "torus" else 0.5 * self._w

    def spectral_mean(self, traces, size):
        """Tr V(E) / M from power traces Tr E^k, k = 1.., of size x size
        matrices: the integral of V against the empirical spectral measure.

        traces has shape (..., K) with K >= degree; M is atoms(size), so a
        constant potential c0 gives exactly c0.  Each row is reduced on its
        own (einsum, not a BLAS matrix-vector product), so a single row gives
        the same bits as that row of a batch.
        """
        sums = np.einsum("...k,k->...", traces[..., :self.degree],
                         self.trace_weights()).real
        return self.constant + sums / self.atoms(size)

    def atoms(self, size):
        """The M of trace_weights for a matrix of this size: every eigenvalue
        on the torus, each conjugate pair once on the interval, which needs
        an even size (ValueError otherwise)."""
        if self.domain == "torus":
            return size
        if size % 2:
            raise ValueError("interval potentials need an even matrix size")
        return size // 2

    def __call__(self, u):
        """Evaluate at angles (torus) or at points of [-1, 1] (interval)."""
        u = np.asarray(u, float)
        if self.domain == "torus":
            out = np.full_like(u, self.cos[0])
            for k in range(1, self.cos.size):
                out += self.cos[k] * np.cos(k * u)
            for k in range(1, self.sin.size + 1):
                out += self.sin[k - 1] * np.sin(k * u)
            return out
        return np.polynomial.chebyshev.chebval(u, self.cheb)

    def scaled(self, factor):
        """Return factor * V (used by thermodynamic integration)."""
        if self.domain == "torus":
            return Potential("torus", cos=factor * self.cos, sin=factor * self.sin)
        return Potential("interval", cheb=factor * self.cheb)

    def to_dict(self):
        if self.domain == "torus":
            return {
                "domain": "torus",
                "cos": [float(c) for c in self.cos],
                "sin": [float(s) for s in self.sin],
            }
        return {"domain": "interval", "cheb": [float(t) for t in self.cheb]}

    def __repr__(self):
        if self.domain == "torus":
            return f"Potential(torus, cos={self.cos.tolist()}, sin={self.sin.tolist()})"
        return f"Potential(interval, cheb={self.cheb.tolist()})"
