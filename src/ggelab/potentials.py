"""Trigonometric and Chebyshev polynomial potentials.

A torus potential is a real trigonometric polynomial

    V(theta) = c_0 + sum_k c_k cos(k theta) + s_k sin(k theta),

an interval potential is a Chebyshev expansion V(x) = sum_k t_k T_k(x).
Both admit exact evaluation of Tr V(E) from power traces of the Lax
matrix, which is why no other basis is supported.
"""

import numpy as np

__all__ = ["Potential"]


class Potential:
    """Real polynomial potential on the torus or on [-1, 1].

    Args:
        domain: "torus" or "interval".
        cos: cosine coefficients (c_0, c_1, ...); torus only.
        sin: sine coefficients (s_1, s_2, ...); torus only.
        cheb: Chebyshev coefficients (t_0, t_1, ...); interval only.
    """

    def __init__(self, domain="torus", cos=None, sin=None, cheb=None):
        if domain not in ("torus", "interval"):
            raise ValueError(f"unknown domain {domain!r}")
        self.domain = domain
        if domain == "torus":
            if cheb is not None:
                raise ValueError("cheb coefficients are for interval potentials")
            self.cos = np.atleast_1d(np.asarray(cos if cos is not None else [0.0], float))
            self.sin = np.atleast_1d(np.asarray(sin if sin is not None else [], float))
            self.cheb = None
        else:
            if cos is not None or sin is not None:
                raise ValueError("cos/sin coefficients are for torus potentials")
            self.cheb = np.atleast_1d(np.asarray(cheb if cheb is not None else [0.0], float))
            self.cos = None
            self.sin = None

    @property
    def degree(self):
        if self.domain == "torus":
            deg = 0
            if self.cos.size > 1:
                nz = np.nonzero(self.cos[1:])[0]
                if nz.size:
                    deg = max(deg, int(nz[-1]) + 1)
            if self.sin.size:
                nz = np.nonzero(self.sin)[0]
                if nz.size:
                    deg = max(deg, int(nz[-1]) + 1)
            return deg
        nz = np.nonzero(self.cheb[1:])[0] if self.cheb.size > 1 else np.array([], int)
        return int(nz[-1]) + 1 if nz.size else 0

    @property
    def is_zero(self):
        return self.degree == 0 and self.constant == 0.0

    @property
    def constant(self):
        """The constant term: c_0 on the torus, t_0 on the interval."""
        return float(self.cos[0] if self.domain == "torus" else self.cheb[0])

    def trace_weights(self):
        """Complex weights w_k, k = 1..degree, of Tr V(E) in power traces.

        Tr V(E) = constant * M + Re sum_k w_k Tr E^k, where M is the
        matrix size on the torus, with w_k = c_k - i s_k.  Interval
        potentials assume a spectrum of conjugate pairs x = cos(theta)
        and count each pair once, so M is half the matrix size and
        w_k = t_k / 2.
        """
        deg = self.degree
        w = np.zeros(deg, complex)
        if self.domain == "torus":
            for k in range(1, deg + 1):
                c_k = self.cos[k] if k < self.cos.size else 0.0
                s_k = self.sin[k - 1] if k - 1 < self.sin.size else 0.0
                w[k - 1] = c_k - 1j * s_k
        else:
            for k in range(1, deg + 1):
                w[k - 1] = 0.5 * self.cheb[k]
        return w

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
