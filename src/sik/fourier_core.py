"""Trigonometric polynomials and doubly periodic Fourier kernels.

Conventions used throughout the package:

    f(x) = sum_p fhat(p) e^{ipx},            x in [0, 2pi)
    ||f||_{H^s}^2 = 2 pi sum_p (1 + p^4)^{s/2} |fhat(p)|^2
    F(x,y) = sum_{p,q} Fhat(p,q) e^{ipx} e^{iqy}
    ||F||_{H^s}^2 = 4 pi^2 sum_{p,q} (2 + p^4 + q^4)^{s/2} |Fhat(p,q)|^2

The quartic weight (not the classical (1+p^2)^s) matches the fourth-order
operator scale: one unit of s buys two classical derivatives.  s = 0 gives
the plain L^2 norms in both cases.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_TWO_PI = 2.0 * math.pi


class TrigPoly:
    """A finite Fourier series {mode p -> complex coefficient}.

    When ``real=True`` the polynomial represents a real-valued function and
    the coefficients are symmetrized so that coeff(-p) == conj(coeff(p))
    holds exactly.
    """

    __slots__ = ("coeffs", "real")

    def __init__(self, coeffs=None, real=False):
        items = {}
        if coeffs:
            for p, v in coeffs.items():
                v = complex(v)
                if v != 0.0:
                    items[int(p)] = v
        if real:
            sym = {}
            for p in set(items) | {-p for p in items}:
                cp = items.get(p, 0.0)
                cm = items.get(-p, 0.0)
                if abs(cp - cm.conjugate()) > 1e-12 * max(1.0, abs(cp), abs(cm)):
                    raise ValueError(
                        f"coefficients at modes +-{abs(p)} are not conjugate-symmetric"
                    )
                val = 0.5 * (cp + cm.conjugate())
                if val != 0.0:
                    sym[p] = val
            # exact symmetry: mirror upper modes onto lower ones
            items = {}
            for p, v in sym.items():
                if p > 0:
                    items[p] = v
                    items[-p] = v.conjugate()
                elif p == 0:
                    items[0] = complex(v.real, 0.0)
        self.coeffs = items
        self.real = bool(real)

    @classmethod
    def zero(cls, real=True):
        return cls({}, real=real)

    @classmethod
    def constant(cls, value):
        return cls({0: value}, real=(abs(complex(value).imag) == 0.0))

    @classmethod
    def from_nonneg_modes(cls, entries):
        """Build a real polynomial from coefficients given for p >= 0 only.

        ``entries`` is a list of (mode, value) with complex values; negative
        modes are implied by conjugate symmetry.  The mode-0 value must be
        real.
        """
        coeffs = {}
        for mode, value in entries:
            mode = int(mode)
            value = complex(value)
            if mode < 0:
                raise ValueError(f"mode {mode} is negative; give p >= 0 only")
            if mode == 0 and value.imag != 0.0:
                raise ValueError("mode 0 must have a real coefficient")
            if mode in coeffs:
                raise ValueError(f"duplicate mode {mode}")
            coeffs[mode] = value
            if mode > 0:
                coeffs[-mode] = value.conjugate()
        return cls(coeffs, real=True)

    def coeff(self, p):
        return self.coeffs.get(int(p), 0.0 + 0.0j)

    @property
    def max_mode(self):
        return max((abs(p) for p in self.coeffs), default=0)

    def sample(self, n):
        """Values on the uniform grid x_j = 2 pi j / n, j = 0..n-1."""
        x = _TWO_PI * np.arange(n) / n
        out = np.zeros(n, dtype=complex)
        for p, v in self.coeffs.items():
            out += v * np.exp(1j * p * x)
        return out.real if self.real else out

    def __add__(self, other):
        coeffs = dict(self.coeffs)
        for p, v in other.coeffs.items():
            coeffs[p] = coeffs.get(p, 0.0) + v
        return TrigPoly(coeffs, real=self.real and other.real)

    def __sub__(self, other):
        coeffs = dict(self.coeffs)
        for p, v in other.coeffs.items():
            coeffs[p] = coeffs.get(p, 0.0) - v
        return TrigPoly(coeffs, real=self.real and other.real)

    def scaled(self, alpha):
        alpha = complex(alpha)
        real = self.real and alpha.imag == 0.0
        return TrigPoly({p: alpha * v for p, v in self.coeffs.items()}, real=real)

    def __repr__(self):
        inner = ", ".join(f"{p}: {v}" for p, v in sorted(self.coeffs.items()))
        return f"TrigPoly({{{inner}}}, real={self.real})"


class Kernel2D:
    """Dense Fourier coefficients of a doubly periodic kernel, |p|,|q| <= N.

    ``coeffs[p + N, q + N]`` stores Fhat(p, q).
    """

    __slots__ = ("coeffs", "N")

    def __init__(self, coeffs, N=None):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 2 or coeffs.shape[0] != coeffs.shape[1]:
            raise ValueError("kernel coefficient array must be square")
        if coeffs.shape[0] % 2 != 1:
            raise ValueError("kernel coefficient array must have odd size 2N+1")
        n = (coeffs.shape[0] - 1) // 2
        if N is not None and int(N) != n:
            raise ValueError(f"N={N} inconsistent with array size {coeffs.shape[0]}")
        self.coeffs = coeffs
        self.N = n

    def coeff(self, p, q):
        return self.coeffs[p + self.N, q + self.N]


def tp_multiply(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    """Pointwise product via coefficient convolution."""
    coeffs = {}
    for p, u in f.coeffs.items():
        for q, v in g.coeffs.items():
            coeffs[p + q] = coeffs.get(p + q, 0.0) + u * v
    return TrigPoly(coeffs, real=f.real and g.real)


def tp_derivative(f: TrigPoly, order: int) -> TrigPoly:
    """order-th derivative: coeff(p) -> (ip)^order coeff(p)."""
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    if order == 0:
        return TrigPoly(dict(f.coeffs), real=f.real)
    coeffs = {p: (1j * p) ** order * v for p, v in f.coeffs.items() if p != 0}
    return TrigPoly(coeffs, real=f.real)


def sobolev_norm(f: TrigPoly, s: float) -> float:
    total = 0.0
    for p, v in f.coeffs.items():
        total += (1.0 + float(p) ** 4) ** (s / 2.0) * abs(v) ** 2
    return math.sqrt(_TWO_PI * total)


@functools.cache
def leibnitz_constant() -> float:
    """Constant C in ||a phi||_{L^2} <= C ||a||_{H^1} ||phi||_{L^2}.

    Default is (S/(2 pi))^{1/2} with S = sum_p (1+p^4)^{-1/2} summed with a
    rigorous integral tail bound.
    """
    # S = sum over all integers of (1+p^4)^{-1/2}, with the tail |p| > P
    # bounded by 2 sum_{p>P} p^{-2} < 2/P, added so the result stays an
    # upper bound.
    P = 1_000_000
    p = np.arange(1, P + 1, dtype=float)
    S = 1.0 + 2.0 * float(np.sum(1.0 / np.sqrt(1.0 + p**4))) + 2.0 / P
    return math.sqrt(S / _TWO_PI)
