"""Spectral matrix of A, as its band of diagonals, and derived constants.

The operator family, acting on 2pi-periodic functions:

    A[h] = -h'''' - (a(x) h)'' + (b(x) h)' - c(x) h

with real trigonometric-polynomial coefficients a, b, c.  In the Fourier
basis e^{ipx} the matrix entries are

    A[p, q] = -q^4 d_{pq} + p^2 ahat(p-q) + i p bhat(p-q) - chat(p-q)

Only the diagonals |p - q| <= max_mode of the coefficients are nonzero;
assemble_band stores those, and assemble_A is their dense expansion.
The formal adjoint A* g = -g'''' - a g'' - b g' - c g is not assembled: for
real coefficients its matrix is the conjugate transpose of A's.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass

import numpy as np

from .fourier_core import TrigPoly, leibnitz_constant, sobolev_norm

__all__ = [
    "OperatorSpec",
    "SpectralMatrix",
    "Band",
    "assemble_band",
    "assemble_A",
    "constant_M",
    "benilov_coefficients",
    "d_weights",
]


@dataclass(frozen=True)
class OperatorSpec:
    """Coefficients (a, b, c) of one operator; all must be real-valued."""

    a: TrigPoly
    b: TrigPoly
    c: TrigPoly

    def __post_init__(self):
        for name in ("a", "b", "c"):
            poly = getattr(self, name)
            if not poly.real:
                raise ValueError(f"coefficient {name} must be real-valued")

    @property
    def max_mode(self):
        return max(self.a.max_mode, self.b.max_mode, self.c.max_mode)

    def digest(self):
        """Content hash; identical coefficients give identical digests."""
        parts = []
        for poly in (self.a, self.b, self.c):
            for p in sorted(poly.coeffs):
                v = poly.coeffs[p]
                parts.append(f"{p}:{v.real!r}:{v.imag!r}")
            parts.append(";")
        return hashlib.sha256("|".join(parts).encode()).hexdigest()


class SpectralMatrix:
    """Dense matrix over modes p, q in [-N, N]; entries[p + N, q + N]."""

    __slots__ = ("entries", "N")

    def __init__(self, entries, N=None):
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("spectral matrix must be square")
        if entries.shape[0] % 2 != 1:
            raise ValueError("spectral matrix must have odd size 2N+1")
        n = (entries.shape[0] - 1) // 2
        if N is not None and int(N) != n:
            raise ValueError(f"N={N} inconsistent with size {entries.shape[0]}")
        self.entries = entries
        self.N = n


@dataclass(eq=False)
class Band:
    """A square matrix by its 2w + 1 diagonals: diags[w + m, r] = A[r, r - m],
    zero where the column r - m falls outside [0, n)."""

    diags: np.ndarray

    @classmethod
    def of(cls, A: np.ndarray) -> "Band":
        """The band of a dense matrix, w its largest |i - j| over nonzeros."""
        i, j = np.nonzero(A)
        w = int(np.abs(i - j).max(initial=0))
        diags = np.zeros((2 * w + 1, A.shape[0]), dtype=complex)
        diags[w + i - j, i] = A[i, j]
        return cls(diags)

    w = property(lambda self: self.diags.shape[0] // 2)
    shape = property(lambda self: (self.diags.shape[1],) * 2)
    # cols[w + m, r] = r - m: each entry's column, outside [0, n) where it is zero
    cols = property(lambda self: np.arange(self.shape[0]) - np.arange(-self.w, self.w + 1)[:, None])

    def dense(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """A[lo:hi, lo:hi], all of A by default."""
        hi = self.shape[0] if hi is None else hi
        rows, cols = np.broadcast_arrays(np.arange(self.shape[0]), self.cols)
        ok = (rows >= lo) & (rows < hi) & (cols >= lo) & (cols < hi)
        out = np.zeros((hi - lo,) * 2, dtype=complex)
        out[rows[ok] - lo, cols[ok] - lo] = self.diags[ok]
        return out

    def block(self, m: np.ndarray) -> np.ndarray:
        """A[np.ix_(m, m)] for ascending modes m, from the window they span;
        of a diagonal A (w = 0) its diagonal, the block's only form."""
        if not self.w:
            return self.diags[0, m]
        lo, hi = (m[0], m[-1] + 1) if m.size else (0, 0)
        window = self.dense(lo, hi)
        return window if m.size == hi - lo else window[np.ix_(m - lo, m - lo)]


def assemble_band(spec: OperatorSpec, N: int) -> Band:
    """P_N A P_N as a Band of w = max_mode: mode m = p - q fills diagonal m
    once, from each row's p alone."""
    if N < spec.max_mode:
        warnings.warn(f"N={N} below coefficient max_mode={spec.max_mode}: "
                      "coefficient truncation in the assembled matrix", stacklevel=3)
    n, w = 2 * N + 1, spec.max_mode
    diags = np.zeros((2 * w + 1, n), dtype=complex)
    diags[w] = -(np.arange(-N, N + 1, dtype=float) ** 4)
    modes = set(spec.a.coeffs) | set(spec.b.coeffs) | set(spec.c.coeffs)
    for m in sorted(modes):  # rows r = p + N with both p and q = p - m inside [-N, N]
        r = np.arange(max(0, m), min(2 * N, 2 * N + m) + 1)
        pv = (r - N).astype(float)
        diags[w + m, r] += pv**2 * spec.a.coeff(m) + 1j * pv * spec.b.coeff(m) - spec.c.coeff(m)
    return Band(diags)


def assemble_A(spec: OperatorSpec, N: int) -> SpectralMatrix:
    """Matrix of P_N A P_N in the mode basis: assemble_band's, expanded."""
    return SpectralMatrix(assemble_band(spec, N).dense(), N)


def d_weights(N: int) -> np.ndarray:
    """Diagonal of D: (1 + p^4)^{1/4} for p in [-N, N]."""
    p = np.arange(-N, N + 1, dtype=float)
    return (1.0 + p**4) ** 0.25


def constant_M(spec: OperatorSpec) -> float:
    """Upper bound M for ||A* + D^4||_{H^2 -> L^2}.

    Minimum of two valid bounds: the H^1 route C (||a||_{H^1} + ||b||_{H^1}
    + ||c-1||_{H^1}) with the configured Leibnitz constant C, and the l^1
    coefficient route sum(|ahat|) + sum(|bhat|) + sum(|chat - 1hat|).
    Note the shift: the constant function 1 is subtracted from c in both,
    because (A* + D^4)g = -a g'' - b g' - (c - 1) g.
    """
    c_shift = spec.c - TrigPoly.constant(1.0)
    C = leibnitz_constant()
    h1 = C * (
        sobolev_norm(spec.a, 1.0)
        + sobolev_norm(spec.b, 1.0)
        + sobolev_norm(c_shift, 1.0)
    )
    l1 = (
        sum(abs(v) for v in spec.a.coeffs.values())
        + sum(abs(v) for v in spec.b.coeffs.values())
        + sum(abs(v) for v in c_shift.coeffs.values())
    )
    return min(h1, l1)


def benilov_coefficients(alpha1: float, alpha2: float, alpha3: float) -> OperatorSpec:
    """Coefficients of the rescaled thin-film operator family:

        a(x) = 1 + (alpha2/alpha3) sin x
        b(x) = (1 - (alpha1 + alpha2) cos x) / alpha3
        c(x) = 0

    The index is invariant under the positive rescaling that produced this
    form, so only the rescaled family is exposed.
    """
    if not alpha3 > 0.0:
        raise ValueError("alpha3 must be > 0")
    s = alpha2 / alpha3
    t = (alpha1 + alpha2) / alpha3
    a = TrigPoly({0: 1.0, 1: -0.5j * s, -1: 0.5j * s}, real=True)
    b = TrigPoly({0: 1.0 / alpha3, 1: -0.5 * t, -1: -0.5 * t}, real=True)
    return OperatorSpec(a=a, b=b, c=TrigPoly.zero())
