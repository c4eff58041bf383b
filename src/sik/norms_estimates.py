"""Auxiliary kernel norm |||.||| and the tail estimates built on it.

    |||F||| = 2 pi sigma_max(W),  W(p,q) = (2 + p^4 + q^4) |Fhat(p,q)|

The norm is phase-insensitive and sandwiched between the L^2 -> H^4
operator norm (below) and the H^4 kernel norm (above).  For a truncation
at order N with constant M the solution U of the Lyapunov equation obeys

    1 <= |||U||| <= (1 + lambda_max) / (1 - delta_N),  delta_N = M N^-2,

where lambda_max = |||P_N K P_N||| and K = U - U0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DeltaTooLarge
from .fourier_core import Kernel2D
from .lyapunov import green_kernel

__all__ = [
    "triple_norm",
    "TailReport",
    "estimate_triple_U",
    "estimate_triple_U_kept",
    "tail_bound",
]

_TWO_PI = 2.0 * math.pi


def _weights(p: np.ndarray) -> np.ndarray:
    """2 + p^4 + q^4 over the modes p (rows) and q = p (columns)."""
    p = p.astype(float)
    return 2.0 + p[:, None] ** 4 + p[None, :] ** 4


def _weight_matrix(F: Kernel2D) -> np.ndarray:
    return _weights(np.arange(-F.N, F.N + 1)) * np.abs(F.coeffs)


def _sigma_max(W: np.ndarray) -> float:
    nz = W != 0
    if nz.sum(axis=0).max() <= 1 and nz.sum(axis=1).max() <= 1:
        return float(np.abs(W).max())  # a permuted diagonal: its entries are its singular values
    # Collatz-Wielandt: W^T W >= 0, so sigma_max^2 <= max_i (W^T W v)_i / v_i
    # for every v > 0; power steps (floored positive) tighten it until the
    # Rayleigh quotient, a lower bound, meets it
    v = np.ones(W.shape[1])
    upper = math.inf
    for _ in range(100):
        w = W.T @ (W @ v)
        upper = min(upper, float(np.max(w / v)))
        if upper <= float(v @ w) / float(v @ v) * (1.0 + 1e-12):
            break
        v = np.maximum(w / np.max(w), 1e-12)
    # each (W^T W v)_i sums nonnegative terms: relative rounding < 2 n eps;
    # abrupt underflow (lyapunov._Dense) moves an entry of W or a term of
    # W^T W v by less than 2 N^4 tiny < 1e-290 (tiny = 2.2e-308, N <= 1e4),
    # far inside the spare 2 n eps whenever max W > 1e-120
    return math.sqrt(upper * (1.0 + 4.0 * W.shape[0] * np.finfo(float).eps))


def triple_norm(F: Kernel2D) -> float:
    """|||F||| = 2 pi sigma_max((2 + p^4 + q^4)|Fhat(p,q)|)."""
    return _TWO_PI * _sigma_max(_weight_matrix(F))


@dataclass
class TailReport:
    """Bounds for |||U||| of the untruncated solution, from one solve."""

    N: int
    delta_N: float
    tripleU_lower: float
    tripleU_upper: float
    lambda_max: float


def _tail_report(N: int, M: float, lambda_max) -> TailReport:
    """The bracket for |||U|||; lambda_max() runs only once delta_N < 1."""
    delta = M / float(N) ** 2
    if delta >= 1.0:
        raise DeltaTooLarge(
            f"delta_N = M N^-2 = {delta:.3g} >= 1 at N={N}; increase N"
        )
    lam = lambda_max()
    return TailReport(
        N=N,
        delta_N=delta,
        tripleU_lower=1.0,
        tripleU_upper=(1.0 + lam) / (1.0 - delta),
        lambda_max=lam,
    )


def estimate_triple_U(U_sol, M: float) -> TailReport:
    """Two-sided bound 1 <= |||U||| <= (1 + lambda_max)/(1 - delta_N)."""
    return _tail_report(U_sol.N, M, lambda: triple_norm(U_sol.K))


def estimate_triple_U_kept(Us: list, modes: list, N: int, M: float) -> TailReport:
    """estimate_triple_U for a solution U known only as its diagonal blocks Us, on modes - N.

    K = U - U0 stays in the operator view, W = (2 + p^4 + q^4)
    |U/(2 pi) - diag(u0hat)|, with the rows and columns of the modes
    outside the blocks zero: no equation constrains them.  sigma_max is
    the largest block's, each W on its modes' range of p.  The kernel view
    is W with its columns reversed, which leaves sigma_max alone; a
    contiguous copy of that reversed view sums the bound's products in the
    kernel view's order, so both views give the same bound bit for bit.
    A diagonal block, given as its diagonal, has a diagonal W: its largest
    entry is sigma_max, found in O(n) as _sigma_max finds it.
    """

    def sigma_max(U, m):
        if U.ndim == 1:
            p = (m - N).astype(float)
            return float(np.max(np.abs(U / _TWO_PI - green_kernel(N).diag_coeffs[m])
                                * (2.0 + p**4 + p**4)))
        lo, hi = m.min(), m.max() + 1
        X = U / _TWO_PI
        X[np.diag_indices_from(X)] -= green_kernel(N).diag_coeffs[m]
        W = np.zeros((hi - lo, hi - lo))
        W[np.ix_(m - lo, m - lo)] = np.abs(X)
        W *= _weights(np.arange(lo - N, hi - N))  # the window [lo:hi, lo:hi] only
        return _sigma_max(np.ascontiguousarray(W[:, ::-1]))

    return _tail_report(N, M, lambda: _TWO_PI * max(map(sigma_max, Us, modes), default=0.0))


def tail_bound(M: float, N: int, tripleU: float) -> float:
    """Bound M N^-2 |||U||| for the discarded tail |||K - P_N K P_N|||."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return M * float(N) ** (-2) * tripleU
