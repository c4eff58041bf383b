"""Inertia, right-half-plane eigenvalue counts, and the addition rule.

The instability index of a matrix A is the number of eigenvalues in the
open right half-plane with multiplicity.  For a Hermitian U it equals the
number of positive eigenvalues n_plus (the inertia route); the two are tied
by the Lyapunov correspondence and must agree on certified runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateRestriction, NonHermitianInput
from .lyapunov import _hetrf, _matrix_scale, _sign_band

# the reference route's default: |Re l| <= _AXIS_REL_TOL * ||A|| counts as on
# the axis; certify and validate take their bands from _sign_band instead
_AXIS_REL_TOL = 1e-8

__all__ = [
    "Inertia",
    "inertia_hermitian",
    "instability_index_general",
    "count_half_plane",
    "u_orth_complement",
    "addition_rule_check",
]


@dataclass
class Inertia:
    """Eigenvalue sign counts; n_plus + n_minus + n_zero = dimension.

    gap is the smallest distance from the counted spectrum to the dividing
    line (diagnostic); eig_residual is the relative eigendecomposition
    residual ||A - V L V^-1||_F / ||A||_F reported by the general (Schur)
    route -- values far above machine precision mean the computed
    eigenvalues, and therefore the counts, cannot be trusted.
    """

    n_plus: int
    n_minus: int
    n_zero: int
    zero_tol: float
    gap: float | None = None
    eig_residual: float | None = None


def inertia_hermitian(H, zero_tol=None) -> Inertia:
    """Inertia of a Hermitian matrix by eigvalsh: the reference route.

    Default zero_tol is 1e-8 times the spectral norm, a knife edge for an
    unscaled Lyapunov U (film's n=700 kept block at N=351: 540 "zero").
    Raises NonHermitianInput when ||H - H^H|| exceeds 1e-10 relative.
    """
    H = np.asarray(H)
    dev = np.linalg.norm(H - H.conj().T)
    scale = np.linalg.norm(H)
    if dev > 1e-10 * max(scale, 1e-300):
        raise NonHermitianInput(
            f"relative deviation from Hermitian symmetry {dev / max(scale, 1e-300):.3e}"
        )
    eigs = scipy.linalg.eigvalsh(0.5 * (H + H.conj().T))
    if zero_tol is None:
        top = float(np.max(np.abs(eigs))) if eigs.size else 0.0
        zero_tol = 1e-8 * top
    n_plus, n_minus, n_zero, gap = count_half_plane(eigs, zero_tol)
    return Inertia(n_plus, n_minus, n_zero, float(zero_tol), gap=gap)


def _ldl_n_plus(X: np.ndarray) -> int | None:
    """n_plus of a Hermitian X from one Bunch-Kaufman LDL^H (zhetrf, in
    place for a complex X, without the GIL; by Sylvester's law D has X's
    inertia).  None when a pivot eigenvalue is within _sign_band(X) =
    n eps ||X|| of zero: X is within rounding of singular.  A diagonal X
    given as its diagonal (1-D) is its own D, read in O(n).  Under
    lyapunov._Dense's abrupt underflow each flushed term is below tiny =
    2.2e-308, a backward error of order n tiny: inside that band whenever
    ||X|| > tiny / eps = 1e-292."""
    band = _sign_band(X)
    if X.ndim == 1:
        return None if np.any(np.abs(X.real) <= band) else int(np.sum(X.real > 0))
    ldu = np.asfortranarray(X.T, dtype=complex)  # conj(X), in place when X is complex
    ipiv = _hetrf(ldu)
    d, idx, two = ldu.diagonal().real, np.arange(X.shape[0]), ipiv < 0
    # 2x2 blocks (ipiv[k] = ipiv[k+1] < 0) pair each run of ipiv < 0 from its start
    k = idx[two & ((idx - np.maximum.accumulate(np.where(two, 0, idx + 1))) % 2 == 0)]
    m, r = 0.5 * (d[k] + d[k + 1]), np.hypot(0.5 * (d[k] - d[k + 1]), np.abs(ldu[k + 1, k]))
    piv = np.concatenate([d[~two], m - r, m + r])
    return None if np.any(np.abs(piv) <= band) else int(np.sum(piv > 0))


def count_half_plane(eigenvalues, axis_tol: float):
    """(n_plus, n_minus, n_zero, gap) of eigenvalue real parts vs the axis."""
    re = np.asarray(eigenvalues).real
    n_plus = int(np.sum(re > axis_tol))
    n_minus = int(np.sum(re < -axis_tol))
    n_zero = re.size - n_plus - n_minus
    gap = float(np.min(np.abs(re))) if re.size else None
    return n_plus, n_minus, n_zero, gap


def instability_index_general(A, axis_tol=None) -> Inertia:
    """Right-half-plane eigenvalue count of a general square matrix.

    Counts Schur eigenvalues with real part beyond +-axis_tol (default
    1e-8 times a 2-norm bound).  The returned Inertia carries two
    diagnostics: gap (minimal |Re lambda|) and eig_residual.  An
    eig_residual above ~1e-8 at double precision means the eigenvalue
    problem is too ill-conditioned for the count to mean anything.
    """
    A = np.asarray(A, dtype=complex)
    T, _ = scipy.linalg.schur(A, output="complex")
    ev = np.diag(T)
    if axis_tol is None:
        # a zero matrix gets tolerance 0, not the 1.0 floor of _matrix_scale
        axis_tol = _AXIS_REL_TOL * _matrix_scale(A) if A.any() else 0.0
    n_plus, n_minus, n_zero, gap = count_half_plane(ev, axis_tol)
    lam, V = np.linalg.eig(A)
    try:
        recon = (V * lam) @ np.linalg.inv(V)
        norm_A = np.linalg.norm(A)
        eig_residual = float(np.linalg.norm(A - recon) / max(norm_A, 1e-300))
    except np.linalg.LinAlgError:
        eig_residual = math.inf
    return Inertia(
        n_plus,
        n_minus,
        n_zero,
        float(axis_tol),
        gap=gap,
        eig_residual=eig_residual,
    )


def u_orth_complement(U, S) -> np.ndarray:
    """Orthonormal basis of {phi : <U phi, s> = 0 for every column s of S}.

    Computed as the nullspace of S^H U with a relative singular-value
    cutoff.  Returns an n x m array of orthonormal columns (standard inner
    product).
    """
    U = np.asarray(U, dtype=complex)
    S = np.asarray(S, dtype=complex)
    if S.ndim == 1:
        S = S[:, None]
    M = S.conj().T @ U
    _, sing, vh = np.linalg.svd(M, full_matrices=True)
    cutoff = 1e-10 * (sing[0] if sing.size and sing[0] > 0 else 1.0)
    rank = int(np.sum(sing > cutoff))
    return vh[rank:].conj().T


def _rank_with_guard(M, rel_cutoff=1e-8):
    sing = np.linalg.svd(M, compute_uv=False)
    if sing.size == 0 or sing[0] == 0.0:
        return 0
    cutoff = rel_cutoff * sing[0]
    ambiguous = np.sum((sing > cutoff / 10.0) & (sing < cutoff * 10.0))
    if ambiguous:
        raise DegenerateRestriction(
            f"{int(ambiguous)} singular value(s) within 10x of the rank cutoff"
        )
    return int(np.sum(sing >= cutoff))


def _orthonormalize(S):
    S = np.asarray(S, dtype=complex)
    if S.ndim == 1:
        S = S[:, None]
    q, r = np.linalg.qr(S)
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, float(np.abs(np.diag(r)).max()))
    return q[:, keep]


def _restricted_n_plus(U, B, zero_scale):
    if B.shape[1] == 0:
        return 0
    gram = B.conj().T @ U @ B
    gram = 0.5 * (gram + gram.conj().T)
    eigs = scipy.linalg.eigvalsh(gram)
    tol = 1e-8 * zero_scale
    ambiguous = np.sum((np.abs(eigs) > tol / 10.0) & (np.abs(eigs) < tol * 10.0))
    if ambiguous:
        raise DegenerateRestriction(
            f"{int(ambiguous)} restricted eigenvalue(s) within 10x of zero tolerance"
        )
    return int(np.sum(eigs > tol))


def addition_rule_check(U, S1):
    """Both sides of kappa(U) = kappa(U|Pi1) + kappa(U|Pi2) + dim(Pi1 n Pi2).

    Pi1 = span(S1), Pi2 = its U-orthogonal complement.  Returns (lhs, rhs);
    the caller compares.  Raises DegenerateRestriction when a rank or sign
    decision falls inside the ambiguity band around its tolerance.
    """
    U = np.asarray(U, dtype=complex)
    B1 = _orthonormalize(S1)
    B2 = u_orth_complement(U, B1)
    lhs = inertia_hermitian(U).n_plus
    scale = float(np.linalg.norm(U, 2))
    rhs = _restricted_n_plus(U, B1, scale) + _restricted_n_plus(U, B2, scale)
    k1, k2 = B1.shape[1], B2.shape[1]
    if k1 and k2:
        joint = _rank_with_guard(np.hstack([B1, B2]))
    else:
        joint = k1 + k2
    rhs += k1 + k2 - joint
    return lhs, rhs
