"""End-to-end certification that kappa(A) equals the truncated count.

The loop: assemble P_N A P_N, solve the truncated Lyapunov equation,
bound |||U||| from the solution, and test the truncation conditions

    condition 1:  N^2 > M |||U|||
    condition 2:  N^2 > M (1 + sqrt(1 + M)) |||U|||

with the guaranteed upper bound for |||U|||.  When condition 2 holds, the
right-half-plane count of the truncation provably equals the index of the
full operator, and the certificate records both the Schur count and the
Lyapunov-inertia count (they must agree for status Certified).

Structural reduction: when the sparsity pattern of A_N has strongly
connected components that are singletons with exactly zero real diagonal
(e.g. the mean mode of a pure-flux operator, whose matrix row vanishes
identically), those modes carry exact, axis-bound eigenvalues.  They are
counted exactly (contributing nothing to kappa) and excluded from the
Lyapunov solve, which would otherwise be singular by construction.  The
block-triangular structure makes the spectrum split exactly, so this loses
nothing.  The kept block's weakly connected components decouple exactly
too, and real coefficients make A[-p,-q] = conj(A[p,q]): of two mirror
image components (checked with ==) one is solved, the other is its exact
index-reversed conjugate.  So Lyapunov's equation is solved at most twice
per truncation, on P (one side of each pair) and S (the rest).
"""

from __future__ import annotations

import datetime
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from .errors import DeltaTooLarge, NearSingularPencil
from .index import _ldl_n_plus, count_half_plane
from .lyapunov import _RESIDUAL_TOL, _serial_blas, _sign_band, solve_lyapunov_core
from .norms_estimates import estimate_triple_U_kept
from .operator_assembly import OperatorSpec, assemble_A, constant_M, d_weights

__all__ = [
    "CertifyOptions",
    "Certificate",
    "certified_index",
    "cross_validate",
    "exact_axis_split",
]

STATUS_CERTIFIED = "Certified"
STATUS_CONDITION_NOT_MET = "ConditionNotMet"
STATUS_SPECTRA_TOUCH_AXIS = "SpectraTouchAxis"

# the first truncation is at least _N_MIN; each next one exceeds the order
# condition 2 asks for by _MARGIN
_N_MIN = 8
_MARGIN = 8
_SPLIT_MIN = 48  # kept blocks up to this size are solved whole: the split costs more


@dataclass
class CertifyOptions:
    max_N: int = 512
    max_iterations: int = 20


@dataclass
class Certificate:
    spec_digest: str
    M: float
    N_final: int
    delta_N: float
    c_N: Optional[float]
    tripleU_upper: Optional[float]
    cond1_ok: bool
    cond2_ok: bool
    kappa_schur: Optional[int]
    kappa_lyapunov: Optional[int]
    residual: Optional[float]
    axis_gap: Optional[float]
    status: str
    n_axis: int = 0
    timestamp: str = ""

    @property
    def kappa(self):
        return self.kappa_schur

    def to_json_dict(self):
        return asdict(self)


def exact_axis_split(A: np.ndarray):
    """(keep, axis) index arrays from the sparsity pattern of A.

    axis collects singleton strongly connected components whose diagonal
    entry has real part exactly 0.0: their eigenvalues are the diagonal
    entries themselves (block-triangular structure), known without any
    floating-point ambiguity.  keep is the complement, in order.
    """
    _, labels = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix((A != 0.0).astype(np.int8)), connection="strong"
    )
    on_axis = (np.bincount(labels)[labels] == 1) & (np.diagonal(A).real == 0.0)
    return np.flatnonzero(~on_axis), np.flatnonzero(on_axis)


def _mirror_split(A: np.ndarray, keep: np.ndarray):
    """(P, S): one side of each mirror pair of kept components, and the rest.

    When p -> -p (index i -> n-1-i) maps each weakly connected component
    of the kept block onto one, P takes the smaller label of each pair (the
    side of the largest entries first: smaller residuals) and S the
    self-mirror ones; unless conj(A[P, P]) == A[P', P'] for P' the mirror
    of P, S is all of keep.  Vectorised: there may be 2N+1 components.
    """
    if keep.size <= _SPLIT_MIN:
        return keep[:0], keep
    n = A.shape[0]
    ncomp, lab = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix((A != 0.0)[np.ix_(keep, keep)]), connection="weak"
    )
    mlab = lab[::-1]  # each mode's mirror's component, once keep is mirror-symmetric
    P = keep[mlab > lab]
    if (
        np.array_equal(keep, n - 1 - keep[::-1])
        and np.unique(lab * ncomp + mlab).size == ncomp  # one mirror component each
        and np.array_equal(A[np.ix_(P, P)].conj(), A[np.ix_(n - 1 - P, n - 1 - P)])
    ):
        return P, keep[mlab == lab]
    return P[:0], keep


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _expand(parts, values):
    """Each part's eigenvalues, and their conjugates for a mirror pair."""
    ev = [e for (_, w), v in zip(parts, values) for e in (v, v.conj())[:w]]
    return np.concatenate([np.zeros(0, dtype=complex), *ev])


@dataclass
class _Truncation:
    """One truncation N: the entries A of P_N A P_N, its exact axis split,
    the kept block's parts (modes, weight 2 for P and its mirror, 1 for S),
    each part's U (None until solved), and the whole kept block's
    eigenvalues and residual."""

    N: int
    A: np.ndarray
    keep: np.ndarray
    axis: np.ndarray
    parts: list
    Us: Optional[list] = None
    eigenvalues: Optional[np.ndarray] = None
    residual: Optional[float] = None

    @property
    def U(self) -> np.ndarray:
        """The whole kept block's U, in keep order; zero between parts."""
        U = np.zeros((self.keep.size,) * 2, dtype=complex)
        for (m, w), V in zip(self.parts, self.Us):
            for i, X in [(m, V), (2 * self.N - m, V.conj())][:w]:
                U[np.ix_(*[np.searchsorted(self.keep, i)] * 2)] = X
        return U

    @property
    def blocks(self) -> list:
        """The diagonal blocks of U, a mirror pair's once per side."""
        return [U for (_, w), U in zip(self.parts, self.Us or ()) for _ in range(w)]

    @property
    def largest(self) -> int:
        """The largest part's modes: the order of every dense kernel on it."""
        return max((m.size for m, _ in self.parts), default=0)


def _solve_truncation(spec: OperatorSpec, N: int) -> _Truncation:
    """Assemble P_N A P_N, peel its axis modes, solve the kept block's parts.

    NearSingularPencil propagates with the whole kept block's eigenvalues
    and the unsolved record as ``exc.truncation``, so a caller can still
    count or report."""
    A = assemble_A(spec, N).entries
    keep, axis = exact_axis_split(A)
    parts = [(m, w) for m, w in zip(_mirror_split(A, keep), (2, 1)) if m.size]
    t = _Truncation(N=N, A=A, keep=keep, axis=axis, parts=parts)
    whole, solves, singular = A[np.ix_(keep, keep)], [], None
    for m, _ in parts:
        block = whole if m.size == keep.size else A[np.ix_(m, m)]
        try:
            solves.append(solve_lyapunov_core(block, whole))
        except NearSingularPencil as exc:
            singular = singular or exc
            solves.append((None, exc.eigenvalues, None, None))
    t.eigenvalues = _expand(parts, [s[1] for s in solves])
    if singular is not None:
        singular.eigenvalues, singular.truncation = t.eigenvalues, t
        raise singular
    t.Us = [s[0] for s in solves]
    # ||R||_F^2 / n over the kept block: a mirror block's R is P's conjugate
    t.residual = math.sqrt(sum(w * (m.size / keep.size) * (s[2] * s[2])
                               for (m, w), s in zip(parts, solves)))
    return t


def _tripleU_upper(t: _Truncation, M: float) -> Optional[float]:
    """Upper bound on |||U||| from a solved truncation; None when delta_N >= 1."""
    try:
        return estimate_triple_U_kept(t.Us, [m for m, _ in t.parts], t.N, M).tripleU_upper
    except DeltaTooLarge:
        return None


def _cond2_order(M: float, tripleU_upper: float) -> int:
    """Least N with N^2 >= M (1 + sqrt(1 + M)) |||U|||, condition 2's order."""
    return math.ceil(math.sqrt(M * (1.0 + math.sqrt(1.0 + M)) * tripleU_upper))


def certified_index(spec: OperatorSpec, opts: CertifyOptions | None = None) -> Certificate:
    """Adaptive certification loop; always returns a Certificate.

    status Certified requires condition 2, agreement of the Schur and
    inertia counts, no eigenvalue inside the sign band, and a Lyapunov
    residual within the fixed gate _RESIDUAL_TOL.  The Schur count's band
    is _sign_band's: half the gap the solve certifies, or the
    backward-error floor n eps ||A_N|| when the pencil is singular.
    """
    opts = opts or CertifyOptions()
    M = constant_M(spec)
    digest = spec.digest()
    N = max(_N_MIN, math.ceil(math.sqrt(2.0 * M)), spec.max_mode + 4)
    N = min(N, opts.max_N)

    for _ in range(max(1, opts.max_iterations)):
        delta_N = M / float(N) ** 2
        try:
            t = _solve_truncation(spec, N)
        except NearSingularPencil as exc:
            n_plus, _, _, gap = count_half_plane(exc.eigenvalues, _sign_band(exc.truncation.A))
            return Certificate(
                spec_digest=digest,
                M=M,
                N_final=N,
                delta_N=delta_N,
                c_N=None,
                tripleU_upper=None,
                cond1_ok=False,
                cond2_ok=False,
                kappa_schur=int(n_plus) if exc.eigenvalues.size else None,
                kappa_lyapunov=None,
                residual=None,
                axis_gap=gap,
                status=STATUS_SPECTRA_TOUCH_AXIS,
                n_axis=int(exc.truncation.axis.size),
                timestamp=_now(),
            )

        with _serial_blas(t.largest):
            tripleU_upper = _tripleU_upper(t, M)
            # D^2 U D^2 per part: U's inertia, eigenvalues off zero by the elliptic estimate
            d2 = d_weights(N) ** 2
            counts = [_ldl_n_plus(d2[m, None] * U * d2[None, m])
                      for (m, _), U in zip(t.parts, t.Us)]
            n_plus, _, n_zero, gap = count_half_plane(
                t.eigenvalues, _sign_band(t.A, t.blocks, t.residual)
            )
        if tripleU_upper is not None:
            cond1 = float(N) ** 2 > M * tripleU_upper
            cond2 = float(N) ** 2 > M * (1.0 + math.sqrt(1.0 + M)) * tripleU_upper
            c_N = 1.0 - M**2 / float(N) ** 4 * tripleU_upper
        else:
            cond1 = cond2 = False
            c_N = None

        kappa_lyap = None if None in counts else sum(w * c for (_, w), c in zip(t.parts, counts))
        kappa_schur = int(n_plus)

        cert = Certificate(
            spec_digest=digest,
            M=M,
            N_final=N,
            delta_N=delta_N,
            c_N=c_N,
            tripleU_upper=tripleU_upper,
            cond1_ok=bool(cond1),
            cond2_ok=bool(cond2),
            kappa_schur=kappa_schur,
            kappa_lyapunov=kappa_lyap,
            residual=t.residual,
            axis_gap=gap,
            status=STATUS_CONDITION_NOT_MET,
            n_axis=int(t.axis.size),
            timestamp=_now(),
        )

        if cond2:
            # an unreliable solve certifies nothing, whatever it counts
            agreed = kappa_schur == kappa_lyap and n_zero == 0 and t.residual <= _RESIDUAL_TOL
            cert.status = STATUS_CERTIFIED if agreed else STATUS_CONDITION_NOT_MET
            return cert

        if tripleU_upper is None or N >= opts.max_N:
            return cert
        N = min(max(_cond2_order(M, tripleU_upper) + _MARGIN, N + 1), opts.max_N)
    return cert


def cross_validate(cert: Certificate, spec: OperatorSpec):
    """Independent consistency checks for a finished certificate.

    Recounts kappa from Schur diagonals of the kept block's parts: at 2N
    the pipeline's own, at N one Schur per part of A_N (the 2N parts cut
    to |p| <= N).  The 2N band is _sign_band's half certified gap (its
    floor n eps ||A_2N|| when that pencil is singular), the N band the
    floor n eps ||A_N||.  n_zero_N and n_zero_2N count eigenvalues inside
    those bands; kappa_stable needs none, and all three counts equal.
    Verifies ||(D^2 P_N U P_N D^2)^-1|| <= 2(1+M)/c_N, and the finite
    Lyapunov floor: the smallest eigenvalue of A_N^H U_N + U_N A_N with U_N
    the projection of the double-resolution solution must be >= c_N - 1e-6.
    Report-only: returns a dict, raises nothing.
    """
    N, M = cert.N_final, cert.M
    report = {"kappa_cert": cert.kappa_schur}

    try:
        t2 = _solve_truncation(spec, 2 * N)
    except NearSingularPencil as exc:
        t2 = exc.truncation
    with _serial_blas(t2.largest):
        A_N = t2.A[N : 3 * N + 1, N : 3 * N + 1]  # modes |p| <= N: exactly P_N A P_N
        sel = [np.abs(m - 2 * N) <= N for m, _ in t2.parts]
        rows = [m[s] - N for (m, _), s in zip(t2.parts, sel)]
        T_N = [scipy.linalg.schur(A_N[np.ix_(r, r)], output="complex")[0] for r in rows]
        ev_N = _expand(t2.parts, map(np.diagonal, T_N))
        report["kappa_N"], _, report["n_zero_N"], _ = count_half_plane(ev_N, _sign_band(A_N))
        report["kappa_2N"], _, report["n_zero_2N"], _ = count_half_plane(
            t2.eigenvalues, _sign_band(t2.A, t2.blocks, t2.residual)
        )
        report["kappa_stable"] = (
            report["kappa_N"] == report["kappa_2N"] == cert.kappa_schur
            and report["n_zero_N"] == report["n_zero_2N"] == 0)

        # with no kept mode |p| <= N there is nothing to project
        report["projection_available"] = t2.Us is not None and any(r.size for r in rows)
        if not report["projection_available"]:
            return report

        lyap, sing = [], []  # a mirror block's H and X are P's conjugates: same spectra
        for s, r, U in zip(sel, rows, t2.Us):
            U_N, A_sub = U[np.ix_(s, s)], A_N[np.ix_(r, r)]
            H = A_sub.conj().T @ U_N + U_N @ A_sub
            lyap.append(np.linalg.eigvalsh(0.5 * (H + H.conj().T)))
            d2 = d_weights(N)[r] ** 2
            sing.append(np.linalg.svd(d2[:, None] * U_N * d2[None, :], compute_uv=False))
        report["lyap_min"] = lyap_min = float(np.min(np.concatenate(lyap)))
        report["c_N"] = cert.c_N
        report["lyap_ok"] = cert.c_N is not None and lyap_min >= cert.c_N - 1e-6
        sigma_min = float(np.min(np.concatenate(sing)))
        report["inverse_norm"] = inv_norm = 1.0 / sigma_min if sigma_min > 0 else math.inf
        ok = cert.c_N is not None and cert.c_N > 0
        report["inverse_bound"] = bound = 2.0 * (1.0 + M) / cert.c_N if ok else None
        report["inverse_ok"] = inv_norm <= bound if ok else None
        return report
