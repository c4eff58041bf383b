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
nothing.
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
from .lyapunov import _RESIDUAL_TOL, _sign_band, solve_lyapunov_core
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
    n = A.shape[0]
    pattern = scipy.sparse.csr_matrix((A != 0.0).astype(np.int8))
    ncomp, labels = scipy.sparse.csgraph.connected_components(
        pattern, directed=True, connection="strong"
    )
    counts = np.bincount(labels, minlength=ncomp)
    idx = np.arange(n)
    singleton = counts[labels] == 1
    diag_re = np.real(np.diagonal(A))
    axis = idx[singleton & (diag_re == 0.0)]
    keep = np.setdiff1d(idx, axis)
    return keep, axis


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


@dataclass
class _Truncation:
    """One truncation N: the entries A of P_N A P_N, its exact axis split,
    and the Lyapunov solve on the kept block (None until solved)."""

    N: int
    A: np.ndarray
    keep: np.ndarray
    axis: np.ndarray
    U: Optional[np.ndarray] = None
    eigenvalues: Optional[np.ndarray] = None
    residual: Optional[float] = None
    pair_min: Optional[float] = None


def _solve_truncation(spec: OperatorSpec, N: int) -> _Truncation:
    """Assemble P_N A P_N, peel its axis modes, solve on the kept block.

    NearSingularPencil propagates; it carries the unsolved record as
    ``exc.truncation``, so a caller can still count or report.
    """
    A = assemble_A(spec, N).entries
    keep, axis = exact_axis_split(A)
    t = _Truncation(N=N, A=A, keep=keep, axis=axis)
    try:
        t.U, t.eigenvalues, t.residual, t.pair_min = solve_lyapunov_core(A[np.ix_(keep, keep)])
    except NearSingularPencil as exc:
        exc.truncation = t
        raise
    return t


def _tripleU_upper(t: _Truncation, M: float) -> Optional[float]:
    """Upper bound on |||U||| from a solved truncation; None when delta_N >= 1."""
    try:
        return estimate_triple_U_kept(t.U, t.keep, t.N, M).tripleU_upper
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
            ev = exc.eigenvalues if exc.eigenvalues is not None else np.array([])
            n_plus, _, _, gap = count_half_plane(ev, _sign_band(exc.truncation.A))
            return Certificate(
                spec_digest=digest,
                M=M,
                N_final=N,
                delta_N=delta_N,
                c_N=None,
                tripleU_upper=None,
                cond1_ok=False,
                cond2_ok=False,
                kappa_schur=int(n_plus) if ev.size else None,
                kappa_lyapunov=None,
                residual=None,
                axis_gap=gap,
                status=STATUS_SPECTRA_TOUCH_AXIS,
                n_axis=int(exc.truncation.axis.size),
                timestamp=_now(),
            )

        tripleU_upper = _tripleU_upper(t, M)
        if tripleU_upper is not None:
            cond1 = float(N) ** 2 > M * tripleU_upper
            cond2 = float(N) ** 2 > M * (1.0 + math.sqrt(1.0 + M)) * tripleU_upper
            c_N = 1.0 - M**2 / float(N) ** 4 * tripleU_upper
        else:
            cond1 = cond2 = False
            c_N = None

        if t.U.size:
            # D^2 U D^2: U's inertia, eigenvalues off zero by the elliptic estimate
            d2 = d_weights(N)[t.keep] ** 2
            kappa_lyap = _ldl_n_plus(d2[:, None] * t.U * d2[None, :])
        else:
            kappa_lyap = 0
        n_plus, _, n_zero, gap = count_half_plane(
            t.eigenvalues, _sign_band(t.A, t.U, t.residual)
        )
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

    Recounts kappa from Schur diagonals: at 2N the pipeline's own (kept
    block plus exact axis modes), at N one Schur of A_N.  Each count takes
    its band from _sign_band: at 2N half the gap the solve certifies (the
    floor n eps ||A_2N|| when that pencil is singular), at N the floor
    n eps ||A_N||, since no solve at N is at hand.  Verifies the bound
    ||(D^2 P_N U P_N D^2)^-1|| <= 2(1+M)/c_N, and the finite Lyapunov
    floor: the smallest eigenvalue of A_N^H U_N + U_N A_N with U_N the
    projection of the double-resolution solution must be >= c_N - 1e-6.
    Report-only: returns a dict, raises nothing.
    """
    N = cert.N_final
    M = cert.M
    report = {"kappa_cert": cert.kappa_schur}

    try:
        t2 = _solve_truncation(spec, 2 * N)
        ev2 = t2.eigenvalues
        sel = np.abs(t2.keep - 2 * N) <= N
        U_N, rows = t2.U[np.ix_(sel, sel)], t2.keep[sel] - N
    except NearSingularPencil as exc:
        t2, ev2, U_N = exc.truncation, exc.eigenvalues, None
    A_N = t2.A[N : 3 * N + 1, N : 3 * N + 1]  # modes |p| <= N: exactly P_N A P_N
    T_N = scipy.linalg.schur(A_N, output="complex")[0]
    report["kappa_N"] = count_half_plane(np.diagonal(T_N), _sign_band(A_N))[0]
    ev2 = np.concatenate([ev2, np.diagonal(t2.A)[t2.axis]])  # axis modes: Re exactly 0
    report["kappa_2N"] = count_half_plane(ev2, _sign_band(t2.A, t2.U, t2.residual))[0]
    report["kappa_stable"] = report["kappa_N"] == report["kappa_2N"] == cert.kappa_schur

    report["projection_available"] = U_N is not None
    if U_N is None:
        return report

    A_sub = A_N[np.ix_(rows, rows)]

    H = A_sub.conj().T @ U_N + U_N @ A_sub
    H = 0.5 * (H + H.conj().T)
    lyap_min = float(np.min(np.linalg.eigvalsh(H)))
    report["lyap_min"] = lyap_min
    report["c_N"] = cert.c_N
    report["lyap_ok"] = (
        cert.c_N is not None and lyap_min >= cert.c_N - 1e-6
    )

    d2 = d_weights(N)[rows] ** 2
    X = d2[:, None] * U_N * d2[None, :]
    sing = np.linalg.svd(X, compute_uv=False)
    inv_norm = 1.0 / float(sing[-1]) if sing[-1] > 0 else math.inf
    report["inverse_norm"] = inv_norm
    if cert.c_N is not None and cert.c_N > 0:
        bound = 2.0 * (1.0 + M) / cert.c_N
        report["inverse_bound"] = bound
        report["inverse_ok"] = inv_norm <= bound
    else:
        report["inverse_bound"] = None
        report["inverse_ok"] = None
    return report
