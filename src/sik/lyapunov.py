"""Truncated Lyapunov equation A*U + UA = I and the Green kernel U0.

The kernel/operator index convention: an operator with kernel F acts by
(F phi)(x) = int F(x,y) phi(y) dy, so its matrix over modes is
Mat[p, q] = 2 pi Fhat(p, -q).  Solutions U are returned in both views,
and K = U - U0 (the deviation from the free kernel) feeds the tail
estimates downstream.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np
import scipy
import scipy.linalg

from .errors import NearSingularPencil
from .fourier_core import Kernel2D
from .operator_assembly import SpectralMatrix

__all__ = [
    "GreenKernel",
    "green_kernel",
    "LyapunovSolution",
    "solve_finite_lyapunov",
    "solve_lyapunov_core",
    "kernel_operator_convert",
]

_TWO_PI = 2.0 * math.pi


@dataclass
class GreenKernel:
    """Convolution kernel U0(x,y) = u0(x-y), u0hat(p) = -1/(4 pi (1+p^4)).

    2 U0 is the periodic Green's function of -(d/dx)^4 - 1: the matrix view
    is diag(-1/(2(1+p^4))), which solves A*U + UA = I exactly for the free
    operator A = -(d/dx)^4 - 1.
    """

    N: int
    diag_coeffs: np.ndarray

    def as_kernel2d(self) -> Kernel2D:
        # antidiagonal: Fhat(p, q) = u0hat(p) delta_{q,-p}
        return Kernel2D(np.fliplr(np.diag(self.diag_coeffs)))

    def matrix_diag(self) -> np.ndarray:
        """Diagonal of the operator view, -1/(2(1+p^4))."""
        return _TWO_PI * self.diag_coeffs

    def closed_form(self, x):
        """u0 evaluated pointwise from the closed form

            u0(x) = C1 cos(kt) cosh(kt) + C2 sin(kt) sinh(kt),
            t = x - pi (mod 2 pi, mapped to [-pi, pi)),  k = 1/sqrt(2),

        with C1, C2 fixed by u0'(pi) = 0 and u0'''(pi) = 1/4 (periodicity
        plus the -1/2 jump of the third derivative at x = 0).
        """
        C1, C2 = _closed_form_constants()
        x = np.asarray(x, dtype=float)
        t = np.mod(x, _TWO_PI) - math.pi
        s = t / math.sqrt(2.0)
        return C1 * np.cos(s) * np.cosh(s) + C2 * np.sin(s) * np.sinh(s)


def _closed_form_constants():
    k = 1.0 / math.sqrt(2.0)
    s = k * math.pi
    cos, sin = math.cos(s), math.sin(s)
    cosh, sinh = math.cosh(s), math.sinh(s)
    # first and third derivatives of the two even basis functions at t = pi
    d1 = np.array(
        [
            [k * (cos * sinh - sin * cosh), k * (sin * cosh + cos * sinh)],
            [
                -2.0 * k**3 * (sin * cosh + cos * sinh),
                2.0 * k**3 * (cos * sinh - sin * cosh),
            ],
        ]
    )
    C = np.linalg.solve(d1, np.array([0.0, 0.25]))
    return float(C[0]), float(C[1])


def green_kernel(N: int) -> GreenKernel:
    if N < 0:
        raise ValueError("N must be >= 0")
    p = np.arange(-N, N + 1, dtype=float)
    return GreenKernel(N=N, diag_coeffs=-1.0 / (4.0 * math.pi * (1.0 + p**4)))


@dataclass
class LyapunovSolution:
    """Solution of P_N A* P_N U + U P_N A P_N = I with diagnostics."""

    U: SpectralMatrix
    K: Kernel2D
    residual: float
    N: int
    eigenvalues: np.ndarray
    pair_min: float


def _matrix_scale(A: np.ndarray) -> float:
    # cheap upper bound for ||A||_2; only used to scale tolerances
    fro = np.linalg.norm(A)
    if fro == 0.0:
        return 1.0
    one = np.abs(A).sum(axis=0).max()
    inf = np.abs(A).sum(axis=1).max()
    return float(min(fro, math.sqrt(one * inf)))


def _sign_band(A: np.ndarray, U=None, residual=None) -> float:
    """Half-width of the band around zero inside which no sign is decided.

    With a solve A^H U + U A = I + R, ||R||_2 <= residual sqrt(n) < 1,
    every eigenvalue of A has |Re l| >= (1 - ||R||) / (2 ||U||) (Ostrowski
    & Schneider, JMAA 4, 1962): the band is half that certified gap; a
    block-diagonal U may come as the list of its diagonal blocks.  Without
    one, it is the backward-error floor n eps ||A||.
    """
    blocks = [U] if isinstance(U, np.ndarray) else list(U or ())
    n = sum(b.shape[0] for b in blocks)
    if n:
        slack = 1.0 - residual * math.sqrt(n)
        u_fro = math.sqrt(sum(float(np.linalg.norm(b)) ** 2 for b in blocks))
        if slack > 0.0 and u_fro > 0.0:
            return 0.25 * slack / u_fro
    return A.shape[0] * np.finfo(float).eps * _matrix_scale(A)


# pairs |l_i + conj(l_j)| below _PENCIL_TOL * ||A|| are treated as a
# singular pencil; a few machine epsilons is the backward-error floor
# (entries of fourth-order truncations grow like N^4, so anything much
# larger starts rejecting well-posed solves); _sign_band's floor n eps ||A||
# would (alpha1 = 1e-4, N = 512: floor 1.6e-2, smallest pair sum 1.0e-4)
_PENCIL_TOL = 1e-15
# residual ||A^H U + U A - I||_F / sqrt(n) above which a solve is unreliable
_RESIDUAL_TOL = 1e-8

# LAPACK trsyl solves triangular blocks up to this size; larger ones split in
# half, coupled by GEMM (Jonsson & Kagstrom, ACM TOMS 28(4), 2002), which is
# skipped for a zero coupling block (diagonal T, e.g. constant coefficients)
_TRSYL_BLOCK = 64


# On a 2-core x86-64 machine OpenBLAS's second thread loses below ~700 modes,
# erratically: a 64 x 64 complex product takes 0.05 ms on one thread and, at
# p90, 16 ms on two; a solve at n = 255 89-98 ms against 139-224 ms.  At
# n = 954 two threads win (1.42-1.68 s against 1.74-1.82 s).
_SERIAL_MAX = 640


def _openblas_calls():
    """(get, set) thread-count calls of the OpenBLAS numpy and scipy wheels
    bundle; with none found, _serial_blas changes nothing."""
    calls = []
    for pkg in (np, scipy):
        libs = os.path.dirname(pkg.__file__) + ".libs"  # numpy.libs, scipy.libs
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            lib = ctypes.CDLL(path)
            names = [f"{p}_{{}}_num_threads{s}" for p in ("scipy_openblas", "openblas")
                     for s in ("64_", "")]
            calls += [(getattr(lib, n.format("get")), getattr(lib, n.format("set")))
                      for n in names if hasattr(lib, n.format("get"))]
    return calls


class _OneBlasThread:
    """Holds the bundled OpenBLAS at one thread while any caller is inside,
    in whichever thread; the last to leave puts the counts back.  Meanwhile
    every BLAS call in the process runs serially."""

    lock, holders, saved, calls = threading.Lock(), 0, [], _openblas_calls()

    def __enter__(self):
        with self.lock:
            if _OneBlasThread.holders == 0:
                _OneBlasThread.saved = [get() for get, _ in self.calls]
                for _, put in self.calls:
                    put(1)
            _OneBlasThread.holders += 1

    def __exit__(self, *exc):
        with self.lock:
            _OneBlasThread.holders -= 1
            if _OneBlasThread.holders == 0:
                for (_, put), threads in zip(self.calls, self.saved):
                    put(threads)


def _serial_blas(n: int):
    """One BLAS thread for dense work on blocks of n <= _SERIAL_MAX modes."""
    return _OneBlasThread() if n <= _SERIAL_MAX else contextlib.nullcontext()


def _solve_sylvester(trsyl, A, B, X):
    """Overwrite X = C by the solution of A^H X + X B = C (A, B upper
    triangular), split along X's larger dimension down to trsyl blocks."""
    m, k = X.shape
    if max(m, k) <= _TRSYL_BLOCK:
        X[...] = trsyl(A, B, X)
    elif m >= k:
        h = m // 2
        _solve_sylvester(trsyl, A[:h, :h], B, X[:h])
        if A[:h, h:].any():
            X[h:] -= A[:h, h:].conj().T @ X[:h]
        _solve_sylvester(trsyl, A[h:, h:], B, X[h:])
    else:
        h = k // 2
        _solve_sylvester(trsyl, A, B[:h, :h], X[:, :h])
        if B[:h, h:].any():
            X[:, h:] -= X[:, :h] @ B[:h, h:]
        _solve_sylvester(trsyl, A, B[h:, h:], X[:, h:])


def _solve_lyapunov(trsyl, T, Y):
    """_solve_sylvester for T^H Y + Y T = C, C Hermitian, so Y21 = Y12^H."""
    n = Y.shape[0]
    if n <= _TRSYL_BLOCK:
        return _solve_sylvester(trsyl, T, T, Y)
    h = n // 2
    T11, T12, T22 = T[:h, :h], T[:h, h:], T[h:, h:]
    Y11, Y12, Y22 = Y[:h, :h], Y[:h, h:], Y[h:, h:]
    _solve_lyapunov(trsyl, T11, Y11)
    if T12.any():
        Y12 -= Y11 @ T12
    _solve_sylvester(trsyl, T11, T22, Y12)
    if T12.any():
        P = T12.conj().T @ Y12
        Y22 -= P + P.conj().T
    _solve_lyapunov(trsyl, T22, Y22)
    Y[h:, :h] = Y12.conj().T


def solve_lyapunov_core(A: np.ndarray, whole=None):
    """Solve A^H U + U A = I for a raw square matrix.

    One complex Schur decomposition plus the blocked triangular solve
    above, in place.  Returns (U, eigenvalues, residual, pair_min) where
    residual = ||A^H U + U A - I||_F / sqrt(n) and pair_min is the minimal
    |lambda_i + conj(lambda_j)| over eigenvalue pairs.

    Raises NearSingularPencil when pair_min <= _PENCIL_TOL * ||A||, i.e.
    when the spectrum (nearly) touches the imaginary axis, and warns when
    the residual exceeds _RESIDUAL_TOL.  Both are fixed module constants.
    For a decoupled diagonal block A of ``whole``, ||whole|| scales the
    pencil test: solving by blocks must not move the axis verdict.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    if n == 0:  # every mode was peeled onto the axis: nothing to solve
        return np.zeros((0, 0), dtype=complex), np.zeros(0, dtype=complex), 0.0, math.inf
    with _serial_blas(n):
        T, Z = scipy.linalg.schur(A, output="complex")
        ev = np.diag(T).copy()
        pair_min = float(np.abs(ev[:, None] + ev[None, :].conj()).min())
        tol = _PENCIL_TOL * _matrix_scale(A if whole is None else whole)
        if pair_min <= tol:
            raise NearSingularPencil(
                f"eigenvalue pair sum {pair_min:.3e} <= tolerance {tol:.3e}: "
                "spectrum touches the imaginary axis within tolerance",
                eigenvalues=ev,
                pair_min=pair_min,
                tol=tol,
            )
        (lapack_trsyl,) = scipy.linalg.get_lapack_funcs(("trsyl",), (T, T))
        Y = np.eye(n, dtype=complex)
        scale = 1.0

        def trsyl(T1, T2, C):
            nonlocal Y, scale
            X, block_scale, info = lapack_trsyl(T1, T2, C, trana="C", tranb="N", isgn=1)
            if info < 0:
                raise RuntimeError(f"trsyl failed with info={info}")
            if info == 1:
                # solved only after perturbing near-common eigenvalues: same failure
                # mode the pencil test guards, reached through rounding
                raise NearSingularPencil("triangular Sylvester solve required perturbation",
                                         eigenvalues=ev, pair_min=pair_min, tol=tol)
            if block_scale != 1.0:
                Y *= block_scale  # all of Y is linear in the right-hand side
                scale *= block_scale
            return X

        _solve_lyapunov(trsyl, T, Y)
        U = Z @ (Y / scale) @ Z.conj().T
        U = 0.5 * (U + U.conj().T)
        R = U @ A  # U is exactly Hermitian, so A^H U + U A = R + R^H
        R += R.conj().T
        R -= np.eye(n)
        residual = float(np.linalg.norm(R)) / math.sqrt(n)
    if residual > _RESIDUAL_TOL:
        warnings.warn(
            f"Lyapunov residual {residual:.3e} exceeds {_RESIDUAL_TOL:.1e}; "
            "treat the solution as unreliable",
            stacklevel=2,
        )
    return U, ev, residual, pair_min


def solve_finite_lyapunov(A_N: SpectralMatrix) -> LyapunovSolution:
    """Solve the truncated equation for an assembled operator matrix."""
    U, ev, residual, pair_min = solve_lyapunov_core(A_N.entries)
    N = A_N.N
    U_mat = SpectralMatrix(U, N)
    K = kernel_operator_convert(U_mat).coeffs - green_kernel(N).as_kernel2d().coeffs
    return LyapunovSolution(
        U=U_mat,
        K=Kernel2D(K),
        residual=residual,
        N=N,
        eigenvalues=ev,
        pair_min=pair_min,
    )


def kernel_operator_convert(obj):
    """Swap between the kernel view and the operator (matrix) view.

    Mat[p, q] = 2 pi Fhat(p, -q); applying the conversion twice returns the
    original object.
    """
    if isinstance(obj, SpectralMatrix):
        return Kernel2D(obj.entries[:, ::-1] / _TWO_PI)
    if isinstance(obj, Kernel2D):
        return SpectralMatrix(obj.coeffs[:, ::-1] * _TWO_PI)
    raise TypeError(f"expected SpectralMatrix or Kernel2D, got {type(obj).__name__}")
