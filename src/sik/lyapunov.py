"""Truncated Lyapunov equation A*U + UA = I and the Green kernel U0.

The kernel/operator index convention: an operator with kernel F acts by
(F phi)(x) = int F(x,y) phi(y) dy, so its matrix over modes is
Mat[p, q] = 2 pi Fhat(p, -q).  Solutions U are returned in both views,
and K = U - U0 (the deviation from the free kernel) feeds the tail
estimates downstream.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import platform
import threading
import warnings
from dataclasses import dataclass

import numpy as np
import scipy
import scipy.linalg
import scipy.linalg.cython_lapack

from .errors import NearSingularPencil
from .fourier_core import Kernel2D
from .operator_assembly import Band, SpectralMatrix

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


def _matrix_scale(A) -> float:
    """Cheap upper bound for ||A||_2, only used to scale tolerances: min(Frobenius
    norm, Schur's test sqrt(||A||_1 ||A||_inf)), 1.0 for zero.  A is dense, a
    diagonal matrix as its diagonal, or a Band."""
    if isinstance(A, Band):
        return _parts_scale(A)
    a = np.abs(A)
    if A.ndim == 1:  # a diagonal matrix: its entries are its column and row sums
        return _schur_test(math.sqrt(float(np.sum(a * a))), a, a)
    return _schur_test(float(np.linalg.norm(A)), a.sum(axis=0), a.sum(axis=1))


def _parts_scale(A: Band, keep=None) -> float:
    """_matrix_scale of A[keep, keep] (all of A by default) from A's band, in
    O(w n) without BLAS: the pencil scale of a kept block, block diagonal over
    its parts.  Column sums add each diagonal's entry in that column."""
    cols, a = np.clip(A.cols, 0, A.shape[0] - 1), np.abs(A.diags)  # clipped where a is 0
    if keep is not None:
        kept = np.zeros(A.shape[0], dtype=bool)
        kept[keep] = True
        a *= kept & kept[cols]
    return _schur_test(math.sqrt(float(np.sum(a * a))),
                       np.bincount(cols.ravel(), a.ravel(), A.shape[0]), a.sum(axis=0))


def _schur_test(fro: float, col_sums, row_sums) -> float:
    one, inf = col_sums.max(initial=0.0), row_sums.max(initial=0.0)
    return float(min(fro, math.sqrt(one * inf))) if fro else 1.0


def _sign_band(A, blocks=(), residual=None) -> float:
    """Half-width of the band around zero inside which no sign is decided.

    With a solve A^H U + U A = I + R, ||R||_2 <= residual sqrt(n) < 1,
    every eigenvalue of A has |Re l| >= (1 - ||R||) / (2 ||U||) (Ostrowski
    & Schneider, JMAA 4, 1962): the band is half that certified gap, U
    given as the list of its diagonal blocks (zero between them; a diagonal
    one as its diagonal).  Without them, it is the floor n eps ||A||.
    """
    n = sum(b.shape[0] for b in blocks)
    if n:
        slack = 1.0 - residual * math.sqrt(n)
        u_fro = math.sqrt(sum(float(np.sum(b.real * b.real + b.imag * b.imag)) for b in blocks))
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
# half, coupled by GEMM (Jonsson & Kagstrom, ACM TOMS 28(4), 2002) over the
# nonzero row and column range of T's coupling block only; the back-transform
# Z Y Z^H runs in row tiles of Z of this size, each over its nonzero columns
_TRSYL_BLOCK = 64


# On a 2-core x86-64 machine OpenBLAS's second thread loses below ~700 modes,
# erratically: a 64 x 64 complex product takes 0.05 ms on one thread and, at
# p90, 16 ms on two; a solve at n = 255 89-98 ms against 139-224 ms.  Two
# threads win above, flushed: certified_index on parts of 767 modes 1.03-1.16 s
# (one thread 1.14-1.18 s), on parts of 955 1.61-2.05 s (1.77-2.12 s).
_SERIAL_MAX = 640


def _openblas_calls():
    """(get, set) thread-count calls of the OpenBLAS numpy and scipy wheels
    bundle; with none found, _Dense holds no thread count."""
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


class _FEnv(ctypes.Structure):
    """glibc's x86-64 fenv_t: the x87 environment, then SSE's MXCSR."""

    _fields_ = [("x87", ctypes.c_char * 28), ("mxcsr", ctypes.c_uint32)]


# MXCSR's flush-to-zero (FTZ) and denormals-are-zero (DAZ) bits
_FTZ_DAZ = 0x8040


def _fenv_calls():
    """glibc's (fegetenv, fesetenv) on x86-64; None elsewhere, and then
    _Dense flushes nothing."""
    if platform.machine() != "x86_64" or platform.libc_ver()[0] != "glibc":
        return None
    libm = ctypes.CDLL("libm.so.6")
    calls = libm.fegetenv, libm.fesetenv
    for call in calls:
        call.argtypes, call.restype = [ctypes.POINTER(_FEnv)], ctypes.c_int
    return calls


class _Dense:
    """Context for dense work on blocks of n modes: for n <= _SERIAL_MAX,
    the bundled OpenBLAS at one thread while any such holder is inside, in
    whichever thread (the last to leave puts the counts back; meanwhile
    every BLAS call in the process runs serially); for every n > 0, abrupt
    underflow in the calling thread, its MXCSR put back on exit.  n = 0
    holds nothing: O(n) work on diagonals calls no BLAS, and its values
    stay far from the subnormal range.

    Film's kept blocks are far from normal: most entries of their Schur
    vectors underflow, and arithmetic on subnormal numbers is slow (film's
    350 x 350 Z @ Y on one thread of a 2-core x86-64 Xeon: 43 ms, 9 ms
    flushed).  FTZ writes a subnormal result as 0 and DAZ reads a subnormal
    operand as 0, each an absolute change below tiny = 2.2e-308, which
    LAPACK's scaling tolerates.  OpenBLAS's own worker threads, above
    _SERIAL_MAX, keep gradual underflow: correct, only slower."""

    lock, holders, saved, calls = threading.Lock(), 0, [], _openblas_calls()
    fenv = _fenv_calls()

    def __init__(self, n: int):
        self.serial, self.flush = 0 < n <= _SERIAL_MAX, n and self.fenv
        self.env = _FEnv()

    def __enter__(self):
        if self.serial:
            with self.lock:
                if _Dense.holders == 0:
                    _Dense.saved = [get() for get, _ in self.calls]
                    for _, put in self.calls:
                        put(1)
                _Dense.holders += 1
        if self.flush:
            self.fenv[0](self.env)
            flushed = _FEnv.from_buffer_copy(self.env)
            flushed.mxcsr |= _FTZ_DAZ
            self.fenv[1](flushed)

    def __exit__(self, *exc):
        if self.flush:
            self.fenv[1](self.env)
        if self.serial:
            with self.lock:
                _Dense.holders -= 1
                if _Dense.holders == 0:
                    for (_, put), threads in zip(self.calls, self.saved):
                        put(threads)


def _lapack(name, *argtypes):
    """scipy's cython_lapack routine ``name`` as a ctypes CFUNCTYPE call (not
    PYFUNCTYPE): ctypes drops the GIL around it, so sweep threads overlap."""
    capsule = scipy.linalg.cython_lapack.__pyx_capi__[name]
    api, obj = ctypes.pythonapi, ctypes.py_object
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, obj)(("PyCapsule_GetName", api))
    get = ctypes.PYFUNCTYPE(ctypes.c_void_p, obj, ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    return ctypes.CFUNCTYPE(None, *argtypes)(get(capsule, get_name(capsule)))


# Fortran arguments by reference: character, integer, array (its address), double
_C, _I, _Z, _D = (ctypes.c_char_p, ctypes.POINTER(ctypes.c_int), ctypes.c_void_p,
                  ctypes.POINTER(ctypes.c_double))
_ZHSEQR = _lapack("zhseqr", _C, _C, _I, _I, _I, _Z, _I, _Z, _Z, _I, _Z, _I, _I)
_ZTRSYL = _lapack("ztrsyl", _C, _C, _I, _I, _I, _Z, _I, _Z, _I, _Z, _I, _D, _I)
_ZHETRF = _lapack("zhetrf", _C, _I, _Z, _I, _Z, _Z, _I, _I)


def _schur(A: np.ndarray):
    """(T, Z, w): A = Z T Z^H in complex Schur form, T and Z in Fortran order,
    and w = max |i - j| over A's nonzeros.  An upper Hessenberg A (each
    tridiagonal part) goes straight to LAPACK zhseqr, skipping the
    reduction scipy.linalg.schur runs first (61% of film's Schur); of a
    diagonal A zhseqr returns T = A and Z = I."""
    diff = np.subtract(*np.nonzero(A))
    w = int(np.abs(diff).max(initial=0))
    if diff.max(initial=0) > 1:
        T, Z = scipy.linalg.schur(A, output="complex")
        return np.asfortranarray(T), np.asfortranarray(Z), w
    n = A.shape[0]
    T = np.array(A, dtype=complex, order="F")
    Z = np.empty((n, n), dtype=complex, order="F")
    ev, work, info = np.empty(n, dtype=complex), np.empty(1, dtype=complex), ctypes.c_int()
    args = (b"S", b"I", ctypes.c_int(n), ctypes.c_int(1), ctypes.c_int(n), T.ctypes.data,
            ctypes.c_int(max(1, n)), ev.ctypes.data, Z.ctypes.data, ctypes.c_int(max(1, n)))
    _ZHSEQR(*args, work.ctypes.data, ctypes.c_int(-1), info)  # workspace query
    work = np.empty(max(1, int(work[0].real)), dtype=complex)
    _ZHSEQR(*args, work.ctypes.data, ctypes.c_int(work.size), info)
    if info.value:
        raise RuntimeError(f"zhseqr failed with info={info.value}")
    return T, Z, w


def _trsyl(A: np.ndarray, B: np.ndarray, X: np.ndarray):
    """LAPACK ztrsyl in place: X = C becomes the solution of A^H X + X B =
    scale C (A, B upper triangular, all three column-major views of n x n
    parents, so of one leading dimension); returns (scale, info)."""
    if any(M.dtype != complex or M.strides != (16, X.strides[1]) for M in (A, B, X)):
        raise ValueError("trsyl needs column-major complex views of one leading dimension")
    scale, info = ctypes.c_double(), ctypes.c_int()
    ld = ctypes.c_int(max(1, X.strides[1] // 16))
    _ZTRSYL(b"C", b"N", ctypes.c_int(1), *map(ctypes.c_int, X.shape), A.ctypes.data, ld,
            B.ctypes.data, ld, X.ctypes.data, ld, scale, info)
    return scale.value, info.value


def _hetrf(X: np.ndarray) -> np.ndarray:
    """LAPACK zhetrf in place, lower, on a column-major complex X, with the
    workspace max(n, 1) of scipy's wrapper (so its unblocked path, bit for
    bit); returns ipiv, 1-based as LAPACK's."""
    if X.dtype != complex or not X.flags.f_contiguous or X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError("hetrf needs a square column-major complex matrix")
    n = X.shape[0]
    ipiv, work, info = np.empty(n, dtype=np.intc), np.empty(max(1, n), dtype=complex), ctypes.c_int()
    _ZHETRF(b"L", ctypes.c_int(n), X.ctypes.data, ctypes.c_int(max(1, n)), ipiv.ctypes.data,
            work.ctypes.data, ctypes.c_int(work.size), info)
    if info.value < 0:
        raise RuntimeError(f"zhetrf failed with info={info.value}")
    return ipiv  # info > 0: an exactly zero pivot, which the caller's band rejects


def _box(M: np.ndarray):
    """(rows, cols): the smallest slices of M holding all its nonzeros, empty
    when it has none.  An exact test, so unflushed subnormals count too."""
    rows, cols = np.flatnonzero(M.any(axis=1)), np.flatnonzero(M.any(axis=0))
    if not rows.size:
        return slice(0, 0), slice(0, 0)
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


def _solve_sylvester(trsyl, A, B, X):
    """Overwrite X = C by the solution of A^H X + X B = C (A, B upper
    triangular), split along X's larger dimension down to trsyl blocks, each
    coupling over the nonzero box of A's or B's off-diagonal block only.  An
    all-zero C has solution 0 and is left as it is.  That skips no failure:
    trsyl perturbs only pairs with |l_i + conj(l_j)| <= eps max|T|, and
    solve_lyapunov_core's pencil test has passed with pair_min >
    _PENCIL_TOL scale > eps max|T| (scale bounds ||T||_2 >= max|T|)."""
    if not X.any():
        return
    m, k = X.shape
    if max(m, k) <= _TRSYL_BLOCK:
        trsyl(A, B, X)
    elif m >= k:
        h = m // 2
        _solve_sylvester(trsyl, A[:h, :h], B, X[:h])
        r, c = _box(A[:h, h:])
        X[h:][c] -= A[:h, h:][r, c].conj().T @ X[:h][r]
        _solve_sylvester(trsyl, A[h:, h:], B, X[h:])
    else:
        h = k // 2
        _solve_sylvester(trsyl, A, B[:h, :h], X[:, :h])
        r, c = _box(B[:h, h:])
        X[:, h:][:, c] -= X[:, :h][:, r] @ B[:h, h:][r, c]
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
    r, c = _box(T12)
    Y12[:, c] -= Y11[:, r] @ T12[r, c]
    _solve_sylvester(trsyl, T11, T22, Y12)
    P = T12[r, c].conj().T @ Y12[r]  # rows c of T12^H Y12, the rest zero
    Y22[c] -= P
    Y22[:, c] -= P.conj().T
    _solve_lyapunov(trsyl, T22, Y22)
    Y[h:, :h] = Y12.conj().T


def _back_transform(Z: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Z Y Z^H, each _TRSYL_BLOCK-row tile of Z multiplied only over its
    nonzero columns (localised Schur vectors: film's Z is 37% nonzero)."""
    n = Z.shape[0]
    tiles = [(slice(i, i + _TRSYL_BLOCK), _box(Z[i:i + _TRSYL_BLOCK])[1])
             for i in range(0, n, _TRSYL_BLOCK)]
    W = np.empty((n, n), dtype=complex)
    for r, c in tiles:
        W[r] = Z[r, c] @ Y[c]
    U = np.empty((n, n), dtype=complex)
    for r, c in tiles:
        U[:, r] = W[:, c] @ Z[r, c].conj().T
    return U


def _times_band(U: np.ndarray, A: np.ndarray, w: int) -> np.ndarray:
    """U A for A of bandwidth w, from A's 2w + 1 diagonals."""
    R = U * np.diagonal(A)
    for o in range(1, w + 1):  # A[j + o, j] below the diagonal, A[j - o, j] above
        R[:, :-o] += U[:, o:] * np.diagonal(A, -o)
        R[:, o:] += U[:, :-o] * np.diagonal(A, o)
    return R


def solve_lyapunov_core(A: np.ndarray, scale=None):
    """Solve A^H U + U A = I for a raw square matrix.

    One complex Schur decomposition plus the blocked triangular solve
    above, in place, each skipping exact zeros: a 1-D A, a diagonal
    matrix's diagonal, is its own Schur form, and U's diagonal 1 / (2 Re
    lambda) comes back in closed form, in O(n) with no _Dense hold;
    otherwise all-zero right-hand sides are not solved,
    couplings run over T's nonzero ranges, and Z Y Z^H over Z's.  Returns (U, eigenvalues,
    residual, pair_min) where residual = ||A^H U + U A - I||_F / sqrt(n)
    and pair_min is the minimal |lambda_i + conj(lambda_j)| over
    eigenvalue pairs.

    Raises NearSingularPencil when pair_min <= _PENCIL_TOL * ||A||, i.e.
    when the spectrum (nearly) touches the imaginary axis, and warns when
    the residual exceeds _RESIDUAL_TOL.  Both are fixed module constants.
    For a decoupled diagonal block A of a larger matrix, ``scale`` is that
    matrix's _matrix_scale and scales the pencil test: solving by blocks
    must not move the axis verdict.  The work runs under _Dense's abrupt
    underflow: each flushed term is below tiny = 2.2e-308, so an entry of R
    moves by about n tiny at most, far below the residual gate.  Flushed
    entries become exact zeros that the solve then skips; without the
    flush it is as correct, only slower.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    if n == 0:  # every mode was peeled onto the axis: nothing to solve
        return np.zeros((0,) * A.ndim, dtype=complex), np.zeros(0, dtype=complex), 0.0, math.inf
    with _Dense(n if A.ndim == 2 else 0):
        T, Z, w = _schur(A) if A.ndim == 2 else (A, None, 0)
        ev = (np.diag(T) if A.ndim == 2 else A).copy()
        pair_min = float(np.abs(ev[:, None] + ev[None, :].conj()).min())
        tol = _PENCIL_TOL * (_matrix_scale(A) if scale is None else scale)
        if pair_min <= tol:
            raise NearSingularPencil(
                f"eigenvalue pair sum {pair_min:.3e} <= tolerance {tol:.3e}: "
                "spectrum touches the imaginary axis within tolerance",
                eigenvalues=ev,
                pair_min=pair_min,
                tol=tol,
            )
        if A.ndim == 1:  # its own Schur form; trsyl's 1 / (conj(l) + l) is this value too
            U = (1.0 / (2.0 * ev.real)).astype(complex)
        else:
            Y = np.eye(n, dtype=complex, order="F")
            y_scale = 1.0

            def trsyl(T1, T2, X):
                nonlocal Y, y_scale
                block_scale, info = _trsyl(T1, T2, X)
                if info < 0:
                    raise RuntimeError(f"trsyl failed with info={info}")
                if info == 1:
                    # solved only after perturbing near-common eigenvalues: same failure
                    # mode the pencil test guards, reached through rounding
                    raise NearSingularPencil("triangular Sylvester solve required perturbation",
                                             eigenvalues=ev, pair_min=pair_min, tol=tol)
                if block_scale != 1.0:  # scale the rest of Y: X / block_scale may overflow
                    solved = X.copy()
                    Y *= block_scale
                    X[...] = solved
                    y_scale *= block_scale

            _solve_lyapunov(trsyl, T, Y)
            U = _back_transform(Z, Y / y_scale)
            U = 0.5 * (U + U.conj().T)
        # by diagonals/GEMM, 1 thread, x86-64: w=1 n=60 0.08/0.05 ms, n=350 2.0/8.7
        R = U * A if A.ndim == 1 else _times_band(U, A, w) if 32 * (2 * w + 1) < n else U @ A
        R += R.conj().T  # A^H U + U A = R + R^H
        R -= np.eye(n) if A.ndim == 2 else 1.0
        residual = (float(np.linalg.norm(R)) if A.ndim == 2
                    else math.sqrt(float(np.sum(R.real * R.real)))) / math.sqrt(n)
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
