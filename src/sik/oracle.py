"""Independent brute-force references for cross-checking the fast paths.

These oracles are deliberately naive: the dispersion count enumerates the
explicit constant-coefficient spectrum, and the Kronecker solver builds the
full n^2 x n^2 linear system for the Lyapunov equation.  They live in the
shipped library (not the test tree) so `sik validate` can run them in the
field.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularSystem

__all__ = [
    "dispersion_index",
    "kronecker_lyapunov",
    "mp_hermitian_inertia",
    "validation_suite",
]

# the Kronecker system is n^2 x n^2: O(n^6) flops; keep it a toy
_KRONECKER_LIMIT = 12


def dispersion_index(a: float, b: float, c: float, N: int) -> int:
    """#{|p| <= N : -p^4 + a p^2 - c > 0}.

    For constant coefficients the operator is diagonal in the mode basis
    with eigenvalues -p^4 + a p^2 - c + i b p, so the count is exact.
    """
    count = 0
    for p in range(-N, N + 1):
        if -float(p) ** 4 + a * float(p) ** 2 - c > 0.0:
            count += 1
    return count


def kronecker_lyapunov(A, V, dps=None):
    """Solve A^H U + U A = V by vectorizing to an n^2 x n^2 system.

    Column-major vectorization: (I (x) A^H + A^T (x) I) vec(U) = vec(V).
    With ``dps`` set, the system is solved in mpmath arbitrary precision
    and an mpmath matrix is returned; otherwise float64 and an ndarray.
    Raises SingularSystem when the system is singular or the residual
    exceeds tolerance, and ValueError above the size cap.
    """
    A = np.asarray(A, dtype=complex)
    V = np.asarray(V, dtype=complex)
    n = A.shape[0]
    if n > _KRONECKER_LIMIT:
        raise ValueError(
            f"matrix size {n} exceeds the Kronecker oracle cap {_KRONECKER_LIMIT}"
        )
    if A.shape != (n, n) or V.shape != (n, n):
        raise ValueError("A and V must be square and of equal size")
    if dps is not None:
        return _kronecker_mp(A, V, dps)
    eye = np.eye(n)
    system = np.kron(eye, A.conj().T) + np.kron(A.T, eye)
    try:
        u = np.linalg.solve(system, V.ravel(order="F"))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    U = u.reshape((n, n), order="F")
    U = 0.5 * (U + U.conj().T)
    resid = np.linalg.norm(A.conj().T @ U + U @ A - V)
    scale = max(1.0, float(np.linalg.norm(V)))
    if resid > 1e-10 * scale:
        raise SingularSystem(f"residual {resid:.3e} exceeds tolerance")
    return U


def _kronecker_mp(A, V, dps):
    import mpmath as mp

    n = A.shape[0]
    with mp.workdps(dps):
        big = mp.zeros(n * n, n * n)
        rhs = mp.zeros(n * n, 1)
        Am = mp.matrix([[mp.mpc(A[i, j]) for j in range(n)] for i in range(n)])
        # (I (x) A^H + A^T (x) I) with column-major index u_{i + n j}
        for i in range(n):
            for j in range(n):
                rhs[i + n * j] = mp.mpc(V[i, j])
                for k in range(n):
                    big[i + n * j, k + n * j] += mp.conj(Am[k, i])
                    big[i + n * j, i + n * k] += Am[k, j]
        try:
            u = mp.lu_solve(big, rhs)
        except ZeroDivisionError as exc:
            raise SingularSystem(str(exc)) from exc
        U = mp.zeros(n, n)
        for i in range(n):
            for j in range(n):
                U[i, j] = (u[i + n * j] + mp.conj(u[j + n * i])) / 2
        return U


def mp_hermitian_inertia(U_mp, dps=50, zero_tol=None):
    """(n_plus, n_minus, n_zero) of an mpmath Hermitian matrix."""
    import mpmath as mp

    with mp.workdps(dps):
        E, _ = mp.eighe(U_mp)
        vals = [mp.re(E[i]) for i in range(E.rows)]
        top = max((abs(v) for v in vals), default=mp.mpf(0))
        tol = mp.mpf(zero_tol) if zero_tol is not None else mp.mpf("1e-8") * top
        n_plus = sum(1 for v in vals if v > tol)
        n_minus = sum(1 for v in vals if v < -tol)
        return n_plus, n_minus, len(vals) - n_plus - n_minus


def _random_with_margin(rng, n, margin):
    """Random n x n matrix with eigenvalue real parts >= margin from 0."""
    re = rng.uniform(margin, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    im = rng.uniform(-3.0, 3.0, size=n)
    d = re + 1j * im
    while True:
        V = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(V) < 1e3:
            break
    return V @ np.diag(d) @ np.linalg.inv(V), int(np.sum(re > 0))


def validation_suite(seed=20240817):
    """The field checks behind `sik validate`; a list of result dicts."""
    from . import certify as _certify
    from .index import inertia_hermitian
    from .lyapunov import green_kernel, solve_lyapunov_core
    from .norms_estimates import triple_norm
    from .operator_assembly import OperatorSpec
    from .fourier_core import TrigPoly

    rng = np.random.default_rng(seed)
    results = []

    agree = 0
    trials = 5
    for _ in range(trials):
        while True:
            a, b, c = rng.uniform(-10.0, 10.0, size=3)
            margins = [abs(-float(p) ** 4 + a * p**2 - c) for p in range(0, 4)]
            if min(margins) > 1e-3:
                break
        spec = OperatorSpec(
            a=TrigPoly.constant(a), b=TrigPoly.constant(b), c=TrigPoly.constant(c)
        )
        cert = _certify.certified_index(
            spec, _certify.CertifyOptions(max_N=48, max_iterations=4)
        )
        if cert.kappa_schur == dispersion_index(a, b, c, cert.N_final):
            agree += 1
    results.append(
        {
            "name": "dispersion",
            "passed": agree == trials,
            "detail": f"{agree}/{trials} constant-coefficient counts agree",
        }
    )

    ok = True
    worst = 0.0
    for _ in range(5):
        A, _count = _random_with_margin(rng, 8, 0.05)
        U_fast, _, _, _ = solve_lyapunov_core(A)
        U_slow = kronecker_lyapunov(A, np.eye(8))
        rel = float(
            np.linalg.norm(U_fast - U_slow) / max(np.linalg.norm(U_slow), 1e-300)
        )
        worst = max(worst, rel)
        ok = ok and rel < 1e-8
    results.append(
        {
            "name": "kronecker",
            "passed": ok,
            "detail": f"worst relative deviation vs dense solver {worst:.2e}",
        }
    )

    hits = 0
    for _ in range(100):
        A, count = _random_with_margin(rng, 6, 0.1)
        U, _, _, _ = solve_lyapunov_core(A)
        if inertia_hermitian(U).n_plus == count:
            hits += 1
    results.append(
        {
            "name": "inertia-vs-schur",
            "passed": hits == 100,
            "detail": f"{hits}/100 agreements",
        }
    )

    val = triple_norm(green_kernel(32).as_kernel2d())
    results.append(
        {
            "name": "free-kernel-norm",
            "passed": abs(val - 1.0) <= 1e-12,
            "detail": f"{val!r} (expect 1.0 within 1e-12)",
        }
    )
    return results
