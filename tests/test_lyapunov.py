"""Lyapunov solver and the free-operator Green kernel.

Independent oracles: the Kronecker-product linear system for small solves,
the whole-matrix LAPACK trsyl route for the recursive blocked solve, and
the closed hyperbolic-trigonometric form of the free kernel for the
coefficient series."""

import math
import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg

import sik.lyapunov
from sik import (
    OperatorSpec,
    TrigPoly,
    assemble_A,
    benilov_coefficients,
    kernel_operator_convert,
    solve_finite_lyapunov,
)
from sik.certify import exact_axis_split
from sik.errors import NearSingularPencil
from sik.fourier_core import Kernel2D
from sik.lyapunov import _closed_form_constants, green_kernel, solve_lyapunov_core
from sik.operator_assembly import SpectralMatrix

FROZEN_C1 = -0.007866734196649159
FROZEN_C2 = -0.053478080811521646


def kron_solve(A):
    # column-major vec of A^H U + U A = I
    n = A.shape[0]
    L = np.kron(np.eye(n), A.conj().T) + np.kron(A.T, np.eye(n))
    u = np.linalg.solve(L, np.eye(n).flatten(order="F"))
    return u.reshape((n, n), order="F")


def stable_random(rng, n):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return G - (1.5 + np.abs(np.linalg.eigvals(G).real).max()) * np.eye(n)


def test_green_coefficients():
    g = green_kernel(4)
    F = g.as_kernel2d()
    assert abs(F.coeff(0, 0) + 1.0 / (4.0 * math.pi)) < 1e-16
    assert abs(F.coeff(1, -1) + 1.0 / (8.0 * math.pi)) < 1e-16
    assert abs(F.coeff(2, -2) + 1.0 / (4.0 * math.pi * 17.0)) < 1e-18
    assert F.coeff(1, 1) == 0.0
    assert F.coeff(1, 0) == 0.0
    p = np.arange(-4, 5, dtype=float)
    assert np.allclose(g.matrix_diag(), -0.5 / (1.0 + p**4), atol=1e-16)
    with pytest.raises(ValueError):
        green_kernel(-1)


def test_closed_form_constants_frozen():
    C1, C2 = _closed_form_constants()
    assert abs(C1 - FROZEN_C1) < 1e-15
    assert abs(C2 - FROZEN_C2) < 1e-15


def test_closed_form_matches_coefficient_series():
    g = green_kernel(0)
    x = 2.0 * math.pi * np.arange(256) / 256.0
    p = np.arange(-200, 201, dtype=float)
    series = (-1.0 / (4.0 * math.pi * (1.0 + p**4))) @ np.exp(1j * np.outer(p, x))
    assert np.max(np.abs(series.real - g.closed_form(x))) < 1e-6
    assert np.max(np.abs(series.imag)) < 1e-14


def test_closed_form_symmetry_and_derivatives():
    g = green_kernel(0)
    x = np.linspace(0.1, math.pi, 50)
    assert np.allclose(g.closed_form(x), g.closed_form(2.0 * math.pi - x), atol=1e-14)
    # periodicity pins u0'(2pi-) = 0; the third derivative is +1/4 at
    # 2pi- and -1/4 at 0+, the -1/2 delta jump of the kernel
    h = 5e-3
    f = lambda t: float(g.closed_form(t))
    x0 = 2.0 * math.pi - 1e-9
    d1 = (3.0 * f(x0) - 4.0 * f(x0 - h) + f(x0 - 2 * h)) / (2.0 * h)
    assert abs(d1) < 1e-4
    d3_left = (f(x0) - 3.0 * f(x0 - h) + 3.0 * f(x0 - 2 * h) - f(x0 - 3 * h)) / h**3
    d3_right = (-f(1e-9) + 3.0 * f(1e-9 + h) - 3.0 * f(1e-9 + 2 * h) + f(1e-9 + 3 * h)) / h**3
    assert abs(d3_left - 0.25) < 0.01
    assert abs(d3_right + 0.25) < 0.01
    assert abs((d3_right - d3_left) + 0.5) < 0.02


def test_free_operator_solved_exactly():
    # a = b = 0, c = 1 gives A = -(d/dx)^4 - 1; the Green diagonal solves
    # the truncated equation with no deviation at any N
    spec = OperatorSpec(TrigPoly.zero(), TrigPoly.zero(), TrigPoly.constant(1.0))
    for N in (4, 16):
        sol = solve_finite_lyapunov(assemble_A(spec, N))
        assert sol.residual < 1e-13
        assert np.max(np.abs(sol.K.coeffs)) < 1e-15
        assert np.allclose(
            np.diag(sol.U.entries), green_kernel(N).matrix_diag(), atol=1e-15
        )
        off = sol.U.entries - np.diag(np.diag(sol.U.entries))
        assert np.max(np.abs(off)) < 1e-15


def test_solver_matches_kronecker_oracle():
    rng = np.random.default_rng(81)
    for n in (3, 6, 8):
        for _ in range(5):
            A = stable_random(rng, n)
            U, ev, residual, pair_min = solve_lyapunov_core(A)
            U_ref = kron_solve(A)
            denom = np.linalg.norm(U_ref)
            assert np.linalg.norm(U - U_ref) < 1e-8 * denom
            assert residual < 1e-10
            assert pair_min > 0.0
            assert ev.shape == (n,)
            assert np.max(np.abs(U - U.conj().T)) == 0.0


def test_residual_definition():
    rng = np.random.default_rng(82)
    A = stable_random(rng, 7)
    U, _, residual, _ = solve_lyapunov_core(A)
    R = A.conj().T @ U + U @ A - np.eye(7)
    assert abs(residual - np.linalg.norm(R) / math.sqrt(7)) < 1e-15


def test_near_singular_pencil_raises():
    A = np.diag([1.0 + 2.0j, -1.0 + 2.0j])  # l1 + conj(l2) = 0 exactly
    with pytest.raises(NearSingularPencil) as info:
        solve_lyapunov_core(A)
    assert info.value.pair_min == 0.0
    assert info.value.eigenvalues is not None
    assert sorted(np.round(info.value.eigenvalues.imag, 12)) == [2.0, 2.0]


def test_residual_warning_threshold(monkeypatch):
    rng = np.random.default_rng(83)
    A = stable_random(rng, 5)
    monkeypatch.setattr(sik.lyapunov, "_RESIDUAL_TOL", 1e-18)
    with pytest.warns(UserWarning):
        solve_lyapunov_core(A)


def test_kernel_operator_convert_roundtrip():
    rng = np.random.default_rng(84)
    M = SpectralMatrix(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    F = kernel_operator_convert(M)
    assert isinstance(F, Kernel2D)
    back = kernel_operator_convert(F)
    assert np.max(np.abs(back.entries - M.entries)) < 1e-15
    # the free kernel's antidiagonal maps onto the matrix diagonal
    g = green_kernel(3)
    gm = kernel_operator_convert(g.as_kernel2d())
    assert np.allclose(np.diag(gm.entries), g.matrix_diag(), atol=1e-16)
    assert np.max(np.abs(gm.entries - np.diag(np.diag(gm.entries)))) == 0.0
    with pytest.raises(TypeError):
        kernel_operator_convert(np.eye(3))


def test_finite_solution_bundles_deviation():
    spec = OperatorSpec(
        a=TrigPoly.from_nonneg_modes([(1, 0.5)]),
        b=TrigPoly.zero(),
        c=TrigPoly.constant(1.0),
    )
    sol = solve_finite_lyapunov(assemble_A(spec, 12))
    assert sol.N == 12
    expected_K = (
        kernel_operator_convert(sol.U).coeffs - green_kernel(12).as_kernel2d().coeffs
    )
    assert np.max(np.abs(sol.K.coeffs - expected_K)) == 0.0
    assert sol.residual < 1e-12
    # kappa = 0 here: all eigenvalues strictly stable
    assert np.all(sol.eigenvalues.real < 0.0)


def trsyl_solve(A):
    # the whole-matrix LAPACK route: one unblocked ztrsyl on the Schur form
    n = A.shape[0]
    T, Z = scipy.linalg.schur(A, output="complex")
    (trsyl,) = scipy.linalg.get_lapack_funcs(("trsyl",), (T, T))
    Y, scale, info = trsyl(T, T, np.eye(n, dtype=complex), trana="C")
    assert info == 0
    U = Z @ (Y / scale) @ Z.conj().T
    return 0.5 * (U + U.conj().T)


def film_block(N):
    A = assemble_A(benilov_coefficients(0.0, 1.0, 0.02), N).entries
    keep, _ = exact_axis_split(A)
    return A[np.ix_(keep, keep)]


def patch_trsyl(monkeypatch, results):
    """Route the solver's trsyl through results(call_index, X, scale, info)."""
    lookup = scipy.linalg.get_lapack_funcs
    calls = []

    def patched_lookup(names, arrays):
        (trsyl,) = lookup(names, arrays)

        def fake(*args, **kwargs):
            calls.append(None)
            return results(len(calls), *trsyl(*args, **kwargs))

        return (fake,)

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", patched_lookup)
    return calls


def test_blocked_solver_matches_whole_matrix_trsyl():
    # sizes around the 64 block edge, two recursion depths, and a
    # non-normal film block
    rng = np.random.default_rng(85)
    cases = [stable_random(rng, n) for n in (1, 63, 64, 65, 131, 300)]
    cases.append(film_block(60))
    for A in cases:
        U, _, _, _ = solve_lyapunov_core(A)
        U_ref = trsyl_solve(A)
        assert np.linalg.norm(U - U_ref) <= 1e-12 * np.linalg.norm(U_ref)
        assert np.array_equal(U, U.conj().T)


def test_blocked_recursion_matches_kronecker_oracle(monkeypatch):
    # a tiny block size runs both Sylvester splits and the Lyapunov split
    # at sizes the Kronecker system can still check
    monkeypatch.setattr(sik.lyapunov, "_TRSYL_BLOCK", 3)
    rng = np.random.default_rng(86)
    for n in (1, 4, 7, 12, 23):
        A = stable_random(rng, n)
        U, _, residual, _ = solve_lyapunov_core(A)
        U_ref = kron_solve(A)
        assert np.linalg.norm(U - U_ref) < 1e-10 * np.linalg.norm(U_ref)
        assert np.array_equal(U, U.conj().T)
        assert residual < 1e-12


def test_blocked_base_case_perturbation_raises(monkeypatch):
    A = stable_random(np.random.default_rng(87), 131)
    calls = patch_trsyl(
        monkeypatch, lambda i, X, scale, info: (X, scale, 1 if i == 3 else info)
    )
    with pytest.raises(NearSingularPencil) as err:
        solve_lyapunov_core(A)
    assert len(calls) == 3
    assert err.value.eigenvalues.shape == (131,)
    assert err.value.pair_min > 0.0


def test_blocked_base_case_scale_propagates(monkeypatch):
    # a base case that scales its right-hand side by 0.5 must leave the
    # composed solution unchanged once the scale is carried through
    A = stable_random(np.random.default_rng(88), 131)
    U_ref, _, _, _ = solve_lyapunov_core(A)
    calls = patch_trsyl(
        monkeypatch,
        lambda i, X, scale, info: (0.5 * X, 0.5 * scale, info) if i % 2 else (X, scale, info),
    )
    U, _, _, _ = solve_lyapunov_core(A)
    assert len(calls) > 2
    assert np.linalg.norm(U - U_ref) <= 1e-14 * np.linalg.norm(U_ref)


def test_blocked_solver_on_diagonal_schur_form():
    # constant coefficients assemble a diagonal matrix: every coupling block
    # of T is zero, and U is diagonal with U_pp = 1 / (2 Re lambda_p)
    spec = OperatorSpec(
        a=TrigPoly.constant(1.0), b=TrigPoly.constant(2.0), c=TrigPoly.constant(3.0)
    )
    A = assemble_A(spec, 70).entries
    assert A.shape == (141, 141) and np.array_equal(A, np.diag(np.diag(A)))
    U, _, residual, _ = solve_lyapunov_core(A)
    exact = 1.0 / (2.0 * np.diag(A).real)
    assert np.array_equal(U, np.diag(np.diag(U)))
    assert np.allclose(np.diag(U), exact, rtol=1e-14, atol=0.0)
    assert residual < 1e-14


def test_serial_blas_pins_one_thread_and_restores(monkeypatch):
    # a solve on at most _SERIAL_MAX modes runs on one OpenBLAS thread; a
    # larger block leaves the count alone, and the count comes back only
    # when the last holder, in whichever thread, leaves
    libs = sik.lyapunov._OneBlasThread.calls
    if not libs:
        pytest.skip("numpy and scipy bundle no OpenBLAS")

    def counts():
        return [get() for get, _ in libs]

    before, serial = counts(), [1] * len(libs)
    seen, schur = [], scipy.linalg.schur

    def spy(*args, **kwargs):
        seen.append(counts())
        return schur(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", spy)
    solve_lyapunov_core(stable_random(np.random.default_rng(5), 40))
    assert seen == [serial] and counts() == before
    with sik.lyapunov._serial_blas(sik.lyapunov._SERIAL_MAX + 1):
        assert counts() == before

    entered, release = threading.Event(), threading.Event()

    def hold():
        with sik.lyapunov._serial_blas(10):
            entered.set()
            release.wait(10)

    worker = threading.Thread(target=hold)
    worker.start()
    assert entered.wait(10)
    with sik.lyapunov._serial_blas(sik.lyapunov._SERIAL_MAX):
        assert counts() == serial
    assert counts() == serial  # the worker still holds it
    release.set()
    worker.join(10)
    assert not worker.is_alive() and counts() == before


def test_serial_blas_holders_under_thread_stress():
    # four threads, on two cores, enter and leave in a tight loop with a
    # short switch interval: a lost update of the holder count would put
    # the thread counts back while a holder is still inside, or not at all
    libs = sik.lyapunov._OneBlasThread.calls
    if not libs:
        pytest.skip("numpy and scipy bundle no OpenBLAS")
    before, wrong = [get() for get, _ in libs], []

    def churn():
        for _ in range(2000):
            with sik.lyapunov._serial_blas(10):
                if any(get() != 1 for get, _ in libs):
                    wrong.append(1)
            time.sleep(0)  # let the holder count fall to 0 now and then

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not wrong and sik.lyapunov._OneBlasThread.holders == 0
    assert [get() for get, _ in libs] == before
