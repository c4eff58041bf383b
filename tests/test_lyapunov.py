"""Lyapunov solver and the free-operator Green kernel.

Independent oracles: the Kronecker-product linear system for small solves,
and the whole-matrix LAPACK trsyl route for the recursive blocked solve.
The free kernel is checked by solving the free equation exactly."""

import ctypes
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
    certified_index,
    kernel_operator_convert,
    solve_finite_lyapunov,
)
from sik.certify import exact_axis_split
from sik.errors import NearSingularPencil
from sik.fourier_core import Kernel2D
from sik.lyapunov import green_kernel, solve_lyapunov_core
from sik.operator_assembly import SpectralMatrix


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
    assert np.allclose(2.0 * math.pi * g.diag_coeffs, -0.5 / (1.0 + p**4), atol=1e-16)
    with pytest.raises(ValueError):
        green_kernel(-1)


def test_free_operator_solved_exactly():
    # a = b = 0, c = 1 gives A = -(d/dx)^4 - 1; the Green diagonal solves
    # the truncated equation with no deviation at any N
    spec = OperatorSpec(TrigPoly.zero(), TrigPoly.zero(), TrigPoly.constant(1.0))
    for N in (4, 16):
        sol = solve_finite_lyapunov(assemble_A(spec, N))
        assert sol.residual < 1e-13
        assert np.max(np.abs(sol.K.coeffs)) < 1e-15
        assert np.allclose(
            np.diag(sol.U.entries), 2.0 * math.pi * green_kernel(N).diag_coeffs, atol=1e-15
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
    assert np.allclose(np.diag(gm.entries), 2.0 * math.pi * g.diag_coeffs, atol=1e-16)
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
    trsyl, calls = sik.lyapunov._trsyl, []

    def fake(A, B, X):
        calls.append(None)
        scale, info = trsyl(A, B, X)
        X[...], scale, info = results(len(calls), X, scale, info)
        return scale, info

    monkeypatch.setattr(sik.lyapunov, "_trsyl", fake)
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


def blocked_route(A):
    """U from _solve_lyapunov on A's Schur form and Z Y Z^H: the route
    solve_lyapunov_core takes for a part that is not diagonal."""
    with sik.lyapunov._Dense(A.shape[0]):
        T, Z, w = sik.lyapunov._schur(A)
        Y, calls = np.eye(A.shape[0], dtype=complex, order="F"), []

        def trsyl(T1, T2, X):
            calls.append(X.shape)
            assert sik.lyapunov._trsyl(T1, T2, X) == (1.0, 0)

        sik.lyapunov._solve_lyapunov(trsyl, T, Y)
        U = Z @ Y @ Z.conj().T
    return 0.5 * (U + U.conj().T), Y, T, Z, calls


def constant_matrix(N):
    spec = OperatorSpec(
        a=TrigPoly.constant(1.0), b=TrigPoly.constant(2.0), c=TrigPoly.constant(3.0)
    )
    A = assemble_A(spec, N).entries
    assert A.shape == (2 * N + 1, 2 * N + 1) and np.array_equal(A, np.diag(np.diag(A)))
    return A


def test_blocked_solver_on_diagonal_schur_form():
    # constant coefficients assemble a diagonal matrix, its own Schur form:
    # every coupling block of T is zero, so every off-diagonal block of Y
    # has a zero right-hand side and only the four diagonal blocks reach
    # trsyl; Y is diagonal with Y_pp = 1 / (2 Re lambda_p)
    A = constant_matrix(70)
    _, Y, T, Z, calls = blocked_route(A)
    assert np.array_equal(T, A) and np.array_equal(Z, np.eye(141))
    assert calls == [(35, 35), (35, 35), (35, 35), (36, 36)]
    assert np.array_equal(Y, np.diag(np.diag(Y)))
    assert np.allclose(np.diag(Y), 1.0 / (2.0 * np.diag(A).real), rtol=1e-14, atol=0.0)


def test_diagonal_part_in_closed_form(monkeypatch):
    # a diagonal part skips zhseqr and trsyl: U = diag(1 / (2 Re lambda))
    # equals the blocked route's bit for bit, at a size with one trsyl
    # block and at one with a split
    for N in (20, 70):
        A = constant_matrix(N)
        U_ref, *_ = blocked_route(A)
        for name in ("_ZHSEQR", "_trsyl"):
            monkeypatch.setattr(sik.lyapunov, name, None)  # a call would raise
        U, ev, residual, _ = solve_lyapunov_core(A)
        monkeypatch.undo()
        assert U.tobytes() == U_ref.tobytes()
        assert np.array_equal(ev, np.diag(A)) and residual < 1e-14


def test_diagonal_route_keeps_the_pencil_test(monkeypatch):
    # c = 1e-12 puts the mean mode's eigenvalue -1e-12 inside the pencil
    # tolerance: the diagonal route raises before its closed form, and
    # certify reports it
    spec = OperatorSpec(TrigPoly.zero(), TrigPoly.zero(), TrigPoly.constant(1e-12))
    A = assemble_A(spec, 40).entries
    assert np.array_equal(A, np.diag(np.diag(A)))
    monkeypatch.setattr(sik.lyapunov, "_ZHSEQR", None)
    with pytest.raises(NearSingularPencil) as err:
        solve_lyapunov_core(A)
    monkeypatch.undo()
    assert err.value.pair_min == pytest.approx(2e-12, rel=1e-9)
    assert certified_index(spec).status == "SpectraTouchAxis"


def film_half(N):
    """One side of film's mirror pair at truncation N: tridiagonal, and
    under the flush its Schur factors are banded."""
    A = film_block(N)
    return A[: A.shape[0] // 2, : A.shape[0] // 2]


def test_banded_schur_form_skips_zero_right_hand_sides(monkeypatch):
    # film's n = 350 part: the coupling GEMMs leave some off-diagonal
    # blocks of Y exactly zero under the flush, and those never reach
    # trsyl (a dense T of the same order needs all 36 calls)
    A = film_half(351)
    solved = []  # a zero solution means a zero right-hand side

    def record(i, X, scale, info):
        solved.append(X.any())
        return X, scale, info

    calls = patch_trsyl(monkeypatch, record)
    U, _, residual, _ = solve_lyapunov_core(A)
    assert all(solved) and len(solved) == len(calls)
    monkeypatch.undo()
    dense = patch_trsyl(monkeypatch, lambda i, X, scale, info: (X, scale, info))
    solve_lyapunov_core(stable_random(np.random.default_rng(89), A.shape[0]))
    assert len(dense) == 36
    if sik.lyapunov._Dense.fenv:  # without the flush the zeros stay subnormal
        assert len(calls) < 36
    U_ref = trsyl_solve(A)
    assert np.linalg.norm(U - U_ref) <= 1e-12 * np.linalg.norm(U_ref)
    assert residual < 1e-12


def test_tiled_back_transform():
    # each 64-row tile of Z multiplies only its nonzero columns: the same
    # product as Z Y Z^H on film's banded Z, and exactly Y on Z = I
    A = film_half(351)
    with sik.lyapunov._Dense(A.shape[0]):
        _, Z, _ = sik.lyapunov._schur(A)
    G = np.random.default_rng(90).standard_normal((2, 350, 350))
    Y = G[0] + 1j * G[1]
    Y = Y + Y.conj().T
    U = sik.lyapunov._back_transform(Z, Y)
    ref = Z @ Y @ Z.conj().T
    assert np.linalg.norm(U - ref) <= 1e-14 * np.linalg.norm(ref)
    if sik.lyapunov._Dense.fenv:
        assert not Z[:64, 100:].any()  # the first tile's range stops short
    for n in (1, 64, 150):
        assert np.array_equal(sik.lyapunov._back_transform(np.eye(n, dtype=complex), Y[:n, :n]),
                              Y[:n, :n])


def test_serial_blas_pins_one_thread_and_restores(monkeypatch):
    # a solve on at most _SERIAL_MAX modes runs on one OpenBLAS thread; a
    # larger block leaves the count alone, and the count comes back only
    # when the last holder, in whichever thread, leaves
    libs = sik.lyapunov._Dense.calls
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
    with sik.lyapunov._Dense(sik.lyapunov._SERIAL_MAX + 1):
        assert counts() == before

    entered, release = threading.Event(), threading.Event()

    def hold():
        with sik.lyapunov._Dense(10):
            entered.set()
            release.wait(10)

    worker = threading.Thread(target=hold)
    worker.start()
    assert entered.wait(10)
    with sik.lyapunov._Dense(sik.lyapunov._SERIAL_MAX):
        assert counts() == serial
    assert counts() == serial  # the worker still holds it
    release.set()
    worker.join(10)
    assert not worker.is_alive() and counts() == before


def test_serial_blas_holders_under_thread_stress():
    # four threads, on two cores, enter and leave in a tight loop with a
    # short switch interval: a lost update of the holder count would put
    # the thread counts back while a holder is still inside, or not at all;
    # each thread's own MXCSR must come back as it was
    libs = sik.lyapunov._Dense.calls
    if not libs:
        pytest.skip("numpy and scipy bundle no OpenBLAS")
    before, wrong, states = [get() for get, _ in libs], [], []
    read = mxcsr if sik.lyapunov._Dense.fenv else lambda: None

    def churn():
        start = read()
        for _ in range(2000):
            with sik.lyapunov._Dense(10):
                if any(get() != 1 for get, _ in libs):
                    wrong.append(1)
            time.sleep(0)  # let the holder count fall to 0 now and then
        states.append((start, read()))

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
    assert not wrong and sik.lyapunov._Dense.holders == 0
    assert [get() for get, _ in libs] == before
    assert len(states) == 4 and all(start == end for start, end in states)


def mxcsr():
    """The calling thread's MXCSR, read as _Dense reads it."""
    env = sik.lyapunov._FEnv()
    assert sik.lyapunov._Dense.fenv[0](env) == 0
    return env.mxcsr


needs_flush = pytest.mark.skipif(
    sik.lyapunov._Dense.fenv is None, reason="not x86-64 glibc: _Dense flushes nothing"
)
SUBNORMAL = np.array([5e-324])


@needs_flush
def test_dense_flushes_subnormals_and_restores():
    before = mxcsr()
    for n in (10, sik.lyapunov._SERIAL_MAX + 1):  # every size flushes
        with sik.lyapunov._Dense(n):
            assert mxcsr() & 0x8040 == 0x8040
            assert (SUBNORMAL * 1.0)[0] == 0.0
        assert (SUBNORMAL * 1.0)[0] == 5e-324 and mxcsr() == before


@needs_flush
def test_dense_restores_mxcsr_after_near_singular_pencil(monkeypatch):
    # the pencil test raises inside the flushed region; the exit puts the
    # saved MXCSR back all the same
    seen, schur = [], sik.lyapunov._schur

    def spy(*args, **kwargs):
        seen.append(mxcsr())
        return schur(*args, **kwargs)

    monkeypatch.setattr(sik.lyapunov, "_schur", spy)
    before = mxcsr()
    with pytest.raises(NearSingularPencil):
        solve_lyapunov_core(np.diag([1.0 + 2.0j, -1.0 + 2.0j]))
    assert len(seen) == 1 and seen[0] & 0x8040 == 0x8040
    assert mxcsr() == before and (SUBNORMAL * 1.0)[0] == 5e-324


@needs_flush
def test_dense_flush_is_per_thread():
    # MXCSR is per thread: while one thread is inside, another keeps
    # gradual underflow
    entered, release, inside = threading.Event(), threading.Event(), []

    def hold():
        with sik.lyapunov._Dense(10):
            entered.set()
            release.wait(10)
            inside.append((SUBNORMAL * 1.0)[0])

    worker = threading.Thread(target=hold)
    worker.start()
    try:
        assert entered.wait(10)
        assert (SUBNORMAL * 1.0)[0] == 5e-324 and mxcsr() & 0x8040 == 0
    finally:
        release.set()
        worker.join(10)
    assert not worker.is_alive() and inside == [0.0]


def schur_checks(A, T, Z):
    """Backward error ||Z T Z^H - A|| / ||A||, ||Z^H Z - I|| and T's sorted diagonal."""
    scale = max(np.linalg.norm(A), 1e-300)
    backward = np.linalg.norm(Z @ T @ Z.conj().T - A) / scale
    orth = np.linalg.norm(Z.conj().T @ Z - np.eye(A.shape[0]))
    return backward, orth, np.sort_complex(np.diag(T))


@pytest.mark.parametrize("case", ["tridiagonal", "diagonal", "one"])
def test_hessenberg_schur_matches_scipy_schur(case, monkeypatch):
    # film's half block (tridiagonal), a constant-coefficient truncation
    # (diagonal) and a 1 x 1 part take zhseqr; scipy.linalg.schur, run on
    # the same input, is the reference for T's diagonal, the backward error
    # and the orthogonality of Z
    A = {
        "tridiagonal": film_block(120)[:119, :119],
        "diagonal": assemble_A(OperatorSpec(a=TrigPoly.constant(3.0), b=TrigPoly.constant(1.0),
                                            c=TrigPoly.constant(2.0)), 40).entries,
        "one": np.array([[-2.0 + 3.0j]]),
    }[case]
    assert not np.tril(A, -2).any()
    T_ref, Z_ref = scipy.linalg.schur(A, output="complex")
    seen, schur = [], scipy.linalg.schur

    def spy(*args, **kwargs):
        seen.append(args)
        return schur(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", spy)
    with sik.lyapunov._Dense(A.shape[0]):
        T, Z, w = sik.lyapunov._schur(A)
    assert not seen and T.flags.f_contiguous and Z.flags.f_contiguous
    assert not np.tril(T, -1).any()
    assert w == {"tridiagonal": 1, "diagonal": 0, "one": 0}[case]
    backward, orth, diag = schur_checks(A, T, Z)
    backward_ref, orth_ref, diag_ref = schur_checks(A, T_ref, Z_ref)
    assert np.allclose(diag, diag_ref, rtol=1e-13, atol=0.0)
    assert backward <= max(4.0 * backward_ref, 1e-15) and orth <= max(4.0 * orth_ref, 1e-13)


def test_non_hessenberg_part_keeps_scipy_schur(monkeypatch):
    # max_mode 2 puts a second subdiagonal in every part: the reduction is needed
    spec = OperatorSpec(a=TrigPoly.zero(), b=TrigPoly.zero(),
                        c=TrigPoly.from_nonneg_modes([(0, 2.0), (2, 0.3)]))
    A = assemble_A(spec, 20).entries
    assert np.tril(A, -2).any()
    seen, schur = [], scipy.linalg.schur

    def spy(*args, **kwargs):
        seen.append(args[0].shape)
        return schur(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", spy)
    T, Z, w = sik.lyapunov._schur(A)
    assert seen == [A.shape] and w == 2
    backward, orth, _ = schur_checks(A, T, Z)
    assert backward < 1e-14 and orth < 1e-13


@pytest.mark.parametrize("max_mode", [0, 1, 2, 3])
def test_banded_residual_matches_gemm(max_mode):
    # U A from A's 2w + 1 diagonals against the dense product, on a
    # Hermitian U and the truncation of a spec of bandwidth max_mode
    modes = [(0, 2.0)] + [(m, 0.4 / m + 0.1j) for m in range(1, max_mode + 1)]
    spec = OperatorSpec(a=TrigPoly.constant(1.0), b=TrigPoly.constant(0.5),
                        c=TrigPoly.from_nonneg_modes(modes))
    A = assemble_A(spec, 150).entries
    G = np.random.default_rng(max_mode).standard_normal((2, 301, 301))
    U = G[0] + 1j * G[1]
    U = U + U.conj().T
    w = sik.lyapunov._schur(A)[2]
    assert w == max_mode
    R = sik.lyapunov._times_band(U, A, w)
    ref = U @ A
    assert np.linalg.norm(R - ref) <= 1e-14 * np.linalg.norm(U) * np.linalg.norm(A)


def test_lapack_bindings_drop_the_gil():
    # CFUNCTYPE releases the GIL around the foreign call; PYFUNCTYPE would hold it
    for binding in (sik.lyapunov._ZHSEQR, sik.lyapunov._ZTRSYL, sik.lyapunov._ZHETRF):
        assert isinstance(binding, ctypes._CFuncPtr)
        assert not type(binding)._flags_ & ctypes._FUNCFLAG_PYTHONAPI
    # the in-place call passes raw pointers: a row-major operand is refused
    C, F = np.eye(3, dtype=complex), np.eye(3, dtype=complex, order="F")
    for args in ((C, F, F), (F, F, C), (F, F, F.real.copy(order="F"))):
        with pytest.raises(ValueError):
            sik.lyapunov._trsyl(*args)
