"""The weighted-singular-value kernel norm and the truncation-tail bounds.

Frozen reference values were produced by the dense SVD route before the
power-iteration path existed, so they double as a regression anchor."""

import math

import numpy as np
import pytest
import scipy.linalg

import sik.norms_estimates
from sik import (
    OperatorSpec,
    TrigPoly,
    assemble_A,
    benilov_coefficients,
    constant_M,
    estimate_triple_U,
    solve_finite_lyapunov,
    tail_bound,
    triple_norm,
)
from sik.certify import exact_axis_split
from sik.errors import DeltaTooLarge
from sik.fourier_core import Kernel2D, kernel2d_sobolev_norm
from sik.lyapunov import LyapunovSolution, green_kernel, solve_lyapunov_core
from sik.norms_estimates import _sigma_max, _weight_matrix, estimate_triple_U_kept

# H^3 kernel norm of the free solution: grows with N, stays < 1.62.
# A claim of "<= 1" for these is false; values frozen from direct sums.
FROZEN_U0_H3 = {
    8: 1.5624454292743455,
    32: 1.6012210477189617,
    128: 1.6113392485164482,
}


def random_kernel(rng, N):
    c = rng.standard_normal((2 * N + 1, 2 * N + 1)) + 1j * rng.standard_normal(
        (2 * N + 1, 2 * N + 1)
    )
    return Kernel2D(c)


def test_free_kernel_triple_norm_is_one():
    # weights (2 + p^4 + q^4) exactly cancel the antidiagonal decay
    # -1/(4 pi (1+p^4)) at q = -p, leaving a constant antidiagonal 1/(2 pi)
    for N in (8, 32, 128):
        val = triple_norm(green_kernel(N).as_kernel2d())
        assert abs(val - 1.0) < 1e-12


def test_free_kernel_h3_norm_frozen():
    for N, expected in FROZEN_U0_H3.items():
        val = kernel2d_sobolev_norm(green_kernel(N).as_kernel2d(), 3)
        assert abs(val - expected) < 1e-12


def test_triple_norm_scaling_and_triangle():
    rng = np.random.default_rng(91)
    for _ in range(10):
        F = random_kernel(rng, 6)
        G = random_kernel(rng, 6)
        assert abs(triple_norm(Kernel2D(3.0 * F.coeffs)) - 3.0 * triple_norm(F)) < 1e-9
        lhs = triple_norm(Kernel2D(F.coeffs + G.coeffs))
        assert lhs <= triple_norm(F) + triple_norm(G) + 1e-9


def test_triple_norm_sandwich_against_h4():
    # sigma_max(W) <= ||W||_F gives |||F||| <= ||F||_{H^4};
    # sigma_max >= largest entry gives a floor
    rng = np.random.default_rng(92)
    for _ in range(10):
        F = random_kernel(rng, 5)
        t = triple_norm(F)
        assert t <= kernel2d_sobolev_norm(F, 4) * (1.0 + 1e-12)
        W = _weight_matrix(F)
        assert t >= 2.0 * math.pi * np.max(W) * (1.0 - 1e-12)


def test_power_iteration_matches_dense_svd():
    rng = np.random.default_rng(93)
    for N in (3, 20, 60):
        W = np.abs(random_kernel(rng, N).coeffs)
        dense = float(np.linalg.svd(W, compute_uv=False)[0])
        # call the internal iteration directly (the dispatcher would pick
        # the dense route at these sizes)
        v = np.full(W.shape[1], 1.0 / math.sqrt(W.shape[1]))
        sigma = 0.0
        for _ in range(10_000):
            u = W @ v
            v_next = W.T @ u
            norm = np.linalg.norm(v_next)
            sigma_next = math.sqrt(norm)
            v = v_next / norm
            if abs(sigma_next - sigma) <= 1e-13 * sigma_next:
                break
            sigma = sigma_next
        assert abs(sigma - dense) < 1e-9 * dense
        assert abs(_sigma_max(W) - dense) < 1e-9 * dense


def test_sigma_max_of_permuted_diagonal():
    # constant coefficients give a W with at most one nonzero per row and
    # column; its singular values are its entries, as the SVD returns them
    rng = np.random.default_rng(95)
    for n in (1, 7, 57, 275):
        W = np.zeros((n, n))
        W[np.arange(n), rng.permutation(n)] = rng.uniform(0.0, 5.0, n) * (rng.random(n) < 0.8)
        assert _sigma_max(W) == float(np.max(W))
        assert _sigma_max(W) == pytest.approx(float(scipy.linalg.svdvals(W)[0]), rel=1e-15)
    # two nonzeros in one column or one row: sqrt(2), not the largest entry
    for W in (np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([[1.0, 1.0], [0.0, 0.0]])):
        assert _sigma_max(W) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_sigma_max_upper_bound_above_dense_limit():
    # beyond the dense-SVD size the value must still bound sigma_max from
    # above, and tightly
    rng = np.random.default_rng(94)
    N = 600
    p = np.arange(-N, N + 1, dtype=float)
    decay = 1.0 + p[:, None] ** 4 + p[None, :] ** 4
    for W in (
        np.abs(rng.standard_normal((1026, 1026))),
        _weight_matrix(Kernel2D(random_kernel(rng, N).coeffs / decay)),
    ):
        dense = float(scipy.linalg.svdvals(W)[0])
        assert dense <= _sigma_max(W) <= (1.0 + 1e-8) * dense


def test_tail_report_fields_and_bounds():
    spec = OperatorSpec(
        a=TrigPoly.from_nonneg_modes([(1, -0.5j)]),  # sin x
        b=TrigPoly.zero(),
        c=TrigPoly.constant(1.0),
    )
    from sik import constant_M

    M = constant_M(spec)
    sol = solve_finite_lyapunov(assemble_A(spec, 16))
    rep = estimate_triple_U(sol, M)
    assert rep.N == 16
    assert rep.delta_N == M / 256.0
    assert rep.tripleU_lower == 1.0
    assert rep.lambda_max == triple_norm(sol.K)
    assert rep.tripleU_upper == (1.0 + rep.lambda_max) / (1.0 - rep.delta_N)
    assert rep.tripleU_upper >= 1.0
    assert tail_bound(M, 16, rep.tripleU_upper) == M / 256.0 * rep.tripleU_upper
    with pytest.raises(ValueError):
        tail_bound(M, 0, 1.0)


def test_delta_too_large_raises():
    spec = OperatorSpec(
        a=TrigPoly.constant(9.0), b=TrigPoly.zero(), c=TrigPoly.constant(1.0)
    )
    from sik import constant_M

    M = constant_M(spec)
    assert M > 4.0  # so delta >= 1 at N = 2
    sol = solve_finite_lyapunov(assemble_A(spec, 2))
    with pytest.raises(DeltaTooLarge):
        estimate_triple_U(sol, M)


def test_measured_tail_within_bound():
    # solve far out, truncate back, compare the measured discarded tail
    # against the a-priori bound (small copy of the N' = 64 experiment)
    spec = OperatorSpec(
        a=TrigPoly.from_nonneg_modes([(1, -0.5j)]),
        b=TrigPoly.zero(),
        c=TrigPoly.constant(1.0),
    )
    from sik import constant_M

    M = constant_M(spec)
    sol = solve_finite_lyapunov(assemble_A(spec, 32))
    K = sol.K
    tripleU = triple_norm(kernel_of_U(sol))
    for n in (8, 16):
        inner = np.zeros_like(K.coeffs)
        lo, hi = 32 - n, 32 + n + 1
        inner[lo:hi, lo:hi] = K.coeffs[lo:hi, lo:hi]
        measured = triple_norm(Kernel2D(K.coeffs - inner))
        assert measured <= tail_bound(M, n, tripleU) * (1.0 + 1e-8)


def kernel_of_U(sol):
    from sik import kernel_operator_convert

    return kernel_operator_convert(sol.U)


def test_kept_block_lambda_max_equals_kernel_view():
    # the operator-view route must reproduce the Kernel2D reference bit
    # for bit, so that certificates do not move
    spec = OperatorSpec(
        a=TrigPoly.from_nonneg_modes([(1, -0.5j)]),
        b=TrigPoly.zero(),
        c=TrigPoly.constant(1.0),
    )
    M = constant_M(spec)
    for N in (12, 60):
        sol = solve_finite_lyapunov(assemble_A(spec, N))
        ref = estimate_triple_U(sol, M)
        got = estimate_triple_U_kept(sol.U.entries, np.arange(2 * N + 1), N, M)
        assert got.lambda_max == triple_norm(sol.K)
        assert got == ref


def test_kept_block_lambda_max_equals_kernel_view_axis_peeled():
    # film case: modes -1, 0, +1 are peeled, so K has their rows and
    # columns zeroed (built as in the acceptance suite's tail run)
    N = 60
    spec = benilov_coefficients(0.0, 1.0, 0.02)
    M = constant_M(spec)
    A = assemble_A(spec, N).entries
    keep, axis = exact_axis_split(A)
    assert axis.size == 3
    U_S, evs, resid, pair_min = solve_lyapunov_core(A[np.ix_(keep, keep)])
    n = 2 * N + 1
    U_full = np.zeros((n, n), dtype=complex)
    U_full[np.ix_(keep, keep)] = U_S
    K = U_full[:, ::-1] / (2.0 * math.pi) - green_kernel(N).as_kernel2d().coeffs
    K[axis, :] = 0.0
    K[:, (n - 1) - axis] = 0.0
    sol = LyapunovSolution(
        U=None, K=Kernel2D(K), residual=resid, N=N, eigenvalues=evs, pair_min=pair_min
    )
    got = estimate_triple_U_kept(U_S, keep, N, M)
    assert got.lambda_max == triple_norm(sol.K)
    assert got == estimate_triple_U(sol, M)


def test_kept_block_delta_checked_before_svd(monkeypatch):
    def no_svd(W):
        raise AssertionError("sigma_max evaluated although delta_N >= 1")

    monkeypatch.setattr(sik.norms_estimates, "_sigma_max", no_svd)
    U = np.eye(5, dtype=complex)
    with pytest.raises(DeltaTooLarge):
        estimate_triple_U_kept(U, np.arange(5), 2, 4.0)
