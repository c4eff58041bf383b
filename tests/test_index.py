"""Inertia counts, the half-plane count and the subspace addition rule.
The LDL factorization serves as the congruence (Sylvester-law) oracle for
inertia."""

import numpy as np
import pytest
import scipy.linalg

import sik.certify
import sik.lyapunov
from sik import (
    OperatorSpec,
    TrigPoly,
    addition_rule_check,
    benilov_coefficients,
    certified_index,
    count_half_plane,
    inertia_hermitian,
    instability_index_general,
)
from sik.certify import _solve_truncation
from sik.errors import DegenerateRestriction, NonHermitianInput
from sik.index import _ldl_n_plus, u_orth_complement
from sik.lyapunov import _matrix_scale, _sign_band, solve_lyapunov_core
from sik.operator_assembly import d_weights
from sik.oracle import _random_with_margin


def random_hermitian(rng, n, min_gap=0.2):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    vals = rng.uniform(min_gap, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    return (Q * vals) @ Q.conj().T, int(np.sum(vals > 0))


def ldl_inertia(H):
    # congruence route: signs of the block-diagonal D in P L D L^H P^T
    H = H.copy()
    # Hermitian diagonal is real; drop the roundoff imaginary part that
    # scipy's ldl would otherwise warn about
    np.fill_diagonal(H, H.diagonal().real)
    _, D, _ = scipy.linalg.ldl(H)
    eigs = []
    i = 0
    n = D.shape[0]
    while i < n:
        if i + 1 < n and D[i, i + 1] != 0.0:
            eigs.extend(np.linalg.eigvalsh(D[i : i + 2, i : i + 2]))
            i += 2
        else:
            eigs.append(D[i, i].real)
            i += 1
    eigs = np.asarray(eigs)
    return int(np.sum(eigs > 0)), int(np.sum(eigs < 0))


def test_inertia_matches_ldl_congruence():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        H, n_plus_true = random_hermitian(rng, n)
        inert = inertia_hermitian(H)
        n_plus_ldl, n_minus_ldl = ldl_inertia(H)
        assert inert.n_plus == n_plus_true == n_plus_ldl == _ldl_n_plus(H.copy())
        # a diagonal matrix is its own D and skips the factorisation
        d = H.diagonal().real
        assert _ldl_n_plus(np.diag(d).astype(complex)) == int(np.sum(d > 0))
        assert inert.n_minus == n - n_plus_true == n_minus_ldl
        assert inert.n_zero == 0
        assert inert.n_plus + inert.n_minus + inert.n_zero == n


def test_ldl_count_through_2x2_pivots():
    # a zero diagonal leaves Bunch-Kaufman no 1x1 pivot to start with; the
    # swap form [[0, 1], [1, 0]] has D = H itself, with eigenvalues +-1
    (hetrf,) = scipy.linalg.get_lapack_funcs(("hetrf",), (np.zeros((1, 1), complex),))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.all(hetrf(swap, lower=True)[1] < 0)
    assert _ldl_n_plus(swap) == 1
    rng = np.random.default_rng(46)
    for _ in range(30):
        n = int(rng.integers(2, 30))
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = B + B.conj().T
        np.fill_diagonal(H, 0.0)
        assert np.any(hetrf(H, lower=True)[1] < 0)
        eigs = np.linalg.eigvalsh(H)
        assert np.min(np.abs(eigs)) > 1e-6
        assert _ldl_n_plus(H.copy()) == int(np.sum(eigs > 0))


def test_ldl_count_in_scaled_frame_of_film_block():
    # Sylvester's law: D^2 U D^2 has U's inertia; at N=60 the unscaled
    # eigvalsh count is still right, and both read the film's kappa = 4
    N = 60
    t = _solve_truncation(benilov_coefficients(0.0, 1.0, 0.02), N)
    d2 = d_weights(N) ** 2
    parts = list(zip(t.parts, t.Us))
    ldl = sum(w * _ldl_n_plus(d2[m, None] * U * d2[None, m]) for (m, w), U in parts)
    assert ldl == sum(w * inertia_hermitian(U).n_plus for (_, w), U in parts) == 4


def test_bound_hetrf_matches_scipy_wrapper():
    # the GIL-free binding takes the wrapper's workspace, so its path: ldu
    # and ipiv equal scipy's bit for bit, on the random Hermitian matrices
    # above (with and without 2x2 pivots) and on film's scaled blocks
    cases = [random_hermitian(np.random.default_rng(41), n)[0] for n in (1, 2, 7, 12)]
    rng = np.random.default_rng(46)
    for n in (2, 9, 29):
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = B + B.conj().T
        np.fill_diagonal(H, 0.0)
        cases.append(H)
    N = 60
    t = _solve_truncation(benilov_coefficients(0.0, 1.0, 0.02), N)
    d2 = d_weights(N) ** 2
    cases += [d2[m, None] * U * d2[None, m] for (m, _), U in zip(t.parts, t.Us)]
    for X in cases:
        ldu_ref, ipiv_ref, info = scipy.linalg.lapack.zhetrf(X.T, lower=True)
        assert info == 0
        ldu = np.array(X.T, order="F")
        ipiv = sik.lyapunov._hetrf(ldu)
        assert np.array_equal(ipiv, ipiv_ref) and ipiv.dtype == ipiv_ref.dtype
        assert ldu.tobytes() == ldu_ref.tobytes()
    assert any(np.any(X.T != X) for X in cases[-2:])  # film's blocks are complex
    for bad in (np.eye(3, dtype=complex), np.eye(3, order="F"), np.ones((3, 2), complex, order="F")):
        with pytest.raises(ValueError):  # row-major, real or not square: refused
            sik.lyapunov._hetrf(bad)
    # a real X is cast to complex and counted as the complex one
    H = random_hermitian(np.random.default_rng(47), 8)[0].real
    H = H + H.T
    assert _ldl_n_plus(H) == _ldl_n_plus(H.astype(complex)) == int(np.sum(np.linalg.eigvalsh(H) > 0))


def test_ldl_count_refuses_pivot_inside_band(monkeypatch):
    # a pivot within n eps ||X|| of zero leaves the sign undecided
    assert _ldl_n_plus(np.diag([1.0, 1e-17]).astype(complex)) is None
    assert _ldl_n_plus(np.diag([1.0, -1e-13]).astype(complex)) == 1
    assert _ldl_n_plus(np.ones((3, 3), dtype=complex)) is None
    # and then the run cannot be Certified, whatever else holds
    spec = benilov_coefficients(0.5, 1.0, 0.5)
    assert certified_index(spec).status == "Certified"
    monkeypatch.setattr(sik.certify, "_ldl_n_plus", lambda X: None)
    cert = certified_index(spec)
    assert cert.status != "Certified"
    assert cert.cond2_ok
    assert cert.kappa_lyapunov is None
    assert cert.to_json_dict()["kappa_lyapunov"] is None


def test_sign_band_clears_every_schur_eigenvalue():
    # Ostrowski & Schneider: A^H U + U A = I + R with ||R|| < 1 puts every
    # eigenvalue at |Re l| >= (1 - ||R||) / (2 ||U||), at least twice the
    # half-gap _sign_band returns; without a usable solve it is n eps ||A||
    rng = np.random.default_rng(48)
    solves = []
    for n in (6, 8):
        for _ in range(10):
            A, _ = _random_with_margin(rng, n, 0.1)
            U, ev, residual, _ = solve_lyapunov_core(A)
            solves.append((A, [U], ev, residual))
    for a0, b0, c0 in [(0.0, 0.0, -3.0), (2.0, 1.0, 5.0), (-4.0, 3.0, 0.5), (9.0, -2.0, 0.0)]:
        const = [TrigPoly.constant(v) for v in (a0, b0, c0)]
        t = _solve_truncation(OperatorSpec(*const), 12)
        solves.append((t.A, t.blocks, t.eigenvalues, t.residual))
    for A, blocks, ev, residual in solves:
        floor = A.shape[0] * np.finfo(float).eps * _matrix_scale(A)
        assert _sign_band(A) == floor
        assert _sign_band(A, blocks, 1.0) == floor  # no slack: the solve certifies nothing
        band = _sign_band(A, blocks, residual)
        assert band != floor
        assert np.min(np.abs(ev.real)) >= 2.0 * band


def test_inertia_zero_tolerance():
    H = np.diag([1.0, 1e-12])
    inert = inertia_hermitian(H)
    assert (inert.n_plus, inert.n_zero) == (1, 1)
    assert inert.zero_tol == pytest.approx(1e-8)
    strict = inertia_hermitian(H, zero_tol=1e-13)
    assert (strict.n_plus, strict.n_zero) == (2, 0)


def test_inertia_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        inertia_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_count_half_plane_values():
    ev = np.array([2.0 + 1.0j, -3.0, 1e-12, 0.5j])
    n_plus, n_minus, n_zero, gap = count_half_plane(ev, 1e-9)
    assert (n_plus, n_minus, n_zero) == (1, 1, 2)
    assert gap == 0.0
    assert count_half_plane(np.array([]), 1e-9)[:3] == (0, 0, 0)


def test_general_count_on_constructed_spectra():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        re = rng.uniform(0.5, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        lam = re + 1j * rng.standard_normal(n)
        while True:
            V = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if np.linalg.cond(V) < 50.0:
                break
        A = V @ np.diag(lam) @ np.linalg.inv(V)
        inert = instability_index_general(A)
        assert inert.n_plus == int(np.sum(re > 0))
        assert inert.n_minus == n - inert.n_plus
        assert inert.n_zero == 0
        assert inert.eig_residual < 1e-10
        assert inert.gap == pytest.approx(np.min(np.abs(re)), rel=1e-6)


def test_general_count_default_tolerance():
    # 1e-8 times min(||A||_F, sqrt(||A||_1 ||A||_inf)); a zero matrix gets
    # tolerance 0 and counts every eigenvalue as on the axis
    inert = instability_index_general(np.diag([3.0, -4.0]))
    assert inert.zero_tol == 1e-8 * 4.0
    assert (inert.n_plus, inert.n_minus, inert.n_zero) == (1, 1, 0)
    zero = instability_index_general(np.zeros((4, 4)))
    assert zero.zero_tol == 0.0
    assert (zero.n_plus, zero.n_minus, zero.n_zero) == (0, 0, 4)
    assert zero.gap == 0.0


def test_u_orth_complement_properties():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        U, _ = random_hermitian(rng, n)
        k = int(rng.integers(1, n))
        S = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        C = u_orth_complement(U, S)
        assert C.shape == (n, n - k)
        assert np.max(np.abs(S.conj().T @ U @ C)) < 1e-9
        assert np.allclose(C.conj().T @ C, np.eye(n - k), atol=1e-10)
    # 1-d input is promoted to a column
    U, _ = random_hermitian(np.random.default_rng(5), 4)
    C = u_orth_complement(U, np.array([1.0, 0.0, 0.0, 0.0]))
    assert C.shape == (4, 3)


def test_addition_rule_random_instances():
    rng = np.random.default_rng(44)
    done = 0
    attempts = 0
    while done < 100:
        attempts += 1
        assert attempts < 500
        n = int(rng.integers(2, 11))
        U, _ = random_hermitian(rng, n)
        k = int(rng.integers(1, n))
        S1 = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        try:
            lhs, rhs = addition_rule_check(U, S1)
        except DegenerateRestriction:
            continue
        assert lhs == rhs
        done += 1


def test_addition_rule_neutral_intersection():
    # the swap form: both restrictions are neutral, the intersection is
    # one-dimensional, and kappa(U) = 1 comes entirely from the overlap
    U = np.array([[0.0, 1.0], [1.0, 0.0]])
    lhs, rhs = addition_rule_check(U, np.array([1.0, 0.0]))
    assert lhs == 1
    assert rhs == 1


def test_addition_rule_degenerate_guard():
    U = np.diag([1.0, 3e-8])
    with pytest.raises(DegenerateRestriction):
        addition_rule_check(U, np.eye(2))
