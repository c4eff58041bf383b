"""Brute-force reference implementations: exact constant-coefficient
counts, the vectorized Lyapunov solve, and the extended-precision route."""

import numpy as np
import pytest

from sik import dispersion_index
from sik.errors import SingularSystem
from sik.lyapunov import solve_lyapunov_core
from sik.oracle import (
    _random_with_margin,
    kronecker_lyapunov,
    mp_hermitian_inertia,
    validation_suite,
)

# the showcase matrix: similar to triangular R with diagonal (1, 2, 1) but
# catastrophically non-normal at double precision
SHOWCASE = np.array(
    [
        [10_001.0, 1.0e6, 1.0e4],
        [1.0e6, 2.0, 1.0e6],
        [-1.0e4, -1.0e6, -9_999.0],
    ]
)


def test_dispersion_hand_values():
    assert dispersion_index(5.0, 2.0, -3.0, 10) == 5
    assert dispersion_index(0.0, 0.0, 1.0, 10) == 0
    assert dispersion_index(0.0, 0.0, -1.0, 10) == 1  # p = 0 only; +-1 sit at 0
    assert dispersion_index(10.0, 0.0, 1.0, 10) == 6
    # the count saturates once |p|^4 dominates
    assert dispersion_index(10.0, 0.0, 1.0, 3) == dispersion_index(10.0, 0.0, 1.0, 100)


def test_kronecker_matches_schur_solver():
    rng = np.random.default_rng(61)
    for n in (2, 5, 8):
        A, _ = _random_with_margin(rng, n, 0.2)
        U_fast, _, _, _ = solve_lyapunov_core(A)
        U_ref = kronecker_lyapunov(A, np.eye(n))
        assert np.linalg.norm(U_fast - U_ref) < 1e-8 * np.linalg.norm(U_ref)


def test_kronecker_general_right_hand_side():
    rng = np.random.default_rng(62)
    A, _ = _random_with_margin(rng, 4, 0.3)
    V = rng.standard_normal((4, 4))
    V = V + V.T
    U = kronecker_lyapunov(A, V)
    assert np.linalg.norm(A.conj().T @ U + U @ A - V) < 1e-9 * np.linalg.norm(V)


def test_kronecker_size_cap_and_shapes():
    with pytest.raises(ValueError):
        kronecker_lyapunov(np.eye(13), np.eye(13))
    with pytest.raises(ValueError):
        kronecker_lyapunov(np.eye(3), np.eye(4))


def test_kronecker_singular_system():
    A = np.diag([1.0 + 2.0j, -1.0 + 2.0j])  # spectrum hits the axis pairing
    with pytest.raises(SingularSystem):
        kronecker_lyapunov(A, np.eye(2))


def test_mp_route_matches_float_route():
    rng = np.random.default_rng(63)
    A, count = _random_with_margin(rng, 4, 0.4)
    U = kronecker_lyapunov(A, np.eye(4))
    U_mp = kronecker_lyapunov(A, np.eye(4), dps=40)
    for i in range(4):
        for j in range(4):
            assert abs(complex(U_mp[i, j]) - U[i, j]) < 1e-10
    n_plus, n_minus, n_zero = mp_hermitian_inertia(U_mp, dps=40)
    assert n_plus == count
    assert n_zero == 0
    assert n_plus + n_minus == 4


def test_showcase_matrix_extended_precision_count():
    # at double precision the eigendecomposition of this matrix is garbage;
    # with enough digits the Lyapunov/inertia route returns the true count 3.
    # U's spectrum is {0.125, 5.6e10, 2.2e23}: 24 decades of spread, so the
    # zero test must be absolute, and 60 digits leave ample sign headroom
    U_mp = kronecker_lyapunov(SHOWCASE, np.eye(3), dps=60)
    assert mp_hermitian_inertia(U_mp, dps=60, zero_tol=1e-12) == (3, 0, 0)


def test_random_with_margin_counts():
    rng = np.random.default_rng(64)
    for _ in range(10):
        A, count = _random_with_margin(rng, 6, 0.1)
        re = np.linalg.eigvals(A).real
        assert int(np.sum(re > 0)) == count


def test_validation_suite_all_pass():
    results = validation_suite()
    assert [r["name"] for r in results] == [
        "dispersion",
        "kronecker",
        "inertia-vs-schur",
        "free-kernel-norm",
    ]
    for r in results:
        assert r["passed"], r
        assert isinstance(r["detail"], str) and r["detail"]
