"""Assembled operator matrices versus symbolic application of
A[h] = -h'''' - (a h)'' + (b h)' - c h, plus the derived constants."""

import math

import numpy as np
import pytest

from sik import (
    OperatorSpec,
    TrigPoly,
    assemble_A,
    benilov_coefficients,
    constant_M,
    tp_derivative,
)
from sik.fourier_core import leibnitz_constant, sobolev_norm, tp_multiply
from sik.operator_assembly import SpectralMatrix, d_weights


def random_spec(rng, max_mode=3, scale=1.0):
    def poly():
        entries = [(0, scale * rng.standard_normal())]
        for p in range(1, max_mode + 1):
            entries.append(
                (p, scale * (rng.standard_normal() + 1j * rng.standard_normal()))
            )
        return TrigPoly.from_nonneg_modes(entries)

    return OperatorSpec(a=poly(), b=poly(), c=poly())


def apply_operator(spec, h):
    ah = tp_multiply(spec.a, h)
    bh = tp_multiply(spec.b, h)
    ch = tp_multiply(spec.c, h)
    return (
        tp_derivative(h, 4).scaled(-1.0)
        - tp_derivative(ah, 2)
        + tp_derivative(bh, 1)
        - ch
    )


def apply_adjoint(spec, g):
    # formal adjoint: -g'''' - a g'' - b g' - c g
    return (
        tp_derivative(g, 4).scaled(-1.0)
        - tp_multiply(spec.a, tp_derivative(g, 2))
        - tp_multiply(spec.b, tp_derivative(g, 1))
        - tp_multiply(spec.c, g)
    )


def test_entries_match_symbolic_columns():
    # A^H, which the Lyapunov solve uses for A*, must be the adjoint's matrix
    rng = np.random.default_rng(71)
    for _ in range(5):
        spec = random_spec(rng)
        N = 10
        A = assemble_A(spec, N).entries
        S = A.conj().T
        for q in range(-N, N + 1):
            col = apply_operator(spec, TrigPoly({q: 1.0}))
            col_star = apply_adjoint(spec, TrigPoly({q: 1.0}))
            for p in range(-N, N + 1):
                assert abs(A[p + N, q + N] - col.coeff(p)) < 1e-11
                assert abs(S[p + N, q + N] - col_star.coeff(p)) < 1e-11


def test_constant_coefficients_give_diagonal():
    spec = OperatorSpec(
        a=TrigPoly.constant(5.0), b=TrigPoly.constant(2.0), c=TrigPoly.constant(-3.0)
    )
    A = assemble_A(spec, 6)
    for p in range(-6, 7):
        expected = -float(p) ** 4 + 5.0 * p * p + 2.0j * p + 3.0
        assert abs(A.entries[p + 6, p + 6] - expected) < 1e-12
    off = A.entries - np.diag(np.diag(A.entries))
    assert np.max(np.abs(off)) == 0.0


def test_spectral_matrix_validation():
    with pytest.raises(ValueError):
        SpectralMatrix(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        SpectralMatrix(np.zeros((3, 3)), N=2)
    m = SpectralMatrix(np.eye(5))
    assert m.N == 2


def test_warns_when_truncation_cuts_coefficients():
    spec = OperatorSpec(
        a=TrigPoly.from_nonneg_modes([(5, 1.0)]),
        b=TrigPoly.zero(),
        c=TrigPoly.zero(),
    )
    with pytest.warns(UserWarning):
        assemble_A(spec, 2)


def test_d_weights_values():
    d = d_weights(2)
    expected = np.array([17.0**0.25, 2.0**0.25, 1.0, 2.0**0.25, 17.0**0.25])
    assert np.allclose(d, expected, atol=1e-14)


def test_M_trivial_and_benilov():
    trivial = OperatorSpec(TrigPoly.zero(), TrigPoly.zero(), TrigPoly.constant(1.0))
    assert constant_M(trivial) == 0.0
    # l^1 route: (1 + a2/a3) + (1 + a1 + a2)/a3 + 1 = 2 + (1 + a1 + 2 a2)/a3
    assert abs(constant_M(benilov_coefficients(0.0, 1.0, 0.02)) - 152.0) < 1e-9
    assert abs(constant_M(benilov_coefficients(0.5, 1.0, 0.1)) - 37.0) < 1e-12


def test_M_bounds_multiplier_action():
    # ||(A* + D^4) phi||_{L^2} <= M ||phi||_{H^2} for banded phi
    rng = np.random.default_rng(73)
    for _ in range(50):
        spec = random_spec(rng, max_mode=int(rng.integers(0, 4)))
        M = constant_M(spec)
        N = 16
        B = assemble_A(spec, N).entries.conj().T + np.diag(d_weights(N) ** 4)
        modes = np.arange(-N, N + 1)
        v = np.where(
            np.abs(modes) <= 8,
            rng.standard_normal(2 * N + 1) + 1j * rng.standard_normal(2 * N + 1),
            0.0,
        )
        lhs = math.sqrt(2.0 * math.pi) * float(np.linalg.norm(B @ v))
        rhs = M * math.sqrt(
            2.0 * math.pi * float(np.sum((1.0 + modes.astype(float) ** 4) * np.abs(v) ** 2))
        )
        assert lhs <= rhs * (1.0 + 1e-10)


def test_M_uses_smaller_route():
    # one large isolated coefficient: l^1 beats H^1 and vice versa
    spiky = OperatorSpec(
        a=TrigPoly.zero(),
        b=TrigPoly.zero(),
        c=TrigPoly.from_nonneg_modes([(0, 1.0), (6, 0.5)]),
    )
    c_shift = spiky.c - TrigPoly.constant(1.0)
    l1 = sum(abs(v) for v in c_shift.coeffs.values())
    assert abs(constant_M(spiky) - l1) < 1e-12
    flat = OperatorSpec(
        a=TrigPoly.zero(),
        b=TrigPoly.zero(),
        c=TrigPoly.from_nonneg_modes([(0, 1.0), (1, 0.3)]),
    )
    h1 = leibnitz_constant() * sobolev_norm(flat.c - TrigPoly.constant(1.0), 1)
    assert abs(constant_M(flat) - min(h1, 0.6)) < 1e-12


def test_benilov_coefficient_functions():
    spec = benilov_coefficients(0.3, 1.2, 0.25)
    n = 64
    x = 2.0 * math.pi * np.arange(n) / n
    assert np.allclose(spec.a.sample(n), 1.0 + (1.2 / 0.25) * np.sin(x), atol=1e-12)
    assert np.allclose(
        spec.b.sample(n), (1.0 - 1.5 * np.cos(x)) / 0.25, atol=1e-12
    )
    assert spec.c.coeffs == {}
    for bad in (0.0, -0.1):
        with pytest.raises(ValueError):
            benilov_coefficients(0.0, 1.0, bad)


def test_spec_digest_and_realness():
    s1 = benilov_coefficients(0.0, 1.0, 0.5)
    s2 = benilov_coefficients(0.0, 1.0, 0.5)
    s3 = benilov_coefficients(0.0, 1.0, 0.25)
    assert s1.digest() == s2.digest()
    assert s1.digest() != s3.digest()
    assert len(s1.digest()) == 64
    with pytest.raises(ValueError):
        OperatorSpec(a=TrigPoly({1: 1.0}), b=TrigPoly.zero(), c=TrigPoly.zero())
