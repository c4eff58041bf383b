"""Fourier layer: coefficient containers, products, norms, the multiplier
constant.  Oracles here are grid sampling / quadrature, independent of the
coefficient-space formulas under test."""

import math

import numpy as np
import pytest

from sik import TrigPoly, tp_derivative
from sik.fourier_core import (
    Kernel2D,
    leibnitz_constant,
    sobolev_norm,
    tp_multiply,
)

# frozen: S = 1 + 2 sum_{p=1}^{1e6} (1+p^4)^{-1/2} + 2e-6,  C = sqrt(S/2pi)
FROZEN_SERIES_SUM = 3.6874482619220226
FROZEN_LEIBNITZ = 0.7660780758385584


def random_real_poly(rng, max_mode, scale=1.0):
    entries = [(0, scale * rng.standard_normal())]
    for p in range(1, max_mode + 1):
        entries.append((p, scale * (rng.standard_normal() + 1j * rng.standard_normal())))
    return TrigPoly.from_nonneg_modes(entries)


def test_real_symmetrization_mirrors_conjugates():
    f = TrigPoly({1: 2.0 + 3.0j, -1: 2.0 - 3.0j, 0: 5.0}, real=True)
    assert f.coeff(-1) == f.coeff(1).conjugate()
    assert f.coeff(0) == 5.0
    assert f.max_mode == 1
    g = TrigPoly.from_nonneg_modes([(0, 1.0), (2, 1.0 - 0.5j)])
    assert g.coeff(-2) == 1.0 + 0.5j
    samples = g.sample(32)
    assert samples.dtype == np.float64


def test_real_symmetrization_rejects_inconsistent_input():
    with pytest.raises(ValueError):
        TrigPoly({1: 1.0, -1: 2.0}, real=True)
    with pytest.raises(ValueError):
        TrigPoly.from_nonneg_modes([(0, 1.0j)])
    with pytest.raises(ValueError):
        TrigPoly.from_nonneg_modes([(-1, 1.0)])
    with pytest.raises(ValueError):
        TrigPoly.from_nonneg_modes([(1, 1.0), (1, 2.0)])


def test_algebra_and_zero_dropping():
    f = TrigPoly({0: 1.0, 2: 0.5})
    g = TrigPoly({0: -1.0, 2: 0.25})
    assert (f + g).coeffs == {2: 0.75}
    assert (f - f).coeffs == {}
    assert f.scaled(2.0).coeff(2) == 1.0
    assert TrigPoly.zero().max_mode == 0
    assert TrigPoly.constant(3.0).real


def test_sample_matches_direct_series():
    rng = np.random.default_rng(11)
    f = random_real_poly(rng, 5)
    n = 17
    x = 2.0 * math.pi * np.arange(n) / n
    direct = np.zeros(n, dtype=complex)
    for p, v in f.coeffs.items():
        direct += v * np.exp(1j * p * x)
    assert np.allclose(f.sample(n), direct.real, atol=1e-13)


def test_multiply_matches_grid_products():
    # pointwise product on a grid large enough to resolve all output modes
    rng = np.random.default_rng(101)
    for _ in range(100):
        f = random_real_poly(rng, int(rng.integers(0, 9)))
        g = random_real_poly(rng, int(rng.integers(0, 9)))
        h = tp_multiply(f, g)
        n = 2 * (f.max_mode + g.max_mode) + 3
        assert np.allclose(h.sample(n), f.sample(n) * g.sample(n), atol=1e-12)


def test_multiply_coefficients_match_fft():
    rng = np.random.default_rng(202)
    f = random_real_poly(rng, 6)
    g = random_real_poly(rng, 7)
    h = tp_multiply(f, g)
    n = 64
    spec = np.fft.fft(f.sample(n).astype(complex) * g.sample(n)) / n
    for p in range(-(f.max_mode + g.max_mode), f.max_mode + g.max_mode + 1):
        assert abs(h.coeff(p) - spec[p % n]) < 1e-12


def test_derivative_known_cases():
    # d/dx cos x = -sin x, represented as coefficients
    cosx = TrigPoly({1: 0.5, -1: 0.5}, real=True)
    d = tp_derivative(cosx, 1)
    assert abs(d.coeff(1) - 0.5j) < 1e-15
    assert abs(d.coeff(-1) + 0.5j) < 1e-15
    # fourth derivative of e^{2ix} picks up (2i)^4 = 16
    e2 = TrigPoly({2: 1.0})
    assert tp_derivative(e2, 4).coeff(2) == 16.0
    assert tp_derivative(e2, 0).coeff(2) == 1.0
    # constants die after one derivative
    assert tp_derivative(TrigPoly.constant(4.0), 1).coeffs == {}
    with pytest.raises(ValueError):
        tp_derivative(e2, -1)


def test_sobolev_norm_s0_is_l2_quadrature():
    rng = np.random.default_rng(33)
    for _ in range(20):
        f = random_real_poly(rng, 8)
        n = 512
        vals = f.sample(n)
        l2 = math.sqrt(2.0 * math.pi * np.mean(np.abs(vals) ** 2))
        assert abs(sobolev_norm(f, 0) - l2) < 1e-10 * max(1.0, l2)


def test_sobolev_norm_s2_is_quadrature_of_f_and_f4():
    # weight (1+p^4) <-> integral of |f|^2 + |f''|^2
    rng = np.random.default_rng(34)
    f = random_real_poly(rng, 6)
    n = 512
    f2 = tp_derivative(f, 2)
    quad = math.sqrt(
        2.0 * math.pi * (np.mean(np.abs(f.sample(n)) ** 2) + np.mean(np.abs(f2.sample(n)) ** 2))
    )
    assert abs(sobolev_norm(f, 2) - quad) < 1e-10 * quad


def test_sobolev_norm_plain_sum():
    f = TrigPoly({0: 2.0, 3: 1.0, -3: 1.0})
    expected = math.sqrt(2.0 * math.pi * (4.0 + 2.0 * math.sqrt(1.0 + 81.0)))
    assert abs(sobolev_norm(f, 1) - expected) < 1e-13


def test_kernel2d_indexing_and_norm():
    N = 3
    coeffs = np.zeros((2 * N + 1, 2 * N + 1), dtype=complex)
    coeffs[N + 1, N - 2] = 2.0 + 1.0j  # Fhat(1, -2)
    coeffs[N, N] = -1.0
    F = Kernel2D(coeffs)
    assert F.N == N
    assert F.coeff(1, -2) == 2.0 + 1.0j
    assert F.coeff(0, 0) == -1.0
    with pytest.raises(ValueError):
        Kernel2D(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        Kernel2D(np.zeros((3, 5)))


def test_leibnitz_constant_frozen_value():
    C = leibnitz_constant()
    assert abs(C - FROZEN_LEIBNITZ) < 1e-15
    # recompute the series sum independently
    p = np.arange(1, 1_000_001, dtype=float)
    S = 1.0 + 2.0 * float(np.sum((1.0 + p**4) ** -0.5)) + 2.0e-6
    assert abs(S - FROZEN_SERIES_SUM) < 1e-12
    assert abs(C - math.sqrt(S / (2.0 * math.pi))) < 1e-15


def test_sup_norm_bound_is_rigorous():
    # ||a||_inf <= sum |ahat| <= C ||a||_{H^1} by Cauchy-Schwarz against
    # the series the constant is built from
    C = leibnitz_constant()
    rng = np.random.default_rng(55)
    for _ in range(100):
        a = random_real_poly(rng, int(rng.integers(0, 13)))
        h1 = sobolev_norm(a, 1)
        if h1 == 0.0:
            continue
        sup = float(np.max(np.abs(a.sample(4096))))
        l1 = sum(abs(v) for v in a.coeffs.values())
        assert sup <= l1 + 1e-12
        assert l1 <= C * h1 * (1.0 + 1e-12)


def test_product_norm_inequality():
    C = leibnitz_constant()
    rng = np.random.default_rng(56)
    for _ in range(100):
        f = random_real_poly(rng, int(rng.integers(0, 9)))
        g = random_real_poly(rng, int(rng.integers(0, 9)))
        nf, ng = sobolev_norm(f, 1), sobolev_norm(g, 1)
        if nf == 0.0 or ng == 0.0:
            continue
        assert sobolev_norm(tp_multiply(f, g), 0) <= C * nf * ng * (1.0 + 1e-12)
    # two-cluster pairs (low modes times a packet near p0) stress the bound
    w = lambda p: math.sqrt(1.0 + float(p) ** 4)
    for p0 in (10, 40, 160):
        f = TrigPoly({q: 1.0 / w(q) for q in range(-8, 9)})
        g = TrigPoly({p0 + r: 1.0 / w(r) for r in range(-8, 9)})
        lhs = sobolev_norm(tp_multiply(f, g), 1)
        assert lhs <= C * sobolev_norm(f, 1) * sobolev_norm(g, 1)
