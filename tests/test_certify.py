"""Tests for the certification driver.

Covers the certified fixed-point loop, the structural axis reduction,
failure statuses, the JSON certificate shape, and the independent
cross-validation report.
"""

import ast
import dataclasses
import importlib
import math
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph

import sik
import sik.certify
import sik.cli
from sik import (
    CertifyOptions,
    OperatorSpec,
    TrigPoly,
    assemble_A,
    benilov_coefficients,
    certified_index,
    cross_validate,
    dispersion_index,
    tp_derivative,
)
from sik.certify import _next_order, _solve_truncation, _split, exact_axis_split
from sik.errors import NearSingularPencil
from sik.index import _ldl_n_plus
from sik.lyapunov import _matrix_scale, _parts_scale, _sign_band, solve_lyapunov_core
from sik.operator_assembly import d_weights


def constant_spec(a0, b0, c0):
    return OperatorSpec(
        a=TrigPoly.constant(a0),
        b=TrigPoly.constant(b0),
        c=TrigPoly.constant(c0),
    )


def selfadjoint_spec(rng, max_mode=2):
    # b = a' makes the operator formally self-adjoint, so the assembled
    # matrix is Hermitian at every truncation and kappa equals the count
    # of positive eigenvalues
    items = [(0, float(rng.normal(scale=0.6)))]
    for m in range(1, max_mode + 1):
        items.append((m, complex(rng.normal(scale=0.3), rng.normal(scale=0.3))))
    a = TrigPoly.from_nonneg_modes(items)
    b = tp_derivative(a, 1)
    c = TrigPoly.from_nonneg_modes(
        [
            (0, float(rng.normal(scale=2.0))),
            (1, complex(rng.normal(scale=0.5), rng.normal(scale=0.5))),
        ]
    )
    return OperatorSpec(a=a, b=b, c=c)


def test_trivial_spec_certifies_zero():
    spec = OperatorSpec(a=TrigPoly.zero(), b=TrigPoly.zero(), c=TrigPoly.zero())
    cert = certified_index(spec)
    assert cert.status == "Certified"
    assert cert.kappa == 0
    assert cert.kappa_schur == 0
    assert cert.kappa_lyapunov == 0
    assert cert.N_final == 8
    # the multiplier constant measures distance of c from 1, so c = 0
    # contributes exactly 1 through the l1 route
    assert cert.M == 1.0
    assert cert.delta_N == pytest.approx(1.0 / 64.0)
    assert cert.c_N == pytest.approx(1.0 - cert.tripleU_upper / 8.0 ** 4)
    assert cert.c_N > 0.999
    assert cert.cond1_ok and cert.cond2_ok
    assert cert.residual < 1e-12
    # A = diag(-p^4), so mode 0 sits exactly on the axis and is peeled
    # off structurally; the surviving gap is |Re| at p = +-1
    assert cert.n_axis == 1
    assert cert.axis_gap == pytest.approx(1.0)


def test_constant_specs_match_dispersion():
    rng = np.random.default_rng(2024)
    opts = CertifyOptions(max_N=48, max_iterations=4)
    done = 0
    while done < 8:
        a0 = float(rng.uniform(-4.0, 4.0))
        b0 = float(rng.uniform(-4.0, 4.0))
        c0 = float(rng.uniform(-4.0, 4.0))
        # require a real-part margin at every mode so neither route has
        # to adjudicate an eigenvalue that truly sits on the axis
        p = np.arange(-12, 13)
        re = -(p ** 4.0) + a0 * p ** 2.0 - c0
        if np.min(np.abs(re)) < 1e-2:
            continue
        cert = certified_index(constant_spec(a0, b0, c0), opts)
        assert cert.status == "Certified"
        assert cert.kappa == dispersion_index(a0, b0, c0, 30)
        done += 1


def test_selfadjoint_counts_match_hermitian_eigenvalues():
    rng = np.random.default_rng(420)
    for _ in range(4):
        spec = selfadjoint_spec(rng)
        A = assemble_A(spec, 10).entries
        assert np.linalg.norm(A - A.conj().T) < 1e-12
        cert = certified_index(spec, CertifyOptions(max_N=64))
        assert cert.status == "Certified"
        evs = np.linalg.eigvalsh(assemble_A(spec, cert.N_final).entries)
        assert np.min(np.abs(evs)) > 1e-3
        assert cert.kappa == int(np.sum(evs > 0))


def test_condition_not_met_when_cap_too_small():
    spec = benilov_coefficients(0.0, 1.0, 0.02)
    cert = certified_index(spec, CertifyOptions(max_N=64, max_iterations=2))
    assert cert.status == "ConditionNotMet"
    assert not cert.cond2_ok
    assert cert.N_final == 64
    # counts are still reported as a best effort
    assert cert.kappa_schur == 4
    assert cert.kappa_lyapunov == 4


def test_condition_not_met_when_delta_too_large():
    # M = 9 and N capped at 2 gives delta = 9/4 >= 1, so the tail
    # machinery cannot even produce an upper bound
    spec = constant_spec(9.0, 0.0, 1.0)
    cert = certified_index(spec, CertifyOptions(max_N=2, max_iterations=3))
    assert cert.status == "ConditionNotMet"
    assert cert.tripleU_upper is None
    assert cert.delta_N == pytest.approx(2.25)
    assert not cert.cond1_ok and not cert.cond2_ok
    # at N = 1 all three modes of this Benilov spec sit exactly on the axis
    # (p = 0 vanishes, p = +-1 is +-i/alpha3), so the kept block is empty
    cert = certified_index(benilov_coefficients(0.0, 1.0, 0.5), CertifyOptions(max_N=1))
    assert cert.status == "ConditionNotMet"
    assert (cert.N_final, cert.n_axis, cert.delta_N) == (1, 3, 8.0)
    assert (cert.kappa_schur, cert.kappa_lyapunov, cert.residual) == (0, 0, 0.0)
    assert cert.tripleU_upper is None and cert.axis_gap is None
    # below 1 there is no truncation to certify: rejected, naming the field
    for field, value in (("max_N", 0), ("max_N", -3), ("max_iterations", 0)):
        with pytest.raises(ValueError, match=field):
            CertifyOptions(**{field: value})
    # nor does a bool or a non-integer: max_N=True once certified with
    # "N_final": true, and the others raised TypeError deep in the loop
    for field, value in (("max_N", True), ("max_iterations", 2.5), ("max_N", 40.5)):
        with pytest.raises(ValueError, match=field):
            CertifyOptions(**{field: value})
    with pytest.raises(dataclasses.FrozenInstanceError):
        CertifyOptions().max_iterations = 0


def test_axis_touch_reported_not_certified():
    # constant c = 1e-12 puts the mode-0 eigenvalue a hair off zero:
    # the Lyapunov pencil is numerically singular and the driver must
    # hand back the Schur count without a certificate
    spec = OperatorSpec(a=TrigPoly.zero(), b=TrigPoly.zero(), c=TrigPoly.constant(1e-12))
    cert = certified_index(spec)
    assert cert.status == "SpectraTouchAxis"
    assert cert.kappa_schur == 0
    assert cert.kappa_lyapunov is None


def test_axis_split_extracts_exact_imaginary_modes():
    # with alpha1 = 0 the rows p = -1, 0, 1 decouple into singletons
    # whose diagonal has exactly zero real part
    A = assemble_A(benilov_coefficients(0.0, 1.0, 0.5), 8).entries
    keep, axis = exact_axis_split(A)
    assert sorted((axis - 8).tolist()) == [-1, 0, 1]
    assert keep.size == A.shape[0] - 3
    for j in axis:
        assert A[j, j].real == 0.0

    # alpha1 != 0 couples modes +-1 back into the bulk, only p = 0 stays
    A2 = assemble_A(benilov_coefficients(0.3, 1.0, 0.5), 8).entries
    _, axis2 = exact_axis_split(A2)
    assert (axis2 - 8).tolist() == [0]

    # a strictly positive c leaves no structural axis at all
    A3 = assemble_A(constant_spec(0.0, 0.0, 1.0), 8).entries
    keep3, axis3 = exact_axis_split(A3)
    assert axis3.size == 0
    assert keep3.size == A3.shape[0]


def test_benilov_stable_windows_certify():
    cert = certified_index(benilov_coefficients(0.0, 1.0, 0.5))
    assert cert.status == "Certified"
    assert cert.kappa == 0
    assert cert.n_axis == 3

    cert2 = certified_index(benilov_coefficients(0.3, 1.0, 0.5))
    assert cert2.status == "Certified"
    assert cert2.kappa == 0
    assert cert2.n_axis == 1


def test_benilov_certificate_frozen():
    # alpha = (0, 1, 0.05) certifies at N=136 (iterations N=12, 136) and
    # solves a mirror pair of 135 kept modes each, so the blocked triangular
    # solve decides this certificate; axis_gap from the half block p <= -2
    cert = certified_index(benilov_coefficients(0.0, 1.0, 0.05))
    assert cert.spec_digest == (
        "e6a4ef22dae9ddfa72f2a759ac4cf06406e3fde299397fe44cd9b0da8dc2d02a"
    )
    assert cert.status == "Certified"
    assert (cert.kappa_schur, cert.kappa_lyapunov) == (2, 2)
    assert (cert.N_final, cert.n_axis) == (136, 3)
    assert (cert.cond1_ok, cert.cond2_ok) == (True, True)
    assert cert.M == 62.0
    assert cert.delta_N == 0.0033520761245674742
    assert cert.axis_gap == 32.88920275816025
    assert cert.tripleU_upper == pytest.approx(29.148826876056955, rel=1e-12)
    assert cert.residual <= 1e-13


def test_certificate_json_shape():
    spec = constant_spec(0.0, 0.0, -3.0)
    cert = certified_index(spec, CertifyOptions(max_N=48))
    d = cert.to_json_dict()
    expected = {
        "spec_digest",
        "M",
        "N_final",
        "delta_N",
        "c_N",
        "tripleU_upper",
        "cond1_ok",
        "cond2_ok",
        "kappa_schur",
        "kappa_lyapunov",
        "residual",
        "axis_gap",
        "status",
        "n_axis",
        "timestamp",
    }
    assert set(d.keys()) == expected
    assert d["spec_digest"] == spec.digest()
    assert isinstance(d["timestamp"], str) and d["timestamp"]
    assert cert.kappa == d["kappa_schur"]


def test_certificates_deterministic_up_to_timestamp():
    spec = benilov_coefficients(0.0, 1.0, 0.5)
    d1 = certified_index(spec).to_json_dict()
    d2 = certified_index(spec).to_json_dict()
    d1.pop("timestamp")
    d2.pop("timestamp")
    assert d1 == d2


def test_cross_validation_report():
    spec = benilov_coefficients(0.0, 1.0, 0.5)
    cert = certified_index(spec)
    report = cross_validate(cert, spec)
    assert report["kappa_cert"] == report["kappa_N"] == report["kappa_2N"] == 0
    assert report["kappa_stable"] is True
    assert report["projection_available"] is True
    # solved Lyapunov identity floor: smallest eigenvalue of
    # A_N^H U + U A_N stays above c_N up to roundoff
    assert report["lyap_min"] >= report["c_N"] - 1e-6
    assert report["lyap_ok"] is True
    assert report["inverse_norm"] <= report["inverse_bound"]
    assert report["inverse_ok"] is True


def test_cross_validation_report_frozen():
    # alpha=(0,1,0.05) certifies kappa=2 at N=136; the recount reads the
    # Schur diagonals of the 2N solve and of A_N
    spec = benilov_coefficients(0.0, 1.0, 0.05)
    report = cross_validate(certified_index(spec), spec)
    frozen = {
        "lyap_min": 0.9999999999999779,
        "c_N": 0.999672471703553,
        "inverse_norm": 3.259356340181862,
        "inverse_bound": 126.04128208640375,
    }
    for key, value in frozen.items():
        assert report.pop(key) == pytest.approx(value, rel=1e-12), key
    assert report == {
        "kappa_cert": 2,
        "kappa_N": 2,
        "n_zero_N": 0,
        "kappa_2N": 2,
        "n_zero_2N": 0,
        "kappa_stable": True,
        "projection_available": True,
        "lyap_ok": True,
        "inverse_ok": True,
    }


@pytest.mark.filterwarnings("ignore:Lyapunov residual")
def test_cross_validation_touch_axis_counts():
    # the 2N solve meets a singular pencil, so kappa_2N comes from the
    # eigenvalues the exception carries; both recounts use the floor
    # n eps ||A|| (1.2e-4 at N), which keeps the Schur eigenvalues of A_N
    # within 1e-8 of the axis inside the band: their signs are undecided,
    # so the counts are not stable although they agree
    spec = benilov_coefficients(1e-8, 1.0, 0.02)
    cert = certified_index(spec, CertifyOptions(max_N=192))
    assert cert.status == "SpectraTouchAxis"
    assert cross_validate(cert, spec) == {
        "kappa_cert": 4,
        "kappa_N": 4,
        "n_zero_N": 2,
        "kappa_2N": 4,
        "n_zero_2N": 2,
        "kappa_stable": False,
        "projection_available": False,
    }


def run_one_blas_thread(code):
    """JSON printed by code, run in a fresh interpreter with one OpenBLAS thread."""
    src = os.path.dirname(os.path.dirname(sik.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(run.stdout)


def test_cross_validation_touch_axis_counts_one_blas_thread():
    # the same report with one OpenBLAS thread: a band as narrow as the
    # eigenvalue 5e-9 from the axis (2.6e-9, say) lets the BLAS thread
    # count decide its sign, and one thread then reads kappa_N = 5
    code = (
        "import json, warnings\n"
        "from sik import CertifyOptions, benilov_coefficients, certified_index, cross_validate\n"
        "warnings.simplefilter('ignore')\n"
        "spec = benilov_coefficients(1e-8, 1.0, 0.02)\n"
        "cert = certified_index(spec, CertifyOptions(max_N=192))\n"
        "print(json.dumps([cert.status, cross_validate(cert, spec)]))\n"
    )
    status, report = run_one_blas_thread(code)
    assert status == "SpectraTouchAxis"
    assert report == {
        "kappa_cert": 4,
        "kappa_N": 4,
        "n_zero_N": 2,
        "kappa_2N": 4,
        "n_zero_2N": 2,
        "kappa_stable": False,
        "projection_available": False,
    }


@pytest.mark.filterwarnings("ignore:Lyapunov residual")
def test_touch_axis_count_at_default_cap():
    # at N=512 the pencil is singular (an eigenvalue 5e-9 from the axis);
    # a 1e-8 * ||A_N|| band (about 690) would hide the eigenvalues 366 and
    # 71, the backward-error band n eps ||A_N|| keeps them
    cert = certified_index(benilov_coefficients(1e-8, 1.0, 0.02))
    assert cert.status == "SpectraTouchAxis"
    assert cert.N_final == 512
    assert cert.kappa_schur == 4
    assert cert.kappa_lyapunov is None


@pytest.mark.slow
def test_film_certificate_frozen():
    # the headline workload, alpha = (0, 1, 0.02), certifies at N=351
    cert = certified_index(benilov_coefficients(0.0, 1.0, 0.02))
    assert cert.status == "Certified"
    assert cert.N_final == 351
    assert cert.kappa_schur == cert.kappa_lyapunov == 4
    assert cert.n_axis == 3
    assert cert.tripleU_upper == pytest.approx(57.58272562015733, rel=1e-12)
    assert cert.c_N == pytest.approx(0.9999123502003046, rel=1e-12)


@pytest.mark.parametrize(
    "alpha3, max_N, kappa, N_final",
    [
        (0.01, 1024, 6, 768),
        pytest.param(0.005, 1024, 10, 956, marks=pytest.mark.slow),
        # about 7 s and 0.9 GB peak RSS on a 2-core x86-64 box
        pytest.param(0.002, 4096, 16, 2246, marks=pytest.mark.slow),
    ],
)
def test_alpha3_ladder_certifies(alpha3, max_N, kappa, N_final):
    # thinner films need truncations above the default max_N = 512
    cert = certified_index(benilov_coefficients(0.0, 1.0, alpha3), CertifyOptions(max_N=max_N))
    assert cert.status == "Certified"
    assert cert.kappa_schur == cert.kappa_lyapunov == kappa
    assert (cert.N_final, cert.n_axis) == (N_final, 3)


def _periodic_stencil(n, taps, scale):
    # row j holds taps[k] at column j + k (mod n)
    D = np.zeros((n, n))
    for k, w in taps.items():
        D += w * np.roll(np.eye(n), k, axis=1)
    return D * scale


def test_film_kappa_from_finite_differences():
    # an independent discretisation of A[h] = -h'''' - (a h)'' + (b h)' - c h:
    # point values on a periodic grid and fourth-order central stencils,
    # no Fourier modes and nothing of assemble_A
    spec = benilov_coefficients(0.0, 1.0, 0.02)
    galerkin = np.sort(_solve_truncation(spec, 478).eigenvalues.real)[::-1][:4]
    for n in (512, 256):
        h = 2.0 * np.pi / n
        D1 = _periodic_stencil(n, {-2: 1, -1: -8, 1: 8, 2: -1}, 1.0 / (12.0 * h))
        D2 = _periodic_stencil(n, {-2: -1, -1: 16, 0: -30, 1: 16, 2: -1}, 1.0 / (12.0 * h**2))
        D4 = _periodic_stencil(
            n, {-3: -1, -2: 12, -1: -39, 0: 56, 1: -39, 2: 12, 3: -1}, 1.0 / (6.0 * h**4)
        )
        a, b, c = (poly.sample(n) for poly in (spec.a, spec.b, spec.c))
        A_fd = -D4 - D2 * a[None, :] + D1 * b[None, :] - np.diag(c)
        re = np.sort(np.linalg.eigvals(A_fd).real)[::-1]
        band = _sign_band(A_fd)
        np.testing.assert_allclose(re[:4], galerkin, rtol=1e-4)
        assert abs(re[4]) <= band
        assert int(np.sum(re > band)) == 4


@pytest.mark.parametrize(
    "alpha, N", [((0.0, 1.0, 0.05), 60), ((0.0, 1.0, 0.05), 177), ((0.0, 1.0, 0.02), 40)]
)
def test_centre_block_of_2N_truncation_is_A_N(alpha, N):
    # cross_validate takes A_N from the 2N record instead of assembling it;
    # alpha1 = 0 puts three exact axis modes into each of these truncations
    spec = benilov_coefficients(*alpha)
    A2 = assemble_A(spec, 2 * N).entries
    assert np.array_equal(A2[N : 3 * N + 1, N : 3 * N + 1], assemble_A(spec, N).entries)
    assert exact_axis_split(A2)[1].size == 3


@pytest.mark.parametrize(
    "M, lambda_max",
    [(1.0, 0.0), (1.0, 3.5), (62.0, 28.1), (172.0, 56.5), (2.0, 1e3), (9.0, 0.25), (500.0, 7.0)],
)
def test_next_order_is_least_N_meeting_condition_2(M, lambda_max):
    # N^2 - M >= M (1 + sqrt(1 + M)) (1 + lambda_max) is condition 2 for the
    # bracket (1 + lambda_max)/(1 - M/N^2) with delta taken at N itself
    def meets(N):
        return N * N - M >= M * (1.0 + math.sqrt(1.0 + M)) * (1.0 + lambda_max)

    N = _next_order(M, lambda_max)
    assert meets(N) and not meets(N - 1)


def iterations(monkeypatch, spec):
    """certified_index(spec) and the N of every truncation it solved."""
    seen = []

    def solve(spec, N):
        seen.append(N)
        return _solve_truncation(spec, N)

    monkeypatch.setattr(sik.certify, "_solve_truncation", solve)
    return certified_index(spec), seen


@pytest.mark.parametrize(
    "alpha, sequence", [((0.0, 1.0, 0.02), [18, 351]), ((0.0, 1.0, 0.05), [12, 136])]
)
def test_next_N_from_lambda_max(monkeypatch, alpha, sequence):
    # the first truncation's lambda_max already predicts one that certifies;
    # the bracket there (delta = 0.47 for film) would overshoot to 478 and 177
    cert, seen = iterations(monkeypatch, benilov_coefficients(*alpha))
    assert seen == sequence
    assert cert.status == "Certified" and cert.N_final == sequence[-1]


def test_failed_prediction_iterates_again(monkeypatch):
    # a bracket twice as wide at the predicted N = 136 fails condition 2
    # there: the loop must solve a larger N, never certify on the prediction
    bracket = sik.certify._bracket

    def wider_at_136(t, M):
        tail = bracket(t, M)
        if t.N != 136:
            return tail
        return dataclasses.replace(
            tail, lambda_max=2.0 * tail.lambda_max, tripleU_upper=2.0 * tail.tripleU_upper
        )

    monkeypatch.setattr(sik.certify, "_bracket", wider_at_136)
    spec = benilov_coefficients(0.0, 1.0, 0.05)
    cert, seen = iterations(monkeypatch, spec)
    assert seen[:2] == [12, 136] and len(seen) == 3 and seen[2] > 136
    assert (cert.status, cert.N_final, cert.kappa_schur) == ("Certified", seen[2], 2)
    cert = certified_index(spec, CertifyOptions(max_iterations=2))
    assert (cert.status, cert.N_final, cert.cond2_ok) == ("ConditionNotMet", 136, False)


def test_residual_tol_blocks_certified(monkeypatch):
    # every other condition holds here (residual ~1e-15), so only the
    # residual gate can refuse the certificate
    spec = benilov_coefficients(0.5, 1.0, 0.5)
    assert certified_index(spec).status == "Certified"
    monkeypatch.setattr(sik.certify, "_RESIDUAL_TOL", 1e-30)
    cert = certified_index(spec)
    assert cert.status != "Certified"
    assert cert.cond2_ok
    assert cert.kappa_schur == cert.kappa_lyapunov == 0


def test_one_truncated_solve_pipeline():
    # the certify path and the CLI solve each truncation through one
    # function, stay off the Kernel2D reference types and off the eig/inv
    # route; the only Schur outside the solve is cross_validate's recount at
    # N, and the only eigvalsh its Lyapunov floor: certified_index reads the
    # inertia from the LDL^H count, and sik spectrum writes the record's own
    # eigenvalues.  Every sign band on the path is a _sign_band(...) call,
    # and _sign_band is defined once.  A singular pencil is caught once, in
    # _solve_truncation, which returns the unsolved record
    sites = {
        "solve_lyapunov_core": [],
        "exact_axis_split": [],
        "_split": [],
        "_schur": [],
        "eigvalsh": [],
        "eigvals": [],
        "_ldl_n_plus": [],
    }
    for module in (sik.certify, sik.cli):
        source = inspect.getsource(module)
        for name in (
            "Kernel2D",
            "LyapunovSolution",
            "as_kernel2d",
            "kernel_operator_convert",
            "instability_index_general",
            "inertia_hermitian",
        ):
            assert name not in source, f"{module.__name__} names {name}"
        for fn in ast.walk(ast.parse(source)):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                if name in sites:
                    sites[name].append(fn.name)
    assert sites == {
        "solve_lyapunov_core": ["_solve_truncation"],
        "exact_axis_split": [],
        "_split": ["exact_axis_split", "_solve_truncation"],
        "_schur": ["cross_validate"],
        "eigvalsh": ["cross_validate"],
        "eigvals": [],
        "_ldl_n_plus": ["_certify"],
    }
    for module in (sik.certify, sik.cli):
        tree = ast.parse(inspect.getsource(module))
        used = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)}
        assert "eigvals" not in used, f"{module.__name__} names eigvals"
    assert "NearSingularPencil" not in inspect.getsource(sik.cli)
    # zhetrf is bound once, in sik.lyapunov beside zhseqr and ztrsyl, and
    # called from sik.index; no module looks LAPACK up through
    # get_lapack_funcs, so none of it lands on that lookup's timing span
    names = [m.name for m in pkgutil.iter_modules(sik.__path__)]
    sources = {name: inspect.getsource(importlib.import_module("sik." + name)) for name in names}
    assert [name for name, source in sources.items() if "hetrf" in source] == ["index", "lyapunov"]
    assert sources["lyapunov"].count('_lapack("zhetrf"') == 1
    assert not any("get_lapack_funcs" in source for source in sources.values())
    catching = [
        fn.name
        for name in names
        for fn in ast.walk(ast.parse(inspect.getsource(importlib.import_module("sik." + name))))
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(h, ast.ExceptHandler) and h.type
                and "NearSingularPencil" in ast.unparse(h.type) for h in ast.walk(fn))
    ]
    assert catching == ["_solve_truncation"]

    def is_sign_band(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_sign_band"

    certify_source = inspect.getsource(sik.certify)
    for name in ("_AXIS_REL_TOL", "_matrix_scale", "finfo", "1e-8"):
        assert name not in certify_source, f"sik.certify names {name}"
    bands = [
        node.args[1]
        for node in ast.walk(ast.parse(certify_source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "count_half_plane"
    ]
    assert len(bands) == 3 and all(map(is_sign_band, bands))
    ldl = next(
        node
        for node in ast.walk(ast.parse(inspect.getsource(sik.index)))
        if isinstance(node, ast.FunctionDef) and node.name == "_ldl_n_plus"
    )
    ldl_bands = [
        node.value
        for node in ast.walk(ldl)
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["band"]
    ]
    assert len(ldl_bands) == 1 and is_sign_band(ldl_bands[0])
    defined = [
        name
        for name in names
        if "def _sign_band(" in inspect.getsource(importlib.import_module("sik." + name))
    ]
    assert defined == ["lyapunov"]


# the Benilov kept blocks checked for their mirror pair: film at N=478 and
# alpha = (0, 1, 0.05) at N=177 and 2N, their final N under the earlier
# next-N rule, and two alpha1 != 0 specs
MIRROR_SPECS = [
    ((0.0, 1.0, 0.02), 478),
    ((0.0, 1.0, 0.05), 177),
    ((0.0, 1.0, 0.05), 354),
    ((0.01, 1.0, 0.1), 192),
    ((0.5, 1.0, 0.07), 192),
]


@pytest.mark.parametrize(
    "alpha, N", MIRROR_SPECS + [((0.0, 1.0, 0.02), 351), ((0.0, 1.0, 0.05), 136)]
)
def test_mirror_split_pairs_benilov_kept_block(alpha, N):
    # real coefficients give A[-p,-q] = conj(A[p,q]); once the axis modes
    # are peeled, nothing joins p <= -k to p >= k (k = 2 for alpha1 = 0,
    # else 1), so the kept block is those two halves, exact mirror images
    A = assemble_A(benilov_coefficients(*alpha), N).entries
    keep, _, P, S = _split(A)
    k = 2 if alpha[0] == 0.0 else 1
    assert (P - N).tolist() == list(range(-N, 1 - k)) and S.size == 0
    Q = 2 * N - P
    assert np.array_equal(np.sort(np.concatenate([P, Q])), keep)
    assert np.array_equal(A[np.ix_(P, P)].conj(), A[np.ix_(Q, Q)])
    assert not A[np.ix_(P, Q)].any() and not A[np.ix_(Q, P)].any()


def test_mirror_split_keeps_components_whole():
    # a conjugate-symmetric diagonal and one coupling of p = -N to p = 0
    # alone: conj(A[P, P]) == A[P', P'] holds for P = {p < 0}, but that P
    # would cut the component {-N, 0}, so the kept block stays whole
    N = 30
    p = np.arange(-N, N + 1)
    A = np.diag(-(1.0 + p**2) + 1j * p)
    A[0, N] = A[N, 0] = 1.0
    keep = np.arange(2 * N + 1)
    kept, _, P, S = _split(A)
    assert np.array_equal(kept, keep)
    assert P.size == 0 and np.array_equal(S, keep)
    # the mirror coupling of p = N to p = 0 makes {-N, 0, N} self-mirror
    A[2 * N, N] = A[N, 2 * N] = 1.0
    kept, _, P, S = _split(A)
    assert np.array_equal(kept, keep)
    assert (P - N).tolist() == list(range(1 - N, 0)) and (S - N).tolist() == [-N, 0, N]


def reference_splits(A):
    """keep, axis, P, S and both label arrays from a dense boolean pattern
    turned into scipy.sparse, with the kept block's pattern cut by fancy
    indexing: the construction that the shared _graph replaced.  The split
    keeps the three conditions that the one mirror identity replaced."""
    n = A.shape[0]
    strong = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix((A != 0.0).astype(np.int8)), connection="strong"
    )[1]
    on_axis = (np.bincount(strong)[strong] == 1) & (np.diagonal(A).real == 0.0)
    keep, axis = np.flatnonzero(~on_axis), np.flatnonzero(on_axis)
    ncomp, weak = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix((A != 0.0)[np.ix_(keep, keep)]), connection="weak"
    )
    mlab = weak[::-1]
    P = keep[mlab > weak]
    if (
        keep.size > sik.certify._SPLIT_MIN
        and np.array_equal(keep, n - 1 - keep[::-1])
        and np.unique(weak * ncomp + mlab).size == ncomp
        and np.array_equal(A[np.ix_(P, P)].conj(), A[np.ix_(n - 1 - P, n - 1 - P)])
    ):
        return keep, axis, P, keep[mlab == weak], strong, weak
    return keep, axis, P[:0], keep, strong, weak


def random_patterns(rng):
    # sparse complex matrices: plain ones, and mirror-symmetric ones
    # (A[-p,-q] = conj(A[p,q])); each also with zero rows whose diagonal is
    # imaginary, which the axis split peels, in mirror pairs for the latter
    for n in (1, 5, 17, 49, 61, 101, 121):
        for density in (0.0, 0.005, 0.02, 0.08):
            B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            B *= rng.random((n, n)) < density
            B[np.diag_indices(n)] -= 1.0 + rng.random(n)
            for mirror, A in ((False, B), (True, B + B[::-1, ::-1].conj())):
                yield A
                A = A.copy()
                rows = rng.choice(n, size=n // 7, replace=False)
                A[rows] = 0.0
                A[rows, rows] = 1j * rng.standard_normal(rows.size)
                if mirror:
                    A[n - 1 - rows] = 0.0
                    A[n - 1 - rows, n - 1 - rows] = A[rows, rows].conj()
                yield A


def benchmark_truncations():
    # the film and certify_validate iterations, the sweep grid's Benilov
    # rows, and constant-coefficient specs of the batch's range
    for alpha, N in [((0.0, 1.0, 0.02), 18), ((0.0, 1.0, 0.02), 351), ((0.0, 1.0, 0.05), 12),
                     ((0.0, 1.0, 0.05), 136), ((0.0, 1.0, 0.05), 272)]:
        yield assemble_A(benilov_coefficients(*alpha), N).entries
    for a1 in (0.0, 0.01, 0.5):
        for a3 in (0.5, 0.2, 0.1, 0.07):
            yield assemble_A(benilov_coefficients(a1, 1.0, a3), 40).entries
    for coeffs in [(3.0, 1.0, 2.0), (-7.5, 4.0, 0.0), (9.0, -2.0, -6.0)]:
        yield assemble_A(constant_spec(*coeffs), 30).entries


def test_shared_graph_splits_equal_dense_pattern_splits():
    # the one-pass split against the dense pattern's, array for array
    rng = np.random.default_rng(5)
    for A in [*benchmark_truncations(), *random_patterns(rng)]:
        keep, axis, P, S = reference_splits(A)[:4]
        assert all(map(np.array_equal, _split(A), (keep, axis, P, S)))
        assert all(map(np.array_equal, exact_axis_split(A), (keep, axis)))


def test_diagonal_splits_build_no_components(monkeypatch):
    # a diagonal A (constant coefficients; and with imaginary rows the axis
    # split peels) labels each mode by its index, as csgraph does for a
    # graph of self-loops, without calling it
    cases = [assemble_A(constant_spec(*c), 30).entries
             for c in [(3.0, 1.0, 2.0), (-7.5, 4.0, 0.0), (0.0, 0.0, 1e-12)]]
    cases += [A for A in random_patterns(np.random.default_rng(6))
              if not np.count_nonzero(A - np.diag(np.diagonal(A)))]
    expected = [reference_splits(A)[:4] for A in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("connected_components on a diagonal A")

    monkeypatch.setattr(scipy.sparse.csgraph, "connected_components", refuse)
    assert len(cases) > 10
    for A, (keep, axis, P, S) in zip(cases, expected):
        assert all(map(np.array_equal, _split(A), (keep, axis, P, S)))
        assert all(map(np.array_equal, exact_axis_split(A), (keep, axis)))


def test_split_labels_once_per_connection(monkeypatch):
    # one truncation runs at most one strong and one weak labelling: film
    # at N=60 both, at N=20 (38 kept modes <= _SPLIT_MIN) the strong alone
    calls = []
    components = scipy.sparse.csgraph.connected_components

    def spy(graph, connection):
        calls.append(connection)
        return components(graph, connection=connection)

    monkeypatch.setattr(scipy.sparse.csgraph, "connected_components", spy)
    film = benilov_coefficients(0.0, 1.0, 0.02)
    for N, expected in ((60, ["strong", "weak"]), (20, ["strong"])):
        calls.clear()
        _solve_truncation(film, N)
        assert calls == expected


@pytest.mark.parametrize("spec, N, touch", [
    (benilov_coefficients(0.0, 1.0, 0.02), 351, False),
    (benilov_coefficients(0.0, 1.0, 0.05), 136, False),
    (benilov_coefficients(0.5, 1.0, 0.07), 192, False),
    (constant_spec(10.0, 0.0, 1e-12), 24, True),
])
def test_pencil_scale_from_parts_equals_whole_block(spec, N, touch):
    # the kept block is block diagonal over P, its mirror and S: its
    # _matrix_scale follows from the parts' blocks alone
    t = _solve_truncation(spec, N)
    keep, _, P, S = _split(t.A)
    assert np.array_equal(t.keep, keep)
    parts = [(m.tolist(), w) for m, w in ((P, 2), (S, 1)) if m.size]
    assert [(m.tolist(), w) for m, w in t.parts] == parts
    blocks = [t.A[np.ix_(m, m)] for m, _ in t.parts]
    whole = _matrix_scale(t.A[np.ix_(t.keep, t.keep)])
    assert _parts_scale(blocks, [w for _, w in t.parts]) == pytest.approx(whole, rel=1e-14)
    if touch:
        # S = {0} alone passes the pencil test at its own scale; at the kept
        # block's it is singular, and the certificate says so
        (S, w), scale = t.parts[-1], _parts_scale(blocks, [w for _, w in t.parts])
        assert (S.tolist(), w) == ([N], 1)
        solve_lyapunov_core(t.A[np.ix_(S, S)])
        with pytest.raises(NearSingularPencil):
            solve_lyapunov_core(t.A[np.ix_(S, S)], scale)
        assert certified_index(spec).status == "SpectraTouchAxis"


def test_mirror_split_needs_equal_values_and_pattern():
    # film's halves are mirror images; one value changed on an equal
    # pattern, or an extra nonzero inside one half's component with every
    # value of the other half matched, must each keep the block whole
    N = 60
    A = assemble_A(benilov_coefficients(0.0, 1.0, 0.02), N).entries
    keep, _, P, S = _split(A)
    assert P.size and not S.size
    i, j = P[0], P[1]  # p = -N and -N+1: coupled, so A[i, j] != 0
    Q = 2 * N - P  # P's mirror modes
    assert A[i, j] != 0.0 and A[Q[0], Q[2]] == 0.0
    changed = A.copy()
    changed[i, j] *= 1.0 + 1e-15
    extra = A.copy()
    extra[Q[0], Q[2]] = 1.0  # inside the mirror half's one component
    for B in (changed, extra):
        ref = reference_splits(B)
        assert np.array_equal(ref[0], keep) and np.array_equal(ref[3], keep)
        kept, _, P_got, S_got = _split(B)
        assert np.array_equal(kept, keep)
        assert P_got.size == 0 and np.array_equal(S_got, keep)
    # so must a value off its mirror outside both halves: A[p=2, q=1]
    # couples kept mode 2 to axis mode 1, where P's block alone mirrors
    coupling = A.copy()
    assert A[N + 2, N + 1] != 0.0 and N + 1 not in keep
    coupling[N + 2, N + 1] *= 1.0 + 1e-15
    ref = reference_splits(coupling)
    assert np.array_equal(ref[0], keep) and np.array_equal(ref[2], P) and P.size == 59
    kept, _, P_got, S_got = _split(coupling)
    assert np.array_equal(kept, keep)
    assert P_got.size == 0 and np.array_equal(S_got, keep) and keep.size == 118


def whole_U(t):
    """The whole kept block's U, in keep order, assembled from t's parts:
    zero between parts, conj(U_P) on P's mirror."""
    U = np.zeros((t.keep.size,) * 2, dtype=complex)
    for (m, w), V in zip(t.parts, t.Us):
        for i, X in [(m, V), (2 * t.N - m, V.conj())][:w]:
            U[np.ix_(*[np.searchsorted(t.keep, i)] * 2)] = X
    return U


@pytest.mark.parametrize(
    "spec, N", [(benilov_coefficients(0.0, 1.0, 0.05), 177), (constant_spec(0.0, 0.0, 0.01), 32)]
)
def test_split_lambda_max_is_the_larger_part(spec, N):
    # W is block-diagonal up to a permutation, the mirror block's W is P's
    # reversed; for c = 0.01 the mode-0 part S holds the largest entry
    t = _solve_truncation(spec, N)
    M = sik.constant_M(spec)
    whole = sik.certify.estimate_triple_U_kept([whole_U(t)], [t.keep], N, M).tripleU_upper
    assert sik.certify._bracket(t, M).tripleU_upper == pytest.approx(whole, rel=1e-12)


@pytest.mark.parametrize(
    "alpha, N", [((0.0, 1.0, 0.05), 177), ((0.0, 1.0, 0.02), 60), ((0.01, 1.0, 0.1), 96)]
)
def test_split_solve_matches_whole_block_solve(alpha, N):
    # one solve on the half block p <= -k stands for the whole kept block
    t = _solve_truncation(benilov_coefficients(*alpha), N)
    ((P, weight),) = t.parts
    assert weight == 2
    K = t.A[np.ix_(t.keep, t.keep)]
    U, ev, residual, _ = solve_lyapunov_core(K)
    half, tU = np.isin(t.keep, P), whole_U(t)
    # the whole solve's U is already exactly zero between the halves
    assert not U[np.ix_(half, ~half)].any() and not tU[np.ix_(half, ~half)].any()
    assert np.linalg.norm(tU - U) <= 1e-11 * np.linalg.norm(U)
    dist = np.abs(t.eigenvalues[:, None] - ev[None, :])
    assert np.max(dist.min(axis=0) / np.abs(ev)) <= 1e-11
    assert np.max(dist.min(axis=1) / np.abs(t.eigenvalues)) <= 1e-11
    # the residual is the assembled U's in the whole equation; R is rounding
    # noise, so two products of it agree in their leading digit only (a
    # mirror pair counted once would be off by sqrt 2)
    R = K.conj().T @ tU + tU @ K - np.eye(K.shape[0])
    whole_residual = np.linalg.norm(R) / np.sqrt(K.shape[0])
    assert t.residual == pytest.approx(whole_residual, rel=0.05, abs=0.0)
    assert max(t.residual, residual) <= 1e-11
    # the sign band keeps the whole-U formula, ||U||_F^2 = 2 ||U_P||_F^2
    band = sik.certify._sign_band(t.A, t.blocks, t.residual)
    assert band == pytest.approx(sik.certify._sign_band(t.A, [tU], whole_residual), rel=1e-12)


@pytest.mark.parametrize(
    "spec, N",
    [(benilov_coefficients(*alpha), N) for alpha, N in MIRROR_SPECS[1:]]
    + [(constant_spec(10.0, 1.0, 5.0), 24), (constant_spec(-4.0, 3.0, -0.5), 40)],
)
def test_part_inertia_counts_add_up_to_whole_block(spec, N):
    # 2 kappa(P) + kappa(S) is the LDL^H count of the whole kept block's
    # D^2 U D^2; constant coefficients put mode 0 alone into S
    t = _solve_truncation(spec, N)
    assert t.parts[0][1] == 2
    d2 = d_weights(N) ** 2
    U = solve_lyapunov_core(t.A[np.ix_(t.keep, t.keep)])[0]
    whole = _ldl_n_plus(d2[t.keep, None] * U * d2[None, t.keep])
    parts = [w * _ldl_n_plus(d2[m, None] * V * d2[None, m]) for (m, w), V in zip(t.parts, t.Us)]
    assert whole is not None and sum(parts) == whole


def test_unpaired_kept_block_takes_single_solve(monkeypatch):
    # a self-mirror Fourier block (c = 1 joins mode 0 to the rest), the
    # film truncation with c + 0.5i, a complex coefficient (OperatorSpec
    # refuses it) whose halves still split but are no longer conjugates,
    # and a film kept block of 38 <= _SPLIT_MIN modes: each runs the one
    # whole-block solve, bit for bit
    def complex_c(spec, N):
        A = assemble_A(spec, N)
        A.entries[np.diag_indices(2 * N + 1)] += 0.5j
        return A

    a = TrigPoly.from_nonneg_modes([(1, -0.5j)])
    self_mirror = OperatorSpec(a=a, b=TrigPoly.zero(), c=TrigPoly.constant(1.0))
    film = benilov_coefficients(0.0, 1.0, 0.02)
    cases = ((self_mirror, assemble_A, 60), (film, complex_c, 60), (film, assemble_A, 20))
    for spec, assemble, N in cases:
        monkeypatch.setattr(sik.certify, "assemble_A", assemble)
        t = _solve_truncation(spec, N)
        ((S, weight),) = t.parts
        assert weight == 1 and np.array_equal(S, t.keep)
        U, ev, residual, _ = solve_lyapunov_core(t.A[t.keep][:, t.keep])
        assert np.array_equal(whole_U(t), U) and np.array_equal(t.eigenvalues, ev)
        assert t.residual == residual


@pytest.mark.filterwarnings("ignore:Lyapunov residual")
def test_singular_part_reports_whole_kept_block():
    # c = 1e-12 puts mode 0, alone in S, a hair off the axis, while the pair
    # p = -24..-1 solves; the unsolved record still carries all 49 kept
    # eigenvalues, so the six unstable modes p = +-1, +-2, +-3 of a = 10
    # are all counted
    spec = constant_spec(10.0, 0.0, 1e-12)
    t = _solve_truncation(spec, 24)
    assert t.Us is None and t.residual is None
    assert [w for _, w in t.parts] == [2, 1]
    assert t.eigenvalues.size == t.keep.size == 49
    assert np.sum(t.eigenvalues.real > 0.0) == 6
    # at N = 8, and at the report's 2N = 16, the small kept block is solved whole
    cert = certified_index(spec)
    assert (cert.status, cert.kappa_schur, cert.N_final) == ("SpectraTouchAxis", 6, 8)
    assert cross_validate(cert, spec) == {
        "kappa_cert": 6,
        "kappa_N": 6,
        "n_zero_N": 1,
        "kappa_2N": 6,
        "n_zero_2N": 1,
        "kappa_stable": False,
        "projection_available": False,
    }


@pytest.mark.filterwarnings("ignore:Lyapunov residual")
@pytest.mark.parametrize("alpha1", [1e-4, 1e-2])
def test_near_decoupled_film_condition_not_met_at_cap(alpha1):
    # eigenvalues 5e-5 to 5e-3 from the axis: |||U||| ~ 1/gap keeps
    # condition 2 out of reach at N = 512, and both counts still read 4
    cert = certified_index(benilov_coefficients(alpha1, 1.0, 0.02))
    assert cert.status == "ConditionNotMet"
    assert (cert.N_final, cert.n_axis, cert.kappa_schur, cert.kappa_lyapunov) == (512, 1, 4, 4)
    assert (cert.cond1_ok, cert.cond2_ok) == (False, False)


def test_certify_validate_one_blas_thread():
    # half blocks fall into the sizes where OpenBLAS's second thread changes
    # rounding: one thread must give the same discrete fields and report
    code = (
        "import json\n"
        "from sik import benilov_coefficients, certified_index, cross_validate\n"
        "spec = benilov_coefficients(0.0, 1.0, 0.05)\n"
        "cert = certified_index(spec)\n"
        "print(json.dumps([cert.to_json_dict(), cross_validate(cert, spec)]))\n"
    )
    got, got_report = run_one_blas_thread(code)
    spec = benilov_coefficients(0.0, 1.0, 0.05)
    cert = certified_index(spec)
    report = cross_validate(cert, spec)
    discrete = ("status", "kappa_schur", "kappa_lyapunov", "N_final", "n_axis")
    discrete += ("cond1_ok", "cond2_ok")
    assert {key: got[key] for key in discrete} == {key: getattr(cert, key) for key in discrete}
    for key in ("lyap_min", "c_N", "inverse_norm", "inverse_bound"):
        assert got_report.pop(key) == pytest.approx(report.pop(key), rel=1e-12), key
    assert got_report == report
