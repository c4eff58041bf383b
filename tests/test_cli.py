"""End-to-end tests of the command line interface.

Runs main() in-process with temp config files and checks exit codes,
emitted JSON/CSV, and the wording of config errors.
"""

import dataclasses
import importlib
import json
import math
import pkgutil
import re
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import sik.cli
import sik.lyapunov
from sik import CertifyOptions
from sik.certify import _Truncation
from sik.cli import main
from sik.fourier_core import Kernel2D
from sik.lyapunov import GreenKernel
from sik.operator_assembly import SpectralMatrix, assemble_A, benilov_coefficients


def write_config(tmp_path, obj, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def benilov_config(a1, a2, a3, **extra):
    cfg = {"coefficients": {"benilov": {"alpha1": a1, "alpha2": a2, "alpha3": a3}}}
    cfg.update(extra)
    return cfg


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_index_certified_writes_json_and_exits_zero(tmp_path):
    cfg = write_config(tmp_path, benilov_config(0.0, 1.0, 0.5))
    out = tmp_path / "cert.json"
    assert main(["index", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["status"] == "Certified"
    assert data["kappa_schur"] == 0
    assert data["kappa_lyapunov"] == 0
    assert data["n_axis"] == 3
    # keys are emitted sorted with indent 2
    keys = [line.split('"')[1] for line in text.splitlines() if line.startswith('  "')]
    assert keys == sorted(keys)


def test_index_stdout_when_no_output(tmp_path, capsys):
    cfg = write_config(tmp_path, benilov_config(0.0, 1.0, 0.5))
    assert main(["index", "--config", cfg]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "Certified"


def test_index_deterministic_modulo_timestamp(tmp_path):
    cfg = write_config(tmp_path, benilov_config(0.0, 1.0, 0.5))
    texts = []
    for name in ("c1.json", "c2.json"):
        out = tmp_path / name
        assert main(["index", "--config", cfg, "--out", str(out)]) == 0
        lines = [
            ln for ln in out.read_text(encoding="utf-8").splitlines()
            if '"timestamp"' not in ln
        ]
        texts.append("\n".join(lines))
    assert texts[0] == texts[1]


def test_index_exit_two_when_condition_not_met(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        benilov_config(0.0, 1.0, 0.02, options={"max_N": 64, "max_iterations": 2}),
    )
    assert main(["index", "--config", cfg]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "ConditionNotMet"
    assert data["kappa_schur"] == 4
    # a cap at which every mode is peeled onto the axis still certifies nothing
    cfg = write_config(
        tmp_path, benilov_config(0.0, 1.0, 0.5, options={"max_N": 1}), name="n1.json"
    )
    assert main(["index", "--config", cfg]) == 2
    data = json.loads(capsys.readouterr().out)
    assert (data["status"], data["N_final"], data["n_axis"]) == ("ConditionNotMet", 1, 3)


def test_index_exit_three_when_axis_touched(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"coefficients": {"fourier": {"c": [{"mode": 0, "value": 1e-12}]}}},
    )
    assert main(["index", "--config", cfg]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "SpectraTouchAxis"
    assert data["kappa_lyapunov"] is None


@pytest.mark.parametrize(
    "config, key",
    [
        ({"coefficients": {}}, "coefficients"),
        ({}, "coefficients"),
        ({"coefficients": {"benilov": {}, "fourier": {}}}, "coefficients"),
        ({"coefficients": {"benilov": {"alpha1": 0, "alpha2": 1}}},
         "coefficients.benilov.alpha3: missing"),
        ({"coefficients": {"benilov": {"alpha1": 0, "alpha2": 1, "alpha3": 0}}},
         "coefficients.benilov.alpha3: must be > 0"),
        ({"coefficients": {"benilov": {"alpha1": 0, "alpha2": 1, "alpha3": 1, "alpha4": 2}}},
         "coefficients.benilov.alpha4"),
        ({"coefficients": {"fourier": {"d": []}}}, "coefficients.fourier.d"),
        ({"coefficients": {"fourier": {"a": [{"mode": -1, "value": 1}]}}},
         "coefficients.fourier.a[0].mode"),
        ({"coefficients": {"fourier": {"a": [{"mode": 1, "value": 1, "re": 2}]}}},
         "coefficients.fourier.a[0]: give either value or re/im"),
        ({"coefficients": {"fourier": {"a": [{"mode": 0, "re": 1, "im": 2}]}}},
         "coefficients.fourier.a[0].im: mode 0 must be real"),
        ({"coefficients": {"fourier": {}}, "options": {"bogus": 1}}, "options.bogus"),
        ({"coefficients": {"fourier": {}}, "options": {"N": 0}},
         "options.N: must be > 0"),
        ({"coefficients": {"fourier": {}}, "typo": 1}, "typo: unknown top-level key"),
        (benilov_config(math.nan, 1, 0.02), "coefficients.benilov.alpha1: must be a finite"),
        (benilov_config(math.inf, 1, 0.02), "coefficients.benilov.alpha1: must be a finite"),
        (benilov_config(10**400, 1, 0.02), "coefficients.benilov.alpha1: must be a finite"),
        ({"coefficients": {"fourier": {"c": [{"mode": 0, "value": math.nan}]}}},
         "coefficients.fourier.c[0].value: must be a finite"),
        (benilov_config(0, 1, 0.02, options={"max_N": 0.5}), "options.max_N: must be an integer"),
        (benilov_config(0, 1, 0.02, options={"max_N": 2.7}), "options.max_N: must be an integer"),
        (benilov_config(0, 1, 0.02, options={"max_iterations": 1.5}),
         "options.max_iterations: must be an integer"),
        (benilov_config(0, 1, 0.02, options={"N": 0.5}), "options.N: must be an integer"),
        (benilov_config(0, 1, 0.02, options={"with_uinv": False}),
         "options.with_uinv: unknown option"),
    ],
)
def test_config_errors_name_offending_key(tmp_path, capsys, config, key):
    cfg = write_config(tmp_path, config)
    assert main(["index", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert key in err


def test_readme_configs_parse():
    # every JSON config the README shows is accepted as written, and the
    # options it may set are exactly the ones CertifyOptions and the CLI keep
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert blocks
    for block in blocks:
        config = json.loads(block)
        sik.cli._check_top_level(config)
        sik.cli._spec_from_config(config)
        sik.cli._options_from_config(config)
    assert {f.name for f in dataclasses.fields(CertifyOptions)} == {"max_N", "max_iterations"}
    assert sik.cli._OPTION_KEYS == {"max_N", "max_iterations", "N"}


def test_public_surface():
    # `import sik` exports what the README, the benchmark and the acceptance
    # suite use; helpers whose only caller was their own test stay deleted
    assert sorted(sik.__all__) == [
        "Certificate", "CertifyOptions", "OperatorSpec", "TrigPoly",
        "addition_rule_check", "assemble_A", "benilov_coefficients",
        "certified_index", "constant_M", "count_half_plane", "cross_validate",
        "dispersion_index", "estimate_triple_U", "inertia_hermitian",
        "instability_index_general", "kernel_operator_convert",
        "solve_finite_lyapunov", "tail_bound", "tp_derivative", "triple_norm",
    ]
    for name in sik.__all__:
        assert getattr(sik, name) is not None
    deleted = {
        "sector_params", "indefinite_gram_schmidt", "NeutralVectorEncountered",
        "DispersionOracle", "lambda_max_statistic", "MaxTruncationExceeded",
        "assemble_A_star", "_assemble", "_closed_form_constants",
        "kernel2d_sobolev_norm", "_mirror_equal", "_OneBlasThread", "_load_json",
        "_leibnitz_series", "_LEIBNITZ_CACHE", "_graph", "_mirror_split",
    }
    modules = [sik] + [
        importlib.import_module(f"sik.{info.name}")
        for info in pkgutil.iter_modules(sik.__path__)
    ]
    assert len(modules) == 10
    for module in modules:
        assert not deleted & set(vars(module)), module.__name__
    for cls, attrs in (
        (Kernel2D, ("restricted", "modes")),
        (GreenKernel, ("closed_form", "matrix_diag")),
        (SpectralMatrix, ("entry",)),
        (_Truncation, ("U",)),
    ):
        for attr in attrs:
            assert not hasattr(cls, attr), f"{cls.__name__}.{attr}"


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["index", "--config", str(tmp_path / "nope.json")]) == 1
    assert "file not found" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["index", "spectrum", "sweep"])
def test_unreadable_config_is_config_error(tmp_path, capsys, command):
    # a directory raises IsADirectoryError, an OSError beside FileNotFoundError
    assert main([command, "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config: cannot read {tmp_path}: ")
    assert "Traceback" not in err


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(b"\xff\xfe{}")
    assert main(["index", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: config: invalid JSON: ")
    assert "Traceback" not in err


def test_spectrum_requires_output(tmp_path, capsys):
    cfg = write_config(tmp_path, benilov_config(0.0, 1.0, 0.5))
    assert main(["spectrum", "--config", cfg]) == 1
    assert "output: spectrum requires an output path" in capsys.readouterr().err


def test_spectrum_fixed_N_free_operator(tmp_path):
    # c = 1 makes the truncation diagonal with eigenvalues -(1 + p^4)
    cfg = write_config(
        tmp_path,
        {
            "coefficients": {"fourier": {"c": [{"mode": 0, "value": 1.0}]}},
            "options": {"N": 4},
        },
    )
    out = tmp_path / "eigs.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == "re,im"
    assert len(rows) == 9
    re = np.array([float(r[0]) for r in rows])
    im = np.array([float(r[1]) for r in rows])
    assert np.all(im == 0.0)
    assert np.all(np.diff(re) <= 0)
    expected = np.sort([-(1.0 + p ** 4) for p in range(-4, 5)])[::-1]
    assert np.allclose(re, expected, atol=1e-12)

    meta = json.loads((tmp_path / "eigs.json").read_text(encoding="utf-8"))
    assert set(meta.keys()) == {"N", "M", "suggested_cutoff"}
    assert meta["N"] == 4
    assert meta["M"] == 0.0


def test_spectrum_constant_drift_pattern(tmp_path):
    # a = 0, b = 7, c = -5: eigenvalues are exactly -p^4 + 5 + 7ip and the
    # rows come out sorted by descending real part, ties by imag
    cfg = write_config(
        tmp_path,
        {
            "coefficients": {
                "fourier": {
                    "b": [{"mode": 0, "value": 7.0}],
                    "c": [{"mode": 0, "value": -5.0}],
                }
            },
            "options": {"N": 3},
        },
    )
    out = tmp_path / "drift.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    got = np.array([[float(r[0]), float(r[1])] for r in rows])
    p = np.arange(-3, 4)
    ev = -(p ** 4.0) + 5.0 + 1j * 7.0 * p
    order = np.lexsort((ev.imag, -ev.real))
    want = np.column_stack([ev[order].real, ev[order].imag])
    assert np.allclose(got, want, atol=1e-12)


def test_spectrum_fixed_N_all_modes_on_axis(tmp_path):
    # at N = 1 the Benilov truncation is diag(-2i, 0, 2i): nothing to solve
    cfg = write_config(tmp_path, benilov_config(0.0, 1.0, 0.5, options={"N": 1}))
    out = tmp_path / "axis.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows == [["0.0", "-2.0"], ["0.0", "0.0"], ["0.0", "2.0"]]
    meta = json.loads((tmp_path / "axis.json").read_text(encoding="utf-8"))
    assert meta == {"N": 1, "M": 8.0, "suggested_cutoff": None}


def test_spectrum_certified_run_writes_sidecar(tmp_path):
    cfg = write_config(tmp_path, benilov_config(0.0, 1.0, 0.5))
    out = tmp_path / "ben.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    meta = json.loads((tmp_path / "ben.json").read_text(encoding="utf-8"))
    assert len(rows) == 2 * meta["N"] + 1
    # l1 route: sum |a_hat| = 3, sum |b_hat| = 4, sum |c_hat - 1| = 1
    assert meta["M"] == pytest.approx(8.0)
    assert isinstance(meta["suggested_cutoff"], int)
    assert meta["suggested_cutoff"] > 0


@pytest.mark.parametrize(
    "coefficients, cutoff",
    [
        ({"benilov": {"alpha1": 0.0, "alpha2": 1.0, "alpha3": 0.5}}, 8),
        ({"benilov": {"alpha1": 0.0, "alpha2": 1.0, "alpha3": 0.05}}, 128),
        ({"fourier": {"c": [{"mode": 0, "value": 1e-12}]}}, None),
    ],
)
def test_spectrum_cutoff_from_certificate_equals_fixed_N(
    tmp_path, monkeypatch, coefficients, cutoff
):
    # the certified route reads the cutoff off the certificate's bound; a
    # fixed-N run at N_final solves again and must agree
    solve = sik.cli._solve_truncation

    def no_solve(*args):
        raise AssertionError("spectrum re-solved after certification")

    monkeypatch.setattr(sik.cli, "_solve_truncation", no_solve)
    cfg = write_config(tmp_path, {"coefficients": coefficients})
    main(["spectrum", "--config", cfg, "--out", str(tmp_path / "cert.csv")])
    meta = json.loads((tmp_path / "cert.json").read_text(encoding="utf-8"))
    assert meta["suggested_cutoff"] == cutoff

    monkeypatch.setattr(sik.cli, "_solve_truncation", solve)
    fixed = {"coefficients": coefficients, "options": {"N": meta["N"]}}
    cfg = write_config(tmp_path, fixed, name="fixed.json")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "fixed.csv")]) == 0
    assert json.loads((tmp_path / "fixed.json").read_text(encoding="utf-8")) == meta
    assert (tmp_path / "fixed.csv").read_text() == (tmp_path / "cert.csv").read_text()


@pytest.mark.parametrize("alpha, N", [((0.0, 1.0, 0.05), 136), ((0.5, 1.0, 0.07), 192)])
def test_spectrum_matches_whole_matrix_eigvals(tmp_path, alpha, N):
    # the CSV holds the kept parts' Schur eigenvalues (unbalanced) and the
    # exact axis modes; zgeev on the whole balanced A_N is the reference
    cfg = write_config(tmp_path, benilov_config(*alpha, options={"N": N}))
    out = tmp_path / "eigs.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    got = np.array([complex(float(re), float(im)) for re, im in rows])
    ref = np.linalg.eigvals(assemble_A(benilov_coefficients(*alpha), N).entries)
    assert got.size == ref.size == 2 * N + 1
    nearest = ref[np.abs(got[:, None] - ref[None, :]).argmin(axis=1)]
    assert np.all(np.abs(got - nearest) <= 1e-6 * np.maximum(np.abs(got), 1.0))
    assert np.sum(got.real > 0.0) == np.sum(ref.real > 0.0)


def test_sweep_rows_in_grid_order(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "coefficients": {"benilov": {"alpha1": 0.0, "alpha2": 1.0, "alpha3": 1.0}},
            "grid": {"alpha1": [0.0, 0.3], "alpha2": [1.0], "alpha3": [0.5]},
        },
        name="grid.json",
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "3"]) == 0
    header, rows = read_csv(out)
    assert header == "alpha1,alpha2,alpha3,kappa,status,N_final"
    assert [r[0] for r in rows] == ["0.0", "0.3"]
    for row in rows:
        assert row[3] == "0"
        assert row[4] == "Certified"
        assert int(row[5]) >= 8


@pytest.mark.skipif(sik.lyapunov._Dense.fenv is None, reason="not x86-64 glibc: nothing flushes")
def test_sweep_workers_keep_their_mxcsr(tmp_path, monkeypatch):
    # every row's dense work flushes subnormals in its pool thread, and
    # leaves that thread's MXCSR, and the caller's, as it found them
    def mxcsr():
        env = sik.lyapunov._FEnv()
        sik.lyapunov._Dense.fenv[0](env)
        return env.mxcsr

    calls, inside, certify, schur = [], [], sik.cli.certified_index, sik.lyapunov._schur

    def spy_certify(*args, **kwargs):
        before = mxcsr()
        cert = certify(*args, **kwargs)
        calls.append((before, mxcsr()))
        return cert

    def spy_schur(*args, **kwargs):
        inside.append(mxcsr() & 0x8040)
        return schur(*args, **kwargs)

    monkeypatch.setattr(sik.cli, "certified_index", spy_certify)
    monkeypatch.setattr(sik.lyapunov, "_schur", spy_schur)
    cfg = write_config(
        tmp_path,
        {"grid": {"alpha1": [0.0, 0.5], "alpha2": [1.0], "alpha3": [0.5, 0.2]}},
        name="grid.json",
    )
    before = mxcsr()
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv"), "--jobs", "2"]) == 0
    assert mxcsr() == before
    assert len(calls) == 4 and all(start == end for start, end in calls)
    assert inside and set(inside) == {0x8040}


def test_sweep_bad_alpha3_row_does_not_abort(tmp_path):
    cfg = write_config(
        tmp_path,
        {"grid": {"alpha1": [0.0], "alpha2": [1.0], "alpha3": [0.5, 0.0]}},
        name="grid.json",
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 2
    assert rows[0][4] == "Certified"
    assert rows[1] == ["0.0", "1.0", "0.0", "", "config_error", ""]


SWEEP_GRID_CSV = """\
alpha1,alpha2,alpha3,kappa,status,N_final
0.0,1.0,0.5,0,Certified,8
0.0,1.0,0.2,0,Certified,24
0.0,1.0,0.1,0,Certified,75
0.0,1.0,0.07,2,Certified,66
0.0,1.0,-1.0,,config_error,
0.01,1.0,0.5,0,Certified,136
0.01,1.0,0.2,0,Certified,147
0.01,1.0,0.1,0,ConditionNotMet,192
0.01,1.0,0.07,4,ConditionNotMet,192
0.01,1.0,-1.0,,config_error,
0.5,1.0,0.5,0,Certified,28
0.5,1.0,0.2,0,Certified,32
0.5,1.0,0.1,0,Certified,61
0.5,1.0,0.07,2,ConditionNotMet,192
0.5,1.0,-1.0,,config_error,
"""


def test_sweep_grid_csv_frozen(tmp_path):
    # the benchmark's 15-row film grid: every status, kappa and N_final is
    # pinned, so a looser tail bound shows up first as a moved N_final
    cfg = write_config(
        tmp_path,
        {
            "options": {"max_N": 192},
            "grid": {
                "alpha1": [0.0, 0.01, 0.5],
                "alpha2": [1.0],
                "alpha3": [0.5, 0.2, 0.1, 0.07, -1.0],
            },
        },
        name="grid.json",
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "2"]) == 0
    assert out.read_text(encoding="utf-8") == SWEEP_GRID_CSV


def test_sweep_empty_grid_header_only(tmp_path):
    cfg = write_config(tmp_path, {"grid": {}}, name="grid.json")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == "alpha1,alpha2,alpha3,kappa,status,N_final\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path, {"grid": {"alpha3": [0.5]}}, name="grid.json")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 1
    assert capsys.readouterr().err == "config error: --jobs: must be >= 1\n"
    assert not out.exists()
    # checked before the config is read
    assert main(["sweep", "--config", str(tmp_path / "nope.json"), "--jobs", jobs]) == 1
    assert capsys.readouterr().err == "config error: --jobs: must be >= 1\n"


def test_sweep_requires_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, benilov_config(0.0, 1.0, 0.5))
    assert main(["sweep", "--config", cfg]) == 1
    assert "grid: missing" in capsys.readouterr().err


def test_validate_prints_pass_lines(capsys):
    assert main(["validate"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = [ln.split(":")[0] for ln in lines]
    assert names == ["dispersion", "kronecker", "inertia-vs-schur", "free-kernel-norm"]
    for ln in lines:
        assert ": PASS (" in ln and ln.endswith(")")


def test_console_script_entry_point(tmp_path):
    exe = shutil.which("sik")
    if exe is None:
        pytest.skip("console script not on PATH")
    cfg = write_config(tmp_path, benilov_config(0.0, 1.0, 0.5))
    out = tmp_path / "cert.json"
    proc = subprocess.run(
        [exe, "index", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text(encoding="utf-8"))["status"] == "Certified"
