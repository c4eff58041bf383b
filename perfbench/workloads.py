"""The four benchmark workloads, driven through sik's public names only.

Every workload is a fixed unit of work (a pass) that a single caller runs
in a closed loop: the next call starts when the previous one returned.  A
pass returns the latency of each call the caller made, the number of items
it completed (certificates, or sweep rows) and the number of items whose
outcome differs from the reference recorded here.

sik is looked up at call time (``sik.certified_index(...)``), never bound
at import, so the tracer's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import csv
import json
import os
import time

import numpy as np

import sik
import sik.cli


def _dispersion_margin(a0, c0):
    """min over |p| <= 16 of |Re lambda_p|, lambda_p = -p^4 + a0 p^2 - c0 + i b0 p."""
    p = np.arange(-16, 17, dtype=float)
    return float(np.min(np.abs(-(p**4) + a0 * p * p - c0)))


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


class BenilovFilm:
    """certified_index on the Benilov film case alpha = (0, 1, 0.02).

    Two iterations (N = 18, then 478) and a dense solve on n = 954 kept
    modes: the O(n^3) kernels (trsyl, Schur, eigvalsh, svdvals) are >= 85%
    of the time.  The reference is the certified kappa = 4, which the
    same code reproduces at N + 32 and at 2N; it is not criterion 9's
    [180, 200] window.
    """

    name = "benilov_film"
    jobs = 1

    def build(self, seed, workdir):
        return sik.benilov_coefficients(0.0, 1.0, 0.02)

    def run_pass(self, spec):
        cert, dt = _timed(sik.certified_index, spec)
        ok = (
            cert.status == "Certified"
            and cert.kappa_schur == 4
            and cert.kappa_lyapunov == 4
            and cert.n_axis == 3
        )
        return [dt], 1, 0 if ok else 1


class ConstantBatch:
    """certified_index on 50 constant-coefficient specs, one call each.

    The specs are the acceptance suite's batch: uniform in [-10, 10]^3 from
    seed 11, redrawn when the dispersion relation comes within 1e-6 of the
    axis for |p| <= 16.  About 99 small solves (median N 28, max N 137), so
    per-call overhead dominates and an O(n^3) change should barely move it.

    ``--seed`` scales each coefficient by 1 + u * 1e-6, u uniform in
    [-1, 1], so every seed certifies different inputs at the same cost.
    Fresh batches per seed are not used: one spec in about a thousand sits
    close enough to a dispersion root to need N ~ 480, and such specs made
    the cost of a 50-spec batch vary fourfold between seeds.
    """

    name = "constant_batch"
    jobs = 1

    def build(self, seed, workdir):
        rng = np.random.default_rng(11)
        base = []
        while len(base) < 50:
            a0, b0, c0 = (float(v) for v in rng.uniform(-10.0, 10.0, size=3))
            if _dispersion_margin(a0, c0) >= 1e-6:
                base.append((a0, b0, c0))
        jitter = np.random.default_rng(seed)
        batch = []
        for coeffs in base:
            while True:
                a0, b0, c0 = (
                    float(v) * (1.0 + 1e-6 * float(u))
                    for v, u in zip(coeffs, jitter.uniform(-1.0, 1.0, size=3))
                )
                if _dispersion_margin(a0, c0) >= 1e-6:
                    break
            spec = sik.OperatorSpec(
                a=sik.TrigPoly.constant(a0),
                b=sik.TrigPoly.constant(b0),
                c=sik.TrigPoly.constant(c0),
            )
            batch.append((spec, sik.dispersion_index(a0, b0, c0, 40)))
        return batch

    def run_pass(self, batch):
        latencies, failed = [], 0
        for spec, kappa in batch:
            cert, dt = _timed(sik.certified_index, spec)
            latencies.append(dt)
            failed += not (cert.status == "Certified" and cert.kappa_schur == kappa)
        return latencies, len(batch), failed


class CertifyValidate:
    """The README quick start: certified_index, then cross_validate.

    alpha = (0, 1, 0.05) certifies at N = 177; cross_validate re-solves at
    2N (n ~ 707) and runs Schur, eig and inv at N and 2N, so
    instability_index_general is ~45% of the pass and Schur runs 5 times.
    """

    name = "certify_validate"
    jobs = 1

    def build(self, seed, workdir):
        return sik.benilov_coefficients(0.0, 1.0, 0.05)

    def _call(self, spec):
        cert = sik.certified_index(spec)
        return cert, sik.cross_validate(cert, spec)

    def run_pass(self, spec):
        (cert, report), dt = _timed(self._call, spec)
        ok = (
            cert.status == "Certified"
            and cert.kappa_schur == 2
            and report.get("kappa_stable") is True
            and report.get("lyap_ok") is True
            and report.get("inverse_ok") is True
        )
        return [dt], 1, 0 if ok else 1


# (alpha1, alpha3) -> (status, kappa) at alpha2 = 1, max_N = 192; kappa is
# compared on Certified rows only, since it is not certified elsewhere
_SWEEP_REFERENCE = {
    (0.0, 0.5): ("Certified", 0),
    (0.0, 0.2): ("Certified", 0),
    (0.0, 0.1): ("Certified", 0),
    (0.0, 0.07): ("Certified", 2),
    (0.0, -1.0): ("config_error", None),
    (0.01, 0.5): ("Certified", 0),
    (0.01, 0.2): ("Certified", 0),
    (0.01, 0.1): ("ConditionNotMet", None),
    (0.01, 0.07): ("ConditionNotMet", None),
    (0.01, -1.0): ("config_error", None),
    (0.5, 0.5): ("Certified", 0),
    (0.5, 0.2): ("Certified", 0),
    (0.5, 0.1): ("Certified", 0),
    (0.5, 0.07): ("ConditionNotMet", None),
    (0.5, -1.0): ("config_error", None),
}


class SweepGrid:
    """``sik sweep --jobs 2`` over 3 x 1 x 5 film parameters, max_N 192.

    The only workload through the CLI's thread pool and the capped
    multi-iteration path (ConditionNotMet rows discard their solves).  It
    mixes 9 Certified, 3 ConditionNotMet and 3 config_error rows.
    """

    name = "sweep_grid"
    jobs = 2

    def build(self, seed, workdir):
        config = {
            "options": {"max_N": 192},
            "grid": {
                "alpha1": [0.0, 0.01, 0.5],
                "alpha2": [1.0],
                "alpha3": [0.5, 0.2, 0.1, 0.07, -1.0],
            },
        }
        config_path = os.path.join(workdir, "grid.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out_path = os.path.join(workdir, "sweep.csv")
        argv = ["sweep", "--config", config_path, "--out", out_path, "--jobs", str(self.jobs)]
        return argv, out_path

    def run_pass(self, inputs):
        argv, out_path = inputs
        code, dt = _timed(sik.cli.main, argv)
        got = {}
        if code == 0:
            with open(out_path, encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    kappa = int(row["kappa"]) if row["kappa"] else None
                    got[(float(row["alpha1"]), float(row["alpha3"]))] = (row["status"], kappa)
            os.remove(out_path)
        failed = 0
        for key, (status, kappa) in _SWEEP_REFERENCE.items():
            row = got.get(key)
            failed += row is None or row[0] != status or (kappa is not None and row[1] != kappa)
        return [dt], len(_SWEEP_REFERENCE), failed


WORKLOADS = {w.name: w for w in (BenilovFilm(), ConstantBatch(), CertifyValidate(), SweepGrid())}


def warm_up():
    """One cheap call through every code path, so that lazy LAPACK lookups
    and other first-call costs stay out of the measured passes."""
    spec = sik.benilov_coefficients(0.5, 1.0, 0.5)
    sik.cross_validate(sik.certified_index(spec), spec)
