"""Command-line front end.

    sik index    --config run.json [--out cert.json]
    sik spectrum --config run.json --out eigs.csv
    sik sweep    --config grid.json [--out sweep.csv] [--jobs k]
    sik validate

Configs are single JSON objects; see README for the schema.  Certificate
JSON is deterministic for a fixed config except for the timestamp field.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import itertools
import json
import math
import sys

import numpy as np

from .certify import (
    Certificate,
    CertifyOptions,
    STATUS_CERTIFIED,
    STATUS_CONDITION_NOT_MET,
    STATUS_SPECTRA_TOUCH_AXIS,
    _bracket,
    _certify,
    _cond2_order,
    _solve_truncation,
    certified_index,
)
from .errors import ConfigError
from .fourier_core import TrigPoly
from .operator_assembly import OperatorSpec, benilov_coefficients, constant_M
from .oracle import validation_suite

_EXIT_BY_STATUS = {
    STATUS_CERTIFIED: 0,
    STATUS_CONDITION_NOT_MET: 2,
    STATUS_SPECTRA_TOUCH_AXIS: 3,
}

_OPTION_KEYS = {"max_N", "max_iterations", "N"}


def _require_number(obj, key, positive=False):
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        raise ConfigError(key, "must be a number")
    try:
        val = float(obj)
    except OverflowError:  # an integer beyond the float range
        val = math.inf
    if not math.isfinite(val):
        raise ConfigError(key, "must be a finite number")
    if positive and not val > 0:
        raise ConfigError(key, "must be > 0")
    return val


def _require_count(obj, key):
    val = _require_number(obj, key, positive=True)
    if not val.is_integer():
        raise ConfigError(key, "must be an integer")
    return int(val)


def _object(obj, key, allowed, what="must be an object"):
    """obj, a dict whose keys are all in allowed (None: any keys)."""
    if not isinstance(obj, dict):
        raise ConfigError(key, what)
    extra = set(obj) - set(obj if allowed is None else allowed)
    if extra:
        raise ConfigError(f"{key}.{sorted(extra)[0]}", "unknown key")
    return obj


def _coeff_list(entries, key):
    if entries is None:
        return TrigPoly.zero()
    if not isinstance(entries, list):
        raise ConfigError(key, "must be a list of {mode, re, im} or {mode, value}")
    pairs = []
    for i, item in enumerate(entries):
        here = f"{key}[{i}]"
        _object(item, here, None)
        if "mode" not in item:
            raise ConfigError(f"{here}.mode", "missing")
        mode = item["mode"]
        if not isinstance(mode, int) or isinstance(mode, bool) or mode < 0:
            raise ConfigError(f"{here}.mode", "must be an integer >= 0")
        _object(item, here, {"mode", "re", "im", "value"})
        if "value" in item:
            if "re" in item or "im" in item:
                raise ConfigError(here, "give either value or re/im, not both")
            v = complex(_require_number(item["value"], f"{here}.value"))
        else:
            re = _require_number(item.get("re", 0.0), f"{here}.re")
            im = _require_number(item.get("im", 0.0), f"{here}.im")
            v = complex(re, im)
        if mode == 0 and v.imag != 0.0:
            raise ConfigError(f"{here}.im", "mode 0 must be real")
        pairs.append((mode, v))
    try:
        return TrigPoly.from_nonneg_modes(pairs)
    except ValueError as exc:
        raise ConfigError(key, str(exc))


def _spec_from_config(config) -> OperatorSpec:
    coeffs = _object(config.get("coefficients"), "coefficients", {"benilov", "fourier"},
                     "missing or not an object")
    sources = [k for k in ("benilov", "fourier") if k in coeffs]
    if len(sources) != 1:
        raise ConfigError("coefficients", "exactly one of 'benilov' or 'fourier' is required")
    if sources[0] == "benilov":
        ben = _object(coeffs["benilov"], "coefficients.benilov", {"alpha1", "alpha2", "alpha3"})
        for k in ("alpha1", "alpha2", "alpha3"):
            if k not in ben:
                raise ConfigError(f"coefficients.benilov.{k}", "missing")
        a1 = _require_number(ben["alpha1"], "coefficients.benilov.alpha1")
        a2 = _require_number(ben["alpha2"], "coefficients.benilov.alpha2")
        a3 = _require_number(ben["alpha3"], "coefficients.benilov.alpha3", positive=True)
        return benilov_coefficients(a1, a2, a3)
    four = _object(coeffs["fourier"], "coefficients.fourier", {"a", "b", "c"})
    return OperatorSpec(
        a=_coeff_list(four.get("a"), "coefficients.fourier.a"),
        b=_coeff_list(four.get("b"), "coefficients.fourier.b"),
        c=_coeff_list(four.get("c"), "coefficients.fourier.c"),
    )


def _options_from_config(config):
    raw = config.get("options", {})
    if not isinstance(raw, dict):
        raise ConfigError("options", "must be an object")
    extra = set(raw) - _OPTION_KEYS
    if extra:
        raise ConfigError(f"options.{sorted(extra)[0]}", "unknown option")
    counts = {k: _require_count(v, f"options.{k}") for k, v in raw.items()}
    fixed_N = counts.pop("N", None)
    return CertifyOptions(**counts), fixed_N


def _read_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except OSError as exc:  # a directory, no permission, ...
        raise ConfigError("config", f"cannot read {path}: {exc.strerror}")
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError("config", f"invalid JSON: {exc}")
    _check_top_level(config)
    return config


def _check_top_level(config):
    if not isinstance(config, dict):
        raise ConfigError("config", "top level must be a JSON object")
    extra = set(config) - {"coefficients", "options", "output", "grid"}
    if extra:
        raise ConfigError(sorted(extra)[0], "unknown top-level key")
    out = config.get("output")
    if out is not None and not isinstance(out, str):
        raise ConfigError("output", "must be a string path")


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _certificate_json(cert: Certificate) -> str:
    return json.dumps(cert.to_json_dict(), indent=2, sort_keys=True) + "\n"


def cmd_index(config_path, out_path=None) -> int:
    config = _read_config(config_path)
    spec = _spec_from_config(config)
    opts, _ = _options_from_config(config)
    cert = certified_index(spec, opts)
    _write_text(out_path or config.get("output"), _certificate_json(cert))
    return _EXIT_BY_STATUS[cert.status]


def _sidecar_path(csv_path: str) -> str:
    if csv_path.endswith(".csv"):
        return csv_path[: -len(".csv")] + ".json"
    return csv_path + ".json"


def cmd_spectrum(config_path, out_path=None) -> int:
    config = _read_config(config_path)
    spec = _spec_from_config(config)
    opts, fixed_N = _options_from_config(config)
    out = out_path or config.get("output")
    if out is None:
        raise ConfigError("output", "spectrum requires an output path")

    M = constant_M(spec)
    exit_code = 0
    if fixed_N is not None:
        t = _solve_truncation(spec, fixed_N)
        tail = _bracket(t, M)
        tripleU_upper = None if tail is None else tail.tripleU_upper
    else:
        cert, t = _certify(spec, opts)
        tripleU_upper = cert.tripleU_upper
        exit_code = _EXIT_BY_STATUS[cert.status]

    # the kept block's Schur eigenvalues and the exact axis modes
    eigs = np.concatenate([t.eigenvalues, t.band.diags[t.band.w, t.axis]])
    order = np.lexsort((eigs.imag, -eigs.real))
    lines = ["re,im"]
    for ev in eigs[order]:
        # plain python floats: numpy scalar repr would leak np.float64(...)
        lines.append(f"{float(ev.real)!r},{float(ev.imag)!r}")
    _write_text(out, "\n".join(lines) + "\n")

    # the truncation order condition 2 asks for, when a tail bound exists
    cutoff = None if tripleU_upper is None else _cond2_order(M, tripleU_upper)
    meta = {"N": t.N, "M": M, "suggested_cutoff": cutoff}
    _write_text(_sidecar_path(out), json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return exit_code


def _grid_rows(config):
    grid = _object(config.get("grid"), "grid", {"alpha1", "alpha2", "alpha3"},
                   "missing or not an object (required for sweep)")
    axes = []
    for k in ("alpha1", "alpha2", "alpha3"):
        vals = grid.get(k, [])
        if not isinstance(vals, list):
            raise ConfigError(f"grid.{k}", "must be a list of numbers")
        axes.append([_require_number(v, f"grid.{k}[{i}]") for i, v in enumerate(vals)])
    return list(itertools.product(*axes))


def _sweep_row(alphas, opts):
    a1, a2, a3 = alphas
    if not a3 > 0.0:
        return (a1, a2, a3, None, "config_error", None)
    try:
        cert = certified_index(benilov_coefficients(a1, a2, a3), opts)
        return (a1, a2, a3, cert.kappa_schur, cert.status, cert.N_final)
    except Exception as exc:  # never abort the sweep on one bad row
        return (a1, a2, a3, None, f"error:{type(exc).__name__}", None)


def cmd_sweep(config_path, out_path=None, jobs=1) -> int:
    if jobs < 1:
        raise ConfigError("--jobs", "must be >= 1")
    config = _read_config(config_path)
    opts, _ = _options_from_config(config)
    rows = _grid_rows(config)
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(_sweep_row, rows, itertools.repeat(opts)))

    lines = ["alpha1,alpha2,alpha3,kappa,status,N_final"]
    for a1, a2, a3, kappa, status, n_final in results:
        kappa_s = "" if kappa is None else str(int(kappa))
        n_s = "" if n_final is None else str(int(n_final))
        lines.append(f"{a1!r},{a2!r},{a3!r},{kappa_s},{status},{n_s}")
    _write_text(out_path or config.get("output"), "\n".join(lines) + "\n")
    return 0


def cmd_validate() -> int:
    results = validation_suite()
    all_ok = True
    for item in results:
        flag = "PASS" if item["passed"] else "FAIL"
        print(f"{item['name']}: {flag} ({item['detail']})")
        all_ok = all_ok and item["passed"]
    return 0 if all_ok else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sik",
        description="Certified instability index of fourth-order periodic operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="run certification, write certificate JSON")
    p_index.add_argument("--config", required=True)
    p_index.add_argument("--out")

    p_spec = sub.add_parser("spectrum", help="dump truncated eigenvalues as CSV")
    p_spec.add_argument("--config", required=True)
    p_spec.add_argument("--out")

    p_sweep = sub.add_parser("sweep", help="certify over a parameter grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--jobs", type=int, default=1)

    sub.add_parser("validate", help="run the built-in oracle cross-checks")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "index":
            return cmd_index(args.config, args.out)
        if args.command == "spectrum":
            return cmd_spectrum(args.config, args.out)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.out, jobs=args.jobs)
        if args.command == "validate":
            return cmd_validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
