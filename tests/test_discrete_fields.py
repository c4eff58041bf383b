"""Every certificate's discrete fields, pinned.

A change that only speeds the pipeline up may move floats (residuals,
bounds, gaps) by rounding, but no status, count, order or condition.  The
pins in data/discrete_fields.json cover the acceptance suite's 50-spec
constant batch (seed 11), the twelve valid rows of the benchmark's sweep
grid (alpha2 = 1, max_N 192) and the film case.  A change that moves a
discrete field on purpose regenerates the file, from the root of the
repository:

    PYTHONPATH=src python tests/test_discrete_fields.py > tests/data/discrete_fields.json
"""

import json
import os
import sys

import numpy as np

from sik import CertifyOptions, OperatorSpec, TrigPoly, benilov_coefficients, certified_index

FIELDS = ("status", "kappa_schur", "kappa_lyapunov", "N_final", "n_axis", "cond1_ok", "cond2_ok")
PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "discrete_fields.json")


def cases():
    """(name, spec, options) of every pinned certificate."""
    rng = np.random.default_rng(11)  # the acceptance suite's constant batch
    p, batch = np.arange(-16, 17), []
    while len(batch) < 50:
        a0, b0, c0 = (float(v) for v in rng.uniform(-10.0, 10.0, size=3))
        if np.min(np.abs(-(p ** 4.0) + a0 * p * p - c0)) >= 1e-6:
            batch.append((a0, b0, c0))
    out = [(f"constant {i} {coeffs!r}", OperatorSpec(*(TrigPoly.constant(v) for v in coeffs)), None)
           for i, coeffs in enumerate(batch)]
    for a1 in (0.0, 0.01, 0.5):
        for a3 in (0.5, 0.2, 0.1, 0.07):
            out.append((f"sweep alpha=({a1!r}, 1.0, {a3!r})",
                        benilov_coefficients(a1, 1.0, a3), CertifyOptions(max_N=192)))
    out.append(("film alpha=(0.0, 1.0, 0.02)", benilov_coefficients(0.0, 1.0, 0.02), None))
    return out


def discrete_fields():
    fields = {}
    for name, spec, opts in cases():
        cert = certified_index(spec, opts).to_json_dict()
        fields[name] = {field: cert[field] for field in FIELDS}
    return fields


def test_discrete_fields_match_pins():
    with open(PINS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    assert len(pinned) == 63
    fields = discrete_fields()
    assert list(fields) == list(pinned)
    moved = {name: (pinned[name], got) for name, got in fields.items() if got != pinned[name]}
    assert not moved


if __name__ == "__main__":
    json.dump(discrete_fields(), sys.stdout, indent=1)
    sys.stdout.write("\n")
