"""Every cross_validate report's discrete fields, pinned.

The companion of test_discrete_fields.py: the same constant batch (seed
11) and the twelve valid rows of the benchmark's sweep grid, each
certified and then cross-validated.  A change that only speeds the
pipeline up may move the reports' floats (lyap_min, inverse_norm) by
rounding, but no count and no verdict.  A report without a projection
has no lyap_ok or inverse_ok, and its pin has none either.  A change
that moves a field on purpose regenerates the file, from the root of the
repository:

    PYTHONPATH=src python tests/test_discrete_reports.py > tests/data/discrete_reports.json
"""

import json
import os
import sys

from sik import certified_index, cross_validate

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_discrete_fields import cases  # noqa: E402

FIELDS = ("kappa_N", "n_zero_N", "kappa_2N", "n_zero_2N", "kappa_stable",
          "projection_available", "lyap_ok", "inverse_ok")
PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "discrete_reports.json")


def discrete_reports():
    reports = {}
    for name, spec, opts in cases():
        if name.startswith("film"):  # its 2N solve alone would double the file's run time
            continue
        report = cross_validate(certified_index(spec, opts), spec)
        reports[name] = {field: report[field] for field in FIELDS if field in report}
    return reports


def test_discrete_reports_match_pins():
    with open(PINS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    assert len(pinned) == 62
    reports = discrete_reports()
    assert list(reports) == list(pinned)
    moved = {name: (pinned[name], got) for name, got in reports.items() if got != pinned[name]}
    assert not moved


if __name__ == "__main__":
    json.dump(discrete_reports(), sys.stdout, indent=1)
    sys.stdout.write("\n")
