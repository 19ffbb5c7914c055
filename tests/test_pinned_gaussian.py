"""Gaussianity reports pinned byte for byte.

Each file in `tests/data/gaussian/` is `GaussianReport.to_json()` of one
`is_gaussian_functional` call on a catalog scenario, written as JSON with
sorted keys, so a changed `checked` count, witness or witness value shows.
Regenerate them only for an intended change of output:

    PYTHONPATH=src python tests/test_pinned_gaussian.py
"""

import json
import os

import pytest

from nlk import catalog, scenarios
from nlk.functionals import is_gaussian_functional, solve_generating_functional

DATA = os.path.join(os.path.dirname(__file__), "data", "gaussian")
# (catalog entry, scenario, word length); a scenario without a functional
# is read through its solved psi
PINNED = (
    ("zk.z2.gaussian", "feasible", 2),
    ("p2.nongaussian", "feasible", 2),
    ("surface.gamma2.nongaussian", "feasible", 2),
    ("ac_not_h2z.star_algebra_definite", "main", 2),
)


def _name(entry_id, scenario, length):
    return f"gaussian.{entry_id}.{scenario}.L{length}.json"


def gaussian_text(entry_id, scenario, length):
    sc = scenarios.parse_scenario(catalog.scenario_doc(entry_id, scenario))
    cocycle = sc.build_cocycle(sc.build_representation())
    functional = (sc.build_functional(cocycle)
                  or solve_generating_functional(cocycle).functional)
    report = is_gaussian_functional(functional, length)
    return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("pin", PINNED, ids=lambda pin: _name(*pin))
def test_gaussian_report_is_unchanged(pin):
    with open(os.path.join(DATA, _name(*pin)), encoding="utf-8") as fh:
        assert gaussian_text(*pin) == fh.read()


if __name__ == "__main__":
    os.makedirs(DATA, exist_ok=True)
    for pin in PINNED:
        with open(os.path.join(DATA, _name(*pin)), "w", encoding="utf-8") as fh:
            fh.write(gaussian_text(*pin))
