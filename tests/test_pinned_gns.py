"""Truncated GNS results pinned byte for byte.

Each file in `tests/data/gns/` is `GnsResult.to_json()` of one
`gns_truncated` call on a catalog scenario, written as JSON with sorted keys,
so a changed Gram entry, rank, witness or pivot word shows.  The files sit
outside `tests/data/reports/`, whose reports the recheck-mutation test
re-runs.  Regenerate them only for an intended change of output:

    PYTHONPATH=src python tests/test_pinned_gns.py
"""

import json
import os

import pytest

from nlk import catalog, scenarios
from nlk.functionals import gns_truncated, solve_generating_functional

DATA = os.path.join(os.path.dirname(__file__), "data", "gns")
# (catalog entry, scenario, word length); a scenario without a functional
# is read through its solved psi
PINNED = (
    ("ac_not_h2z.star_algebra_definite", "main", 4),
    ("ac_not_h2z.star_algebra_definite", "flipped_sign", 2),
    ("ac_not_h2z.star_algebra_definite", "flipped_sign", 4),
    ("surface.gamma2.no_lk", "main", 2),
)


def _name(entry_id, scenario, length):
    return f"gns.{entry_id}.{scenario}.L{length}.json"


def gns_text(entry_id, scenario, length):
    sc = scenarios.parse_scenario(catalog.scenario_doc(entry_id, scenario))
    cocycle = sc.build_cocycle(sc.build_representation())
    functional = (sc.build_functional(cocycle)
                  or solve_generating_functional(cocycle).functional)
    result = gns_truncated(functional, length)
    return json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("pin", PINNED, ids=lambda pin: _name(*pin))
def test_gns_result_is_unchanged(pin):
    with open(os.path.join(DATA, _name(*pin)), encoding="utf-8") as fh:
        assert gns_text(*pin) == fh.read()


if __name__ == "__main__":
    os.makedirs(DATA, exist_ok=True)
    for pin in PINNED:
        with open(os.path.join(DATA, _name(*pin)), "w", encoding="utf-8") as fh:
            fh.write(gns_text(*pin))
