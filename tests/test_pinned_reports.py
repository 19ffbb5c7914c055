"""Reports of runs that cross several word lengths, pinned byte for byte.

Each file in `tests/data/reports/` is the JSON report of one `nlk verify` or
`nlk oracle` call on a catalog scenario, at a word length long enough for
several length classes of coboundary pairs and several levels of folded
words.  Regenerate them only for an intended change of output:

    PYTHONPATH=src python tests/test_pinned_reports.py
"""

import contextlib
import io
import json
import os

import pytest

from nlk import catalog, cli

DATA = os.path.join(os.path.dirname(__file__), "data", "reports")
# (command, catalog entry, scenario, word length)
PINNED = (
    ("verify", "freeproduct.p2_z2", "mixed", 4),
    ("verify", "zk.z2.gaussian", "feasible", 6),
    ("verify", "ac_not_h2z.star_algebra_definite", "main", 8),
    ("verify", "ac_not_h2z.star_algebra_definite", "flipped_sign", 6),
    ("oracle", "p2.nongaussian", "feasible", 6),
    ("oracle", "p2.nongaussian", "main", 6),
)


def _name(command, entry_id, scenario, length):
    return f"{command}.{entry_id}.{scenario}.L{length}.json"


def report_text(workdir, command, entry_id, scenario, length):
    """What `nlk <command> <scenario file> --format json` writes."""
    path = os.path.join(workdir, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(catalog.scenario_doc(entry_id, scenario), fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main([command, path, "--max-word-length", str(length),
                  "--format", "json"])
    return out.getvalue()


@pytest.mark.parametrize("pin", PINNED, ids=lambda pin: _name(*pin))
def test_report_is_unchanged(tmp_path, pin):
    with open(os.path.join(DATA, _name(*pin)), encoding="utf-8") as fh:
        assert report_text(str(tmp_path), *pin) == fh.read()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        for pin in PINNED:
            with open(os.path.join(DATA, _name(*pin)), "w",
                      encoding="utf-8") as fh:
                fh.write(report_text(workdir, *pin))
