"""Reports pinned byte for byte.

Most files in `tests/data/reports/` are the JSON report of one `nlk verify`
or `nlk oracle` call on a catalog scenario, at a word length long enough for
several length classes of coboundary pairs and several levels of folded
words.  The `validate.*` files are `nlk validate` reports on representations
that break one condition each, so their violations, residuals included, are
pinned too.  The `small.*` files are short reports, one for each way the
scenario commands end that the others miss, and the `solve` and
`decompose` reports of a block-unitary scenario, whose split has two parts
of dimension 2.  Regenerate them only for an intended change of output:

    PYTHONPATH=src python tests/test_pinned_reports.py
"""

import contextlib
import io
import json
import os

import pytest

from nlk import catalog, cli

from helpers import ill_defined_psi_doc

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

_Z2 = {"kind": "group", "generators": ["a", "b"],
       "relators": [["a", "b", "a^-1", "b^-1"]]}
_P2 = {"kind": "group", "generators": ["a", "b", "r"],
       "relators": [["a", "b", "a^-1", "b^-1"], ["r", "r"],
                    ["r", "a", "r", "a"], ["r", "b", "r", "b"]]}
# G = S* S for S = [[1, i], [0, 2]]; _ROTATION and _TWIST are S^-1 U S for
# the standard-unitary U = [[3/5, -4/5], [4/5, 3/5]] and diag(i, 1), so both
# are G-unitary and do not commute
_GRAM = [["1", "i"], ["-i", "5"]]
_ROTATION = [["3/5-2/5i", "-6/5"], ["2/5", "3/5+2/5i"]]
_TWIST = [["i", "-1-1i"], ["0", "1"]]
# (name, scenario document) for `nlk validate`
VIOLATIONS = (
    ("not_unitary", {"presentation": _P2, "form": {"gram": _GRAM},
                     "representation": {"a": _ROTATION,
                                        "b": [["1", "1/2"], ["0", "1+1i"]],
                                        "r": [["2", "0"], ["0", "1/2"]]}}),
    ("singular", {"presentation": _Z2, "form": {"gram": _GRAM},
                  "representation": {"a": [["1", "i"], ["-i", "1"]],
                                     "b": _TWIST}}),
    ("relator", {"presentation": _Z2, "form": {"gram": _GRAM},
                 "representation": {"a": _ROTATION, "b": _TWIST}}),
    ("star_adjoint", {
        "presentation": {"kind": "star_algebra", "generators": ["x", "y", "z"],
                         "involution": {"x": "y", "y": "x", "z": "z"},
                         "character": {"x": "0", "y": "0", "z": "0"},
                         "rules": []},
        "form": {"gram": [["1", "0"], ["0", "2"]]},
        "representation": {"x": [["1", "i"], ["0", "2"]],
                           "y": [["1", "0"], ["1/2", "2"]],
                           "z": [["0", "1"], ["1", "0"]]}}),
    # x is self-adjoint under the form, but x x is not (1/2 + i) x
    ("rule", {
        "presentation": {"kind": "star_algebra", "generators": ["x"],
                         "involution": {"x": "x"}, "character": {"x": "0"},
                         "rules": [{"lhs": ["x", "x"],
                                    "rhs": {"coeff": "1/2+1i", "word": ["x"]}}]},
        "form": {"gram": [["2", "1"], ["1", "1"]]},
        "representation": {"x": [["1+1i", "1i"], ["-1-2i", "-1i"]]}}),
    ("forced_pi", catalog.scenario_doc("ac_not_h2z.star_algebra_definite",
                                       "forced_pi")),
    # a valid representation (-1 commutes with the rotation) whose cocycle
    # folds to 2 eta(a) + (pi(a) - 1) eta(b) on the commutator, not 0
    ("cocycle_relator", {
        "presentation": _Z2, "form": {"gram": _GRAM},
        "representation": {"a": _ROTATION, "b": [["-1", "0"], ["0", "-1"]]},
        "cocycle": {"a": ["1/2", "i"], "b": ["1+1i", "-1/3"]}}),
    # pi(x) = (1/2 + i) P for an idempotent P respects x x = (1/2 + i) x and,
    # through the adjoint, x* x* = (1/2 - i) x*; eta(x) and eta(x*) are not
    # eigenvectors of pi(x) and pi(x*), so eta breaks both rules
    ("cocycle_rule", {
        "presentation": {
            "kind": "star_algebra", "generators": ["x"],
            "involution": {"x": "x*"}, "character": {"x": "0"},
            "rules": [{"lhs": ["x", "x"],
                       "rhs": {"coeff": "1/2+1i", "word": ["x"]}},
                      {"lhs": ["x*", "x*"],
                       "rhs": {"coeff": "1/2-1i", "word": ["x*"]}}]},
        "form": {"gram": [["2", "1"], ["1", "1"]]},
        "representation": {"x": [["1/2+1i", "1/4+1/2i"], ["0", "0"]]},
        "cocycle": {"x": ["1", "1/3"], "x*": ["2i", "-1"]}}),
)

# A block-unitary Z^2 scenario of dimension 4: the trivial block on e1, e2
# and the commuting rotations by (3/5, 4/5) and (5/13, 12/13) on e3, e4
# under diag(1, 1, 2, 2), conjugated by S = [[1, 0, 0, 0], [i, 1, 0, 0],
# [0, 1/2, 1, 0], [1, 0, -1, 2]] (the form becomes S^-* G S^-1).  The
# cocycle is (pi(g) - 1) v with v = (0, 0, 1+i, -1), plus a derivation on
# the trivial block, both mapped by S; so the split has a 2-dimensional
# Gaussian and a 2-dimensional remainder part, with complex fractional
# projections.  The derivation (1, 2), (-1, 1) pairs to a real number and
# (1, 2), (-i, i) to an imaginary one, so the second cocycle has no
# generating functional and its solve carries a certificate.
_BLOCK = {
    "presentation": _Z2,
    "form": {"gram": [["25/8", "1/4+13/8i", "-1/2-5/4i", "-1/2-1/4i"],
                      ["1/4-13/8i", "13/8", "-5/4", "-1/4"],
                      ["-1/2+5/4i", "-5/4", "5/2", "1/2"],
                      ["-1/2+1/4i", "-1/4", "1/2", "1/2"]]},
    "representation": {
        "a": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
              ["2/5-2/5i", "2/5", "1/5", "-2/5"], ["1i", "-1", "2", "1"]],
        "b": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
              ["6/13-7/13i", "7/13", "-1/13", "-6/13"],
              ["2/13+15/13i", "-15/13", "30/13", "11/13"]]},
    "cocycle": {"a": ["1", "2+1i", "7/5-2/5i", "3+2i"],
                "b": ["-1", "1-1i", "21/26-8/13i", "23/13+32/13i"]},
}
_BLOCK_INFEASIBLE = {**_BLOCK, "cocycle": {
    "a": ["1", "2+1i", "7/5-2/5i", "3+2i"],
    "b": ["-1i", "1+1i", "4/13-3/26i", "36/13+19/13i"]}}


# (name, command line, scenario document) for short reports
SMALL = (
    ("validate.ok", ["validate"], catalog.scenario_doc("p2.derivations")),
    ("solve.feasible", ["solve"], catalog.scenario_doc("p2.derivations")),
    ("solve.infeasible", ["solve"], catalog.scenario_doc("zk.z2.gaussian")),
    ("decompose.decomposed", ["decompose"],
     catalog.scenario_doc("p2.derivations")),
    ("decompose.no_lk", ["decompose"],
     catalog.scenario_doc("surface.gamma2.no_lk")),
    ("decompose.no_generating_functional", ["decompose"],
     catalog.scenario_doc("p2.nongaussian")),
    ("decompose.ill_defined_psi", ["decompose"], ill_defined_psi_doc()),
    ("verify.ill_defined_psi", ["verify", "--max-word-length", "4"],
     ill_defined_psi_doc()),
    ("oracle.ill_defined_psi", ["oracle", "--max-word-length", "2"],
     ill_defined_psi_doc()),
    ("solve.block_unitary.feasible", ["solve"], _BLOCK),
    ("solve.block_unitary.infeasible", ["solve"], _BLOCK_INFEASIBLE),
    ("decompose.block_unitary.decomposed", ["decompose"], _BLOCK),
)


def _name(command, entry_id, scenario, length):
    return f"{command}.{entry_id}.{scenario}.L{length}.json"


def _run(workdir, doc, argv):
    """What `nlk <argv> <scenario file> --format json` writes."""
    path = os.path.join(workdir, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main([argv[0], path, *argv[1:], "--format", "json"])
    return out.getvalue()


def report_text(workdir, command, entry_id, scenario, length):
    return _run(workdir, catalog.scenario_doc(entry_id, scenario),
                [command, "--max-word-length", str(length)])


def validate_text(workdir, name, doc):
    return _run(workdir, doc, ["validate"])


def small_text(workdir, name, argv, doc):
    return _run(workdir, doc, argv)


@pytest.mark.parametrize("pin", PINNED, ids=lambda pin: _name(*pin))
def test_report_is_unchanged(tmp_path, pin):
    with open(os.path.join(DATA, _name(*pin)), encoding="utf-8") as fh:
        assert report_text(str(tmp_path), *pin) == fh.read()


@pytest.mark.parametrize("pin", VIOLATIONS, ids=lambda pin: pin[0])
def test_violation_report_is_unchanged(tmp_path, pin):
    text = validate_text(str(tmp_path), *pin)
    assert json.loads(text)["result"]["status"] == "violations"
    with open(os.path.join(DATA, f"validate.{pin[0]}.json"),
              encoding="utf-8") as fh:
        assert text == fh.read()


@pytest.mark.parametrize("pin", SMALL, ids=lambda pin: pin[0])
def test_small_report_is_unchanged(tmp_path, pin):
    with open(os.path.join(DATA, f"small.{pin[0]}.json"),
              encoding="utf-8") as fh:
        assert small_text(str(tmp_path), *pin) == fh.read()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        for pin in PINNED:
            with open(os.path.join(DATA, _name(*pin)), "w",
                      encoding="utf-8") as fh:
                fh.write(report_text(workdir, *pin))
        for pin in VIOLATIONS:
            with open(os.path.join(DATA, f"validate.{pin[0]}.json"), "w",
                      encoding="utf-8") as fh:
                fh.write(validate_text(workdir, *pin))
        for pin in SMALL:
            with open(os.path.join(DATA, f"small.{pin[0]}.json"), "w",
                      encoding="utf-8") as fh:
                fh.write(small_text(workdir, *pin))
