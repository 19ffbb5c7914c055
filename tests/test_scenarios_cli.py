"""Tests for scenario parsing, schema diagnostics, and the command line."""

import collections
import contextlib
import copy
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlk import catalog, cli, decompose, functionals, presentations
from nlk.presentations import GROUP
from nlk.scalars import sc
from nlk.scenarios import (
    ParseError,
    ScenarioError,
    SchemaError,
    load_scenario,
    parse_scenario,
)

import helpers as H


def z2_doc(a="1", b="1", representation=None):
    doc = {
        "presentation": {
            "kind": "group",
            "generators": ["a", "b"],
            "relators": [["a", "b", "a^-1", "b^-1"]],
        },
        "form": {"gram": [["1"]]},
        "cocycle": {"a": [a], "b": [b]},
        "options": {"max_word_length": 2},
    }
    if representation is not None:
        doc["representation"] = representation
    return doc


def write_doc(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# --- parsing --------------------------------------------------------


def test_parse_scenario_happy_path():
    scn = parse_scenario(z2_doc(b="i"))
    assert scn.presentation.kind == GROUP
    assert scn.form.dim == 1
    assert scn.cocycle_values == {"a": (sc(1),), "b": (sc(0, 1),)}
    assert scn.options.max_word_length == 2
    rep = scn.build_representation()
    assert rep.images["a"] == ((sc(1),),)
    assert scn.build_functional(scn.build_cocycle(rep)) is None


def test_parse_scenario_option_defaults():
    doc = z2_doc()
    del doc["options"]
    scn = parse_scenario(doc)
    assert scn.options.max_word_length == 4
    assert scn.options.normal_form is None


def test_unknown_top_level_field():
    doc = z2_doc()
    doc["extra"] = 1
    with pytest.raises(SchemaError) as exc:
        parse_scenario(doc)
    assert exc.value.pointer == "/extra"


def test_missing_presentation():
    with pytest.raises(SchemaError) as exc:
        parse_scenario({"form": {"gram": [["1"]]}})
    assert "presentation" in str(exc.value)


def test_cocycle_vector_dimension_pointer():
    doc = z2_doc()
    doc["cocycle"]["a"] = ["1", "0"]
    with pytest.raises(SchemaError) as exc:
        parse_scenario(doc)
    assert exc.value.pointer == "/cocycle/a"


def test_cocycle_unknown_letter_pointer():
    doc = z2_doc()
    doc["cocycle"]["q"] = ["1"]
    with pytest.raises(SchemaError) as exc:
        parse_scenario(doc)
    assert exc.value.pointer == "/cocycle/q"


def test_gram_must_be_square():
    doc = z2_doc()
    doc["form"]["gram"] = [["1", "0"]]
    with pytest.raises(SchemaError) as exc:
        parse_scenario(doc)
    assert exc.value.pointer == "/form/gram"


def test_gram_must_not_be_ragged():
    doc = z2_doc()
    doc["form"]["gram"] = [["1", "0"], ["0"]]
    with pytest.raises(SchemaError) as exc:
        parse_scenario(doc)
    assert exc.value.pointer == "/form/gram"


def test_bad_scalar_literal_pointer():
    doc = z2_doc()
    doc["form"]["gram"] = [["1+i"]]
    with pytest.raises(SchemaError) as exc:
        parse_scenario(doc)
    assert exc.value.pointer == "/form/gram/0/0"


def test_representation_unknown_generator_pointer():
    doc = z2_doc(representation={"a": [["1"]], "b": [["1"]], "c": [["1"]]})
    with pytest.raises(SchemaError) as exc:
        parse_scenario(doc)
    assert exc.value.pointer == "/representation/c"


def test_representation_missing_image_pointer():
    doc = z2_doc(representation={"a": [["1"]]})
    with pytest.raises(SchemaError) as exc:
        parse_scenario(doc)
    assert exc.value.pointer == "/representation"


def test_bad_relator_letter_wrapped():
    doc = z2_doc()
    doc["presentation"]["relators"] = [["a", "z"]]
    with pytest.raises(SchemaError) as exc:
        parse_scenario(doc)
    assert exc.value.pointer == "/presentation"


def test_functional_psi_unknown_generator():
    doc = z2_doc()
    doc["functional"] = {"psi": {"q": "1"}}
    with pytest.raises(SchemaError) as exc:
        parse_scenario(doc)
    assert exc.value.pointer == "/functional/psi/q"


def test_star_table_key_validated():
    doc = {
        "presentation": {
            "kind": "star_algebra",
            "generators": ["x"],
            "involution": {"x": "x"},
            "character": {"x": "0"},
            "rules": [],
        },
        "form": {"gram": [["1"]]},
        "functional": {"table": {"1": "0", "x q": "1"}},
    }
    with pytest.raises(SchemaError) as exc:
        parse_scenario(doc)
    assert exc.value.pointer == "/functional/table/x q"


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_scenario(str(path))
    assert exc.value.line == 1
    assert exc.value.code == "PARSE_ERROR"


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(str(tmp_path / "nope.json"))


# --- command line ---------------------------------------------------


def test_cli_solve_feasible(tmp_path, capsys):
    path = write_doc(tmp_path, z2_doc())
    assert cli.main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert "feasible" in out


def test_cli_solve_infeasible(tmp_path, capsys):
    path = write_doc(tmp_path, z2_doc(b="i"))
    assert cli.main(["solve", path]) == 2
    out = capsys.readouterr().out
    assert "infeasible" in out


def free_doc():
    """Free group on two generators: a group with no relators."""
    doc = z2_doc()
    doc["presentation"]["relators"] = []
    del doc["options"]
    return doc


def test_cli_solve_without_relators(tmp_path, capsys):
    path = write_doc(tmp_path, free_doc())
    assert cli.main(["solve", path, "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["verdict"] == "feasible"
    assert result["ambiguity_dim"] == 2
    assert result["psi"] == {"a": "-1/2", "b": "-1/2"}


def test_cli_decompose_without_relators(tmp_path, capsys):
    path = write_doc(tmp_path, free_doc())
    assert cli.main(["decompose", path]) == 0
    assert "decomposed" in capsys.readouterr().out


def test_cli_recheck_solve_without_relators(tmp_path, capsys):
    path = write_doc(tmp_path, free_doc())
    cli.main(["solve", path, "--format", "json"])
    report_path = tmp_path / "report.json"
    report_path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert cli.main(["recheck", str(report_path)]) == 0
    assert "confirmed: True" in capsys.readouterr().out


def test_cli_validate_ok(tmp_path, capsys):
    path = write_doc(tmp_path, z2_doc())
    assert cli.main(["validate", path]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_rejects_non_unitary_image(tmp_path, capsys):
    doc = z2_doc(representation={"a": [["2"]], "b": [["1"]]})
    path = write_doc(tmp_path, doc)
    assert cli.main(["validate", path]) == 2
    out = capsys.readouterr().out
    assert "NOT_STAR_COMPATIBLE" in out


def test_cli_validate_reports_cocycle_obstruction(tmp_path, capsys):
    doc = z2_doc(representation={"a": [["1"]], "b": [["-1"]]})
    path = write_doc(tmp_path, doc)
    assert cli.main(["validate", path]) == 2
    out = capsys.readouterr().out
    assert "COCYCLE_OBSTRUCTED" in out


def test_cli_validate_refuses_rule_words_with_non_string_tokens(tmp_path,
                                                               capsys):
    for side, bad in (("lhs", ["x", "x", {}]), ("lhs", [True, "x", "y"]),
                      ("word", ["y", None])):
        doc = catalog.scenario_doc("ac_not_h2z.star_algebra_definite", "main")
        rule = doc["presentation"]["rules"][0]
        (rule if side == "lhs" else rule["rhs"])[side] = bad
        pointer = "lhs" if side == "lhs" else "rhs/word"
        assert cli.main(["validate", write_doc(tmp_path, doc)]) == 1, bad
        err = capsys.readouterr().err
        assert f"SCHEMA_ERROR: at /presentation/rules/0/{pointer}:" in err


@pytest.mark.parametrize("involution, character",
                         [({"x": "x"}, {"x": "i"}),
                          ({"x": "y", "y": "x"}, {"x": "1", "y": "2"})])
def test_cli_validate_refuses_a_character_that_is_not_a_star_character(
        tmp_path, capsys, involution, character):
    doc = {"presentation": {"kind": "star_algebra",
                            "generators": list(involution),
                            "involution": involution, "character": character,
                            "rules": []},
           "form": {"gram": [["1"]]},
           "representation": {g: [["0"]] for g in involution},
           "cocycle": {g: ["0"] for g in involution}}
    assert cli.main(["validate", write_doc(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert "SCHEMA_ERROR: at /presentation: character is not a *-character" \
        in err and "Traceback" not in err


def test_cli_verify_and_oracle(tmp_path, capsys):
    path = write_doc(tmp_path, z2_doc())
    assert cli.main(["verify", path]) == 0
    assert "passed" in capsys.readouterr().out
    assert cli.main(["oracle", path]) == 0
    out = capsys.readouterr().out
    assert "passed: True" in out
    # a normal form is accepted and ignored, even one that models another
    # group or names unknown fields
    for normal_form in ({"kind": "abelian"}, {"kind": "p2", "bogus": 1}):
        doc = z2_doc()
        doc["options"]["normal_form"] = normal_form
        oracle_path = write_doc(tmp_path, doc, name="oracle.json")
        assert cli.main(["oracle", oracle_path]) == 0
        assert capsys.readouterr().out == out


@pytest.mark.parametrize("command", ["verify", "decompose"])
def test_text_early_stop_shows_the_reason_and_the_relator_readings(
        tmp_path, capsys, command):
    path = write_doc(tmp_path, H.ill_defined_psi_doc())
    assert cli.main([command, path]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert "reason: ill_defined_psi" in lines
    assert "forced Re psi(r) = 0" in lines
    assert "relator r r: K_r = 2i (re ok)" in lines
    assert "relator a b a^-1 b^-1: K_r = 0 (re ok)" in lines


def test_text_verify_without_a_functional_shows_the_embedded_solve(capsys):
    assert cli.main(["verify", "p2.nongaussian"]) == 2
    out = capsys.readouterr().out
    assert ("passed: False\nreason: no_generating_functional\ntotal solve:\n"
            "verdict: infeasible\nrelator a b a^-1 b^-1: K_r = -2i (re ok)\n"
            in out)
    assert "certificate: 1/2 0 0 0" in out


# the oracle ignores the normal_form option, but the schema still refuses
# one that is not an object with a string kind
@pytest.mark.parametrize("entry_id, name, normal_form", [
    ("freeproduct.p2_z2", "mixed", ["p2"]),
    ("zk.z2.gaussian", "feasible", {"kind": 1}),
    ("p2.derivations", "main", {"r": "r"}),
])
def test_cli_oracle_refuses_a_normal_form_it_cannot_use(tmp_path, capsys,
                                                        entry_id, name,
                                                        normal_form):
    doc = catalog.scenario_doc(entry_id, name)
    doc["options"]["normal_form"] = normal_form
    assert cli.main(["oracle", write_doc(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert ("SCHEMA_ERROR: at /options/normal_form: expected an object with "
            "a kind") in err and "Traceback" not in err


def test_catalog_scenario_doc_is_a_copy():
    first = catalog.scenario_doc("zk.z2.gaussian", "feasible")
    pristine = json.dumps(first, sort_keys=True)
    first["presentation"]["generators"].append("c")
    first["presentation"]["relators"].clear()
    assert catalog.run_entry("zk.z2.gaussian").ok
    again = catalog.scenario_doc("zk.z2.gaussian", "feasible")
    assert json.dumps(again, sort_keys=True) == pristine


def test_cli_decompose_mixed_entry(tmp_path, capsys):
    doc = catalog.scenario_doc("freeproduct.p2_z2", "mixed")
    path = write_doc(tmp_path, doc)
    assert cli.main(["decompose", path]) == 0
    assert "decomposed" in capsys.readouterr().out


def test_cli_decompose_inconsistency_exits_with_a_message(tmp_path, capsys,
                                                          monkeypatch):
    real_solve = decompose.solve_generating_functional

    def shifted_solve(cocycle):
        # a part functional whose real parts no longer split psi
        out = real_solve(cocycle)
        psi = out.functional
        shifted = {g: v + sc(1) for g, v in psi.values.items()}
        return out._replace(
            functional=functionals.GroupFunctional(psi.cocycle, shifted))

    monkeypatch.setattr(decompose, "solve_generating_functional",
                        shifted_solve)
    path = write_doc(tmp_path, z2_doc())
    assert cli.main(["decompose", path]) == 1
    err = capsys.readouterr().err
    assert "DECOMPOSITION_INCONSISTENT" in err and "Traceback" not in err


def test_cli_decompose_no_lk_entry(capsys):
    assert cli.main(["decompose", "surface.gamma2.no_lk"]) == 2
    assert "no_lk" in capsys.readouterr().out


def test_cli_missing_target(capsys):
    assert cli.main(["solve", "no-such-target"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_entry_without_main_scenario(capsys):
    assert cli.main(["solve", "freeproduct.p2_z2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_parse_error_exit(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json", encoding="utf-8")
    assert cli.main(["solve", str(path)]) == 1
    assert "PARSE_ERROR" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "recheck"])
def test_cli_refuses_json_nested_past_the_parser(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert cli.main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_schema_error_exit(tmp_path, capsys):
    doc = z2_doc()
    doc["form"]["gram"] = [["1+i"]]
    path = write_doc(tmp_path, doc)
    assert cli.main(["solve", str(path)]) == 1
    assert "SCHEMA_ERROR" in capsys.readouterr().err


def test_cli_rejects_exponent_literal(tmp_path, capsys):
    path = write_doc(tmp_path, z2_doc(b="1e999999999"))
    assert cli.main(["solve", path]) == 1
    err = capsys.readouterr().err
    assert "SCHEMA_ERROR" in err and "/cocycle/b/0" in err
    assert "Traceback" not in err


def test_cli_names_the_first_occurrence_of_a_repeated_bad_literal(tmp_path,
                                                                  capsys):
    # "1/0" stands in both cocycle vectors, after "1" was read by the form
    doc = z2_doc(a="1/0", b="1/0")
    assert cli.main(["validate", write_doc(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: SCHEMA_ERROR: at /cocycle/a/0: invalid scalar "
                   "literal '1/0': zero denominator\n")


@pytest.mark.parametrize("value", [["1"], {"re": "1"}, 1, 1.5, True, None])
@pytest.mark.parametrize("position", ["form", "cocycle"])
def test_cli_refuses_a_non_string_in_a_scalar_position(tmp_path, capsys,
                                                        value, position):
    # at /form/gram/0/0 no literal has been read yet; at /cocycle/b/0 "1"
    # has, twice
    doc = z2_doc()
    if position == "form":
        doc["form"]["gram"] = [[value]]
        pointer = "/form/gram/0/0"
    else:
        doc["cocycle"]["b"] = [value]
        pointer = "/cocycle/b/0"
    assert cli.main(["validate", write_doc(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: SCHEMA_ERROR: at {pointer}: expected a "
                            f"scalar string\n")


def test_each_parse_reads_a_literal_once_and_keeps_nothing():
    doc = z2_doc(a="1/2", b="1/2")
    doc["representation"] = {"a": [["1/2"]], "b": [["-1"]]}
    first, second = parse_scenario(doc), parse_scenario(doc)
    half = first.cocycle_values["a"][0]
    assert half == sc("1/2")
    # one Scalar for every "1/2" of a document, a new one for the next
    assert first.cocycle_values["b"][0] is half
    assert first.representation_images["a"][0][0] is half
    assert second.cocycle_values["a"][0] is not half
    assert second.cocycle_values == first.cocycle_values


def test_cli_budget_error_names_the_looping_rule(tmp_path, capsys, monkeypatch):
    doc = {
        "presentation": {
            "kind": "star_algebra",
            "generators": ["x", "y"],
            "involution": {"x": "x", "y": "y"},
            "character": {"x": "0", "y": "0"},
            "rules": [{"lhs": ["x", "y"],
                       "rhs": {"coeff": "1", "word": ["y", "x"]}}],
        },
        "form": {"gram": [["1"]]},
        # the zero-valued key declares psi on every word up to length 4
        "functional": {"table": {"1": "0", "y y y y": "0"}},
    }
    path = write_doc(tmp_path, doc)
    monkeypatch.setattr(presentations, "STEP_BUDGET", 2)
    assert cli.main(["verify", path]) == 1
    err = capsys.readouterr().err
    assert "REDUCTION_BUDGET_EXCEEDED" in err and "Traceback" not in err
    # x x x y needs three swaps to reach y x x x
    assert "start word ['x', 'x', 'x', 'y']" in err
    assert "last rule applied x y -> (1)*y x" in err
    assert "3 steps taken" in err
    monkeypatch.undo()
    assert cli.main(["verify", path]) == 0


def test_cli_recheck_rejects_tampered_verify_witness(tmp_path, capsys):
    doc = {
        "presentation": {
            "kind": "star_algebra",
            "generators": ["x", "y"],
            "involution": {"x": "x", "y": "y"},
            "character": {"x": "0", "y": "0"},
            "rules": [],
        },
        "form": {"gram": [["1"]]},
        # the zero-valued key declares psi on every word up to length 4
        "functional": {"table": {"1": "0", "x x": "1", "y y y y": "0"}},
    }
    path = write_doc(tmp_path, doc)
    assert cli.main(["verify", path, "--format", "json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["witness"] == {
        "identity": "coboundary", "a": ["x"], "b": ["x"],
        "lhs": "-1", "rhs": "0"}
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report), encoding="utf-8")
    assert cli.main(["recheck", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert ("re-ran verify at the stored max_word_length 4: result and exit "
            "code reproduced") in out
    for field, value in (("rhs", "12345"), ("a", ["y"]), ("lhs", "-2")):
        tampered = json.loads(json.dumps(report))
        tampered["result"]["witness"][field] = value
        report_path.write_text(json.dumps(tampered), encoding="utf-8")
        assert cli.main(["recheck", str(report_path)]) == 2
        out = capsys.readouterr().out
        assert "confirmed: False" in out
        assert f"stored /result/witness/{field}" in out
    tampered = json.loads(json.dumps(report))
    tampered["result"]["counts"]["hermitian"] += 1
    report_path.write_text(json.dumps(tampered), encoding="utf-8")
    assert cli.main(["recheck", str(report_path)]) == 2
    assert "stored /result/counts/hermitian = " in capsys.readouterr().out


def json_report(capsys, argv):
    cli.main(argv + ["--format", "json"])
    return json.loads(capsys.readouterr().out)


def recheck_report(tmp_path, capsys, report):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    code = cli.main(["recheck", str(path)])
    return code, capsys.readouterr().out


def test_cli_recheck_rejects_a_counterexample_naming_two_elements(tmp_path,
                                                                   capsys):
    report = json_report(capsys, ["oracle", "p2.nongaussian"])
    assert recheck_report(tmp_path, capsys, report)[0] == 0
    # 1 and a are different elements of p2, so their folds may differ
    report["result"]["counterexample"].update(
        word_a=[], word_b=["a"], value_a="0", value_b="-1/2")
    code, out = recheck_report(tmp_path, capsys, report)
    assert code == 2 and "confirmed: False" in out
    assert ('stored /result/counterexample/value_b = "-1/2" differs from the '
            're-run\'s "-2i"') in out


def test_cli_recheck_compares_an_oracle_pass_with_the_re_run(tmp_path, capsys):
    report = json_report(capsys, ["oracle", "p2.derivations"])
    code, out = recheck_report(tmp_path, capsys, report)
    assert code == 0 and ("re-ran oracle: result and exit code "
                          "reproduced") in out
    for field, value in (("passed", False), ("pairs", 999), ("words", 1)):
        tampered = json.loads(json.dumps(report))
        tampered["result"][field] = value
        code, out = recheck_report(tmp_path, capsys, tampered)
        assert code == 2 and "confirmed: False" in out, field
        assert f"stored /result/{field} = " in out


def test_cli_recheck_bounds_the_stored_word_length(tmp_path, capsys):
    path = write_doc(tmp_path,
                     catalog.scenario_doc("zk.z2.gaussian", "feasible"))
    verify = json_report(capsys, ["verify", path])
    oracle = json_report(capsys, ["oracle", "p2.derivations"])
    for report in (verify, oracle):
        # a re-run at length 30 would enumerate about 10^14 words
        for bad in (30, 13, -1, "4", True, 4.0, None):
            tampered = json.loads(json.dumps(report))
            tampered["result"]["max_word_length"] = bad
            code, out = recheck_report(tmp_path, capsys, tampered)
            assert code == 2, (report["command"], bad)
            assert "0..12" in out
        assert recheck_report(tmp_path, capsys, report)[0] == 0


def test_cli_verify_refuses_to_read_psi_past_the_table(tmp_path, capsys):
    # the table declares x^2 .. x^8; at length 9 the missing x^9 used to be
    # read as 0, which made a false counterexample a = x, b = x^8
    doc = catalog.scenario_doc("ac_not_h2z.star_algebra_definite", "main")
    path = write_doc(tmp_path, doc)
    assert cli.main(["verify", path, "--max-word-length", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: TABLE_SUPPORT_EXCEEDED: ")
    assert ("canonical word ['x', 'x', 'x', 'x', 'x', 'x', 'x', 'x', 'x'] "
            "of length 9, past the table's support 8") in captured.err
    report = json_report(capsys, ["verify", path, "--max-word-length", "8"])
    assert report["exit_code"] == 0
    report["result"]["max_word_length"] = 9
    code, out = recheck_report(tmp_path, capsys, report)
    assert code == 2
    assert ("verify at the stored max_word_length 9 fails on the stored "
            "scenario: TABLE_SUPPORT_EXCEEDED: psi is read") in out


def test_cli_recheck_refuses_a_reason_the_command_never_gives(tmp_path,
                                                               capsys):
    report = json_report(capsys, ["oracle", "p2.derivations"])
    report["result"]["reason"] = "no_generating_functional"
    code, out = recheck_report(tmp_path, capsys, report)
    assert code == 2 and "confirmed: False" in out
    report = json_report(capsys, ["verify", "p2.nongaussian"])
    assert report["result"]["reason"] == "no_generating_functional"
    assert recheck_report(tmp_path, capsys, report)[0] == 0
    report["result"]["passed"] = True
    assert recheck_report(tmp_path, capsys, report)[0] == 2


@pytest.mark.parametrize("stored", [0, 1, 2, "0", "2", True, False, None])
def test_cli_recheck_refuses_an_edited_solve_exit_code(tmp_path, capsys,
                                                       stored):
    report = json_report(capsys, ["solve", "zk.z2.gaussian"])
    assert report["result"]["verdict"] == "infeasible"
    assert report["exit_code"] == 2
    report["exit_code"] = stored
    code, out = recheck_report(tmp_path, capsys, report)
    if stored == 2 and type(stored) is int:
        assert code == 0 and "exit_code" not in out
    else:
        assert code == 2 and "confirmed: False" in out
        assert (f"stored /exit_code = {json.dumps(stored)} differs from the "
                f"re-run's 2") in out


def test_cli_recheck_refuses_an_edited_verify_exit_code(tmp_path, capsys):
    passing = write_doc(tmp_path,
                        catalog.scenario_doc("zk.z2.gaussian", "feasible"),
                        "pass.json")
    failing = write_doc(tmp_path, catalog.scenario_doc(
        "ac_not_h2z.star_algebra_definite", "flipped_sign"), "fail.json")
    for path, expected in ((passing, 0), (failing, 2)):
        report = json_report(capsys, ["verify", path])
        assert report["exit_code"] == expected
        assert report["result"]["passed"] is (expected == 0)
        assert recheck_report(tmp_path, capsys, report)[0] == 0
        report["exit_code"] = 2 - expected
        code, out = recheck_report(tmp_path, capsys, report)
        assert code == 2 and "confirmed: False" in out
        assert (f"stored /exit_code = {2 - expected} differs from the "
                f"re-run's {expected}") in out


def test_cli_recheck_refuses_an_edited_early_stop_exit_code(tmp_path, capsys):
    report = json_report(capsys, ["verify", "p2.nongaussian"])
    assert report["result"]["reason"] == "no_generating_functional"
    assert report["exit_code"] == 2
    report["exit_code"] = 0
    code, out = recheck_report(tmp_path, capsys, report)
    assert code == 2
    assert "stored /exit_code = 0 differs from the re-run's 2" in out


def refused(tmp_path, capsys, report):
    """The recheck output of a report that must not be confirmed."""
    code, out = recheck_report(tmp_path, capsys, report)
    assert code == 2 and "confirmed: False" in out
    return out


def test_cli_recheck_derives_the_decompose_verdict(tmp_path, capsys):
    report = json_report(capsys, ["decompose", "p2.derivations"])
    assert report["result"]["verdict"] == "decomposed"
    assert recheck_report(tmp_path, capsys, report)[0] == 0
    # both parts are feasible, so the verdict and exit code agree but lie
    report["result"]["verdict"] = "no_lk"
    report["exit_code"] = 2
    out = refused(tmp_path, capsys, report)
    assert ('stored /result/verdict = "no_lk" differs from the re-run\'s '
            '"decomposed"') in out
    no_lk = json_report(capsys, ["decompose", "surface.gamma2.no_lk"])
    assert recheck_report(tmp_path, capsys, no_lk)[0] == 0
    no_lk["result"]["psi_remainder"] = no_lk["result"]["psi_total"]
    assert "stored /result/psi_remainder = {" in refused(tmp_path, capsys,
                                                          no_lk)


def test_cli_recheck_derives_the_decompose_part_functionals(tmp_path, capsys):
    report = json_report(capsys, ["decompose", "p2.derivations"])
    five = {"a": "5", "b": "0", "r": "0"}
    report["result"]["psi_gaussian"] = five
    report["result"]["psi_total"] = dict(five)
    out = refused(tmp_path, capsys, report)
    assert ('stored /result/psi_gaussian/a = "5" differs from the '
            're-run\'s "0"') in out


def mixed_doc_with_psi():
    """The free product's mixed scenario with a supplied psi: the solved
    parts plus the derivation 3i on c, whose exponent sums all vanish."""
    doc = catalog.scenario_doc("freeproduct.p2_z2", "mixed")
    doc["functional"] = {"psi": {"a": "0", "b": "0", "c": "-1/2+3i",
                                 "d": "-1/2", "r": "-1/2"}}
    return doc


def test_cli_recheck_derives_the_decompose_psi_source(tmp_path, capsys):
    report = json_report(capsys, ["decompose", "p2.derivations"])
    assert report["result"]["psi_source"] == "solver"
    report["result"]["psi_source"] = "scenario"
    out = refused(tmp_path, capsys, report)
    assert 'stored /result/psi_source = "scenario" differs' in out
    path = write_doc(tmp_path, mixed_doc_with_psi(), "mixed.json")
    supplied = json_report(capsys, ["decompose", path])
    assert supplied["result"]["psi_source"] == "scenario"
    assert recheck_report(tmp_path, capsys, supplied)[0] == 0
    # a second derivation on c rebuilds, but is not the scenario's psi
    for key, value in (("psi_total", "-1/2+4i"), ("psi_gaussian", "-1/2+4i"),
                       ("derivation_correction", "4i")):
        supplied["result"][key]["c"] = value
    out = refused(tmp_path, capsys, supplied)
    assert 'stored /result/derivation_correction/c = "4i" differs' in out


def test_cli_recheck_derives_the_decompose_correction(tmp_path, capsys):
    report = json_report(capsys, ["decompose", "p2.derivations"])
    result = report["result"]
    assert result["derivation_correction"] == {"a": "0", "b": "0", "r": "0"}
    tampered = json.loads(json.dumps(report))
    tampered["result"]["derivation_correction"]["a"] = "i"
    assert 'stored /result/derivation_correction/a = "i"' in refused(
        tmp_path, capsys, tampered)
    # edits that keep psi_G = part psi + correction and psi_G + psi_R = psi
    for value in ("1", "i"):
        tampered = json.loads(json.dumps(report))
        for key in ("derivation_correction", "psi_gaussian", "psi_total"):
            tampered["result"][key]["a"] = value
        assert f'stored /result/derivation_correction/a = "{value}"' in \
            refused(tmp_path, capsys, tampered)


def test_cli_recheck_refuses_a_feasible_psi_without_the_forced_real_parts(
        tmp_path, capsys):
    path = write_doc(tmp_path,
                     catalog.scenario_doc("zk.z2.gaussian", "feasible"))
    report = json_report(capsys, ["solve", path])
    assert report["result"]["psi"] == {"a": "-1/2", "b": "-1/2"}
    assert recheck_report(tmp_path, capsys, report)[0] == 0
    # the real parts cancel in the commutator's fold
    report["result"]["psi"] = {"a": "1/2", "b": "-3/2"}
    out = refused(tmp_path, capsys, report)
    assert 'stored /result/psi/a = "1/2" differs from the re-run\'s "-1/2"' \
        in out
    # a generator that no relator mentions is not seen by any fold; the
    # catalog hands out its own document, so the edit goes to a copy
    doc = json.loads(json.dumps(
        catalog.scenario_doc("zk.z2.gaussian", "feasible")))
    doc["presentation"]["generators"].append("c")
    report = json_report(capsys, ["solve", write_doc(tmp_path, doc, "c.json")])
    assert report["result"]["psi"]["c"] == "0"
    assert recheck_report(tmp_path, capsys, report)[0] == 0
    report["result"]["psi"]["c"] = "5"
    out = refused(tmp_path, capsys, report)
    assert 'stored /result/psi/c = "5" differs from the re-run\'s "0"' in out


def test_cli_recheck_confirms_a_no_lk_psi_total_from_the_solver(tmp_path,
                                                                capsys):
    report = json_report(capsys, ["decompose", "surface.gamma2.no_lk"])
    result = report["result"]
    assert (result["verdict"], result["psi_source"]) == ("no_lk", "solver")
    assert recheck_report(tmp_path, capsys, report)[0] == 0
    result["psi_total"] = {g: "7" for g in result["psi_total"]}
    out = refused(tmp_path, capsys, report)
    assert 'stored /result/psi_total/a1 = "7" differs from the re-run\'s ' \
        '"-1"' in out


def test_cli_recheck_refuses_a_command_that_is_not_a_string(tmp_path, capsys):
    report = json_report(capsys, ["solve", "zk.z2.gaussian"])
    for command in ([], {}, ["solve"], None):
        out = refused(tmp_path, capsys, dict(report, command=command))
        assert f"no recheck for command {command!r}" in out


def test_cli_recheck_refuses_a_report_of_the_wrong_shape(tmp_path, capsys):
    report = json_report(capsys, ["decompose", "p2.derivations"])
    for field, value in (("parts", ["gaussian"]), ("split", "x"),
                         (None, [])):
        tampered = json.loads(json.dumps(report))
        if field is None:
            tampered["result"] = value
        else:
            tampered["result"][field] = value
        code, out = recheck_report(tmp_path, capsys, tampered)
        assert code == 2 and "confirmed: False" in out, field


def test_cli_negative_word_length(tmp_path, capsys):
    path = write_doc(tmp_path, z2_doc())
    assert cli.main(["verify", path, "--max-word-length", "-1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_word_length_above_the_schema_cap(tmp_path, capsys):
    path = write_doc(tmp_path, z2_doc())
    assert cli.main(["verify", path, "--max-word-length", "13"]) == 1
    err = capsys.readouterr().err
    assert "0..12" in err and "Traceback" not in err
    # validate ignores the length, so the cap itself is accepted cheaply
    assert cli.main(["validate", path, "--max-word-length", "12"]) == 0


@pytest.mark.parametrize("flag", [True, False])
def test_cli_refuses_a_boolean_word_length(tmp_path, capsys, flag):
    # JSON true and false are not integers, though Python's bool is an int
    doc = z2_doc()
    doc["options"]["max_word_length"] = flag
    path = write_doc(tmp_path, doc)
    assert cli.main(["verify", path, "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("SCHEMA_ERROR: at /options/max_word_length: expected an integer "
            "in 0..12") in captured.err
    assert "Traceback" not in captured.err


def test_cli_verify_refuses_more_words_than_the_budget(tmp_path, capsys,
                                                      monkeypatch):
    path = write_doc(tmp_path, z2_doc())
    # Z^2 has 53 words up to length 3 and 161 up to length 4
    monkeypatch.setattr(presentations, "WORD_BUDGET", 100)
    assert cli.main(["verify", path, "--max-word-length", "3"]) == 0
    capsys.readouterr()
    assert cli.main(["verify", path, "--max-word-length", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: WORD_BUDGET_EXCEEDED: listing the "
                                   "words up to length 4 passed the budget "
                                   "of 100 words at ")
    assert "Traceback" not in captured.err


def test_cli_json_reports_are_deterministic(tmp_path, capsys):
    path = write_doc(tmp_path, z2_doc())
    assert cli.main(["solve", path, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["solve", path, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert set(report) == {"command", "exit_code", "result", "scenario"}
    assert report["command"] == "solve"
    assert report["exit_code"] == 0
    assert report["scenario"] == z2_doc()


def test_cli_parser_survives_a_usage_error(tmp_path, capsys):
    # one parser serves every call in a process
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as info:
        cli.main(["solve", "--format", "yaml"])
    assert info.value.code == 1
    capsys.readouterr()
    path = write_doc(tmp_path, z2_doc())
    assert cli.main(["solve", path, "--format", "json"]) == 0
    first = capsys.readouterr()
    assert cli.main(["solve", path, "--format", "json"]) == 0
    assert capsys.readouterr() == first


def test_cli_recheck_round_trip(tmp_path, capsys):
    path = write_doc(tmp_path, z2_doc())
    cli.main(["solve", path, "--format", "json"])
    report = capsys.readouterr().out
    report_path = tmp_path / "report.json"
    report_path.write_text(report, encoding="utf-8")
    assert cli.main(["recheck", str(report_path)]) == 0
    assert "confirmed: True" in capsys.readouterr().out


def test_cli_recheck_rejects_tampered_report(tmp_path, capsys):
    path = write_doc(tmp_path, z2_doc())
    cli.main(["solve", path, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    doc["result"]["psi"]["a"] = "5"
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["recheck", str(report_path)]) == 2
    assert "confirmed: False" in capsys.readouterr().out


def test_cli_recheck_infeasible_certificate(tmp_path, capsys):
    path = write_doc(tmp_path, z2_doc(b="i"))
    cli.main(["solve", path, "--format", "json"])
    report = capsys.readouterr().out
    report_path = tmp_path / "report.json"
    report_path.write_text(report, encoding="utf-8")
    assert cli.main(["recheck", str(report_path)]) == 0
    assert "confirmed: True" in capsys.readouterr().out


def test_cli_recheck_refuses_an_edited_solve_psi_reading_or_system(
        tmp_path, capsys):
    feasible = json_report(capsys, ["solve", write_doc(tmp_path, z2_doc())])
    infeasible = json_report(capsys, ["solve", "zk.z2.gaussian"])
    for report, path, value in (
            (feasible, ("psi", "a"), "0"),
            (infeasible, ("obstructions", 0, "K_r"), "-3"),
            (infeasible, ("system", "matrix", 0, 0), "1"),
            (infeasible, ("system", "rhs", 0), "1")):
        assert recheck_report(tmp_path, capsys, report)[0] == 0
        tampered = json.loads(json.dumps(report))
        node = tampered["result"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        pointer = "/result/" + "/".join(map(str, path))
        assert f'stored {pointer} = "{value}"' in refused(tmp_path, capsys,
                                                          tampered)


def test_cli_refuses_a_supplied_psi_that_is_no_functional(tmp_path, capsys):
    path = write_doc(tmp_path, H.ill_defined_psi_doc())
    for command, fields in (("verify", {"passed": False}),
                            ("decompose", {"verdict": "no_lk"})):
        report = json_report(capsys, [command, path])
        assert report["exit_code"] == 2, command
        result = report["result"]
        assert result["reason"] == "ill_defined_psi"
        assert {k: result[k] for k in fields} == fields
        assert result["forced_real_parts"] == {"a": "-1/2", "b": "-1/2",
                                               "r": "0"}
        assert [(r["relator"], r["K_r"]) for r in result["readings"]] == [
            (["a", "b", "a^-1", "b^-1"], "0"), (["r", "r"], "2i"),
            (["r", "a", "r", "a"], "2i"), (["r", "b", "r", "b"], "2i")]
        assert recheck_report(tmp_path, capsys, report)[0] == 0
        result["readings"][1]["K_r"] = "0"
        assert 'stored /result/readings/1/K_r = "0"' in refused(
            tmp_path, capsys, report)
    # the oracle folds the supplied psi as it is, and exhibits the defect
    report = json_report(capsys, ["oracle", path, "--max-word-length", "2"])
    result = report["result"]
    assert (report["exit_code"], result["psi_source"]) == (2, "scenario")
    assert result["counterexample"] == {
        "evaluator": "psi", "word_a": [], "word_b": ["r", "r"],
        "value_a": "0", "value_b": "2i"}
    assert recheck_report(tmp_path, capsys, report)[0] == 0


def test_cli_refuses_a_supplied_psi_without_the_forced_real_parts(tmp_path,
                                                                  capsys):
    # the real parts cancel in the commutator's fold, so no relator reading
    # sees them
    doc = z2_doc()
    doc["functional"] = {"psi": {"a": "1/2", "b": "-3/2"}}
    report = json_report(capsys, ["verify", write_doc(tmp_path, doc)])
    assert report["exit_code"] == 2
    result = report["result"]
    assert result["reason"] == "ill_defined_psi"
    assert result["readings"][0]["K_r"] == "0"
    assert result["forced_real_parts"] == {"a": "-1/2", "b": "-1/2"}
    doc["functional"] = {"psi": {"a": "-1/2+5i", "b": "-1/2"}}
    report = json_report(capsys, ["verify", write_doc(tmp_path, doc)])
    assert (report["exit_code"], report["result"]["passed"]) == (0, True)


def test_cli_catalog_list(capsys):
    assert cli.main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == len(catalog.entry_ids())
    for eid in catalog.entry_ids():
        assert any(ln.startswith(f"{eid}:") for ln in lines)


def test_cli_catalog_run_entry(capsys):
    assert cli.main(["catalog", "run", "p2.derivations"]) == 0
    out = capsys.readouterr().out
    assert "p2.derivations: ok" in out


def test_catalog_mismatch_is_reported(capsys, monkeypatch):
    entry = catalog.get_entry("ac_not_h2z.star_algebra")
    checks = tuple((name, "2", probe) if name == "big_K_kernel_tensor"
                   else (name, expected, probe)
                   for name, expected, probe in entry.checks)
    monkeypatch.setitem(catalog.ENTRIES, entry.entry_id,
                        entry._replace(checks=checks))
    res = catalog.run_entry(entry.entry_id)
    assert res.ok is False
    assert res.mismatches() == [
        "ac_not_h2z.star_algebra: big_K_kernel_tensor: expected '2', "
        "got '1'"]
    assert cli.main(["catalog", "run", entry.entry_id]) == 2
    out = capsys.readouterr().out
    assert "ac_not_h2z.star_algebra: MISMATCH" in out
    assert "  big_K_kernel_tensor: MISMATCH" in out


def test_catalog_run_computes_each_result_once(monkeypatch):
    calls = collections.Counter()
    for name in ("parse_scenario", "solve_generating_functional",
                 "confirm_solve_result", "split",
                 "verify_schurmann_triple",
                 "brute_force_welldefinedness_oracle", "attempt_lk"):
        def counted(subject, *rest, _fn=getattr(catalog, name), _name=name):
            calls[_name, id(subject)] += 1
            return _fn(subject, *rest)
        monkeypatch.setattr(catalog, name, counted)
    for entry_id in catalog.entry_ids():
        calls.clear()
        assert catalog.run_entry(entry_id).ok
        # every result object lives in the run's memo, so ids stay distinct
        assert calls and max(calls.values()) == 1, (entry_id, calls)


def test_cli_catalog_run_unknown_entry(capsys):
    assert cli.main(["catalog", "run", "nope"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_classify_entry(capsys):
    assert cli.main(["classify", "p2.derivations"]) == 0
    out = capsys.readouterr().out
    assert "checks ok: True" in out
    assert cli.main(["classify", "p2.derivations", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["properties"]
    assert doc["result"]["diagram_conflicts"] == []


def test_cli_classify_unknown_entry(capsys):
    assert cli.main(["classify", "nope"]) == 1
    assert "error:" in capsys.readouterr().err


def test_catalog_scenario_doc_accessors():
    ids = catalog.entry_ids()
    assert len(ids) == 9
    entry = catalog.get_entry(ids[0])
    assert entry.entry_id == ids[0]
    with pytest.raises(KeyError):
        catalog.get_entry("nope")
    with pytest.raises(KeyError):
        catalog.scenario_doc("freeproduct.p2_z2", "nope")
    doc = catalog.scenario_doc("surface.gamma2.no_lk")
    scn = parse_scenario(doc)
    assert scn.form.dim == 2


# --- edited catalog scenarios ---------------------------------------

CATALOG_SCENARIOS = [(eid, name) for eid in catalog.entry_ids()
                     for name in catalog.get_entry(eid).scenarios]


def _nodes(node, path=()):
    """(key path, object) for every object under node, and (key path, None)
    for every leaf."""
    if isinstance(node, dict):
        yield path, node
        for key in node:
            yield from _nodes(node[key], path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _nodes(item, path + (i,))
    else:
        yield path, None


LEAF_VALUES = st.one_of(
    st.sampled_from([None, True, False, [], [[]], [["1"], []], [[["0"]]], {}]),
    st.sampled_from(["", "1/0", "0", "-1/2", "1+i"]),
    st.floats(), st.integers(-2, 2))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.sampled_from(CATALOG_SCENARIOS), st.data())
def test_an_edited_catalog_scenario_never_gives_a_traceback(scenario, draws):
    """One or two leaves of a catalog scenario set to null, a bool, a
    number, an empty, bad or other literal, nested lists or one of the
    document's own objects: every scenario command exits 0, 1 or 2, and no
    exception escapes `cli.main`."""
    doc = catalog.scenario_doc(*scenario)
    found = list(_nodes(doc))
    leaves = [path for path, obj in found if obj is None and path]
    objects = [obj for _, obj in found if obj is not None]
    # half the edits past the presentation, whose names most edits break
    values = [path for path in leaves if path[0] != "presentation"]
    for _ in range(draws.draw(st.integers(1, 2))):
        *parents, key = draws.draw(st.sampled_from(leaves)
                                   | st.sampled_from(values))
        node = doc
        for k in parents:
            node = node[k]
        node[key] = draws.draw(
            LEAF_VALUES | st.sampled_from(objects).map(copy.deepcopy))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scn.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in ("validate", "solve", "decompose", "verify", "oracle"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main([command, path, "--max-word-length", "2"])
            assert code in (0, 1, 2), (command, code, err.getvalue())
