"""Tests for scenario parsing, schema diagnostics, and the command line."""

import collections
import json

import pytest

from nlk import catalog, cli, decompose, presentations
from nlk.presentations import GROUP
from nlk.scalars import sc
from nlk.scenarios import (
    ParseError,
    ScenarioError,
    SchemaError,
    load_scenario,
    parse_scenario,
)


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


def test_cli_verify_and_oracle(tmp_path, capsys):
    path = write_doc(tmp_path, z2_doc())
    assert cli.main(["verify", path]) == 0
    assert "passed" in capsys.readouterr().out
    doc = z2_doc()
    doc["options"]["normal_form"] = {"kind": "abelian"}
    oracle_path = write_doc(tmp_path, doc, name="oracle.json")
    assert cli.main(["oracle", oracle_path]) == 0
    assert "passed" in capsys.readouterr().out


def test_cli_oracle_needs_normal_form(tmp_path, capsys):
    path = write_doc(tmp_path, z2_doc())
    assert cli.main(["oracle", path]) == 1
    assert "NO_NORMAL_FORM" in capsys.readouterr().err


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
        return out._replace(functional=psi.with_values(shifted))

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


def test_cli_rejects_malformed_step_budget(tmp_path, capsys, monkeypatch):
    doc = {
        "presentation": {
            "kind": "star_algebra",
            "generators": ["x"],
            "involution": {"x": "x"},
            "character": {"x": "0"},
            "rules": [],
        },
        "form": {"gram": [["1"]]},
        "functional": {"table": {"1": "0", "x x": "1"}},
    }
    path = write_doc(tmp_path, doc)
    for bad in ("abc", "-5", "1.5", "1e3", "0x10", ""):
        monkeypatch.setenv("NLK_STEP_BUDGET", bad)
        assert cli.main(["verify", path]) == 1
        err = capsys.readouterr().err
        assert "NLK_STEP_BUDGET" in err and "Traceback" not in err
    monkeypatch.setenv("NLK_STEP_BUDGET", " 50 ")
    assert cli.main(["verify", path]) != 1


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
        "functional": {"table": {"1": "0"}},
    }
    path = write_doc(tmp_path, doc)
    monkeypatch.setenv("NLK_STEP_BUDGET", "2")
    assert cli.main(["verify", path]) == 1
    err = capsys.readouterr().err
    assert "REDUCTION_BUDGET_EXCEEDED" in err and "Traceback" not in err
    # x x x y needs three swaps to reach y x x x
    assert "start word ['x', 'x', 'x', 'y']" in err
    assert "last rule applied x y -> (1)*y x" in err
    assert "3 steps taken" in err
    monkeypatch.delenv("NLK_STEP_BUDGET")
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
        "functional": {"table": {"1": "0", "x x": "1"}},
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
    assert "coboundary violation re-derived at a = x; b = x" in out
    for field, value in (("rhs", "12345"), ("a", ["y"]), ("lhs", "-2")):
        tampered = json.loads(json.dumps(report))
        tampered["result"]["witness"][field] = value
        report_path.write_text(json.dumps(tampered), encoding="utf-8")
        assert cli.main(["recheck", str(report_path)]) == 2
        assert "confirmed: False" in capsys.readouterr().out
    tampered = json.loads(json.dumps(report))
    tampered["result"]["counts"]["hermitian"] += 1
    report_path.write_text(json.dumps(tampered), encoding="utf-8")
    assert cli.main(["recheck", str(report_path)]) == 2
    assert "stored counts" in capsys.readouterr().out


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
    assert code == 2
    assert "confirmed: False" in out and "different elements" in out


def test_cli_recheck_compares_an_oracle_pass_with_the_re_run(tmp_path, capsys):
    report = json_report(capsys, ["oracle", "p2.derivations"])
    code, out = recheck_report(tmp_path, capsys, report)
    assert code == 0 and "oracle re-ran clean over 871 pairs" in out
    for field, value in (("passed", False), ("pairs", 999), ("words", 1)):
        tampered = json.loads(json.dumps(report))
        tampered["result"][field] = value
        code, out = recheck_report(tmp_path, capsys, tampered)
        assert code == 2 and "confirmed: False" in out, field


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
        assert f"stored exit_code {stored!r} differs from 2" in out


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
        assert (f"stored exit_code {2 - expected} differs from {expected}"
                in out)


def test_cli_recheck_refuses_an_edited_early_stop_exit_code(tmp_path, capsys):
    report = json_report(capsys, ["verify", "p2.nongaussian"])
    assert report["result"]["reason"] == "no_generating_functional"
    assert report["exit_code"] == 2
    report["exit_code"] = 0
    code, out = recheck_report(tmp_path, capsys, report)
    assert code == 2 and "stored exit_code 0 differs from 2" in out


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
    assert "stored verdict 'no_lk' differs from the derived 'decomposed'" in out
    no_lk = json_report(capsys, ["decompose", "surface.gamma2.no_lk"])
    assert recheck_report(tmp_path, capsys, no_lk)[0] == 0
    no_lk["result"]["psi_remainder"] = no_lk["result"]["psi_total"]
    assert "part functionals" in refused(tmp_path, capsys, no_lk)


def test_cli_recheck_derives_the_decompose_part_functionals(tmp_path, capsys):
    report = json_report(capsys, ["decompose", "p2.derivations"])
    five = {"a": "5", "b": "0", "r": "0"}
    report["result"]["psi_gaussian"] = five
    report["result"]["psi_total"] = dict(five)
    out = refused(tmp_path, capsys, report)
    assert "stored part psi(a) differs from the part solution's" in out


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
    assert "stored psi_source 'scenario' differs from the derived" in out
    path = write_doc(tmp_path, mixed_doc_with_psi(), "mixed.json")
    supplied = json_report(capsys, ["decompose", path])
    assert supplied["result"]["psi_source"] == "scenario"
    assert recheck_report(tmp_path, capsys, supplied)[0] == 0
    # a second derivation on c rebuilds, but is not the scenario's psi
    for key, value in (("psi_total", "-1/2+4i"), ("psi_gaussian", "-1/2+4i"),
                       ("derivation_correction", "4i")):
        supplied["result"][key]["c"] = value
    out = refused(tmp_path, capsys, supplied)
    assert "stored psi_total differs from the scenario's psi" in out


def test_cli_recheck_derives_the_decompose_correction(tmp_path, capsys):
    report = json_report(capsys, ["decompose", "p2.derivations"])
    result = report["result"]
    assert result["derivation_correction"] == {"a": "0", "b": "0", "r": "0"}
    tampered = json.loads(json.dumps(report))
    tampered["result"]["derivation_correction"]["a"] = "i"
    assert "stored part psi(a)" in refused(tmp_path, capsys, tampered)
    # edits that keep psi_G = part psi + correction and psi_G + psi_R = psi
    for value, message in (
            ("1", "the correction at a is not purely imaginary"),
            ("i", "the correction does not vanish on relator "
                  "['r', 'a', 'r', 'a']")):
        tampered = json.loads(json.dumps(report))
        for key in ("derivation_correction", "psi_gaussian", "psi_total"):
            tampered["result"][key]["a"] = value
        assert message in refused(tmp_path, capsys, tampered)


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
    assert "stored Re psi(a) = 1/2 differs from the forced real part -1/2" \
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
    assert "stored Re psi(c) = 5 differs from the forced real part 0" in out


def test_cli_recheck_confirms_a_no_lk_psi_total_from_the_solver(tmp_path,
                                                                capsys):
    report = json_report(capsys, ["decompose", "surface.gamma2.no_lk"])
    result = report["result"]
    assert (result["verdict"], result["psi_source"]) == ("no_lk", "solver")
    assert recheck_report(tmp_path, capsys, report)[0] == 0
    result["psi_total"] = {g: "7" for g in result["psi_total"]}
    out = refused(tmp_path, capsys, report)
    assert "stored Re psi(a1) = 7 differs from the forced real part -1" in out


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
    assert info.value.code == 2
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
                 "recheck_solve_certificate", "split",
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
