"""Tests for scenario parsing, schema diagnostics, and the command line."""

import dataclasses
import json

import pytest

from nlk import catalog, cli, decompose
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
        return dataclasses.replace(out, functional=psi.with_values(shifted))

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
