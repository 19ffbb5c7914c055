"""What a fresh interpreter loads, and the records that make importing cheap.

`import nlk` loads no module and `import nlk.cli` leaves the catalog out;
each check that depends on what is already imported runs in a fresh
interpreter, since this test process has imported everything.  The result
records are NamedTuples: immutable, with `_replace` and `_fields`.
"""

import inspect
import json
import os
import subprocess
import sys

import pytest

import nlk
from nlk import catalog, cli, decompose

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def fresh(code, *args):
    """Run `code` in a new interpreter that imports nlk from this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def assert_ok(proc):
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_loads_neither_the_catalog_nor_dataclasses():
    assert_ok(fresh(
        "import sys, nlk.cli\n"
        "loaded = {'nlk.catalog', 'dataclasses'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"))


def test_importing_every_module_loads_no_dataclasses():
    assert_ok(fresh(
        "import sys, nlk, nlk.cli\n"
        "for name in nlk.__all__:\n"
        "    getattr(nlk, name)\n"
        "assert 'dataclasses' not in sys.modules\n"))


def test_a_file_target_never_loads_the_catalog(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(
        catalog.scenario_doc("zk.z2.gaussian", "feasible")), encoding="utf-8")
    for command in ("validate", "solve", "decompose", "verify"):
        proc = fresh(
            "import sys, nlk.cli\n"
            "code = nlk.cli.main(sys.argv[1:])\n"
            "assert 'nlk.catalog' not in sys.modules\n"
            "sys.exit(code)\n", command, str(path))
        assert proc.returncode == 0, (command, proc.stderr)


def test_modules_load_on_first_access():
    assert_ok(fresh(
        "import sys, nlk\n"
        "assert not [m for m in sys.modules if m.startswith('nlk.')]\n"
        "assert len(nlk.catalog.ENTRIES) == 9\n"
        "assert 'nlk.catalog' in sys.modules\n"
        "assert 'nlk.cli' not in sys.modules\n"))
    assert_ok(fresh(
        "from nlk import catalog\n"
        "assert catalog.get_entry('zk.z2.gaussian').entry_id\n"))
    assert_ok(fresh(
        "import nlk, types\n"
        "for name in nlk.__all__:\n"
        "    module = getattr(nlk, name)\n"
        "    assert isinstance(module, types.ModuleType), name\n"
        "    assert module.__name__ == 'nlk.' + name\n"
        "from nlk import *\n"
        "assert scalars.Scalar and reports.recheck\n"))


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        nlk.nope
    assert_ok(fresh(
        "import nlk\n"
        "try:\n"
        "    nlk.cli\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('nlk.cli loaded without an import')\n"))


def test_a_catalog_id_target_still_resolves():
    proc = fresh("import sys, nlk.cli\n"
                 "sys.exit(nlk.cli.main(sys.argv[1:]))\n",
                 "solve", "zk.z2.gaussian")
    assert proc.returncode == 2, proc.stderr
    assert "verdict: infeasible" in proc.stdout
    assert cli.main(["solve", "no.such.entry"]) == 1


def records():
    """Every NamedTuple record class defined in the package."""
    out = []
    for name in nlk.__all__:
        module = getattr(nlk, name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (cls.__module__ == module.__name__ and issubclass(cls, tuple)
                    and hasattr(cls, "_fields")):
                out.append(cls)
    return out


def test_the_records_are_namedtuples_without_shared_mutable_defaults():
    found = records()
    assert len(found) == 22  # 21 records and the PropertyReport field base
    for cls in found:
        for field, default in cls._field_defaults.items():
            assert not isinstance(default, (list, dict, set)), (cls, field)


@pytest.mark.parametrize("cls", records(), ids=lambda c: c.__name__)
def test_records_are_immutable_and_replaceable(cls):
    fields = cls._fields
    values = list(range(len(fields)))
    if issubclass(cls, decompose.PropertyReport):
        values = ["Z2", "LK", decompose.CHECKED_TRUE_FINITE, {}]
    record = cls(*values)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], "changed")
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    changed = record._replace(**{fields[0]: "changed"})
    assert type(changed) is cls
    assert getattr(changed, fields[0]) == "changed"
    assert tuple(changed)[1:] == tuple(record)[1:]
    assert record == cls(*values)
    if cls is not decompose.PropertyReport:  # its evidence is a dict
        assert hash(record) == hash(cls(*values))


def test_property_reports_validate_on_construction_and_replace():
    report = decompose.PropertyReport("Z2", "LK", decompose.PAPER_CLAIM_TRUE,
                                      {})
    with pytest.raises(ValueError, match="unknown property"):
        decompose.PropertyReport("Z2", "XX", decompose.PAPER_CLAIM_TRUE, {})
    with pytest.raises(ValueError, match="unknown verdict"):
        report._replace(verdict="MAYBE")
    assert report._replace(property="GC").property == "GC"
