"""The names other code relies on: the benchmark tracer's spans and the
README's library example and quick start."""

import contextlib
import importlib.util
import io
import pathlib
import re

import nlk
from nlk import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def readme_block(language):
    """The first fenced block of the README in `language`."""
    match = re.search(rf"```{language}\n(.*?)```", README, re.DOTALL)
    assert match, f"README has no {language} block"
    return match.group(1)


def test_every_traced_span_names_an_attribute_of_nlk():
    # loaded by path: perfbench is not a package
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS
    for module_name, path, _ in tracing.SPANS:
        owner = getattr(nlk, module_name)
        for attr in path.split("."):
            assert hasattr(owner, attr), (module_name, path)
            owner = getattr(owner, attr)
        assert callable(owner), (module_name, path)


def test_the_readme_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(readme_block("python"), "README.md", "exec"), {})
    # <1, i> is not real, so the solver certifies infeasibility
    assert out.getvalue() == "infeasible (Scalar(1/2),)\n"


def test_the_readme_quick_start_is_certified_infeasible(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(readme_block("json"), encoding="utf-8")
    assert cli.main(["solve", str(path)]) == 2
    out = capsys.readouterr().out
    assert "verdict: infeasible" in out and "certificate: 1/2" in out
