"""Every one-leaf edit of a pinned report's result or exit code is refused.

`recheck` re-runs the report's command and compares JSON text, so an edit
that Python's `==` would forgive (1 for true, 1.0 for 1) is refused too.
The reports are those of `tests/data/reports/`, which hold one report for
each way the five scenario commands end.
"""

import copy
import json
import os

from nlk import reports

DATA = os.path.join(os.path.dirname(__file__), "data", "reports")


def leaf_edits(value):
    """The edits of one JSON leaf: +1 on an integer and its swaps to a bool
    and to a float, a suffix on a string, a flip of a bool and its swap to
    an integer, and 0 for null."""
    if isinstance(value, bool):
        return [not value, int(value)]
    if isinstance(value, int):
        return [value + 1, value != 0, float(value)]
    if isinstance(value, str):
        return [value + "x"]
    if value is None:
        return [0]
    return []


def leaves(node, path):
    """(path, value) for every leaf under node; a path is a list of keys."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from leaves(node[key], path + [key])
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from leaves(item, path + [i])
    else:
        yield path, node


def mutations(report):
    """(JSON pointer, edited report) for every edit of a result or exit-code
    leaf."""
    for path, value in leaves({"result": report["result"],
                               "exit_code": report["exit_code"]}, []):
        for edit in leaf_edits(value):
            tampered = copy.deepcopy(report)
            node = tampered
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = edit
            yield "/" + "/".join(map(str, path)), tampered


def test_every_leaf_edit_of_a_pinned_report_is_refused():
    names = sorted(os.listdir(DATA))
    assert len(names) == 26
    missed, refused = [], 0
    for name in names:
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            report = json.load(fh)
        assert reports.recheck(report).confirmed, name
        for pointer, tampered in mutations(report):
            outcome = reports.recheck(tampered)
            if outcome.confirmed:
                missed.append((name, pointer))
            else:
                refused += 1
                # the refusal names the edited leaf, or for a bound check the
                # stored word length
                assert (f"stored {pointer} =" in outcome.details[-1]
                        or "max_word_length" in outcome.details[-1]), (
                    name, pointer, outcome.details)
    assert not missed
    assert refused > 300
