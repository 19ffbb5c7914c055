"""The command line's output, pinned byte for byte.

`tests/data/cli_transcript.txt` holds, for each call below, the command
line, its exit code and what it wrote to stdout and stderr.  Regenerate
it only for an intended change of output:

    PYTHONPATH=src python tests/test_cli_transcript.py > tests/data/cli_transcript.txt
"""

import contextlib
import io
import os
import sys
import tempfile

from nlk import catalog, cli

DATA = os.path.join(os.path.dirname(__file__), "data", "cli_transcript.txt")
SCENARIO_COMMANDS = ("validate", "solve", "decompose", "verify", "oracle")
CLASSIFIED = ("p2.derivations", "surface.gamma2.no_lk")


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def transcript(workdir) -> str:
    """Run every pinned call and return the transcript text."""
    blocks = []

    def run(argv, shown=None):
        code, out, err = _call(argv)
        blocks.append(f"$ nlk {' '.join(shown or argv)}\n[exit {code}]\n{out}")
        if err:
            blocks.append(f"[stderr]\n{err}")

    run(["catalog", "run-all"])
    for entry_id in CLASSIFIED:
        for fmt in ("text", "json"):
            run(["classify", entry_id, "--format", fmt])
            run(["catalog", "run", entry_id, "--format", fmt])
    report_path = os.path.join(workdir, "report.json")
    for entry_id in catalog.entry_ids():
        if "main" not in catalog.get_entry(entry_id).scenarios:
            continue
        for command in SCENARIO_COMMANDS:
            run([command, entry_id])
            code, report, _ = _call([command, entry_id, "--format", "json"])
            if code == 1:
                continue
            with open(report_path, "w", encoding="utf-8") as fh:
                fh.write(report)
            run(["recheck", report_path],
                shown=["recheck", f"<{command} {entry_id} report>"])
    return "".join(blocks)


def test_cli_transcript_is_unchanged(tmp_path):
    with open(DATA, "r", encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert transcript(str(tmp_path)) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        sys.stdout.write(transcript(workdir))
