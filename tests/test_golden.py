"""CLI reports on the fixtures, byte for byte against recorded goldens.

Each case runs one command through `cli.main` from the repository root and
compares its JSON report, minus `timing_seconds`, with the file of the
same name in tests/golden/.  A case may read an input that another command
writes (`tim normalize` reads a synthesized scheme); the recorder writes
those inputs first, into tests/golden/ beside the reports.  Re-record only
when a change to the reports is intended, and say so in the change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from rankloss.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# E1 has R = 4 and E3 has R = 3: equiv runs at every tau from 1 to R.
CASES = {
    **{f"certify-{name}": ("certify", f"fixtures/{name}.json") for name in ("E1", "E1_generic", "E3")},
    **{
        f"equiv-{name}-tau{tau}": ("equiv", f"fixtures/{name}.json", "--tau", str(tau), "--seed", "7")
        for name, r in (("E1", 4), ("E3", 3))
        for tau in range(1, r + 1)
    },
    "tim-scheme-exclusive-T9a": ("tim", "scheme", "fixtures/T9a.json", "--kind", "exclusive"),
    "tim-normalize-T9a": ("tim", "normalize", "fixtures/T9a.json", "tests/golden/T9a_exclusive_scheme.json"),
}

# Scheme files, as path -> the command that writes it with --scheme-out.  The
# cases read T9a's; each must be written byte for byte as recorded.
INPUTS = {
    "tests/golden/T9a_exclusive_scheme.json": ("tim", "scheme", "fixtures/T9a.json", "--kind", "exclusive"),
    "tests/golden/T6_scheme.json": ("tim", "scheme", "fixtures/T6.json"),
}


def report_text(argv) -> str:
    """The report `rankloss <argv>` prints from the repository root, minus timing."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    assert code == 0, f"rankloss {' '.join(argv)} exited {code}"
    report = json.loads(out.getvalue())
    report.pop("timing_seconds")
    return json.dumps(report) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    assert report_text(CASES[name]) == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("path", sorted(INPUTS))
def test_written_scheme_matches_golden(path, tmp_path):
    out = tmp_path / "scheme.json"
    report_text((*INPUTS[path], "--scheme-out", str(out)))
    assert out.read_bytes() == (ROOT / path).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for path, argv in INPUTS.items():
        report_text((*argv, "--scheme-out", path))
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.json").write_text(report_text(argv))
    sys.exit(0)
