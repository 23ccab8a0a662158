"""CLI reports on the fixtures, byte for byte against recorded goldens.

Each case runs one command through `cli.main` from the repository root and
compares its JSON report, minus `timing_seconds`, with the file of the
same name in tests/golden/.  Re-record only when a change to the reports
is intended, and say so in the change:

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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.json").write_text(report_text(argv))
    sys.exit(0)
