"""CLI reports on the fixtures and one generated ensemble, byte for byte against recorded goldens.

Each case runs one command through `cli.main` from the repository root and
compares its JSON report, minus `timing_seconds`, with the file of the
same name in tests/golden/.  A case may read an input that another command
writes (`tim normalize` reads a synthesized scheme) or that a seed draws
(ZERO_ROW, the generated ensemble); the recorder writes
those inputs first, into tests/golden/ beside the reports.  Re-record only
when a change to the reports is intended, and say so in the change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

import pytest

from rankloss.cli import main
from rankloss.conditions import Ensemble
from rankloss.exactla import ExactMatrix
from rankloss.fileio import emit_ensemble

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# A generated ensemble past the fixtures' n <= 4: n = 6 rows, K = 3 blocks
# of 3, 3 and 2 columns, entries drawn uniformly from [-3, 3] by
# random.Random(8), row 1 zero in every block.  Its max_tau is 1, so C2 and
# C5 hold at tau 1 and fail at tau 2 to 6.
ZERO_ROW = "tests/golden/zero_row_n6.json"


def zero_row_text(seed: int = 8) -> str:
    """ZERO_ROW's file: the ensemble drawn from random.Random(seed), column by column."""
    rng = random.Random(seed)
    blocks = [[[0] + [rng.randint(-3, 3) for _ in range(5)] for _ in range(m)] for m in (3, 3, 2)]
    ensemble = Ensemble(tuple(ExactMatrix.from_columns(block, 6) for block in blocks))
    return json.dumps(emit_ensemble(ensemble), indent=2) + "\n"


# E1 has R = 4, E3 has R = 3 and ZERO_ROW has R = 6: equiv runs at every tau from 1 to R.
CASES = {
    **{f"certify-{name}": ("certify", f"fixtures/{name}.json") for name in ("E1", "E1_generic", "E3")},
    **{
        f"equiv-{name}-tau{tau}": ("equiv", f"fixtures/{name}.json", "--tau", str(tau), "--seed", "7")
        for name, r in (("E1", 4), ("E3", 3))
        for tau in range(1, r + 1)
    },
    "certify-zero_row_n6": ("certify", ZERO_ROW),
    "certify-zero_row_n6-tau2": ("certify", ZERO_ROW, "--tau", "2"),
    **{
        f"equiv-zero_row_n6-tau{tau}": ("equiv", ZERO_ROW, "--tau", str(tau), "--seed", "7")
        for tau in range(1, 7)
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


def test_zero_row_ensemble_is_drawn_from_its_seed():
    assert (ROOT / ZERO_ROW).read_text() == zero_row_text()


@pytest.mark.parametrize("path", sorted(INPUTS))
def test_written_scheme_matches_golden(path, tmp_path):
    out = tmp_path / "scheme.json"
    report_text((*INPUTS[path], "--scheme-out", str(out)))
    assert out.read_bytes() == (ROOT / path).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    (ROOT / ZERO_ROW).write_text(zero_row_text())
    for path, argv in INPUTS.items():
        report_text((*argv, "--scheme-out", path))
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.json").write_text(report_text(argv))
    sys.exit(0)
