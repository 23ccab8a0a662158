"""Record the golden reports the `readme` workload compares against.

    python3 bench/record_golden.py

Runs the README's ten commands in order through `cli.main` and stores each
report, minus timing_seconds, in bench/golden/.  Re-record only when a
change to the reports is intended, and say so in the change.
"""

from __future__ import annotations

import os
import shutil
import sys
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import GOLDEN_DIR, README_COMMANDS, README_WORKDIR, golden_path, normalized_report, run_cli

    from rankloss import cli

    GOLDEN_DIR.mkdir(exist_ok=True)
    Path(README_WORKDIR).mkdir(parents=True, exist_ok=True)
    api = types.SimpleNamespace(cli=cli)
    try:
        for i, argv in enumerate(README_COMMANDS):
            code, report = run_cli(api, list(argv))
            if code != 0:
                print(f"error: {' '.join(argv)} exited {code}", file=sys.stderr)
                return 1
            golden_path(i).write_text(normalized_report(report) + "\n")
    finally:
        shutil.rmtree(README_WORKDIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
