"""Rewrite the expected outputs of the report goldens.

    PYTHONPATH=src python3 tests/golden/regenerate.py

Each case of ``cases.json`` runs one ``wdesign`` command on a problem file of
``problems/``.  Its stdout is written to ``expected/<name>.stdout`` and its
``--out`` report, without ``wall_time_s``, to ``expected/<name>.json``;
``tests/test_golden.py`` compares both byte for byte.  This script is the
only way a golden changes, and a change that moves a report says so in
``CHANGES.md``.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROBLEMS = HERE / "problems"
EXPECTED = HERE / "expected"


def cases() -> list[dict]:
    return json.loads((HERE / "cases.json").read_text())


def run_case(case: dict) -> tuple[int, str, str]:
    """Exit code, stdout and the ``--out`` report text of one case, wall time stripped."""
    from wdesign import cli

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        argv = [case["args"][0], "--file", str(PROBLEMS / case["problem"]),
                "--out", str(out), *case["args"][1:]]
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli.main(argv)
        report = json.loads(out.read_text())
    report.pop("wall_time_s")
    return code, buffer.getvalue(), json.dumps(report, indent=2, sort_keys=True) + "\n"


def main() -> int:
    EXPECTED.mkdir(exist_ok=True)
    for case in cases():
        code, stdout, report = run_case(case)
        if code != 0:
            print(f"{case['name']}: exit code {code}; nothing written", file=sys.stderr)
            return 1
        (EXPECTED / f"{case['name']}.stdout").write_text(stdout)
        (EXPECTED / f"{case['name']}.json").write_text(report)
        print(f"wrote {case['name']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
