"""CLI reports against checked-in goldens, byte for byte (wall time aside).

The goldens live in ``tests/golden/``; ``tests/golden/regenerate.py`` is the
only way to change them.
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).resolve().parent / "golden" / "regenerate.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


@pytest.mark.parametrize("case", golden.cases(), ids=lambda case: case["name"])
def test_report_matches_golden(case):
    code, stdout, report = golden.run_case(case)
    assert code == 0
    assert stdout == (golden.EXPECTED / f"{case['name']}.stdout").read_text()
    assert report == (golden.EXPECTED / f"{case['name']}.json").read_text()
