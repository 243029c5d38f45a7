"""Golden certificates: every reference row must certify to the same bytes.

tests/golden/<effort>/ holds the JSON of the 25 reference rows at
``structure`` effort and of the rows with q <= 8 at ``desk`` effort.  A
change to any byte is a change to what aqcc certifies, so the files may be
regenerated only together with an explanation of the diff:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import sys
from pathlib import Path

import pytest

from aqcc import FamilyParams, certify_params
from aqcc.selftest import REFERENCE_ROWS

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CASES = [("structure", row[:3]) for row in REFERENCE_ROWS] + [
    ("desk", row[:3]) for row in REFERENCE_ROWS if row[1] <= 8
]


def golden_path(effort: str, family: str, q: int, kw: dict) -> Path:
    name = "_".join([family, f"q{q}"] + [f"{k}{v}" for k, v in kw.items()])
    return GOLDEN_DIR / effort / f"{name}.json"


def certificate_text(effort: str, family: str, q: int, kw: dict) -> str:
    return certify_params(FamilyParams(family, q, **kw), effort=effort).to_json()


@pytest.mark.parametrize(
    "effort,row", CASES, ids=[golden_path(e, *r).stem + f"-{e}" for e, r in CASES]
)
def test_certificate_matches_golden(effort, row):
    want = golden_path(effort, *row).read_text()
    assert certificate_text(effort, *row) == want


def test_golden_set_is_complete():
    assert len(CASES) == 32
    on_disk = {p.relative_to(GOLDEN_DIR) for p in GOLDEN_DIR.glob("*/*.json")}
    assert on_disk == {golden_path(e, *r).relative_to(GOLDEN_DIR) for e, r in CASES}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    for effort, row in CASES:
        path = golden_path(effort, *row)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(certificate_text(effort, *row))
        print(path.relative_to(GOLDEN_DIR))
