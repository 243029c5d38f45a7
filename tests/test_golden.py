"""Golden certificates: every reference row must certify to the same bytes.

tests/golden/<effort>/ holds the JSON of the 25 reference rows at
``structure`` effort and of the rows with q <= 8 at ``desk`` effort.  A
change to any byte is a change to what aqcc certifies, so the files may be
regenerated only together with an explanation of the diff:

    PYTHONPATH=src python tests/test_golden.py --write

tests/golden/probe.json holds, for the outer generator G1 and the inner
dual dual(G2) of every reference row, the (weight, witness) pair of the
trellis upper-bound probe.  A bounded free distance takes its upper bound
and witness from it (an exact search rebuilds its own), so it is pinned the
same way and rewritten by the same command.

tests/golden/block_distance.txt is the ``aqcc distance`` output for the
constant encoder tests/golden/block_encoder.txt ([10, 5] over GF(11)).  That
encoder takes the block route, whose witness is the first minimum-weight
codeword in message order, found past the first 8192 messages.

tests/golden/encoders_distance.txt is the ``aqcc distance`` output for each
textbook encoder in perfbench/encoders/, which the benchmark reads; it is
written here and never into perfbench/.

tests/golden/enumerate.txt is the csv ``aqcc enumerate`` output of every
family at its smallest admissible q and at q = 16, 17, 25, 27 and 32 where
the field meets the family's assumption.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from aqcc import FamilyParams, certify_params
from aqcc.cli import main
from aqcc.convo import PolyMatrix, dual_generator, format_poly_matrix, parse_poly_matrix
from aqcc.families import layout
from aqcc.selftest import REFERENCE_ROWS
from aqcc.trellis import _probe_upper, free_distance

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
PROBE_PATH = GOLDEN_DIR / "probe.json"
BLOCK_ENCODER = GOLDEN_DIR / "block_encoder.txt"
BLOCK_DISTANCE = GOLDEN_DIR / "block_distance.txt"
ENCODER_DIR = GOLDEN_DIR.parent.parent / "perfbench" / "encoders"
ENCODERS_DISTANCE = GOLDEN_DIR / "encoders_distance.txt"
ENUMERATE = GOLDEN_DIR / "enumerate.txt"
ENUMERATE_CASES = [
    (family, q)
    for families, orders in (
        (("II-T2", "II-T3a", "II-T3b"), (16, 32)),
        (("II-T4a", "II-T4b"), (9, 25, 27)),
        (("III-T5a", "III-T5b"), (8, 16, 17, 25, 27, 32)),
        (("III-T6", "III-T8"), (5, 16, 17, 25, 27, 32)),
    )
    for family in families
    for q in orders
]

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


def probe_text() -> str:
    out = {}
    for family, q, kw in (row[:3] for row in REFERENCE_ROWS):
        g1, g2 = layout(FamilyParams(family, q, **kw)).generators()
        label = golden_path("probe", family, q, kw).stem
        for side, g in (("g1", g1), ("v2_dual", dual_generator(g2))):
            out[f"{label} {side}"] = json.dumps(_probe_upper(g))
    # one entry per line, so that a diff names the generator that moved
    return "{\n" + ",\n".join(f'"{key}": {out[key]}' for key in sorted(out)) + "\n}\n"


def test_probe_matches_golden():
    assert probe_text() == PROBE_PATH.read_text()


def distance_text(path: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["distance", str(path)]) == 0
    return out.getvalue()


def block_distance_text() -> str:
    return distance_text(BLOCK_ENCODER)


def encoders_distance_text() -> str:
    paths = sorted(ENCODER_DIR.glob("*.txt"))
    assert len(paths) == 14
    return "".join(f"# {p.name}\n" + distance_text(p) for p in paths)


def test_block_distance_matches_golden():
    assert block_distance_text() == BLOCK_DISTANCE.read_text()


def test_block_route_witness_is_a_row_of_coefficient_tuples():
    # the gamma = 0 route gives its witness the shape of the trellis routes,
    # and the CLI prints it with the one matrix text format
    g = parse_poly_matrix(BLOCK_ENCODER.read_text())
    b = free_distance(g)
    assert b.method == "block"
    assert all(isinstance(e, tuple) for e in b.witness)
    assert len(b.witness) == g.cols
    row = format_poly_matrix(PolyMatrix(g.field, [b.witness]), header=False)
    assert f"witness: {row}\n" in block_distance_text()


def test_encoders_distance_matches_golden():
    assert encoders_distance_text() == ENCODERS_DISTANCE.read_text()


def enumerate_text() -> str:
    chunks = []
    for family, q in ENUMERATE_CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["enumerate", "--family", family, "--q", str(q)]) == 0
        chunks.append(f"# {family} q={q}\n" + out.getvalue())
    return "".join(chunks)


def test_enumerate_matches_golden():
    assert enumerate_text() == ENUMERATE.read_text()


def singleton_bound(n: int, k: int, gamma: int) -> int:
    """Generalized Singleton bound on the free distance of an (n, k, gamma)
    convolutional code (Rosenthal & Smarandache 1999)."""
    return (n - k) * (gamma // k + 1) + gamma + 1


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*/*.json")), ids=lambda p: f"{p.parent.name}-{p.stem}")
def test_golden_distances_respect_singleton(path):
    data = json.loads(path.read_text())
    n = int(re.match(r"\[\((\d+),", data["tuple"]).group(1))
    ranks, degrees = data["checks"]["ranks"], data["checks"]["degrees"]
    conv = data["distances"]["convo"]
    for side, k, gamma in (
        ("d1f", ranks["G1"], degrees["gamma1"]),
        ("d2f_dual", n - ranks["G2"], degrees["gamma2"]),
    ):
        # an exact value is its own lower bound
        assert conv[side]["lower"] <= singleton_bound(n, k, gamma), side


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
    PROBE_PATH.write_text(probe_text())
    print(PROBE_PATH.relative_to(GOLDEN_DIR))
    BLOCK_DISTANCE.write_text(block_distance_text())
    print(BLOCK_DISTANCE.relative_to(GOLDEN_DIR))
    ENCODERS_DISTANCE.write_text(encoders_distance_text())
    print(ENCODERS_DISTANCE.relative_to(GOLDEN_DIR))
    ENUMERATE.write_text(enumerate_text())
    print(ENUMERATE.relative_to(GOLDEN_DIR))
