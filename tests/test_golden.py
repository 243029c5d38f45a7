"""Golden certificates: every reference row must certify to the same bytes.

tests/golden/<effort>/ holds the JSON of the 25 reference rows at
``structure`` effort, of the rows with q <= 8 at ``desk`` effort, and of
the 8 selftest extra stabilizers at ``structure`` effort, which reach the
grid families II-T2, II-T4a, II-T4b and III-T5b that no reference row
does.  A
change to any byte is a change to what aqcc certifies, so the files may be
regenerated only together with an explanation of the diff:

    PYTHONPATH=src python tests/test_golden.py --write

tests/golden/probe.json holds, for the outer generator G1 and the inner
dual dual(G2) of every reference row, the (weight, witness) pair of the
trellis upper-bound probe, the witness written one list per column: the
coefficients of that column, constant term first, with trailing zeros
dropped ([] for zero).  A bounded free distance takes its upper bound and
witness from it (an exact search rebuilds its own), so it is pinned the
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

tests/golden/grid_manifest.txt pins every grid row at q in {4, 5, 7, 8, 9,
11, 13, 16, 17} at both efforts, one line each: the effort, the row's
golden-style label and the first 16 hex digits of the SHA-256 of its
certificate bytes.  The tests recompute the q <= 9 slice; the whole file,
about 15 s on a 2-vCPU Xeon, is recomputed by

    PYTHONPATH=src python tests/test_golden.py --grid

which prints each row whose certificate changed and exits 1 if any did.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from aqcc import FamilyParams, certify_params
from aqcc.block import bch_parity, rs_parity
from aqcc.certify import EFFORTS
from aqcc.cli import main
from aqcc.convo import PolyMatrix, dual_generator, format_poly_matrix, parse_poly_matrix
from aqcc.families import FAMILIES, enumerate_family, layout
from aqcc.matrix import field_from_order
from aqcc.selftest import EXTRA_STABILIZERS, REFERENCE_ROWS
from aqcc.trellis import _probe_upper, free_distance

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
PROBE_PATH = GOLDEN_DIR / "probe.json"
BLOCK_ENCODER = GOLDEN_DIR / "block_encoder.txt"
BLOCK_DISTANCE = GOLDEN_DIR / "block_distance.txt"
ENCODER_DIR = GOLDEN_DIR.parent.parent / "perfbench" / "encoders"
ENCODERS_DISTANCE = GOLDEN_DIR / "encoders_distance.txt"
ENUMERATE = GOLDEN_DIR / "enumerate.txt"
GRID_MANIFEST = GOLDEN_DIR / "grid_manifest.txt"
GRID_QS = (4, 5, 7, 8, 9, 11, 13, 16, 17)
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

CASES = (
    [("structure", row[:3]) for row in REFERENCE_ROWS]
    + [("desk", row[:3]) for row in REFERENCE_ROWS if row[1] <= 8]
    + [("structure", row) for row in EXTRA_STABILIZERS]
)


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
            weight, witness = _probe_upper(g)
            columns = [np.trim_zeros(c, "b").tolist() for c in witness.T]
            out[f"{label} {side}"] = json.dumps([weight, columns])
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


def test_every_route_witness_is_one_coefficient_array():
    # min_distance by enumeration and by echelon row, free_distance by the
    # block route, the exact search and the bounded probe: each witness is
    # a read-only int32 (L, n) array, row d for D**d, of weight upper with
    # its last row nonzero, and L == 1 for a block code
    rs = rs_parity(field_from_order(7), 6, 4, b=1).code
    bch = bch_parity(field_from_order(16), 17, 5).code
    g = parse_poly_matrix(BLOCK_ENCODER.read_text())
    memory_two = PolyMatrix(field_from_order(2), [[(1, 0, 1), (1, 1, 1)]])
    routes = [  # (bracket, route, n, a block code)
        (rs.min_distance(), "enumeration", 6, True),
        (bch.min_distance(budget=1000), "bounded", 17, True),
        (free_distance(g), "block", 10, True),
        (free_distance(memory_two), "dijkstra", 2, False),
        (free_distance(memory_two, state_budget=1), "bounded", 2, False),
    ]
    for b, method, n, block in routes:
        w = b.witness
        assert b.method == method
        assert w.ndim == 2 and w.dtype == np.int32 and w.shape[1] == n
        assert w[-1].any() and np.count_nonzero(w) == b.upper
        assert len(w) == 1 or not block
        with pytest.raises(ValueError, match="read-only"):
            w[0, 0] = 1
    # the block route's one row, in the matrix text format aqcc distance prints
    row = PolyMatrix.from_coefficients(g.field, routes[2][0].witness[:, None])
    assert f"witness: {format_poly_matrix(row)}\n" in block_distance_text()
    # MacWilliams counts the dual's codewords and keeps none of the code's
    b = rs_parity(field_from_order(11), 10, 4, b=1).code.min_distance(budget=2000)
    assert b.method == "macwilliams" and b.witness is None


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
    assert len(CASES) == 40
    on_disk = {p.relative_to(GOLDEN_DIR) for p in GOLDEN_DIR.glob("*/*.json")}
    assert on_disk == {golden_path(e, *r).relative_to(GOLDEN_DIR) for e, r in CASES}


def grid_rows(qs) -> list:
    """(family, q, kw) of every grid row over the given orders, q-major."""
    return [
        (family, q, p.coordinates())
        for q in qs
        for family in FAMILIES[1:]
        for p, _ in enumerate_family(family, q)
    ]


def manifest_key(effort: str, row) -> str:
    return f"{effort} {golden_path(effort, *row).stem}"


def manifest_lines(qs, efforts=EFFORTS) -> list[str]:
    rows = grid_rows(qs)
    return [
        f"{manifest_key(effort, row)} "
        + hashlib.sha256(certificate_text(effort, *row).encode()).hexdigest()[:16]
        for effort in efforts
        for row in rows
    ]


def manifest_mismatches(qs, efforts=EFFORTS) -> list[str]:
    """One entry per row whose certificate hash differs from the manifest."""
    pinned = dict(line.rsplit(" ", 1) for line in GRID_MANIFEST.read_text().splitlines())
    out = []
    for line in manifest_lines(qs, efforts):
        key, digest = line.rsplit(" ", 1)
        if pinned.get(key) != digest:
            out.append(f"{key}: manifest {pinned.get(key)}, certified {digest}")
    return out


def test_grid_manifest_lists_every_row_at_both_efforts():
    keys = [line.rsplit(" ", 1)[0] for line in GRID_MANIFEST.read_text().splitlines()]
    rows = grid_rows(GRID_QS)
    assert keys == [manifest_key(e, row) for e in EFFORTS for row in rows]
    assert len(keys) == 6152


@pytest.mark.parametrize("effort", EFFORTS)
def test_grid_manifest_small_fields_match(effort):
    slice_qs = [q for q in GRID_QS if q <= 9]
    assert len(grid_rows(slice_qs)) == 214
    mismatches = manifest_mismatches(slice_qs, (effort,))
    assert not mismatches, "\n".join(mismatches)


if __name__ == "__main__":
    if sys.argv[1:] == ["--grid"]:
        mismatches = manifest_mismatches(GRID_QS)
        print("\n".join(mismatches) or f"all {len(EFFORTS) * len(grid_rows(GRID_QS))} grid rows match")
        sys.exit(1 if mismatches else 0)
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write | --grid")
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
    GRID_MANIFEST.write_text("".join(line + "\n" for line in manifest_lines(GRID_QS)))
    print(GRID_MANIFEST.relative_to(GOLDEN_DIR))
