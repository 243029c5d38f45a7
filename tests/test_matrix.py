import numpy as np
import pytest

import field_reference as ref
from aqcc.errors import FieldMismatch
from aqcc.gf import FiniteField
from aqcc import matrix
from aqcc.matrix import MatrixGF, _rref, field_from_order, solve_left


@pytest.fixture(scope="module")
def gf7():
    return FiniteField.get(7, 1)


class TestBasics:
    def test_repr(self):
        assert repr(MatrixGF(FiniteField.get(3, 1), [[1, 2]])) == "MatrixGF(GF(3), [[1, 2]])"

    def test_entry_validation(self, gf7):
        with pytest.raises(ValueError):
            MatrixGF(gf7, [[7, 0]])
        with pytest.raises(ValueError):
            MatrixGF(gf7, [1, 2, 3])

    def test_entries_are_checked_before_int32_narrows_them(self):
        f = FiniteField.get(2, 4)
        for bad in (np.array([[-2**32 + 1]]), [[1.7, 2]], np.array([[2**31]]), [[True]]):
            with pytest.raises(ValueError):
                MatrixGF(f, bad)
        for empty in (np.zeros((0, 3)), [[]]):  # float dtype, size 0
            m = MatrixGF(f, empty)
            assert m.a.dtype == np.int32 and m.a.size == 0
        assert MatrixGF(f, np.array([[15, 0]], dtype=np.uint8)).a.tolist() == [[15, 0]]

    def test_immutability(self, gf7):
        m = MatrixGF(gf7, [[1, 2]])
        with pytest.raises(ValueError):
            m.a[0, 0] = 3

    def test_equality_and_hash(self, gf7):
        a = MatrixGF(gf7, [[1, 2], [3, 4]])
        b = MatrixGF(gf7, [[1, 2], [3, 4]])
        assert a == b
        with pytest.raises(TypeError):  # == compares values; nothing hashes a matrix
            hash(a)
        assert a != MatrixGF(gf7, [[1, 2], [3, 5]])
        assert a != MatrixGF(FiniteField.get(11, 1), [[1, 2], [3, 4]])

    def test_field_mismatch(self, gf7):
        a = MatrixGF(gf7, [[1]])
        b = MatrixGF(FiniteField.get(11, 1), [[1]])
        with pytest.raises(FieldMismatch):
            a @ b

    def test_shape_mismatch(self, gf7):
        a = MatrixGF(gf7, [[1, 2]])
        with pytest.raises(ValueError, match=r"^shape mismatch \(1, 2\) @ \(1, 2\)$"):
            a @ a
        with pytest.raises(ValueError, match="^column counts differ$"):
            solve_left(a, MatrixGF(gf7, [[1, 2, 3]]))

    def test_field_from_order(self):
        assert field_from_order(16) == FiniteField.get(2, 4)
        assert field_from_order(11) == FiniteField.get(11, 1)
        assert field_from_order(121) == FiniteField.get(11, 2)
        with pytest.raises(ValueError):
            field_from_order(12)


class TestAlgebra:
    def test_matmul_known(self, gf7):
        a = MatrixGF(gf7, [[1, 2], [0, 3]])
        b = MatrixGF(gf7, [[4, 0], [5, 6]])
        # [[1*4+2*5, 2*6], [3*5, 3*6]] mod 7
        assert (a @ b) == MatrixGF(gf7, [[0, 5], [1, 4]])

    def test_identity(self, gf7):
        a = MatrixGF(gf7, [[1, 2], [3, 4]])
        assert MatrixGF.identity(gf7, 2) @ a == a
        assert a @ MatrixGF.identity(gf7, 2) == a

    def test_associativity_sampled(self):
        f = FiniteField.get(3, 2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = MatrixGF(f, rng.integers(0, 9, (3, 4)))
            b = MatrixGF(f, rng.integers(0, 9, (4, 2)))
            c = MatrixGF(f, rng.integers(0, 9, (2, 5)))
            assert (a @ b) @ c == a @ (b @ c)


class TestReduction:
    def test_rref_known(self, gf7):
        m = MatrixGF(gf7, [[2, 4], [1, 2]])
        red, piv = m.rref()
        assert piv == (0,)
        assert red == MatrixGF(gf7, [[1, 2], [0, 0]])
        assert m.rank() == 1

    def test_rref_idempotent(self):
        f = FiniteField.get(2, 4)
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = MatrixGF(f, rng.integers(0, 16, (4, 6)))
            red, piv = m.rref()
            red2, piv2 = red.rref()
            assert red == red2 and piv == piv2

    def test_kernel_is_null_space(self):
        f = FiniteField.get(5, 1)
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = MatrixGF(f, rng.integers(0, 5, (3, 7)))
            ker = m.kernel()
            assert ker.rows == 7 - m.rank()
            assert (m @ ker.T).is_zero()
            assert ker.rank() == ker.rows

    def test_kernel_of_identity_empty(self, gf7):
        assert MatrixGF.identity(gf7, 3).kernel().rows == 0

    def test_remove_dependent_rows(self, gf7):
        m = MatrixGF(gf7, [[1, 2, 3], [2, 4, 6], [0, 1, 0]])
        r = m.remove_dependent_rows()
        assert r == MatrixGF(gf7, [[1, 2, 3], [0, 1, 0]])
        assert m.independent_row_indices() == (0, 2)

    def test_rank_of_zero(self, gf7):
        assert MatrixGF.zeros(gf7, 2, 3).rank() == 0


class TestSolveLeft:
    def test_recovers_known_combination(self, gf7):
        a = MatrixGF(gf7, [[1, 0, 2], [0, 1, 3]])
        x_true = MatrixGF(gf7, [[2, 5], [1, 1]])
        b = x_true @ a
        x = solve_left(a, b)
        assert x is not None
        assert x @ a == b

    def test_detects_inconsistency(self, gf7):
        a = MatrixGF(gf7, [[1, 0, 0]])
        b = MatrixGF(gf7, [[0, 1, 0]])
        assert solve_left(a, b) is None

    def test_deterministic_witness(self):
        f = FiniteField.get(2, 2)
        a = MatrixGF(f, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])  # rank 2
        b = MatrixGF(f, [[1, 0, 1]])
        x1 = solve_left(a, b)
        x2 = solve_left(a, b)
        assert x1 == x2 and x1 @ a == b


def _rref_reference_loop(field, a):
    """The whole-matrix elimination the array kernels replaced, kept as the
    oracle on table-free reference arithmetic: every pivot rewrites the
    whole matrix."""
    m = np.array(a, dtype=np.int32)
    rows, cols = m.shape
    piv = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        p0 = r + int(nz[0])
        if p0 != r:
            m[[r, p0]] = m[[p0, r]]
        m[r] = ref.mul(field, m[r], ref.inv(field, m[r, c]))
        f = m[:, c].copy()
        f[r] = 0
        if np.any(f):
            m = ref.sub(field, m, ref.mul(field, f[:, None], m[r][None, :]))
        piv.append(c)
        r += 1
    return m, tuple(piv)


def _reference_cases(f, rng):
    """Shapes from 0 to 5544 entries, with zero columns, with rows that
    combine two earlier ones, with zero rows at the top, in the middle and
    at the bottom, and an all-zero matrix.  The two largest have the shapes
    of the d = 1 block-Toeplitz kernels of the q = 32 duals, with a third
    of their rows zero as there."""
    q = f.q
    zero = np.zeros((5, 7), dtype=np.int32)
    zero.setflags(write=False)
    yield zero
    shapes = [(0, 4), (4, 0), (1, 1), (3, 8), (8, 3), (6, 6), (4, 11), (5, 12), (12, 5),
              (16, 16), (4, 60), (60, 4), (17, 16), (36, 66), (56, 33), (84, 66)]
    for shape in shapes:
        for k in range(6):
            m = rng.integers(0, q, shape).astype(np.int32)
            if shape[1] > 2:
                m[:, rng.integers(0, shape[1], 1 + shape[1] // 6)] = 0  # zero columns
            rows = shape[0]
            if rows > 2:  # rank deficient: the last quarter (at least one row)
                for j in range(rows - max(1, rows // 4), rows):
                    x, y = (int(v) for v in rng.integers(1, q, 2))
                    i, i2 = rng.permutation(j)[:2]
                    m[j] = ref.add(f, ref.mul(f, x, m[i]), ref.mul(f, y, m[i2]))
            if shape in ((56, 33), (84, 66)):
                m[rng.permutation(rows)[: rows // 3]] = 0
            elif rows > 2 and k < 3:  # a zero row at the top, in the middle or at the bottom
                m[(0, rows // 2, rows - 1)[k]] = 0
            m.setflags(write=False)  # as MatrixGF.a hands it over
            yield m


@pytest.mark.parametrize("q", [2, 3, 4, 7, 8, 9, 16, 17, 27, 32, 64, 127, 128, 256, 2039])
def test_rref_matches_reference_loop(q):
    # the entry point and each kernel it can pick, called directly: the
    # echelon and pivots of the reference loop, as a fresh int32 array that
    # _wrap may make read-only.  p = 127 reaches the largest byte of a row
    # step, 2 * 126 + 1 = 253; q = 128 and 256 the longest GF(2**l) tables
    f = field_from_order(q)
    kernels = [_rref, matrix._rref_arrays]
    if f._row_tables is not None:
        kernels.append(matrix._rref_ints)
    assert (len(kernels) == 3) == (q not in (9, 27, 2039))
    rng = np.random.default_rng(q)
    for m in _reference_cases(f, rng):
        want_red, want_piv = _rref_reference_loop(f, m)
        for kernel in kernels:
            red, piv = kernel(f, m)
            assert piv == want_piv, (kernel.__name__, m.shape)
            assert np.array_equal(red, want_red), (kernel.__name__, m.shape)
            assert red.dtype == np.int32 and red.shape == m.shape
            assert red.flags.writeable and not np.shares_memory(red, m)


def _record_kernels(monkeypatch):
    """The names of the elimination kernels _rref calls, in call order."""
    taken = []
    for name in ("_rref_ints", "_rref_arrays"):
        def record(field, a, name=name, kernel=getattr(matrix, name)):
            taken.append(name)
            return kernel(field, a)
        monkeypatch.setattr(matrix, name, record)
    return taken


@pytest.mark.parametrize("q, on_ints", [(2, True), (7, True), (16, True), (127, True), (256, True),
                                        (9, False), (27, False), (131, False), (512, False),
                                        (2039, False)])
def test_rref_picks_the_kernel_by_entry_count_and_field(monkeypatch, q, on_ints):
    # the field alone decides, whatever the entry count or shape: integer
    # rows for GF(2**l) up to q = 256 and prime fields up to p = 127, the
    # arrays for odd extension fields, p >= 131 and q > 256
    f = field_from_order(q)
    taken = _record_kernels(monkeypatch)
    rng = np.random.default_rng(q)
    for shape in [(1, 1), (1, 2000), (2000, 1), (84, 66)]:
        taken.clear()
        _rref(f, rng.integers(0, q, shape).astype(np.int32))
        assert taken == ["_rref_ints" if on_ints else "_rref_arrays"]


@pytest.mark.parametrize("q, on_ints", [(2, True), (5, True), (16, True), (9, False), (2039, False)])
def test_right_inverse_refuses_a_corrupted_right_block(monkeypatch, q, on_ints):
    # right_inverse confirms A @ R == I by one product where it forms R: a
    # right block of [A | I] with any one entry moved, on either
    # elimination kernel, is refused, and the honest block passes
    f = field_from_order(q)
    rng = np.random.default_rng(q)
    a = rng.integers(0, q, (3, 7)).astype(np.int32)
    while len(_rref(f, a)[1]) < 3:
        a = rng.integers(0, q, (3, 7)).astype(np.int32)
    taken = _record_kernels(monkeypatch)
    assert MatrixGF(f, a) @ MatrixGF(f, a).right_inverse() == MatrixGF.identity(f, 3)
    assert taken == ["_rref_ints" if on_ints else "_rref_arrays"]
    rref = matrix._rref
    for i in range(3):
        for j in range(3):
            def corrupted(field, arr, i=i, j=j):
                red, piv = rref(field, arr)
                red[i, 7 + j] = f.add(int(red[i, 7 + j]), 1)
                return red, piv

            with monkeypatch.context() as mp:
                mp.setattr(matrix, "_rref", corrupted)
                with pytest.raises(AssertionError, match="right inverse witness failed"):
                    MatrixGF(f, a).right_inverse()
    # the empty product needs no identity check to pass: no rows have the
    # empty R, and rows of no columns are dependent
    assert MatrixGF.zeros(f, 0, 4).right_inverse().shape == (4, 0)
    assert MatrixGF.zeros(f, 3, 0).right_inverse() is None


def test_certification_eliminates_on_byte_rows(monkeypatch):
    # a field that silently sent these to the arrays would only show as a
    # slower benchmark: every elimination of two structure certificates,
    # over GF(16) and over GF(32) with the d = 1 block-Toeplitz kernels of
    # its dual H1 (up to 84 by 66), and of 20 split plans over GF(2..5)
    # takes the integer-row kernel, one byte an entry; each run makes
    # exactly the eliminations it needs: the source parity's [H | I] gives
    # G1's stack its echelon and both generators their right inverses, no
    # full-size coset is expanded by elimination, G2's dual is not built,
    # and a split plan whose rows are drawn at the first try eliminates
    # them once
    from aqcc import FamilyParams, certify_params, selftest

    taken = _record_kernels(monkeypatch)
    monkeypatch.setattr(selftest, "SPLIT_PLANS", 20)
    runs = ((lambda: certify_params(FamilyParams("II-T3a", 16, i=5, t=1), effort="structure"), 3),
            (lambda: certify_params(FamilyParams("II-T3a", 32, i=14, t=1), effort="structure"), 3),
            (selftest.check_split_plans, 20))
    for run, count in runs:
        taken.clear()
        run()
        assert len(taken) == count and set(taken) == {"_rref_ints"}


def test_only_matrix_names_the_rref_kernels():
    # _rref is the one entry point: callers, the elimination counters and
    # the perfbench tracer all see it, so no other module reaches past it
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    kernels = ("_rref_ints", "_rref_arrays")
    files = [*sorted((root / "src" / "aqcc").glob("*.py")), *sorted((root / "perfbench").glob("*.py")),
             *sorted((root / "tests").glob("*.py"))]
    assert len(files) > 20
    allowed = {root / "src" / "aqcc" / "matrix.py", Path(__file__).resolve()}
    offenders = [path.name for path in files
                 if path not in allowed and any(k in path.read_text() for k in kernels)]
    assert offenders == []


def test_only_gf_indexes_the_field_tables():
    import ast
    from pathlib import Path

    import aqcc

    tables = ("_ADD", "_MUL", "_NEG", "_INV")
    lists = ("_exp_list", "_log_list", "_neg_list")
    # inside gf.py: the builder and the array kernels read the tables, as do
    # add and sub of the int path, which gather sums over odd extension
    # fields; the builder and the int path read the lists.  gf.py builds
    # the row tables and reads none; matrix's entry point asks whether a
    # field has them and its integer-row kernel reads them.  No other reader.
    readers = {
        "gf.py": {
            **dict.fromkeys(tables, {"_build_tables", "_vadd", "_vsub", "_vneg", "_vinv", "_vmul",
                                     "_vmatmul", "add", "sub"}),
            **dict.fromkeys(lists, {"_build_tables", "sub", "neg", "mul", "inv", "pow", "exp"}),
        },
        "matrix.py": {"_row_tables": {"_rref", "_rref_ints"}},
    }
    names = {*tables, *lists, "_row_tables"}
    offenders = []

    def visit(path, node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                visit(path, child, getattr(child, "name", "<lambda>"))
                continue
            if (isinstance(child, ast.Attribute) and child.attr in names
                    and owner not in readers.get(path.name, {}).get(child.attr, ())):
                offenders.append(f"{path.name}:{child.lineno} in {owner}")
            visit(path, child, owner)

    src = Path(aqcc.__file__).parent
    for path in sorted(src.glob("*.py")):
        visit(path, ast.parse(path.read_text()), "<module>")
    assert offenders == []


def test_only_gf_names_the_table_size():
    # gf.field_order is the one q gate; every other module calls it
    from pathlib import Path

    import aqcc

    src = Path(aqcc.__file__).parent
    offenders = [path.name for path in sorted(src.glob("*.py"))
                 if path.name != "gf.py" and "MAX_Q" in path.read_text()]
    assert offenders == []


@pytest.mark.parametrize("q", [2, 7, 9, 16])
def test_kernel_results_are_read_only_int32(q):
    """Results are wrapped without a copy or a range check, so each must
    come out of the kernels as its own read-only int32 array."""
    from aqcc.convo import PolyMatrix

    f = field_from_order(q)
    rng = np.random.default_rng(q)
    a = MatrixGF(f, rng.integers(0, q, size=(3, 5)))
    b = MatrixGF(f, rng.integers(0, q, size=(3, 5)))
    square = MatrixGF(f, rng.integers(0, q, size=(5, 5)))
    results = [
        a @ square, a.T, a.rref()[0], a.kernel(),
        MatrixGF(f, np.concatenate([a.a, b.a, a.a])).remove_dependent_rows(),
        solve_left(square, a @ square),
    ]
    g = PolyMatrix.from_coefficients(f, rng.integers(0, q, size=(3, 2, 4)))
    h = PolyMatrix.from_coefficients(f, rng.integers(0, q, size=(2, 2, 4)))
    polys = [g + h, g - h, g @ h.T, g.T, g.reverse(3)]
    arrays = [m.a for m in results] + [m.c for m in polys]
    for arr in arrays:
        assert arr.dtype == np.int32
        assert not arr.flags.writeable
        assert arr.size == 0 or (arr.min() >= 0 and arr.max() < q)
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0


def _kernel_from(field, a):
    """The parent kernel: the reduced echelon basis from a fresh elimination."""
    red, piv = _rref(field, a)
    free = [c for c in range(a.shape[1]) if c not in piv]
    out = np.zeros((len(free), a.shape[1]), dtype=np.int32)
    for r, c in enumerate(free):
        out[r, c] = 1
        if piv:
            out[r, list(piv)] = field._vneg(red[: len(piv), c].copy())
    return out


def _random_cases(q, rng):
    """Wide, tall, square and empty matrices, some with zero rows and some
    with a row that combines two others."""
    f = field_from_order(q)
    shapes = [(0, 0), (0, 5), (4, 0), (1, 1), (3, 9), (9, 3), (6, 6), (5, 12), (12, 5)]
    for shape in shapes:
        for variant in range(4):
            a = rng.integers(0, q, shape).astype(np.int32)
            rows = shape[0]
            if variant in (1, 3) and rows >= 2:
                a[rng.integers(0, rows, 1 + rows // 3)] = 0
            if variant in (2, 3) and rows >= 3:
                x, y = (int(v) for v in rng.integers(1, q, 2))
                i, j, k = rng.permutation(rows)[:3]
                a[k] = f._vadd(f._vmul(x, a[i]), f._vmul(y, a[j]))
            yield f, a


@pytest.mark.parametrize("q", [2, 4, 7, 9, 16, 17])
def test_cached_echelon_matches_fresh_elimination(q):
    rng = np.random.default_rng(1000 + q)
    for f, a in _random_cases(q, rng):
        m = MatrixGF(f, a)
        want_red, want_piv = _rref(f, a)
        want_keep = _rref(f, a.T)[1]  # the transpose route
        red, piv = m.rref()
        assert piv == want_piv and np.array_equal(red.a, want_red)
        assert m.rref()[1] == piv and m.rref()[0] is red
        assert m.rank() == len(want_piv)
        assert np.array_equal(m.kernel().a, _kernel_from(f, a))
        assert m.independent_row_indices() == want_keep
        kept = m.remove_dependent_rows()
        assert np.array_equal(kept.a, a[list(want_keep)])
        # the kept rows span the row space, so they inherit the echelon
        kept_red, kept_piv = kept.rref()
        fresh_red, fresh_piv = _rref(f, kept.a)
        assert kept_piv == fresh_piv == want_piv
        assert np.array_equal(kept_red.a, fresh_red)
        assert np.array_equal(kept.kernel().a, _kernel_from(f, kept.a))
        for arr in (red.a, m.kernel().a, kept.a, kept_red.a, kept.kernel().a):
            assert arr.dtype == np.int32 and not arr.flags.writeable
        # right_inverse's one elimination of [A | I] gives the same echelon,
        # or keeps the cached one, and an R with A @ R == I exactly when the
        # rows are independent
        for mat in (MatrixGF(f, a), m):
            r = mat.right_inverse()
            assert mat.right_inverse() is r
            assert (r is None) == (len(want_piv) < a.shape[0])
            if r is not None:
                assert mat @ r == MatrixGF.identity(f, a.shape[0])
                assert r.a.dtype == np.int32 and not r.a.flags.writeable
            got_red, got_piv = mat.rref()
            assert got_piv == want_piv and np.array_equal(got_red.a, want_red)
        assert m.rref()[0] is red
