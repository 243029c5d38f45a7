import heapq
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from aqcc import FamilyParams, block, certify_params, selftest, trellis
from aqcc.errors import AqccError, CatastrophicEncoder, RankDeficient
from aqcc.block import _SCORE_CHUNK, DistanceBound, by_column, codeword_table, mismatches, rs_parity
from aqcc.convo import (
    PolyMatrix,
    dual_generator,
    padd,
    parse_poly_matrix,
    pscale,
    reduce,
    split_to_generator,
)
from aqcc.families import FAMILIES, enumerate_family, layout
from aqcc.gf import FiniteField
from aqcc.matrix import MatrixGF, field_from_order
from aqcc.trellis import _class_representatives, _digit_sums, _dijkstra, _probe_upper, free_distance


ENCODER_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "encoders"


@pytest.fixture(scope="module")
def gf2():
    return FiniteField.get(2, 1)


@pytest.fixture(scope="module")
def gf3():
    return FiniteField.get(3, 1)


def gamma(g: PolyMatrix) -> int:
    return sum(reduce(g).row_degrees)


def designed(lower: int) -> DistanceBound:
    return DistanceBound(lower, None, "designed", "designed")


class TestExactSearch:
    def test_unit_delay_pair_gf2(self, gf2):
        g = PolyMatrix(gf2, [[(1,), (0, 1)]])
        r = free_distance(g)
        assert r.exact and r.lower == 2 and r.method == "dijkstra"
        assert gamma(g) == 1

    def test_two_output_encoder(self, gf2):
        r = free_distance(PolyMatrix(gf2, [[(1,), (1, 1)]]))
        assert r.exact and r.lower == 3

    def test_rate_half_memory_two(self, gf2):
        # generators 1 + D**2 and 1 + D + D**2
        r = free_distance(PolyMatrix(gf2, [[(1, 0, 1), (1, 1, 1)]]))
        assert r.exact and r.lower == 5
        # columns 1 + D**2 and 1 + D + D**2, one row per degree
        assert np.array_equal(r.witness, [[1, 1], [0, 1], [1, 1]])

    def test_unit_delay_pair_gf3(self, gf3):
        r = free_distance(PolyMatrix(gf3, [[(1,), (0, 1)]]))
        assert r.exact and r.lower == 2

    def test_zero_memory_becomes_block_distance(self, gf3):
        g = PolyMatrix(gf3, [[(1,), (), (1,)], [(), (1,), (2,)]])
        r = free_distance(g)
        assert r.method == "block" and gamma(g) == 0
        assert r.exact and r.lower == 2
        with pytest.raises(AqccError, match="exceeds 2, the weight of a codeword"):
            r.meet(designed(3))

    def test_reduction_happens_first(self, gf2):
        # rows [1+D, D], [1, 1] reduce to memory zero
        g = PolyMatrix(gf2, [[(1, 1), (0, 1)], [(1,), (1,)]])
        r = free_distance(g)
        assert r.method == "block"
        assert r.exact and r.lower == 1

    def test_invariance_under_row_operations(self, gf3):
        g = PolyMatrix(gf3, [[(1,), (), (0, 1)], [(), (1,), (0, 2)]])
        d1 = free_distance(g).lower
        # swap rows and add D times one row to the other
        u = PolyMatrix(gf3, [[(), (1,)], [(1,), (0, 1)]])
        d2 = free_distance(u @ g).lower
        assert d1 == d2


@pytest.fixture(scope="module")
def structure():
    return rs_parity(FiniteField.get(7, 1), 6, 4, b=1)


class TestSplitOracles:
    """Frozen exact values for splits of the [6, 3, 4] code over GF(7)."""

    def test_two_block_split(self, structure):
        s = structure
        f = s.field
        b0 = MatrixGF(f, np.concatenate([s.row_groups[1], s.row_groups[2]]))
        b1 = MatrixGF(f, s.row_groups[3])
        g = split_to_generator([b0, b1])
        span = s.code.dual().min_distance()
        assert span.lower == 4
        # the span's distance is a lower bound only, as the certifier states it
        r = free_distance(g).meet(DistanceBound(span.lower, None, "designed", "d_dual"))
        assert r.exact and r.lower == 6
        assert r.method == "dijkstra" and r.floor == "dijkstra"

    def test_single_row_blocks(self, structure):
        s = structure
        f = s.field
        g = split_to_generator([MatrixGF(f, s.row_groups[c]) for c in (1, 2, 3)])
        r = free_distance(g)
        assert r.exact and r.lower == 18
        assert gamma(g) == 2

    def test_carried_bound_is_respected(self, structure):
        s = structure
        f = s.field
        b0 = MatrixGF(f, np.concatenate([s.row_groups[1], s.row_groups[2]]))
        b1 = MatrixGF(f, s.row_groups[3])
        g = split_to_generator([b0, b1])
        with pytest.raises(AqccError, match="exceeds 6, the weight of a codeword"):
            free_distance(g).meet(designed(7))  # exact answer is 6


class TestGuards:
    def test_catastrophic_rejected(self, gf2):
        g = PolyMatrix(gf2, [[(1, 1), (1, 0, 1)]])  # common factor 1 + D
        with pytest.raises(CatastrophicEncoder):
            free_distance(g)

    def test_rank_deficient_rejected(self, gf3):
        g = PolyMatrix(gf3, [[(1,), (2,)], [(2,), (4 % 3,)]])
        with pytest.raises(RankDeficient):
            free_distance(g)

    def test_budget_fallback_brackets(self, gf2):
        g = PolyMatrix(gf2, [[(1, 0, 1), (1, 1, 1)]])
        r = free_distance(g, state_budget=1)
        assert r.method == "bounded"
        assert not r.exact
        assert r.lower == 1 and r.upper == 5  # single row weight
        assert r.floor == "none"
        assert r.witness is not None

    def test_budget_fallback_can_close(self, gf2):
        g = PolyMatrix(gf2, [[(1, 0, 1), (1, 1, 1)]])
        r = free_distance(g, state_budget=1).meet(designed(5))
        assert r.method == "bounded" and r.exact and r.lower == 5
        assert r.floor == "designed"

    def test_inconsistent_hint_detected_in_bounded_mode(self, gf2):
        g = PolyMatrix(gf2, [[(1, 0, 1), (1, 1, 1)]])
        with pytest.raises(AqccError, match="exceeds 5, the weight of a codeword"):
            free_distance(g, state_budget=1).meet(designed(6))

    @pytest.mark.parametrize("budgets", [{"state_budget": 0}, {"work_budget": -1}])
    def test_budgets_below_one_rejected(self, gf2, budgets):
        with pytest.raises(ValueError):
            free_distance(PolyMatrix(gf2, [[(1,), (0, 1)]]), **budgets)


def scalar_free_distance(g: PolyMatrix) -> int:
    """Free distance by a plain per-edge Dijkstra with scalar field ops.

    A state holds, for each row i, its last nu_i inputs, newest first; an
    edge appends one input symbol per row and costs the Hamming weight of
    the n output symbols it emits.
    """
    f = g.field
    k, n = g.shape
    nu = g.row_degrees
    zero = tuple((0,) * d for d in nu)

    def coef(i, c, d):
        p = g.e[i][c]
        return p[d] if d < len(p) else 0

    def edge(state, u):
        weight = 0
        for c in range(n):
            y = 0
            for i in range(k):
                for d, x in enumerate((u[i],) + state[i]):
                    y = f.add(y, f.mul(x, coef(i, c, d)))
            weight += y != 0
        nxt = tuple(((u[i],) + state[i])[: nu[i]] for i in range(k))
        return weight, nxt

    msgs = list(itertools.product(range(f.q), repeat=k))
    heap = []
    for u in msgs[1:]:  # leave the zero state with a nonzero message
        heap.append(edge(zero, u))
    heapq.heapify(heap)
    done = set()
    while heap:
        d, s = heapq.heappop(heap)
        if s == zero:
            return d
        if s in done:
            continue
        done.add(s)
        for u in msgs:
            w, t = edge(s, u)
            if t not in done:
                heapq.heappush(heap, (d + w, t))
    raise AssertionError("zero state unreachable")


def all_states_dijkstra(g: PolyMatrix) -> tuple[int, int]:
    """The exact search that settles every nonzero state it reaches, not
    one per scalar class: (free distance, states settled)."""
    field, q = g.field, g.field.q
    k, n = g.shape
    nu = g.row_degrees
    gamma = sum(nu)
    coef = g.c

    starts = [sum(nu[:i]) for i in range(k)]  # row i's first state digit
    # state digit p, the input of row i from d steps back, adds coef[d][i]
    state_rows = np.array([coef[d][i] for i in range(k) for d in range(1, nu[i] + 1)])

    out0 = codeword_table(field, coef[0])
    next0 = _digit_sums(q, [q ** starts[i] if nu[i] > 0 else 0 for i in range(k)])

    # messages in next-state order (message 0 stays first), so that each
    # group of messages reaching one next state is a contiguous run
    perm = np.argsort(next0, kind="stable")
    out0 = out0[perm]
    next_states, group_start = np.unique(next0[perm], return_index=True)

    shift_w = np.zeros(gamma, dtype=np.int64)
    for i in range(k):
        for d in range(1, nu[i]):  # digit (i, d) moves one delay deeper
            p = starts[i] + d - 1
            shift_w[p] = q ** (p + 1)

    # -out_s and the shifted next state are sums over the state digits, so
    # both are tabulated for the low and the high half of the digits; state
    # s = lo + split * hi then needs one lookup in each half
    half = gamma // 2
    split = q ** half
    neg_rows = field._vneg(state_rows.reshape(gamma, n))
    neg_lo, neg_hi = codeword_table(field, neg_rows[:half]), codeword_table(field, neg_rows[half:])
    moved_lo = _digit_sums(q, shift_w[:half]).tolist()
    moved_hi = _digit_sums(q, shift_w[half:]).tolist()

    INF = np.iinfo(np.int64).max
    dist = np.full(q ** gamma, INF, dtype=np.int64)
    settled = np.zeros(q ** gamma, dtype=bool)
    heap: list[tuple[int, int]] = []

    def relax(base_dist: int, base_state: int, weights: np.ndarray):
        cand = np.minimum.reduceat(weights, group_start) + base_dist
        targets = next_states + base_state
        better = cand < dist[targets]
        targets, cand = targets[better], cand[better]
        dist[targets] = cand
        for t, d in zip(targets.tolist(), cand.tolist()):
            heapq.heappush(heap, (d, t))

    w0 = (out0 != 0).sum(axis=1).astype(np.int64)
    w0[0] = INF  # leaving the zero state needs a nonzero message
    relax(0, 0, w0)

    states = 0
    while heap:
        dcur, s = heapq.heappop(heap)
        if s == 0:
            return dcur, states
        if settled[s]:
            continue
        settled[s] = True
        states += 1
        hi, lo = divmod(s, split)
        want = field._vadd(neg_lo[lo], neg_hi[hi])
        relax(dcur, moved_lo[lo] + moved_hi[hi], (out0 != want).sum(axis=1))
    raise AqccError("zero state unreachable; the encoder graph is disconnected")


def heap_dijkstra(g: PolyMatrix) -> tuple[int, int, np.ndarray]:
    """The search over scalar classes one heap pop at a time: (free
    distance, classes settled before the zero class, witness).  Each
    expansion weighs its q**k messages by plain comparison; a relaxation
    records a class's branch only when it strictly lowers the distance."""
    field, q = g.field, g.field.q
    k, n = g.shape
    nu = g.row_degrees
    gamma = sum(nu)
    coef = g.c

    starts = [sum(nu[:i]) for i in range(k)]  # row i's first state digit
    # state digit p, the input of row i from d steps back, adds coef[d][i]
    state_rows = np.array([coef[d][i] for i in range(k) for d in range(1, nu[i] + 1)])

    # the rows with nu_i = 0 are the fastest message digits, so the messages
    # that differ only in them, which reach one next state, are contiguous:
    # run r of q**k0 messages feeds the memory rows the digits of r
    order = sorted(range(k), key=lambda i: nu[i] > 0)
    out0 = codeword_table(field, coef[0][order])
    next_states = _digit_sums(q, [q ** starts[i] for i in order if nu[i] > 0])

    shift_w = np.zeros(gamma, dtype=np.int64)
    for i in range(k):
        for d in range(1, nu[i]):  # digit (i, d) moves one delay deeper
            p = starts[i] + d - 1
            shift_w[p] = q ** (p + 1)

    # -out_s and the shifted next state are sums over the state digits, so
    # both are tabulated for the low and the high half of the digits; state
    # s = lo + split * hi then needs one lookup in each half
    half = gamma // 2
    split = q ** half
    neg_rows = field._vneg(state_rows.reshape(gamma, n))
    neg_lo, neg_hi = codeword_table(field, neg_rows[:half]), codeword_table(field, neg_rows[half:])
    moved_lo = _digit_sums(q, shift_w[:half]).tolist()
    moved_hi = _digit_sums(q, shift_w[half:]).tolist()
    rep, _ = _class_representatives(field, gamma)

    INF = np.iinfo(np.int64).max
    dist = np.full(q ** gamma, INF, dtype=np.int64)
    settled = np.zeros(q ** gamma, dtype=bool)
    # via[t] = s * q**k + u: the settled class s and the message u of the
    # branch that last lowered dist[t]
    via = np.zeros(q ** gamma, dtype=np.int64)
    heap: list[tuple[int, int]] = []
    run_len = len(out0) // len(next_states)

    def relax(base_dist: int, source: int, base_state: int, weights: np.ndarray):
        w = weights.reshape(len(next_states), run_len)
        cand = w.min(axis=1) + base_dist
        targets = rep(next_states + base_state)
        better = np.flatnonzero(cand < dist[targets])
        targets, cand = targets[better], cand[better]
        np.minimum.at(dist, targets, cand)  # runs may land in one class
        least = cand == dist[targets]
        won = better[least]  # the runs that set dist; their argmin is the message
        via[targets[least]] = source * q ** k + won * run_len + w[won].argmin(axis=1)
        for d, t in set(zip(cand[least].tolist(), targets[least].tolist())):
            heapq.heappush(heap, (d, t))

    def witness() -> np.ndarray:
        # c turns the representative s of each branch into the path's state
        steps = [divmod(int(via[0]), q ** k)]
        while steps[-1][0]:
            steps.append(divmod(int(via[steps[-1][0]]), q ** k))
        u = np.zeros((len(steps), 1, k), dtype=np.int32)
        c = 1
        for j, (s, m) in enumerate(reversed(steps)):
            u[j, 0, order] = field._vmul(c, (m // q ** np.arange(k)) % q)
            hi, lo = divmod(s, split)
            t = int(next_states[m // run_len]) + moved_lo[lo] + moved_hi[hi]
            while t and not t % q:
                t //= q
            c = field.mul(c, t % q or 1)  # rep(t) is t over its lowest nonzero digit
        return (PolyMatrix.from_coefficients(field, u) @ g).c[:, 0]

    w0 = (out0 != 0).sum(axis=1).astype(np.int64)
    w0[0] = INF  # leaving the zero state needs a nonzero message
    relax(0, 0, 0, w0)

    states = 0
    while heap:
        dcur, s = heapq.heappop(heap)
        if s == 0:
            return dcur, states, witness()
        if settled[s]:
            continue
        settled[s] = True
        states += 1
        hi, lo = divmod(s, split)
        want = field._vadd(neg_lo[lo], neg_hi[hi])
        relax(dcur, s, moved_lo[lo] + moved_hi[hi], (out0 != want).sum(axis=1))
    raise AqccError("zero state unreachable; the encoder graph is disconnected")


def pshift(a, s):
    """Multiply the coefficient tuple a by D**s."""
    return (0,) * s + a if a else ()


def poly_vector_weight(row) -> int:
    """Hamming weight of a polynomial vector across all coefficients."""
    return sum(1 for p in row for c in p if c)


def test_vector_weight():
    assert poly_vector_weight(((1, 0, 2), (), (3,))) == 3


def digitwise_representatives(field, gamma: int, states: np.ndarray) -> np.ndarray:
    """Each state expanded into its gamma digits, all of them divided by the
    lowest nonzero one and packed again; the zero state stays."""
    q = field.q
    place = q ** np.arange(gamma, dtype=np.int64)
    digits = ((states[:, None] // place) % q).astype(np.int32)
    low = digits[np.arange(len(digits)), (digits != 0).argmax(axis=1)]
    lam = field._vinv(np.where(low == 0, 1, low))
    return field._vmul(lam[:, None], digits) @ place


def loop_lowest_digit(q: int, state: int) -> int:
    """The lowest nonzero base-q digit of state, 0 for the zero state."""
    while state and not state % q:
        state //= q
    return state % q


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
@pytest.mark.parametrize("gamma", [1, 2, 3, 4])
def test_class_representatives_match_digitwise_scaling(q, gamma):
    field = field_from_order(q)
    rep, lowest = _class_representatives(field, gamma)
    assert _class_representatives(field_from_order(q), gamma)[0] is rep  # built once
    states = np.arange(q ** gamma, dtype=np.int64)
    got = rep(states)
    assert got.dtype == np.int64
    assert np.array_equal(got, digitwise_representatives(field, gamma, states))
    # in any order, with repeats, as the search hands them over
    mixed = np.random.default_rng(q * gamma).permutation(np.concatenate([states, states[::3]]))
    assert np.array_equal(rep(mixed), digitwise_representatives(field, gamma, mixed))
    assert lowest(mixed).tolist() == [loop_lowest_digit(q, s) for s in mixed.tolist()]


def loop_probe(g: PolyMatrix):
    """The trellis probe as plain loops: rows, then row_i + c * D**s * row_j.
    Returns (weight, witness), the witness as the probe's (L, n) array."""
    f = g.field
    k, n = g.shape
    best = (None, None)
    cands = [tuple(g.e[i]) for i in range(k)] + [
        tuple(padd(f, g.e[i][t], pshift(pscale(f, g.e[j][t], c), s)) for t in range(n))
        for i in range(k)
        for j in range(k)
        for s in range(max(g.max_degree, 0) + 1)
        if i != j or s
        for c in range(1, f.q)
    ]
    for vec in cands:
        w = poly_vector_weight(vec)
        if w and (best[0] is None or w < best[0]):
            best = (w, vec)
    return best[0], PolyMatrix(f, [best[1]]).c[:, 0]


def assert_same_result(got, want):
    """Equal results whose last entry, a witness array, is equal as an array."""
    assert got[:-1] == want[:-1]
    assert np.array_equal(got[-1], want[-1])


@pytest.fixture(scope="module")
def split_gens():
    """Basic reduced generators from the split-plan selftest's generator."""
    rng = random.Random(20260817)
    out = []
    while len(out) < 100:
        for g in selftest._random_plan(rng).generators():
            if g.field.q ** (sum(g.row_degrees) + g.rows) <= 2 ** 12:
                out.append(g)
    return out[:100]


@pytest.fixture(scope="module")
def odd_gens():
    """Basic encoders over GF(3) and GF(5) with row degrees up to 3.

    Their weights depend on signs (out0 + out_s against out0 - out_s), which
    binary encoders and the split generators above rarely expose.
    """
    rng = random.Random(5)
    out = []
    while len(out) < 40:
        f = FiniteField.get(rng.choice((3, 5)), 1)
        k, n = rng.choice(((1, 2), (1, 3), (2, 3)))
        g = PolyMatrix(f, [
            [tuple(rng.randrange(f.q) for _ in range(rng.randint(1, 4))) for _ in range(n)]
            for _ in range(k)
        ])
        try:
            free_distance(g, state_budget=1)
        except (CatastrophicEncoder, RankDeficient):
            continue
        if f.q ** (gamma(g) + k) <= 2 ** 12:
            out.append(g)
    return out


@pytest.fixture(scope="module")
def sparse_gens():
    """Generators over GF(9), GF(16) and GF(17) with k <= 4 rows of degree
    at most 2, about half of whose coefficients are zero."""
    rng = random.Random(25)
    out = []
    for q in (9, 16, 17):
        f = field_from_order(q)
        for _ in range(20):
            k, n, mu = rng.randint(1, 4), rng.randint(2, 5), rng.randint(0, 2)
            out.append(PolyMatrix(f, [
                [tuple(rng.randrange(q) * (rng.random() < 0.5) for _ in range(rng.randint(1, mu + 1)))
                 for _ in range(n)]
                for _ in range(k)
            ]))
    return out


def support_overlaps(g: PolyMatrix) -> tuple[bool, bool]:
    """Over the probe's (i, j, s): whether some row_i and D**s * row_j
    share part of their supports, and whether on some common support the
    ratio -row_i / D**s * row_j takes one value twice."""
    f = g.field
    k, n = g.shape
    rows = [{(t, e): c for t in range(n) for e, c in enumerate(g.e[i][t]) if c} for i in range(k)]
    part = collide = False
    for i, j, s in itertools.product(range(k), range(k), range(max(g.max_degree, 0) + 1)):
        if i == j and not s:
            continue
        x, y = rows[i], {(t, e + s): c for (t, e), c in rows[j].items()}
        both = x.keys() & y.keys()
        part |= bool(both) and both != x.keys() | y.keys()
        ratios = [f.mul(f.neg(x[p]), f.inv(y[p])) for p in both]
        collide |= len(set(ratios)) < len(ratios)
    return part, collide


@pytest.fixture(scope="module")
def multi_row_gens():
    """Basic encoders over GF(4), GF(7), GF(8) and GF(9) with k >= 2 rows of
    mixed degrees, most with a memory-free row, and gamma >= 2.

    Their scalar classes hold q - 1 >= 3 states, and their memory-free rows
    make each next state the target of a run of several messages.
    """
    rng = random.Random(14)
    out = []
    for q in (4, 7, 8, 9):
        f = field_from_order(q)
        found = 0
        while found < 5:
            degs = rng.choice(((0, 2), (2, 1), (1, 2), (2, 0),
                               (0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 1, 2), (2, 0, 1)))
            k = len(degs)
            n = k + rng.randint(2, 3)
            g = PolyMatrix(f, [
                [tuple(rng.randrange(q) for _ in range(d + 1)) for _ in range(n)]
                for d in degs
            ])
            try:
                nu = reduce(g).row_degrees
                free_distance(g, state_budget=1)
            except (CatastrophicEncoder, RankDeficient):
                continue
            if sum(nu) >= 2 and len(set(nu)) > 1 and q ** (sum(nu) + k) <= 2 ** 15:
                out.append(g)
                found += 1
    return out


@pytest.fixture(scope="module")
def heavy_gens():
    """Basic reduced encoders with hundreds to thousands of scalar classes:
    GF(2) with row degrees (6, 6), GF(4) with (2, 2, 2), GF(8) with (2, 1)."""
    rng = random.Random(17)
    out = []
    for q, degs in ((2, (6, 6)), (4, (2, 2, 2)), (8, (2, 1))):
        f = field_from_order(q)
        while True:
            g = PolyMatrix(f, [
                [tuple(rng.randrange(q) for _ in range(d + 1)) for _ in range(len(degs) + 2)]
                for d in degs
            ])
            try:
                nu = reduce(g).row_degrees
                free_distance(g, state_budget=1)
            except (CatastrophicEncoder, RankDeficient):
                continue
            if tuple(nu) == degs:
                out.append(g)
                break
    return out


def assert_same_search(g):
    """The bucketed search settles the classes the heap search settles
    before the zero class, and agrees with the search over every state;
    the heap search's witness, by its own tie rule, has weight d."""
    g = reduce(g)
    q = g.field.q
    d, states, _ = _dijkstra(g)
    heap_d, heap_states, heap_witness = heap_dijkstra(g)
    assert (d, states) == (heap_d, heap_states)
    assert np.count_nonzero(heap_witness) == d and heap_witness[-1].any()
    assert d == all_states_dijkstra(g)[0]
    assert states <= (q ** sum(g.row_degrees) - 1) // (q - 1)
    return states


def octal_row(*gens):
    """Binary generators in octal, the high bit being the D**0 coefficient."""
    return [tuple(int(b) for b in bin(int(o, 8))[2:]) for o in gens]


TEXTBOOK = [  # rate 1/2, memory m = 2..6, maximum free distance
    (("5", "7"), 5),
    (("15", "17"), 6),
    (("23", "35"), 7),
    (("53", "75"), 8),
    (("133", "171"), 10),
]


class TestAgainstScalarSearch:
    def test_random_split_generators(self, split_gens):
        assert len(split_gens) == 100
        searched = 0
        for g in split_gens:
            r = free_distance(g)
            assert r.exact
            assert r.lower == scalar_free_distance(g)
            assert r.states <= (g.field.q ** gamma(g) - 1) // (g.field.q - 1)
            searched += r.method == "dijkstra"
        assert searched > 50

    def test_random_odd_characteristic_encoders(self, odd_gens):
        for g in odd_gens:
            r = free_distance(g)
            assert r.exact
            assert r.lower == scalar_free_distance(reduce(g))
            assert r.states <= (g.field.q ** gamma(g) - 1) // (g.field.q - 1)

    def test_probe_against_loops(self, monkeypatch, split_gens, odd_gens, sparse_gens):
        for g in split_gens + odd_gens + sparse_gens:
            assert_same_result(_probe_upper(g), loop_probe(g))
        # one row i per pass of the histogram
        monkeypatch.setattr(trellis, "_SCORE_CHUNK", 1)
        for g in sparse_gens:
            assert_same_result(_probe_upper(g), loop_probe(g))
        # the sparse rows are the ones whose supports meet in part, and
        # whose ratios -row_i / D**s * row_j repeat on the common support
        seen = [support_overlaps(g) for g in sparse_gens]
        assert any(part for part, _ in seen) and any(collide for _, collide in seen)

    @pytest.mark.parametrize("gens,d", TEXTBOOK, ids=[f"m{m}" for m in range(2, 7)])
    def test_textbook_encoders(self, gf2, gens, d):
        g = PolyMatrix(gf2, [octal_row(*gens)])
        r = free_distance(g)
        assert r.exact and r.method == "dijkstra"
        assert r.lower == d == scalar_free_distance(g)
        assert r.states <= 2 ** gamma(g) - 1

    def test_reference_row_settles_each_state_once(self):
        # III-T5a q=11 i=6: 11**2 states in 12 = (11**2 - 1)/10 nonzero
        # scalar classes; the search settles each class once
        g1, _ = layout(FamilyParams("III-T5a", 11, i=6, t=1)).generators()
        r = free_distance(g1)
        assert r.exact and r.lower == 8 and r.method == "dijkstra"
        assert r.states == 12


def test_search_witness_is_a_codeword(split_gens, odd_gens, multi_row_gens, heavy_gens):
    # the path the search rebuilt: weight d, and zero against the minimal
    # dual h, w(D) h(1/D)^T = 0
    for g in split_gens + odd_gens + multi_row_gens + heavy_gens:
        r = free_distance(g)
        assert r.exact and r.witness is not None
        w = PolyMatrix.from_coefficients(g.field, r.witness[:, None])
        assert np.count_nonzero(r.witness) == r.lower
        h = dual_generator(g)
        assert (w @ h.reverse(max(h.max_degree, 0)).T).is_zero()


class TestAgainstAllStatesSearch:
    """The bucketed search over scalar classes against the heap search over
    them and the search over every state."""

    def test_split_and_odd_generators(self, split_gens, odd_gens):
        for g in split_gens + odd_gens:
            if gamma(g):
                assert_same_search(g)

    def test_multi_row_encoders(self, multi_row_gens):
        assert len(multi_row_gens) == 20
        for g in multi_row_gens:
            assert_same_search(g)

    def test_textbook_encoder_files(self):
        # perfbench/encoders/, read only, as tests/test_brackets.py reads it
        paths = sorted(ENCODER_DIR.glob("*.txt"))
        assert len(paths) == 14
        for path in paths:
            assert_same_search(parse_poly_matrix(path.read_text()))

    def test_heavier_encoders(self, heavy_gens):
        assert len(heavy_gens) == 3
        for g in heavy_gens:
            assert_same_search(g)

    def test_family_generators(self):
        # G1 and dual(G2) of every grid row at q <= 9 whose search has
        # state digits and at most 2**20 edges
        rows = searches = 0
        for q in (4, 5, 7, 8, 9):
            for fam in [f for f in FAMILIES if f != "I"]:  # I has no grid
                for p, _ in enumerate_family(fam, q):
                    g1, g2 = layout(p).generators()
                    rows += 1
                    for g in (reduce(g1), reduce(dual_generator(g2))):
                        gam = sum(g.row_degrees)
                        if gam and q ** (gam + g.rows) <= 2 ** 20:
                            assert_same_search(g)
                            searches += 1
        assert (rows, searches) == (214, 273)


@pytest.mark.parametrize("pairs", [1, 3])
def test_bucket_scored_in_chunks(monkeypatch, multi_row_gens, heavy_gens, pairs):
    # a bucket's (class, run) pairs scored a few per kernel call, against
    # one call for the whole bucket: the same distance, classes settled and
    # witness, since every class of a bucket is settled before any is relaxed
    kernel = block.mismatches
    for g in multi_row_gens + heavy_gens:
        g = reduce(g)
        run_len = g.field.q ** memory_free_rows(g)
        calls = []
        with monkeypatch.context() as mp:
            mp.setattr(trellis, "mismatches", lambda t, w: calls.append(len(w)) or kernel(t, w))
            mp.setattr(trellis, "_SCORE_CHUNK", 1 << 40)
            whole = _dijkstra(g)
            whole_calls = len(calls)
            calls.clear()
            mp.setattr(trellis, "_SCORE_CHUNK", pairs * max(run_len, g.cols))
            assert_same_result(_dijkstra(g), whole)
        # the zero state's runs go in one call; every later call holds at
        # most the chunk's pairs, so a bucket of more pairs takes several
        assert max(calls[1:], default=0) <= pairs
        assert len(calls) >= whole_calls


def test_search_scores_only_branches_into_open_classes(monkeypatch):
    # III-T5a q=11 i=6's G1: the zero state's 11**2 runs, then of its 12
    # classes' 12 * 11**2 (class, run) pairs only the 122 that reach a class
    # still open; scoring every pair would weigh 1573 rows
    rows = []
    kernel = block.mismatches
    monkeypatch.setattr(trellis, "mismatches", lambda t, w: rows.append(len(w)) or kernel(t, w))
    g1, _ = layout(FamilyParams("III-T5a", 11, i=6, t=1)).generators()
    r = free_distance(g1)
    assert (r.lower, r.states, sum(rows)) == (8, 12, 243)


def test_kernel_batches_stay_small(monkeypatch):
    # III-T5a q=11 i=6 at desk: the outer search weighs 11**5 messages per
    # class, in runs scored against the 11**3 codewords of C0', so a bucket
    # goes to the kernel a few classes at a time, never more than 2**20
    # table entries at once; 11**3 is also the largest enumeration low table
    entries = []
    kernel = block.mismatches

    def recorded(table_t, want):
        entries.append((len(want), table_t.shape[1]))
        return kernel(table_t, want)

    monkeypatch.setattr(block, "mismatches", recorded)
    monkeypatch.setattr(trellis, "mismatches", recorded)
    certify_params(FamilyParams("III-T5a", 11, i=6, t=1), effort="desk")
    assert max(rows for _, rows in entries) == 11 ** 3
    assert max(b * rows for b, rows in entries) <= 1 << 20


def table_dijkstra(g: PolyMatrix) -> tuple[int, int, np.ndarray]:
    """The bucketed search scoring every class against one table of all
    q**k messages' degree-0 codewords, free rows the fastest digits: the
    scoring the run-by-run search replaced, with the same packed key, so
    the same (free distance, classes settled, witness).  It weighs the
    messages by its own comparison, not by block.mismatches."""
    field, q = g.field, g.field.q
    k, n = g.shape
    nu = g.row_degrees
    gamma = sum(nu)
    coef = g.c

    starts = [sum(nu[:i]) for i in range(k)]
    state_rows = np.array([coef[d][i] for i in range(k) for d in range(1, nu[i] + 1)])
    order = sorted(range(k), key=lambda i: nu[i] > 0)
    out0 = codeword_table(field, coef[0][order])
    next_states = _digit_sums(q, [q ** starts[i] for i in order if nu[i] > 0])

    shift_w = np.zeros(gamma, dtype=np.int64)
    for i in range(k):
        for d in range(1, nu[i]):
            p = starts[i] + d - 1
            shift_w[p] = q ** (p + 1)

    half = gamma // 2
    split = q ** half
    neg_rows = field._vneg(state_rows.reshape(gamma, n))
    neg_lo, neg_hi = codeword_table(field, neg_rows[:half]), codeword_table(field, neg_rows[half:])
    moved_lo, moved_hi = _digit_sums(q, shift_w[:half]), _digit_sums(q, shift_w[half:])
    rep, _ = _class_representatives(field, gamma)

    size, msgs = q ** gamma, q ** k
    runs = len(next_states)
    run_len = msgs // runs
    INF = np.iinfo(np.int64).max
    radix = (n + 1) * size * msgs
    best = np.full(size, INF, dtype=np.int64)
    settled = np.zeros(size, dtype=bool)
    run_start = np.arange(runs) * run_len

    def relax(d, sources, bases, weights):
        w = weights.reshape(len(sources), runs, run_len)
        least = w.min(axis=2).astype(np.int64)
        key = ((((d + least) * (n + 1) + n - least) * size + sources[:, None]) * msgs
               + run_start + w.argmin(axis=2)).ravel()
        targets = rep((next_states + bases[:, None]).ravel())
        keep = (least.ravel() <= n) & ~settled[targets]
        np.minimum.at(best, targets[keep], key[keep])

    def witness():
        steps = [divmod(int(best[0]) % (size * msgs), msgs)]
        while steps[-1][0]:
            steps.append(divmod(int(best[steps[-1][0]]) % (size * msgs), msgs))
        u = np.zeros((len(steps), 1, k), dtype=np.int32)
        c = 1
        for j, (s, m) in enumerate(reversed(steps)):
            u[j, 0, order] = field._vmul(c, (m // q ** np.arange(k)) % q)
            hi, lo = divmod(s, split)
            t = int(next_states[m // run_len] + moved_lo[lo] + moved_hi[hi])
            while t and not t % q:
                t //= q
            c = field.mul(c, t % q or 1)
        return (PolyMatrix.from_coefficients(field, u) @ g).c[:, 0]

    def weighed(want):
        w = np.zeros((len(want), msgs), dtype=np.int64)
        for c in range(n):
            w += out0[:, c] != want[:, c, None]
        return w

    w0 = weighed(np.zeros((1, n), dtype=np.int32))
    w0[0, 0] = n + 1
    relax(0, np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), w0)

    step = max(1, _SCORE_CHUNK // msgs)
    states = 0
    while True:
        pending = np.where(settled, INF, best)
        d = int(pending.min()) // radix
        if best[0] < (d + 1) * radix:
            return d, states, witness()
        popped = np.flatnonzero(pending < (d + 1) * radix)
        settled[popped] = True
        states += len(popped)
        hi, lo = np.divmod(popped, split)
        want = field._vadd(neg_lo[lo], neg_hi[hi])
        bases = moved_lo[lo] + moved_hi[hi]
        for j in range(0, len(popped), step):
            relax(d, popped[j:j + step], bases[j:j + step], weighed(want[j:j + step]))


RUN_FIELDS = (2, 3, 4, 5, 7, 8, 9)


@pytest.fixture(scope="module")
def run_gens():
    """Basic reduced encoders over each of RUN_FIELDS with no memory-free
    row (k0 = 0), one (k0 = 1) and two or three (k0 >= 2), so the runs hold
    1, q and q**2 or more messages; q**(gamma + k) <= 2**14.  Row degrees
    (3,) and (0, 3) put state digits on both sides of the table cut."""
    rng = random.Random(22)
    out = []
    for q in RUN_FIELDS:
        f = field_from_order(q)
        for degs in ((1,), (3,), (1, 1), (0, 1), (0, 3), (1, 0, 2), (0, 2, 1), (0, 0, 1), (0, 1, 0, 1),
                     (0, 0, 0, 1)):
            gamma_k = sum(degs) + len(degs)
            if q ** gamma_k > 2 ** 14:
                continue
            while True:
                n = len(degs) + rng.randint(1, 3)
                g = PolyMatrix(f, [
                    [tuple(rng.randrange(q) for _ in range(d + 1)) for _ in range(n)]
                    for d in degs
                ])
                try:
                    free_distance(g, state_budget=1)
                except (CatastrophicEncoder, RankDeficient):
                    continue
                g = reduce(g)
                if sum(g.row_degrees):
                    out.append(g)
                    break
    return out


def memory_free_rows(g: PolyMatrix) -> int:
    return g.row_degrees.count(0)


def t5a_outer_encoder() -> PolyMatrix:
    g1, _ = layout(FamilyParams("III-T5a", 11, i=6, t=1)).generators()
    return reduce(g1)


def test_run_scoring_matches_table_scoring(run_gens):
    # the same distance, classes settled and witness as scoring against
    # the table of all q**k messages
    seen = set()
    for g in run_gens:
        seen.add((g.field.q, min(memory_free_rows(g), 2)))
        assert_same_result(_dijkstra(g), table_dijkstra(g))
    assert seen == {(q, k0) for q in RUN_FIELDS for k0 in (0, 1, 2)}


def test_run_scoring_matches_table_scoring_on_reference_row():
    # III-T5a q=11 i=6: runs of 11**3 messages over 11**2 offsets
    g = t5a_outer_encoder()
    assert memory_free_rows(g) == 3 and g.shape == (5, 10)
    assert_same_result(_dijkstra(g), table_dijkstra(g))


def test_search_builds_no_message_table(monkeypatch, run_gens):
    # with a memory-free row and fewer state digits than rows, so that no
    # table of state digits alone reaches q**k rows either, no table the
    # search builds or scores has a row per message; III-T5a q=11 i=6 also
    # peaks below the int32 bytes of such a table (its old scoring peaked
    # above them)
    import tracemalloc

    shapes = []

    def recorded(field, gen):
        table = codeword_table(field, gen)
        shapes.append(table.shape)
        return table

    kernel = block.mismatches
    monkeypatch.setattr(trellis, "codeword_table", recorded)
    monkeypatch.setattr(trellis, "mismatches", lambda t, w: shapes.append(t.shape[::-1]) or kernel(t, w))
    ref = t5a_outer_encoder()
    checked = 0
    for g in run_gens + [ref]:
        if not memory_free_rows(g) or sum(g.row_degrees) >= g.rows:
            continue  # with k0 = 0 the offsets are the messages' codewords
        shapes.clear()
        _dijkstra(g)
        assert shapes and max(rows for rows, _ in shapes) < g.field.q ** g.rows
        checked += 1
    assert checked > len(RUN_FIELDS) * 2
    tracemalloc.start()
    try:
        _dijkstra(ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 11 ** 5 * 10


def test_search_builds_two_tables(monkeypatch, heavy_gens):
    # the codewords of C0' and the run offsets -r G0,mem, whether C0' is
    # large (III-T5a q=11 i=6, k0 = 3) or a single word (GF(4), nu = (2, 2, 2));
    # a bucket's wanted symbols come from its classes' digit rows, with no
    # table over the state digits
    built = []

    def recorded(field, gen):
        built.append(len(gen))
        return codeword_table(field, gen)

    monkeypatch.setattr(trellis, "codeword_table", recorded)
    gf4 = heavy_gens[1]
    assert gf4.field.q == 4 and reduce(gf4).row_degrees == (2, 2, 2)
    for g, k0 in ((t5a_outer_encoder(), 3), (gf4, 0)):
        built.clear()
        assert free_distance(g).method == "dijkstra"
        assert built == [k0, g.rows - k0]
