"""Exact free distance by shortest path over the encoder state graph.

The encoder of a reduced generator matrix keeps, for each row i, the last
nu_i input symbols (nu_i is the row degree).  States pack those symbols
into one base-q integer; gamma = sum(nu_i) digits in total.  The free
distance is the least total output weight over paths that leave the zero
state with a nonzero input and first return to it.  Edge weights are small
nonnegative integers, so a bucketed Dijkstra run (Dial 1969) finds it: it
settles every class at the least pending distance d at once, relaxes all
their branches, and stops when d is the zero state's distance, reporting
the classes it settled, those below d.

The encoder is linear, so for every scalar lam != 0 the inputs lam * u
drive the state path lam * s with the same output weights, and the search
runs on the classes GF(q)* * s.  Each relaxation lands on the member whose
lowest nonzero digit is 1, the state's base-q digit row divided by that
digit and packed again (over GF(2), the state itself), so at most
(q**gamma - 1)/(q - 1) states are settled.  One digit expansion, _digits,
serves the popped classes, the representatives of their targets, the
witness's scale factors and the run offsets.  The rows with nu_i = 0 are
the fastest message digits, so the messages that reach one next state form
one contiguous run of q**k0, and each run offers its target class its
least weight.  A run's messages output the codewords of C0', the span of
those rows' degree-0 coefficients, each plus one offset r G0,mem from the
other rows, so the weight of message u_free + q**k0 * r from state s is
the number of columns c with C0'[u_free, c] != -out_s[c] - (r G0,mem)[c].
A bucket's wanted symbols come from one product: the base-q digit rows of
its classes times the state rows give every out_s, subtracted from the
table of offsets -r G0,mem.  Only the (class, run) pairs into classes
still open are scored, since a settled class takes no branch:
block.mismatches weighs them against the q**k0 codewords of C0', at most
_SCORE_CHUNK message weights and wanted symbols per call, and the search
keeps those two tables only, none of all q**k messages.

Each class keeps the branch that gave it its distance, by a rule that does
not depend on the order of the relaxations: among equal distances the
source of least distance wins, then the least source class, then the
first message of least weight.  A settled class takes no branch, so the
branches lead back to the zero state; the path is rebuilt from there, and
the witness u(D) @ g is read off its branches' outputs, each scaled back
from the class representative to the path's state.

Feasibility is gated four times: q**gamma states must fit the state
budget, q**(gamma + k) scanned edges the work budget, q**k * n
_MEM_ELEMENTS, and the search key of a branch an int64.  The third gate
bounds the search's two tables, C0' (q**k0 x n) and the run offsets
(q**(k - k0) x n), to q**k * n entries each; the work budget alone would
admit 2**25 runs, as q**gamma >= 2.  The fourth bounds the packed key
(distance, weight, source class, message) that _dijkstra keeps per class:
(n * (max nu + 1) + 1) * (n + 1) * q**gamma * q**k must fit in an int64.
Outside the budget the result degrades to the bracket the search proved,
"bounded": 1 with floor "none" below a short probe's least codeword; a
caller meets in any better lower bound it carries (DistanceBound.meet).
"""

from __future__ import annotations

import numpy as np

from .block import _SCORE_CHUNK, BlockCode, DistanceBound, by_column, codeword_table, mismatches
from .convo import PolyMatrix, degree_gap
from .convo import reduce as reduce_matrix
from .errors import CatastrophicEncoder

DEFAULT_STATE_BUDGET = 1 << 20
DEFAULT_WORK_BUDGET = 1 << 26
# q**k * n bounds _dijkstra's tables C0' (q**k0 x n) and run offsets (q**(k - k0) x n)
_MEM_ELEMENTS = 1 << 24


def free_distance(
    g: PolyMatrix,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> DistanceBound:
    """Free distance of the code generated by g, or the bracket the search
    proved within its budgets.

    The witness, on every route, is a codeword as one (L, n) coefficient
    array, row d for D**d: u(D) @ g, or for gamma = 0 the block codeword
    of g(0) as it is, L == 1.

    g must be basic (delay-free invertible); a catastrophic encoder would
    put zero-weight cycles in the state graph.  g is reduced first, which
    changes neither the code nor the answer and raises RankDeficient on
    dependent rows.  A positive degree gap (convo.degree_gap, the test
    behind convo.is_basic) refuses g with CatastrophicEncoder.
    """
    if state_budget < 1 or work_budget < 1:
        raise ValueError(
            f"budgets must be at least 1, got state {state_budget} and work {work_budget}"
        )
    f = g.field
    g = reduce_matrix(g)
    gap = degree_gap(g)
    if gap:
        raise CatastrophicEncoder(
            f"degree gap {gap}: the gcd of the {g.rows}x{g.rows} minors has "
            f"degree {gap}, so the encoder is not basic"
        )
    gamma = sum(g.row_degrees)
    k, n = g.shape
    q = f.q

    states, msgs = q ** gamma, q ** k
    if gamma == 0 and msgs <= work_budget:
        b = BlockCode(f, g.coefficient(0)).dual().min_distance(budget=work_budget)
        return DistanceBound(b.lower, b.upper, "block", "block", b.witness)
    # the range of _dijkstra's search key, which must fit an int64
    key_range = (n * (max(g.row_degrees) + 1) + 1) * (n + 1) * states * msgs
    if (states > state_budget or states * msgs > work_budget
            or msgs * n > _MEM_ELEMENTS or key_range > np.iinfo(np.int64).max):
        upper, wit = _probe_upper(g)
        return DistanceBound(1, upper, "bounded", "none", wit)
    d, settled, wit = _dijkstra(g)
    return DistanceBound(d, d, "dijkstra", "dijkstra", wit, settled)


def _probe_upper(g: PolyMatrix) -> tuple[int, np.ndarray]:
    """Least weight over rows and two-row combinations with small delays,
    the upper bound of the bounded route.

    The candidates are each row i, then row_i + c * D**s * row_j over
    (i, j, s, c) in that loop order, leaving out (i, i, 0, c); the first
    candidate of least nonzero weight wins.  Where both terms are nonzero,
    the combination vanishes for c = -row_i / D**s row_j alone, so each
    weight is the union of the two supports less one histogram count.
    """
    f, q = g.field, g.field.q
    k, n = g.shape
    mu = max(g.max_degree, 0)
    span = 2 * mu + 1
    a = g.coefficients(span).transpose(1, 2, 0)
    row_w = (a != 0).sum(axis=(1, 2))
    shifted = np.zeros((k, mu + 1, n, span), dtype=a.dtype)  # [j, s] is D**s * row_j
    for s in range(mu + 1):
        shifted[:, s, :, s:] = a[:, :, : span - s]
    x, y = a.reshape(k, -1), shifted.reshape(k * (mu + 1), -1)
    hits = np.zeros((k, k, mu + 1, q), dtype=np.int64)  # [i, j, s, c]: common positions of ratio c
    rows = max(1, _SCORE_CHUNK // y.size)  # passes of at most _SCORE_CHUNK (i, j, s, position) entries
    for lo in range(0, k, rows):  # the common positions of rows lo.. with each D**s * row_j
        ijs, p = np.divmod(np.flatnonzero((x[lo:lo + rows, None] != 0) & (y != 0)), y.shape[1])
        ratio = f._vmul(f._vneg(x[lo + ijs // len(y), p]), f._vinv(y[ijs % len(y), p]))
        h = hits[lo:lo + rows]
        h += np.bincount(ijs * q + ratio, minlength=h.size).reshape(h.shape)
    # D**s row_j fits the span: |supp row_i U supp D**s row_j| = row_w[i] + row_w[j] - common
    combo_w = (row_w[:, None] + row_w)[:, :, None, None] - hits.sum(axis=3, keepdims=True) - hits[..., 1:]
    none = n * span + 1
    combo_w[np.arange(k), np.arange(k), 0, :] = none
    combo_w[combo_w == 0] = none
    row_w[row_w == 0] = none
    # argmin returns the first least entry, which is the old loop's winner
    best_i = int(np.argmin(row_w))
    best = int(np.argmin(combo_w))
    if row_w[best_i] <= combo_w.flat[best]:
        return int(row_w[best_i]), g.c[: g.row_degrees[best_i] + 1, best_i]
    i, j, s, c = (int(x) for x in np.unravel_index(best, combo_w.shape))
    x = np.zeros((s + 1, 1, k), dtype=np.int32)  # row_i + (c + 1) * D**s * row_j
    x[0, 0, i], x[s, 0, j] = 1, c + 1
    return int(combo_w.flat[best]), (PolyMatrix.from_coefficients(f, x) @ g).c[:, 0]


def _digits(x: np.ndarray, place: np.ndarray, q: int) -> np.ndarray:
    """The base-q digit rows of x, digit t weighing place[t] = q**t."""
    return (x[..., None] // place) % q


def _classes(field, states, place: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rep, scale) per state: scale is its lowest nonzero digit and rep its
    digit row divided by scale, packed again, the member of its class
    GF(q)* * s that the search settles, so a state is scale * rep.  The
    zero state is its own class: rep 0, scale 1."""
    if field.q == 2:  # every nonzero digit is 1, so every class is one state
        return states, np.ones_like(states)
    ds = _digits(states, place, field.q)
    low = ds[np.arange(len(ds)), (ds != 0).argmax(axis=1)]
    scale = np.where(low == 0, 1, low)
    return field._vmul(field._vinv(scale)[:, None], ds) @ place, scale


def _dijkstra(g: PolyMatrix) -> tuple[int, int, np.ndarray]:
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
    # run r of q**k0 messages feeds the memory rows the digits of r.  Message
    # u_free + q**k0 * r outputs the codeword u_free of C0', the span of the
    # free rows' degree-0 coefficients, plus the offset r G0,mem of the
    # memory rows', so class s weighs run r against C0' alone:
    # #{c : C0'[u_free, c] != -out_s[c] - (r G0,mem)[c]}
    order = sorted(range(k), key=lambda i: nu[i] > 0)
    k0 = list(nu).count(0)
    table = by_column(codeword_table(field, coef[0][order[:k0]]), q)
    place = q ** np.arange(gamma, dtype=np.int64)
    # digit t of run r enters the first state digit of memory row order[k0 + t]
    runs = q ** (k - k0)
    next_states = _digits(np.arange(runs), place[:k - k0], q) @ place[[starts[i] for i in order[k0:]]]

    shift_w = np.zeros(gamma, dtype=np.int64)
    for i in range(k):
        for d in range(1, nu[i]):  # digit (i, d) moves one delay deeper
            p = starts[i] + d - 1
            shift_w[p] = q ** (p + 1)

    # a class with digit row ds outputs ds @ state_rows and moves to
    # ds @ shift_w, so run r wants neg_runs[r] - ds @ state_rows, that is
    # -out_s - r G0,mem, and reaches next_states[r] + ds @ shift_w
    neg_runs = codeword_table(field, field._vneg(coef[0][order[k0:]]))

    size, msgs = q ** gamma, q ** k
    run_len = msgs // runs
    # best[t] packs the branch that gave class t its distance d as
    # ((d * (n + 1) + n - w) * size + s) * msgs + u: its weight w, settled
    # source class s and message u.  Every state is at most max(nu) steps
    # of weight <= n from zero, so d <= n * (max(nu) + 1), and free_distance
    # sends a search whose keys would overflow to the bounded route
    INF = np.iinfo(np.int64).max
    radix = (n + 1) * size * msgs
    best = np.full(size, INF, dtype=np.int64)
    settled = np.zeros(size, dtype=bool)

    def relax(d: int, sources: np.ndarray, targets: np.ndarray, r: np.ndarray, w: np.ndarray):
        # per (class, run) pair: run r of class sources, at d, reaches targets
        least = w.min(axis=1).astype(np.int64)
        key = (((d + least) * (n + 1) + n - least) * size + sources) * msgs + r * run_len + w.argmin(axis=1)
        np.minimum.at(best, targets[least <= n], key[least <= n])

    def witness() -> np.ndarray:
        # branch (s, m) outputs C0'[u_free] - want, scaled by the c that
        # turns its representative s into the path's state
        steps = [divmod(int(best[0]) % (size * msgs), msgs)]
        while steps[-1][0]:
            steps.append(divmod(int(best[steps[-1][0]]) % (size * msgs), msgs))
        s, m = np.array(steps[::-1]).T
        r, u_free = np.divmod(m, run_len)
        ds = _digits(s, place, q)
        want = field._vsub(neg_runs[r], field._vmatmul(ds, state_rows))
        out = field._vsub(table[:, u_free].T.astype(np.int32), want)
        c = [1]
        for x in _classes(field, next_states[r] + ds @ shift_w, place)[1].tolist():
            c.append(field.mul(c[-1], x))  # a state is scale * rep
        return field._vmul(np.array(c[:-1], dtype=np.int32)[:, None], out)

    w0 = mismatches(table, neg_runs).astype(np.int64)  # the zero state wants -r G0,mem
    w0[0, 0] = n + 1  # the zero message never leaves the zero state
    relax(0, 0, _classes(field, next_states, place)[0], np.arange(runs), w0)

    # a bucket's (class, run) pairs go to the kernel a range at a time: at
    # most _SCORE_CHUNK targets, message weights and wanted symbols per call
    step = max(1, _SCORE_CHUNK // max(run_len, n))
    states = 0
    # zero inputs lead each settled class within max(nu) steps to state 0,
    # which is never settled, so best[0] is finite while a class is pending
    while True:
        pending = np.where(settled, INF, best)
        d = int(pending.min()) // radix
        if best[0] < (d + 1) * radix:
            return d, states, witness()
        popped = np.flatnonzero(pending < (d + 1) * radix)
        settled[popped] = True
        states += len(popped)
        ds = _digits(popped, place, q)
        bases, outs = ds @ shift_w, field._vmatmul(ds, state_rows)
        for j in range(0, len(popped) * runs, step):
            i, r = np.divmod(np.arange(j, min(j + step, len(popped) * runs)), runs)
            targets = _classes(field, next_states[r] + bases[i], place)[0]
            # settled is fixed while the bucket is scored: weigh only open targets
            o = np.flatnonzero(~settled[targets])
            if len(o):  # C0' against -out_s - r G0,mem, one row a pair
                w = mismatches(table, field._vsub(neg_runs[r[o]], outs[i[o]]))
                relax(d, popped[i[o]], targets[o], r[o], w)
