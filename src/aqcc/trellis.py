"""Exact free distance by shortest path over the encoder state graph.

The encoder of a reduced generator matrix keeps, for each row i, the last
nu_i input symbols (nu_i is the row degree).  States pack those symbols
into one base-q integer; gamma = sum(nu_i) digits in total.  The free
distance is the least total output weight over paths that leave the zero
state with a nonzero input and first return to it, which a Dijkstra run
finds exactly: edge weights are nonnegative and the first pop of the zero
state is optimal.

Feasibility is gated twice: q**gamma states must fit the state budget and
q**(gamma + k) scanned edges must fit the work budget.  Outside the budget
the result degrades to a certified bracket: the caller's lower bound plus
a genuine codeword witness for the upper bound.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .block import BlockCode
from .convo import (
    PolyMatrix,
    constant_right_inverse,
    degree_accounting,
    is_reduced,
    padd,
    poly_vector_weight,
    pscale,
    pshift,
    smith_form,
)
from .convo import reduce as reduce_matrix
from .errors import AqccError, CatastrophicEncoder, RankDeficient

DEFAULT_STATE_BUDGET = 1 << 20
DEFAULT_WORK_BUDGET = 1 << 26
_MEM_ELEMENTS = 1 << 24


@dataclass(frozen=True)
class FreeDistanceResult:
    lower: int
    upper: int
    method: str  # "dijkstra", "block" or "bounded"
    gamma: int
    states: int = 0
    witness: tuple | None = None

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def __str__(self):
        if self.exact:
            return f"d_free = {self.lower} ({self.method})"
        return f"{self.lower} <= d_free <= {self.upper} ({self.method})"


def free_distance(
    g: PolyMatrix,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
    work_budget: int = DEFAULT_WORK_BUDGET,
    lower_hint: int = 1,
) -> FreeDistanceResult:
    """Free distance of the code generated by g.

    g must be basic (delay-free invertible); a catastrophic encoder would
    put zero-weight cycles in the state graph.  Non-reduced input is
    reduced first, which changes neither the code nor the answer.
    """
    if state_budget < 1 or work_budget < 1:
        raise ValueError(
            f"budgets must be at least 1, got state {state_budget} and work {work_budget}"
        )
    f = g.field
    if constant_right_inverse(g) is None:
        # no cheap witness: the Smith form decides, and explains a refusal
        sf = smith_form(g)
        if sf.rank < g.rows:
            raise RankDeficient(f"generator rank {sf.rank} < {g.rows} rows")
        if any(p != (1,) for p in sf.invariant_factors):
            raise CatastrophicEncoder(
                f"invariant factors {[list(p) for p in sf.invariant_factors]} are not all 1"
            )
    if not is_reduced(g):
        g = reduce_matrix(g)
    info = degree_accounting(g)
    gamma = info.gamma
    k, n = g.shape
    q = f.q

    if gamma == 0:
        if q ** k <= work_budget:
            code = BlockCode.from_generator(f, g.coefficient(0))
            d = code.min_distance(budget=work_budget)
            return FreeDistanceResult(d.lower, d.upper, "block", 0, witness=d.witness)
        return _bounded(g, lower_hint)

    states = q ** gamma
    if states > state_budget or states * q ** k > work_budget or q ** k * n > _MEM_ELEMENTS:
        return _bounded(g, lower_hint)

    d, pops = _dijkstra(f, g, info)
    if lower_hint > d:
        raise AqccError(f"caller lower bound {lower_hint} exceeds the exact distance {d}")
    probe_w, probe_v = _probe_upper(g)
    wit = probe_v if probe_w == d else None
    return FreeDistanceResult(d, d, "dijkstra", gamma, states=pops, witness=wit)


def _bounded(g: PolyMatrix, lower_hint: int) -> FreeDistanceResult:
    upper, wit = _probe_upper(g)
    if lower_hint > upper:
        raise AqccError(
            f"caller lower bound {lower_hint} exceeds a genuine codeword weight {upper}"
        )
    return FreeDistanceResult(lower_hint, upper, "bounded", degree_accounting(g).gamma,
                              witness=wit)


def _probe_upper(g: PolyMatrix) -> tuple[int, tuple]:
    """Least weight over rows and two-row combinations with small delays."""
    f = g.field
    q = f.q
    k, n = g.shape
    mu = max(g.max_degree, 0)
    best_w = None
    best_v = None

    def consider(vec):
        nonlocal best_w, best_v
        w = poly_vector_weight(tuple(vec))
        if w and (best_w is None or w < best_w):
            best_w, best_v = w, tuple(vec)

    for i in range(k):
        consider(g.e[i])
    for i in range(k):
        for j in range(k):
            for s in range(mu + 1):
                if i == j and s == 0:
                    continue
                for c in range(1, q):
                    consider(
                        tuple(
                            padd(f, g.e[i][t], pshift(pscale(f, g.e[j][t], c), s))
                            for t in range(n)
                        )
                    )
    return best_w, best_v


def _dijkstra(field, g: PolyMatrix, info) -> tuple[int, int]:
    q = field.q
    k, n = g.shape
    nu = info.row_degrees
    gamma = info.gamma
    coef = [g.coefficient(d).a for d in range(info.mu + 1)]

    starts = []
    acc = 0
    for i in range(k):
        starts.append(acc)
        acc += nu[i]

    state_rows = np.zeros((gamma, n), dtype=np.int64)
    pos = 0
    for i in range(k):
        for d in range(1, nu[i] + 1):
            state_rows[pos] = coef[d][i]
            pos += 1

    m = q ** k
    msgs = np.arange(m, dtype=np.int64)
    kw = q ** np.arange(k, dtype=np.int64)
    udig = (msgs[:, None] // kw[None, :]) % q
    out0 = np.zeros((m, n), dtype=np.int32)
    for i in range(k):
        out0 = field._ADD[out0, field._MUL[udig[:, i, None], coef[0][i][None, :]]]
    place = np.array(
        [q ** starts[i] if nu[i] > 0 else 0 for i in range(k)], dtype=np.int64
    )
    next0 = (udig * place[None, :]).sum(axis=1)

    gw = q ** np.arange(gamma, dtype=np.int64)
    shift_w = np.zeros(gamma, dtype=np.int64)
    for i in range(k):
        for d in range(1, nu[i]):  # digit (i, d) moves one delay deeper
            p = starts[i] + d - 1
            shift_w[p] = q ** (p + 1)

    INF = np.iinfo(np.int64).max
    dist = np.full(q ** gamma, INF, dtype=np.int64)
    heap: list[tuple[int, int]] = []

    def relax(base_dist: int, targets: np.ndarray, weights: np.ndarray):
        w = weights + base_dist
        old = dist[targets].copy()
        np.minimum.at(dist, targets, w)
        for u in np.nonzero(w < old)[0]:
            tt = int(targets[u])
            if dist[tt] == w[u]:
                heapq.heappush(heap, (int(w[u]), tt))

    w0 = (out0 != 0).sum(axis=1).astype(np.int64)
    relax(0, next0[1:], w0[1:])

    pops = 0
    while heap:
        dcur, s = heapq.heappop(heap)
        if s == 0:
            return dcur, pops
        if dcur > dist[s]:
            continue
        pops += 1
        sd = (s // gw) % q
        out_s = np.zeros(n, dtype=np.int32)
        for p in range(gamma):
            if sd[p]:
                out_s = field._ADD[out_s, field._MUL[int(sd[p]), state_rows[p]]]
        y = field._ADD[out0, out_s[None, :]]
        w = (y != 0).sum(axis=1).astype(np.int64)
        base = int((sd * shift_w).sum())
        relax(dcur, base + next0, w)
    raise AqccError("zero state unreachable; the encoder graph is disconnected")
