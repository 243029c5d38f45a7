"""Acceptance gate.

One test per criterion, each delegating to the selftest battery at its
documented scale and holding the documented wall-clock budget.  Checks
are exact integer assertions throughout; no tolerances are loosened here.
"""

import itertools
import time
from types import SimpleNamespace

import pytest

from aqcc import selftest
from aqcc.block import BlockCode, DistanceBound
from aqcc.families import ExpectedTuple, construction_i_plan, demo_vectors
from aqcc.matrix import MatrixGF, field_from_order


def timed(fn, limit, *args, **kwargs):
    t0 = time.perf_counter()
    detail = fn(*args, **kwargs)
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"{fn.__name__} took {elapsed:.1f}s, budget {limit}s"
    return detail


def test_criterion_1_reference_tuples_reproduce():
    # 10 binary-field tuples, 4 Reed-Solomon tuples, 7 + 4 evaluation-code
    # tuples: enumeration and certification agree with every printed value.
    assert len(selftest.REFERENCE_ROWS) == 25
    detail = timed(selftest.check_reference_tuples, 60)
    assert detail == "25 printed tuples reproduced"


def test_criterion_2_random_split_plans_are_basic_and_reduced():
    detail = timed(selftest.check_split_plans, 30)
    assert detail == "200 random split plans all basic and reduced"


def test_criterion_3_duality_chain_inequalities_exact():
    detail = timed(selftest.check_duality_chain, 300)
    assert detail == "32 exact instances satisfy both chain inequalities"


def test_criterion_4_family_sources_meet_singleton_bound():
    detail = timed(selftest.check_mds_sources, 120)
    assert detail == "79 distinct source codes all meet the Singleton bound"


def test_criterion_5_symplectic_residual_zero_everywhere():
    # reference instances are covered inside criterion 1; this adds the
    # families and field sizes the printed rows do not touch, up to q = 32
    detail = timed(selftest.check_symplectic_extras, 60)
    assert detail == "10 additional stabilizers, residual identically zero"


def test_criterion_6_degree_closed_forms():
    detail = timed(selftest.check_degree_formulas, 10)
    assert detail == "50 seeded builds match the closed-form degrees"


def test_criterion_7_fault_injection_all_detected():
    detail = timed(selftest.check_fault_injection, 10)
    assert detail == "30/30 injected defects caught with the designated error"


def test_criterion_8_q32_grids_certify_structurally():
    detail = timed(selftest.check_q32_sweep, 60)
    assert detail == "209 rows enumerated, 30 certified structurally"


# --- every check can fire ----------------------------------------------------
# Each case doctors one library name a check reads and expects the check's
# own refusal, word for word; make() builds the replacement when the case runs.


OPEN = DistanceBound(1, None, "designed", "designed")  # a bracket that is not exact


def _wrong_certificate(*args, **kwargs):
    return SimpleNamespace(n=0, logical=0, gamma=0, dz_bound=0, dx_bound=0)


def _exact(d):
    return lambda *args, **kwargs: DistanceBound(d, d, "dijkstra", "dijkstra")


def _primal_floor_one():
    # free_distance runs on G, then on its dual: G alone reads 1
    calls = itertools.count()
    real = selftest.free_distance
    return lambda g: _exact(1)() if next(calls) % 2 == 0 else real(g)


def _non_mds_source(key):
    gf2 = field_from_order(2)
    return SimpleNamespace(code=BlockCode(gf2, MatrixGF(gf2, [[1, 1, 0, 0], [0, 0, 1, 1]])))


def _inexact_source(key):
    return SimpleNamespace(code=SimpleNamespace(n=4, k=2, min_distance=lambda: OPEN))


def _mislabelled_plan(rng, qs):
    # the split of partition [2, 1, 2, 1] has degrees (3, 1), and [1, 1, 1, 1] claims (2, 1)
    field = field_from_order(2)
    plan = construction_i_plan(field, demo_vectors(field, 8, [2, 1, 2, 1], seed=0), [2, 1, 2, 1])
    return SimpleNamespace(params=SimpleNamespace(partition=[1, 1, 1, 1]), generators=plan.generators)


def _raise_value_error(*args, **kwargs):
    raise ValueError("doctored")


REFUSALS = [
    ("closed-form", selftest.check_reference_tuples, "expected_tuple",
     lambda: lambda params: ExpectedTuple(0, 0, 0),
     "II-T3a(q=16, i=5, t=1): closed form (0, 0, 0, None, None), expected (17, 6, 6, 6, 5)"),
    ("reference-certified", selftest.check_reference_tuples, "certify_params",
     lambda: _wrong_certificate,
     "II-T3a(q=16, i=5, t=1): certified (0, 0, 0, 0, 0), expected (17, 6, 6, 6, 5)"),
    ("non-basic", selftest.check_split_plans, "is_basic", lambda: lambda g: False,
     "non-basic split output for I(q=2, n=12, partition=[1, 1, 1, 1, 1, 1])"),
    ("non-reduced", selftest.check_split_plans, "is_reduced", lambda: lambda g: False,
     "non-reduced split output for I(q=2, n=12, partition=[1, 1, 1, 1, 1, 1])"),
    ("not-exact", selftest.check_duality_chain, "free_distance",
     lambda: lambda g: OPEN, "oracle or trellis result is not exact"),
    ("dual-chain", selftest.check_duality_chain, "free_distance", lambda: _exact(99),
     "dual chain 3 <= 99 <= 4 fails for q=2 partition=[1, 1, 1, 1] n=5"),
    ("primal-floor", selftest.check_duality_chain, "free_distance", _primal_floor_one,
     "primal floor 1 < 2 for q=2 partition=[1, 1, 1, 1] n=5"),
    ("few-sources", selftest.check_mds_sources, "enumerate_family",
     lambda: lambda family, q: [], "only 0 distinct sources found"),
    ("source-inexact", selftest.check_mds_sources, "build_source", lambda: _inexact_source,
     "II-T4a(q=9, i=3, t=1): source distance not exact"),
    ("source-not-mds", selftest.check_mds_sources, "build_source", lambda: _non_mds_source,
     "II-T4a(q=9, i=3, t=1): source [4,2] has d=2, not 3"),
    ("degrees", selftest.check_degree_formulas, "_random_plan", lambda: _mislabelled_plan,
     "degrees (3, 1) != (2, 1) for partition [1, 1, 1, 1]"),
    ("undetected", selftest.check_fault_injection, "certify_params",
     lambda: _wrong_certificate, "mutate-row seed 0: defect went undetected"),
    ("wrong-error", selftest.check_fault_injection, "certify_params",
     lambda: _raise_value_error, "mutate-row seed 0: raised ValueError instead of ContainmentFailed"),
    ("q32-certified", selftest.check_q32_sweep, "certify_params", lambda: _wrong_certificate,
     "II-T2(q=32, i=3): certified (0, 0, 0, 0, 0), expected (33, 2, 6, 26, 3)"),
]


@pytest.mark.parametrize("check, name, make, message",
                         [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS])
def test_each_check_refuses_a_doctored_library(monkeypatch, check, name, make, message):
    monkeypatch.setattr(selftest, name, make())
    with pytest.raises(AssertionError) as info:
        check()
    assert str(info.value) == message
