"""Acceptance gate.

One test per criterion, each delegating to the selftest battery at its
documented scale and holding the documented wall-clock budget.  Checks
are exact integer assertions throughout; no tolerances are loosened here.
"""

import time

from aqcc import selftest


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
    assert detail.startswith("200 ")


def test_criterion_3_duality_chain_inequalities_exact():
    detail = timed(selftest.check_duality_chain, 300)
    instances = int(detail.split()[0])
    assert instances >= 20


def test_criterion_4_family_sources_meet_singleton_bound():
    detail = timed(selftest.check_mds_sources, 120)
    assert int(detail.split()[0]) >= 20


def test_criterion_5_symplectic_residual_zero_everywhere():
    # reference instances are covered inside criterion 1; this adds the
    # families and field sizes the printed rows do not touch, up to q = 32
    detail = timed(selftest.check_symplectic_extras, 60)
    assert detail.endswith("residual identically zero")


def test_criterion_6_degree_closed_forms():
    detail = timed(selftest.check_degree_formulas, 10)
    assert detail.startswith("50 ")


def test_criterion_7_fault_injection_all_detected():
    detail = timed(selftest.check_fault_injection, 10)
    assert detail.startswith("30/30 ")
