"""Acceptance battery behind the selftest subcommand.

Each check is a plain function that returns a one-line summary and raises
on the first violation, so they can run under pytest or from the CLI.
run_battery runs them all, at documented scales, ending with a
structure-certified sweep of the q = 32 grids.
"""

from __future__ import annotations

import random
import time

from .block import BlockCode, DistanceBound
from .certify import certify_params, certify_plan
from .convo import dual_generator, is_basic, is_reduced
from .errors import (
    ContainmentFailed,
    RankConditionViolated,
    SymplecticViolation,
)
from .families import (
    FAMILIES,
    FamilyParams,
    build_source,
    construction_i_plan,
    demo_vectors,
    enumerate_family,
    expected_tuple,
    source_key,
)
from .gf import field_order
from .matrix import field_from_order
from .trellis import free_distance

# The parameter tuples printed in the source families, in print order:
# (family, q, params, n, k, gamma, dz, dx).  dz/dx carry the larger bound
# on the z side, matching how the tuples are reported.
REFERENCE_ROWS = (
    ("II-T3a", 16, {"i": 5, "t": 1}, 17, 6, 6, 6, 5),
    ("II-T3b", 16, {"i": 5, "t": 1}, 17, 8, 4, 6, 5),
    ("II-T3a", 16, {"i": 6, "t": 1}, 17, 8, 6, 5, 4),
    ("II-T3b", 16, {"i": 6, "t": 1}, 17, 10, 4, 5, 4),
    ("II-T3a", 32, {"i": 14, "t": 1}, 33, 24, 6, 5, 4),
    ("II-T3b", 32, {"i": 14, "t": 1}, 33, 26, 4, 5, 4),
    ("II-T3a", 32, {"i": 13, "t": 1}, 33, 22, 6, 6, 5),
    ("II-T3b", 32, {"i": 13, "t": 1}, 33, 24, 4, 6, 5),
    ("II-T3a", 32, {"i": 12, "t": 1}, 33, 20, 6, 8, 5),
    ("II-T3b", 32, {"i": 12, "t": 1}, 33, 22, 4, 8, 5),
    ("III-T5a", 11, {"i": 6, "t": 1}, 10, 4, 3, 4, 3),
    ("III-T5a", 11, {"i": 7, "t": 1}, 10, 5, 3, 3, 3),
    ("III-T5a", 11, {"i": 4, "t": 1}, 10, 2, 3, 6, 3),
    ("III-T5a", 11, {"i": 4, "t": 2}, 10, 1, 3, 6, 4),
    ("III-T6", 5, {"n": 5, "k": 1, "t": 1}, 5, 1, 3, 3, 2),
    ("III-T6", 7, {"n": 7, "k": 2, "t": 2}, 7, 1, 3, 4, 3),
    ("III-T6", 8, {"n": 8, "k": 2, "t": 3}, 8, 1, 3, 5, 3),
    ("III-T6", 17, {"n": 17, "k": 3, "t": 5}, 17, 7, 3, 7, 4),
    ("III-T6", 17, {"n": 17, "k": 4, "t": 4}, 17, 7, 3, 6, 5),
    ("III-T6", 17, {"n": 17, "k": 4, "t": 5}, 17, 6, 3, 7, 5),
    ("III-T6", 17, {"n": 17, "k": 4, "t": 7}, 17, 4, 3, 9, 5),
    ("III-T8", 5, {"n": 5, "k": 1, "t": 2}, 5, 1, 2, 4, 2),
    ("III-T8", 7, {"n": 7, "k": 2, "t": 2}, 7, 2, 2, 4, 3),
    ("III-T8", 7, {"n": 7, "k": 1, "t": 3}, 7, 2, 2, 5, 2),
    ("III-T8", 7, {"n": 7, "k": 2, "t": 3}, 7, 1, 2, 5, 3),
)

# Families absent from the reference rows still get a stabilizer checked,
# one small instance each, plus two seeded interleaved-partition builds.
EXTRA_STABILIZERS = (
    ("II-T2", 16, {"i": 3}),
    ("II-T2", 16, {"i": 7}),
    ("II-T2", 32, {"i": 5}),
    ("II-T4a", 9, {"i": 4, "t": 1}),
    ("II-T4b", 9, {"i": 3, "t": 2}),
    ("III-T5a", 8, {"i": 4, "t": 1}),
    ("III-T5b", 9, {"i": 3, "t": 2}),
    ("III-T5b", 11, {"i": 6, "t": 5}),
)


def _closed(e):
    """The (n, k, gamma, dz, dx) of an ExpectedTuple."""
    return (e.n, e.k_formula, e.gamma_formula, e.dz_bound, e.dx_bound)


def _certify_and_compare(params, want):
    """Certify params at structure effort and check its (n, k, gamma, dz, dx)."""
    cert = certify_params(params, effort="structure")
    got = (cert.n, cert.logical, cert.gamma, cert.dz_bound, cert.dx_bound)
    if got != want:
        raise AssertionError(f"{params.label()}: certified {got}, expected {want}")


def check_reference_tuples():
    """Reproduce every printed tuple through its closed form plus certification.

    expected_tuple refuses a point off the family's grid, the grid that
    enumerate_family walks."""
    for family, q, kw, n, k, gamma, dz, dx in REFERENCE_ROWS:
        params = FamilyParams(family, q, **kw)
        want = (n, k, gamma, dz, dx)
        got = _closed(expected_tuple(params))
        if got != want:
            raise AssertionError(f"{params.label()}: closed form {got}, expected {want}")
        _certify_and_compare(params, want)
    return f"{len(REFERENCE_ROWS)} printed tuples reproduced"


def _random_partition(rng):
    """Interleaved sizes with mu <= 3 and at most 11 rows."""
    while True:
        mu = rng.randint(1, 3)
        kappa = rng.randint(1, 2)
        primes = sorted((rng.randint(1, 2) for _ in range(mu + 1)), reverse=True)
        total = (mu + 1) * kappa + sum(primes)
        if total <= 11:
            break
    partition = []
    for p in primes:
        partition += [kappa, p]
    return partition, total


def _random_plan(rng, qs=(2, 3, 4, 5)):
    q = rng.choice(qs)
    field = field_from_order(q)
    partition, total = _random_partition(rng)
    n = rng.randint(total + 1, 12)
    vectors = demo_vectors(field, n, partition, seed=rng.randrange(2**30))
    return construction_i_plan(field, vectors, partition)


SPLIT_PLANS = 200


def check_split_plans(seed=20260817):
    """Every random valid split yields basic and reduced generators."""
    rng = random.Random(seed)
    for _ in range(SPLIT_PLANS):
        plan = _random_plan(rng)
        for g in plan.generators():
            if not is_basic(g):
                raise AssertionError(f"non-basic split output for {plan.params.label()}")
            if not is_reduced(g):
                raise AssertionError(f"non-reduced split output for {plan.params.label()}")
    return f"{SPLIT_PLANS} random split plans all basic and reduced"


# Duality-chain instances: (q, partition, columns, vector seed), sized so
# the block oracles stay exact.  By the closed-form degrees the largest
# trellis is G1 of (5, [2, 1, 2, 1]), with gamma = 3 and 5**3 = 125 states.
DUALITY_SPECS = (
    (2, [1, 1, 1, 1], 5, 0),
    (2, [1, 1, 1, 1], 6, 1),
    (2, [2, 1, 2, 1], 8, 2),
    (2, [1, 2, 1, 1], 7, 3),
    (2, [1, 1, 1, 1, 1, 1], 8, 4),
    (2, [2, 2, 2, 2], 9, 5),
    (2, [1, 2, 1, 2, 1, 1], 11, 6),
    (3, [1, 1, 1, 1], 5, 0),
    (3, [1, 1, 1, 1], 7, 1),
    (3, [1, 1, 1, 1, 1, 1], 8, 2),
    (3, [2, 1, 2, 1], 8, 3),
    (5, [1, 1, 1, 1], 5, 0),
    (5, [1, 1, 1, 1], 6, 1),
    (5, [2, 1, 2, 1], 7, 2),
    (7, [1, 1, 1, 1], 5, 0),
    (7, [1, 1, 1, 1], 6, 1),
)


def check_duality_chain():
    """Exact free distances against the block-oracle chain inequalities.

    For a split generator G with slice span S: the dual free distance sits
    in [min(d0 + dmu, d), d] where d0, dmu, d are the distances of the
    codes checked by the first slice, the top slice, and the full stack,
    and the primal free distance is at least the distance of the code
    generated by S.
    """
    instances = 0
    for q, partition, n, seed in DUALITY_SPECS:
        field = field_from_order(q)
        vectors = demo_vectors(field, n, partition, seed=seed)
        plan = construction_i_plan(field, vectors, partition)
        for g in plan.generators():
            d0, dmu = (BlockCode(field, m).min_distance()
                       for m in (g.coefficient(0), g.coefficient(g.max_degree)))
            stack = BlockCode(field, g.stack)
            d, d_span = stack.min_distance(), stack.dual().min_distance()
            df = free_distance(g)
            dfd = free_distance(dual_generator(g))
            for b in (d0, dmu, d, d_span, df, dfd):
                if not b.exact:
                    raise AssertionError("oracle or trellis result is not exact")
            chain = DistanceBound.min_sum(d0, dmu, d, "chain")
            if not chain.lower <= dfd.lower <= chain.upper:
                raise AssertionError(
                    f"dual chain {chain.lower} <= {dfd.lower} <= {chain.upper} fails for "
                    f"q={q} partition={partition} n={n}"
                )
            if df.lower < d_span.lower:
                raise AssertionError(
                    f"primal floor {df.lower} < {d_span.lower} for "
                    f"q={q} partition={partition} n={n}"
                )
            instances += 1
    return f"{instances} exact instances satisfy both chain inequalities"


def check_mds_sources():
    """Brute-force distance of every buildable source code at q <= 11.

    Grid points sharing a source_key share a source, so each key is built
    once, without its layout, and measured.
    """
    prime_powers = []
    for q in range(2, 12):
        try:
            field_order(q)
        except ValueError:
            continue
        prime_powers.append(q)
    keys = {}  # source key -> the first grid point with it, for messages
    for family in FAMILIES[1:]:
        for q in prime_powers:
            for params, _ in enumerate_family(family, q):
                keys.setdefault(source_key(params), params)
    if len(keys) < 10:
        raise AssertionError(f"only {len(keys)} distinct sources found")
    for key, params in keys.items():
        source = build_source(key).code
        n, kc = source.n, source.k
        d = source.min_distance()
        if not d.exact:
            raise AssertionError(f"{params.label()}: source distance not exact")
        if d.lower != n - kc + 1:
            raise AssertionError(
                f"{params.label()}: source [{n},{kc}] has d={d.lower}, "
                f"not {n - kc + 1}"
            )
    return f"{len(keys)} distinct source codes all meet the Singleton bound"


def check_symplectic_extras():
    """Residual check on families the reference rows do not reach: a
    certificate is built only once assemble_stabilizer found it zero."""
    for family, q, kw in EXTRA_STABILIZERS:
        certify_params(FamilyParams(family, q, **kw), effort="structure")
    for q, partition, n, seed in ((3, [1, 1, 1, 1], 6, 0), (5, [2, 1, 2, 1], 8, 1)):
        field = field_from_order(q)
        certify_plan(construction_i_plan(field, demo_vectors(field, n, partition, seed=seed),
                                         partition), effort="structure")
    return f"{len(EXTRA_STABILIZERS) + 2} additional stabilizers, residual identically zero"


DEGREE_PLANS = 50


def check_degree_formulas(seed=61803):
    """Split degrees match mu*kappa + aux and aux closed forms."""
    rng = random.Random(seed)
    for _ in range(DEGREE_PLANS):
        plan = _random_plan(rng, qs=(2, 3, 4, 5, 7, 8, 9))
        sizes = plan.params.partition
        kappa = sizes[0]
        primes = sizes[1::2]
        mu = len(primes) - 1
        aux = sum(primes[1:])
        g1, g2 = plan.generators()
        got = (sum(g1.row_degrees), sum(g2.row_degrees))
        want = (mu * kappa + aux, aux)
        if got != want:
            raise AssertionError(f"degrees {got} != {want} for partition {sizes}")
    return f"{DEGREE_PLANS} seeded builds match the closed-form degrees"


FAULT_CASES = (
    ("mutate-row", ContainmentFailed, ("III-T8", 7, {"n": 7, "k": 2, "t": 2})),
    ("rank-condition", RankConditionViolated, ("III-T6", 5, {"n": 5, "k": 1, "t": 1})),
    ("swap-blocks", SymplecticViolation, ("III-T5a", 8, {"i": 4, "t": 1})),
)
FAULT_SEEDS = range(10)


def check_fault_injection():
    """Every injected defect is caught by its designated check."""
    detected = 0
    for kind, expected, (family, q, kw) in FAULT_CASES:
        for seed in FAULT_SEEDS:
            try:
                certify_params(
                    FamilyParams(family, q, **kw),
                    effort="structure",
                    fault=kind,
                    seed=seed,
                )
            except expected:
                detected += 1
            except Exception as exc:
                raise AssertionError(
                    f"{kind} seed {seed}: raised {type(exc).__name__} "
                    f"instead of {expected.__name__}"
                ) from exc
            else:
                raise AssertionError(f"{kind} seed {seed}: defect went undetected")
    total = len(FAULT_CASES) * len(FAULT_SEEDS)
    return f"{detected}/{total} injected defects caught with the designated error"


def check_q32_sweep():
    """Enumerate the q = 32 grids and structure-certify a spread of rows."""
    enumerated = 0
    certified = 0
    for family in ("II-T2", "II-T3a", "II-T3b"):
        rows = enumerate_family(family, 32)
        enumerated += len(rows)
        for idx, (params, e) in enumerate(rows):
            if idx % 7:
                continue
            _certify_and_compare(params, _closed(e))
            certified += 1
    return f"{enumerated} rows enumerated, {certified} certified structurally"


CHECKS = (
    ("reference-tuples", check_reference_tuples),
    ("split-plans", check_split_plans),
    ("duality-chain", check_duality_chain),
    ("mds-sources", check_mds_sources),
    ("symplectic-extras", check_symplectic_extras),
    ("degree-formulas", check_degree_formulas),
    ("fault-injection", check_fault_injection),
    ("q32-sweep", check_q32_sweep),
)


def run_battery():
    """Run every check, print a summary table, return a process exit code."""
    width = max(len(name) for name, _ in CHECKS)
    passed = 0
    total_s = 0.0
    for name, fn in CHECKS:
        t0 = time.perf_counter()
        try:
            detail, mark = fn(), "PASS"
            passed += 1
        except Exception as exc:
            detail, mark = f"{type(exc).__name__}: {exc}", "FAIL"
        seconds = time.perf_counter() - t0
        total_s += seconds
        print(f"{name:<{width}}  {mark}  {seconds:7.2f}s  {detail}")
    print(f"selftest: {passed}/{len(CHECKS)} checks passed in {total_s:.1f}s")
    return 0 if passed == len(CHECKS) else 1
