"""Acceptance battery behind the selftest subcommand.

Each check is a plain function that returns a one-line summary and raises
on the first violation, so they can run under pytest or from the CLI.
Three tiers trade coverage for time:

  quick  property spot checks over tiny fields, a few seconds
  desk   the full battery at documented scales
  full   desk plus a structure-certified sweep of the q = 32 grids
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass

from .block import BlockCode
from .certify import certify_params, certify_plan
from .convo import degree_accounting, dual_generator, is_basic, is_reduced
from .errors import (
    ContainmentFailed,
    RankConditionViolated,
    SymplecticViolation,
)
from .families import (
    FamilyParams,
    build_source,
    construction_i_plan,
    demo_vectors,
    enumerate_family,
    source_key,
)
from .gf import prime_power
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


def check_reference_tuples():
    """Reproduce every printed tuple through enumeration plus certification."""
    grids: dict = {}
    for family, q, kw, n, k, gamma, dz, dx in REFERENCE_ROWS:
        key = (family, q)
        if key not in grids:
            grids[key] = {
                (p.i, p.t, p.n, p.k): e for p, e in enumerate_family(family, q)
            }
        params = FamilyParams(family, q, **kw)
        want = (n, k, gamma, dz, dx)
        e = grids[key].get((params.i, params.t, params.n, params.k))
        if e is None:
            raise AssertionError(f"{params.label()} missing from enumeration")
        got = (e.n, e.k_formula, e.gamma_formula, e.dz_bound, e.dx_bound)
        if got != want:
            raise AssertionError(f"{params.label()}: enumerated {got}, expected {want}")
        cert = certify_params(params, effort="structure")
        got = (cert.n, cert.logical, cert.gamma, cert.dz_bound, cert.dx_bound)
        if got != want:
            raise AssertionError(f"{params.label()}: certified {got}, expected {want}")
        if cert.data["checks"]["symplectic"] != "zero":
            raise AssertionError(f"{params.label()}: nonzero symplectic residual")
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


def check_split_plans(count=200, seed=20260817):
    """Every random valid split yields basic and reduced generators."""
    rng = random.Random(seed)
    for _ in range(count):
        plan = _random_plan(rng)
        for g in plan.generators():
            if not is_basic(g):
                raise AssertionError(f"non-basic split output for {plan.params.label()}")
            if not is_reduced(g):
                raise AssertionError(f"non-reduced split output for {plan.params.label()}")
    return f"{count} random split plans all basic and reduced"


# Duality-chain instances: (q, partition, columns, vector seed), sized so
# every trellis stays under 2^16 states and the block oracles stay exact.
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


def check_duality_chain(specs=DUALITY_SPECS):
    """Exact free distances against the block-oracle chain inequalities.

    For a split generator G with slice span S: the dual free distance sits
    in [min(d0 + dmu, d), d] where d0, dmu, d are the distances of the
    codes checked by the first slice, the top slice, and the full stack,
    and the primal free distance is at least the distance of the code
    generated by S.
    """
    instances = 0
    for q, partition, n, seed in specs:
        field = field_from_order(q)
        vectors = demo_vectors(field, n, partition, seed=seed)
        plan = construction_i_plan(field, vectors, partition)
        for g in plan.generators():
            gamma = degree_accounting(g).gamma
            if q**gamma > 2**16:
                raise AssertionError(f"instance {q} {partition} {n} exceeds 2**16 states")
            mu = g.max_degree
            stack = g.stack
            d0 = BlockCode(field, g.coefficient(0)).min_distance()
            dmu = BlockCode(field, g.coefficient(mu)).min_distance()
            d = BlockCode(field, stack).min_distance()
            d_span = BlockCode.from_generator(field, stack).min_distance()
            df = free_distance(g)
            dfd = free_distance(dual_generator(g))
            for b in (d0, dmu, d, d_span, df, dfd):
                if not b.exact:
                    raise AssertionError("oracle or trellis result is not exact")
            lo = min(d0.lower + dmu.lower, d.lower)
            if not lo <= dfd.lower <= d.lower:
                raise AssertionError(
                    f"dual chain {lo} <= {dfd.lower} <= {d.lower} fails for "
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
    once, without its layout; sources of distinct keys that still have the
    same parity rows are measured once.
    """
    prime_powers = []
    for q in range(2, 12):
        try:
            prime_power(q)
        except ValueError:
            continue
        prime_powers.append(q)
    keys = {}  # source key -> the first grid point with it, for messages
    for family in ("II-T2", "II-T3a", "II-T3b", "II-T4a", "II-T4b",
                   "III-T5a", "III-T5b", "III-T6", "III-T8"):
        for q in prime_powers:
            for params, e in enumerate_family(family, q):
                if e.k_formula > 0:
                    keys.setdefault(source_key(params), params)
    seen = set()
    checked = 0
    for key, params in keys.items():
        source = build_source(key).code
        parity_key = (params.q, source.parity.a.tobytes())
        if parity_key in seen:
            continue
        seen.add(parity_key)
        n, kc = source.n, source.k
        if kc == 0:
            # a full-row-rank window leaves nothing to measure
            continue
        d = source.min_distance()
        if not d.exact:
            raise AssertionError(f"{params.label()}: source distance not exact")
        if d.lower != n - kc + 1:
            raise AssertionError(
                f"{params.label()}: source [{n},{kc}] has d={d.lower}, "
                f"not {n - kc + 1}"
            )
        checked += 1
    if checked < 10:
        raise AssertionError(f"only {checked} distinct sources found")
    return f"{checked} distinct source codes all meet the Singleton bound"


def check_symplectic_extras():
    """Residual check on families the reference rows do not reach."""
    for family, q, kw in EXTRA_STABILIZERS:
        cert = certify_params(FamilyParams(family, q, **kw), effort="structure")
        if cert.data["checks"]["symplectic"] != "zero":
            raise AssertionError(f"{family} q={q}: nonzero symplectic residual")
    for q, partition, n, seed in ((3, [1, 1, 1, 1], 6, 0), (5, [2, 1, 2, 1], 8, 1)):
        field = field_from_order(q)
        plan = construction_i_plan(field, demo_vectors(field, n, partition, seed=seed), partition)
        cert = certify_plan(plan, effort="structure")
        if cert.data["checks"]["symplectic"] != "zero":
            raise AssertionError(f"interleaved build q={q}: nonzero symplectic residual")
    return f"{len(EXTRA_STABILIZERS) + 2} additional stabilizers, residual identically zero"


def check_degree_formulas(count=50, seed=61803):
    """Split degrees match mu*kappa + aux and aux closed forms."""
    rng = random.Random(seed)
    for _ in range(count):
        plan = _random_plan(rng, qs=(2, 3, 4, 5, 7, 8, 9))
        sizes = plan.params.partition
        kappa = sizes[0]
        primes = sizes[1::2]
        mu = len(primes) - 1
        aux = sum(primes[1:])
        g1, g2 = plan.generators()
        got = (degree_accounting(g1).gamma, degree_accounting(g2).gamma)
        want = (mu * kappa + aux, aux)
        if got != want:
            raise AssertionError(f"degrees {got} != {want} for partition {sizes}")
    return f"{count} seeded builds match the closed-form degrees"


FAULT_CASES = (
    ("mutate-row", ContainmentFailed, ("III-T8", 7, {"n": 7, "k": 2, "t": 2})),
    ("rank-condition", RankConditionViolated, ("III-T6", 5, {"n": 5, "k": 1, "t": 1})),
    ("swap-blocks", SymplecticViolation, ("III-T5a", 8, {"i": 4, "t": 1})),
)


def check_fault_injection(seeds=range(10)):
    """Every injected defect is caught by its designated check."""
    detected = 0
    for kind, expected, (family, q, kw) in FAULT_CASES:
        for seed in seeds:
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
    total = len(FAULT_CASES) * len(list(seeds))
    return f"{detected}/{total} injected defects caught with the designated error"


def check_q32_sweep():
    """Enumerate the q = 32 grids and structure-certify a spread of rows."""
    enumerated = 0
    certified = 0
    for family in ("II-T2", "II-T3a", "II-T3b"):
        rows = [(p, e) for p, e in enumerate_family(family, 32) if e.k_formula > 0]
        enumerated += len(rows)
        for idx, (params, e) in enumerate(rows):
            if idx % 7:
                continue
            cert = certify_params(params, effort="structure")
            got = (cert.n, cert.logical, cert.gamma, cert.dz_bound, cert.dx_bound)
            want = (e.n, e.k_formula, e.gamma_formula, e.dz_bound, e.dx_bound)
            if got != want:
                raise AssertionError(f"{params.label()}: certified {got}, expected {want}")
            certified += 1
    return f"{enumerated} rows enumerated, {certified} certified structurally"


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    seconds: float
    detail: str


def _quick_split():
    return check_split_plans(count=40, seed=7)


def _quick_degrees():
    return check_degree_formulas(count=12, seed=7)


def _quick_faults():
    return check_fault_injection(seeds=range(2))


def _quick_duality():
    return check_duality_chain(specs=DUALITY_SPECS[:4])


TIERS = {
    "quick": (
        ("split-plans", _quick_split),
        ("duality-chain", _quick_duality),
        ("degree-formulas", _quick_degrees),
        ("fault-injection", _quick_faults),
    ),
    "desk": (
        ("reference-tuples", check_reference_tuples),
        ("split-plans", check_split_plans),
        ("duality-chain", check_duality_chain),
        ("mds-sources", check_mds_sources),
        ("symplectic-extras", check_symplectic_extras),
        ("degree-formulas", check_degree_formulas),
        ("fault-injection", check_fault_injection),
    ),
}
TIERS["full"] = TIERS["desk"] + (("q32-sweep", check_q32_sweep),)


def run_tier(tier, stream=None):
    """Run one tier, print a summary table, return a process exit code."""
    stream = stream if stream is not None else sys.stdout
    outcomes = []
    for name, fn in TIERS[tier]:
        t0 = time.perf_counter()
        try:
            detail = fn()
            outcomes.append(CheckOutcome(name, True, time.perf_counter() - t0, detail))
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
            outcomes.append(CheckOutcome(name, False, time.perf_counter() - t0, detail))
    width = max(len(o.name) for o in outcomes)
    for o in outcomes:
        mark = "PASS" if o.passed else "FAIL"
        print(f"{o.name:<{width}}  {mark}  {o.seconds:7.2f}s  {o.detail}", file=stream)
    passed = sum(o.passed for o in outcomes)
    total_s = sum(o.seconds for o in outcomes)
    print(f"tier {tier}: {passed}/{len(outcomes)} checks passed in {total_s:.1f}s", file=stream)
    return 0 if passed == len(outcomes) else 1
