"""One checked pass of the benchmark's workloads at seed 1 and of the
README's console examples, as tests/traffic.py runs them, without its
trace: no item fails, no example exits nonzero, and each workload keeps
its share of exact distance statements (the benchmark's decided_frac)."""

from fractions import Fraction

import traffic

# the seed's exact statements out of all, which the benchmark prints
# rounded as 0.5, 0.882 and 1.0
DECIDED_FRAC = {"structure-25": Fraction(50, 100), "desk-mix": Fraction(67, 76),
                "small-many": Fraction(14, 14)}


def test_workloads_pass_and_keep_their_decided_share():
    runs = traffic.run_workloads(traffic.load_workloads())
    assert {name: failed for name, (failed, _, _) in runs.items()} == dict.fromkeys(DECIDED_FRAC, 0)
    for name, (_, decided, statements) in runs.items():
        assert Fraction(decided, statements) >= DECIDED_FRAC[name], (name, decided, statements)


def test_console_examples_exit_zero():
    assert traffic.run_console_examples() == 0
