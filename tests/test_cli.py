"""End-to-end runs of the command line front end."""

import contextlib
import io
import itertools
import json
import re

import pytest

from aqcc import Budgets, FamilyParams, selftest, validate_params
from aqcc.cli import main
from aqcc.errors import ParamOutOfRange


# field orders that are no prime power or pass the table size; a parser
# that trial-divides with no q < 2 check and no square-root stop never
# returns on 1, -1 or 1000000007
BAD_ORDERS = (1, 0, -1, 1000000007, 1 << 40)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def out_of_memory(*args):
    raise MemoryError


# one valid point of each family, and a filler for each parameter the
# command line can set that a point does not take
INTAKE_POINTS = (
    ("I", 5, {"n": 8, "partition": (2, 1, 2, 1)}),
    ("II-T2", 16, {"i": 3}),
    ("II-T3a", 16, {"i": 5, "t": 1}),
    ("II-T3b", 16, {"i": 5, "t": 1}),
    ("II-T4a", 9, {"i": 4, "t": 1}),
    ("II-T4b", 9, {"i": 3, "t": 2}),
    ("III-T5a", 8, {"i": 4, "t": 1}),
    ("III-T5b", 9, {"i": 3, "t": 2}),
    ("III-T6", 5, {"n": 5, "k": 1, "t": 1}),
    ("III-T8", 5, {"n": 5, "k": 1, "t": 2}),
)
FILLERS = {"n": 6, "k": 2, "i": 3, "t": 1, "partition": (1, 1, 1, 1)}


class TestEnumerate:
    def test_t3a_grid_contains_reference_row(self):
        rc, out, _ = run("enumerate", "--family", "II-T3a", "--q", "16")
        assert rc == 0
        assert out.splitlines()[0] == "family,q,params,n,k,gamma,dz,dx"
        assert "II-T3a,16,i=5 t=1,17,6,6,6,5" in out.splitlines()

    def test_empty_grid_exits_zero(self):
        rc, out, _ = run("enumerate", "--family", "II-T2", "--q", "8")
        assert rc == 0
        assert out == "family,q,params,n,k,gamma,dz,dx\n"
        # a range on it selects nothing, but the field, not the range, is why
        assert run("enumerate", "--family", "II-T2", "--q", "8", "--range", "i=3:5") == (rc, out, "")

    def test_t8_q7_row(self):
        rc, out, _ = run("enumerate", "--family", "III-T8", "--q", "7")
        assert rc == 0
        assert "III-T8,7,n=7 k=2 t=2,7,2,2,4,3" in out.splitlines()

    def test_json_format(self):
        rc, out, _ = run("enumerate", "--family", "III-T6", "--q", "5",
                         "--format", "json")
        assert rc == 0
        rows = json.loads(out)
        assert rows[0] == {
            "family": "III-T6", "q": 5, "params": {"n": 5, "k": 1, "t": 1},
            "n": 5, "k": 1, "gamma": 3, "dz": 3, "dx": 2,
        }

    def test_range_flag(self):
        rc, out, _ = run("enumerate", "--family", "II-T3a", "--q", "16",
                         "--range", "i=5:5", "--range", "t=1:1")
        assert rc == 0
        assert len(out.splitlines()) == 2

    def test_bad_range_exits_two(self):
        rc, _, err = run("enumerate", "--family", "II-T3a", "--q", "16",
                         "--range", "i=5")
        assert rc == 2
        assert "range" in err

    def test_repeated_range_exits_two(self):
        # the second range replaced the first, and the i = 6 rows printed
        rc, out, err = run("enumerate", "--family", "II-T3a", "--q", "16",
                           "--range", "i=5:5", "--range", "i=6:6")
        assert rc == 2 and out == ""
        assert "--range gives i twice" in err

    @pytest.mark.parametrize("span, fragment", [
        ("6:5", "range i=6:5 is empty: 6 > 5"),
        ("100:200", "II-T3a over GF(16) has no point in range i=100:200"),
        ("-5:-1", "II-T3a over GF(16) has no point in range i=-5:-1"),
    ])
    def test_range_selecting_no_row_exits_two(self, span, fragment):
        # each printed the CSV header alone and exited 0
        rc, out, err = run("enumerate", "--family", "II-T3a", "--q", "16", "--range", f"i={span}")
        assert rc == 2 and out == ""
        assert err == f"parameter error: {fragment}\n"

    def test_range_outside_the_grid_exits_two(self):
        # III-T6 has no i: a range on it narrowed nothing and printed 16 rows
        rc, out, err = run("enumerate", "--family", "III-T6", "--q", "7",
                           "--range", "i=1:1")
        assert rc == 2 and out == ""
        assert "n, k, t" in err

    def test_q64_grid_is_listed(self):
        rc, out, _ = run("enumerate", "--family", "II-T3b", "--q", "64")
        assert rc == 0
        assert len(out.splitlines()) == 1 + 465

    def test_oversize_grid_refused_before_any_row(self, deadline):
        # III-T6 over GF(256) has about 2.7 million points
        rc, out, err = run("enumerate", "--family", "III-T6", "--q", "256")
        assert rc == 2 and out == ""
        assert "narrow the ranges" in err

    def test_narrowed_oversize_grid_is_listed(self, deadline):
        rc, out, _ = run("enumerate", "--family", "III-T6", "--q", "256", "--range", "n=5:20")
        assert rc == 0
        # k from 1 to n - 4 and t from 1 to n - k - 3 for each n
        assert len(out.splitlines()) == 1 + sum((n - 4) * (n - 3) // 2 for n in range(5, 21))

    @pytest.mark.parametrize("argv", [
        ("enumerate", "--family", "III-T6", "--q", "1000000007"),
        ("enumerate", "--family", "III-T6", "--q", str(2**61 - 1)),
        ("certify", "--family", "III-T6", "--q", str(2**61 - 1),
         "--n", "5", "--k", "1", "--t", "1"),
    ])
    def test_oversize_q_refused_before_factoring(self, argv, deadline):
        rc, out, err = run(*argv)
        assert rc == 2 and out == ""
        assert "table size" in err

    def test_non_prime_power_exits_two(self):
        rc, _, err = run("enumerate", "--family", "III-T6", "--q", "12")
        assert rc == 2
        assert "prime power" in err

    def test_unknown_family_exits_two(self):
        rc, _, _ = run("enumerate", "--family", "II-T9", "--q", "16")
        assert rc == 2


class TestCertify:
    def test_t6_reference_instance(self):
        rc, out, _ = run("certify", "--family", "III-T6", "--q", "5",
                         "--n", "5", "--k", "1", "--t", "1")
        assert rc == 0
        data = json.loads(out)
        assert data["tuple"] == "[(5,1,1;3,dz>=3/dx>=2)]_5"
        assert data["distances"]["aqcc"]["dz_exact"] == 5
        assert data["checks"]["symplectic"] == "zero"

    def test_structure_effort(self):
        rc, out, _ = run("certify", "--family", "II-T2", "--q", "16",
                         "--i", "3", "--effort", "structure")
        assert rc == 0
        assert json.loads(out)["tuple"] == "[(17,2,1;6,dz>=10/dx>=3)]_16"

    def test_full_effort_exits_two(self):
        # a larger enumeration cap is --enum-budget, not a third effort
        rc, out, err = run("certify", "--family", "II-T2", "--q", "16",
                           "--i", "3", "--effort", "full")
        assert rc == 2 and out == ""
        assert "invalid choice" in err

    def test_out_of_range_exits_two(self):
        rc, _, err = run("certify", "--family", "II-T2", "--q", "8", "--i", "3")
        assert rc == 2
        assert "q = 2^s" in err

    def test_off_grid_parameter_exits_two(self):
        # II-T2 takes only i; n and t were echoed into the certificate
        rc, out, err = run("certify", "--family", "II-T2", "--q", "16", "--i", "3",
                           "--t", "9", "--n", "4", "--effort", "structure")
        assert rc == 2 and out == ""
        assert "II-T2 takes only i" in err

    def test_zero_logical_dimension_exits_two(self):
        # t = 2 leaves no logical qudit, so it is off the grid
        rc, out, err = run("certify", "--family", "III-T6", "--q", "5",
                           "--n", "5", "--k", "1", "--t", "2")
        assert rc == 2 and out == ""
        assert "1 <= t <= 1" in err

    @pytest.mark.parametrize("fault,fragment", [
        ("mutate-row", "outside the module"),
        ("rank-condition", "degree-0 block"),
        ("swap-blocks", "pairing"),
    ])
    def test_fault_injection_exits_three(self, fault, fragment):
        argv = ["certify", "--family", "III-T5a", "--q", "8", "--i", "4",
                "--t", "1", "--inject-fault", fault]
        rc, _, err = run(*argv)
        assert rc == 3
        assert fragment in err

    def test_inject_fault_default_kind(self):
        rc, _, err = run("certify", "--family", "III-T8", "--q", "7", "--n", "7",
                         "--k", "2", "--t", "2", "--inject-fault")
        assert rc == 3
        assert "outside the module" in err

    def test_identical_runs_are_byte_identical(self):
        argv = ("certify", "--family", "III-T8", "--q", "7", "--n", "7",
                "--k", "2", "--t", "2")
        assert run(*argv) == run(*argv)

    def test_out_flag_writes_file(self, tmp_path):
        path = tmp_path / "cert.json"
        rc, out, _ = run("certify", "--family", "III-T6", "--q", "5", "--n", "5",
                         "--k", "1", "--t", "1", "--out", str(path))
        assert rc == 0 and out == ""
        assert json.loads(path.read_text())["family"] == "III-T6"

    def test_family_i_uses_seed_flag(self):
        argv = ("certify", "--family", "I", "--q", "5", "--n", "6",
                "--partition", "1,1,1,1")
        rc, seeded, _ = run(*argv, "--seed", "3")
        assert rc == 0
        rc, default, _ = run(*argv)
        assert rc == 0
        assert seeded != default
        data = json.loads(seeded)
        assert data["params"]["partition"] == [1, 1, 1, 1]
        assert data["checks"]["degrees"] == {
            "gamma1": 2, "gamma2": 1, "gamma": 3, "mu": 1, "mu_star": 1,
        }

    def test_negative_state_budget_exits_two(self):
        rc, out, err = run("certify", "--family", "III-T6", "--q", "5", "--n", "5",
                           "--k", "1", "--t", "1", "--state-budget", "-1")
        assert rc == 2 and out == ""
        assert "parameter error" in err and "state budget" in err

    @pytest.mark.parametrize("field", ["enum", "state", "work"])
    def test_budgets_below_one_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} budget"):
            Budgets(**{field: 0})

    @pytest.mark.parametrize("q", BAD_ORDERS)
    def test_family_i_bad_field_order_exits_two(self, q, deadline):
        rc, out, err = run("certify", "--family", "I", "--q", str(q),
                           "--n", "5", "--partition", "1,0,1,0")
        assert rc == 2 and out == ""
        assert "prime power" in err or "table size" in err

    @pytest.mark.parametrize("family, q, point", INTAKE_POINTS, ids=[p[0] for p in INTAKE_POINTS])
    def test_certify_refuses_what_validate_params_refuses(self, family, q, point):
        # every subset of the five options, each set to the point's value or the filler
        refused = 0
        for size in range(len(FILLERS) + 1):
            for names in itertools.combinations(FILLERS, size):
                kw = {name: point.get(name, FILLERS[name]) for name in names}
                argv = ["certify", "--family", family, "--q", str(q), "--effort", "structure"]
                for name, value in kw.items():
                    argv += [f"--{name}", ",".join(map(str, value)) if name == "partition" else str(value)]
                rc, out, err = run(*argv)
                try:
                    validate_params(FamilyParams(family, q, **kw))
                except ParamOutOfRange as exc:
                    assert (rc, out, err) == (2, "", f"parameter error: {exc}\n"), names
                    refused += 1
                else:
                    assert rc == 0 and err == "", names
        assert refused == 2 ** len(FILLERS) - 1

    def test_family_i_requires_partition(self):
        rc, out, err = run("certify", "--family", "I", "--q", "5", "--n", "6")
        assert rc == 2 and out == ""
        assert err == "parameter error: I needs n, partition\n"

    def test_family_i_refuses_grid_options(self):
        # --i, --t and --k were dropped without a word
        rc, out, err = run("certify", "--family", "I", "--q", "5", "--n", "9",
                           "--partition", "2,1,2,1", "--i", "3", "--t", "7", "--k", "2")
        assert rc == 2 and out == ""
        assert err == "parameter error: I takes only n, partition, got k, i, t\n"

    @pytest.mark.parametrize("n, partition, fragment", [
        ("8", "2,1,1,1", "main block sizes [2, 1] must all equal 2"),
        ("3", "1,1,1,1", "4 independent rows cannot fit in length 3"),
        ("8", "1,-1,1,1", "partition sizes must be nonnegative"),
        ("8", "0,1,0,1", "the main blocks need at least one row"),
        ("8", "1,0,1,0", "every auxiliary block needs at least one row"),
    ])
    def test_family_i_bad_partition_exits_two(self, n, partition, fragment):
        rc, out, err = run("certify", "--family", "I", "--q", "2", "--n", n,
                           "--partition", partition)
        assert rc == 2 and out == ""
        assert err == f"parameter error: {fragment}\n"

    def test_family_i_fault_injection_exits_three(self):
        rc, out, err = run("certify", "--family", "I", "--q", "2", "--n", "8",
                           "--partition", "1,1,1,1", "--inject-fault", "rank-condition")
        assert rc == 3 and out == ""
        assert "certification failed" in err and "degree-0 block" in err

    def test_search_out_of_memory_exits_four(self, monkeypatch):
        monkeypatch.setattr("aqcc.trellis._dijkstra", out_of_memory)
        rc, out, err = run("certify", "--family", "III-T6", "--q", "5", "--n", "5",
                           "--k", "1", "--t", "1", "--effort", "desk")
        assert rc == 4 and out == ""
        assert "distance refused" in err and "--state-budget" in err and "--work-budget" in err


class TestDistance:
    def write(self, tmp_path, text):
        path = tmp_path / "m.txt"
        path.write_text(text)
        return str(path)

    def test_single_row_delay_pair(self, tmp_path):
        rc, out, _ = run("distance", self.write(tmp_path, "q=2\n(1) (0,1)\n"))
        assert rc == 0
        assert "free distance: exact 2 (dijkstra)" in out
        assert "witness: (1) (0,1)" in out

    def test_search_out_of_memory_exits_four(self, tmp_path, monkeypatch):
        monkeypatch.setattr("aqcc.trellis._dijkstra", out_of_memory)
        rc, out, err = run("distance", self.write(tmp_path, "q=2\n(1) (0,1)\n"))
        assert rc == 4 and out == ""
        assert "distance refused" in err and "--state-budget" in err and "--work-budget" in err

    def test_non_basic_exits_four(self, tmp_path):
        # square with determinant 1 + D
        rc, _, err = run("distance", self.write(tmp_path, "q=2\n(1,1)\n"))
        assert rc == 4
        assert "degree gap 1" in err and "degree 1" in err

    @pytest.mark.parametrize("rows, fragment", [
        ("(0,1) (0,0,1)\n", "degree gap 1"),  # gcd D, no constant right inverse
        ("(1) (1)\n(1) (1)\n", "lost rank"),
        ("(1) (0,1)\n(0) (0)\n", "lost rank"),
    ])
    def test_refused_encoders_exit_four(self, tmp_path, rows, fragment):
        rc, out, err = run("distance", self.write(tmp_path, "q=2\n" + rows))
        assert rc == 4 and out == ""
        assert "distance refused" in err and fragment in err

    def test_square_with_constant_determinant(self, tmp_path):
        rc, out, _ = run("distance", self.write(tmp_path, "q=2\n(1) (0,1)\n(0) (1)\n"))
        assert rc == 0
        assert "gamma=0" in out
        assert "exact 1 (block)" in out

    def test_block_route_for_constant_matrix(self, tmp_path):
        rc, out, _ = run("distance", self.write(tmp_path, "q=3\n(1) (2) (1)\n"))
        assert rc == 0
        assert "gamma=0" in out
        assert "exact 3 (block)" in out

    def test_enum_budget_is_refused(self, tmp_path):
        # a gamma = 0 encoder's block distance never read the cap, so
        # distance does not offer it; certify does
        path = self.write(tmp_path, "q=3\n(1) (2) (1)\n")
        rc, out, err = run("distance", "--enum-budget", "1", path)
        assert rc == 2 and out == ""
        assert "--enum-budget" in err

    def test_missing_header_exits_two(self, tmp_path):
        rc, _, err = run("distance", self.write(tmp_path, "(1) (0,1)\n"))
        assert rc == 2
        assert "q= header" in err

    @pytest.mark.parametrize("q", BAD_ORDERS)
    def test_bad_field_order_header_exits_two(self, tmp_path, q, deadline):
        rc, out, err = run("distance", self.write(tmp_path, f"q={q}\n(1) (0,1)\n"))
        assert rc == 2 and out == ""
        assert "prime power" in err or "table size" in err

    @pytest.mark.parametrize("order", ["1_6", "+5", "\u0665"])
    def test_header_of_other_digits_exits_two(self, tmp_path, order):
        rc, out, err = run("distance", self.write(tmp_path, f"q={order}\n(1) (0,1)\n"))
        assert rc == 2 and out == ""
        assert "bad matrix file: line 1: bad header" in err

    @pytest.mark.parametrize("entry", ["()", "(1,)", "(,1)", "(1,,2)", "(x)", "(+1)", "(1_0)", "(-1)"])
    def test_bad_coefficient_names_its_line(self, tmp_path, entry):
        rc, out, err = run("distance", self.write(tmp_path, f"q=2\n(1) (0,1)\n(1) {entry}\n"))
        assert rc == 2 and out == ""
        assert f"bad matrix file: line 3: bad entry '{entry}'" in err

    @pytest.mark.parametrize("text, fragment", [
        ("q=2\nq=3\n(1) (0,1)\n", "line 2: duplicate q= header"),
        ("q=2\n(1) (0,2)\n", "line 2: coefficient out of range in '(0,2)'"),
        ("q=2\n(1) (0,1)\n(1)\n", "line 3: expected 2 entries, got 1"),
        ("", "matrix text needs a q= header and at least one row"),
        ("q=2\n# no rows\n", "matrix text needs a q= header and at least one row"),
    ])
    def test_malformed_matrix_text_exits_two(self, tmp_path, text, fragment):
        rc, out, err = run("distance", self.write(tmp_path, text))
        assert rc == 2 and out == ""
        assert err == f"parameter error: bad matrix file: {fragment}\n"

    def test_missing_file_exits_two(self, tmp_path):
        rc, _, err = run("distance", str(tmp_path / "missing.txt"))
        assert rc == 2

    def test_tight_state_budget_reports_bounds(self, tmp_path):
        path = self.write(tmp_path, "q=2\n(1,0,1) (1,1,1)\n")
        rc, out, _ = run("distance", path, "--state-budget", "1")
        assert rc == 0
        assert "bounds [1," in out
        assert "(bounded)" in out

    def test_search_key_overflow_reports_bounds(self, tmp_path):
        # 16**10 states of 16 branches fit both budgets, but a search key,
        # about (220 * 11 + 1) * 221 * 16**11 > 2**63, does not fit an int64
        entries = ["(1,0,0,0,0,0,0,0,0,0,3)"] + [f"({1 + i % 15})" for i in range(1, 220)]
        path = self.write(tmp_path, "q=16\n" + " ".join(entries) + "\n")
        rc, out, err = run("distance", path, "--state-budget", str(1 << 40),
                           "--work-budget", str(1 << 44))
        assert rc == 0 and err == ""
        assert "free distance: bounds [1, 221] (bounded)" in out

    def test_zero_work_budget_exits_two(self, tmp_path):
        path = self.write(tmp_path, "q=2\n(1) (0,1)\n")
        rc, out, err = run("distance", path, "--work-budget", "0")
        assert rc == 2 and out == ""
        assert "parameter error" in err and "budgets must be at least 1" in err


class TestTable:
    def test_all_reference_rows(self):
        rc, out, _ = run("table")
        lines = out.splitlines()
        assert rc == 0
        assert len(lines) == 26
        assert lines[1] == "II-T3a,16,i=5 t=1,17,6,6,6,5"
        assert lines[25] == "III-T8,7,n=7 k=2 t=3,7,1,2,5,3"

    def test_json_round_trip(self):
        rc, out, _ = run("table", "--format", "json")
        rows = json.loads(out)
        assert len(rows) == 25
        assert rows[14] == {
            "family": "III-T6", "q": 5, "params": {"n": 5, "k": 1, "t": 1},
            "n": 5, "k": 1, "gamma": 3, "dz": 3, "dx": 2,
        }


class TestSelftest:
    def test_one_battery_runs_every_check_and_passes(self, capsys):
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "selftest: 8/8 checks passed" in out
        assert "q32-sweep" in out

    def test_a_failing_check_fails_the_battery(self, capsys, monkeypatch):
        def broken():
            raise AssertionError("doctored source")

        checks = dict(selftest.CHECKS)
        checks["mds-sources"] = broken
        monkeypatch.setattr(selftest, "CHECKS", tuple(checks.items()))
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 1
        assert re.search(r"^mds-sources +FAIL +\d+\.\d\ds  AssertionError: doctored source$", out, re.M)
        assert out.count("  PASS  ") == 7
        assert re.search(r"^selftest: 7/8 checks passed in \d+\.\ds$", out, re.M)

    def test_quick_tier_is_gone(self):
        rc, out, err = run("selftest", "--tier", "quick")
        assert rc == 2 and out == ""
        assert "unrecognized arguments: --tier quick" in err


class TestParsing:
    def test_no_subcommand_exits_two(self):
        rc, _, _ = run()
        assert rc == 2

    def test_help_exits_zero(self):
        rc, out, _ = run("--help")
        assert rc == 0

    def test_unknown_flag_exits_two(self):
        rc, _, _ = run("table", "--nope")
        assert rc == 2


class TestIntegerOptions:
    # every integer the command line takes is ASCII decimal digits after an
    # optional "-", as in the matrix text; int() alone takes all of these
    NOT_DECIMAL = ("+5", "1_6", "٥", " 5", "")
    CERTIFY = ("certify", "--family", "III-T6", "--q", "5", "--n", "5", "--k", "1", "--t", "1")

    @pytest.mark.parametrize("spelling", NOT_DECIMAL)
    @pytest.mark.parametrize("option", ["--q", "--i", "--t", "--n", "--k", "--seed", "--enum-budget",
                                        "--state-budget", "--work-budget"])
    def test_certify_options_take_decimal_digits_only(self, option, spelling):
        rc, out, err = run(*self.CERTIFY, option, spelling)
        assert rc == 2 and out == ""
        assert f"argument {option}: invalid decimal value" in err

    @pytest.mark.parametrize("spelling", NOT_DECIMAL)
    def test_enumerate_and_distance_take_decimal_digits_only(self, spelling, tmp_path):
        rc, out, err = run("enumerate", "--family", "III-T6", "--q", spelling, "--range", "n=5:5")
        assert rc == 2 and out == "" and "argument --q: invalid decimal value" in err
        for bounds in (f"{spelling}:5", f"5:{spelling}"):
            rc, out, err = run("enumerate", "--family", "III-T6", "--q", "5", "--range", f"n={bounds}")
            assert rc == 2 and out == "" and "range bounds must be integers" in err
        path = tmp_path / "g.txt"
        path.write_text("q=2\n(1,1) (1)\n")
        for option in ("--state-budget", "--work-budget"):
            rc, out, err = run("distance", str(path), option, spelling)
            assert rc == 2 and out == "" and f"argument {option}: invalid decimal value" in err

    @pytest.mark.parametrize("spelling", NOT_DECIMAL)
    def test_partition_entries_take_decimal_digits_only(self, spelling):
        rc, out, err = run("certify", "--family", "I", "--q", "5", "--n", "4",
                           "--partition", f"1,1,1,{spelling}")
        assert rc == 2 and out == ""
        assert f"parameter error: not a decimal integer: {spelling!r}" in err

    def test_leading_zeros_and_minus_are_decimal(self):
        rc, out, _ = run("enumerate", "--family", "III-T6", "--q", "05", "--range", "n=005:5")
        assert rc == 0 and out.splitlines()[1].startswith("III-T6,5,n=5 ")
        # a minus sign is read, and the value then meets the range checks
        rc, out, err = run("enumerate", "--family", "III-T6", "--q", "-5")
        assert rc == 2 and out == "" and "parameter error" in err
