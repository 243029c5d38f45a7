"""Statements in src/aqcc function bodies that the benchmark's traffic and
the README's console examples never run.

Run from the repository root, on demand (pytest does not collect it, its
name not being test_*):

    PYTHONPATH=src python tests/traffic.py

It loads perfbench/workloads.py by path and runs one pass of each
workload at seed 1, checking each item's output as the benchmark does.
Then it runs the README's console examples through aqcc.cli.main, in a
temporary directory that holds the files the README's "$ cat" lines show.
All of it runs in this process under sys.settrace.  The script prints
each function-body statement of src/aqcc (as unreached.py counts them)
whose first line none of this ran, then their count, the number of
workload items whose run or check failed and the number of console
examples that exited nonzero; it exits 1 when either number is not 0.
A statement that unreached.py does not list but this script does runs
only under the tests.  tests/test_traffic.py runs the same pass untraced.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

from aqcc import cli
from unreached import ROOT, traced

PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("structure-25", "desk-mix", "small-many")
SEED = 1


def load_workloads():
    """perfbench/workloads.py as a module; it imports reference.py from its
    own directory."""
    sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_workloads(workloads) -> dict[str, tuple[int, int, int]]:
    """One checked pass of every workload: for each, the number of failed
    items and its exact distance statements out of all, as the benchmark
    counts them for decided_frac."""
    out = {}
    for name in WORKLOADS:
        failed = decided = statements = 0
        for item in workloads.build_items(name, SEED):
            try:
                outcome = item.check(item.run())
            except Exception as exc:  # one broken item must not hide the others
                print(f"{name}: {item.name} failed: {type(exc).__name__}: {exc}")
                failed += 1
                continue
            decided += outcome.decided
            statements += outcome.statements
        out[name] = (failed, decided, statements)
    return out


def console_examples() -> list[tuple[list[str], str]]:
    """The README's "$ " lines in order: each command's words and the
    text shown under it."""
    return [(shlex.split(cmd), shown)
            for block in re.findall(r"```\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
            for cmd, shown in re.findall(r"^\$ (.*)\n((?:(?!\$ ).*\n)*)", block, re.M)]


def run_console_examples() -> int:
    """Every aqcc command through cli.main, after writing each file a cat
    command shows; the number that exit nonzero."""
    failed = 0
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for words, shown in console_examples():
                if words[0] == "cat":
                    Path(words[1]).write_text(shown)
                    continue
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main(words[1:])
                if status != 0:
                    print(f"$ {shlex.join(words)} exited {status}")
                    failed += 1
        finally:
            os.chdir(here)
    return failed


def main() -> int:
    """0 when every workload item passed its check and every console
    example exited 0, else 1."""
    workloads = load_workloads()
    (runs, examples_failed), missed = traced(
        lambda: (run_workloads(workloads), run_console_examples()))
    items_failed = sum(failed for failed, _, _ in runs.values())
    for where in missed:
        print(where)
    print(f"{len(missed)} statements in src/aqcc function bodies that the traffic never runs "
          f"({items_failed} workload items failed, {examples_failed} console examples exited nonzero)")
    return 1 if items_failed or examples_failed else 0


if __name__ == "__main__":
    sys.exit(main())
