"""Tests of the benchmark itself: tracing is invisible, checks bite.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import aqcc  # noqa: E402
import pytest  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL_ROW = reference.REFERENCE_TUPLES[14]  # III-T6 q=5 n=5 k=1 t=1


def _snapshot():
    """Identity of every attribute the tracer may rebind."""
    owners = tracer.aqcc_modules() + [
        aqcc.gf.FiniteField, aqcc.matrix.MatrixGF, aqcc.block.BlockCode,
        aqcc.certify.AqccCertificate,
    ]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def _certificate(effort):
    family, q, kw = SMALL_ROW[:3]
    return aqcc.certify_params(aqcc.FamilyParams(family, q, **kw), effort=effort).to_json()


@pytest.mark.parametrize("effort", ["structure", "desk"])
def test_traced_certificate_is_byte_identical(effort):
    plain = _certificate(effort)
    with tracer.Tracer() as t:
        traced = _certificate(effort)
    assert traced == plain
    names = {s[0] for s in t.spans}
    assert {"certify.certify_plan", "convo.smith_form", "certify.to_json"} <= names
    assert t.scalar_ops > 0


def test_wrappers_restore_the_originals():
    before = _snapshot()
    with tracer.Tracer():
        assert aqcc.smith_form is not before[(id(aqcc), "smith_form")]
        assert aqcc.trellis.reduce_matrix is not before[(id(aqcc.trellis), "reduce_matrix")]
    assert _snapshot().items() == before.items()

    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            aqcc.field_from_order(5).inv(0)
    assert _snapshot().items() == before.items()


def test_calls_inside_the_package_are_traced():
    g = aqcc.parse_poly_matrix((HERE / "encoders" / "r2m2.txt").read_text())
    with tracer.Tracer() as t:
        res = aqcc.free_distance(g)
    m = tracer.layer_metrics(t)
    # free_distance reaches smith_form through the name trellis imported
    assert m["convo.smith_form.calls"][0] == 1
    assert m["trellis.free_distance.calls"][0] == 1
    assert m["trellis.states"][0] == res.states
    assert m["trellis.edges"][0] == res.states * 2
    assert m["trellis.dijkstra_s"][0] == pytest.approx(m["trellis.free_distance.s"][0])


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", 0.0, 10.0, -1, None, None),
        ("b", 1.0, 4.0, 0, None, None),
        ("c", 2.0, 3.0, 1, None, None),
        ("b", 5.0, 6.0, 0, None, None),
    ]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_speed_probe_samples_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(interval=0.01) as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(probe.seconds) >= 5
    assert probe.starts == sorted(probe.starts)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_scaled_takes_probe_time_out_and_rescales():
    ref = speed.REFERENCE_PROBE_S
    probe = speed.SpeedProbe()
    probe.starts = [1.0, 2.0, 3.0, 10.0]
    probe.seconds = [ref, 2 * ref, 2 * ref, ref / 2]
    # probes at 2 and 3 lie inside: half speed, both taken out of the span
    own, scaled = probe.scaled(1.5, 4.0)
    assert own == pytest.approx(2.5 - 4 * ref)
    assert scaled == pytest.approx(own * 0.5 ** speed.SENSITIVITY)
    # the probe at 1.0 lies just outside: it sets the speed, not the own time
    own, scaled = probe.scaled(0.9, 0.95)
    assert (own, scaled) == (pytest.approx(0.05), pytest.approx(0.05))
    # none within the halo: the one nearest the middle (10.0) sets the speed
    own, scaled = probe.scaled(8.0, 9.0)
    assert (own, scaled) == (pytest.approx(1.0), pytest.approx(2.0 ** speed.SENSITIVITY))
    assert speed.SpeedProbe().scaled(0.0, 1.0) == (1.0, 1.0)


def test_import_timing_stops_at_its_limit(monkeypatch):
    before = (signal.getsignal(signal.SIGALRM), os.sched_getaffinity(0))
    monkeypatch.setattr(run, "IMPORT_LIMIT_S", 1)
    with pytest.raises(TimeoutError):
        run.time_imports(1000)
    assert (signal.getsignal(signal.SIGALRM), os.sched_getaffinity(0)) == before
    assert signal.alarm(0) == 0


def _failed(items):
    return sum(not r.ok for r in run.run_pass(items))


def test_reference_items_pass():
    items = [
        workloads._certificate_item(SMALL_ROW, "structure"),
        workloads._certificate_item(SMALL_ROW, "desk"),
        workloads._encoder_item(HERE / "encoders" / "r2m2.txt"),
        workloads._fault_item(*workloads.FAULT_CASES[1], seed=0),
    ]
    assert _failed(items) == 0


def test_corrupted_tuple_counts_as_error():
    row = list(SMALL_ROW)
    row[6] += 1  # dz
    assert _failed([workloads._certificate_item(tuple(row), "structure")]) == 1


def test_disjoint_seed_bracket_counts_as_error(monkeypatch):
    label = workloads.row_label(*SMALL_ROW[:3])
    entry = dict(reference.SEED_BRACKETS["desk"][label], d1f=(9, 9))
    monkeypatch.setitem(workloads.SEED_BRACKETS["desk"], label, entry)
    assert _failed([workloads._certificate_item(SMALL_ROW, "desk")]) == 1


def test_wrong_encoder_distance_counts_as_error(monkeypatch):
    monkeypatch.setitem(workloads.ENCODER_DFREE, "r2m2", 6)
    assert _failed([workloads._encoder_item(HERE / "encoders" / "r2m2.txt")]) == 1


def test_fault_with_another_error_counts_as_error():
    kind, _, instance = workloads.FAULT_CASES[1]
    item = workloads._fault_item(kind, aqcc.errors.ContainmentFailed, instance, 0)
    assert _failed([item]) == 1


def test_summary_counts_failed_items(monkeypatch):
    monkeypatch.setitem(workloads.ENCODER_DFREE, "r2m2", 6)
    items = [workloads._encoder_item(HERE / "encoders" / name) for name in ("r2m2.txt", "r2m3.txt")]
    _, attempted, failed = run.summarize([run.run_pass(items)])
    assert (attempted, failed) == (2, 1)


def test_workloads_have_their_documented_sizes():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]
    assert [w["name"] for w in declared] == ["structure-25", "desk-mix", "small-many"]
    assert len(workloads.build_items("structure-25", 0)) == 25
    assert len(workloads.build_items("desk-mix", 0)) == 19
    assert len(workloads.build_items("small-many", 0)) == 5 + 30 + 14


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-many", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_exactly_the_declared_metrics(trace, section, monkeypatch, tmp_path, capsys):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())[section]
    enc = HERE / "encoders"
    monkeypatch.setattr(workloads, "build_items", lambda workload, seed: [
        workloads._encoder_item(enc / "r2m2.txt"),
        workloads._certificate_item(SMALL_ROW, "desk"),
    ])
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(tracer, "CALIBRATION_CALLS", 1000)
    assert run.main(["--workload", "small-many", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in declared
    ]
