"""Self-tests of the benchmark; not part of the package's test suite.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(name, start, end, *children):
    s = spans.Span(name, start, end)
    for child in children:
        child.parent = s
        s.children.append(child)
    return s


def test_self_time_subtracts_union_of_direct_children():
    grandchild = span("g", 1.5, 2.5)
    root = span("root", 0.0, 10.0,
                span("a", 1.0, 3.0, grandchild),
                span("b", 2.0, 4.0),     # overlaps a: counted once
                span("c", 6.0, 7.0),     # disjoint sibling
                span("d", 9.5, 12.0))    # clipped at the parent's end
    # covered: [1, 4] + [6, 7] + [9.5, 10] = 3 + 1 + 0.5
    assert spans.self_time(root) == pytest.approx(5.5)
    assert spans.self_time(root.children[0]) == pytest.approx(1.0)
    assert spans.self_time(grandchild) == pytest.approx(1.0)
    assert spans.self_time(span("leaf", 2.0, 2.25)) == pytest.approx(0.25)


def test_nn_call_site_is_nearest_known_ancestor():
    nn = span("geometry.nn_map", 2.0, 3.0)
    span("objective.chamfer_loss_grad", 1.0, 4.0, nn)
    assert spans.nn_call_site(nn) == "objective"
    assert spans.nn_call_site(span("geometry.nn_map", 0.0, 1.0)) == "other"


def test_exhaustive_nearest_breaks_ties_to_lowest_index():
    import numpy as np
    target = np.array([[1.0, 0, 0], [-1.0, 0, 0], [1.0, 0, 0], [5.0, 0, 0]])
    query = np.array([[0.0, 0, 0], [1.2, 0, 0], [4.0, 0, 0]])
    assert spans.exhaustive_nearest(query, target).tolist() == [0, 0, 3]


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(57, 0, -1))
    pct, value, n = stats.tail_percentile(values)
    assert n == 57
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 47 / 57)
    assert stats.tail_percentile(range(11)) == (pytest.approx(100 / 11), 0.0, 11)
    with pytest.raises(ValueError):
        stats.tail_percentile(range(10))


def test_step_intervals_are_scaled_by_the_samples_at_their_ends(monkeypatch):
    ticks = iter([10.0, 10.5, 12.5, 13.0])
    samples = iter([0.04, 0.01])
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(ticks))
    monkeypatch.setattr(run.speed, "reference_s", lambda: next(samples))
    clock = run.StdoutClock([0.02], sample=True)
    clock.write("step=1 ...\n")
    clock.write("not a step line\n")
    clock.write("step=2 ...\n")
    # 2 s between the end of the first sample and the second line, at the
    # speed of the samples at its ends: median 25 ms against 20 ms nominal
    assert clock.steps == [pytest.approx(2.0 * speed.NOMINAL_S / 0.025)]
    assert clock.lines == 2
    assert clock.refs == [0.02, 0.04, 0.01]
    assert clock.reference_s == pytest.approx(1.0)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert f"metric {m['name']} = {got['value']!r} {m['unit']}" in proc.stdout
    for line in ("digest dataset sha256:", "digest checkpoint sha256:",
                 "digest completions sha256:", "env python="):
        assert line in proc.stdout
    if trace:
        m = result["metrics"]
        assert m["geometry.nn_map.oracle_mismatches"]["value"] == 0
        assert m["geometry.nn_map.oracle_rows"]["value"] > 0
        for site in ("coupling", "objective", "field", "metrics"):
            assert m[f"geometry.nn_map.{site}.ms"]["value"] > 0, site


def test_second_iteration_is_checked_against_the_first():
    proc = run_bench("--workload", "office", "--seed", "4", "--seconds", "12",
                     "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    iterations = int(proc.stdout.split("iterations ", 1)[1].split(";")[0])
    assert iterations >= 2
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


def test_without_package_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "office", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_declared_workloads_match_the_definitions():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
