import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcomplete import metrics
from oracles import (cell_span_product, chamfer_mean_exhaustive, jsd_direct,
                     nn_map_exhaustive,
                     voxel_cells_recount)

EXTENT = (-2.0, 2.0, -2.0, 2.0)
# a report as format_report writes it
REPORT = ("cd_m = 0.5\njsd = 0.125\nvoxel_iou@0.5 = 0.75\nvoxel_iou@0.2 = 0.5\n"
          "voxel_iou@0.1 = 0.25\nwall_time_s = 0.01\n")


def random_cloud(rng, n, scale=1.0):
    return rng.uniform(-scale, scale, size=(n, 3))


def lattice_cloud(rng, n, distinct):
    if distinct:
        cells = rng.choice(10 ** 3, size=n, replace=False)
        return 0.5 * (np.stack(np.unravel_index(cells, (10, 10, 10)), axis=1) - 5)
    return 0.5 * rng.integers(-3, 4, size=(n, 3))


class TestEvalChamfer:
    def test_identical_clouds(self):
        rng = np.random.default_rng(0)
        cloud = random_cloud(rng, 40)
        assert metrics.eval_chamfer(cloud, cloud) == 0.0

    def test_uniform_shift(self):
        gt = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [-10.0, 0.0, 0.0]])
        pred = gt + np.array([0.125, 0.0, 0.0])
        assert metrics.eval_chamfer(pred, gt) == pytest.approx(0.125, rel=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        a = random_cloud(rng, 70)
        b = random_cloud(rng, 55)
        assert metrics.eval_chamfer(a, b) == pytest.approx(
            chamfer_mean_exhaustive(a, b), rel=1e-9
        )

    def test_uniform_shift_of_spaced_points(self):
        # Well-separated points shifted by d: the mean form reports d.
        a = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [20.0, 0.0, 0.0]])
        b = a + np.array([0.25, 0.0, 0.0])
        assert metrics.eval_chamfer(a, b) == pytest.approx(0.25, rel=1e-12)

    def test_matches_oracle_60_to_90(self):
        rng = np.random.default_rng(19)
        a = random_cloud(rng, 60)
        b = random_cloud(rng, 90)
        assert metrics.eval_chamfer(a, b) == pytest.approx(
            chamfer_mean_exhaustive(a, b), rel=1e-9
        )

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a = random_cloud(rng, 30)
        b = random_cloud(rng, 45)
        assert metrics.eval_chamfer(a, b) == metrics.eval_chamfer(b, a)

    @pytest.mark.parametrize("sizes", [(200, 500), (500, 200), (333, 333)])
    @pytest.mark.parametrize("distinct", [False, True], ids=["repeats", "distinct"])
    def test_lattice_ties_match_oracle(self, sizes, distinct):
        # 0.5 m lattice rows, drawn with repeats from 7**3 points or without
        # from 10**3 (so each index is queried in leaf order); most
        # distances tie
        rng = np.random.default_rng(sum(sizes))
        a, b = (lattice_cloud(rng, n, distinct) for n in sizes)
        b[::7] += 0.25  # off-lattice rows, equidistant from lattice neighbors
        got = metrics.eval_chamfer(a, b)
        assert got == pytest.approx(chamfer_mean_exhaustive(a, b), rel=1e-12)
        d_ab = ((a - b[nn_map_exhaustive(a, b)]) ** 2).sum(axis=1)
        d_ba = ((b - a[nn_map_exhaustive(b, a)]) ** 2).sum(axis=1)
        assert got == 0.5 * (np.sqrt(d_ab).mean() + np.sqrt(d_ba).mean())


class TestEvalBevJsd:
    def test_identical_clouds(self):
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng, 60)
        assert metrics.eval_bev_jsd(cloud, cloud, 0.5, EXTENT) == 0.0

    def test_disjoint_support_is_ln2(self):
        pred = np.array([[-1.7, -1.7, 0.0], [-1.2, -1.2, 0.0]])
        gt = np.array([[1.7, 1.7, 0.0], [1.2, 1.2, 0.0]])
        got = metrics.eval_bev_jsd(pred, gt, 0.5, EXTENT)
        assert abs(got - math.log(2.0)) < 1e-12

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(4)
        pred = random_cloud(rng, 200, scale=1.8)
        gt = random_cloud(rng, 150, scale=1.8)
        from flowcomplete.geometry import bev_histogram

        want = jsd_direct(
            bev_histogram(pred, 0.5, EXTENT).counts,
            bev_histogram(gt, 0.5, EXTENT).counts,
        )
        got = metrics.eval_bev_jsd(pred, gt, 0.5, EXTENT)
        assert got == pytest.approx(want, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pred = random_cloud(rng, 50, scale=1.9)
            gt = random_cloud(rng, 50, scale=1.9)
            a = metrics.eval_bev_jsd(pred, gt, 0.5, EXTENT)
            b = metrics.eval_bev_jsd(gt, pred, 0.5, EXTENT)
            assert a == pytest.approx(b, abs=1e-15)
            assert -1e-15 <= a <= math.log(2.0) + 1e-12

    def test_empty_bins_ignored(self):
        # Heavily concentrated mass leaves most bins empty on both sides;
        # the 0*log0 convention must keep the value finite.
        pred = np.tile([[0.1, 0.1, 0.0]], (30, 1))
        gt = np.vstack([np.tile([[0.1, 0.1, 0.0]], (15, 1)),
                        np.tile([[1.1, 1.1, 0.0]], (15, 1))])
        got = metrics.eval_bev_jsd(pred, gt, 0.5, EXTENT)
        assert np.isfinite(got)
        assert 0.0 < got < math.log(2.0)

    def test_out_of_extent_error(self):
        gt = np.array([[0.0, 0.0, 0.0]])
        far = np.array([[100.0, 100.0, 0.0]])
        with pytest.raises(ValueError, match="pred"):
            metrics.eval_bev_jsd(far, gt, 0.5, EXTENT)
        with pytest.raises(ValueError, match="gt"):
            metrics.eval_bev_jsd(gt, far, 0.5, EXTENT)


class TestEvalVoxelIou:
    def test_identical_clouds(self):
        rng = np.random.default_rng(6)
        cloud = random_cloud(rng, 80)
        assert metrics.eval_voxel_iou(cloud, cloud, 0.5) == 1.0

    def test_disjoint_cells(self):
        pred = np.array([[0.1, 0.1, 0.1]])
        gt = np.array([[5.1, 5.1, 5.1]])
        assert metrics.eval_voxel_iou(pred, gt, 0.5) == 0.0

    def test_matches_set_oracle(self):
        rng = np.random.default_rng(7)
        pred = random_cloud(rng, 120, scale=3.0)
        gt = random_cloud(rng, 90, scale=3.0)
        pc = voxel_cells_recount(pred, 0.2)
        gc = voxel_cells_recount(gt, 0.2)
        want = len(pc & gc) / len(pc | gc)
        assert metrics.eval_voxel_iou(pred, gt, 0.2) == want

    def test_empty_gt_rejected(self):
        with pytest.raises(ValueError, match="empty cloud"):
            metrics.eval_voxel_iou(np.zeros((3, 3)), np.empty((0, 3)), 0.5)

    def test_translation_by_resolution_multiples(self):
        rng = np.random.default_rng(8)
        pred = random_cloud(rng, 60, scale=2.0)
        gt = random_cloud(rng, 60, scale=2.0)
        shift = np.array([3 * 0.5, -2 * 0.5, 1 * 0.5])
        a = metrics.eval_voxel_iou(pred, gt, 0.5)
        b = metrics.eval_voxel_iou(pred + shift, gt + shift, 0.5)
        assert a == b


# See tests/test_geometry.py: with this offset a pair's cell span overflows
# int64, so the IoU counts run on lexsorted rows instead of packed keys.
FAR = np.array([1e9, 1e12, 0.0])


@settings(max_examples=150, deadline=None)
@example(pred_size=0, gt_size=5, shared=0, seed=0, resolution=0.1,
         origin=(0.0, 0.0, 0.0), far=False)
@example(pred_size=0, gt_size=5, shared=0, seed=0, resolution=0.5,
         origin=(0.0, 0.0, 0.0), far=True)
@given(pred_size=st.integers(0, 150), gt_size=st.integers(1, 150),
       shared=st.integers(0, 40), seed=st.integers(0, 2 ** 32 - 1),
       resolution=st.sampled_from([0.5, 0.2, 0.1]),
       origin=st.sampled_from([(0.0, 0.0, 0.0), (0.05, -0.3, 1.25)]),
       far=st.booleans())
def test_voxel_iou_matches_set_oracle_property(pred_size, gt_size, shared, seed,
                                               resolution, origin, far):
    rng = np.random.default_rng(seed)
    pred = random_cloud(rng, pred_size, scale=2.0)
    # the ground truth holds some prediction points, so the cells overlap
    gt = np.vstack([random_cloud(rng, gt_size, scale=2.0), pred[:shared]])
    if far:
        pred = np.vstack([pred, pred + FAR])
        gt = np.vstack([gt, gt + FAR])
    pc = voxel_cells_recount(pred, resolution, origin)
    gc = voxel_cells_recount(gt, resolution, origin)
    if far:
        assert cell_span_product(pc | gc) > np.iinfo(np.int64).max
    got = metrics.eval_voxel_iou(pred, gt, resolution, origin)
    assert got == len(pc & gc) / len(pc | gc)
    if pred_size == 0:
        assert got == 0.0


class TestEvaluate:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(9)
        cloud = random_cloud(rng, 50)
        report = metrics.evaluate(cloud, cloud, 0.5, EXTENT)
        assert report.cd_m == 0.0
        assert report.jsd == 0.0
        assert set(report.voxel_iou) == {0.5, 0.2, 0.1}
        assert all(v == 1.0 for v in report.voxel_iou.values())
        assert report.wall_time_s >= 0.0

    def test_report_round_trip(self):
        rng = np.random.default_rng(10)
        report = metrics.evaluate(
            random_cloud(rng, 40), random_cloud(rng, 40), 0.5, EXTENT
        )
        back = metrics.parse_report(metrics.format_report(report))
        assert back.cd_m == report.cd_m
        assert back.jsd == report.jsd
        assert back.voxel_iou == report.voxel_iou
        assert back.wall_time_s == report.wall_time_s

    def test_first_pair_does_not_time_the_scipy_import(self):
        # a fresh interpreter, since this one already holds scipy; the
        # timer records whether scipy.spatial is loaded each time it is read
        script = """
import sys, time, types
from flowcomplete import metrics
assert "scipy.spatial" not in sys.modules
seen = []

def perf_counter():
    seen.append("scipy.spatial" in sys.modules)
    return time.perf_counter()

metrics.time = types.SimpleNamespace(perf_counter=perf_counter)
cloud = [[0.0, 0.0, 0.0], [1.0, 0.5, 0.25]]
metrics.evaluate(cloud, cloud, 0.5, (-2.0, 2.0, -2.0, 2.0))
assert seen == [True, True], seen
print("ok")
"""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["ok"]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="line 1"):
            metrics.parse_report("not a report\n")
        with pytest.raises(ValueError, match="line 2: missing 'jsd'"):
            metrics.parse_report("cd_m = 0.5\n")
        with pytest.raises(ValueError, match="line 1: cd_m is not a finite number: 'abc'"):
            metrics.parse_report("cd_m = abc\n")
        # a form feed does not end a line, as in every text format here
        with pytest.raises(ValueError, match="line 1: cd_m is not a finite number"):
            metrics.parse_report("cd_m = 0.5\x0cjsd = 0.1\n")

    @pytest.mark.parametrize("text, lineno", [
        ("cd_m = nan\njsd = 0.1\n", 1),
        ("cd_m = 0.5\njsd = inf\n", 2),
        ("cd_m = 0.5\njsd = -inf\n", 2),
        ("cd_m = 0.5\njsd = 0.1\nvoxel_iou@0.5 = NaN\n", 3),
        (REPORT[:REPORT.index("wall_time_s")] + "wall_time_s = inf\n", 6),
    ])
    def test_parse_rejects_non_finite_values(self, text, lineno):
        with pytest.raises(ValueError, match=f"line {lineno}: .* is not a finite number"):
            metrics.parse_report(text)

    @pytest.mark.parametrize("text", [
        "cd_m = 0.5\njsd = 0.1\ncd_m = 0.25\n",
        "cd_m = 0.5\njsd = 0.1\nvoxel_iou@0.5 = 0.9\nvoxel_iou@0.50 = 0.8\n",
    ])
    def test_parse_rejects_repeated_keys(self, text):
        lineno = len(text.splitlines())
        with pytest.raises(ValueError, match=f"line {lineno}: expected 'voxel_iou@"):
            metrics.parse_report(text)

    @pytest.mark.parametrize("res", ["abc", "", "0", "-0.5", "inf", "nan"])
    def test_parse_rejects_bad_iou_resolutions(self, res):
        text = f"cd_m = 0.5\njsd = 0.1\nvoxel_iou@{res} = 0.9\n"
        with pytest.raises(ValueError, match="line 3: expected 'voxel_iou@0.5 = "):
            metrics.parse_report(text)

    def test_parse_reads_what_format_writes(self):
        # spaces around `=`, any line end and trailing blank lines are free
        want = metrics.parse_report(REPORT)
        assert metrics.format_report(want) == REPORT
        loose = REPORT.replace(" = ", "=").replace("\n", "\r\n") + "\n \n"
        assert metrics.parse_report(loose) == want

    @pytest.mark.parametrize("text, lineno", [
        pytest.param(REPORT + "foo = 3\n", 7, id="unknown-key"),
        pytest.param(REPORT.replace("jsd", "foo"), 2, id="unknown-key-in-place"),
        pytest.param(REPORT.replace("voxel_iou@0.2 = 0.5\n", ""), 4,
                     id="missing-line"),
        pytest.param(REPORT.replace("voxel_iou@0.2 = 0.5\nvoxel_iou@0.1 = 0.25\n",
                                    "voxel_iou@0.1 = 0.25\nvoxel_iou@0.2 = 0.5\n"),
                     4, id="swapped-lines"),
        pytest.param("# a comment\n" + REPORT, 1, id="comment"),
        pytest.param(REPORT + "\n# end\n", 8, id="text-after-wall-time"),
        pytest.param(REPORT[:REPORT.index("wall_time_s")], 6, id="no-wall-time"),
        pytest.param(REPORT.replace("jsd = 0.125\n", "jsd = 0.125\n\n"), 3,
                     id="blank-line-inside"),
    ])
    def test_parse_rejects_what_format_never_writes(self, text, lineno):
        with pytest.raises(ValueError, match=f"^line {lineno}: "):
            metrics.parse_report(text)

    def test_mean_report_round_trip(self):
        rng = np.random.default_rng(12)
        reports = [metrics.evaluate(random_cloud(rng, 30), random_cloud(rng, 30),
                                    0.5, EXTENT)
                   for _ in range(3)]
        mean = metrics.mean_report(reports)
        assert set(mean.voxel_iou) == set(metrics.IOU_RESOLUTIONS)
        assert metrics.parse_report(metrics.format_report(mean)) == mean

    def test_table_contains_mean_row(self):
        rng = np.random.default_rng(11)
        reports = [
            ("case-0", metrics.evaluate(random_cloud(rng, 30),
                                        random_cloud(rng, 30), 0.5, EXTENT)),
            ("case-1", metrics.evaluate(random_cloud(rng, 30),
                                        random_cloud(rng, 30), 0.5, EXTENT)),
        ]
        table = metrics.format_table(reports)
        lines = table.strip().splitlines()
        assert lines[0].startswith("case")
        assert lines[-1].startswith("mean")
        want_mean = np.mean([r.cd_m for _, r in reports])
        assert f"{want_mean:.6f}" in lines[-1]
