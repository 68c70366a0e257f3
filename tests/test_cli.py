import dataclasses
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from flowcomplete import cli, cloud_io, coupling, field, metrics, sampler, scenes
from flowcomplete.config import RunConfig

SRC = Path(__file__).resolve().parents[1] / "src"

# small-but-real settings so CLI tests stay fast
FAST = [
    "--cases", "2", "--scan-budget", "64", "--copies", "2",
    "--density", "25", "--scan-azimuths", "90", "--scan-elevations", "6",
    "--hidden-widths", "16,16", "--noise-scale", "0.25",
    "--bev-half-extent", "5",
]


def run_cli(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["flowcomplete", *argv])
    with pytest.raises(SystemExit) as exc_info:
        cli.main_entry()
    captured = capsys.readouterr()
    return exc_info.value.code, captured.out, captured.err


@pytest.fixture
def dataset(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data"
    code, _, err = run_cli(["make-data", *FAST, "--out", str(data)],
                           monkeypatch, capsys)
    assert code == 0, err
    return data


class TestMakeData:
    def test_manifest_rows_match_case_count(self, dataset):
        entries = cloud_io.read_manifest(dataset / "manifest.tsv")
        assert len(entries) == 2
        for e in entries:
            assert (dataset / e.scene_path).exists()
            assert (dataset / e.scan_path).exists()

    def test_zero_cases_empty_manifest(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "empty"
        code, _, _ = run_cli(["make-data", "--cases", "0", "--out", str(data)],
                             monkeypatch, capsys)
        assert code == 0
        assert (data / "manifest.tsv").read_text() == ""

    def test_rerun_byte_identical(self, tmp_path, monkeypatch, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            code, _, _ = run_cli(["make-data", *FAST, "--out", str(out)],
                                 monkeypatch, capsys)
            assert code == 0
        for rel in ["manifest.tsv", "scans/case-000.ply", "scenes/case-001.ply"]:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_scan_budget_respected(self, dataset):
        entries = cloud_io.read_manifest(dataset / "manifest.tsv")
        scan = cloud_io.read_cloud(dataset / entries[0].scan_path)
        assert len(scan) == 64

    def test_failed_run_leaves_no_manifest(self, tmp_path, monkeypatch, capsys):
        # scene seed 121 writes cases 000 and 001, then case 002 sees an
        # empty scan; the manifest of the seed-114 run must not outlive it
        data = tmp_path / "data"
        args = ["make-data", "--cases", "6", "--scan-azimuths", "24",
                "--scan-elevations", "4", "--scan-dropout", "0.93",
                "--out", str(data)]
        code, _, err = run_cli([*args, "--scene-seed", "114"], monkeypatch, capsys)
        assert code == 0, err
        assert (data / "manifest.tsv").exists()
        code, _, err = run_cli([*args, "--scene-seed", "121"], monkeypatch, capsys)
        assert code == 2
        assert "case case-002: simulated scan is empty" in err
        assert (data / "scans" / "case-001.ply").exists()
        assert not (data / "manifest.tsv").exists()


class TestTrain:
    def test_zero_epochs_checkpoint_is_initialization(self, dataset, tmp_path,
                                                      monkeypatch, capsys):
        ckpt = tmp_path / "model.ckpt"
        code, _, err = run_cli(
            ["train", *FAST, "--epochs", "0", "--data", str(dataset),
             "--out", str(ckpt)],
            monkeypatch, capsys,
        )
        assert code == 0, err
        state, init = field.load_checkpoint(ckpt)
        want = field.init_model(state.config)
        assert state.step_count == 0
        assert np.array_equal(state.weights, want.weights)
        # FAST's copies and noise scale
        assert init == coupling.InitialDistribution(2, 0.25)

    def test_short_run_logs_and_reruns_identically(self, dataset, tmp_path,
                                                   monkeypatch, capsys):
        args = ["train", *FAST, "--epochs", "5", "--max-steps", "3",
                "--data", str(dataset)]
        a = tmp_path / "a.ckpt"
        code, out, err = run_cli([*args, "--out", str(a)], monkeypatch, capsys)
        assert code == 0, err
        lines = [l for l in out.splitlines() if l.startswith("step=")]
        assert len(lines) == 3
        assert "total=" in lines[0]
        b = tmp_path / "b.ckpt"
        code, _, _ = run_cli([*args, "--out", str(b)], monkeypatch, capsys)
        assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_divergence_keeps_last_finite_checkpoint(self, dataset, tmp_path,
                                                     monkeypatch, capsys,
                                                     recwarn):
        # Adam moves every weight by about the learning rate, so the first
        # step leaves weights near 1e200 and the second step's gradient
        # overflows.
        ckpt = tmp_path / "model.ckpt"
        code, out, err = run_cli(
            ["train", *FAST, "--copies", "3", "--noise-scale", "0.1",
             "--epochs", "3", "--learning-rate", "1e200",
             "--data", str(dataset), "--out", str(ckpt)],
            monkeypatch, capsys,
        )
        assert code == 2
        assert "training aborted at step 2" in err
        # the one error line, with no numpy overflow warnings before it
        assert len(err.splitlines()) == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert len([l for l in out.splitlines() if l.startswith("step=")]) == 1
        state, init = field.load_checkpoint(ckpt)
        assert state.step_count == 1
        assert init == coupling.InitialDistribution(3, 0.1)  # the run's pair
        for array in (state.weights, state.ema_weights):
            assert np.all(np.isfinite(array))
        # a plain `complete` draws x0 from that pair; weights near 1e200
        # move points beyond float32's range in one step, so write text
        scan = dataset / "scans" / "case-000.ply"
        completed = tmp_path / "completed.xyz"
        code, _, err = run_cli(
            ["complete", "--checkpoint", str(ckpt), "--scan", str(scan),
             "--out", str(completed), "--steps", "1"],
            monkeypatch, capsys,
        )
        assert code == 0, err
        assert (len(cloud_io.read_cloud(completed))
                == 3 * len(cloud_io.read_cloud(scan)))

    def test_missing_dataset_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        code, _, err = run_cli(
            ["train", "--data", str(tmp_path / "nope"),
             "--out", str(tmp_path / "m.ckpt")],
            monkeypatch, capsys,
        )
        assert code == 2
        assert "nope" in err

    @pytest.mark.parametrize("manifest", [None, ""], ids=["missing", "empty"])
    def test_bad_manifest_makes_no_checkpoint_directory(
            self, manifest, tmp_path, monkeypatch, capsys):
        data = tmp_path / "nodata"
        if manifest is not None:
            data.mkdir()
            (data / "manifest.tsv").write_text(manifest)
        code, _, err = run_cli(
            ["train", "--data", str(data),
             "--out", str(tmp_path / "newdir" / "m.ckpt")],
            monkeypatch, capsys,
        )
        assert code == 2
        assert "manifest.tsv" in err
        assert not (tmp_path / "newdir").exists()

    def test_empty_scan_names_the_file(self, dataset, tmp_path, monkeypatch,
                                       capsys):
        scan = dataset / cloud_io.read_manifest(dataset / "manifest.tsv")[1].scan_path
        cloud_io.write_cloud(np.empty((0, 3)), scan)
        code, _, err = run_cli(
            ["train", *FAST, "--data", str(dataset),
             "--out", str(tmp_path / "m.ckpt")],
            monkeypatch, capsys,
        )
        assert code == 2
        assert err == f"error: {scan}: empty cloud\n"


class TestComplete:
    @pytest.fixture
    def zero_checkpoint(self, tmp_path):
        cfg = field.FieldConfig(hidden_widths=(16, 16), time_embed_dim=8,
                                activation="tanh", seed=0)
        state = field.init_model(cfg)
        path = tmp_path / "zero.ckpt"
        # FAST's copies and noise scale
        field.save_checkpoint(path, state, coupling.InitialDistribution(2, 0.25))
        return path

    def test_untrained_checkpoint_outputs_noisy_initial(self, dataset,
                                                        zero_checkpoint,
                                                        tmp_path, monkeypatch,
                                                        capsys):
        entries = cloud_io.read_manifest(dataset / "manifest.tsv")
        scan_path = dataset / entries[0].scan_path
        out = tmp_path / "completed.ply"
        code, _, err = run_cli(
            ["complete", *FAST, "--checkpoint", str(zero_checkpoint),
             "--scan", str(scan_path), "--out", str(out), "--seed", "11"],
            monkeypatch, capsys,
        )
        assert code == 0, err
        got = cloud_io.read_cloud(out)
        scan = cloud_io.read_cloud(scan_path)
        want = coupling.noisy_initial_cloud(
            scan, coupling.InitialDistribution(2, 0.25), seed=11)
        assert np.array_equal(got, want.astype("<f4").astype(np.float64))
        assert len(got) == 2 * len(scan)

    def test_trajectory_files(self, dataset, zero_checkpoint, tmp_path,
                              monkeypatch, capsys):
        entries = cloud_io.read_manifest(dataset / "manifest.tsv")
        out = tmp_path / "traj.ply"
        code, _, err = run_cli(
            ["complete", *FAST, "--checkpoint", str(zero_checkpoint),
             "--scan", str(dataset / entries[0].scan_path), "--out", str(out),
             "--record-trajectory", "true", "--steps", "4"],
            monkeypatch, capsys,
        )
        assert code == 0, err
        for t in ("0.00", "0.25", "0.50", "0.75", "1.00"):
            assert (tmp_path / f"traj-t{t}.ply").exists()

    def test_trajectory_files_above_100_steps(self, dataset, zero_checkpoint,
                                              tmp_path, monkeypatch, capsys):
        entries = cloud_io.read_manifest(dataset / "manifest.tsv")
        out = tmp_path / "traj.ply"
        code, _, err = run_cli(
            ["complete", *FAST, "--checkpoint", str(zero_checkpoint),
             "--scan", str(dataset / entries[0].scan_path), "--out", str(out),
             "--record-trajectory", "true", "--steps", "250"],
            monkeypatch, capsys,
        )
        assert code == 0, err
        steps = sorted(p.name for p in tmp_path.glob("traj-t*.ply"))
        assert len(steps) == 251
        assert steps[0] == "traj-t0.000.ply"
        assert "traj-t0.004.ply" in steps
        assert steps[-1] == "traj-t1.000.ply"

    def test_failed_step_leaves_the_states_before_it(
            self, dataset, zero_checkpoint, tmp_path, monkeypatch, capsys):
        # each state is written as it is produced, so a run that fails
        # part way leaves the steps so far and no final cloud
        def exploding(state, t, x_t, scan, w, *, use_ema, buffers=None):
            return np.full_like(x_t, np.inf) if t >= 0.5 else np.zeros_like(x_t)

        monkeypatch.setattr(sampler, "guided_field", exploding)
        entries = cloud_io.read_manifest(dataset / "manifest.tsv")
        out = tmp_path / "traj.ply"
        code, _, err = run_cli(
            ["complete", *FAST, "--checkpoint", str(zero_checkpoint),
             "--scan", str(dataset / entries[0].scan_path), "--out", str(out),
             "--record-trajectory", "true", "--steps", "4"],
            monkeypatch, capsys,
        )
        assert code == 2
        assert err == "error: non-finite state at integration step 2\n"
        assert sorted(p.name for p in tmp_path.glob("traj*")) == [
            "traj-t0.00.ply", "traj-t0.25.ply", "traj-t0.50.ply"]

    def test_unknown_output_format_fails_before_any_work(
            self, dataset, zero_checkpoint, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("integrated before checking the output format")

        monkeypatch.setattr(sampler, "euler_integrate", never)
        monkeypatch.chdir(tmp_path)
        entries = cloud_io.read_manifest(dataset / "manifest.tsv")
        code, _, err = run_cli(
            ["complete", *FAST, "--checkpoint", str(zero_checkpoint),
             "--scan", str(dataset / entries[0].scan_path),
             "--out", "out/c.bin", "--steps", "50"],
            monkeypatch, capsys,
        )
        assert code == 2
        assert err == "error: cannot guess cloud format from 'out/c.bin'\n"
        assert not (tmp_path / "out").exists()

    def test_text_output_evaluates(self, dataset, zero_checkpoint, tmp_path,
                                   monkeypatch, capsys):
        # the extension picks the format, so `eval` reads back what
        # `complete` wrote
        entries = cloud_io.read_manifest(dataset / "manifest.tsv")
        scan_path = dataset / entries[0].scan_path
        out = tmp_path / "pred.xyz"
        code, _, err = run_cli(
            ["complete", *FAST, "--checkpoint", str(zero_checkpoint),
             "--scan", str(scan_path), "--out", str(out)],
            monkeypatch, capsys,
        )
        assert code == 0, err
        assert not out.read_bytes().startswith(b"ply")
        assert len(cloud_io.read_cloud(out)) == 2 * len(cloud_io.read_cloud(scan_path))
        code, _, err = run_cli(
            ["eval", *FAST, "--pred", str(out),
             "--gt", str(dataset / entries[0].scene_path)],
            monkeypatch, capsys,
        )
        assert code == 0, err

    def test_missing_scan_file(self, zero_checkpoint, tmp_path, monkeypatch, capsys):
        code, _, err = run_cli(
            ["complete", "--checkpoint", str(zero_checkpoint),
             "--scan", str(tmp_path / "ghost.ply"),
             "--out", str(tmp_path / "o.ply")],
            monkeypatch, capsys,
        )
        assert code == 2
        assert "ghost.ply" in err

    def test_empty_scan_names_the_file(self, zero_checkpoint, tmp_path,
                                       monkeypatch, capsys):
        scan = tmp_path / "empty.ply"
        cloud_io.write_cloud(np.empty((0, 3)), scan)
        code, _, err = run_cli(
            ["complete", "--checkpoint", str(zero_checkpoint),
             "--scan", str(scan), "--out", str(tmp_path / "o.ply")],
            monkeypatch, capsys,
        )
        assert code == 2
        assert err == f"error: {scan}: empty scan\n"

    def test_completion_beyond_float32_range_is_not_written(
            self, zero_checkpoint, tmp_path, monkeypatch, capsys):
        # the text scan holds the far coordinates; the binary PLY output
        # cannot, and a file read_cloud rejects must not be left behind
        scan = tmp_path / "far.xyz"
        cloud = np.random.default_rng(23).uniform(-1, 1, size=(50, 3)) * 1e160
        cloud_io.write_cloud(cloud, scan)
        out = tmp_path / "far.ply"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(
                ["complete", *FAST, "--checkpoint", str(zero_checkpoint),
                 "--scan", str(scan), "--out", str(out)],
                monkeypatch, capsys,
            )
        assert code == 2
        assert err == (f"error: {out}: coordinates beyond the float32 range "
                       "of binary PLY\n")
        assert not out.exists()


class TestInitialDistribution:
    """`complete` runs the checkpoint's model on x0 drawn from the initial
    distribution that trained it; a file line or flag may only repeat the
    values its header records, the seed aside."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("init")
        data, ckpt = root / "data", root / "model.ckpt"
        assert cli.main(["make-data", *FAST, "--out", str(data)]) == 0
        assert cli.main(["train", *FAST, "--copies", "3", "--noise-scale", "0.1",
                         "--epochs", "1", "--data", str(data),
                         "--out", str(ckpt)]) == 0
        return ckpt, data / "scans" / "case-000.ply"

    @pytest.mark.parametrize("seed", [0, 5])
    def test_plain_complete_draws_the_trained_pair(self, trained, tmp_path,
                                                   monkeypatch, capsys, seed):
        ckpt, scan_path = trained
        out = tmp_path / "c.ply"
        code, _, err = run_cli(
            ["complete", "--checkpoint", str(ckpt), "--scan", str(scan_path),
             "--out", str(out), "--steps", "2", "--seed", str(seed),
             "--record-trajectory", "true"],
            monkeypatch, capsys,
        )
        assert code == 0, err
        x0 = cloud_io.read_cloud(tmp_path / "c-t0.00.ply")
        scan = cloud_io.read_cloud(scan_path)
        assert x0.shape == (3 * len(scan), 3)
        want = coupling.noisy_initial_cloud(
            scan, coupling.InitialDistribution(3, 0.1), seed=seed)
        assert np.array_equal(x0, want.astype("<f4").astype(np.float64))
        # each copy sits about the scan at the 0.1 spread, not RunConfig's 0.25
        spread = (x0 - np.tile(scan, (3, 1))).std()
        assert 0.09 < spread < 0.11
        assert len(cloud_io.read_cloud(out)) == 3 * len(scan)

    @pytest.mark.parametrize("flags, body, source", [
        (["--copies", "4"], None,
         "flag --copies: config key 'copies': 4 differs from 3"),
        (["--noise-scale", "0.25"], None,
         "flag --noise-scale: config key 'noise_scale': 0.25 differs from 0.1"),
        ([], "noise_scale = 0.2\n",
         "{cfg}: line 1: config key 'noise_scale': 0.2 differs from 0.1"),
        # the flag is the value that stands, and it differs
        (["--copies", "2"], "copies = 3\n",
         "flag --copies: config key 'copies': 2 differs from 3"),
        # the model keys the checkpoint records: FAST trains (16, 16), tanh, 8
        (["--hidden-widths", "128,128"], None,
         "flag --hidden-widths: config key 'hidden_widths': (128, 128) differs "
         "from (16, 16)"),
        (["--activation", "relu"], None,
         "flag --activation: config key 'activation': 'relu' differs from 'tanh'"),
        ([], "time_embed_dim = 16\n",
         "{cfg}: line 1: config key 'time_embed_dim': 16 differs from 8"),
    ], ids=["flag_copies", "flag_noise_scale", "file_noise_scale",
            "flag_over_equal_file", "flag_hidden_widths", "flag_activation",
            "file_time_embed_dim"])
    def test_a_differing_value_is_usage_error(self, trained, tmp_path,
                                              monkeypatch, capsys, flags, body,
                                              source):
        ckpt, scan_path = trained
        cfgfile = tmp_path / "run.cfg"
        if body is not None:
            cfgfile.write_text(body)
            flags = ["--config", str(cfgfile), *flags]
        out = tmp_path / "out" / "c.ply"
        code, _, err = run_cli(
            ["complete", *flags, "--checkpoint", str(ckpt),
             "--scan", str(scan_path), "--out", str(out)],
            monkeypatch, capsys,
        )
        assert code == 1
        assert err == (f"usage error: {source.format(cfg=cfgfile)}, the value "
                       f"{ckpt} was trained with\n")
        assert not out.parent.exists()

    def test_equal_values_are_accepted(self, trained, tmp_path, monkeypatch,
                                       capsys):
        ckpt, scan_path = trained
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("copies = 3\n")
        outs = []
        for flags in ([], ["--copies", "3", "--noise-scale", "0.10"],
                      ["--config", str(cfgfile), "--noise-scale", "1e-1"],
                      ["--hidden-widths", "16,016", "--activation", "tanh"]):
            outs.append(tmp_path / f"c{len(outs)}.ply")
            code, _, err = run_cli(
                ["complete", *flags, "--checkpoint", str(ckpt),
                 "--scan", str(scan_path), "--out", str(outs[-1])],
                monkeypatch, capsys,
            )
            assert code == 0, err
        assert len({out.read_bytes() for out in outs}) == 1

    def test_checked_fields_are_run_config_keys(self):
        # complete compares each given key against the checkpoint's fields
        # of the same name, so a field under another name would go unchecked
        keys = {f.name for f in dataclasses.fields(RunConfig)}
        names = {f.name for f in dataclasses.fields(coupling.InitialDistribution)}
        names |= {f.name for f in dataclasses.fields(field.FieldConfig)}
        assert names - keys == {"zero_init_output"}


class TestEval:
    def test_identical_files_perfect_scores(self, dataset, tmp_path,
                                            monkeypatch, capsys):
        entries = cloud_io.read_manifest(dataset / "manifest.tsv")
        scene = str(dataset / entries[0].scene_path)
        report = tmp_path / "report.txt"
        code, out, err = run_cli(
            ["eval", *FAST, "--pred", scene, "--gt", scene,
             "--report", str(report)],
            monkeypatch, capsys,
        )
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[-1].startswith("mean")
        assert "0.000000" in lines[-1]
        assert "1.0000" in lines[-1]
        from flowcomplete import metrics

        mean = metrics.parse_report(report.read_text())
        assert mean.cd_m == 0.0
        assert mean.voxel_iou[0.5] == 1.0

    def test_mismatched_pair_counts_is_usage_error(self, dataset, monkeypatch,
                                                   capsys):
        entries = cloud_io.read_manifest(dataset / "manifest.tsv")
        scene = str(dataset / entries[0].scene_path)
        code, _, err = run_cli(
            ["eval", "--pred", scene, scene, "--gt", scene],
            monkeypatch, capsys,
        )
        assert code == 1
        assert "mismatched" in err

    def test_missing_file_exit_two(self, monkeypatch, capsys, tmp_path):
        missing = str(tmp_path / "gone.ply")
        code, _, err = run_cli(["eval", "--pred", missing, "--gt", missing],
                               monkeypatch, capsys)
        assert code == 2
        assert "gone.ply" in err

    @pytest.mark.parametrize("pred, reason", [
        (np.empty((0, 3)), "empty cloud in chamfer"),
        # FAST's BEV extent is 5 m either side of the origin
        (np.array([[100.0, 100.0, 0.0]]), "no pred points inside evaluation extent"),
    ], ids=["empty", "outside_extent"])
    def test_content_error_names_the_pair(self, dataset, tmp_path, monkeypatch,
                                          capsys, pred, reason):
        gt = dataset / cloud_io.read_manifest(dataset / "manifest.tsv")[0].scene_path
        pred_path = tmp_path / "pred.ply"
        cloud_io.write_cloud(pred, pred_path)
        code, _, err = run_cli(
            ["eval", *FAST, "--pred", str(pred_path), "--gt", str(gt)],
            monkeypatch, capsys,
        )
        assert code == 2
        assert err == f"error: pred {pred_path} vs gt {gt}: {reason}\n"


class TestUsage:
    def test_unknown_flag(self, monkeypatch, capsys):
        code, _, _ = run_cli(["train", "--warp-speed", "9"], monkeypatch, capsys)
        assert code == 1

    def test_no_command(self, monkeypatch, capsys):
        code, _, _ = run_cli([], monkeypatch, capsys)
        assert code == 1

    def test_invalid_config_value(self, monkeypatch, capsys):
        code, _, err = run_cli(["make-data", "--cases", "-3", "--out", "x"],
                               monkeypatch, capsys)
        assert code == 1
        assert "cases" in err

    @pytest.mark.parametrize("argv, key", [
        (["train", "--learning-rate", "nan"], "learning_rate"),
        (["eval", "--bev-resolution", "nan", "--pred", "p.ply", "--gt", "g.ply"],
         "bev_resolution"),
        (["make-data", "--density", "inf"], "density"),
        (["make-data", "--cases", "many"], "cases"),
        # out of range: placement would hang (2, 1) or numpy would fail
        # late (-4), after the dataset directories exist
        (["make-data", "--ground-half-extent", "2"], "ground_half_extent"),
        (["make-data", "--ground-half-extent", "1"], "ground_half_extent"),
        (["make-data", "--ground-half-extent", "-4"], "ground_half_extent"),
        (["make-data", "--density", "-1"], "density"),
        (["make-data", "--density", "0"], "density"),
        # ScanSpec checks the budget; validation reaches it through scan_spec
        (["make-data", "--scan-budget", "0"], "scan-budget"),
        # sizes beyond the module caps: each failed only after the dataset
        # directories existed (a bare OverflowError for 1e308), and 1e9
        # azimuths exhausted memory; validation alone reaches these
        (["make-data", "--ground-half-extent", "1e308", "--cases", "1"],
         "ground_half_extent"),
        (["make-data", "--ground-half-extent", "1e200", "--cases", "1"],
         "ground_half_extent"),
        (["make-data", "--density", "1e12", "--cases", "1"], "density"),
        (["make-data", "--scan-azimuths", "1000000000", "--cases", "1"],
         "scan_azimuths"),
        # the BEV grid would need more cells than int64 can count: caught
        # before the clouds are read, not by a failed cast
        (["eval", "--bev-half-extent", "1e308", "--pred", "p.ply", "--gt",
          "g.ply"], "bev-half-extent"),
        (["eval", "--bev-resolution", "1e-300", "--pred", "p.ply", "--gt",
          "g.ply"], "bev-resolution"),
    ], ids=["learning_rate", "bev_resolution", "density", "cases",
            "extent_2", "extent_1", "extent_negative", "density_negative",
            "density_zero", "scan_budget_zero", "extent_1e308",
            "extent_1e200", "density_huge", "scan_azimuths_huge",
            "bev_half_extent_huge",
            "bev_resolution_tiny"])
    def test_unparsable_value_is_usage_error(self, tmp_path, monkeypatch,
                                             capsys, argv, key):
        # a value that got past validation fails the test here, before it
        # can synthesize (and so allocate) a scene or a scan
        def never(*args, **kwargs):
            raise AssertionError("synthesis started after validation")

        monkeypatch.setattr(scenes, "generate_scene", never)
        monkeypatch.setattr(scenes, "simulate_scan", never)
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(argv, monkeypatch, capsys)
        assert code == 1
        assert key in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("body, flags, source", [
        ("cases = 2\nlearning_rate = -1\n", [],
         "{cfg}: line 2: config key 'learning_rate': learning rate must be positive"),
        ("# widths\nhidden_widths = 0\n", [],
         "{cfg}: line 2: config key 'hidden_widths': hidden widths must be positive"),
        ("cases = 2\n", ["--learning-rate", "-1"],
         "flag --learning-rate: config key 'learning_rate': learning rate must "
         "be positive"),
        ("cases = 2\n", ["--learning-rate", "nan"],
         "flag --learning-rate: config key 'learning_rate': expected a finite "
         "number, got 'nan'"),
        # at 0 the copies of each scan point never separate
        ("cases = 2\nnoise_scale = 0\n", [],
         "{cfg}: line 2: config key 'noise_scale': noise_scale must be > 0"),
        ("noise_scale = 0.25\n", ["--noise-scale", "0"],
         "flag --noise-scale: config key 'noise_scale': noise_scale must be > 0"),
        # an empty part is not dropped: "64," is not one layer
        ("hidden_widths = 64,,64\n", [],
         "{cfg}: line 1: config key 'hidden_widths': expected comma-separated "
         "integers, got '64,,64'"),
        ("cases = 2\n", ["--hidden-widths", "64,"],
         "flag --hidden-widths: config key 'hidden_widths': expected "
         "comma-separated integers, got '64,'"),
        ("cases = 2\n", ["--hidden-widths", ",64"],
         "flag --hidden-widths: config key 'hidden_widths': expected "
         "comma-separated integers, got ',64'"),
        # numpy's generators take no negative seed; caught before the
        # dataset is read
        ("cases = 2\nseed = -1\n", [],
         "{cfg}: line 2: config key 'seed': seed must be >= 0"),
        ("cases = 2\n", ["--scene-seed", "-3"],
         "flag --scene-seed: config key 'scene_seed': scene_seed must be >= 0"),
        # a flag replaces an out-of-range file value, so the config loads...
        ("cases = 2\nlearning_rate = -1\n", ["--learning-rate", "1e-3"], None),
        # ...but every entry is parsed in order: a file value that does not
        # parse fails on its line even when a flag sets the same key
        ("cases = 2\nlearning_rate = fast\n", ["--learning-rate", "1e-3"],
         "{cfg}: line 2: config key 'learning_rate': expected a finite number, "
         "got 'fast'"),
    ], ids=["file_learning_rate", "file_hidden_widths", "flag_learning_rate",
            "flag_unparsable", "file_noise_scale",
            "flag_noise_scale", "file_empty_width", "flag_trailing_comma",
            "flag_leading_comma", "file_seed", "flag_scene_seed",
            "flag_replaces_file_range_error", "file_unparsable_under_flag"])
    def test_range_error_names_its_source(self, tmp_path, monkeypatch, capsys,
                                          body, flags, source):
        monkeypatch.chdir(tmp_path)  # train reads the dataset at ./data
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(body)
        code, _, err = run_cli(["train", "--config", str(cfgfile), *flags],
                               monkeypatch, capsys)
        if source is None:  # a config that loads: train finds no dataset
            assert (code, err.startswith("error: ")) == (2, True), err
            return
        assert code == 1
        assert err == f"usage error: {source.format(cfg=cfgfile)}\n"

    def test_repeated_config_key_is_usage_error(self, tmp_path, monkeypatch,
                                                capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("cases = 1\ncases = 2\n")
        data = tmp_path / "data"
        code, _, err = run_cli(
            ["make-data", "--config", str(cfgfile), "--out", str(data)],
            monkeypatch, capsys)
        assert code == 1
        assert err == (f"usage error: {cfgfile}: line 2: repeated config key "
                       f"'cases' (first on line 1)\n")
        assert not data.exists()

    def test_flag_replaces_out_of_range_file_value(self, tmp_path, monkeypatch,
                                                   capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("cases = -3\nscan_budget = 0\n")
        data = tmp_path / "data"
        code, _, err = run_cli(
            ["make-data", "--config", str(cfgfile), "--cases", "1",
             "--scan-budget", "64", "--density", "25", "--out", str(data)],
            monkeypatch, capsys)
        assert code == 0, err
        assert len(cloud_io.read_manifest(data / "manifest.tsv")) == 1

    def test_config_file_and_flag_precedence(self, tmp_path, monkeypatch, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("cases = 0\nscan_budget = 64\n")
        data = tmp_path / "data"
        code, _, _ = run_cli(
            ["make-data", "--config", str(cfgfile), "--cases", "1",
             "--density", "25", "--out", str(data)],
            monkeypatch, capsys,
        )
        assert code == 0
        assert len(cloud_io.read_manifest(data / "manifest.tsv")) == 1

    @pytest.mark.parametrize("flag", ["--flow-weight", "--data-dir",
                                      "--output-dir"])
    def test_removed_flag_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                         flag):
        # paths are set by --data and --out alone; the velocity term's
        # weight is 1, so only --chamfer-weight sets the loss
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(["train", flag, "1"], monkeypatch, capsys)
        assert code == 1
        assert flag in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", ["data_dir", "output_dir", "flow_weight"])
    def test_removed_config_key_names_its_file_line(self, tmp_path,
                                                    monkeypatch, capsys, key):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"cases = 1\n{key} = 1\n")
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(["make-data", "--config", str(cfgfile)],
                               monkeypatch, capsys)
        assert code == 1
        assert err == (f"usage error: {cfgfile}: line 2: unknown config key "
                       f"{key!r}\n")
        assert list(tmp_path.iterdir()) == [cfgfile]


def test_default_paths(tmp_path, monkeypatch, capsys):
    # with no --data or --out, a run reads and writes under the working
    # directory: data/ for the dataset, out/ for the checkpoint and cloud
    monkeypatch.chdir(tmp_path)
    for argv in (["make-data", *FAST],
                 ["train", *FAST, "--epochs", "1"],
                 ["complete", *FAST, "--checkpoint", "out/model.ckpt",
                  "--scan", "data/scans/case-000.ply"]):
        code, _, err = run_cli(argv, monkeypatch, capsys)
        assert code == 0, err
    assert len(cloud_io.read_manifest(tmp_path / "data" / "manifest.tsv")) == 2
    field.load_checkpoint(tmp_path / "out" / "model.ckpt")
    assert len(cloud_io.read_cloud(tmp_path / "out" / "completed.ply")) > 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "completed.ply", "model.ckpt"]


def test_default_recipe_completes(tmp_path, monkeypatch, capsys):
    # Size flags only, so every recipe value is RunConfig's default. The
    # completion must leave x0, by more than 5 mm per point on average, and
    # end nearer the scene than x0. (About 16 mm; the defaults before the
    # recipe moved it 0.2 mm, since the EMA weights kept near their start.)
    monkeypatch.chdir(tmp_path)
    for argv in (["make-data", "--cases", "2", "--scan-budget", "64"],
                 ["train"],
                 ["complete", "--checkpoint", "out/model.ckpt",
                  "--scan", "data/scans/case-000.ply"]):
        code, _, err = run_cli(argv, monkeypatch, capsys)
        assert code == 0, err
    cfg = RunConfig()
    scan = cloud_io.read_cloud("data/scans/case-000.ply")
    scene = cloud_io.read_cloud("data/scenes/case-000.ply")
    x0 = coupling.noisy_initial_cloud(scan, cfg.initial_distribution(),
                                      seed=cfg.seed)
    completed = cloud_io.read_cloud("out/completed.ply")
    assert np.linalg.norm(completed - x0, axis=1).mean() > 0.005
    assert metrics.eval_chamfer(completed, scene) < metrics.eval_chamfer(x0, scene)


# Each subcommand's own flags, listed after --config and the RunConfig flags.
OWN_FLAGS = {
    "make-data": ["--out"],
    "train": ["--data", "--out"],
    "complete": ["--checkpoint", "--scan", "--out"],
    "eval": ["--pred", "--gt", "--report"],
}


@pytest.mark.parametrize("command", sorted(OWN_FLAGS))
def test_help_lists_config_then_own_flags(command, monkeypatch, capsys):
    code, out, err = run_cli([command, "--help"], monkeypatch, capsys)
    assert code == 0, err
    # option rows start at a two-space indent; wrapped help text is deeper
    listed = re.findall(r"^  (-[-\w]+)", out, flags=re.MULTILINE)
    config_flags = [f"--{f.name.replace('_', '-')}"
                    for f in dataclasses.fields(RunConfig)]
    assert listed == ["-h", "--config", *config_flags, *OWN_FLAGS[command]]


STARTUP_SCRIPT = """
import sys
import warnings
from flowcomplete import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert not scipy_modules(), ("import", scipy_modules())
assert cli.main(["make-data", "--cases", "1", "--scan-budget", "64",
                 "--density", "25", "--out", sys.argv[1]]) == 0
assert not scipy_modules(), ("make-data", scipy_modules())
for argv in (["--help"], ["make-data", "--help"]):
    try:
        cli.main(argv)
    except SystemExit as exc:
        assert exc.code == 0, argv
assert not scipy_modules(), ("help", scipy_modules())
try:
    cli.main(["train", "--warp-speed", "9"])
except cli.UsageError:
    pass
else:
    raise AssertionError("no usage error")
assert not scipy_modules(), ("usage error", scipy_modules())
from flowcomplete.geometry import NeighborIndex
NeighborIndex([[0.0, 0.0, 0.0]])
assert "scipy.spatial" in sys.modules
print("startup ok")
"""


def test_make_data_help_and_errors_never_load_scipy(tmp_path):
    # a fresh interpreter, since this one already holds scipy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, str(tmp_path / "data")],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "startup ok"
    assert len(cloud_io.read_manifest(tmp_path / "data" / "manifest.tsv")) == 1


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    # README's "Library use" block, run where the CLI left its files
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["make-data", *FAST, "--cases", "1", "--out", "data"],
                           monkeypatch, capsys)
    assert code == 0, err
    code, _, err = run_cli(["train", *FAST, "--max-steps", "1", "--data", "data",
                            "--out", "out/model.ckpt"], monkeypatch, capsys)
    assert code == 0, err
    exec(compile(block, "README.md", "exec"), {})
    report = metrics.parse_report(capsys.readouterr().out)
    assert report.cd_m > 0
