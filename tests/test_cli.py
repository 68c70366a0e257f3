import dataclasses
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from flowcomplete import cli, cloud_io, coupling, field, sampler
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
        state, opt = field.load_checkpoint(ckpt)
        want = field.init_model(state.config)
        assert state.step_count == 0
        assert np.array_equal(state.weights, want.weights)
        assert np.all(opt.m == 0.0)

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
            ["train", *FAST, "--epochs", "3", "--learning-rate", "1e200",
             "--data", str(dataset), "--out", str(ckpt)],
            monkeypatch, capsys,
        )
        assert code == 2
        assert "training aborted at step 2" in err
        # the one error line, with no numpy overflow warnings before it
        assert len(err.splitlines()) == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert len([l for l in out.splitlines() if l.startswith("step=")]) == 1
        state, opt = field.load_checkpoint(ckpt)
        assert state.step_count == 1
        for array in (state.weights, state.ema_weights, opt.m, opt.v):
            assert np.all(np.isfinite(array))

    def test_missing_dataset_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        code, _, err = run_cli(
            ["train", "--data", str(tmp_path / "nope"),
             "--out", str(tmp_path / "m.ckpt")],
            monkeypatch, capsys,
        )
        assert code == 2
        assert "nope" in err

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
        cfg = field.FieldConfig(hidden_widths=(16, 16))
        state = field.init_model(cfg)
        path = tmp_path / "zero.ckpt"
        field.save_checkpoint(path, state, field.init_optimizer(state))
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
            scan, 2, coupling.NoiseConfig(scale=0.25, seed=11)
        )
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
    ], ids=["learning_rate", "bev_resolution", "density", "cases",
            "extent_2", "extent_1", "extent_negative", "density_negative",
            "density_zero"])
    def test_unparsable_value_is_usage_error(self, tmp_path, monkeypatch,
                                             capsys, argv, key):
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
         "flag --learning-rate: learning rate must be positive"),
        ("cases = 2\n", ["--learning-rate", "nan"],
         "flag --learning-rate: config key 'learning_rate': expected a finite "
         "number, got 'nan'"),
        # neither weight is out of range alone; the one applied last is named
        ("flow_weight = 0\n", ["--chamfer-weight", "0"],
         "flag --chamfer-weight: at least one loss weight must be positive"),
        # at 0 the copies of each scan point never separate
        ("cases = 2\nnoise_scale = 0\n", [],
         "{cfg}: line 2: config key 'noise_scale': noise_scale must be > 0"),
        ("noise_scale = 0.25\n", ["--noise-scale", "0"],
         "flag --noise-scale: noise_scale must be > 0"),
    ], ids=["file_learning_rate", "file_hidden_widths", "flag_learning_rate",
            "flag_unparsable", "flag_completes_bad_pair", "file_noise_scale",
            "flag_noise_scale"])
    def test_range_error_names_its_source(self, tmp_path, monkeypatch, capsys,
                                          body, flags, source):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(body)
        code, _, err = run_cli(["train", "--config", str(cfgfile), *flags],
                               monkeypatch, capsys)
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
