"""Command-line entry point: make-data, train, complete, eval.

Every run is a pure function of its configuration: data generation,
training, and completion write byte-identical artifacts when re-run with
the same config. Exit codes: 0 success, 1 usage error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import cloud_io, coupling, field, metrics, sampler, scenes, train
from .config import (Overrides, RunConfig, _parse_value, build_config,
                     read_config_file)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _config_flags() -> argparse.ArgumentParser:
    # Parent parser of every subcommand: argparse copies its actions into
    # each one, so the flags are built and checked once.
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", metavar="FILE", default=None,
                        help="flat key = value config file")
    for f in dataclasses.fields(RunConfig):
        parser.add_argument(f"--{f.name.replace('_', '-')}",
                            dest=f"cfg_{f.name}", metavar="V", default=None,
                            help=f"override {f.name} (default {f.default!r})")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # values that fail to parse or validate are usage errors (exit 1)
    try:
        file_overrides = read_config_file(args.config) if args.config else {}
        flag_overrides = Overrides()
        for key, raw in vars(args).items():
            if key.startswith("cfg_") and raw is not None:
                name = key[len("cfg_"):]
                flag = f"flag --{name.replace('_', '-')}"
                try:
                    flag_overrides[name] = _parse_value(name, raw)
                except ValueError as exc:
                    raise ValueError(f"{flag}: {exc}") from None
                flag_overrides.origin[name] = flag
        return build_config(file_overrides, flag_overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_make_data(cfg: RunConfig, out_dir: str) -> int:
    out = Path(out_dir)
    (out / "scenes").mkdir(parents=True, exist_ok=True)
    (out / "scans").mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(cfg.cases):
        case_seed = cfg.scene_seed + i
        case_id = f"case-{i:03d}"
        case = scenes.build_case(case_id, cfg.scene_spec(case_seed),
                                 cfg.scan_spec(case_seed))
        scene_rel = f"scenes/{case_id}.ply"
        scan_rel = f"scans/{case_id}.ply"
        cloud_io.write_cloud(case.scene, out / scene_rel)
        cloud_io.write_cloud(case.scan, out / scan_rel)
        entries.append(cloud_io.ManifestEntry(case_id, scene_rel, scan_rel,
                                              case_seed))
    cloud_io.write_manifest(entries, out / "manifest.tsv")
    print(f"wrote {len(entries)} cases under {out}")
    return 0


def _load_dataset(data_dir: Path):
    """The (scene, scan) clouds of every case in the dataset's manifest."""
    entries = cloud_io.read_manifest(data_dir / "manifest.tsv")
    if not entries:
        raise RuntimeError(f"no cases listed in {data_dir}/manifest.tsv")

    def load(path):
        # training indexes every scene and scan, which fails on an empty one
        cloud = cloud_io.read_cloud(path)
        if len(cloud) == 0:
            raise ValueError(f"{path}: empty cloud")
        return cloud

    return [(load(data_dir / e.scene_path), load(data_dir / e.scan_path))
            for e in entries]


def cmd_train(cfg: RunConfig, data_dir: str, out_path: str) -> int:
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)

    def log(step, epoch, report):
        print(f"step={step} epoch={epoch} flow={report.flow:.6f} "
              f"chamfer={report.chamfer:.6f} total={report.total:.6f}")

    try:
        # Only fit holds the loaded clouds, so they are freed once it has
        # indexed the scenes.
        state, opt, steps = train.fit(_load_dataset(Path(data_dir)), cfg,
                                      on_step=log)
    except train.Diverged as exc:
        # keep the last finite state so the run is not a total loss
        field.save_checkpoint(out_path, exc.state, exc.opt)
        raise RuntimeError(
            f"{exc}; last good checkpoint written to {out_path}") from exc
    field.save_checkpoint(out_path, state, opt)
    print(f"trained {steps} steps; checkpoint written to {out_path}")
    return 0


def cmd_complete(cfg: RunConfig, checkpoint_path: str, scan_path: str,
                 out_path: str) -> int:
    state, _ = field.load_checkpoint(checkpoint_path)
    scan = cloud_io.read_cloud(scan_path)
    try:
        x0 = coupling.noisy_initial_cloud(scan, cfg.copies,
                                          cfg.noise_config(seed=cfg.seed))
    except ValueError as exc:
        raise ValueError(f"{scan_path}: {exc}") from exc
    traj = sampler.euler_integrate(state, x0, scan, cfg.sampler_config())
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    if cfg.record_trajectory:
        # two decimals up to 100 steps, more above, so that every time
        # k / steps gets its own file
        digits = max(2, len(str(cfg.steps - 1)))
        for t, cloud in zip(traj.times, traj.states):
            step_path = out.with_name(f"{out.stem}-t{t:.{digits}f}{out.suffix}")
            cloud_io.write_cloud(cloud, step_path)
    cloud_io.write_cloud(traj.final, out)
    print(f"wrote {len(traj.final)} points to {out}")
    return 0


def cmd_eval(cfg: RunConfig, pred_paths, gt_paths, report_path=None) -> int:
    if len(pred_paths) != len(gt_paths):
        raise UsageError(
            f"mismatched pair counts: {len(pred_paths)} predictions "
            f"vs {len(gt_paths)} ground truths"
        )
    metric_cfg = cfg.metric_config()
    rows = []
    for pred_path, gt_path in zip(pred_paths, gt_paths):
        pred = cloud_io.read_cloud(pred_path)
        gt = cloud_io.read_cloud(gt_path)
        try:
            report = metrics.evaluate(pred, gt, metric_cfg)
        except ValueError as exc:
            raise ValueError(f"pred {pred_path} vs gt {gt_path}: {exc}") from exc
        rows.append((Path(pred_path).stem, report))
    sys.stdout.write(metrics.format_table(rows))
    if report_path:
        mean = metrics.mean_report([report for _, report in rows])
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        Path(report_path).write_text(metrics.format_report(mean))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowcomplete",
                     description="Flow-based completion of partial 3-D scans")
    sub = parser.add_subparsers(dest="command", required=True)
    config = [_config_flags()]

    p = sub.add_parser("make-data", help="generate synthetic scene/scan pairs",
                       parents=config)
    p.add_argument("--out", metavar="DIR", default=None,
                   help="dataset directory (default: the data_dir config key)")

    p = sub.add_parser("train", help="train a field checkpoint on a dataset",
                       parents=config)
    p.add_argument("--data", metavar="DIR", default=None,
                   help="dataset directory (default: the data_dir config key)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="checkpoint path (default: <output_dir>/model.ckpt)")

    p = sub.add_parser("complete", help="complete one scan with a checkpoint",
                       parents=config)
    p.add_argument("--checkpoint", metavar="FILE", required=True)
    p.add_argument("--scan", metavar="FILE", required=True)
    p.add_argument("--out", metavar="FILE", default=None,
                   help="output cloud (default: <output_dir>/completed.ply)")

    p = sub.add_parser("eval", help="evaluate completions against ground truth",
                       parents=config)
    p.add_argument("--pred", metavar="FILE", nargs="+", required=True)
    p.add_argument("--gt", metavar="FILE", nargs="+", required=True)
    p.add_argument("--report", metavar="FILE", default=None,
                   help="also write the aggregate report here")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from_args(args)
    if args.command == "make-data":
        return cmd_make_data(cfg, args.out or cfg.data_dir)
    if args.command == "train":
        out = args.out or str(Path(cfg.output_dir) / "model.ckpt")
        return cmd_train(cfg, args.data or cfg.data_dir, out)
    if args.command == "complete":
        out = args.out or str(Path(cfg.output_dir) / "completed.ply")
        return cmd_complete(cfg, args.checkpoint, args.scan, out)
    if args.command == "eval":
        return cmd_eval(cfg, args.pred, args.gt, args.report)
    raise UsageError(f"unknown command {args.command!r}")


def main_entry() -> None:
    try:
        code = main(sys.argv[1:])
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        code = 1
    except BrokenPipeError:
        code = 0
    except Exception as exc:  # runtime failures: one line, exit 2
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    raise SystemExit(code)


if __name__ == "__main__":
    main_entry()
