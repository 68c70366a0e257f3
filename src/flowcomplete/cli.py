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
from .config import RunConfig, build_config, read_config_file


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


def _config_from_args(args: argparse.Namespace):
    # the file's lines, then the flags that were set; values that fail to
    # parse or validate are usage errors (exit 1). Also returns where each
    # key that was set got the value that stands.
    try:
        entries = read_config_file(args.config) if args.config else []
        for key, raw in vars(args).items():
            if key.startswith("cfg_") and raw is not None:
                name = key[len("cfg_"):]
                entries.append((name, raw, f"flag --{name.replace('_', '-')}"))
        cfg = build_config(entries)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return cfg, {key: where for key, _, where in entries}


def cmd_make_data(cfg: RunConfig, out_dir: str) -> int:
    out = Path(out_dir)
    (out / "scenes").mkdir(parents=True, exist_ok=True)
    (out / "scans").mkdir(parents=True, exist_ok=True)
    # the manifest is written last, so a run that fails midway leaves none
    # rather than an earlier run's, which would list this run's files
    (out / "manifest.tsv").unlink(missing_ok=True)
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


def _load_dataset(data_dir: Path, entries):
    """The (scene, scan) clouds of the dataset's manifest entries."""

    def load(path):
        # training indexes every scene and scan, which fails on an empty one
        cloud = cloud_io.read_cloud(path)
        if len(cloud) == 0:
            raise ValueError(f"{path}: empty cloud")
        return cloud

    return [(load(data_dir / e.scene_path), load(data_dir / e.scan_path))
            for e in entries]


def cmd_train(cfg: RunConfig, data_dir: str, out_path: str) -> int:
    # a dataset without cases fails before the checkpoint's directory exists
    data = Path(data_dir)
    entries = cloud_io.read_manifest(data / "manifest.tsv")
    if not entries:
        raise RuntimeError(f"no cases listed in {data}/manifest.tsv")
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)

    def log(step, epoch, report):
        print(f"step={step} epoch={epoch} flow={report.flow:.6f} "
              f"chamfer={report.chamfer:.6f} total={report.total:.6f}")

    # the initial distribution the field learns from, which `complete` draws
    init = cfg.initial_distribution()
    try:
        # Only fit holds the loaded clouds, so they are freed once it has
        # indexed the scenes.
        state, _ = train.fit(_load_dataset(data, entries), cfg, on_step=log)
    except train.Diverged as exc:
        # keep the last finite state so the run is not a total loss
        field.save_checkpoint(out_path, exc.state, init)
        raise RuntimeError(
            f"{exc}; last good checkpoint written to {out_path}") from exc
    field.save_checkpoint(out_path, state, init)
    print(f"trained {state.step_count} steps; checkpoint written to {out_path}")
    return 0


def cmd_complete(cfg: RunConfig, checkpoint_path: str, scan_path: str,
                 out_path: str, given) -> int:
    cloud_io._is_text(out_path)  # an unknown output format fails before any work
    # `given` maps each key that a file line or flag set to where; such a value
    # must be the checkpoint's, bar the seed, which draws complete's own x0
    state, init = field.load_checkpoint(checkpoint_path)
    trained = dataclasses.asdict(state.config) | dataclasses.asdict(init)
    for key, where in given.items():
        value = getattr(cfg, key)
        if key != "seed" and key in trained and value != trained[key]:
            raise UsageError(
                f"{where}: config key {key!r}: {value!r} differs from "
                f"{trained[key]!r}, the value {checkpoint_path} was trained with")
    scan = cloud_io.read_cloud(scan_path)
    try:
        x0 = coupling.noisy_initial_cloud(scan, init, seed=cfg.seed)
    except ValueError as exc:
        raise ValueError(f"{scan_path}: {exc}") from exc
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    on_step = None
    if cfg.record_trajectory:
        # two decimals up to 100 steps, more above, so that every time
        # k / steps gets its own file
        digits = max(2, len(str(cfg.steps - 1)))

        def on_step(t, cloud):
            step_path = out.with_name(f"{out.stem}-t{t:.{digits}f}{out.suffix}")
            cloud_io.write_cloud(cloud, step_path)
    completed = sampler.euler_integrate(state, x0, scan, cfg.sampler_config(),
                                        on_step=on_step)
    cloud_io.write_cloud(completed, out)
    print(f"wrote {len(completed)} points to {out}")
    return 0


def cmd_eval(cfg: RunConfig, pred_paths, gt_paths, report_path=None) -> int:
    if len(pred_paths) != len(gt_paths):
        raise UsageError(
            f"mismatched pair counts: {len(pred_paths)} predictions "
            f"vs {len(gt_paths)} ground truths"
        )
    rows = []
    for pred_path, gt_path in zip(pred_paths, gt_paths):
        pred = cloud_io.read_cloud(pred_path)
        gt = cloud_io.read_cloud(gt_path)
        try:
            report = metrics.evaluate(pred, gt, cfg.bev_resolution,
                                      cfg.bev_extent)
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
    p.add_argument("--out", metavar="DIR", default="data",
                   help="dataset directory (default: %(default)s)")

    p = sub.add_parser("train", help="train a field checkpoint on a dataset",
                       parents=config)
    p.add_argument("--data", metavar="DIR", default="data",
                   help="dataset directory (default: %(default)s)")
    p.add_argument("--out", metavar="FILE", default="out/model.ckpt",
                   help="checkpoint path (default: %(default)s)")

    p = sub.add_parser("complete", help="complete one scan with a checkpoint",
                       parents=config)
    p.add_argument("--checkpoint", metavar="FILE", required=True)
    p.add_argument("--scan", metavar="FILE", required=True)
    p.add_argument("--out", metavar="FILE", default="out/completed.ply",
                   help="output cloud (default: %(default)s)")

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
    cfg, given = _config_from_args(args)
    if args.command == "make-data":
        return cmd_make_data(cfg, args.out)
    if args.command == "train":
        return cmd_train(cfg, args.data, args.out)
    if args.command == "complete":
        return cmd_complete(cfg, args.checkpoint, args.scan, args.out, given)
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
