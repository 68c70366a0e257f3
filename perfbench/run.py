#!/usr/bin/env python3
"""flowcomplete benchmark: one closed-loop client driving the CLI pipeline.

    python3 perfbench/run.py --workload office --seed 1 --seconds 42 --trace 0

Run from the root of a checkout. One pipeline iteration is make-data
(training cases, then twice the held-out cases from a disjoint scene
seed), train, one `complete` per held-out scan and repeated `eval`s over
all of them, each called in process through `flowcomplete.cli.main(argv)`,
followed by the output checks. Every reported time is scaled to a fixed
machine speed by reference samples taken around the calls (speed.py).
Iterations are kept short and repeat until the next one
would end after --seconds, so every stage is timed many times across the
whole run. Iterations 0 and 1 train on the same seeded block of scenes,
block 0, and the second must reproduce the first's output digests; every
later iteration i trains on a new block, i - 1.

--trace 0 reports the end-to-end metrics; --trace 1 wraps the package's
public functions (see spans.py) and reports per-layer metrics instead.
The last stdout line is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}). Exits 2 without a result when the
package source is missing.
"""
from __future__ import annotations

import os

# OpenBLAS sizes its thread pool when numpy loads. Pinned to one thread, the
# timings follow this process and not the neighbours' load on the other
# core, as in the one-core setting the package is built for.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.spatial import cKDTree  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import workloads as wl  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

HELDOUT_COPIES = 2
SETUP_REPEATS = 5
SETUP_BEFORE = 2
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from flowcomplete import cli; "
               "cli.build_parser().parse_args(sys.argv[2:])")
CD_RTOL = 1e-9


class StdoutClock(io.TextIOBase):
    """Stdout stand-in that clocks the trainer's `step=` lines.

    With `sample` set, each step line is followed by a reference sample, so
    that every step interval is scaled by the samples at its two ends. The
    samples' own time is kept out of the intervals and is returned in
    `reference_s`.
    """

    def __init__(self, refs: list, sample: bool):
        self.refs = refs          # reference samples; the last one is current
        self.sample = sample
        self.lines = 0
        self.steps = []           # scaled seconds between consecutive step lines
        self.reference_s = 0.0
        self._last = None

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        if text.startswith("step="):
            now = time.perf_counter()
            self.lines += 1
            ref = speed.reference_s() if self.sample else self.refs[-1]
            if self._last is not None:
                self.steps.append((now - self._last) * speed.scale([self.refs[-1], ref]))
            if self.sample:
                self.refs.append(ref)
            self._last = time.perf_counter()
            self.reference_s += self._last - now
        return len(text)


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(str(path.name).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def tree_files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*") if p.is_file())


def chamfer_mean(pred: np.ndarray, gt: np.ndarray) -> float:
    """Symmetric mean NN distance, computed apart from the package."""
    d_pg, _ = cKDTree(gt).query(pred)
    d_gp, _ = cKDTree(pred).query(gt)
    return 0.5 * (float(d_pg.mean()) + float(d_gp.mean()))


def blas_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, **blas_record(),
            "nproc": NPROC, "pinned_cpu": min(os.sched_getaffinity(0))}


def measure_setup(argv_tail: list[str], repeats: int) -> list[float]:
    """Scaled wall times of fresh interpreters from start to a parsed CLI."""
    walls, times = [], []
    for _ in range(repeats):
        before = speed.reference_s()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), *argv_tail],
                       cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
        times.append(walls[-1] * speed.scale([before, speed.reference_s()]))
    print("setup probes (s, wall) " + " ".join(f"{t:.4f}" for t in walls))
    return times


class Client:
    """The single closed-loop client: runs iterations, counts operations."""

    def __init__(self, workload: wl.Workload, seed: int, work: Path, tracer):
        from flowcomplete import cli, cloud_io, field, metrics
        self.cli, self.cloud_io, self.field, self.metrics = cli, cloud_io, field, metrics
        self.w = workload
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.wall_s = 0.0        # unscaled time of the current iteration's calls
        # Scaled times (see speed.py).
        self.make_data_s = []    # (seconds, cases) per held-out make-data call
        self.step_s = []
        self.train_s = []        # (seconds, samples) per train call
        self.complete_s = []
        self.eval_s = []         # (seconds, pairs) per eval call
        self.pipeline_s = []
        self.block_digests = {}
        self.cd_m = self.iou = None

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def stage(self, name: str, argv: list[str]):
        """One CLI call between two reference samples.

        Returns (ok, scaled seconds, captured stdout): the call's wall time
        scaled by the reference samples taken before, during and after it.
        """
        refs = [speed.reference_s()]
        out = StdoutClock(refs, sample=self.tracer is None)
        span = self.tracer.open(f"cli.{name}") if self.tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main([name, *argv])
        except Exception as exc:  # the stage failed; count it and go on
            code = f"{type(exc).__name__}: {exc}"
        finally:
            took = time.perf_counter() - start - out.reference_s
            if span is not None:
                self.tracer.close(span)
            refs.append(speed.reference_s())
        self.wall_s += took
        return self.check(code == 0, f"{name}: {code}"), took * speed.scale(refs), out

    def iteration(self, index: int) -> bool:
        w, seed = self.w, self.seed
        block = max(index - 1, 0)
        d = self.work / f"iter-{index}"
        train_dir = d / "train"
        ckpt = d / "model.ckpt"
        self.wall_s = 0.0
        pipeline = []
        # The held-out block is made HELDOUT_COPIES times, and only those
        # calls count in the make-data metric: their scenes are the same in
        # every iteration and run, so their time does not vary with the
        # scenes a seed draws, and the copies must match byte for byte.
        heldout_copies = [d / f"heldout-{c}" for c in range(HELDOUT_COPIES)]
        heldout_dir = heldout_copies[0]
        make_data = []
        for out, cases, scene_seed in ((train_dir, w.train_cases,
                                        w.train_scene_seed(seed, block)),
                                       *((copy, w.heldout_cases, wl.HELDOUT_SCENE_SEED)
                                         for copy in heldout_copies)):
            ok, took, _ = self.stage("make-data", [
                "--out", str(out), "--cases", str(cases),
                "--scene-seed", str(scene_seed), *w.data_flags()])
            if not ok:
                return False
            pipeline.append(took)
            if out in heldout_copies:
                make_data.append((took, cases))

        steps_per_epoch = math.ceil(w.train_cases / wl.BATCH_SIZE)
        ok, took, out = self.stage("train", [
            "--data", str(train_dir), "--out", str(ckpt),
            "--max-steps", str(w.train_steps),
            "--epochs", str(math.ceil(w.train_steps / steps_per_epoch)),
            "--batch-size", str(wl.BATCH_SIZE), "--copies", str(w.copies),
            "--noise-scale", repr(wl.NOISE_SCALE),
            "--chamfer-weight", repr(wl.CHAMFER_WEIGHT),
            "--hidden-widths", ",".join(map(str, w.hidden_widths)),
            "--learning-rate", repr(wl.LEARNING_RATE),
            "--ema-decay", repr(wl.EMA_DECAY), "--seed", str(seed)])
        if not ok or not self.check(out.lines == w.train_steps,
                                    f"train wrote {out.lines} step lines"):
            return False
        pipeline.append(took)
        train, steps = took, out.steps

        heldout = self.cloud_io.read_manifest(heldout_dir / "manifest.tsv")
        preds = [d / "completed" / f"{e.case_id}.ply" for e in heldout]
        completes, evals = [], []
        for i, (entry, pred) in enumerate(zip(heldout, preds)):
            ok, took, _ = self.stage("complete", [
                "--checkpoint", str(ckpt), "--scan", str(heldout_dir / entry.scan_path),
                "--out", str(pred), "--copies", str(w.copies),
                "--noise-scale", repr(wl.NOISE_SCALE), "--steps", str(wl.EULER_STEPS),
                "--guidance", repr(wl.GUIDANCE), "--seed", str(i)])
            if not ok:
                return False
            completes.append(took)
            pipeline.append(took)

        gts = [heldout_dir / e.scene_path for e in heldout]
        reports = [d / f"report-{r}.txt" for r in range(w.eval_repeats)]
        for report in reports:
            ok, took, _ = self.stage("eval", ["--pred", *map(str, preds),
                                              "--gt", *map(str, gts),
                                              "--report", str(report)])
            if not ok:
                return False
            evals.append(took)
            pipeline.append(took)

        self.make_data_s.extend(make_data)
        self.train_s.append((train, w.train_steps * wl.BATCH_SIZE))
        self.step_s.extend(steps)
        self.complete_s.extend(completes)
        self.eval_s.extend((t, len(preds)) for t in evals)
        self.pipeline_s.append(sum(pipeline))
        print(f"iteration {index}: stage calls {sum(pipeline):.4f} s scaled, "
              f"{self.wall_s:.4f} s wall")

        if self.tracer:
            self.tracer.enabled = False
        try:
            return self.check_outputs(d, block, heldout, preds, gts, ckpt, reports)
        finally:
            if self.tracer:
                self.tracer.enabled = True

    def check_outputs(self, d, block, heldout, preds, gts, ckpt, reports) -> bool:
        ok = True
        cds = []
        for entry, pred_path, gt_path in zip(heldout, preds, gts):
            scan = self.cloud_io.read_cloud(d / "heldout-0" / entry.scan_path)
            pred = self.cloud_io.read_cloud(pred_path)
            ok &= self.check(pred.shape == (self.w.copies * len(scan), 3)
                             and bool(np.all(np.isfinite(pred))),
                             f"{pred_path.name}: {pred.shape[0]} points, want "
                             f"{self.w.copies} x {len(scan)} finite")
            cds.append(chamfer_mean(pred, self.cloud_io.read_cloud(gt_path)))

        state, opt = self.field.load_checkpoint(ckpt)
        resaved = d / "resaved.ckpt"
        self.field.save_checkpoint(resaved, state, opt)
        ok &= self.check(resaved.read_bytes() == ckpt.read_bytes(),
                         "checkpoint does not re-save to identical bytes")

        cd_m = float(np.mean(cds))
        try:
            parsed = [self.metrics.parse_report(r.read_text()) for r in reports]
            iou = parsed[0].voxel_iou[0.5]
        except (ValueError, KeyError) as exc:
            ok &= self.check(False, f"report does not parse: {exc!r}")
        else:
            ok &= self.check(math.isclose(parsed[0].cd_m, cd_m, rel_tol=CD_RTOL),
                             f"report cd_m {parsed[0].cd_m!r} != computed {cd_m!r}")
            # Repeated evals of the same files must score them identically;
            # only the recorded wall time may differ.
            scores = [dataclasses.replace(p, wall_time_s=0.0) for p in parsed]
            ok &= self.check(all(s == scores[0] for s in scores),
                             f"repeated evals disagree: {scores}")
            if block == 0:
                self.cd_m, self.iou = cd_m, iou

        copies = [digest(tree_files(d / f"heldout-{c}")) for c in range(HELDOUT_COPIES)]
        ok &= self.check(len(set(copies)) == 1,
                         f"held-out copies differ: {copies}")
        digests = {
            "dataset": digest(tree_files(d / "train") + tree_files(d / "heldout-0")),
            "checkpoint": digest([ckpt]),
            "completions": digest(preds),
        }
        first = self.block_digests.setdefault(block, digests)
        if first is not digests:
            ok &= self.check(digests == first,
                             f"block {block} outputs differ from its first run: {digests}")
        shutil.rmtree(d)
        return ok

    def end_to_end(self, setup_s: float) -> dict:
        pct, tail, n = stats.tail_percentile(self.step_s)
        md_s = sum(s for s, _ in self.make_data_s)
        md_cases = sum(c for _, c in self.make_data_s)
        return {
            "setup_s": (setup_s, "s"),
            "make_data_ms_per_case": (1e3 * md_s / md_cases, "ms"),
            "train_samples_per_s": (sum(n for _, n in self.train_s)
                                    / sum(s for s, _ in self.train_s), "1/s"),
            "train_step_ms_p50": (1e3 * stats.median(self.step_s), "ms"),
            "train_step_ms_tail": (1e3 * tail, "ms"),
            "complete_ms_p50": (1e3 * stats.median(self.complete_s), "ms"),
            "eval_ms_per_pair": (1e3 * sum(s for s, _ in self.eval_s)
                                 / sum(p for _, p in self.eval_s), "ms"),
            "pipeline_s": (stats.median(self.pipeline_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "cd_m": (self.cd_m, "m"),
            "voxel_iou_0.5": (self.iou, "ratio"),
        }, (pct, n)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes for the self-tests; not a measurement")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flowcomplete" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The whole run, set-up probes included, stays on one core, so the
    # reference kernel clocks the core that the timed work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    workload = wl.WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {workload}")

    # --seconds covers the whole run: set-up probes, warm-up and iterations.
    # Set-up is timed before and after the iterations: the machine's speed
    # drifts over tens of seconds, and one burst of probes sees one state.
    deadline = time.perf_counter() + args.seconds
    setup_argv = ["make-data", *workload.data_flags()]
    start = time.perf_counter()
    setup = measure_setup(setup_argv, SETUP_BEFORE)
    deadline -= (SETUP_REPEATS - SETUP_BEFORE) * (time.perf_counter() - start) / SETUP_BEFORE
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    tracer = None
    try:
        # One untimed iteration of tiny shapes loads the modules and their
        # lazy state, so the first timed call does not pay for it.
        warm = Client(workload.smoke(), args.seed, work / "warm-up", None)
        warm.iteration(0)
        if args.trace:
            tracer = spans.Tracer(args.seed)
            tracer.install()
        client = Client(workload, args.seed, work, tracer)
        client.attempted, client.failed = warm.attempted, warm.failed
        client.errors = [f"warm-up {e}" for e in warm.errors]
        while not client.failed:
            start = time.perf_counter()
            if not client.iteration(len(client.pipeline_s)):
                break
            # Past the deadline, iterations go on only until the tail
            # percentile has its samples, so that every run reports it.
            if (time.perf_counter() + (time.perf_counter() - start) > deadline
                    and len(client.step_s) > stats.TAIL_BEYOND):
                break
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    setup += measure_setup(setup_argv, SETUP_REPEATS - len(setup))
    iterations = len(client.pipeline_s)
    if tracer:
        client.check(tracer.oracle_mismatches == 0,
                     f"{tracer.oracle_mismatches} of {tracer.oracle_checked} "
                     "oracle rows disagree with the NN map")
    for error in client.errors:
        print(f"error: {error}", file=sys.stderr)
    print(f"iterations {iterations}; setup runs (s, scaled) "
          + " ".join(f"{s:.4f}" for s in setup))
    print(f"blocks {len(client.block_digests)}; digests of block 0:")
    for name, value in client.block_digests.get(0, {}).items():
        print(f"digest {name} sha256:{value}")

    metrics = {}
    if client.cd_m is not None and len(client.step_s) > stats.TAIL_BEYOND:
        e2e, (pct, n) = client.end_to_end(stats.median(setup))
        print(f"train_step_ms_tail is p{pct:.1f} of {n} step intervals")
        print(f"error_rate = {client.failed / max(client.attempted, 1)!r} "
              f"({client.failed} failed of {client.attempted} operations)")
        metrics = e2e
        if tracer:
            metrics = spans.layer_metrics(tracer, iterations)
            WORK.mkdir(parents=True, exist_ok=True)
            trace_file = WORK / f"trace-{args.workload}-s{args.seed}.json"
            trace_file.write_text(json.dumps(
                {"env": env, "iterations": iterations,
                 "spans": spans.span_records(tracer)}))
            print(f"spans written to {trace_file.relative_to(ROOT)}")
            for name, (value, unit) in e2e.items():
                print(f"traced {name} = {value!r} {unit}")
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value!r} {unit}")

    print(json.dumps({
        "correct": client.failed == 0 and bool(metrics),
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
