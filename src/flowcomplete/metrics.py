"""Evaluation protocol: reported chamfer distance, bird's-eye-view
Jensen-Shannon divergence, and voxel occupancy IoU.

The chamfer metric is the mean-distance reporting variant in meters (the
summed-squared form drives training, not evaluation). JSD uses natural
log, so values live in [0, ln 2]. Reports serialize to flat key-value
text and parse back losslessly.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cloud_io import split_lines
from .geometry import (as_cloud, bev_histogram, nearest_sq_dists, neighbor_index,
                       voxel_keys)

DEFAULT_BEV_RESOLUTION = 0.5
DEFAULT_BEV_EXTENT = (-50.0, 50.0, -50.0, 50.0)
# Voxel IoU is reported on grids anchored at the world origin.
IOU_RESOLUTIONS = (0.5, 0.2, 0.1)


@dataclass(frozen=True)
class MetricConfig:
    bev_resolution: float = DEFAULT_BEV_RESOLUTION
    bev_extent: tuple = DEFAULT_BEV_EXTENT


@dataclass(frozen=True)
class EvalReport:
    """One prediction/ground-truth comparison."""
    cd_m: float
    jsd: float
    voxel_iou: dict = field(default_factory=dict)
    wall_time_s: float = 0.0


def eval_chamfer(pred, gt) -> float:
    """Symmetric mean nearest-neighbor distance in meters.

    Mean (non-squared) nearest-neighbor distance per direction, averaged
    over both directions. Equals a uniform offset d for two well-separated
    copies of the same cloud shifted by d. Each cloud gets one single-use
    index from :func:`~.geometry.neighbor_index`, which serves as the
    target of one direction and, queried in its tree's leaf order, as the
    source of the other.
    """
    pa = as_cloud(pred)
    pb = as_cloud(gt)
    if len(pa) == 0 or len(pb) == 0:
        raise ValueError("empty cloud in chamfer")
    pred_index, gt_index = neighbor_index(pa), neighbor_index(pb)
    d_ab = nearest_sq_dists(pred_index, gt_index)
    d_ba = nearest_sq_dists(gt_index, pred_index)
    return float(0.5 * (np.sqrt(d_ab).mean() + np.sqrt(d_ba).mean()))


def eval_bev_jsd(pred, gt, resolution: float = DEFAULT_BEV_RESOLUTION,
                 extent=DEFAULT_BEV_EXTENT) -> float:
    """Jensen-Shannon divergence of the two BEV occupancy histograms.

    Natural log; empty bins contribute nothing (0 * log 0 := 0). Raises if
    either cloud has no point inside the extent, since its histogram has
    no mass to normalize.
    """
    hp = bev_histogram(pred, resolution, extent)
    hq = bev_histogram(gt, resolution, extent)
    for name, hist in (("pred", hp), ("gt", hq)):
        if hist.counts.sum() == 0:
            raise ValueError(f"no {name} points inside evaluation extent")
    p = hp.counts.ravel() / hp.counts.sum()
    q = hq.counts.ravel() / hq.counts.sum()
    m = 0.5 * (p + q)
    pm = p > 0
    qm = q > 0
    kl_p = float(np.sum(p[pm] * np.log(p[pm] / m[pm])))
    kl_q = float(np.sum(q[qm] * np.log(q[qm] / m[qm])))
    return 0.5 * (kl_p + kl_q)


def eval_voxel_iou(pred, gt, resolution: float,
                   origin=(0.0, 0.0, 0.0)) -> float:
    """Intersection over union of the occupied voxel sets."""
    pred_keys, gt_keys = voxel_keys((pred, gt), resolution, origin)
    if len(gt_keys) == 0:
        raise ValueError("empty cloud in voxel IoU")
    inter = len(np.intersect1d(pred_keys, gt_keys, assume_unique=True))
    return inter / (len(pred_keys) + len(gt_keys) - inter)


def evaluate(pred, gt, config: MetricConfig = MetricConfig()) -> EvalReport:
    """All metrics for one (pred, gt) pair, plus the wall time spent."""
    pred = as_cloud(pred)
    gt = as_cloud(gt)
    # The chamfer's neighbor index loads scipy.spatial on first use; load it
    # here so the first pair of a process does not time the import.
    import scipy.spatial  # noqa: F401
    start = time.perf_counter()
    cd = eval_chamfer(pred, gt)
    jsd = eval_bev_jsd(pred, gt, config.bev_resolution, config.bev_extent)
    iou = {res: eval_voxel_iou(pred, gt, res) for res in IOU_RESOLUTIONS}
    return EvalReport(cd_m=cd, jsd=jsd, voxel_iou=iou,
                      wall_time_s=time.perf_counter() - start)


def format_report(report: EvalReport) -> str:
    """Flat `key = value` text; float repr keeps full precision."""
    lines = [
        f"cd_m = {report.cd_m!r}",
        f"jsd = {report.jsd!r}",
    ]
    for res in sorted(report.voxel_iou, reverse=True):
        lines.append(f"voxel_iou@{res!r} = {report.voxel_iou[res]!r}")
    lines.append(f"wall_time_s = {report.wall_time_s!r}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> EvalReport:
    """Inverse of format_report; lines end as `cloud_io.split_lines` says.

    Raises:
        ValueError: naming the line, on a line that is not `key = value`,
            a value that is not a finite number, a repeated key, or a
            `voxel_iou@` resolution that is not a finite positive number;
            also on a report without cd_m or jsd.
    """
    values = {}
    iou = {}
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        number = _report_float(value, lineno, "bad number")
        if not math.isfinite(number):
            raise ValueError(f"line {lineno}: {key} is not finite: {value!r}")
        table, name = values, key
        if key.startswith("voxel_iou@"):
            res = key[len("voxel_iou@"):]
            table, name = iou, _report_float(res, lineno, "bad voxel_iou resolution")
            if not 0.0 < name < math.inf:
                raise ValueError(f"line {lineno}: voxel_iou resolution must be "
                                 f"finite and positive, got {res!r}")
        if name in table:
            raise ValueError(f"line {lineno}: repeated key {key!r}")
        table[name] = number
    missing = {"cd_m", "jsd"} - values.keys()
    if missing:
        raise ValueError(f"report missing keys: {sorted(missing)}")
    return EvalReport(
        cd_m=values["cd_m"],
        jsd=values["jsd"],
        voxel_iou=iou,
        wall_time_s=values.get("wall_time_s", 0.0),
    )


def _report_float(text: str, lineno: int, what: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {what} {text!r}") from exc


def mean_report(reports) -> EvalReport:
    """Per-metric mean over reports; the wall time is their sum.

    Each IoU resolution is averaged over the reports that have it.
    """
    reports = list(reports)
    resolutions = {res for rep in reports for res in rep.voxel_iou}
    return EvalReport(
        cd_m=float(np.mean([rep.cd_m for rep in reports])),
        jsd=float(np.mean([rep.jsd for rep in reports])),
        voxel_iou={
            res: float(np.mean([rep.voxel_iou[res] for rep in reports
                                if res in rep.voxel_iou]))
            for res in resolutions
        },
        wall_time_s=float(np.sum([rep.wall_time_s for rep in reports])),
    )


def format_table(rows) -> str:
    """Aligned summary of labeled reports plus their column means.

    rows: iterable of (label, EvalReport). Column order mirrors the usual
    reporting layout: CD, JSD, then IoU from coarse to fine.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no reports to tabulate")
    mean = mean_report(rep for _, rep in rows)
    resolutions = sorted(mean.voxel_iou, reverse=True)
    header = ["case", "cd[m]", "jsd"] + [f"iou@{res:g}m" for res in resolutions]

    def cells(label, rep):
        out = [label, f"{rep.cd_m:.6f}", f"{rep.jsd:.6f}"]
        out += [
            f"{rep.voxel_iou[res]:.4f}" if res in rep.voxel_iou else "-"
            for res in resolutions
        ]
        return out

    body = [cells(label, rep) for label, rep in rows]
    body.append(cells("mean", mean))
    widths = [max(len(row[i]) for row in [header] + body) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in [header] + body]
    return "\n".join(lines) + "\n"
