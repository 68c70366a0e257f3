"""Evaluation protocol: reported chamfer distance, bird's-eye-view
Jensen-Shannon divergence, and voxel occupancy IoU.

The chamfer metric is the mean-distance reporting variant in meters (the
summed-squared form drives training, not evaluation). JSD uses natural
log, so values live in [0, ln 2]. A report serializes to six fixed
`key = value` lines and parses back losslessly.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cloud_io import parse_number, split_lines
from .geometry import (as_cloud, bev_histogram, nearest_sq_dists, neighbor_index,
                       voxel_keys)

# Voxel IoU is reported on grids anchored at the world origin, from coarse
# to fine.
IOU_RESOLUTIONS = (0.5, 0.2, 0.1)
# The lines of a report, in the order format_report writes them.
REPORT_KEYS = ("cd_m", "jsd", *(f"voxel_iou@{res!r}" for res in IOU_RESOLUTIONS),
               "wall_time_s")


@dataclass(frozen=True)
class EvalReport:
    """One prediction/ground-truth comparison; voxel_iou maps each of
    IOU_RESOLUTIONS to its IoU."""
    cd_m: float
    jsd: float
    voxel_iou: dict
    wall_time_s: float


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


def eval_bev_jsd(pred, gt, resolution: float, extent) -> float:
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


def evaluate(pred, gt, bev_resolution: float, bev_extent) -> EvalReport:
    """All metrics for one (pred, gt) pair, plus the wall time spent.
    The JSD grid is bev_extent (xmin, xmax, ymin, ymax) at bev_resolution."""
    pred = as_cloud(pred)
    gt = as_cloud(gt)
    # The chamfer's neighbor index loads scipy.spatial on first use; load it
    # here so the first pair of a process does not time the import.
    import scipy.spatial  # noqa: F401
    start = time.perf_counter()
    cd = eval_chamfer(pred, gt)
    jsd = eval_bev_jsd(pred, gt, bev_resolution, bev_extent)
    iou = {res: eval_voxel_iou(pred, gt, res) for res in IOU_RESOLUTIONS}
    return EvalReport(cd_m=cd, jsd=jsd, voxel_iou=iou,
                      wall_time_s=time.perf_counter() - start)


def format_report(report: EvalReport) -> str:
    """Six `key = value` lines in REPORT_KEYS order; float repr keeps full
    precision."""
    values = (report.cd_m, report.jsd,
              *(report.voxel_iou[res] for res in IOU_RESOLUTIONS),
              report.wall_time_s)
    return "".join(f"{key} = {value!r}\n" for key, value in zip(REPORT_KEYS, values))


def parse_report(text: str) -> EvalReport:
    """Inverse of format_report; lines end as `cloud_io.split_lines` says.

    The text holds the six REPORT_KEYS lines in that order, spaces free
    around each `=`, and after them only blank lines.

    Raises:
        ValueError: naming the line, on a missing line, a line whose key is
            not the one expected there, a value that is not a finite
            number, or text after `wall_time_s`.
    """
    lines = split_lines(text)
    values = []
    for lineno, key in enumerate(REPORT_KEYS, start=1):
        raw = lines[lineno - 1] if lineno <= len(lines) else ""
        if not raw.strip():
            raise ValueError(f"line {lineno}: missing {key!r}")
        name, eq, value = raw.partition("=")
        if not eq or name.strip() != key:
            raise ValueError(f"line {lineno}: expected '{key} = <number>', "
                             f"got {raw!r}")
        number = parse_number(value)
        if number is None:
            raise ValueError(f"line {lineno}: {key} is not a finite number: {value.strip()!r}")
        values.append(number)
    for lineno, raw in enumerate(lines[len(REPORT_KEYS):], start=len(REPORT_KEYS) + 1):
        if raw.strip():
            raise ValueError(f"line {lineno}: text after wall_time_s: {raw!r}")
    return EvalReport(cd_m=values[0], jsd=values[1],
                      voxel_iou=dict(zip(IOU_RESOLUTIONS, values[2:-1])),
                      wall_time_s=values[-1])


def mean_report(reports) -> EvalReport:
    """Per-metric mean over reports; the wall time is their sum."""
    reports = list(reports)
    return EvalReport(
        cd_m=float(np.mean([rep.cd_m for rep in reports])),
        jsd=float(np.mean([rep.jsd for rep in reports])),
        voxel_iou={res: float(np.mean([rep.voxel_iou[res] for rep in reports]))
                   for res in IOU_RESOLUTIONS},
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
    header = ["case", "cd[m]", "jsd"] + [f"iou@{res:g}m" for res in IOU_RESOLUTIONS]

    def cells(label, rep):
        return [label, f"{rep.cd_m:.6f}", f"{rep.jsd:.6f}",
                *(f"{rep.voxel_iou[res]:.4f}" for res in IOU_RESOLUTIONS)]

    body = [cells(label, rep) for label, rep in rows]
    body.append(cells("mean", mean))
    widths = [max(len(row[i]) for row in [header] + body) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in [header] + body]
    return "\n".join(lines) + "\n"
