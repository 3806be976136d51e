"""Trajectory evaluation: rigid ground-plane alignment, RMS translation
error, per-waypoint statistics grouped by camera count, and translation
error over traveled distance."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyWindow, InsufficientOverlap
from .geometry import PoseSE2, angle_diff
from .sync import nearest_stamp_index

STAMP_MATCH_TOL = 0.05  # seconds, nearest-neighbor stamp association


@dataclass
class Trajectory:
    stamps: np.ndarray  # (N,), strictly increasing
    poses: list  # list of PoseSE2

    def __post_init__(self):
        stamps = np.asarray(self.stamps, dtype=float)
        object.__setattr__(self, "stamps", stamps)
        if len(stamps) != len(self.poses):
            raise ValueError("stamps and poses length mismatch")
        if len(stamps) > 1 and not np.all(np.diff(stamps) > 0):
            raise ValueError("stamps must be strictly increasing")

    def positions(self) -> np.ndarray:
        return np.array([[p.x, p.y] for p in self.poses]).reshape(-1, 2)

    def __len__(self):
        return len(self.poses)

    @classmethod
    def from_samples(cls, samples):
        """Build from an iterable of (stamp, PoseSE2)."""
        samples = sorted(samples, key=lambda sp: sp[0])
        return cls(np.array([s for s, _ in samples]), [p for _, p in samples])


@dataclass
class WaypointStats:
    waypoint_id: int
    n_cameras: int
    mode: str
    translation_mean: float
    translation_std: float
    orientation_mean: float
    orientation_std: float
    n_samples: int


def match_stamps(a: Trajectory, b: Trajectory, tol: float = STAMP_MATCH_TOL):
    """Nearest-neighbor stamp matching; returns index pairs (ia, ib)."""
    if len(a) == 0 or len(b) == 0:
        return []
    ib = nearest_stamp_index(b.stamps, a.stamps)
    (ia,) = np.nonzero(np.abs(b.stamps[ib] - a.stamps) <= tol)
    return list(zip(ia.tolist(), ib[ia].tolist()))


def procrustes_align(estimate: Trajectory, reference: Trajectory, tol: float = STAMP_MATCH_TOL):
    """Closed-form rigid ground-plane alignment of estimate onto reference.

    Minimizes the sum of squared position distances over stamp-matched
    pairs; returns (aligned trajectory, alignment transform).
    """
    pairs = match_stamps(estimate, reference, tol)
    if len(pairs) < 2:
        raise InsufficientOverlap(f"{len(pairs)} matched pairs (need 2)")
    pos = estimate.positions()
    pe = pos[[ia for ia, _ in pairs]]
    pr = reference.positions()[[ib for _, ib in pairs]]
    ce = pe.mean(axis=0)
    cr = pr.mean(axis=0)
    de = pe - ce
    dr = pr - cr
    dot = float(np.sum(de * dr))
    cross = float(np.sum(de[:, 0] * dr[:, 1] - de[:, 1] * dr[:, 0]))
    theta = math.atan2(cross, dot)
    rot = PoseSE2(0.0, 0.0, theta)
    t = cr - rot.apply(ce)
    transform = PoseSE2(t[0], t[1], theta)
    # transform.compose(p) of every pose, in the same float operations
    c, s = math.cos(transform.theta), math.sin(transform.theta)
    px, py = pos.T
    x = transform.x + c * px - s * py
    y = transform.y + s * px + c * py
    heading = [transform.theta + p.theta for p in estimate.poses]
    aligned = Trajectory(estimate.stamps.copy(),
                         list(map(PoseSE2, x.tolist(), y.tolist(), heading)))
    return aligned, transform


def translation_rmse(aligned: Trajectory, reference: Trajectory, tol: float = STAMP_MATCH_TOL) -> float:
    """RMS position distance over stamp-matched pairs, in meters."""
    pairs = match_stamps(aligned, reference, tol)
    if len(pairs) < 1:
        raise InsufficientOverlap("no matched pairs")
    pa = aligned.positions()[[ia for ia, _ in pairs]]
    pr = reference.positions()[[ib for _, ib in pairs]]
    return float(np.sqrt(np.mean(np.sum((pa - pr) ** 2, axis=1))))


def waypoint_errors(estimates_by_mode, reference: Trajectory, windows, camera_visibility):
    """Per-waypoint error statistics for each estimation mode.

    windows: list of (waypoint_id, t_start, t_end) dwell intervals;
    camera_visibility: waypoint_id -> number of observing cameras.
    Returns a list of WaypointStats rows.
    """
    stats = []
    for wp_id, t0, t1 in windows:
        ref_idx = np.nonzero((reference.stamps >= t0 - 1e-9) & (reference.stamps <= t1 + 1e-9))[0]
        if len(ref_idx) == 0:
            raise EmptyWindow(f"waypoint {wp_id} window has no reference samples")
        ref_stamps = reference.stamps[ref_idx]
        for mode in sorted(estimates_by_mode):
            traj = estimates_by_mode[mode]
            if len(traj) == 0:
                continue
            nearest = nearest_stamp_index(traj.stamps, ref_stamps)
            matched = np.abs(traj.stamps[nearest] - ref_stamps) <= STAMP_MATCH_TOL
            terr, oerr = [], []
            for ia, ib in zip(nearest[matched], ref_idx[matched]):
                pa, pr = traj.poses[ia], reference.poses[ib]
                terr.append(math.hypot(pa.x - pr.x, pa.y - pr.y))
                oerr.append(abs(angle_diff(pa.theta, pr.theta)))
            if not terr:
                continue
            stats.append(
                WaypointStats(
                    waypoint_id=wp_id,
                    n_cameras=camera_visibility.get(wp_id, 0),
                    mode=mode,
                    translation_mean=float(np.mean(terr)),
                    translation_std=float(np.std(terr)),
                    orientation_mean=float(np.mean(oerr)),
                    orientation_std=float(np.std(oerr)),
                    n_samples=len(terr),
                )
            )
    return stats


def error_over_distance(aligned: Trajectory, reference: Trajectory, tol: float = STAMP_MATCH_TOL):
    """Per-sample translation error against cumulative reference path length.

    Returns a list of (stamp, distance_traveled, error) tuples over matched
    pairs, ordered by stamp.
    """
    pairs = match_stamps(aligned, reference, tol)
    if len(pairs) < 1:
        raise InsufficientOverlap("no matched pairs")
    ref_pos = reference.positions()
    seg = np.linalg.norm(np.diff(ref_pos, axis=0), axis=1) if len(reference) > 1 else np.zeros(0)
    cumdist = np.concatenate([[0.0], np.cumsum(seg)])
    ia, ib = np.array(pairs).T
    d = aligned.positions()[ia] - ref_pos[ib]
    err = np.sqrt(np.vecdot(d, d))
    return list(zip(aligned.stamps[ia].tolist(), cumdist[ib].tolist(), err.tolist()))
