"""Independent oracles used by the test suite.

Everything here recomputes expected values by a route different from the
library code: scalar pinhole projection for the vectorised kernel, dense
grid search for solver optimality, central finite differences for
Jacobians, random search for alignment, and closed-form normal equations
for small graphs. The 8-heading multi-start, a loop of one-start LM
solves, is the reference that the single algebraic seed of a single-view
candidate must match, and the prior-started loop of frame-set solves is
the reference for the pipeline's batched one.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from camloc import estimation
from camloc.errors import (GaugeFree, InsufficientObservations, NoEligibleCamera, SolverDiverged,
                           UnknownCamera, UnknownKeypoint)
from camloc.geometry import (FlatObservations, PoseSE2, _rig_map, flatten_observations,
                             reprojection_kernel, wrap_angle, wrap_angles)
from camloc.posegraph import Node

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(f):
            return f

        if args and callable(args[0]):
            return args[0]
        return wrap


# -- scalar projection ----------------------------------------------------


class BehindCamera(Exception):
    """Point has non-positive depth in the camera frame."""


def keypoint_world(pose, model, j):
    """World position of keypoint j with the robot at the given pose: the
    body point rotated about z by theta and shifted by (x, y)."""
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return model.keypoints[j] @ rot.T + np.array([pose.x, pose.y, 0.0])


def project(camera, point_world):
    """Pinhole projection of one world point to pixel coordinates."""
    pc = camera.world_to_camera.apply(np.asarray(point_world, dtype=float))
    if pc[2] <= 1e-9:
        raise BehindCamera(f"depth {pc[2]:.3g} in camera {camera.camera_id}")
    return np.array(
        [camera.fx * pc[0] / pc[2] + camera.cx, camera.fy * pc[1] / pc[2] + camera.cy]
    )


# -- dense grid search over the pose objective ----------------------------
#
# The objective is evaluated over a full (x, y, theta) grid. For fixed theta
# the camera-frame point of every observation is affine in (x, y):
#   pc = base(theta) + r1 * x + r2 * y
# with r1, r2 the first two columns of the camera rotation, so the residual
# can be evaluated without re-rotating keypoints in the inner loops.


@njit(cache=True, fastmath=True)
def _grid_min_kernel(
    thetas, gx, gy,
    rot, trans, fx, fy, cx, cy,  # per observation camera data
    kp, pix, w,  # per observation keypoint (body frame), pixel, weight
    delta,
):
    n_obs = kp.shape[0]
    nx = gx.shape[0]
    ny = gy.shape[0]
    best = np.float32(np.inf)
    bi = 0
    bj = 0
    bk = 0
    one = np.float32(1.0)
    two = np.float32(2.0)
    zmin = np.float32(0.05)
    d2 = delta * delta
    cost = np.empty((nx, ny), dtype=np.float32)
    for it in range(thetas.shape[0]):
        ct = np.float32(math.cos(thetas[it]))
        st = np.float32(math.sin(thetas[it]))
        for i in range(nx):
            for j in range(ny):
                cost[i, j] = np.float32(0.0)
        for n in range(n_obs):
            kx, ky, kz = kp[n, 0], kp[n, 1], kp[n, 2]
            pwx = ct * kx - st * ky
            pwy = st * kx + ct * ky
            b0 = rot[n, 0, 0] * pwx + rot[n, 0, 1] * pwy + rot[n, 0, 2] * kz + trans[n, 0]
            b1 = rot[n, 1, 0] * pwx + rot[n, 1, 1] * pwy + rot[n, 1, 2] * kz + trans[n, 1]
            b2 = rot[n, 2, 0] * pwx + rot[n, 2, 1] * pwy + rot[n, 2, 2] * kz + trans[n, 2]
            a0, a1, a2 = rot[n, 0, 0], rot[n, 1, 0], rot[n, 2, 0]
            c0, c1, c2 = rot[n, 0, 1], rot[n, 1, 1], rot[n, 2, 1]
            fxn, fyn = fx[n], fy[n]
            cxn, cyn = cx[n], cy[n]
            pu, pv = pix[n, 0], pix[n, 1]
            wn = w[n]
            for i in range(nx):
                x = gx[i]
                rx = b0 + a0 * x
                ry = b1 + a1 * x
                rz = b2 + a2 * x
                for j in range(ny):
                    y = gy[j]
                    px = rx + c0 * y
                    py = ry + c1 * y
                    pz = rz + c2 * y
                    pz = max(pz, zmin)
                    inv = one / pz
                    du = pu - (fxn * px * inv + cxn)
                    dv = pv - (fyn * py * inv + cyn)
                    s2 = du * du + dv * dv
                    lin = two * delta * np.float32(math.sqrt(s2)) - d2
                    c = s2 if s2 <= d2 else lin
                    cost[i, j] += wn * c
        for i in range(nx):
            for j in range(ny):
                if cost[i, j] < best:
                    best = cost[i, j]
                    bi = i
                    bj = j
                    bk = it
        # keep best indices per theta slice
    return best, bi, bj, bk


def grid_search_objective(center_pose, obs_arrays, delta,
                          half_xy=0.10, step_xy=0.001,
                          half_theta=math.radians(5.0),
                          step_theta=math.radians(0.05)):
    """Brute-force minimum of the pose objective over a dense grid.

    center_pose: (x, y, theta) grid center; obs_arrays: dict of per-
    observation arrays (rot, trans, fx, fy, cx, cy, kp, pix, w).
    Returns (min objective, argmin pose as (x, y, theta) floats).
    """
    x0, y0, t0 = center_pose
    nx = int(round(2 * half_xy / step_xy)) + 1
    nt = int(round(2 * half_theta / step_theta)) + 1
    gx = (x0 - half_xy + step_xy * np.arange(nx)).astype(np.float32)
    gy = (y0 - half_xy + step_xy * np.arange(nx)).astype(np.float32)
    thetas = (t0 - half_theta + step_theta * np.arange(nt)).astype(np.float64)
    best, bi, bj, bk = _grid_min_kernel(
        thetas, gx, gy,
        obs_arrays["rot"].astype(np.float32),
        obs_arrays["trans"].astype(np.float32),
        obs_arrays["fx"].astype(np.float32),
        obs_arrays["fy"].astype(np.float32),
        obs_arrays["cx"].astype(np.float32),
        obs_arrays["cy"].astype(np.float32),
        obs_arrays["kp"].astype(np.float32),
        obs_arrays["pix"].astype(np.float32),
        obs_arrays["w"].astype(np.float32),
        np.float32(delta),
    )
    return float(best), (float(gx[bi]), float(gy[bj]), float(thetas[bk]))


def frameset_obs_arrays(frameset, cameras, model):
    """Flatten a frame-set into the per-observation arrays the grid kernel
    consumes; one row per detected keypoint."""
    cams = {c.camera_id: c for c in cameras}
    rot, trans, fx, fy, cx, cy, kp, pix, w = [], [], [], [], [], [], [], [], []
    for cam_id in sorted(frameset.per_camera):
        cam = cams[cam_id]
        msg = frameset.per_camera[cam_id]
        for j, pixel, conf in zip(msg.keypoints, msg.pixels, msg.confidence):
            rot.append(cam.world_to_camera.rotation)
            trans.append(cam.world_to_camera.translation)
            fx.append(cam.fx)
            fy.append(cam.fy)
            cx.append(cam.cx)
            cy.append(cam.cy)
            kp.append(model.keypoints[j])
            pix.append(pixel)
            w.append(conf)
    return {
        "rot": np.array(rot),
        "trans": np.array(trans),
        "fx": np.array(fx),
        "fy": np.array(fy),
        "cx": np.array(cx),
        "cy": np.array(cy),
        "kp": np.array(kp),
        "pix": np.array(pix),
        "w": np.array(w),
    }


def reference_objective(params, obs_arrays, delta):
    """Float64 numpy evaluation of the same objective, no shared code with
    the library's solver internals beyond the mathematical definition."""
    x, y, theta = params
    ct, st = math.cos(theta), math.sin(theta)
    kp = obs_arrays["kp"]
    pw = np.stack(
        [ct * kp[:, 0] - st * kp[:, 1] + x, st * kp[:, 0] + ct * kp[:, 1] + y, kp[:, 2]],
        axis=1,
    )
    pc = np.einsum("nij,nj->ni", obs_arrays["rot"], pw) + obs_arrays["trans"]
    z = np.maximum(pc[:, 2], 0.05)
    u = obs_arrays["fx"] * pc[:, 0] / z + obs_arrays["cx"]
    v = obs_arrays["fy"] * pc[:, 1] / z + obs_arrays["cy"]
    du = obs_arrays["pix"][:, 0] - u
    dv = obs_arrays["pix"][:, 1] - v
    s = np.hypot(du, dv)
    cost = np.where(s <= delta, s**2, 2.0 * delta * s - delta**2)
    return float(np.sum(obs_arrays["w"] * cost))


# -- 8-heading multi-start for single-view candidates ---------------------


def backproject_centroid(obs, camera, model):
    """Ground-plane position whose keypoint-centroid projects near the
    observed centroid pixel of one camera's flattened columns."""
    w = np.maximum(obs.weight, 1e-6)
    centroid = (obs.pixel * w).sum(axis=1) / w.sum()
    xn = (centroid[0] - camera.cx) / camera.fx
    yn = (centroid[1] - camera.cy) / camera.fy
    d_world = camera.world_to_camera.rotation.T @ np.array([xn, yn, 1.0])
    origin = camera.center_world()
    height = float(model.keypoints[:, 2].mean())
    if abs(d_world[2]) > 1e-9:
        t = (height - origin[2]) / d_world[2]
        if t > 0.1:
            return (origin + t * d_world)[:2]
    # ray nearly horizontal or pointing up: fall back to 4 m along the axis
    return (origin + 4.0 * camera.world_to_camera.rotation.T @ np.array([0.0, 0.0, 1.0]))[:2]


# 8 equally spaced headings from -pi
HEADINGS = wrap_angles(-math.pi + (2.0 * math.pi * np.arange(8)) / 8.0)


def heading_starts(obs, camera, model):
    """The 8 multi-start initializations (8, 3): HEADINGS at the
    back-projected keypoint centroid of one camera's columns."""
    x, y = backproject_centroid(obs, camera, model)
    return np.column_stack([np.full(8, x), np.full(8, y), HEADINGS])


def multi_start(obs, starts, config):
    """Run the LM from each start alone. Returns (the index of the first
    start with the lowest objective among those that did not diverge, or
    None when all diverged; the list of each start's LM result)."""
    results = [estimation._levenberg_marquardt(start, obs, config) for start in starts]
    kept = [i for i, (_, _, _, diverged, _) in enumerate(results) if not diverged]
    best = min(kept, key=lambda i: results[i][1]) if kept else None  # first on ties
    return best, results


# -- the two LM loops as they were before they shared one ------------------
#
# Verbatim copies of the pose LM and of PoseGraph.optimize from before both
# went through estimation.levenberg_marquardt; the shared loop must match
# each bit for bit.


@np.errstate(over="ignore", invalid="ignore")
def reference_pose_lm(start, obs, config):
    """The pose LM's own loop: (params, objective, iterations, diverged,
    hessian), as estimation._levenberg_marquardt returns them."""
    delta, scale, wts = config.huber_delta, config.lm_lambda_scale, obs.weight
    params = np.array(start, dtype=float).reshape(3)
    res, jac, _ = reprojection_kernel(params, obs)
    norms = np.sqrt(np.add.reduce(res * res, axis=0))
    cost = np.where(norms <= delta, norms**2, 2.0 * delta * norms - delta**2)
    obj = np.add.reduce(wts * cost)
    hess, grad = estimation._normal_equations(res, jac, norms, wts, delta)
    iters, lam, diverged = 1, config.lm_lambda_init, False
    running = not np.sqrt(np.add.reduce(grad * grad)) < 1e-14
    while running:
        damped = hess.copy()
        damped.reshape(9)[::4] += lam * np.maximum(hess.diagonal(), 1e-12)
        try:
            step = -np.linalg.solve(damped, grad)
        except np.linalg.LinAlgError:
            step = np.full(3, np.nan)
        trial = params + step
        trial[2] = wrap_angle(trial[2]) if math.isfinite(trial[2]) else math.nan
        res, jac, _ = reprojection_kernel(trial, obs)
        norms = np.sqrt(np.add.reduce(res * res, axis=0))
        cost = np.where(norms <= delta, norms**2, 2.0 * delta * norms - delta**2)
        t_obj = np.add.reduce(wts * cost)
        if t_obj < obj:
            rel = (obj - t_obj) / max(obj, 1e-300)
            params, obj, lam = trial, t_obj, max(lam / scale, 1e-12)
            if rel < config.convergence_tol or iters >= config.max_iterations:
                break
            iters += 1
            hess, grad = estimation._normal_equations(res, jac, norms, wts, delta)
            running = not np.sqrt(np.add.reduce(grad * grad)) < 1e-14
        else:
            lam *= scale
            if lam > 1e12:
                diverged = not (math.isfinite(obj) and np.isfinite(params).all())
                break
    return params, obj, iters, diverged, hess


def reference_graph_optimize(graph, config=None):
    """PoseGraph.optimize's own loop, run on ``graph`` in place."""
    import scipy.linalg

    config = config or estimation.SolverConfig()
    if not graph.unary_edges:
        raise GaugeFree("graph has no absolute constraint")
    arrays = graph._edge_arrays()
    poses = np.array([n.pose.as_array() for n in graph.nodes])
    obj, res = graph._objective_from(poses, arrays)
    lam = min(config.lm_lambda_init, 1e-8)
    for _ in range(config.max_iterations):
        band, grad = graph._normal_equations(poses, arrays, res)
        if np.linalg.norm(grad) < 1e-12:
            break
        improved = False
        rel = 0.0
        while True:
            damped = band.copy()
            damped[-1] += lam * np.maximum(band[-1], 1e-12)
            try:
                step = scipy.linalg.solveh_banded(damped, -grad, check_finite=False)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
                trial = poses + step.reshape(-1, 3)
                trial[:, 2] = wrap_angles(trial[:, 2])
                t_obj, t_res = graph._objective_from(trial, arrays)
                if t_obj < obj:
                    rel = (obj - t_obj) / max(obj, 1e-300)
                    poses, obj, res = trial, t_obj, t_res
                    lam = max(lam / config.lm_lambda_scale, 1e-12)
                    improved = True
                    break
            lam *= config.lm_lambda_scale
            if lam > 1e12:
                if not np.isfinite(obj) or not np.all(np.isfinite(poses)):
                    raise SolverDiverged(f"non-finite state at objective {obj:.3g}")
                break
        if not improved:
            break
        if rel < config.convergence_tol:
            break
    graph.nodes = [Node(n.id, n.stamp, PoseSE2(*p)) for n, p in zip(graph.nodes, poses)]


# -- finite differences ---------------------------------------------------


def central_difference_jacobian(f, params, eps=1e-6):
    """Central finite-difference Jacobian of a vector function of params."""
    params = np.asarray(params, dtype=float)
    f0 = np.asarray(f(params))
    jac = np.zeros(f0.shape + (len(params),))
    for k in range(len(params)):
        dp = np.zeros_like(params)
        dp[k] = eps
        jac[..., k] = (np.asarray(f(params + dp)) - np.asarray(f(params - dp))) / (2 * eps)
    return jac


# -- closed-form 1-D pose-graph oracle ------------------------------------


def two_node_unary_optimum(delta, info_odo, a_meas, b_meas, info_a, info_b):
    """Closed-form optimum of the 1-D graph A--B with odometry constraint
    (B - A - delta) and unary constraints on A and B; solves the 2x2 normal
    equations directly."""
    h = np.array(
        [
            [info_odo + info_a, -info_odo],
            [-info_odo, info_odo + info_b],
        ]
    )
    b = np.array([info_a * a_meas - info_odo * delta, info_b * b_meas + info_odo * delta])
    return np.linalg.solve(h, b)


# -- the frame-set solves as one prior-started loop -----------------------


def reference_solve_framesets(config, steps, needed):
    """pipeline._solve_framesets as it was before the solves were batched:
    every frame-set after the first fix is solved by solve_multiview from
    the last accepted pose moved by the odometry since. The same arguments
    and return value."""
    solves = []
    skipped = rejected = 0
    prior = None  # last accepted estimate pose
    odo_since_prior, odo_upto = PoseSE2(), 0  # the steps after prior, up to sample odo_upto
    for i, fs in needed:
        for step in steps[odo_upto:i]:
            odo_since_prior = odo_since_prior.compose(step)
        odo_upto = i
        predicted = None if prior is None else prior.compose(odo_since_prior)
        try:
            obs = flatten_observations(fs, config.cameras, config.robot_model)
            rejected += obs.rejected
            if predicted is None:
                est = gated = estimation.initialize_global(fs, config.cameras,
                                                           config.robot_model, config.solver)
            else:
                est = gated = estimation.solve_multiview(obs, predicted, config.solver)
                if est.n_cameras == 1:
                    gated = estimation.gate_single_view(predicted, est, obs.cameras[0],
                                                        config.gate)
        except (NoEligibleCamera, InsufficientObservations, SolverDiverged,
                UnknownCamera, UnknownKeypoint):
            skipped += 1
            continue
        solves.append((i, est, gated))
        prior, odo_since_prior = gated.pose, PoseSE2()
    return solves, skipped, rejected


# -- one frame-set flattened on its own ------------------------------------


def reference_flatten(frameset, cameras, model):
    """flatten_observations as it was before frame-sets were gathered a block
    at a time: one frame-set's columns taken from the rig's linear map, with
    the same checks, far-pixel drop and rejected count."""
    rig_cams, rig_map, rig_center, rig_size = _rig_map(cameras, model)
    position = {c.camera_id: i for i, c in enumerate(rig_cams)}
    unknown = frameset.per_camera.keys() - position.keys()
    if unknown:
        raise UnknownCamera(f"camera {min(unknown)} not in rig")
    ids = sorted(frameset.per_camera)
    messages = [frameset.per_camera[i] for i in ids]
    idx = np.concatenate([m.keypoints for m in messages] + [np.zeros(0, int)])
    bad = (idx < 0) | (idx >= model.n_keypoints)
    if bad.any():
        raise UnknownKeypoint(f"keypoint index {idx[bad][0]} outside the "
                              f"{model.n_keypoints}-keypoint robot model")
    n_rows = [len(m.keypoints) for m in messages]
    pixel = np.concatenate([m.pixels for m in messages] + [np.zeros((0, 2))])
    rig_row = np.repeat(np.array([position[i] for i in ids], dtype=int), n_rows)
    size = rig_size[rig_row, :, 0]
    keep = (np.abs(pixel - 0.5 * size) <= 1.5 * size).all(axis=1)
    counts = np.bincount(np.repeat(np.arange(len(ids)), n_rows)[keep], minlength=len(ids))
    cams = tuple(rig_cams[position[i]] for i, n in zip(ids, counts) if n)
    counts = counts[counts > 0]  # kept keypoints per contributing camera
    m = model.n_keypoints
    columns = (rig_row * m + idx)[keep]
    return FlatObservations(
        linear_map=rig_map.reshape(5, 3, len(rig_cams) * m).take(columns, axis=2).reshape(5, -1),
        center=rig_center.take(columns, axis=1),
        pixel=pixel[keep].T.copy(),
        weight=np.concatenate([m.confidence for m in messages] + [np.zeros(0)])[keep],
        stamp=frameset.anchor_stamp,
        cameras=cams,
        offsets=tuple(itertools.accumulate(counts.tolist(), initial=0)),
        rejected=len(keep) - int(np.count_nonzero(keep)),
    )
