"""Multi-view pose estimation from synchronized keypoint detections.

Implements the weighted nonlinear least-squares pose solve (Levenberg-
Marquardt with a Huber-robustified pixel residual), per-camera candidate
generation with ground-plane multi-start for prior-free initialization,
the single-camera bearing-only outlier gate, and information-weighted
averaging. Every solve's covariance is sigma^2 * H^-1 from its own
Gauss-Newton Hessian H, with sigma^2 the residual variance (cf. Triggs et
al., "Bundle Adjustment - A Modern Synthesis", 2000), and that one
covariance weights every blend: of the per-camera candidates that seed
relocalization, of consecutive static estimates, and in the pose graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EmptyInput,
    InsufficientKeypoints,
    InsufficientObservations,
    NoEligibleCamera,
    SolverDiverged,
    UnknownCamera,
)
from .geometry import (
    CameraModel,
    FlatObservations,
    PoseSE2,
    RobotModel,
    angle_diff,
    circular_weighted_mean,
    flatten_observations,
    frameset_observations,
    reprojection_kernel,
    wrap_angles,
)
from .sync import DetectionMessage, FrameSet

# Keypoints one camera needs to seed relocalization on its own.
MIN_SEED_KEYPOINTS = 4
# Longest stamp span of the estimates that average_estimates accepts.
AVERAGE_SPAN = 2.0  # s
# Floor of the residual sd that scales a covariance: noiseless detections
# leave an objective of 0.
R_MIN = 0.5  # px


@dataclass
class SolverConfig:
    max_iterations: int = 50
    convergence_tol: float = 1e-10  # relative objective change
    lm_lambda_init: float = 1e-3
    lm_lambda_scale: float = 10.0
    huber_delta: float = 5.0  # px

    def __post_init__(self):
        if min(
            self.max_iterations,
            self.convergence_tol,
            self.lm_lambda_init,
            self.lm_lambda_scale,
            self.huber_delta,
        ) <= 0:
            raise ValueError("all solver constants must be positive")


@dataclass
class GateThresholds:
    d_theta: float = math.radians(15.0)
    d_depth: float = 0.30  # m

    def __post_init__(self):
        if self.d_theta <= 0 or self.d_depth <= 0:
            raise ValueError("gate thresholds must be positive")


@dataclass
class PoseEstimate:
    pose: PoseSE2
    covariance: np.ndarray
    rms_residual: float
    n_cameras: int
    n_keypoints: int
    stamp: float
    gated: bool = False
    n_iterations: int = 0

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float).reshape(3, 3)
        object.__setattr__(self, "covariance", cov)
        if self.n_cameras < 1:
            raise ValueError("estimate needs at least one camera")
        np.linalg.cholesky(cov)  # raises if not positive-definite


def _residual_norms(res):
    """Per-keypoint residual norms (S, K) of residuals (S, 2, K)."""
    return np.sqrt(np.add.reduce(res * res, axis=1))


def _huber_objective(norms, wts, delta) -> np.ndarray:
    """Per-start sum of per-detection weighted Huber costs on the residual norm."""
    cost = np.where(norms <= delta, norms**2, 2.0 * delta * norms - delta**2)
    return np.add.reduce(wts * cost, axis=-1)


def _normal_equations(res, jac, norms, wts, delta):
    """Huber-reweighted Gauss-Newton system: (hessian (S, 3, 3), gradient (S, 3))."""
    n = len(res)
    w = wts * np.where(norms <= delta, 1.0, delta / np.maximum(norms, 1e-12))
    jw = (jac * w[:, None, None]).reshape(n, 3, -1)
    return jw @ jac.reshape(n, 3, -1).transpose(0, 2, 1), (jw @ res.reshape(n, -1, 1))[..., 0]


def _small_gradient(grad):
    """Starts (S,) whose gradient norm is below 1e-14: already stationary."""
    return np.sqrt(np.add.reduce(grad * grad, axis=1)) < 1e-14


def _solve_steps(hess, lam, grad):
    """Solve the stacked damped 3x3 systems (H + lam * D) @ step = -grad,
    with D = diag(max(diag(H), 1e-12)).

    A singular system gets a NaN step, which no objective test accepts;
    the other rows keep their own solutions.
    """
    damped = hess.copy()
    damped.reshape(-1, 9)[:, ::4] += lam[:, None] * np.maximum(
        np.diagonal(hess, axis1=1, axis2=2), 1e-12)
    try:
        return -np.linalg.solve(damped, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        steps = np.full_like(grad, np.nan)
        for i in range(len(damped)):
            try:
                steps[i] = -np.linalg.solve(damped[i], grad[i])
            except np.linalg.LinAlgError:
                pass
        return steps


@np.errstate(over="ignore", invalid="ignore")
def _levenberg_marquardt(starts, obs: FlatObservations, config: SolverConfig):
    """Minimize the Huber objective from each row of starts (S, 3).

    Every start runs its own LM with its own damping schedule; batching
    only stacks the arithmetic, so a start's result does not depend on the
    other starts. Each trial pose is evaluated with its Jacobian, which
    becomes the next linearization when the step is accepted. Returns
    (params (S, 3), objective (S,), iterations (S,), diverged (S,),
    hessian (S, 3, 3)); the Hessian is the Gauss-Newton one of the last
    linearization. A diverged start ended in a non-finite state; the
    overflow on its way there is detected here, not reported by numpy.
    """
    delta, scale, wts = config.huber_delta, config.lm_lambda_scale, obs.weight
    params = np.array(starts, dtype=float).reshape(-1, 3)
    n = len(params)
    res, jac, _ = reprojection_kernel(params, obs)
    norms = _residual_norms(res)
    obj = _huber_objective(norms, wts, delta)
    hess, grad = _normal_equations(res, jac, norms, wts, delta)
    iters = np.ones(n, dtype=int)
    running = ~_small_gradient(grad)
    diverged = np.zeros(n, dtype=bool)
    lam = np.full(n, config.lm_lambda_init)
    while running.any():
        trial = params + _solve_steps(hess, lam, grad)
        trial[:, 2] = wrap_angles(trial[:, 2])
        res, jac, _ = reprojection_kernel(trial, obs)
        norms = _residual_norms(res)
        t_obj = _huber_objective(norms, wts, delta)
        accept = running & (t_obj < obj)
        rel = (obj - t_obj) / np.maximum(obj, 1e-300)
        np.copyto(params, trial, where=accept[:, None])
        np.copyto(obj, t_obj, where=accept)
        running &= ~(accept & ((rel < config.convergence_tol) | (iters >= config.max_iterations)))
        relinearize = accept & running
        if relinearize.any():
            iters += relinearize
            t_hess, t_grad = _normal_equations(res, jac, norms, wts, delta)
            np.copyto(hess, t_hess, where=relinearize[:, None, None])
            np.copyto(grad, t_grad, where=relinearize[:, None])
            running &= ~(relinearize & _small_gradient(grad))
        rejected = running & ~accept
        lam = np.where(accept, np.maximum(lam / scale, 1e-12), lam)
        lam = np.where(rejected, lam * scale, lam)
        # Infinite damping shrinks the step to nothing: no descent direction
        # improves the objective within machine precision, so this is a
        # stationary point, not divergence, unless the state is non-finite.
        stuck = rejected & (lam > 1e12)
        if stuck.any():
            running &= ~stuck
            diverged |= stuck & ~(np.isfinite(obj) & np.isfinite(params).all(axis=1))
    return params, obj, iters, diverged, hess


def _solve_covariance(hess, objective: float, n_rows: int) -> np.ndarray:
    """sigma^2 * H^-1 of one solve, with sigma^2 = objective / (2K - 3) the
    residual variance of its K keypoints, floored at R_MIN^2.

    Raises InsufficientObservations when H is not positive definite, as when
    every detection has confidence 0: the detections leave the pose
    unconstrained.
    """
    sigma2 = max(objective / (2 * n_rows - 3), R_MIN**2)
    try:
        cov = sigma2 * np.linalg.inv(hess)
        np.linalg.cholesky(cov)  # H^-1 is positive definite iff H is
    except np.linalg.LinAlgError:
        raise InsufficientObservations(
            f"{n_rows} keypoint observations leave the pose unconstrained") from None
    return cov


def _best_solve(obs: FlatObservations, starts, stamp: float, config: SolverConfig):
    """Run LM from each start and keep the lowest objective among the starts
    that did not diverge, the first start on ties, as a PoseEstimate."""
    params, obj, iters, diverged, hess = _levenberg_marquardt(starts, obs, config)
    kept = np.flatnonzero(~diverged)
    if not kept.size:
        raise SolverDiverged(f"all {len(obj)} LM starts ended in a non-finite state")
    best = kept[np.argmin(obj[kept])]
    return PoseEstimate(
        pose=PoseSE2(*params[best]),
        covariance=_solve_covariance(hess[best], obj[best], obs.n_rows),
        rms_residual=math.sqrt(obj[best] / obs.n_rows),
        n_cameras=obs.n_cameras,
        n_keypoints=obs.n_rows,
        stamp=stamp,
        n_iterations=int(iters[best]),
    )


def solve_multiview(
    frameset: FrameSet,
    init: PoseSE2,
    cameras,
    model: RobotModel,
    config: SolverConfig | None = None,
) -> PoseEstimate:
    """Refine the robot pose on a frame-set via robust LM from the given init."""
    config = config or SolverConfig()
    obs = frameset_observations(frameset, cameras, model)
    if obs.n_rows < 3:
        raise InsufficientObservations(f"{obs.n_rows} keypoint observations (need 3)")
    return _best_solve(obs, init.as_array()[None], frameset.anchor_stamp, config)


def _backproject_centroid(
    obs: FlatObservations, camera: CameraModel, model: RobotModel
) -> np.ndarray:
    """Ground-plane position whose keypoint-centroid projects near the
    observed centroid pixel; used only to seed the multi-start solve."""
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
            hit = origin + t * d_world
            return hit[:2]
    # ray nearly horizontal or pointing up: fall back to 4 m along the axis
    fallback = origin + 4.0 * camera.world_to_camera.rotation.T @ np.array([0.0, 0.0, 1.0])
    return fallback[:2]


# 8 equally spaced multi-start headings from -pi
_HEADINGS = wrap_angles(-math.pi + (2.0 * math.pi * np.arange(8)) / 8.0)


def _heading_starts(seed_xy) -> np.ndarray:
    """The 8 multi-start initializations (8, 3): the _HEADINGS at one
    ground-plane position."""
    return np.column_stack([np.full(8, seed_xy[0]), np.full(8, seed_xy[1]), _HEADINGS])


def single_view_candidate(
    message: DetectionMessage,
    camera: CameraModel,
    model: RobotModel,
    config: SolverConfig | None = None,
) -> PoseEstimate:
    """Ground-plane pose candidate from one camera's detections.

    Runs the 3-DoF solve from 8 equally spaced heading initializations at
    the back-projected keypoint centroid, as one batch, and keeps the
    lowest-residual solution; the narrow robot body makes the heading
    multi-modal from a single view, which the multi-start resolves. The
    candidate carries the covariance of its own solve, long along the
    camera's viewing ray.
    """
    config = config or SolverConfig()
    if len(message.keypoints) < MIN_SEED_KEYPOINTS:
        raise InsufficientKeypoints(f"{len(message.keypoints)} keypoints from camera "
                                    f"{message.camera_id} (need {MIN_SEED_KEYPOINTS})")
    obs = flatten_observations([(camera, message)], model)
    starts = _heading_starts(_backproject_centroid(obs, camera, model))
    return _best_solve(obs, starts, message.stamp, config)


def initialize_global(
    frameset: FrameSet,
    cameras,
    model: RobotModel,
    config: SolverConfig | None = None,
) -> PoseEstimate:
    """Prior-free (kidnapped robot) initialization from a frame-set.

    Each camera with enough keypoints gives a candidate; a camera whose
    solve diverges or leaves the pose unconstrained is skipped. The final
    multi-view solve starts from the candidates' information-weighted mean.
    """
    config = config or SolverConfig()
    cams = {c.camera_id: c for c in cameras}
    candidates = []
    for cam_id in sorted(frameset.per_camera):
        msg = frameset.per_camera[cam_id]
        if len(msg.keypoints) < MIN_SEED_KEYPOINTS:
            continue
        if cam_id not in cams:
            raise UnknownCamera(f"camera {cam_id} not in rig")
        try:
            candidates.append(single_view_candidate(msg, cams[cam_id], model, config))
        except (SolverDiverged, InsufficientObservations):
            continue
    if not candidates:
        raise NoEligibleCamera(f"no camera message with >= {MIN_SEED_KEYPOINTS} keypoints "
                               "gave a candidate")
    init = average_estimates(candidates).pose
    return solve_multiview(frameset, init, cameras, model, config)


def gate_single_view(
    prev: PoseSE2,
    raw: PoseEstimate,
    camera: CameraModel,
    thresholds: GateThresholds | None = None,
) -> PoseEstimate:
    """Bearing-only outlier gate for single-camera estimates.

    Implausible jumps in heading or camera distance are rejected by keeping
    the prior heading and applying only the translation component orthogonal
    to the camera's viewing direction. The estimate keeps its covariance,
    which the lone camera's Hessian already makes long along its ray.
    """
    thresholds = thresholds or GateThresholds()
    if raw.n_cameras != 1:
        raise ValueError("gate applies to single-camera estimates only")
    cam_xy = camera.ground_position()
    d_theta = abs(angle_diff(raw.pose.theta, prev.theta))
    dist_raw = float(np.linalg.norm(raw.pose.xy - cam_xy))
    dist_prev = float(np.linalg.norm(prev.xy - cam_xy))
    if d_theta <= thresholds.d_theta and abs(dist_raw - dist_prev) <= thresholds.d_depth:
        return replace(raw, gated=False)
    view = prev.xy - cam_xy
    norm = np.linalg.norm(view)
    view = view / norm if norm > 1e-9 else np.array([1.0, 0.0])
    lateral = np.array([-view[1], view[0]])
    shift = raw.pose.xy - prev.xy
    new_xy = prev.xy + lateral * float(np.dot(shift, lateral))
    return replace(raw, pose=PoseSE2(new_xy[0], new_xy[1], prev.theta), gated=True)


def average_estimates(estimates) -> PoseEstimate:
    """Information-weighted mean of estimates taken at a static robot."""
    if not estimates:
        raise EmptyInput("no estimates to average")
    stamps = [e.stamp for e in estimates]
    if max(stamps) - min(stamps) > AVERAGE_SPAN:
        raise ValueError(f"estimates span more than {AVERAGE_SPAN:g} s")
    info_pos = np.zeros((2, 2))
    weighted_pos = np.zeros(2)
    theta_info = []
    for e in estimates:
        lam = np.linalg.inv(e.covariance[:2, :2])
        info_pos += lam
        weighted_pos += lam @ e.pose.xy
        theta_info.append(1.0 / e.covariance[2, 2])
    cov_pos = np.linalg.inv(info_pos)
    pos = cov_pos @ weighted_pos
    theta = circular_weighted_mean([e.pose.theta for e in estimates], theta_info)
    var_theta = 1.0 / sum(theta_info)
    cov = np.zeros((3, 3))
    cov[:2, :2] = cov_pos
    cov[2, 2] = var_theta
    return PoseEstimate(
        pose=PoseSE2(pos[0], pos[1], theta),
        covariance=cov,
        rms_residual=float(np.mean([e.rms_residual for e in estimates])),
        n_cameras=max(e.n_cameras for e in estimates),
        n_keypoints=max(e.n_keypoints for e in estimates),
        stamp=float(np.mean(stamps)),
        gated=any(e.gated for e in estimates),
    )
