"""Multi-view pose estimation from synchronized keypoint detections.

Implements the one pose solve: a weighted nonlinear least-squares fit of
the ground-plane pose to a Huber-robustified pixel residual, run for a
block of frame-sets at once in one vectorized Levenberg-Marquardt loop
(solve_batch), each frame-set from its own start or from its own
algebraic seed, which is taken there alone. solve_multiview, prior-free
initialization and the single-view candidate are each a block of one
row; the pose graph runs the same LM rule in the generic
levenberg_marquardt. Also the single-camera bearing-only outlier gate and
information-weighted averaging. Every solve's covariance is sigma^2 *
H^-1 from its own Gauss-Newton Hessian H, with sigma^2 the residual
variance (cf. Triggs et al., "Bundle Adjustment - A Modern
Synthesis", 2000), and that one covariance, by its full 3x3 information,
weights every blend: of consecutive static estimates, of the robot's
belief and a fix, and in the pose graph.
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
)
from .geometry import (
    CameraModel,
    FlatObservations,
    ObservationBlock,
    PoseSE2,
    RobotModel,
    angle_diff,
    flatten_observations,
    reprojection_kernels,
    wrap_angles,
)
from .sync import FrameSet

# Keypoints some camera must report for relocalization, and a single-view
# candidate needs.
MIN_SEED_KEYPOINTS = 4
# Longest stamp span of the estimates that average_estimates accepts.
AVERAGE_SPAN = 2.0  # s
# Floor of the residual sd that scales a covariance: noiseless detections
# leave an objective of 0.
R_MIN = 0.5  # px
# The LM's lam is floored at LAMBDA_MIN on accept, and a rejected streak
# ends once it passes LAMBDA_MAX. DAMPING_FLOOR floors each diagonal entry
# of the pose solve's damping matrix, and GRAD_TOL is its gradient stop.
LAMBDA_MIN, LAMBDA_MAX = 1e-12, 1e12
DAMPING_FLOOR = 1e-12
GRAD_TOL = 1e-14  # px^2 per unit of (x, y, theta)
# Frame-sets per block that pass 2 gathers and solve_batch solves: a block's
# arrays take about 3 MB.
BATCH_BLOCK = 128


@dataclass
class SolverConfig:
    max_iterations: int = 50
    convergence_tol: float = 1e-10  # relative objective change
    lm_lambda_init: float = 1e-3
    lm_lambda_scale: float = 10.0
    huber_delta: float = 5.0  # px

    def __post_init__(self):
        if not all(v > 0 for v in (
            self.max_iterations,
            self.convergence_tol,
            self.lm_lambda_init,
            self.huber_delta,
        )):
            raise ValueError("all solver constants must be positive")
        # a rejected trial retries at lam * scale until lam passes LAMBDA_MAX
        if not self.lm_lambda_scale > 1:
            raise ValueError(f"lm_lambda_scale {self.lm_lambda_scale!r} must exceed 1")


@dataclass
class GateThresholds:
    d_theta: float = math.radians(15.0)
    d_depth: float = 0.30  # m

    def __post_init__(self):
        if not (self.d_theta > 0 and self.d_depth > 0):
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
        values = cov.ravel().tolist()
        if not all(map(math.isfinite, values)):
            raise ValueError("estimate covariance must be finite")
        if not positive_definite(values):
            raise np.linalg.LinAlgError("estimate covariance is not positive definite")


def positive_definite(values) -> bool:
    """Whether the symmetric 3x3 matrix with row-major entries ``values``
    is positive definite: its three Cholesky pivots, taken from the lower
    triangle in the order of LAPACK's potrf, are positive. On Python
    floats, where at 3x3 numpy's per-call cost would be most of the work;
    a NaN pivot fails."""
    a00, _, _, a10, a11, _, a20, a21, a22 = values
    if not a00 > 0.0:
        return False
    l00 = math.sqrt(a00)
    l10, l20 = a10 / l00, a20 / l00
    p1 = a11 - l10 * l10
    if not p1 > 0.0:
        return False
    l21 = (a21 - l20 * l10) / math.sqrt(p1)
    return a22 - l20 * l20 - l21 * l21 > 0.0


def _huber_cost(norms, delta):
    """Huber cost of each residual norm: norm^2 within delta, linear beyond."""
    return np.where(norms <= delta, norms**2, 2.0 * delta * norms - delta**2)


def _huber_weight(norms, wts, delta):
    """Detection weights times the Huber reweighting of their residual norms."""
    return wts * np.where(norms <= delta, 1.0, delta / np.maximum(norms, 1e-12))


@np.errstate(over="ignore", invalid="ignore")
def levenberg_marquardt(start, evaluate, linearize, trial, lam: float, grad_tol: float,
                        config: SolverConfig):
    """Levenberg-Marquardt from ``start``: the pose graph's loop, which
    passes ``evaluate(state) -> (objective, residuals)``,
    ``linearize(state, residuals) -> (system, gradient)`` and
    ``trial(state, system, gradient, lam) -> state``, the step damped by
    lam. solve_batch runs the same rule for many pose solves at once.

    A trial is accepted iff it lowers the objective, so the NaN trial of a
    system with no solution never is. lam is divided by ``lm_lambda_scale``
    on accept, floored at LAMBDA_MIN, and multiplied by it on reject. The
    loop stops at a relative objective change below ``convergence_tol``,
    after ``max_iterations`` linearizations, at a gradient norm below
    ``grad_tol``, or once lam exceeds LAMBDA_MAX: no step improves the objective
    within machine precision, a stationary point unless the state is
    non-finite. That is divergence, and the overflow on its way is not
    reported by numpy. Returns (state, objective, iterations, diverged,
    system), the system of the last linearization.
    """
    obj, res = evaluate(start)
    state, scale = start, config.lm_lambda_scale
    for iters in range(1, config.max_iterations + 1):
        system, grad = linearize(state, res)
        if np.sqrt(np.add.reduce(grad * grad)) < grad_tol:
            break
        while True:
            t_state = trial(state, system, grad, lam)
            t_obj, t_res = evaluate(t_state)
            if t_obj < obj:
                break
            lam *= scale
            if lam > LAMBDA_MAX:
                diverged = not (math.isfinite(obj) and np.isfinite(state).all())
                return state, obj, iters, diverged, system
        rel = (obj - t_obj) / max(obj, 1e-300)
        state, obj, res, lam = t_state, t_obj, t_res, max(lam / scale, LAMBDA_MIN)
        if rel < config.convergence_tol:
            break
    return state, obj, iters, False, system


def solve_multiview(
    obs: FlatObservations, init: PoseSE2 | None = None, config: SolverConfig | None = None
) -> PoseEstimate:
    """Refine the robot pose on a flattened frame-set by robust LM from
    init, or without it from the algebraic seed of all its columns:
    solve_batch of the frame-set as a block of one row. Raises
    InsufficientObservations where that seed is singular."""
    block = ObservationBlock(obs.linear_map[None], obs.center[:, None], obs.pixel[:, None],
                             obs.weight[None], np.array([obs.n_rows]), (obs.stamp,),
                             (obs.cameras,), (obs.offsets,), (obs.rejected,), (0,), ())
    starts = None if init is None else init.as_array()[:, None]
    (est,) = solve_batch(block, config, starts=starts)
    if est is None:
        raise InsufficientObservations(f"{obs.n_rows} keypoints leave the algebraic seed singular")
    if isinstance(est, Exception):
        raise est
    return est


# -- the batched solve ----------------------------------------------------
#
# A block of N frame-sets is held in arrays whose last two axes are
# (frame-set, column), and each frame-set's columns are padded with zeros to
# the block's widest, W. A zero column has a zero linear map, pixel,
# principal point and weight, so its residual, Jacobian and cost are exactly
# 0. Each projection is its own matmul and each sum over columns runs in
# column order, which those zeros leave bit for bit, so a frame-set's answer
# does not depend on the block it is solved in.


def _column_dot(a, b):
    """(a * b).sum(-1) of a and b (..., W), added up column by column: zero
    columns appended leave it bit for bit, which the pairwise sum of
    np.add.reduce does not promise, and no (..., W) product is held."""
    total = a[..., 0] * b[..., 0]
    for k in range(1, b.shape[-1]):
        total += a[..., k] * b[..., k]
    return total


def _each(fn, *stacks):
    """fn over stacks of matrices in one call: (result, raised). Where a
    matrix makes fn raise LinAlgError, as a singular one makes
    np.linalg.solve, the stack is redone one matrix at a time, and that
    matrix's result is NaN and its ``raised`` True."""
    raised = np.zeros(len(stacks[0]), dtype=bool)
    try:
        return fn(*stacks), raised
    except np.linalg.LinAlgError:
        pass
    out = np.full(stacks[-1].shape, np.nan)
    for n in range(len(out)):
        try:
            out[n] = fn(*(a[n:n + 1] for a in stacks))[0]
        except np.linalg.LinAlgError:
            raised[n] = True
    return out, raised


def _solve_stack(a, b):
    return np.linalg.solve(a, b[..., None])[..., 0]


@np.errstate(over="ignore", invalid="ignore")
def _algebraic_seeds(linear_map, offset, weight):
    """Pose (x, y, theta) of each frame-set of a block from one weighted
    linear solve, the planar form of DLT pose initialization (Hartley &
    Zisserman, Multiple View Geometry, 2nd ed., sec. 7.1), over all its
    columns, whichever camera each comes from: the rig is one generalized
    camera (Pless, "Using Many Cameras as One", CVPR 2003).

    Keypoint k's camera-frame point is linear in q = (cos, sin, x, y, 1),
    so its pixel offset (u', v') gives two equations (L_x - u' L_z) q = 0
    and (L_y - v' L_z) q = 0, each weighted by max(confidence, 1e-6); their
    4x4 normal equations give (cos, sin, x, y), and theta = atan2(sin, cos).
    From the linear map (N, 5, 3W), pixel offsets (2, N, W) and confidences
    (N, W): (seeds (3, N), singular (N,)), with NaN seeds where the normal
    equations are singular. A non-finite seed is returned as it is: the LM
    from it diverges.
    """
    lin = linear_map.reshape(len(weight), 5, 3, -1).transpose(1, 2, 0, 3)
    eqs = lin[:, :2] - offset * lin[:, 2:]
    weighted = eqs[:4] * np.maximum(weight, 1e-6)
    u, v = _column_dot(weighted[:, None], eqs).transpose(2, 3, 0, 1)  # (N, 4, 5) each
    normal = u + v
    solution, singular = _each(_solve_stack, normal[:, :, :4], -normal[:, :, 4])
    c, s, x, y = solution.T
    return np.array([x, y, np.arctan2(s, c)]), singular


def _rows(arrays, keep):
    """The block arrays (linear map, pixel, principal point, weight) of the
    rows ``keep``."""
    linear_map, *rest = arrays
    return (linear_map[keep], *(a[..., keep, :] for a in rest))


@np.errstate(over="ignore", invalid="ignore")
def solve_batch(block: ObservationBlock, config: SolverConfig | None = None,
                starts=None) -> list:
    """The robust pose solve of each row of a block of frame-sets (see
    geometry.gather_observations) in one vectorized LM, from starts (3, N)
    where given, else from each row's own algebraic seed.

    Each frame-set keeps its own lam, accept test, iteration count and stops,
    with levenberg_marquardt's rule and constants, and leaves the block once
    it stops. Its covariance is sigma^2 * H^-1, with sigma^2 = objective /
    (2K - 3) the residual variance of its K keypoints floored at R_MIN^2.
    Returns one entry per row: its PoseEstimate; its error, as an instance
    (InsufficientObservations, for fewer than 3 columns or a covariance that
    is not finite and positive definite, as when every confidence is 0 or
    one absurd pixel swamps the objective, or SolverDiverged); or None where
    its seed is singular, so that it needs a start of its own. A row with
    fewer than 3 columns or a singular seed stays out of the LM.
    """
    config = config or SolverConfig()
    delta, scale = config.huber_delta, config.lm_lambda_scale
    rows = block.n_rows

    def evaluate(params, lin, pixel, center, wts):
        """The objective (N,) at params and the Huber-reweighted Gauss-Newton
        system (N, 3, 4) there: the hessian, then the gradient."""
        res, jac = reprojection_kernels(params, lin, pixel, center)
        norms = np.sqrt(res[0] * res[0] + res[1] * res[1])
        jw = (jac * _huber_weight(norms, wts, delta))[:, None]
        u, v = _column_dot(jw, np.concatenate([jac, res[None]])).transpose(2, 3, 0, 1)
        return _column_dot(wts, _huber_cost(norms, delta)), u + v

    # the rows in the LM and their arrays; each that stops leaves for the final_*
    live = np.flatnonzero(rows >= 3)
    arrays = (block.linear_map, block.pixel, block.center, block.weight)
    if len(live) < len(rows):
        arrays = _rows(arrays, live)
    singular = np.zeros(len(rows), dtype=bool)
    if starts is not None:
        params = np.asarray(starts, dtype=float)[:, live]
    elif len(live):
        lin, pixel, center, wts = arrays
        params, singular[live] = _algebraic_seeds(lin, pixel - center, wts)
        seeded = ~singular[live]
        if not seeded.all():
            arrays, live, params = _rows(arrays, seeded), live[seeded], params[:, seeded]
    if len(live):
        obj, system = evaluate(params, *arrays)
    lam = np.full(len(live), config.lm_lambda_init)
    iters = np.ones(len(live), dtype=int)  # linearizations, this round's included
    final_params, final_obj = np.zeros((3, len(rows))), np.zeros(len(rows))
    final_iters = np.zeros(len(rows), dtype=int)
    final_hess = np.tile(np.eye(3), (len(rows), 1, 1))  # inverts where no LM ran
    diverged = np.zeros(len(rows), dtype=bool)
    diagonal = np.arange(3)
    while len(live):
        hess, grad = system[:, :, :3], system[:, :, 3]
        stop = np.sqrt(np.add.reduce(grad * grad, axis=1)) < GRAD_TOL
        damped = hess.copy()
        damped[:, diagonal, diagonal] += lam[:, None] * np.maximum(
            hess[:, diagonal, diagonal], DAMPING_FLOOR)
        trial = params - _each(_solve_stack, damped, grad)[0].T
        trial[2] = wrap_angles(trial[2])
        t_obj, t_system = evaluate(trial, *arrays)
        accept = (t_obj < obj) & ~stop
        rel = (obj - t_obj) / np.maximum(obj, 1e-300)
        lam = np.where(accept, np.maximum(lam / scale, LAMBDA_MIN), lam * scale)
        give_up = ~accept & ~stop & (lam > LAMBDA_MAX)
        done = stop | give_up | accept & ((rel < config.convergence_tol)
                                          | (iters == config.max_iterations))
        params = np.where(accept, trial, params)
        obj = np.where(accept, t_obj, obj)
        system = np.where(accept[:, None, None], t_system, system)
        iters += accept & ~done
        if done.any():  # the state after this round, the hessian before its step
            out = live[done]
            final_params[:, out], final_obj[out] = params[:, done], obj[done]
            final_iters[out], final_hess[out] = iters[done], hess[done]
            diverged[out] = give_up[done] & ~(np.isfinite(obj[done])
                                              & np.isfinite(params[:, done]).all(axis=0))
            keep = ~done
            live, params, obj, system, lam, iters = (
                live[keep], params[:, keep], obj[keep], system[keep], lam[keep], iters[keep])
            arrays = _rows(arrays, keep)

    sigma2 = np.maximum(final_obj / (2 * rows - 3), R_MIN**2)
    cov = sigma2[:, None, None] * _each(np.linalg.inv, final_hess)[0]
    definite = (np.isfinite(cov).all(axis=(1, 2))
                & np.isfinite(_each(np.linalg.cholesky, cov)[0]).all(axis=(1, 2)))
    return [InsufficientObservations(f"{k} keypoint observations (need 3)") if k < 3
            else None if singular[n]
            else SolverDiverged("the LM start ended in a non-finite state") if diverged[n]
            else InsufficientObservations(
                f"{k} keypoint observations leave the pose unconstrained") if not definite[n]
            else PoseEstimate(PoseSE2(*final_params[:, n]), cov[n],
                              math.sqrt(final_obj[n] / k), len(block.cameras[n]), k,
                              block.stamps[n], n_iterations=int(final_iters[n]))
            for n, k in enumerate(rows.tolist())]


def single_view_candidate(
    obs: FlatObservations, config: SolverConfig | None = None
) -> PoseEstimate:
    """Ground-plane pose from one camera's flattened columns: solve_multiview
    from their algebraic seed, which is exact for noise-free detections and
    so starts the LM in the basin of the least-squares pose; the narrow
    robot body leaves the heading multi-modal for starts far from it. The
    answer carries the covariance of its own solve, long along the camera's
    viewing ray.
    """
    if obs.n_rows < MIN_SEED_KEYPOINTS:
        raise InsufficientKeypoints(f"{obs.n_rows} keypoints from one camera "
                                    f"(need {MIN_SEED_KEYPOINTS})")
    return solve_multiview(obs, None, config)


def initialize_global(
    frameset: FrameSet,
    cameras,
    model: RobotModel,
    config: SolverConfig | None = None,
) -> PoseEstimate:
    """Prior-free (kidnapped robot) initialization from a frame-set:
    solve_multiview, without a start, from the algebraic seed of all its
    columns. The library's entry point for one frame-set; the pipeline
    takes its first fix as a row of its batch instead, without the
    NoEligibleCamera precondition.

    Raises NoEligibleCamera unless some camera has MIN_SEED_KEYPOINTS
    keypoints, InsufficientObservations where the seed is singular or the
    solve leaves the pose unconstrained, and SolverDiverged where it
    diverges.
    """
    obs = flatten_observations(frameset, cameras, model)
    if max(np.diff(obs.offsets), default=0) < MIN_SEED_KEYPOINTS:
        raise NoEligibleCamera(f"no camera message with >= {MIN_SEED_KEYPOINTS} keypoints")
    return solve_multiview(obs, None, config)


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


def information_mean(poses, covariances):
    """(mean, covariance) of poses, each weighed by its full information
    Lambda_k = inv(covariance), with its heading unwrapped about the first
    pose's: inv(sum Lambda_k) sum Lambda_k m_k and inv(sum Lambda_k), the
    optimum of a one-node pose graph holding the poses as unary constraints.
    """
    theta0 = poses[0].theta
    info, weighted = np.zeros((3, 3)), np.zeros(3)
    for pose, covariance in zip(poses, covariances):
        lam = np.linalg.inv(covariance)
        info += lam
        weighted += lam @ (pose.x, pose.y, theta0 + angle_diff(pose.theta, theta0))
    cov = np.linalg.inv(info)
    return PoseSE2(*(cov @ weighted)), cov


def average_estimates(estimates) -> PoseEstimate:
    """information_mean of estimates taken at a static robot."""
    if not estimates:
        raise EmptyInput("no estimates to average")
    stamps = [e.stamp for e in estimates]
    if max(stamps) - min(stamps) > AVERAGE_SPAN:
        raise ValueError(f"estimates span more than {AVERAGE_SPAN:g} s")
    pose, cov = information_mean([e.pose for e in estimates], [e.covariance for e in estimates])
    return PoseEstimate(
        pose=pose,
        covariance=cov,
        rms_residual=float(np.mean([e.rms_residual for e in estimates])),
        n_cameras=max(e.n_cameras for e in estimates),
        n_keypoints=max(e.n_keypoints for e in estimates),
        stamp=float(np.mean(stamps)),
        gated=any(e.gated for e in estimates),
    )
