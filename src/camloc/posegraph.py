"""Pose graph fusing drifting odometry with absolute camera estimates.

Trajectory nodes form one chain: odometry edge k links node k to node
k + 1, and node 0, the anchor, is made with the graph. Sparse camera-network
estimates attach as unary absolute constraints. Each residual is written in
the frame its information matrix is written in (cf. Grisetti et al., "A
Tutorial on Graph-Based SLAM", 2010): a unary residual is (p - m,
wrap(theta - theta_m)) in the world frame of the estimate's covariance, and
an odometry residual is R(-theta_i)(p_j - p_i) - delta_xy, wrap(theta_j -
theta_i - delta_theta) in node i's frame, where odometry draws its noise.
Nodes and edges are kept as plain lists, each edge with its covariance; a
solve stacks them into arrays and inverts every covariance in one batch.
The graph is solved on the ground-plane manifold by the LM loop of the pose
solve (estimation.levenberg_marquardt), with residual and normal-equation
assembly vectorized across edges. The chain's Hessian is block-tridiagonal
in 3x3 blocks, so each trial step is one banded Cholesky solve over the
whole graph.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import GaugeFree, SolverDiverged, UnknownNode
from .estimation import PoseEstimate, SolverConfig, levenberg_marquardt, positive_definite
from .geometry import PoseSE2, wrap_angles
from .sync import nearest_stamp_index

STAMP_MISMATCH_WARN = 0.1  # s; a nearest node farther off counts a mismatch


@dataclass(frozen=True)
class Node:
    id: int
    stamp: float
    pose: PoseSE2


def _into_frame(theta, d):
    """Rows of d (n, 2) expressed in frames turned by theta (n,): R(-theta) d."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([c * d[:, 0] + s * d[:, 1], -s * d[:, 0] + c * d[:, 1]], axis=1)


def _rot2(c, s):
    """Stack of 2x2 matrices [[c, s], [-s, c]], one per element."""
    return np.stack([c, s, -s, c], axis=1).reshape(-1, 2, 2)


# (row, col) in a 3x3 block of its upper triangle, and of all its entries
_UPPER = np.triu_indices(3)
_BLOCK = np.indices((3, 3)).reshape(2, -1)


class PoseGraph:
    def __init__(self, initial_pose: PoseSE2 | None = None, initial_stamp: float = 0.0):
        self.nodes = [Node(0, initial_stamp, initial_pose or PoseSE2())]  # the anchor
        self._stamps = [initial_stamp]  # the nodes' stamps, for nearest_node
        self.odometry_edges: list[tuple] = []  # (delta (3,), covariance (3, 3))
        self.unary_edges: list[tuple] = []  # (node id, measurement (3,), covariance (3, 3))
        self.stamp_mismatch_warnings = 0

    def add_odometry(self, delta: PoseSE2, covariance, stamp: float) -> int:
        """Append a node at previous ∘ delta with a binary odometry edge.
        Raises LinAlgError unless the covariance is finite, symmetric and
        positive definite: the solve inverts all of it."""
        cov = np.array(covariance, dtype=float).reshape(3, 3)
        a = cov.ravel().tolist()
        if not (all(map(math.isfinite, a)) and a[1] == a[3] and a[2] == a[6] and a[5] == a[7]
                and positive_definite(a)):
            raise np.linalg.LinAlgError(
                "odometry covariance is not finite, symmetric and positive definite")
        prev = self.nodes[-1]
        if stamp <= prev.stamp:
            raise ValueError("node stamps must be strictly increasing")
        self.nodes.append(Node(len(self.nodes), stamp, prev.pose.compose(delta)))
        self._stamps.append(stamp)
        self.odometry_edges.append((delta.as_array(), cov))
        return len(self.nodes) - 1

    def add_camera_estimate(self, node_id: int, estimate: PoseEstimate) -> None:
        """Attach an absolute unary constraint to an existing node; a
        PoseEstimate's covariance is positive definite by construction."""
        if not 0 <= node_id < len(self.nodes):
            raise UnknownNode(f"node {node_id} does not exist")
        self.unary_edges.append((node_id, estimate.pose.as_array(), estimate.covariance))

    def nearest_node(self, stamp: float) -> int:
        """Node id with stamp closest to the given stamp."""
        # the nearest stamp is one of the two that bracket the query
        first = max(bisect.bisect_left(self._stamps, stamp) - 1, 0)
        best = self.nodes[first + int(nearest_stamp_index(self._stamps[first:first + 2], stamp))]
        if abs(best.stamp - stamp) > STAMP_MISMATCH_WARN:
            self.stamp_mismatch_warnings += 1
        return best.id

    def trajectory(self):
        return [(n.stamp, n.pose) for n in self.nodes]

    # -- optimization -----------------------------------------------------

    def _pose_array(self) -> np.ndarray:
        """The node poses as an (n, 3) array of (x, y, theta) rows."""
        return np.array([(n.pose.x, n.pose.y, n.pose.theta) for n in self.nodes])

    def _edge_arrays(self):
        """The edges as arrays, the layout the batched solver math expects:
        (deltas, odometry information, unary node ids, measurements, unary
        information). Every covariance is inverted here, in one batch."""
        odo, un = self.odometry_edges, self.unary_edges
        deltas = np.array([d for d, _ in odo]).reshape(-1, 3)
        o_cov = np.array([c for _, c in odo]).reshape(-1, 3, 3)
        ids = np.array([i for i, _, _ in un], dtype=int)
        measurements = np.array([m for _, m, _ in un]).reshape(-1, 3)
        u_cov = np.array([c for _, _, c in un]).reshape(-1, 3, 3)
        return deltas, np.linalg.inv(o_cov), ids, measurements, np.linalg.inv(u_cov)

    @staticmethod
    def _residuals(poses, od, ui, um):
        xi, xj = poses[:-1], poses[1:]
        et = _into_frame(xi[:, 2], xj[:, :2] - xi[:, :2]) - od[:, :2]
        eth = wrap_angles(xj[:, 2] - xi[:, 2] - od[:, 2])
        r_odo = np.concatenate([et, eth[:, None]], axis=1)

        r_un = poses[ui] - um
        r_un[:, 2] = wrap_angles(r_un[:, 2])
        return r_odo, r_un

    def _objective_from(self, poses, arrays):
        """Objective at ``poses`` and the residuals it was computed from."""
        od, o_info, ui, um, u_info = arrays
        r_odo, r_un = self._residuals(poses, od, ui, um)
        obj = (float(np.einsum("ei,eij,ej->", r_odo, o_info, r_odo))
               + float(np.einsum("ei,eij,ej->", r_un, u_info, r_un)))
        return obj, (r_odo, r_un)

    def objective(self) -> float:
        return self._objective_from(self._pose_array(), self._edge_arrays())[0]

    def optimize(self, config: SolverConfig | None = None):
        """Minimize the sum of Mahalanobis residuals over every node, from
        the current poses, and replace ``nodes`` by nodes at the solution."""
        import scipy.linalg  # here, not at module level: the import alone costs ~0.3 s
        config = config or SolverConfig()
        if not self.unary_edges:
            raise GaugeFree("graph has no absolute constraint")
        arrays = self._edge_arrays()
        poses = self._pose_array()

        def evaluate(state):
            return self._objective_from(state, arrays)

        def linearize(state, residuals):
            return self._normal_equations(state, arrays, residuals)

        def trial(state, band, grad, lam):
            damped = band.copy()
            damped[-1] += lam * np.maximum(band[-1], 1e-12)
            try:
                step = scipy.linalg.solveh_banded(damped, -grad, check_finite=False)
            except np.linalg.LinAlgError:  # not positive definite: a NaN step
                step = np.full_like(grad, np.nan)
            state = state + step.reshape(-1, 3)
            state[:, 2] = wrap_angles(state[:, 2])
            return state

        # from the dead-reckoned chain every odometry residual starts at 0
        # and the fixes pull the headings by the small drift only, so the
        # problem is near-quadratic: begin with almost-undamped Gauss-Newton
        # and let LM raise damping on demand
        poses, obj, _, diverged, _ = levenberg_marquardt(
            poses, evaluate, linearize, trial, min(config.lm_lambda_init, 1e-8), 1e-12, config)
        if diverged:
            raise SolverDiverged(f"non-finite state at objective {obj:.3g}")
        self.nodes = [Node(n.id, n.stamp, PoseSE2(*p)) for n, p in zip(self.nodes, poses.tolist())]

    def _normal_equations(self, poses, arrays, residuals):
        """Upper band (6, 3n) and gradient (3n,) of the normal equations in
        the n nodes, given the edge residuals at ``poses``. The chain's
        Hessian is block-tridiagonal in 3x3 blocks: entry (i, j), i <= j,
        sits at band[5 + i - j, j], as scipy.linalg.solveh_banded reads it."""
        od, o_info, ui, _, u_info = arrays
        r_odo, r_un = residuals

        xi = poses[:-1]
        d = poses[1:, :2] - xi[:, :2]
        ct, st = np.cos(xi[:, 2]), np.sin(xi[:, 2])
        # R(-theta_i) and its derivative w.r.t. theta_i
        b, db = _rot2(ct, st), _rot2(-st, ct)
        ji = np.zeros((len(od), 3, 3))
        jj = np.zeros((len(od), 3, 3))
        ji[:, :2, :2] = -b
        ji[:, :2, 2] = np.einsum("eij,ej->ei", db, d)
        ji[:, 2, 2] = -1.0
        jj[:, :2, :2] = b
        jj[:, 2, 2] = 1.0
        ji_t = ji.transpose(0, 2, 1)
        jj_t = jj.transpose(0, 2, 1)
        w_jj = o_info @ jj
        wr = o_info @ r_odo[:, :, None]

        # diagonal blocks, off-diagonal (k, k+1) blocks and gradient, by node
        diag = np.zeros((len(poses), 3, 3))
        grad = np.zeros((len(poses), 3))
        diag[:-1] += ji_t @ (o_info @ ji)
        diag[1:] += jj_t @ w_jj
        off = ji_t @ w_jj
        grad[:-1] += (ji_t @ wr)[:, :, 0]
        grad[1:] += (jj_t @ wr)[:, :, 0]

        # a unary residual's Jacobian is the identity
        np.add.at(diag, ui, u_info)
        np.add.at(grad, ui, (u_info @ r_un[:, :, None])[:, :, 0])

        band = np.zeros((6, len(diag), 3))  # (band row, block column, column in block)
        band[5 + _UPPER[0] - _UPPER[1], :, _UPPER[1]] = diag[:, _UPPER[0], _UPPER[1]].T
        band[2 + _BLOCK[0] - _BLOCK[1], 1:, _BLOCK[1]] = off[:, _BLOCK[0], _BLOCK[1]].T
        return band.reshape(6, -1), grad.ravel()

