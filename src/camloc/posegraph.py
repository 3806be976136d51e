"""Pose graph fusing drifting odometry with absolute camera estimates.

Trajectory nodes are chained by binary odometry constraints; sparse
camera-network estimates attach as unary absolute constraints. The graph
is solved by damped Gauss-Newton on the ground-plane manifold, with
residual and normal-equation assembly vectorized across edges. A solve
covers either the whole graph (batch) or a fixed-lag window of its newest
nodes, with the node just before the window held fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import GaugeFree, SolverDiverged, UnknownNode
from .estimation import PoseEstimate, SolverConfig
from .geometry import PoseSE2, wrap_angle
from .sync import nearest_stamp_index


class _Rows:
    """Append-only array of equal-shape rows, grown by doubling."""

    def __init__(self, dtype=float, shape=()):
        self._data = np.empty((8, *shape), dtype=dtype)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def append(self, row) -> None:
        if self._n == len(self._data):
            self._data = np.concatenate([self._data, np.empty_like(self._data)])
        self._data[self._n] = row
        self._n += 1

    @property
    def view(self) -> np.ndarray:
        return self._data[: self._n]


ODOMETRY_EDGE = np.dtype(
    [("from_id", int), ("to_id", int), ("delta", float, 3), ("information", float, (3, 3))]
)
UNARY_EDGE = np.dtype(
    [("node_id", int), ("measurement", float, 3), ("information", float, (3, 3))]
)


@dataclass
class Node:
    id: int
    stamp: float
    _poses: _Rows = field(repr=False, compare=False)

    @property
    def pose(self) -> PoseSE2:
        """Current estimate, read from the graph's pose array."""
        return PoseSE2(*self._poses.view[self.id])


def _information(covariance) -> np.ndarray:
    cov = np.asarray(covariance, dtype=float).reshape(3, 3)
    np.linalg.cholesky(cov)  # positive-definite check
    return np.linalg.inv(cov)


def _wrap(arr):
    return (arr + np.pi) % (2.0 * np.pi) - np.pi


def _rot2(c, s):
    """Stack of 2x2 matrices [[c, s], [-s, c]], one per element."""
    return np.stack([c, s, -s, c], axis=1).reshape(-1, 2, 2)


class PoseGraph:
    def __init__(self, initial_pose: PoseSE2 | None = None, initial_stamp: float = 0.0):
        self._anchor_pose = initial_pose or PoseSE2()
        self._anchor_stamp = initial_stamp
        self.nodes: list[Node] = []
        self._stamps = _Rows()
        self._poses = _Rows(shape=(3,))
        self.odometry_edges = _Rows(ODOMETRY_EDGE)
        self.unary_edges = _Rows(UNARY_EDGE)
        self.stamp_mismatch_warnings = 0

    def _add_node(self, stamp: float, pose: PoseSE2) -> Node:
        self.nodes.append(Node(len(self.nodes), stamp, self._poses))
        self._stamps.append(stamp)
        self._poses.append(pose.as_array())
        return self.nodes[-1]

    def add_odometry(self, delta: PoseSE2, covariance, stamp: float | None = None) -> int:
        """Append a node at previous ∘ delta with a binary odometry edge."""
        info = _information(covariance)
        if not self.nodes:
            self._add_node(self._anchor_stamp, self._anchor_pose)
        prev = self.nodes[-1]
        if stamp is None:
            stamp = prev.stamp + 1.0
        if stamp <= prev.stamp:
            raise ValueError("node stamps must be strictly increasing")
        node = self._add_node(stamp, prev.pose.compose(delta))
        self.odometry_edges.append((prev.id, node.id, delta.as_array(), info))
        return node.id

    def add_camera_estimate(self, node_id: int, estimate: PoseEstimate) -> None:
        """Attach an absolute unary constraint to an existing node."""
        if not 0 <= node_id < len(self.nodes) or self.nodes[node_id].id != node_id:
            raise UnknownNode(f"node {node_id} does not exist")
        info = _information(estimate.covariance)
        self.unary_edges.append((node_id, estimate.pose.as_array(), info))

    def nearest_node(self, stamp: float, warn_beyond: float = 0.1) -> int:
        """Node id with stamp closest to the given stamp."""
        if not self.nodes:
            raise UnknownNode("graph is empty")
        best = self.nodes[int(nearest_stamp_index(self._stamps.view, stamp))]
        if abs(best.stamp - stamp) > warn_beyond:
            self.stamp_mismatch_warnings += 1
        return best.id

    def trajectory(self):
        return [(n.stamp, n.pose) for n in self.nodes]

    # -- optimization -----------------------------------------------------

    def _edge_arrays(self, first: int = 0):
        """Fields of the edges touching a node at or after ``first``, as
        C-contiguous arrays, the layout the batched solver math expects.

        Returns the arrays and ``base``, the lowest node id they touch; node
        ids in the arrays count from ``base``.
        """
        odo, un = self.odometry_edges.view, self.unary_edges.view
        odo = odo[(odo["from_id"] >= first) | (odo["to_id"] >= first)]
        un = un[un["node_id"] >= first]
        base = min(first, odo["from_id"].min(initial=first), odo["to_id"].min(initial=first))
        fields = (odo["from_id"] - base, odo["to_id"] - base, odo["delta"], odo["information"],
                  un["node_id"] - base, un["measurement"], un["information"])
        return tuple(np.ascontiguousarray(f) for f in fields), base

    @staticmethod
    def _residuals(params, oi, oj, od, ui, um):
        p = params.reshape(-1, 3)
        xi, xj = p[oi], p[oj]
        ct, st = np.cos(xi[:, 2]), np.sin(xi[:, 2])
        d = xj[:, :2] - xi[:, :2]
        # rel = R(-theta_i) d
        rel = np.stack([ct * d[:, 0] + st * d[:, 1], -st * d[:, 0] + ct * d[:, 1]], axis=1)
        ca, sa = np.cos(od[:, 2]), np.sin(od[:, 2])
        diff = rel - od[:, :2]
        et = np.stack(
            [ca * diff[:, 0] + sa * diff[:, 1], -sa * diff[:, 0] + ca * diff[:, 1]],
            axis=1,
        )
        eth = _wrap(xj[:, 2] - xi[:, 2] - od[:, 2])
        r_odo = np.concatenate([et, eth[:, None]], axis=1)

        xu = p[ui]
        cm, sm = np.cos(um[:, 2]), np.sin(um[:, 2])
        du = xu[:, :2] - um[:, :2]
        etu = np.stack([cm * du[:, 0] + sm * du[:, 1], -sm * du[:, 0] + cm * du[:, 1]], axis=1)
        ethu = _wrap(xu[:, 2] - um[:, 2])
        r_un = np.concatenate([etu, ethu[:, None]], axis=1)
        return r_odo, r_un

    def _objective_from(self, params, arrays) -> float:
        oi, oj, od, o_info, ui, um, u_info = arrays
        r_odo, r_un = self._residuals(params, oi, oj, od, ui, um)
        return (float(np.einsum("ei,eij,ej->", r_odo, o_info, r_odo))
                + float(np.einsum("ei,eij,ej->", r_un, u_info, r_un)))

    def objective(self) -> float:
        return self._objective_from(self._poses.view.ravel(), self._edge_arrays()[0])

    def optimize(self, config: SolverConfig | None = None, lag: int | None = None):
        """Minimize the sum of Mahalanobis residuals.

        With ``lag`` set, only the newest ``lag`` nodes are free: the nodes
        they connect to are held fixed, and edges among older nodes, which
        are constants then, drop out. Otherwise the whole graph is solved.
        Node poses are updated in place so that repeated calls warm-start
        from the previous solution.
        """
        config = config or SolverConfig()
        if not self.unary_edges:
            raise GaugeFree("graph has no absolute constraint")
        if lag is not None and lag < 1:
            raise ValueError("lag must be at least 1")
        first = max(len(self.nodes) - lag, 0) if lag is not None else 0
        arrays, base = self._edge_arrays(first)
        k = 3 * (first - base)  # parameters of the fixed nodes, which lead
        pattern = self._hessian_pattern(arrays, k)
        params = self._poses.view[base:].ravel().copy()
        obj = self._objective_from(params, arrays)
        # warm starts leave the problem near-quadratic, so begin with
        # almost-undamped Gauss-Newton and let LM raise damping on demand
        lam = min(config.lm_lambda_init, 1e-8)
        for _ in range(config.max_iterations):
            hess, grad = self._normal_equations(params, arrays, pattern)
            if np.linalg.norm(grad) < 1e-12:
                break
            improved = False
            rel = 0.0
            while True:
                diag = hess.diagonal()
                damp = hess + scipy.sparse.diags(lam * np.maximum(diag, 1e-12))
                try:
                    step = scipy.sparse.linalg.spsolve(damp.tocsc(), -grad)
                except RuntimeError:
                    step = None
                if step is not None and np.all(np.isfinite(step)):
                    trial = params.copy()
                    trial[k:] += step
                    trial[k + 2::3] = _wrap(trial[k + 2::3])
                    t_obj = self._objective_from(trial, arrays)
                    if t_obj < obj:
                        rel = (obj - t_obj) / max(obj, 1e-300)
                        params, obj = trial, t_obj
                        lam = max(lam / config.lm_lambda_scale, 1e-12)
                        improved = True
                        break
                lam *= config.lm_lambda_scale
                if lam > 1e12:
                    # step shrunk to nothing: stationary within precision
                    if not np.isfinite(obj) or not np.all(np.isfinite(params)):
                        raise SolverDiverged(f"non-finite state at objective {obj:.3g}")
                    break
            if not improved:
                break
            if rel < config.convergence_tol:
                break
        poses = params[k:].reshape(-1, 3)
        poses[:, 2] = [wrap_angle(t) for t in poses[:, 2]]  # as PoseSE2 stores theta
        self._poses.view[first:] = poses

    @staticmethod
    def _hessian_pattern(arrays, k):
        """Index arrays of the normal equations in the free parameters, those
        from ``k`` on, fixed while the edges are: gradient slots of each edge
        end, and the (row, col) of every Hessian entry, blocks ordered ii, ij,
        ji, jj per odometry edge, then unary, with ``keep`` marking the
        entries between two free parameters."""
        oi, oj, _, _, ui, _, _ = arrays
        c = np.arange(3)
        rows, cols = [], []
        for idx_a, idx_b in ((oi, oi), (oi, oj), (oj, oi), (oj, oj), (ui, ui)):
            rr, cc = np.broadcast_arrays(3 * idx_a[:, None, None] + c[None, :, None],
                                         3 * idx_b[:, None, None] + c[None, None, :])
            rows.append(rr.ravel())
            cols.append(cc.ravel())
        rows, cols = np.concatenate(rows) - k, np.concatenate(cols) - k
        keep = (rows >= 0) & (cols >= 0)
        slots = tuple((3 * idx[:, None] + c).ravel() for idx in (oi, oj, ui))
        return slots, rows[keep], cols[keep], keep, k

    def _normal_equations(self, params, arrays, pattern):
        """Gradient and Hessian of the objective in the free parameters."""
        oi, oj, od, o_info, ui, um, u_info = arrays
        (slot_i, slot_j, slot_u), rows, cols, keep, k = pattern
        p = params.reshape(-1, 3)
        grad = np.zeros(len(params))
        vals = []

        r_odo, r_un = self._residuals(params, oi, oj, od, ui, um)

        if len(oi):
            e = len(oi)
            xi, xj = p[oi], p[oj]
            d = xj[:, :2] - xi[:, :2]
            ct, st = np.cos(xi[:, 2]), np.sin(xi[:, 2])
            a = _rot2(np.cos(od[:, 2]), np.sin(od[:, 2]))
            # R(-theta_i) and its derivative w.r.t. theta_i
            b, db = _rot2(ct, st), _rot2(-st, ct)
            ab = np.einsum("eij,ejk->eik", a, b)
            ji = np.zeros((e, 3, 3))
            jj = np.zeros((e, 3, 3))
            ji[:, :2, :2] = -ab
            ji[:, :2, 2] = np.einsum("eij,ejk,ek->ei", a, db, d)
            ji[:, 2, 2] = -1.0
            jj[:, :2, :2] = ab
            jj[:, 2, 2] = 1.0

            ji_t = ji.transpose(0, 2, 1)
            jj_t = jj.transpose(0, 2, 1)
            w_ji = o_info @ ji
            w_jj = o_info @ jj
            wr = (o_info @ r_odo[:, :, None])
            np.add.at(grad, slot_i, (ji_t @ wr)[:, :, 0].ravel())
            np.add.at(grad, slot_j, (jj_t @ wr)[:, :, 0].ravel())
            blk_ij = ji_t @ w_jj
            vals += [ji_t @ w_ji, blk_ij, blk_ij.transpose(0, 2, 1), jj_t @ w_jj]

        if len(ui):
            ju = np.zeros((len(ui), 3, 3))
            ju[:, :2, :2] = _rot2(np.cos(um[:, 2]), np.sin(um[:, 2]))
            ju[:, 2, 2] = 1.0
            ju_t = ju.transpose(0, 2, 1)
            contrib = (ju_t @ (u_info @ r_un[:, :, None]))[:, :, 0]
            np.add.at(grad, slot_u, contrib.ravel())
            vals.append(ju_t @ (u_info @ ju))

        n = len(params) - k
        hess = scipy.sparse.coo_matrix(
            (np.concatenate([v.ravel() for v in vals])[keep], (rows, cols)), shape=(n, n)
        ).tocsr()
        return hess, grad[k:]


class RobotLocalizationSim:
    """Drifting dead-reckoning belief standing in for the robot's internal
    localization; updated only by odometry integration or feedback resets."""

    def __init__(self, initial_pose: PoseSE2):
        self.internal_pose = initial_pose
        self.feedback_count = 0

    def integrate(self, delta: PoseSE2) -> None:
        self.internal_pose = self.internal_pose.compose(delta)


def apply_feedback(sim: RobotLocalizationSim, fused: PoseEstimate, is_static: bool) -> bool:
    """Reset the internal belief to the fused pose, but only while static."""
    if not is_static:
        return False
    sim.internal_pose = fused.pose
    sim.feedback_count += 1
    return True
