"""6-parameter rigid transforms in physical (mm) coordinates.

Convention: a point p maps to ``Rz(rz) @ Ry(ry) @ Rx(rx) @ (p - center)
+ center + t``, i.e. extrinsic rotations about the fixed x, then y, then z
axes, applied about a stored rotation center.  Recovered parameter vectors
are convention-relative; compare mapped points, not raw parameters, when
checking against another implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# |cos(ry)| below this uses the gimbal branch of the Euler extraction (rz = 0).
_GIMBAL_EPS = 1e-9


def _as_vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64).reshape(3)
    if not np.all(np.isfinite(v)):
        raise ValueError("rigid parameters must be finite")
    return v


@dataclass(frozen=True, eq=False)
class RigidParams:
    """Translation (mm), rotation (rad) and rotation center (mm)."""

    t: np.ndarray = field(default_factory=lambda: np.zeros(3))
    r: np.ndarray = field(default_factory=lambda: np.zeros(3))
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "t", _as_vec3(self.t))
        object.__setattr__(self, "r", _as_vec3(self.r))
        object.__setattr__(self, "center", _as_vec3(self.center))

    def to_dict(self) -> dict:
        return {
            "t_mm": self.t.tolist(),
            "r_rad": self.r.tolist(),
            "center_mm": self.center.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RigidParams":
        return cls(t=d["t_mm"], r=d["r_rad"], center=d["center_mm"])

    @classmethod
    def identity(cls, center=(0.0, 0.0, 0.0)) -> "RigidParams":
        return cls(center=center)

    def as_vector(self) -> np.ndarray:
        """The 6-vector (tx, ty, tz, rx, ry, rz)."""
        return np.concatenate([self.t, self.r])

    def with_vector(self, v) -> "RigidParams":
        """Same center, parameters replaced by the 6-vector ``v``."""
        v = np.asarray(v, dtype=np.float64).reshape(6)
        return RigidParams(t=v[:3], r=v[3:], center=self.center)


def rotation_matrix(r) -> np.ndarray:
    """Rz(rz) @ Ry(ry) @ Rx(rx) for r = (rx, ry, rz)."""
    rx, ry, rz = np.asarray(r, dtype=np.float64)
    ca, sa = math.cos(rx), math.sin(rx)
    cb, sb = math.cos(ry), math.sin(ry)
    cc, sc = math.cos(rz), math.sin(rz)
    return np.array(
        [
            [cc * cb, cc * sb * sa - sc * ca, cc * sb * ca + sc * sa],
            [sc * cb, sc * sb * sa + cc * ca, sc * sb * ca - cc * sa],
            [-sb, cb * sa, cb * ca],
        ]
    )


def euler_from_matrix(m: np.ndarray) -> np.ndarray:
    """Extract (rx, ry, rz) such that rotation_matrix(result) == m.

    Near gimbal lock (|cos ry| < 1e-9) the decomposition is not unique; the
    branch rz = 0 is returned.
    """
    sy = -float(m[2, 0])
    ry = math.asin(min(1.0, max(-1.0, sy)))
    cb = math.hypot(float(m[0, 0]), float(m[1, 0]))
    if cb < _GIMBAL_EPS:
        s = 1.0 if sy >= 0.0 else -1.0
        rx = math.atan2(s * float(m[0, 1]), s * float(m[0, 2]))
        rz = 0.0
    else:
        rx = math.atan2(float(m[2, 1]), float(m[2, 2]))
        rz = math.atan2(float(m[1, 0]), float(m[0, 0]))
    return np.array([rx, ry, rz])


def apply_many(params: RigidParams, pts: np.ndarray) -> np.ndarray:
    """Map an (N, 3) array of points (mm) through the transform."""
    rot = rotation_matrix(params.r)
    pts = np.asarray(pts, dtype=np.float64)
    return (pts - params.center) @ rot.T + (params.center + params.t)


def rotation_derivatives(r) -> np.ndarray:
    """(3, 3, 3): the three 3x3 matrices d(Rz Ry Rx)/d(rx, ry, rz)."""
    rx, ry, rz = np.asarray(r, dtype=np.float64)
    ca, sa = math.cos(rx), math.sin(rx)
    cb, sb = math.cos(ry), math.sin(ry)
    cc, sc = math.cos(rz), math.sin(rz)
    mrx = np.array([[1.0, 0.0, 0.0], [0.0, ca, -sa], [0.0, sa, ca]])
    mry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    mrz = np.array([[cc, -sc, 0.0], [sc, cc, 0.0], [0.0, 0.0, 1.0]])
    drx = np.array([[0.0, 0.0, 0.0], [0.0, -sa, -ca], [0.0, ca, -sa]])
    dry = np.array([[-sb, 0.0, cb], [0.0, 0.0, 0.0], [-cb, 0.0, -sb]])
    drz = np.array([[-sc, -cc, 0.0], [cc, -sc, 0.0], [0.0, 0.0, 0.0]])
    return np.stack([mrz @ mry @ drx, mrz @ dry @ mrx, drz @ mry @ mrx])


def jacobian_many(params: RigidParams, pts: np.ndarray) -> np.ndarray:
    """(N, 3, 6) transform Jacobians at each of N points."""
    pts = np.asarray(pts, dtype=np.float64)
    v = pts - params.center
    n = v.shape[0]
    jac = np.empty((n, 3, 6))
    jac[:, :, :3] = np.eye(3)
    for k, d in enumerate(rotation_derivatives(params.r)):
        jac[:, :, 3 + k] = v @ d.T
    return jac


def invert(params: RigidParams) -> RigidParams:
    """The transform undoing ``params``: it maps apply_many(params, x) back to x."""
    rot = rotation_matrix(params.r)
    rinv = rot.T
    return RigidParams(
        t=-(rinv @ params.t), r=euler_from_matrix(rinv), center=params.center
    )
