"""Rigid transform tests.

The rotation convention is Rz(rz) @ Ry(ry) @ Rx(rx) about a stored center,
which matches scipy's extrinsic "xyz" Euler order; scipy serves as the
matrix oracle throughout.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from sampreg import transform
from sampreg.transform import RigidParams


def random_params(rng, center=(4.0, -2.0, 1.0)):
    return RigidParams(
        t=rng.uniform(-8, 8, 3), r=rng.uniform(-0.9, 0.9, 3), center=center
    )


def apply_one(params, p):
    """Reference single-point map: R @ (p - center) + center + t."""
    rot = transform.rotation_matrix(params.r)
    p = np.asarray(p, dtype=np.float64)
    return rot @ (p - params.center) + params.center + params.t


def test_identity_maps_points_to_themselves():
    p = np.array([3.0, -1.5, 2.25])
    out = transform.apply_many(RigidParams.identity((0.0, 0.0, 0.0)), [p])[0]
    np.testing.assert_allclose(out, p, atol=1e-15)


def test_pure_translation():
    params = RigidParams(t=(1, 2, 3))
    np.testing.assert_allclose(
        transform.apply_many(params, [(0, 0, 0)])[0], [1, 2, 3], atol=1e-15
    )


def test_quarter_turn_about_x_sends_y_to_z():
    params = RigidParams(r=(np.pi / 2, 0, 0))
    np.testing.assert_allclose(
        transform.apply_many(params, [(0, 1, 0)])[0], [0, 0, 1], atol=1e-12
    )


def test_rotation_matrix_matches_scipy():
    rng = np.random.default_rng(11)
    for _ in range(50):
        r = rng.uniform(-np.pi, np.pi, 3)
        want = Rotation.from_euler("xyz", r).as_matrix()
        np.testing.assert_allclose(transform.rotation_matrix(r), want, atol=1e-12)


def test_rotation_about_center_fixes_center():
    center = np.array([5.0, 6.0, 7.0])
    params = RigidParams(r=(0.4, -0.2, 0.9), center=center)
    np.testing.assert_allclose(
        transform.apply_many(params, [center])[0], center, atol=1e-12
    )


def test_euler_extraction_round_trips():
    rng = np.random.default_rng(12)
    for _ in range(100):
        r = rng.uniform(-1.4, 1.4, 3)  # inside the principal branch
        m = transform.rotation_matrix(r)
        back = transform.euler_from_matrix(m)
        np.testing.assert_allclose(back, r, atol=1e-9)


# Angles one step short of +-pi, so atan2 has a single answer.
_ANGLE = st.floats(-np.pi + 1e-6, np.pi - 1e-6)


def _vec3(elements):
    return st.lists(elements, min_size=3, max_size=3)


@settings(max_examples=200, deadline=None)
@given(rx=_ANGLE, ry=st.floats(-np.pi / 2 + 0.01, np.pi / 2 - 0.01), rz=_ANGLE)
def test_euler_angles_round_trip_away_from_gimbal_lock(rx, ry, rz):
    back = transform.euler_from_matrix(transform.rotation_matrix((rx, ry, rz)))
    wrapped = (back - [rx, ry, rz] + np.pi) % (2 * np.pi) - np.pi
    np.testing.assert_allclose(wrapped, 0.0, atol=1e-9)


def test_gimbal_lock_extraction_uses_rz_zero_branch():
    m = transform.rotation_matrix((0.3, np.pi / 2, 0.4))
    back = transform.euler_from_matrix(m)
    assert back[2] == 0.0
    np.testing.assert_allclose(transform.rotation_matrix(back), m, atol=1e-9)


def test_jacobian_translation_and_generator_columns():
    params = RigidParams.identity((0.0, 0.0, 0.0))
    jac = transform.jacobian_many(params, [(0, 1, 0)])[0]
    np.testing.assert_allclose(jac[:, :3], np.eye(3), atol=0)
    # d/drx of Rx at 0 is the x cross-product generator: (0,1,0) -> (0,0,1)
    np.testing.assert_allclose(jac[:, 3], [0, 0, 1], atol=1e-12)


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(13)
    h = 1e-6
    for _ in range(20):
        params = random_params(rng)
        p = rng.uniform(-20, 20, 3)
        vec = params.as_vector()
        fd = np.zeros((3, 6))
        for k in range(6):
            dv = np.zeros(6)
            dv[k] = h
            hi = transform.apply_many(params.with_vector(vec + dv), [p])[0]
            lo = transform.apply_many(params.with_vector(vec - dv), [p])[0]
            fd[:, k] = (hi - lo) / (2 * h)
        np.testing.assert_allclose(
            transform.jacobian_many(params, [p])[0], fd, atol=1e-5
        )


def test_jacobian_many_stacks_single_point_jacobians():
    rng = np.random.default_rng(14)
    params = random_params(rng)
    pts = rng.uniform(-15, 15, (5, 3))
    many = transform.jacobian_many(params, pts)
    for i, p in enumerate(pts):
        np.testing.assert_allclose(
            many[i], transform.jacobian_many(params, [p])[0], atol=1e-12
        )


def test_apply_many_matches_apply():
    rng = np.random.default_rng(15)
    params = random_params(rng)
    pts = rng.uniform(-15, 15, (7, 3))
    many = transform.apply_many(params, pts)
    for i, p in enumerate(pts):
        np.testing.assert_allclose(many[i], apply_one(params, p), atol=1e-12)


def test_invert_identity_and_translation():
    ident = RigidParams.identity((2.0, 2.0, 2.0))
    inv = transform.invert(ident)
    np.testing.assert_allclose(inv.t, 0, atol=1e-12)
    np.testing.assert_allclose(inv.r, 0, atol=1e-12)

    inv_t = transform.invert(RigidParams(t=(3, -4, 5)))
    np.testing.assert_allclose(inv_t.t, [-3, 4, -5], atol=1e-12)


def test_invert_round_trips_points():
    rng = np.random.default_rng(19)
    for _ in range(10):
        params = random_params(rng)
        pts = rng.uniform(-25, 25, (20, 3))
        back = transform.apply_many(
            transform.invert(params), transform.apply_many(params, pts)
        )
        np.testing.assert_allclose(back, pts, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    t=_vec3(st.floats(-50, 50)), r=_vec3(_ANGLE), center=_vec3(st.floats(-50, 50)),
    pts=st.lists(_vec3(st.floats(-100, 100)), min_size=1, max_size=8),
)
def test_invert_undoes_apply_many(t, r, center, pts):
    params = RigidParams(t=t, r=r, center=center)
    back = transform.apply_many(transform.invert(params), transform.apply_many(params, pts))
    np.testing.assert_allclose(back, pts, atol=1e-9)


def test_rigidity_preserves_pairwise_distances():
    rng = np.random.default_rng(20)
    params = random_params(rng)
    pts = rng.uniform(-25, 25, (12, 3))
    out = transform.apply_many(params, pts)
    d_in = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    d_out = np.linalg.norm(out[:, None] - out[None, :], axis=-1)
    np.testing.assert_allclose(d_out, d_in, atol=1e-9)


def test_json_round_trip_uses_documented_keys():
    params = RigidParams(t=(1, 2, 3), r=(0.1, 0.2, 0.3), center=(4, 5, 6))
    doc = json.loads(json.dumps(params.to_dict()))
    assert set(doc) == {"t_mm", "r_rad", "center_mm"}
    back = RigidParams.from_dict(doc)
    np.testing.assert_allclose(back.as_vector(), params.as_vector(), atol=0)
    np.testing.assert_allclose(back.center, params.center, atol=0)


def test_vector_round_trip_and_order():
    params = RigidParams(t=(1, 2, 3), r=(0.1, 0.2, 0.3), center=(9, 9, 9))
    vec = params.as_vector()
    np.testing.assert_allclose(vec, [1, 2, 3, 0.1, 0.2, 0.3], atol=0)
    back = params.with_vector(vec)
    np.testing.assert_allclose(back.as_vector(), vec, atol=0)
    np.testing.assert_allclose(back.center, params.center, atol=0)


def test_non_finite_parameters_rejected():
    with pytest.raises(ValueError):
        RigidParams(t=(np.nan, 0, 0))
