"""Volume container, file formats, resampling, pyramid and gradient tests.

The NIfTI cases build their input files byte-by-byte with struct so the
reader is checked against the format layout itself rather than against a
third-party writer.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import ramp_volume
from sampreg import volume
from sampreg.volume import (
    Pyramid,
    UnsupportedVoxelTypeError,
    Volume,
    VolumeFormatError,
)


def random_volume(rng, dims=(5, 4, 3), spacing=(1.0, 1.5, 2.0)):
    return Volume(
        data=rng.random(dims).astype(np.float32),
        spacing=spacing,
        origin=(0.5, -1.0, 2.0),
    )


# ---------------------------------------------------------------------------
# Construction invariants
# ---------------------------------------------------------------------------


def test_volume_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Volume(data=np.zeros((4, 4)))
    with pytest.raises(ValueError):
        Volume(data=np.zeros((1, 4, 4)))
    with pytest.raises(ValueError):
        Volume(data=np.zeros((4, 4, 4)), spacing=(0, 1, 1))
    bad = np.zeros((4, 4, 4))
    bad[1, 2, 3] = np.inf
    with pytest.raises(ValueError):
        Volume(data=bad)


def test_intensity_range_and_geometry():
    v = ramp_volume(dims=(4, 4, 4), coeffs=(3, 0, 0))
    assert v.intensity_range == (0.0, 9.0)
    lo, hi = v.bounds
    np.testing.assert_allclose(lo, [0, 0, 0])
    np.testing.assert_allclose(hi, [3, 3, 3])
    np.testing.assert_allclose(v.center_mm, [1.5, 1.5, 1.5])


def test_intensity_range_is_computed_not_passed():
    # a range argument would be overwritten by the data's own, so it is refused
    with pytest.raises(TypeError, match="intensity_range"):
        Volume(data=np.zeros((4, 4, 4)), intensity_range=(0.0, 100.0))


def test_flat_order_is_x_fastest():
    data = np.arange(24, dtype=np.float32).reshape(2, 3, 4, order="F")
    v = Volume(data=data, spacing=(1, 1, 1))
    np.testing.assert_array_equal(v.flat_values(), np.arange(24))
    np.testing.assert_array_equal(v.coords_of_flat(np.array([1])), [[1, 0, 0]])
    np.testing.assert_array_equal(v.coords_of_flat(np.array([2])), [[0, 1, 0]])
    np.testing.assert_array_equal(v.coords_of_flat(np.array([6])), [[0, 0, 1]])
    np.testing.assert_allclose(
        v.points_of_flat(np.array([7])), [[1.0, 0.0, 1.0]]
    )


# ---------------------------------------------------------------------------
# RVOL1 container
# ---------------------------------------------------------------------------


def test_rvol_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(21)
    v = random_volume(rng)
    path = tmp_path / "vol.rvol"
    volume.save_volume(v, path)
    back = volume.load_volume(path)
    np.testing.assert_array_equal(back.data, v.data)
    np.testing.assert_array_equal(back.spacing, v.spacing)
    np.testing.assert_array_equal(back.origin, v.origin)
    assert back.intensity_range == v.intensity_range


def test_rvol_header_layout_and_payload_size(tmp_path):
    v = Volume(data=np.zeros((3, 3, 3)), spacing=(1, 1, 1))
    path = tmp_path / "zeros.rvol"
    volume.save_volume(v, path)
    buf = path.read_bytes()
    assert buf[:6] == b"RVOL1\n"
    header_end = buf.index(b"\n", 6) + 1
    header = json.loads(buf[6:header_end])
    assert header["dims"] == [3, 3, 3]
    assert header["dtype"] == "f32le"
    assert len(buf) - header_end == 27 * 4  # 27 voxels, 4 bytes each


def test_rvol_small_known_volume(tmp_path):
    data = np.arange(8, dtype=np.float32).reshape(2, 2, 2, order="F")
    v = Volume(data=data, spacing=(1, 1, 1))
    path = tmp_path / "v.rvol"
    volume.save_volume(v, path)
    back = volume.load_volume(path)
    assert back.dims == (2, 2, 2)
    assert back.intensity_range == (0.0, 7.0)
    np.testing.assert_array_equal(back.flat_values(), np.arange(8))


def test_save_rejects_non_finite_voxels(tmp_path):
    v = Volume(data=np.zeros((3, 3, 3)))
    v.data[0, 0, 0] = np.nan  # mutate after construction to dodge the ctor check
    with pytest.raises(ValueError):
        volume.save_volume(v, tmp_path / "bad.rvol")


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"GARBAGE blah blah blah")
    with pytest.raises(VolumeFormatError, match="byte"):
        volume.load_volume(path)


def test_load_rejects_truncated_payload(tmp_path):
    v = Volume(data=np.zeros((3, 3, 3)))
    path = tmp_path / "trunc.rvol"
    volume.save_volume(v, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(VolumeFormatError, match="byte"):
        volume.load_volume(path)


def rvol_bytes(payload=np.zeros(8, dtype="<f4").tobytes(), **header):
    """RVOL1 bytes for a 2x2x2 volume, with header fields overridden."""
    fields = {"dims": [2, 2, 2], "spacing_mm": [1.0, 1.0, 1.0],
              "origin_mm": [0.0, 0.0, 0.0], "dtype": "f32le"}
    fields.update(header)
    return volume.RVOL_MAGIC + json.dumps(fields).encode() + b"\n" + payload


@pytest.mark.parametrize("header, field", [
    ({"dims": [-1, 2, 2]}, "dims"),
    ({"dims": [2, 2]}, "dims"),
    ({"dims": [1, 2, 2]}, "dims"),
    ({"dims": [2, 2.5, 2]}, "dims"),
    ({"dims": "222"}, "dims"),
    ({"spacing_mm": [1.0, 1.0]}, "spacing_mm"),
    ({"spacing_mm": [1.0, 0.0, 1.0]}, "spacing_mm"),
    ({"spacing_mm": [1.0, "a", 1.0]}, "spacing_mm"),
    ({"origin_mm": [0.0, 0.0]}, "origin_mm"),
])
def test_rvol_rejects_malformed_header_fields(tmp_path, header, field):
    # 64 payload bytes, enough data for a loader that reads dims [-1, 2, 2] as (4, 2, 2)
    path = tmp_path / "bad.rvol"
    path.write_bytes(rvol_bytes(np.zeros(16, dtype="<f4").tobytes(), **header))
    with pytest.raises(VolumeFormatError, match=field):
        volume.load_volume(path)


def test_rvol_rejects_non_object_header_and_nan_voxels(tmp_path):
    path = tmp_path / "bad.rvol"
    path.write_bytes(volume.RVOL_MAGIC + b"[1, 2]\n")
    with pytest.raises(VolumeFormatError, match="object"):
        volume.load_volume(path)
    payload = np.zeros(8, dtype="<f4")
    payload[3] = np.nan
    path.write_bytes(rvol_bytes(payload.tobytes()))
    with pytest.raises(VolumeFormatError, match="payload"):
        volume.load_volume(path)


# ---------------------------------------------------------------------------
# NIfTI-1 reader
# ---------------------------------------------------------------------------


def nifti_bytes(dims, pixdim, datatype, payload, scl_slope=0.0, scl_inter=0.0):
    """Minimal single-file little-endian NIfTI-1 byte string."""
    bitpix = {2: 8, 4: 16, 16: 32}.get(datatype, 0)
    hdr = bytearray(352)
    struct.pack_into("<i", hdr, 0, 348)
    struct.pack_into("<8h", hdr, 40, 3, *dims, 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, datatype)
    struct.pack_into("<h", hdr, 72, bitpix)
    struct.pack_into("<8f", hdr, 76, 1.0, *pixdim, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into("<f", hdr, 108, 352.0)
    struct.pack_into("<f", hdr, 112, scl_slope)
    struct.pack_into("<f", hdr, 116, scl_inter)
    hdr[344:348] = b"n+1\x00"
    return bytes(hdr) + payload


def test_nifti_float32_with_scaling(tmp_path):
    raw = np.arange(4 * 5 * 6, dtype="<f4")
    buf = nifti_bytes(
        (4, 5, 6), (1.5, 2.0, 2.5), 16, raw.tobytes(), scl_slope=2.0, scl_inter=10.0
    )
    path = tmp_path / "scaled.nii"
    path.write_bytes(buf)
    v = volume.load_volume(path)
    assert v.dims == (4, 5, 6)
    np.testing.assert_allclose(v.spacing, [1.5, 2.0, 2.5], atol=1e-6)
    # payload is x-fastest, matching the internal flat order
    np.testing.assert_allclose(v.flat_values(), raw * 2.0 + 10.0, atol=1e-4)


def test_nifti_int16_and_uint8(tmp_path):
    raw_i16 = (np.arange(27, dtype="<i2") - 13).astype("<i2")
    path = tmp_path / "i16.nii"
    path.write_bytes(nifti_bytes((3, 3, 3), (1, 1, 1), 4, raw_i16.tobytes()))
    v = volume.load_volume(path)
    np.testing.assert_array_equal(v.flat_values(), raw_i16.astype(np.float32))

    raw_u8 = np.arange(27, dtype="u1")
    path2 = tmp_path / "u8.nii"
    path2.write_bytes(nifti_bytes((3, 3, 3), (1, 1, 1), 2, raw_u8.tobytes()))
    v2 = volume.load_volume(path2)
    np.testing.assert_array_equal(v2.flat_values(), raw_u8.astype(np.float32))


def test_nifti_zero_slope_means_unscaled(tmp_path):
    raw = np.arange(8, dtype="<f4") + 1
    path = tmp_path / "noslope.nii"
    path.write_bytes(nifti_bytes((2, 2, 2), (1, 1, 1), 16, raw.tobytes()))
    v = volume.load_volume(path)
    np.testing.assert_array_equal(v.flat_values(), raw)


def test_nifti_unsupported_datatype_lists_codes(tmp_path):
    raw = np.zeros(8, dtype="<i4")
    path = tmp_path / "i32.nii"
    path.write_bytes(nifti_bytes((2, 2, 2), (1, 1, 1), 8, raw.tobytes()))
    with pytest.raises(UnsupportedVoxelTypeError) as exc:
        volume.load_volume(path)
    msg = str(exc.value)
    for code in ("2", "4", "16"):
        assert code in msg


def test_nifti_truncated_payload(tmp_path):
    raw = np.zeros(8, dtype="<f4")
    path = tmp_path / "short.nii"
    path.write_bytes(nifti_bytes((2, 2, 2), (1, 1, 1), 16, raw.tobytes())[:-8])
    with pytest.raises(VolumeFormatError, match="byte"):
        volume.load_volume(path)


def test_nifti_rejects_singleton_axis_and_bad_values(tmp_path):
    path = tmp_path / "bad.nii"
    path.write_bytes(nifti_bytes((2, 1, 2), (1, 1, 1), 16, bytes(16)))
    with pytest.raises(VolumeFormatError, match="dim"):
        volume.load_volume(path)
    raw = np.zeros(8, dtype="<f4")
    raw[0] = np.nan
    path.write_bytes(nifti_bytes((2, 2, 2), (1, 1, 1), 16, raw.tobytes()))
    with pytest.raises(VolumeFormatError, match="non-finite"):
        volume.load_volume(path)
    buf = bytearray(nifti_bytes((2, 2, 2), (1, 1, 1), 16, bytes(32)))
    struct.pack_into("<f", buf, 108, float("nan"))
    path.write_bytes(bytes(buf))
    with pytest.raises(VolumeFormatError, match="vox_offset"):
        volume.load_volume(path)


def big_endian(buf):
    buf = bytearray(buf)
    struct.pack_into(">i", buf, 0, 348)
    return bytes(buf)


def two_file(buf):
    return buf[:344] + b"ni1\x00" + buf[348:]


def with_dim0(ndim):
    def edit(buf):
        buf = bytearray(buf)
        struct.pack_into("<h", buf, 40, ndim)
        return bytes(buf)
    return edit


def with_fourth_dim(buf):
    buf = bytearray(buf)
    struct.pack_into("<h", buf, 40, 4)
    struct.pack_into("<h", buf, 48, 2)  # dim[4]
    return bytes(buf)


@pytest.mark.parametrize("edit, match", [
    (big_endian, "big-endian"),
    (two_file, "two-file"),
    (with_dim0(0), r"dim\[0\]=0"),
    (with_dim0(8), r"dim\[0\]=8"),
    (with_fourth_dim, "more than 3 non-singleton dims"),
])
def test_nifti_rejects_unsupported_headers(tmp_path, edit, match):
    path = tmp_path / "bad.nii"
    path.write_bytes(edit(nifti_bytes((2, 2, 2), (1, 1, 1), 16, bytes(64))))
    with pytest.raises(VolumeFormatError, match=match):
        volume.load_volume(path)


@pytest.mark.parametrize("pixdim", [(1, 0, 1), (1, 1, -2)])
def test_nifti_rejects_non_positive_pixdim(tmp_path, pixdim):
    path = tmp_path / "bad.nii"
    path.write_bytes(nifti_bytes((2, 2, 2), pixdim, 16, bytes(32)))
    with pytest.raises(VolumeFormatError, match="pixdim"):
        volume.load_volume(path)


def with_qform(buf, qoffset, quatern=(0.0, 0.0, 0.0), qfac=1.0, code=1):
    """NIfTI bytes with a qform: code at 252, quatern_b/c/d at 256, qoffset at 268."""
    buf = bytearray(buf)
    struct.pack_into("<h", buf, 252, code)
    struct.pack_into("<3f", buf, 256, *quatern)
    struct.pack_into("<3f", buf, 268, *qoffset)
    struct.pack_into("<f", buf, 76, qfac)
    return bytes(buf)


def with_sform(buf, srow, code=1):
    """NIfTI bytes with an sform: code at 254, srow_x/y/z at 280."""
    buf = bytearray(buf)
    struct.pack_into("<h", buf, 254, code)
    struct.pack_into("<12f", buf, 280, *np.ravel(srow))
    return bytes(buf)


SCALE_ONLY_SROW = [[1.5, 0, 0, 4.0], [0, 1.5, 0, -8.0], [0, 0, 1.5, 16.5]]


@pytest.mark.parametrize("header, origin", [
    (lambda b: with_qform(b, (-10.5, 2.0, 30.25)), (-10.5, 2.0, 30.25)),
    # an sform that only scales and translates passes its check; the qform
    # sets the origin
    (lambda b: with_qform(with_sform(b, SCALE_ONLY_SROW), (1.0, 2.0, 3.0)), (1.0, 2.0, 3.0)),
], ids=["qform", "both"])
def test_nifti_translation_sets_origin(tmp_path, header, origin):
    path = tmp_path / "moved.nii"
    path.write_bytes(header(nifti_bytes((2, 2, 2), (1.5, 1.5, 1.5), 16, bytes(32))))
    v = volume.load_volume(path)
    np.testing.assert_array_equal(v.origin, origin)
    np.testing.assert_allclose(v.spacing, 1.5)


def test_nifti_without_qform_or_sform_keeps_origin_zero(tmp_path):
    # offsets and quaternion fields are ignored while both codes are 0
    buf = with_sform(with_qform(nifti_bytes((2, 2, 2), (1, 1, 1), 16, bytes(32)),
                                (5.0, 6.0, 7.0), quatern=(0.5, 0, 0), code=0),
                     [[0, 1, 0, 9.0], [1, 0, 0, 9.0], [0, 0, -1, 9.0]], code=0)
    path = tmp_path / "plain.nii"
    path.write_bytes(buf)
    np.testing.assert_array_equal(volume.load_volume(path).origin, 0.0)


@pytest.mark.parametrize("header, match", [
    (lambda b: with_qform(b, (0, 0, 0), quatern=(0.0, 0.0, 0.7071)), "quatern_d=.* at byte 264"),
    (lambda b: with_qform(b, (0, 0, 0), quatern=(0.1, 0.0, 0.0)), "quatern_b=.* at byte 256"),
    (lambda b: with_qform(b, (0, 0, 0), qfac=-1.0), "qfac pixdim.0.=-1.0 at byte 76"),
    (lambda b: with_sform(b, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]]), "srow_x .* at byte 280"),
    (lambda b: with_sform(b, [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0]]), "srow_y .* at byte 296"),
    (lambda b: with_qform(b, (float("nan"), 0, 0)), "non-finite NIfTI origin.*byte 268"),
], ids=["qform-rotation-d", "qform-rotation-b", "qform-flip", "sform-rotation",
        "sform-flip", "qform-nan-offset"])
def test_nifti_rotation_or_flip_is_format_error(tmp_path, header, match):
    path = tmp_path / "rotated.nii"
    path.write_bytes(header(nifti_bytes((2, 2, 2), (1, 1, 1), 16, bytes(32))))
    with pytest.raises(VolumeFormatError, match=match):
        volume.load_volume(path)


def _valid_volume_file(kind):
    data = np.arange(27, dtype="<f4").reshape((3, 3, 3), order="F")
    if kind == "nifti":
        return nifti_bytes((3, 3, 3), (1.0, 1.5, 2.0), 16,
                           data.reshape(-1, order="F").tobytes(), scl_slope=2.0)
    return rvol_bytes(data.reshape(-1, order="F").tobytes(), dims=[3, 3, 3],
                      spacing_mm=[1.0, 1.5, 2.0], origin_mm=[0.5, -1.0, 2.0])


# Edits favour the header bytes (RVOL1 JSON, NIfTI fields below byte 128) and
# byte values that change a number's sign, digits or float exponent.
_EDIT_POSITIONS = st.one_of(st.integers(0, 127), st.integers(0, 470))
_EDIT_VALUES = st.one_of(st.sampled_from(b"-0129.,e[]\x00\x01\x7f\x80\xff"), st.integers(0, 255))


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(["rvol", "nifti"]),
    cut=st.one_of(st.none(), st.integers(min_value=0, max_value=470)),
    edits=st.lists(st.tuples(_EDIT_POSITIONS, _EDIT_VALUES), max_size=4),
)
def test_damaged_files_load_or_raise_format_error(tmp_path, kind, cut, edits):
    """A truncated or byte-edited file loads or raises VolumeFormatError."""
    buf = bytearray(_valid_volume_file(kind))
    for pos, value in edits:
        if pos < len(buf):
            buf[pos] = value
    if cut is not None:
        del buf[cut:]
    path = tmp_path / "damaged.vol"
    path.write_bytes(bytes(buf))
    try:
        v = volume.load_volume(path)
    except VolumeFormatError:
        return
    assert np.all(np.isfinite(v.data)) and min(v.dims) >= 2


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------


def test_resample_identity_at_knots():
    rng = np.random.default_rng(22)
    v = Volume(data=rng.random((6, 6, 6)), spacing=(1, 1, 1))
    out = volume.resample_isotropic(v, 1.0)
    np.testing.assert_allclose(out.data[:6, :6, :6], v.data, atol=1e-9)


def test_resample_constant_is_constant():
    v = Volume(data=np.full((5, 6, 7), 3.25), spacing=(1.7, 0.9, 1.3))
    out = volume.resample_isotropic(v, 1.0)
    np.testing.assert_allclose(out.data, 3.25, atol=1e-9)
    np.testing.assert_allclose(out.spacing, [1, 1, 1])


def test_resample_reproduces_linear_ramp():
    v = ramp_volume(dims=(8, 6, 6), coeffs=(1, 0, 0), spacing=(2.0, 1.0, 1.0))
    out = volume.resample_isotropic(v, 1.0)
    # covered extent: analytic x_mm up to the last input voxel center (14mm)
    covered = 15
    want = np.arange(covered, dtype=np.float64)
    got = out.data[:covered, 2, 2]
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_resample_output_dims_and_clamping():
    rng = np.random.default_rng(23)
    v = Volume(data=rng.random((9, 9, 9)), spacing=(0.7, 0.7, 0.7))
    out = volume.resample_isotropic(v, 1.0)
    assert out.dims == tuple(int(np.ceil(9 * 0.7 / 1.0)) for _ in range(3))
    lo, hi = v.intensity_range
    assert out.data.min() >= lo - 1e-9
    assert out.data.max() <= hi + 1e-9


def test_resample_rejects_bad_spacing():
    v = Volume(data=np.zeros((4, 4, 4)))
    with pytest.raises(ValueError):
        volume.resample_isotropic(v, 0.0)


# ---------------------------------------------------------------------------
# Pyramid
# ---------------------------------------------------------------------------


def test_pyramid_level_spacings_follow_geometric_ramp():
    v = Volume(data=np.zeros((33, 33, 33)), spacing=(1, 1, 1))
    pyr = volume.build_pyramid(v, 4)
    want = [1.0, 4 ** (1 / 3), 4 ** (2 / 3), 4.0]
    got = [pyr.level(r).spacing[0] for r in range(1, 5)]
    np.testing.assert_allclose(got, want, atol=1e-3)
    np.testing.assert_allclose(got, want, rtol=1e-12)  # exact by construction


def test_pyramid_level_one_is_input_unchanged():
    rng = np.random.default_rng(24)
    v = Volume(data=rng.random((17, 17, 17)), spacing=(1, 1, 1))
    pyr = volume.build_pyramid(v, 4)
    assert pyr.num_levels == 4
    np.testing.assert_array_equal(pyr.level(1).data, v.data)


def test_pyramid_single_level_degenerate_case():
    v = Volume(data=np.zeros((8, 8, 8)), spacing=(1, 1, 1))
    pyr = volume.build_pyramid(v, 1)
    assert pyr.num_levels == 1
    np.testing.assert_array_equal(pyr.level(1).data, v.data)


def test_pyramid_preserves_constants():
    v = Volume(data=np.full((21, 21, 21), 5.5), spacing=(1, 1, 1))
    pyr = volume.build_pyramid(v, 4)
    for lv in pyr.levels:
        np.testing.assert_allclose(lv.data, 5.5, atol=1e-9)


def test_pyramid_smoothing_reduces_noise_variance():
    rng = np.random.default_rng(25)
    v = Volume(data=rng.standard_normal((33, 33, 33)), spacing=(1, 1, 1))
    pyr = volume.build_pyramid(v, 4)
    variances = [float(lv.data.var()) for lv in pyr.levels]
    assert variances[0] > variances[1] > variances[2] > variances[3]


def test_pyramid_rejects_bad_inputs():
    v = Volume(data=np.zeros((8, 8, 8)), spacing=(1, 1, 1))
    with pytest.raises(ValueError):
        volume.build_pyramid(v, 0)
    aniso = Volume(data=np.zeros((8, 8, 8)), spacing=(1, 2, 1))
    with pytest.raises(ValueError):
        volume.build_pyramid(aniso, 4)


def test_pyramid_type_requires_increasing_spacing():
    a = Volume(data=np.zeros((4, 4, 4)), spacing=(2, 2, 2))
    b = Volume(data=np.zeros((4, 4, 4)), spacing=(1, 1, 1))
    with pytest.raises(ValueError):
        Pyramid(levels=[a, b])


# ---------------------------------------------------------------------------
# Gradient magnitude
# ---------------------------------------------------------------------------


def test_gradient_magnitude_zero_on_constant():
    v = Volume(data=np.full((6, 6, 6), 2.0))
    g = volume.gradient_magnitude(v)
    np.testing.assert_array_equal(g.data, 0.0)


def test_gradient_magnitude_exact_on_axis_ramp():
    v = ramp_volume(dims=(8, 8, 8), coeffs=(3, 0, 0))
    g = volume.gradient_magnitude(v)
    np.testing.assert_allclose(g.data, 3.0, atol=1e-9)


def test_gradient_magnitude_combines_axes():
    v = ramp_volume(dims=(8, 8, 8), coeffs=(1, 2, 2))
    g = volume.gradient_magnitude(v)
    np.testing.assert_allclose(g.data, 3.0, atol=1e-6)  # sqrt(1+4+4)


def test_gradient_magnitude_uses_physical_spacing():
    v = ramp_volume(dims=(8, 8, 8), coeffs=(1, 0, 0), spacing=(2.0, 2.0, 2.0))
    g = volume.gradient_magnitude(v)
    np.testing.assert_allclose(g.data, 1.0, atol=1e-6)  # per mm, not per voxel
    np.testing.assert_allclose(g.spacing, v.spacing)


# ---------------------------------------------------------------------------
# Trilinear sampling
# ---------------------------------------------------------------------------


def test_trilinear_exact_at_voxel_centers():
    rng = np.random.default_rng(26)
    v = random_volume(rng)
    idx = np.array([0, 7, 23, 59 % v.num_voxels])
    pts = v.points_of_flat(idx)
    vals, inside = volume.trilinear_many(v, pts)
    assert inside.all()
    np.testing.assert_allclose(vals, v.flat_values()[idx], atol=1e-6)


def test_trilinear_midpoint_averages():
    data = np.zeros((2, 2, 2), dtype=np.float32)
    data[0, 0, 0] = 2.0
    data[1, 0, 0] = 4.0
    v = Volume(data=data, spacing=(1, 1, 1))
    vals, inside = volume.trilinear_many(v, np.array([[0.5, 0.0, 0.0]]))
    assert inside[0] and vals[0] == pytest.approx(3.0)


def test_trilinear_outside_returns_marker():
    v = Volume(data=np.ones((3, 3, 3)), spacing=(1, 1, 1))
    _, inside = volume.trilinear_many(v, np.array([[3.0, 0.0, 0.0]]))
    assert not inside[0]
    vals, inside = volume.trilinear_many(v, np.array([[0.5, 0.5, 0.5], [-0.1, 0, 0]]))
    assert inside.tolist() == [True, False]
    assert vals[1] == 0.0
