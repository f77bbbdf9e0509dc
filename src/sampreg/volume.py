"""Scalar 3D volumes on regular grids: I/O, resampling, pyramids, gradients.

Voxels are stored as float32 with shape (nx, ny, nz); the flat index order
used throughout (file payloads, sampling distributions, pixel draws) is
x-fastest: ``flat = x + nx * (y + ny * z)``.  Voxel x sits at physical
position ``origin + x * spacing`` (mm), so the grid's bounding box runs from
``origin`` to ``origin + (dims - 1) * spacing``.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

RVOL_MAGIC = b"RVOL1\n"

_NIFTI_DTYPES = {2: np.dtype("u1"), 4: np.dtype("<i2"), 16: np.dtype("<f4")}


class VolumeFormatError(ValueError):
    """Raised for malformed or truncated volume files."""


class UnsupportedVoxelTypeError(VolumeFormatError):
    """Raised for NIfTI datatype codes outside the supported set."""


@dataclass(frozen=True, eq=False)
class Volume:
    """A dense scalar intensity field with physical spacing and origin."""

    data: np.ndarray
    spacing: np.ndarray = field(default_factory=lambda: np.ones(3))
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))
    intensity_range: tuple = field(init=False)  # (min, max) voxel, from data

    def __post_init__(self):
        data = np.asfortranarray(self.data, dtype=np.float32)
        if data.ndim != 3:
            raise ValueError(f"volume data must be 3D, got {data.ndim}D")
        if any(n < 2 for n in data.shape):
            raise ValueError(f"each volume axis needs >= 2 voxels, got {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("volume contains non-finite voxel values")
        spacing = np.asarray(self.spacing, dtype=np.float64).reshape(3)
        origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        if not np.all((spacing > 0) & (spacing < np.inf)):
            raise ValueError(f"spacing must be positive and finite, got {spacing}")
        if not np.all(np.isfinite(origin)):
            raise ValueError(f"origin must be finite, got {origin}")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)
        rng = (float(data.min()), float(data.max()))
        object.__setattr__(self, "intensity_range", rng)

    @property
    def dims(self) -> tuple:
        return self.data.shape

    @property
    def num_voxels(self) -> int:
        return self.data.size

    @property
    def bounds(self) -> tuple:
        """(lower, upper) corners of the voxel-center bounding box, mm."""
        upper = self.origin + (np.array(self.dims) - 1) * self.spacing
        return self.origin.copy(), upper

    @property
    def center_mm(self) -> np.ndarray:
        lo, hi = self.bounds
        return (lo + hi) / 2.0

    def flat_values(self) -> np.ndarray:
        """Voxels as a 1D float32 array in x-fastest order (a view)."""
        return self.data.reshape(-1, order="F")

    def coords_of_flat(self, idx: np.ndarray) -> np.ndarray:
        """(N, 3) integer voxel coordinates for flat x-fastest indices."""
        idx = np.asarray(idx)
        nx, ny, _ = self.dims
        x = idx % nx
        y = (idx // nx) % ny
        z = idx // (nx * ny)
        return np.stack([x, y, z], axis=-1)

    def points_of_flat(self, idx: np.ndarray) -> np.ndarray:
        """(N, 3) physical voxel-center positions (mm) for flat indices."""
        return self.origin + self.coords_of_flat(idx) * self.spacing

    def same_grid(self, other: "Volume") -> bool:
        return (
            self.dims == other.dims
            and np.allclose(self.spacing, other.spacing, rtol=1e-12)
            and np.allclose(self.origin, other.origin, atol=1e-9)
        )


@dataclass(frozen=True, eq=False)
class Pyramid:
    """Multi-resolution stack; ``levels[0]`` is the finest level (r = 1)."""

    levels: list

    def __post_init__(self):
        spac = [lv.spacing for lv in self.levels]
        for a, b in zip(spac, spac[1:]):
            if not np.all(b > a):
                raise ValueError("pyramid spacing must increase toward coarse levels")

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def level(self, r: int) -> Volume:
        """Volume at resolution level r (1 = finest)."""
        return self.levels[r - 1]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def save_volume(v: Volume, path) -> None:
    """Write ``v`` as an RVOL1 container (bit-exact round trip)."""
    if not np.all(np.isfinite(v.data)):
        raise ValueError("refusing to save volume with non-finite voxels")
    header = json.dumps(
        {
            "dims": list(v.dims),
            "spacing_mm": v.spacing.tolist(),
            "origin_mm": v.origin.tolist(),
            "dtype": "f32le",
        },
        separators=(",", ":"),
    )
    payload = v.flat_values().astype("<f4", copy=False).tobytes()
    with open(path, "wb") as f:
        f.write(RVOL_MAGIC)
        f.write(header.encode("utf-8"))
        f.write(b"\n")
        f.write(payload)


def load_volume(path) -> Volume:
    """Read an RVOL1 container or a minimal little-endian NIfTI-1 file."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[: len(RVOL_MAGIC)] == RVOL_MAGIC:
        return _load_rvol(buf)
    if len(buf) >= 348 and buf[344:348] in (b"n+1\x00", b"ni1\x00"):
        return _load_nifti(buf)
    raise VolumeFormatError(
        "bad magic at byte 0: neither an RVOL1 container nor a NIfTI-1 file"
    )


def _header_vec3(header: dict, key: str) -> np.ndarray:
    """An RVOL1 header field holding three finite numbers."""
    value = header[key]
    try:
        vec = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        vec = None
    if vec is None or vec.shape != (3,) or not np.all(np.isfinite(vec)):
        raise VolumeFormatError(f"RVOL1 {key} must be three finite numbers, got {value!r}")
    return vec


def _load_rvol(buf: bytes) -> Volume:
    nl = buf.find(b"\n", len(RVOL_MAGIC))
    if nl < 0:
        raise VolumeFormatError(
            f"truncated RVOL1 header: no newline after byte {len(RVOL_MAGIC)}"
        )
    try:
        header = json.loads(buf[len(RVOL_MAGIC) : nl].decode("utf-8"))
    except ValueError as e:  # undecodable bytes or invalid JSON
        raise VolumeFormatError(f"invalid RVOL1 JSON header at byte {len(RVOL_MAGIC)}: {e}")
    if not isinstance(header, dict):
        raise VolumeFormatError("RVOL1 header must be a JSON object")
    for key in ("dims", "spacing_mm", "origin_mm", "dtype"):
        if key not in header:
            raise VolumeFormatError(f"RVOL1 header missing key {key!r}")
    if header["dtype"] != "f32le":
        raise UnsupportedVoxelTypeError(
            f"RVOL1 dtype {header['dtype']!r} unsupported; only 'f32le'"
        )
    dims = header["dims"]
    if not (isinstance(dims, list) and len(dims) == 3
            and all(type(d) is int and d >= 2 for d in dims)):
        raise VolumeFormatError(f"RVOL1 dims must be three integers >= 2, got {dims!r}")
    spacing = _header_vec3(header, "spacing_mm")
    if np.any(spacing <= 0):
        raise VolumeFormatError(f"RVOL1 spacing_mm must be positive, got {spacing.tolist()}")
    origin = _header_vec3(header, "origin_mm")
    nx, ny, nz = dims
    start = nl + 1
    need = 4 * nx * ny * nz
    if len(buf) - start < need:
        raise VolumeFormatError(
            f"truncated RVOL1 payload at byte {len(buf)}: "
            f"expected {start + need} bytes total"
        )
    vox = np.frombuffer(buf, dtype="<f4", count=nx * ny * nz, offset=start)
    if not np.all(np.isfinite(vox)):
        raise VolumeFormatError("RVOL1 payload holds non-finite voxel values")
    data = vox.reshape((nx, ny, nz), order="F")
    return Volume(data=data, spacing=spacing, origin=origin)


def _load_nifti(buf: bytes) -> Volume:
    if struct.unpack_from("<i", buf, 0)[0] != 348:
        if struct.unpack_from(">i", buf, 0)[0] == 348:
            raise VolumeFormatError("big-endian NIfTI unsupported (little-endian only)")
        raise VolumeFormatError("bad NIfTI sizeof_hdr at byte 0 (expected 348)")
    if buf[344:348] == b"ni1\x00":
        raise VolumeFormatError("two-file NIfTI (.hdr/.img) unsupported; need single-file n+1")
    dim = struct.unpack_from("<8h", buf, 40)
    datatype = struct.unpack_from("<h", buf, 70)[0]
    pixdim = struct.unpack_from("<8f", buf, 76)
    vox_offset = struct.unpack_from("<f", buf, 108)[0]
    scl_slope = struct.unpack_from("<f", buf, 112)[0]
    scl_inter = struct.unpack_from("<f", buf, 116)[0]

    ndim = dim[0]
    if not 1 <= ndim <= 7:
        raise VolumeFormatError(f"invalid NIfTI dim[0]={ndim} at byte 40")
    if any(dim[k] > 1 for k in range(4, ndim + 1)):
        raise VolumeFormatError("NIfTI with more than 3 non-singleton dims unsupported")
    if datatype not in _NIFTI_DTYPES:
        raise UnsupportedVoxelTypeError(
            f"NIfTI datatype code {datatype} unsupported; "
            f"supported codes: {sorted(_NIFTI_DTYPES)}"
        )
    nx, ny, nz = dim[1:4]
    if min(nx, ny, nz) < 2:
        raise VolumeFormatError(
            f"invalid NIfTI dim {(nx, ny, nz)} at byte 42: each axis needs >= 2 voxels"
        )
    spacing = np.array(pixdim[1:4], dtype=np.float64)
    if np.any(spacing <= 0) or not np.all(np.isfinite(spacing)):
        raise VolumeFormatError(f"invalid NIfTI pixdim {tuple(spacing)} at byte 76")
    dt = _NIFTI_DTYPES[datatype]
    need = nx * ny * nz * dt.itemsize
    if not 348 <= vox_offset < math.inf:  # also rejects NaN
        raise VolumeFormatError(f"invalid NIfTI vox_offset {vox_offset} at byte 108")
    vox_offset = int(vox_offset)
    if len(buf) - vox_offset < need:
        raise VolumeFormatError(
            f"truncated NIfTI payload at byte {len(buf)}: "
            f"expected {vox_offset + need} bytes total"
        )
    vox = np.frombuffer(buf, dtype=dt, count=nx * ny * nz, offset=vox_offset)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN and overflow are rejected below
        vals = vox.astype(np.float64)
        if scl_slope != 0.0:
            vals = vals * float(scl_slope) + float(scl_inter)
        vals = vals.astype(np.float32)
    if not np.all(np.isfinite(vals)):
        raise VolumeFormatError(
            "NIfTI voxel values are non-finite as float32 "
            "(payload, or scl_slope/scl_inter at byte 112)"
        )
    data = vals.reshape((nx, ny, nz), order="F")
    return Volume(data=data, spacing=spacing, origin=_nifti_origin(buf, pixdim[0]))


def _nifti_origin(buf: bytes, qfac: float) -> np.ndarray:
    """Position of voxel 0 from a qform that only translates.

    A qform (qform_code > 0) with quatern_b/c/d all 0 and qfac >= 0 puts it
    at qoffset_x/y/z; otherwise the origin is 0.  An sform (sform_code > 0)
    is only checked: its srow rows must scale their own axis by a positive
    factor.  Any rotation or flip is rejected, since a Volume has none.
    """
    qform_code, sform_code = struct.unpack_from("<2h", buf, 252)
    origin = np.zeros(3)
    if sform_code > 0:
        srow = np.array(struct.unpack_from("<12f", buf, 280), dtype=np.float64).reshape(3, 4)
        for k, axis in enumerate("xyz"):
            if not (srow[k, k] > 0 and np.all(np.delete(srow[k, :3], k) == 0)):
                raise VolumeFormatError(
                    f"NIfTI srow_{axis} {srow[k].tolist()} at byte {280 + 16 * k} "
                    "rotates or flips the grid; only translations are supported"
                )
    if qform_code > 0:
        for name, offset in (("quatern_b", 256), ("quatern_c", 260), ("quatern_d", 264)):
            value = struct.unpack_from("<f", buf, offset)[0]
            if value != 0.0:
                raise VolumeFormatError(
                    f"NIfTI {name}={value} at byte {offset} rotates the grid; "
                    "only translations are supported"
                )
        if qfac < 0:
            raise VolumeFormatError(
                f"NIfTI qfac pixdim[0]={qfac} at byte 76 flips the grid; "
                "only translations are supported"
            )
        origin = np.array(struct.unpack_from("<3f", buf, 268), dtype=np.float64)
        if not np.all(np.isfinite(origin)):
            raise VolumeFormatError(
                f"non-finite NIfTI origin {origin.tolist()} (qoffset at byte 268)"
            )
    return origin


# ---------------------------------------------------------------------------
# Interpolation and resampling
# ---------------------------------------------------------------------------


def _catmull_rom_weights(frac: np.ndarray) -> np.ndarray:
    """(N, 4) Catmull-Rom weights for neighbors at offsets -1, 0, 1, 2."""
    f = frac
    f2 = f * f
    f3 = f2 * f
    w = np.empty(frac.shape + (4,))
    w[..., 0] = -0.5 * f3 + f2 - 0.5 * f
    w[..., 1] = 1.5 * f3 - 2.5 * f2 + 1.0
    w[..., 2] = -1.5 * f3 + 2.0 * f2 + 0.5 * f
    w[..., 3] = 0.5 * f3 - 0.5 * f2
    return w


def _resample_axis(arr: np.ndarray, axis: int, n_out: int, scale: float) -> np.ndarray:
    """Catmull-Rom resample one axis; output index j samples input at j*scale."""
    n_in = arr.shape[axis]
    u = np.arange(n_out, dtype=np.float64) * scale
    u = np.clip(u, 0.0, n_in - 1.0)
    base = np.floor(u).astype(np.int64)
    base = np.minimum(base, n_in - 2)  # keep frac in [0, 1] at the top edge
    frac = u - base
    weights = _catmull_rom_weights(frac)

    # Ghost slices one step past each face are linearly extrapolated so the
    # kernel keeps reproducing affine fields at the borders; the caller's
    # intensity-range clamp bounds any overshoot this introduces.
    first = arr.take([0], axis=axis)
    second = arr.take([1], axis=axis)
    last = arr.take([n_in - 1], axis=axis)
    penult = arr.take([n_in - 2], axis=axis)
    padded = np.concatenate(
        [2.0 * first - second, arr, 2.0 * last - penult], axis=axis
    )

    shape = [1] * arr.ndim
    shape[axis] = n_out
    out = np.zeros([n_out if a == axis else s for a, s in enumerate(arr.shape)])
    for k in range(4):
        out += padded.take(base + k, axis=axis) * weights[:, k].reshape(shape)
    return out


def resample_isotropic(v: Volume, target_spacing: float) -> Volume:
    """Resample onto an isotropic grid of the given spacing (mm).

    The output covers the same physical extent (``dims * spacing`` per axis,
    rounded up to whole voxels) and shares the input origin.  Intensities
    come from separable tricubic Catmull-Rom interpolation with coordinates
    clamped at the grid edges, then are clamped to the input intensity range.
    """
    t = float(target_spacing)
    if t <= 0:
        raise ValueError("target_spacing must be positive")
    return _resample_onto(v, v.data.astype(np.float64), t)


def _resample_onto(v: Volume, arr: np.ndarray, t: float) -> Volume:
    """``arr``, laid out on v's grid, resampled to isotropic spacing ``t``.

    The output covers v's extent from v's origin, and its intensities are
    clamped to v's intensity range.
    """
    dims_out = [int(math.ceil(n * s / t)) for n, s in zip(v.dims, v.spacing)]
    for axis in range(3):
        arr = _resample_axis(arr, axis, dims_out[axis], t / v.spacing[axis])
    lo, hi = v.intensity_range
    np.clip(arr, lo, hi, out=arr)
    return Volume(data=arr, spacing=(t, t, t), origin=v.origin)


def build_pyramid(v: Volume, num_levels: int) -> Pyramid:
    """Coarse-to-fine pyramid with geometrically increasing spacing.

    Level r (1-based) has spacing ``base * 4**((r-1)/(R-1))`` so a 4-level
    pyramid on a 1mm volume runs 1mm -> 4mm.  Each coarse level is the input
    smoothed by a Gaussian matched to the downsampling ratio
    (sigma = 0.5*sqrt(ratio**2 - 1) voxels, truncated at 3 sigma) and then
    resampled.  Level 1 is the input itself.
    """
    if num_levels < 1:
        raise ValueError("pyramid needs at least one level")
    if not np.allclose(v.spacing, v.spacing[0], rtol=1e-9):
        raise ValueError("build_pyramid requires an isotropic volume; resample first")
    base = float(v.spacing[0])
    levels = [v]
    for r in range(2, num_levels + 1):
        ratio = 4.0 ** ((r - 1) / (num_levels - 1))
        sigma = 0.5 * math.sqrt(ratio * ratio - 1.0)
        smoothed = ndimage.gaussian_filter(
            v.data.astype(np.float64), sigma=sigma, mode="nearest", truncate=3.0
        )
        levels.append(_resample_onto(v, smoothed, base * ratio))
    return Pyramid(levels=levels)


def gradient_magnitude(v: Volume) -> Volume:
    """Euclidean norm of the spatial intensity gradient, per mm.

    Central differences in the interior, one-sided at the boundary faces, so
    every voxel carries a value.
    """
    gx, gy, gz = np.gradient(v.data.astype(np.float64), *v.spacing)
    mag = np.sqrt(gx * gx + gy * gy + gz * gz)
    return Volume(data=mag, spacing=v.spacing, origin=v.origin)


def trilinear_many(v: Volume, pts: np.ndarray):
    """Trilinear interpolation of (N, 3) physical points.

    Returns ``(values, inside)``; values are 0.0 where ``inside`` is False
    (point outside the voxel-center bounding box).
    """
    pts = np.asarray(pts, dtype=np.float64)
    c = (pts - v.origin) / v.spacing
    dims = np.array(v.dims)
    inside = np.all((c >= 0.0) & (c <= dims - 1.0), axis=-1)

    cc = np.clip(c, 0.0, dims - 1.0)
    base = np.minimum(np.floor(cc).astype(np.int64), dims - 2)
    f = cc - base

    nx, ny, _ = v.dims
    flat = v.flat_values()
    i000 = base[:, 0] + nx * (base[:, 1] + ny * base[:, 2])
    vals = np.zeros(len(pts))
    for dx in (0, 1):
        wx = f[:, 0] if dx else 1.0 - f[:, 0]
        for dy in (0, 1):
            wy = f[:, 1] if dy else 1.0 - f[:, 1]
            for dz in (0, 1):
                wz = f[:, 2] if dz else 1.0 - f[:, 2]
                vals += wx * wy * wz * flat[i000 + dx + nx * (dy + ny * dz)]
    vals[~inside] = 0.0
    return vals, inside
