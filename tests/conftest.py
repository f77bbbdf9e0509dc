"""Shared fixtures plus a terminal reporter for the acceptance criteria.

Acceptance tests record one summary line each through the ``criterion``
fixture; the lines are printed after the test run so pass/fail status per
criterion is visible even under output capture.
"""

import multiprocessing
import threading

import numpy as np
import pytest
from hypothesis import settings

from sampreg import bench, transform
from sampreg.volume import Volume

# A failing property test prints the ``@reproduce_failure`` blob that replays
# its example; examples stay random and each test keeps its own count.
settings.register_profile("default", print_blob=True)
settings.load_profile("default")

_CRITERION_LINES = []


@pytest.fixture(scope="session")
def criterion():
    def _record(line: str) -> None:
        _CRITERION_LINES.append(line)

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _CRITERION_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_thread_or_child_outlives_its_test():
    """Fail any test that ends with a thread it did not start with, or with
    a child process still alive."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads still running after the test: {left}")
    children = multiprocessing.active_children()
    if children:
        pytest.fail(f"child processes still alive after the test: {children}")


@pytest.fixture(scope="session")
def phantom32():
    """Small noiseless phantom, 1mm grid."""
    return bench.make_phantom(32, seed=7)


@pytest.fixture(scope="session")
def pair32(phantom32):
    """Noiseless 32-voxel-cube pair with a small known rigid offset."""
    gold = transform.RigidParams(
        t=(1.2, -0.8, 0.5), r=(0.02, -0.015, 0.03), center=phantom32.center_mm
    )
    moving, gold = bench.make_moving(phantom32, gold, seed=3)
    return phantom32, moving, gold


def ramp_volume(dims=(8, 8, 8), coeffs=(1.0, 0.0, 0.0), spacing=(1.0, 1.0, 1.0)):
    """Volume with intensity a*x_mm + b*y_mm + c*z_mm."""
    nx, ny, nz = dims
    x, y, z = np.meshgrid(
        np.arange(nx) * spacing[0],
        np.arange(ny) * spacing[1],
        np.arange(nz) * spacing[2],
        indexing="ij",
    )
    a, b, c = coeffs
    return Volume(data=a * x + b * y + c * z, spacing=spacing, origin=(0, 0, 0))
