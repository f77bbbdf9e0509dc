"""Benchmark workloads and their seeded inputs.

Every input is a phantom pair made with ``bench.make_phantom``,
``bench.random_rigid`` and ``bench.make_moving`` from the workload seed, so
the same seed always yields the same volumes and gold transforms.

Run as a script, this module writes one workload's inputs to an ``.npz``
file.  ``run.py`` starts it in a child process and loads the file, so the
measuring process never holds the generator's temporaries and its peak
resident memory belongs to the library calls alone.

    python3 perfbench/workloads.py --workload reg96-sparse --seed 1 --out in.npz
"""

from __future__ import annotations

import argparse
import hashlib
from dataclasses import dataclass

import numpy as np

from sampreg import bench
from sampreg.rng import derive_seed, make_rng
from sampreg.transform import RigidParams
from sampreg.volume import Volume

# Derivation-path tags under the workload seed.
_PHANTOM = 1
_GOLD = 2
_NOISE = 3
CASE_STREAM = 4
TRAIN_STREAM = 5
TRAINED_CASE_STREAM = 6

NOISE_SD = 0.02
NUM_LEVELS = 4
SMOKE_SIZE = 32
SMOKE_MAX_ITERS = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its inputs and the calls it times."""

    name: str
    kind: str  # "register" or "train"
    size: int
    num_pairs: int
    sampler: str
    rate: float
    betas: dict | None = None
    particles: int = 0
    pso_iterations: int = 0
    mc_trials: int = 0
    # registrations per training pair made with the learned weights
    trained_cases_per_pair: int = 0


# reg96-sparse exercises the draw and the gms/mixed building, which
# reg64-dense bypasses (urs) while spending its time in similarity; train64 is
# the only one where training runs.  BENCHMARK.json gives each one's reason.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="reg96-sparse",
            kind="register",
            size=96,
            num_pairs=3,
            sampler="mixed",
            rate=0.0005,
            betas={r: 0.5 for r in range(1, NUM_LEVELS + 1)},
        ),
        Workload(
            name="reg64-dense",
            kind="register",
            size=64,
            num_pairs=3,
            sampler="urs",
            rate=0.005,
        ),
        Workload(
            name="train64",
            kind="train",
            size=64,
            num_pairs=3,
            sampler="mixed",
            rate=0.0005,
            particles=2,
            pso_iterations=1,
            mc_trials=1,
            trained_cases_per_pair=4,
        ),
    )
}


def max_translation_mm(size: int) -> float:
    """``random_rigid``'s 10mm default, shrunk for smoke-size phantoms."""
    return 10.0 * min(1.0, size / 96.0)


def generate(workload: Workload, seed: int, size: int) -> dict:
    """Arrays for every pair: fixed and moving data plus the gold transform."""
    arrays = {}
    for i in range(workload.num_pairs):
        fixed = bench.make_phantom(size, derive_seed(seed, _PHANTOM, i))
        gold = bench.random_rigid(
            fixed, make_rng(seed, _GOLD, i), max_translation_mm=max_translation_mm(size)
        )
        moving, _ = bench.make_moving(
            fixed, gold, noise_sd=NOISE_SD, seed=derive_seed(seed, _NOISE, i)
        )
        arrays[f"fixed{i}"] = fixed.data
        arrays[f"moving{i}"] = moving.data
        arrays[f"gold{i}"] = np.concatenate([gold.t, gold.r, gold.center])
    return arrays


@dataclass(frozen=True)
class Pair:
    fixed: Volume
    moving: Volume
    gold: RigidParams

    @property
    def corners(self) -> np.ndarray:
        lo, hi = self.fixed.bounds
        return np.array([[x, y, z] for x in (lo[0], hi[0])
                         for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])


def volume_hash(v: Volume) -> str:
    """sha256 of the stored voxels in x-fastest order."""
    return hashlib.sha256(v.flat_values().tobytes()).hexdigest()


def load(path, num_pairs: int) -> list:
    """Pairs back from a file written by ``generate``; 1mm grid at the origin."""
    with np.load(path) as f:
        pairs = []
        for i in range(num_pairs):
            g = f[f"gold{i}"]
            pairs.append(Pair(
                fixed=Volume(f[f"fixed{i}"], spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)),
                moving=Volume(f[f"moving{i}"], spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)),
                gold=RigidParams(t=g[0:3], r=g[3:6], center=g[6:9]),
            ))
    return pairs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]
    arrays = generate(w, args.seed, SMOKE_SIZE if args.smoke else w.size)
    with open(args.out, "wb") as f:
        np.savez(f, **arrays)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
