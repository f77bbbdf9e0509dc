"""Time one optimizer iteration against the draw size M.

Level 1 of a seeded 96-cube phantom pair, mixed sampler with beta 0.5,
identity start.  For each M, one iteration's time is a K = 10 iteration
``optimizer.optimize_level`` call minus a zero-iteration call on the same
inputs (which leaves the level's per-call set-up), divided by the
iterations that ran.  The script reaches the library only through
``optimize_level``, so the same file times any checkout's ``src/``:

    python3 tools/iteration_probe.py                  # this checkout's src/
    python3 tools/iteration_probe.py --src ../other/src
    python3 tools/iteration_probe.py --smoke          # 32-cube, K = 3, 2 repeats

Each row prints the median over 20 repeats (2 with ``--smoke``), which
alternate between the K-iteration and the zero-iteration call.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DRAW_SIZES = (25, 100, 442, 1769, 8847)
BETA = 0.5
SEED = 21
REPEATS, ITERS = 20, 10


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=str(ROOT / "src"),
                   help="directory holding the sampreg package (default: this checkout's)")
    p.add_argument("--smoke", action="store_true", help="32-cube pair, 2 repeats, 3 iterations")
    args = p.parse_args(argv)
    size, repeats, iters = (32, 2, 3) if args.smoke else (96, REPEATS, ITERS)

    sys.path.insert(0, args.src)
    from sampreg import bench, optimizer, sampler
    from sampreg.rng import make_rng
    from sampreg.transform import RigidParams

    fixed = bench.make_phantom(size, seed=SEED)
    gold = bench.random_rigid(fixed, make_rng(SEED, 1))
    moving, _ = bench.make_moving(fixed, gold, noise_sd=0.02, seed=SEED + 1)
    prepared = optimizer.prepare(fixed, moving, num_levels=1)
    lo, hi = fixed.bounds
    start = RigidParams.identity(fixed.center_mm)
    print(f"sampreg from {Path(sys.modules['sampreg'].__file__).parent}")
    print(f"{size}-cube, level 1, mixed beta={BETA}, K={iters}, median of {repeats}")
    print(f"{'M':>6} {'rate':>8} {'drawn':>7} {'iters':>5} {'ms/iter':>8} {'us/sample':>9}")
    for m in DRAW_SIZES:
        dist, _ = sampler.build("mixed", fixed.num_voxels, float(m),
                                prepared.gradient_sources[0], BETA, level=1)

        def run(k):
            cfg = optimizer.OptimizerConfig(
                max_iters=k, rotation_scale=0.5 * float(((hi - lo) ** 2).sum() ** 0.5))
            t0 = time.perf_counter()
            _, trace = optimizer.optimize_level(
                fixed, moving, dist, start, cfg, make_rng(SEED, 2, m),
                fixed.intensity_range, moving.intensity_range)
            return time.perf_counter() - t0, trace["rows"]

        run(iters)  # warm-up
        per_iter, drawn, ran = [], [], []
        for _ in range(repeats):
            t_k, rows = run(iters)
            t_0, _ = run(0)
            per_iter.append((t_k - t_0) / len(rows))
            drawn.append(statistics.mean(row["sample_size"] for row in rows))
            ran.append(len(rows))
        t = statistics.median(per_iter)
        mean_drawn = statistics.mean(drawn)
        print(f"{m:>6} {m / fixed.num_voxels:>8.3%} {mean_drawn:>7.0f} "
              f"{statistics.median(ran):>5g} {1e3 * t:>8.3f} {1e6 * t / mean_drawn:>9.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
