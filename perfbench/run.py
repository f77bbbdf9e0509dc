"""sampreg benchmark: one workload, one seed, one measured pass.

Run from the root of a sampreg checkout:

    python3 perfbench/run.py --workload reg96-sparse --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` replays the same calls under span tracing and reports
the per-layer metrics.  The library is imported from ``src/`` next to this
directory.  Every metric the run computed is printed as
``metric <name> <value> <unit>`` and written, with the inputs' hashes, the
gold transforms, every call and the environment, to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.  The last stdout line
is the JSON result: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 on success, 1 when the correctness gate fails, 2 when the
library is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _limit_threads() -> None:
    """At most nproc BLAS/OpenMP threads, set before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="32^3 inputs and 3 iterations a level, for the benchmark's own test")
    args = p.parse_args(argv)

    if not (SRC / "sampreg" / "__init__.py").is_file():
        print(f"perfbench: no sampreg library at {SRC}; run from a sampreg checkout",
              file=sys.stderr)
        return 2
    _limit_threads()
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [x for x in os.environ.get("PYTHONPATH", "").split(os.pathsep) if x])
    import sampreg

    if Path(sampreg.__file__).resolve().parent != SRC / "sampreg":
        print(f"perfbench: imported sampreg from {sampreg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import measure

    if args.workload not in measure.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; one of {sorted(measure.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    record, result = measure.run(args, OUT)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for inp in record["inputs"]:
        print(f"input pair{inp['pair']} fixed={inp['fixed_sha256'][:16]} "
              f"moving={inp['moving_sha256'][:16]} gold={json.dumps(inp['gold'])}")
    for check in record["checks"]:
        print(f"check {'ok' if check['ok'] else 'FAILED'}: {check['check']}")
    for name, m in record["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"metric {name} {value} {m['unit']}" + (f"  ({m['note']})" if m["note"] else ""))
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(f"results {path.relative_to(HERE.parent)}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
