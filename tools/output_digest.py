"""Print one SHA-256 per output of fixed small runs, timing fields stripped.

Two checkouts whose ``register``, ``train_cascade``, ``sweep`` and CLI
outputs agree bit for bit print the same lines, so comparing this script's
output across two commits checks a refactor that must not change results:

    PYTHONPATH=src python3 tools/output_digest.py > digests.txt

The cases, all on seeded phantoms:

* ``register``: urs, gms and mixed at rates 0.05%, 0.5% and 5%, seeds 0 and
  1, on one 48-cube pair; each result's ``to_dict()`` without ``elapsed_s``.
* ``train_cascade`` on the ``train64`` benchmark inputs of seed 1 (three
  64-cube pairs, rate 0.05%): PSO 2x1 with one trial and 3x2 with two
  trials, each on one CPU (in-process) and on every CPU the process may use
  (process pool).  Betas, best objective values, swarm histories and the
  report without ``elapsed_s`` get one line each.
* ``bench.sweep`` over two 48-cube pairs, on one CPU and on every CPU, as
  for ``train_cascade``: the cases CSV without its ``time_ms`` column and
  the aggregate CSV without ``median_time_ms``.  Each sweep's wall time goes
  to stderr.
* the CLI's ``phantom``, ``register``, ``train``, ``sweep`` and ``mask``
  outputs.  Each output's ``config`` provenance block is printed as JSON
  and the rest hashed, so a change of settings keys shows as such and
  leaves the result lines comparable.

It takes about 30 s on a 2-core host.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py)

from sampreg import bench, cli, optimizer, training  # noqa: E402
from sampreg.rng import derive_seed, make_rng  # noqa: E402

TIME_KEYS = {"elapsed_s"}
TIME_COLUMNS = {"time_ms", "median_time_ms"}
BETAS = {1: 0.3, 2: 0.5, 3: 0.7, 4: 0.4}


def sha(obj) -> str:
    text = obj if isinstance(obj, (str, bytes)) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text if isinstance(text, bytes) else text.encode()).hexdigest()


def untimed(obj):
    """``obj`` without any ``elapsed_s`` key, at every depth."""
    if isinstance(obj, dict):
        return {k: untimed(v) for k, v in obj.items() if k not in TIME_KEYS}
    if isinstance(obj, (list, tuple)):
        return [untimed(v) for v in obj]
    return obj


def csv_untimed(text: str) -> tuple:
    """(config, body) of a CSV bench wrote: its '# config:' line parsed, and
    the table without its time columns."""
    lines = text.splitlines(keepends=True)
    config = None
    if lines and lines[0].startswith("# config: "):
        config = json.loads(lines.pop(0)[len("# config: "):])
    rows = list(csv.reader(io.StringIO("".join(lines))))
    keep = [j for j, name in enumerate(rows[0]) if name not in TIME_COLUMNS]
    return config, [[row[j] for j in keep] for row in rows]


def emit(name: str, digest: str) -> None:
    print(f"{name:<44} {digest}", flush=True)


def emit_config(name: str, config) -> None:
    print(f"{name} config: {json.dumps(config, sort_keys=True)}", flush=True)


def phantom_pair(size: int, i: int) -> training.TrainingPair:
    fixed = bench.make_phantom(size, seed=300 + i)
    gold = bench.random_rigid(fixed, make_rng(310, i), max_translation_mm=5.0)
    moving, gold = bench.make_moving(fixed, gold, noise_sd=0.02, seed=320 + i)
    return training.TrainingPair(fixed, moving, gold)


def on_cpus(cpus: int, run):
    """``run()`` while this process may use only its first ``cpus`` CPUs."""
    every_cpu = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(every_cpu)[:cpus])
    try:
        return run()
    finally:
        os.sched_setaffinity(0, every_cpu)


def register_cases() -> None:
    pair = phantom_pair(48, 0)
    prepared = optimizer.prepare(pair.fixed, pair.moving)
    for kind in ("urs", "gms", "mixed"):
        for rate in (0.0005, 0.005, 0.05):
            for seed in (0, 1):
                result = optimizer.register(
                    pair.fixed, pair.moving, sampler_kind=kind,
                    betas=BETAS if kind == "mixed" else None, rate=rate, seed=seed,
                    prepared=prepared,
                )
                emit(f"register {kind} rate={rate} seed={seed}", sha(untimed(result.to_dict())))


def train_cases() -> None:
    w = workloads.WORKLOADS["train64"]
    npz = io.BytesIO()
    np.savez(npz, **workloads.generate(w, 1, w.size))
    npz.seek(0)
    loaded = workloads.load(npz, w.num_pairs)  # as the benchmark loads them
    for particles, iterations, trials in ((2, 1, 1), (3, 2, 2)):
        for cpus in (1, len(os.sched_getaffinity(0))):
            pairs = [training.TrainingPair(p.fixed, p.moving, p.gold) for p in loaded]
            betas, report = on_cpus(cpus, lambda: training.train_cascade(
                pairs, trials,
                training.PsoConfig(particles=particles, iterations=iterations),
                optimizer.OptimizerConfig(), w.rate,
                derive_seed(1, workloads.TRAIN_STREAM), workloads.NUM_LEVELS,
            ))
            name = f"train pso={particles}x{iterations} trials={trials} cpus={cpus}"
            emit(f"{name} betas", sha({str(r): b for r, b in sorted(betas.items())}))
            emit(f"{name} best_q", sha([lv["best_q_mm2"] for lv in report["levels"]]))
            emit(f"{name} histories", sha([lv["history"] for lv in report["levels"]]))
            emit(f"{name} report", sha(untimed(report)))


def sweep_cases(tmp: Path) -> None:
    for cpus in (1, len(os.sched_getaffinity(0))):
        named = [(f"pair{i}", phantom_pair(48, i)) for i in range(2)]
        start = time.perf_counter()
        report = on_cpus(cpus, lambda: bench.sweep(
            named, ("urs", "gms", "mixed"), (0.001, 0.01), 2, seed=5, betas=BETAS))
        print(f"sweep on {cpus} CPU(s): {time.perf_counter() - start:.1f} s", file=sys.stderr)
        bench.write_cases_csv(report["outcomes"], tmp / "cases.csv", 4, BETAS)
        bench.write_aggregate_csv(report["aggregates"], tmp / "aggregate.csv")
        emit(f"sweep cpus={cpus} cases", sha(csv_untimed((tmp / "cases.csv").read_text())[1]))
        emit(f"sweep cpus={cpus} aggregate",
             sha(csv_untimed((tmp / "aggregate.csv").read_text())[1]))


def json_output(name: str, path: Path) -> None:
    doc = json.loads(path.read_text())
    emit_config(name, doc.pop("config"))
    emit(f"{name} rest", sha(untimed(doc)))


def cli_cases(tmp: Path) -> None:
    def run(*argv):
        rc = cli.main([str(a) for a in argv])
        if rc != 0:
            raise SystemExit(f"sampreg {argv[0]} exited {rc}")

    for i, params in enumerate(("1.5,-1,0.5,0.02,-0.01,0.03", "-1,2,0,-0.03,0.02,0.01")):
        run("phantom", "--size", 40, "--seed", 40 + i, "--out", tmp / f"f{i}.rvol",
            "--make-moving", tmp / f"m{i}.rvol", f"--params={params}",
            "--gold", tmp / f"g{i}.json")
    for name in ("f0.rvol", "m0.rvol", "f1.rvol", "m1.rvol"):
        emit(f"cli phantom {name}", sha((tmp / name).read_bytes()))
    json_output("cli phantom g0.json", tmp / "g0.json")
    (tmp / "pairs.json").write_text(json.dumps([
        {"fixed": f"f{i}.rvol", "moving": f"m{i}.rvol", "gold": f"g{i}.json"} for i in range(2)
    ]))
    fast = ("--levels", 3, "--max-iters", 20, "--rate", 0.005)
    run("train", "--pairs", tmp / "pairs.json", "--mc", 1, "--particles", 2, "--iters", 2,
        "--out", tmp / "betas.json", "--report", tmp / "report.json", "--seed", 3, *fast)
    json_output("cli train betas", tmp / "betas.json")
    json_output("cli train report", tmp / "report.json")
    run("register", "--fixed", tmp / "f0.rvol", "--moving", tmp / "m0.rvol",
        "--betas", tmp / "betas.json", "--out", tmp / "reg.json", "--seed", 4, *fast)
    json_output("cli register", tmp / "reg.json")
    run("sweep", "--pairs", tmp / "pairs.json", "--betas", tmp / "betas.json",
        "--rates", "0.002,0.01", "--trials", 1, "--out", tmp / "cases.csv",
        "--aggregate", tmp / "agg.csv", "--levels", 3, "--max-iters", 20)
    for name in ("cases.csv", "agg.csv"):
        config, body = csv_untimed((tmp / name).read_text())
        emit_config(f"cli sweep {name}", config)
        emit(f"cli sweep {name} rest", sha(body))
    run("mask", "--volume", tmp / "f0.rvol", "--sampler", "gms", "--rate", 0.01,
        "--seed", 6, "--out", tmp / "mask.rvol")
    emit("cli mask mask.rvol", sha((tmp / "mask.rvol").read_bytes()))
    json_output("cli mask sidecar", tmp / "mask.rvol.provenance.json")


def main() -> int:
    register_cases()
    train_cases()
    with tempfile.TemporaryDirectory() as d:
        sweep_cases(Path(d))
    with tempfile.TemporaryDirectory() as d:
        cli_cases(Path(d))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
