"""One benchmark pass over a workload: timing, scoring and the gates.

Imported by ``run.py`` after it has fixed the thread settings, because
numpy reads them when it is first imported.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from sampreg import bench, optimizer, training
from sampreg.rng import derive_seed

import tracing
import workloads
from workloads import NUM_LEVELS, WORKLOADS

# A registration fails when its max corner TRE exceeds this, as in bench.sweep.
FAIL_MM = bench.FAILURE_THRESHOLD_MM
# Samples beyond the percentile reported as a timing's tail.
TAIL_MARGIN = 10
# The metrics on the last output line of an untraced run (BENCHMARK.json's end_to_end).
GATED = ("setup_s", "call_ref.p50", "samples_per_ref", "peak_rss_mb")
# Size of the reference kernel's uniform draw.
REF_N = 1 << 19


class GateError(Exception):
    """An output failed the correctness gate."""


@dataclass
class Call:
    """One timed entry-point call and its outcome."""

    case: dict
    seconds: float
    result: object = None
    error: str | None = None
    max_tre_mm: float | None = None
    drawn: int = 0
    ref: float | None = None  # reference kernel time around the call, s

    @property
    def ok(self) -> bool:
        return self.error is None

    def record(self) -> dict:
        return {**self.case, "seconds": self.seconds, "ref_s": self.ref, "error": self.error,
                "max_tre_mm": self.max_tre_mm, "drawn": self.drawn}


@dataclass
class Pass:
    """Everything one run measured, before it is reduced to metrics."""

    setup: list = field(default_factory=list)
    calls: list = field(default_factory=list)  # timed entry-point calls
    registrations: list = field(default_factory=list)  # scored register calls
    traced: list = field(default_factory=list)  # calls repeated under the tracer
    checks: list = field(default_factory=list)
    trace: dict | None = None


def _timed(fn, case) -> Call:
    """Time fn(); a ValueError (every engine error is one) counts as a failure."""
    start = perf_counter()
    try:
        result = fn()
    except ValueError as e:
        return Call(case, perf_counter() - start,
                    error=f"{type(e).__name__}: {e}\n{traceback.format_exc(limit=-3)}")
    return Call(case, perf_counter() - start, result=result)


def reference_s(repeats: int = 5) -> float:
    """Median time of a fixed numpy kernel that uses no library code.

    The kernel is a Philox uniform draw, a selection, a gather, a weighted
    bincount and a sort: the operations the registration path spends its
    time in.  On a shared host the CPU's speed can drift by 20% within
    seconds and between runs; the kernel drifts with it, so call times
    divided by it are steadier than seconds.
    """
    times = []
    for _ in range(repeats):
        start = perf_counter()
        u = np.random.Generator(np.random.Philox(7)).random(REF_N)
        idx = np.flatnonzero(u < 0.05)
        vals = u[(idx * 7919) % REF_N].astype(np.float32).astype(np.float64)
        np.bincount(idx % 4096, weights=vals * u[idx], minlength=4096)
        np.sort(u[: REF_N // 4])
        times.append(perf_counter() - start)
    return statistics.median(times)


def _measured(fn, case) -> Call:
    """`_timed`, with the reference kernel timed just before and just after."""
    before = reference_s()
    call = _timed(fn, case)
    call.ref = 0.5 * (before + reference_s())
    return call


def _fingerprint(result, down_to: int = 1) -> str:
    """Outputs of a registration's levels, coarsest down to `down_to`, that a
    rerun with the same seed must reproduce exactly."""
    return json.dumps([
        [lv["level"], lv["params"], lv["iterations"], lv["termination"]]
        for lv in result.levels if lv["level"] >= down_to
    ], sort_keys=True)


def _train_fingerprint(out) -> str:
    betas, report = out
    return json.dumps({
        "betas": {str(r): b for r, b in sorted(betas.items())},
        "best_q_mm2": [lv["best_q_mm2"] for lv in report["levels"]],
    }, sort_keys=True)


def _same(a: Call, b: Call, fingerprint) -> bool:
    return a.ok == b.ok and (not a.ok or fingerprint(a.result) == fingerprint(b.result))


def _check(p: Pass, what: str, ok: bool) -> None:
    p.checks.append({"check": what, "ok": bool(ok)})
    if not ok:
        raise GateError(what)


def _score(p: Pass, calls, pairs) -> None:
    """Max corner TRE of each registration against its gold transform."""
    done = [c for c in calls if c.ok]
    _check(p, "registrations end with finite parameters", all(
        np.all(np.isfinite(c.result.final_params.as_vector())) for c in done))
    for c in done:
        pair = pairs[c.case["pair"]]
        c.max_tre_mm = bench.evaluate_case(c.result.final_params, pair.gold, pair.corners).max_tre
        c.drawn = sum(row["sample_size"] for lv in c.result.levels for row in lv["trace"])
    p.registrations.extend(calls)


class Bench:
    def __init__(self, workload, seed, seconds, trace, smoke):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracing.Tracer() if trace else None
        self.smoke = smoke
        self.cfg = (optimizer.OptimizerConfig(max_iters=workloads.SMOKE_MAX_ITERS) if smoke
                    else optimizer.OptimizerConfig())
        self.pairs = []
        self.prepared = []

    # -- inputs and set-up ---------------------------------------------------

    def load_inputs(self, out_dir: Path) -> list:
        """Generate the inputs in a child process and load them here."""
        path = out_dir / f"inputs-{self.w.name}-{self.seed}-{os.getpid()}.npz"
        cmd = [sys.executable, str(Path(workloads.__file__)), "--workload", self.w.name,
               "--seed", str(self.seed), "--out", str(path)]
        if self.smoke:
            cmd.append("--smoke")
        try:
            subprocess.run(cmd, check=True, timeout=120)
            self.pairs = workloads.load(path, self.w.num_pairs)
        finally:
            path.unlink(missing_ok=True)
        return [{
            "pair": i,
            "fixed_sha256": workloads.volume_hash(pair.fixed),
            "moving_sha256": workloads.volume_hash(pair.moving),
            "dims": list(pair.fixed.dims),
            "gold": pair.gold.to_dict(),
        } for i, pair in enumerate(self.pairs)]

    def _prepare(self, p: Pass, i: int):
        pair = self.pairs[i]
        start = perf_counter()
        prepared = optimizer.prepare(pair.fixed, pair.moving, NUM_LEVELS)
        p.setup.append(perf_counter() - start)
        return prepared

    def set_up(self, p: Pass) -> None:
        """Warm prepare once untimed, then prepare every pair, timed."""
        optimizer.prepare(self.pairs[0].fixed, self.pairs[0].moving, NUM_LEVELS)
        self.prepared = [self._prepare(p, i) for i in range(self.w.num_pairs)]

    def _time_loop(self, p: Pass, make_calls) -> list:
        """Calls from make_calls until `seconds` have passed (at least one).

        Each call is followed by one more timed prepare, so the set-up
        samples are spread over the same window as the calls.  In a traced
        run the call and that prepare are repeated under the tracer straight
        away, so that both timings of a call see the same machine load.
        """
        calls = []
        start = perf_counter()
        for k, (fn, case) in enumerate(make_calls):
            if calls and perf_counter() - start >= self.seconds:
                break
            calls.append(_measured(fn, case))
            if self.tracer is None:
                self._prepare(p, k % self.w.num_pairs)
                continue
            with self.tracer.installed():
                p.traced.append(_timed(fn, case))
                self._prepare(p, k % self.w.num_pairs)
        return calls

    def _register(self, i, reg_seed, betas, stop_level=1):
        pair = self.pairs[i]
        return optimizer.register(
            pair.fixed, pair.moving, sampler_kind=self.w.sampler, betas=betas,
            rate=self.w.rate, cfg=self.cfg, seed=reg_seed, num_levels=NUM_LEVELS,
            stop_level=stop_level, prepared=self.prepared[i],
        )

    # -- registration workloads ----------------------------------------------

    def _cases(self):
        j = 0
        while True:
            case = {"pair": j % self.w.num_pairs,
                    "reg_seed": derive_seed(self.seed, workloads.CASE_STREAM, j)}
            yield (lambda c=case: self._register(c["pair"], c["reg_seed"], self.w.betas)), case
            j += 1

    def run_register(self, p: Pass) -> None:
        # Warm every code path on the coarsest level of the first case, untimed.
        # The timed loop starts with that case, so its coarsest level must come
        # out bit-identical: a repeat with the same seed.
        _, first = next(self._cases())
        warm = _timed(lambda: self._register(first["pair"], first["reg_seed"], self.w.betas,
                                             stop_level=NUM_LEVELS), first)
        p.calls = self._time_loop(p, self._cases())
        _score(p, p.calls, self.pairs)
        _check(p, "coarsest level of the first case is bit-identical on repeat",
               _same(warm, p.calls[0], lambda r: _fingerprint(r, NUM_LEVELS)))
        if self.tracer:
            self._trace_metrics(p, _fingerprint)

    # -- training workload ---------------------------------------------------

    def _train(self):
        # Fresh pairs per call, so no cached state carries over between calls;
        # each call prepares its pairs itself, as `sampreg train` does.
        pairs = [training.TrainingPair(p.fixed, p.moving, p.gold) for p in self.pairs]
        return training.train_cascade(
            pairs, self.w.mc_trials,
            training.PsoConfig(particles=self.w.particles, iterations=self.w.pso_iterations),
            self.cfg, self.w.rate, derive_seed(self.seed, workloads.TRAIN_STREAM), NUM_LEVELS,
        )

    def run_train(self, p: Pass) -> None:
        # Warm the registration path on the coarsest level, untimed.
        _timed(lambda: self._register(0, 0, {NUM_LEVELS: 0.5}, stop_level=NUM_LEVELS), {})
        p.calls = self._time_loop(p, ((self._train, {"train": k}) for k in itertools.count()))
        if len(p.calls) == 1 and self.tracer is None:
            p.calls.append(_timed(self._train, {"train": 1, "timed": False}))
        _check(p, "train_cascade completes with finite weights and objective values", all(
            c.ok and np.all(np.isfinite(list(c.result[0].values())
                                        + [lv["best_q_mm2"] for lv in c.result[1]["levels"]]))
            for c in p.calls))
        if len(p.calls) > 1:
            _check(p, "repeated train_cascade calls are bit-identical",
                   all(_same(p.calls[0], c, _train_fingerprint) for c in p.calls[1:]))
        if self.tracer:
            self._trace_metrics(p, _train_fingerprint)
            return
        # Register every training pair with the learned weights.
        betas = p.calls[0].result[0]
        cases = [{"pair": i, "reg_seed": derive_seed(self.seed, workloads.TRAINED_CASE_STREAM, i, k)}
                 for i in range(self.w.num_pairs) for k in range(self.w.trained_cases_per_pair)]
        _score(p, [_measured(lambda c=c: self._register(c["pair"], c["reg_seed"], betas), c)
                   for c in cases], self.pairs)

    # -- traced pass ---------------------------------------------------------

    def _trace_metrics(self, p: Pass, fingerprint) -> None:
        """Per-layer metrics, after checking the traced calls changed nothing."""
        _check(p, "tracing wrappers removed afterwards", not self.tracer.leftover())
        _check(p, "traced outputs are bit-identical to untraced ones",
               all(_same(a, b, fingerprint) for a, b in zip(p.calls, p.traced)))
        t_untraced = sum(c.seconds for c in p.calls[:len(p.traced)])
        t_traced = sum(c.seconds for c in p.traced)
        metrics = tracing.layer_metrics(self.tracer.spans, len(p.traced))
        metrics["trace.overhead_ms"] = (1e3 * (t_traced - t_untraced) / len(p.traced), "ms")
        metrics["trace.overhead_pct"] = (100.0 * (t_traced - t_untraced) / t_untraced, "%")
        p.trace = {"metrics": metrics, "spans": self.tracer.dump(), "ops": len(p.traced),
                   "untraced_s": t_untraced, "traced_s": t_traced}


def tail(times):
    """(value, percentile) at the highest percentile with TAIL_MARGIN samples
    beyond it, or None when there are too few samples."""
    n = len(times)
    if n <= TAIL_MARGIN:
        return None
    k = n - TAIL_MARGIN
    return sorted(times)[k - 1], 100.0 * k / n


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
    }


def end_to_end(w, p: Pass) -> dict:
    """Every end-to-end metric named for the workload: {name: (value, unit, note)};
    value None where the metric does not apply.

    `*_ref` metrics measure time in units of the reference kernel timed
    around each call (`ref_s.p50` gives that unit in seconds).
    """
    m = {"setup_s": (statistics.median(p.setup), "s", f"median of {len(p.setup)} prepare calls")}
    regs = p.registrations
    ok = [c for c in regs if c.ok]
    if ok:
        times = [c.seconds for c in ok]
        m["register_s.p50"] = (statistics.median(times), "s", f"n={len(times)}")
        t = tail(times)
        m["register_s.tail"] = (
            (t[0], "s", f"p{t[1]:.1f} of n={len(times)}" + (", below p50" if t[1] < 50 else ""))
            if t else (None, "s", f"n/a: n={len(times)} <= {TAIL_MARGIN}"))
        drawn = sum(c.drawn for c in ok)
        m["samples_per_s"] = (drawn / sum(times), "1/s",
                              "drawn voxels evaluated per second of register time")
        m["samples_per_ref"] = (drawn / sum(c.seconds / c.ref for c in ok), "1/ref",
                                "drawn voxels evaluated per reference time of register time")
    tre = [math.inf if c.max_tre_mm is None else c.max_tre_mm for c in regs]
    m["max_tre_mm.p50"] = (statistics.median(tre), "mm", f"max corner TRE, n={len(regs)}")
    failed = [c for c in regs if not c.ok or c.max_tre_mm > FAIL_MM]
    m["fail_rate"] = (len(failed) / len(regs), "ratio",
                      f"{len(failed)}/{len(regs)} raised or ended above {FAIL_MM:g} mm")
    if w.kind == "train":
        timed = [c for c in p.calls if c.ref is not None]
        train_s = statistics.median(c.seconds for c in timed)
        report = p.calls[0].result[1]
        evals = report["pso"]["particles"] * report["pso"]["iterations"] * report["num_levels"]
        m["train_s"] = (train_s, "s", f"median of {len(timed)} calls")
        m["q_evals_per_s"] = (evals / train_s, "1/s", f"{evals} objective_Q evaluations a call")
        m["train_q_mm2"] = (report["levels"][-1]["best_q_mm2"], "mm2", "best objective, level 1")
    else:
        timed = [c for c in p.calls if c.ok]
        for name, unit in (("train_s", "s"), ("q_evals_per_s", "1/s"), ("train_q_mm2", "mm2")):
            m[name] = (None, unit, "n/a: no training in this workload")
    if timed:
        entry = "train_cascade" if w.kind == "train" else "register"
        m["call_ref.p50"] = (statistics.median(c.seconds / c.ref for c in timed), "ref",
                             f"median {entry} time over the reference time, n={len(timed)}")
    refs = [c.ref for c in p.calls + regs if c.ref is not None]
    m["ref_s.p50"] = (statistics.median(refs), "s", f"reference kernel time, n={len(refs)}")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "peak resident memory of this process")
    return m


def run(args, out_dir: Path) -> tuple:
    """Run one pass; returns (record for the results file, last-line result)."""
    w = WORKLOADS[args.workload]
    b = Bench(w, args.seed, args.seconds, bool(args.trace), args.smoke)
    p = Pass()
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": environment()}
    start = perf_counter()
    record["inputs"] = b.load_inputs(out_dir)
    record["generate_s"] = perf_counter() - start
    try:
        b.set_up(p)
        (b.run_train if w.kind == "train" else b.run_register)(p)
        metrics = p.trace["metrics"] if args.trace else end_to_end(w, p)
        if not args.trace:
            _check(p, "every gated metric has a value",
                   all(metrics.get(k, (None,))[0] is not None for k in GATED))
        correct = True
    except GateError as e:
        record["gate_error"] = str(e)
        metrics, correct = {}, False
    if args.trace:
        metrics = {k: (v, u, "") for k, (v, u) in metrics.items()}
    record["checks"] = p.checks
    record["calls"] = [c.record() for c in p.calls]
    if w.kind == "train":
        record["registrations"] = [c.record() for c in p.registrations]
    if p.trace:
        record["trace"] = {k: v for k, v in p.trace.items() if k not in ("spans", "metrics")}
        record["trace"]["spans_file"] = str(out_dir / f"{w.name}-seed{args.seed}-spans.json")
        with open(record["trace"]["spans_file"], "w") as f:
            json.dump(p.trace["spans"], f)
    record["metrics"] = {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()}
    record["correct"] = correct
    ops = p.calls if w.kind == "register" else p.calls + p.registrations
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(not c.ok for c in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()
                    if v is not None and (args.trace or k in GATED)},
    }
    return record, result
