"""Spans around the library's public functions, installed from outside.

``Tracer.installed()`` replaces each function named in ``LAYERS`` with a
wrapper everywhere a ``sampreg`` module binds it, including name imports
such as ``optimizer.build_pyramid``, and puts the originals back on exit.
Spans stay in memory as ``[name, start, end, parent, reg_id, info]`` rows:
``parent`` is the index of the enclosing span (-1 at the top), ``reg_id``
the index of the enclosing ``optimizer.register`` span (or of the top-level
span when there is none), and ``info`` holds counts read from the call's
arguments and result.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# Layers and the public functions timed in each; rng, bench and cli are not.
LAYERS = {
    "volume": ("build_pyramid", "gradient_magnitude", "trilinear_many"),
    "sampler": ("build_urs", "build_gms", "build_mixed", "draw"),
    "similarity": ("evaluate", "metric_value", "hann_sinc"),
    "transform": ("apply_many", "jacobian_many"),
    "optimizer": ("prepare", "register", "optimize_level"),
    "training": ("train_cascade", "objective_Q", "pso_minimize"),
}
NUM_LEVELS = 4


def _draw_info(a, idx):
    return {"scanned": a["d"].num_voxels, "selected": int(idx.size)}


def _evaluate_info(a, ev):
    retained = ev.sample_size - ev.escaped
    return {
        "samples": ev.sample_size,
        "escaped": ev.escaped,
        "kernel_pairs": retained * (2 * a["radius"]) ** 3,
    }


def _optimize_level_info(a, out):
    rows = out[1]["rows"]
    return {
        "level": a["dist"].level,
        "iterations": len(rows),
        "accepted": sum(row["accepted"] for row in rows),
        "budget_stop": out[1]["termination"] == "budget",
    }


_INFO = {
    "sampler.draw": _draw_info,
    "similarity.evaluate": _evaluate_info,
    "optimizer.optimize_level": _optimize_level_info,
}


def _sampreg_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "sampreg" or n.startswith("sampreg."))]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self._wrappers = set()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        info = _INFO.get(name)
        sig = inspect.signature(fn) if info else None
        is_register = name == "optimizer.register"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            reg_id = index if is_register or parent < 0 else spans[parent][4]
            row = [name, 0.0, 0.0, parent, reg_id, None]
            spans.append(row)
            stack.append(index)
            row[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = perf_counter()
                stack.pop()
            if info is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                row[5] = info(bound.arguments, result)
            return result

        self._wrappers.add(id(wrapper))
        return wrapper

    def _install(self):
        modules = _sampreg_modules()
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"sampreg.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if vars(module).get(fname) is original:
                        setattr(module, fname, wrapper)
                        self._patched.append((module, fname, original))

    def _remove(self):
        for module, fname, original in reversed(self._patched):
            setattr(module, fname, original)
        self._patched.clear()

    def leftover(self) -> list:
        """Module attributes that still hold one of this tracer's wrappers."""
        return [
            f"{module.__name__}.{attr}" for module in _sampreg_modules()
            for attr, value in vars(module).items() if id(value) in self._wrappers
        ]

    @contextlib.contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            self._remove()

    def dump(self) -> dict:
        """Spans with times in seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent", "reg_id", "info"],
            "spans": [[n, s - t0, e - t0, p, r, i] for n, s, e, p, r, i in self.spans],
        }


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, num_ops: int) -> dict:
    """Per-layer numbers from spans, normalised per entry-point call (op).

    ``*.calls`` and ``*.ms`` are per op, except the set-up group
    (``optimizer.prepare.ms`` and ``volume.*.ms``), which is per ``prepare``
    call.  Self time is a span's duration minus its children's durations.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    in_training = [False] * n
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            in_training[i] = in_training[parent] or spans[parent][0] == "training.objective_Q"

    calls = defaultdict(int)
    ms = defaultdict(float)
    self_ms = defaultdict(float)
    counts = defaultdict(float)
    level = {r: defaultdict(float) for r in range(1, NUM_LEVELS + 1)}
    for i, (name, _, _, _, _, info) in enumerate(spans):
        calls[name] += 1
        ms[name] += 1e3 * dur[i]
        self_ms[name] += 1e3 * (dur[i] - child[i])
        if info is None:
            continue
        if name == "optimizer.optimize_level":
            lv = level[info["level"]]
            lv["calls"] += 1
            lv["ms"] += 1e3 * dur[i]
            lv["iterations"] += info["iterations"]
            lv["training_runs"] += in_training[i]
        for key, value in info.items():
            if key != "level":
                counts[f"{name}.{key}"] += value

    per_op = 1.0 / max(num_ops, 1)
    n_prepare = max(calls["optimizer.prepare"], 1)
    builds = ("sampler.build_urs", "sampler.build_gms", "sampler.build_mixed")
    iterations = counts["optimizer.optimize_level.iterations"]
    eval_samples = counts["similarity.evaluate.samples"]
    m = {
        "sampler.draw.calls": (calls["sampler.draw"] * per_op, "count"),
        "sampler.draw.ms": (ms["sampler.draw"] * per_op, "ms"),
        "sampler.draw.scanned_per_selected": (
            _ratio(counts["sampler.draw.scanned"], counts["sampler.draw.selected"]), "ratio"),
        "sampler.build.calls": (sum(calls[b] for b in builds) * per_op, "count"),
        "sampler.build.ms": (sum(ms[b] for b in builds) * per_op, "ms"),
        "similarity.evaluate.calls": (calls["similarity.evaluate"] * per_op, "count"),
        "similarity.evaluate.ms": (ms["similarity.evaluate"] * per_op, "ms"),
        "similarity.evaluate.us_per_sample": (
            _ratio(1e3 * ms["similarity.evaluate"], eval_samples), "us"),
        "similarity.metric_value.calls": (calls["similarity.metric_value"] * per_op, "count"),
        "similarity.metric_value.ms": (ms["similarity.metric_value"] * per_op, "ms"),
        "similarity.hann_sinc.ms": (ms["similarity.hann_sinc"] * per_op, "ms"),
        "similarity.kernel_pairs": (
            counts["similarity.evaluate.kernel_pairs"] * per_op, "count"),
        "similarity.escaped_fraction": (
            _ratio(counts["similarity.evaluate.escaped"], eval_samples), "ratio"),
        "transform.apply_many.ms": (ms["transform.apply_many"] * per_op, "ms"),
        "transform.jacobian_many.ms": (ms["transform.jacobian_many"] * per_op, "ms"),
    }
    for r in range(1, NUM_LEVELS + 1):
        m[f"optimizer.optimize_level.ms.L{r}"] = (level[r]["ms"] * per_op, "ms")
    for r in range(1, NUM_LEVELS + 1):
        m[f"optimizer.iterations.L{r}"] = (
            _ratio(level[r]["iterations"], level[r]["calls"]), "count")
    m.update({
        "optimizer.budget_stops": (
            counts["optimizer.optimize_level.budget_stop"] * per_op, "count"),
        "optimizer.accept_ratio": (
            _ratio(counts["optimizer.optimize_level.accepted"], iterations), "ratio"),
        "optimizer.iter.self_us": (
            _ratio(1e3 * self_ms["optimizer.optimize_level"], iterations), "us"),
        "optimizer.prepare.ms": (ms["optimizer.prepare"] / n_prepare, "ms"),
        "volume.build_pyramid.ms": (ms["volume.build_pyramid"] / n_prepare, "ms"),
        "volume.gradient_magnitude.ms": (ms["volume.gradient_magnitude"] / n_prepare, "ms"),
        "volume.trilinear_many.ms": (ms["volume.trilinear_many"] / n_prepare, "ms"),
        "training.objective_Q.calls": (calls["training.objective_Q"] * per_op, "count"),
        "training.objective_Q.ms": (ms["training.objective_Q"] * per_op, "ms"),
    })
    for r in range(1, NUM_LEVELS + 1):
        m[f"training.level_runs.L{r}"] = (level[r]["training_runs"] * per_op, "count")
    m["training.pso_minimize.self_ms"] = (self_ms["training.pso_minimize"] * per_op, "ms")
    return m
