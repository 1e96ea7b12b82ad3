"""Span tracer for mmclab, installed from outside the package.

It wraps the public functions of each traced mmclab module, plus the
harness task boundary ``harness._run_task``. Modules import many of these
functions by name (``evaluation`` holds its own ``project_latents``,
``training`` its own ``svd_top``, ``cli`` its own ``run_experiment``), so
every module attribute bound to a wrapped function is patched, not only the
defining one. A call that reaches a function through such an alias still
records a span.

A span is ``(id, name, start, end, parent, thread)``. Spans are kept in
memory and handed out by :meth:`Tracer.report`. A span opened on a worker
thread with no open span of its own takes the innermost open span of the
installing thread as its parent. That is the ``run_experiment`` call that
owns the thread pool.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

TRACED_MODULES = ("cli", "harness", "training", "datagen", "evaluation",
                  "covariance", "numerics", "theory")
TASK_BOUNDARY = "_run_task"


def _union_length(intervals):
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans) -> dict:
    """Self time per span name: duration minus the union of its children's
    intervals, clipped to the span."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(float)
    for sid, name, start, end, _, _ in spans:
        kids = [(max(lo, start), min(hi, end)) for lo, hi in children[sid]]
        covered = _union_length([(lo, hi) for lo, hi in kids if hi > lo])
        out[name] += (end - start) - covered
    missing = set(children) - set(by_id)
    if missing:
        raise ValueError(f"spans reference {len(missing)} unknown parents")
    return dict(out)


class Tracer:
    """Records spans and computed counts for calls into mmclab."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._owner_stack = []
        self._patched = []

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the traced functions of ``package`` (the imported mmclab
        package) in every mmclab module that holds them."""
        modules = [getattr(package, name) for name in TRACED_MODULES]
        originals = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(module).items():
                public = not attr.startswith("_") or attr == TASK_BOUNDARY
                if (public and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    originals[id(value)] = self._wrap(f"{short}.{attr}", value)
        prefix = package.__name__
        holders = [mod for name, mod in sorted(sys.modules.items())
                   if name == prefix or name.startswith(prefix + ".")]
        for module in holders:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        self._owner_stack = self._stack()

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._owner_stack[-1] if self._owner_stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent,
                                   threading.get_ident()))
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                increments = hook(bound.arguments, result)
                with self._lock:
                    self.counts.update(increments)
            return result

        return wrapper

    # -- analysis -----------------------------------------------------------

    def report(self, wall_s: float) -> dict:
        """Self times, call counts, computed counts and the accounting of the
        traced wall time ``wall_s`` (the run of every config on the
        installing thread)."""
        spans = list(self.spans)
        selfs = self_times(spans)
        names = {s[0]: s[1] for s in spans}
        threads = {s[0]: s[5] for s in spans}
        owner = threading.get_ident()
        main_roots = [s for s in spans if s[4] is None and s[5] == owner]
        adopted = [(s[2], s[3]) for s in spans
                   if s[5] != owner and threads.get(s[4]) == owner]
        glue = wall_s - sum(s[3] - s[2] for s in main_roots)
        # thread-seconds beyond the wall clock: worker spans that overlap
        excess = sum(hi - lo for lo, hi in adopted) - _union_length(adopted)
        return {
            "spans": spans,
            "self_s": selfs,
            "calls": dict(Counter(s[1] for s in spans)),
            "edges": sorted({f"{names.get(s[4])}>{s[1]}" for s in spans
                             if s[4] is not None}),
            "counts": dict(self.counts),
            "wall_s": wall_s,
            "glue_s": glue,
            "overlap_excess_s": excess,
            "accounted_s": sum(selfs.values()) + glue,
        }


# -- computed counts, from array shapes and returned metadata ----------------

def _gd_fit(flops_per_epoch):
    def hook(args, result):
        from mmclab.training import GRAD_TOL
        meta = result.training_meta
        return {"training.gd_fits": 1,
                "training.gd_converged": int(meta["final_grad_norm"] < GRAD_TOL),
                "training.gd_epochs": meta["epochs"],
                "training.gd_flops": meta["epochs"] * flops_per_epoch(args, result)}
    return hook


def _latents(args, result):
    return {"datagen.rows": len(result), "datagen.bytes_out": result.z.nbytes}


def _projection(args, result):
    return {"datagen.bytes_out": result.nbytes}


def _evaluated(args, result):
    return {"evaluation.rows": result.n_eval}


def _cross_cov(args, result):
    data = args["data"]
    return {"covariance.flops": 2 * data.n * data.d_image * data.d_text}


def _experiment(args, result):
    walls = {rec.run_id: rec.wall_time for rec in result}
    return {"harness.tasks": len(walls), "harness.records": len(result),
            "harness.errors": sum(rec.error is not None for rec in result),
            "harness.task_s": sum(walls.values())}


def _csv(args, result):
    return {"harness.csv_bytes": os.path.getsize(args["path"])}


_HOOKS = {
    # 4·n·d·q per epoch: the forward product x @ w and the gradient x.T @ r
    "training.sl_fit_gd": _gd_fit(
        lambda a, r: 4 * a["images"].shape[0] * a["images"].shape[1] * r.q),
    # 4·p·d_I·d_T per epoch: the two gradient products against S
    "training.mmcl_fit_gd": _gd_fit(
        lambda a, r: 4 * a["p_dim"] * r.G.shape[0] * r.G.shape[1]),
    "datagen.sample_latents_dm1": _latents,
    "datagen.sample_latents_dm2": _latents,
    "datagen.enumerate_latents_dm2": _latents,
    "datagen.project_latents": _projection,
    "evaluation.evaluate_zero_shot": _evaluated,
    "evaluation.evaluate_sl": _evaluated,
    "evaluation.evaluate_probe": _evaluated,
    "covariance.empirical_cross_cov": _cross_cov,
    "harness.run_experiment": _experiment,
    "harness.emit_csv": _csv,
}
