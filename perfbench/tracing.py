"""Span tracing around the public names alpha_descent modules look up in each other.

The package resolves every cross-module call at call time, through a module
global (``alpha_descent.descent.sample_mixture``) or a class attribute
(``GaussianKernel.logpdf_matrix``).  :func:`install` replaces each of those
names with a wrapper that records one span per call and returns a handle
whose ``restore()`` puts every original back, so nothing under ``src/`` is
edited and an untraced call runs exactly the code a user runs.

A span holds its name, the thread that ran it, the span that was open on
that thread when it started (its parent), start and end on the
``perf_counter`` clock, the thread CPU time where asked for, the exception
type if it raised, and a per-name extra count.  Spans stay in memory; the
caller folds them into per-layer totals and writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from collections import namedtuple

Span = namedtuple("Span", "sid parent name thread t0 t1 cpu error extra")


def _kernel_bytes(args, kwargs):
    # logpdf_matrix(self, points, ys) computes a (J, M) float64 matrix.
    points = kwargs.get("points", args[1] if len(args) > 1 else None)
    ys = kwargs.get("ys", args[2] if len(args) > 2 else None)
    return _rows(points) * _rows(ys) * 8


def _rows(array):
    shape = getattr(array, "shape", None)
    if shape is None:
        return len(array)
    return shape[0] if len(shape) > 1 else 1


def _trace_bytes(args, kwargs):
    # write_trace(traces, out_dir, config=None) writes into out_dir only.
    out_dir = kwargs.get("out_dir", args[1] if len(args) > 1 else None)
    with os.scandir(out_dir) as entries:
        return sum(e.stat().st_size for e in entries if e.is_file())


# (module, attribute path, span name, extra count, record thread CPU time).
# One span name may cover several patch points: the same layer reached
# through different importers.
PATCH_POINTS = (
    ("alpha_descent.model", "GaussianKernel.logpdf_matrix", "model.kernel_matrix", _kernel_bytes, False),
    ("alpha_descent.model", "Target.log_density", "model.target", None, False),
    ("alpha_descent.descent", "as_simplex", "model.as_simplex", None, False),
    ("alpha_descent.gradient", "as_simplex", "model.as_simplex", None, False),
    ("alpha_descent.descent", "sample_mixture", "gradient.sample", None, False),
    ("alpha_descent.explore", "sample_mixture", "gradient.sample", None, False),
    ("alpha_descent.descent", "gradient_monte_carlo_from_logs", "gradient.mc", None, False),
    ("alpha_descent.descent", "gradient_exact", "gradient.exact", None, False),
    ("alpha_descent.descent", "vr_bound_from_logs", "divergence.vr_bound", None, False),
    ("alpha_descent.descent", "divergence_exact", "divergence.objective_exact", None, False),
    ("alpha_descent.descent", "power_step", "descent.update", None, False),
    ("alpha_descent.descent", "emd_step", "descent.update", None, False),
    ("alpha_descent.descent", "kl_step", "descent.update", None, False),
    ("alpha_descent.descent", "renyi_step", "descent.update", None, False),
    ("alpha_descent.descent", "logsumexp", "descent.monitor_logmix", None, False),
    ("alpha_descent.descent", "run_descent", "descent.run", None, False),
    ("alpha_descent.harness", "run_descent", "descent.run", None, False),
    ("alpha_descent.harness", "explore_resample", "explore.resample", None, False),
    ("alpha_descent.harness", "explore_mean_update", "explore.mean_update", None, False),
    ("alpha_descent.harness", "run_replicate", "harness.replicate", None, True),
    ("alpha_descent.harness", "write_trace", "harness.write_trace", _trace_bytes, False),
)

# Spans whose self time is glue between layers rather than layer work.
CONTAINERS = ("descent.run", "harness.replicate")


class Recorder:
    """Collects spans from every thread into one in-memory list."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, extra=None, cpu=False):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, cpu_clock = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            sid = next(ids)
            stack.append(sid)
            error = None
            c0 = cpu_clock() if cpu else 0.0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                used = cpu_clock() - c0 if cpu else None
                stack.pop()
                count = extra(args, kwargs) if extra is not None and error is None else 0
                spans.append(
                    Span(sid, parent, name, threading.get_ident(), t0, t1, used, error, count)
                )

        return wrapper

    def take(self):
        """Remove and return every span recorded so far."""
        out = self.spans[:]
        del self.spans[: len(out)]
        return out


def _resolve(module_name, path):
    """(owner, attribute name) of a patch point; owner is None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, path
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    return owner, attr


class Installed:
    """Handle returned by :func:`install`; ``restore()`` undoes every patch."""

    def __init__(self, saved, missing):
        self._saved = saved
        self.missing = missing

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(recorder, points=PATCH_POINTS):
    """Wrap every patch point that exists; report the others as missing.

    A patch point that a later version of the package renames or removes
    is listed in ``missing`` by its dotted name instead of failing, so its
    span reads as missing in the report rather than as zero work.
    """
    saved, missing = [], []
    try:
        for module_name, path, name, extra, cpu in points:
            owner, attr = _resolve(module_name, path)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, recorder.wrap(name, original, extra, cpu))
            saved.append((owner, attr, original))
    except BaseException:
        Installed(saved, missing).restore()
        raise
    return Installed(saved, missing)


def aggregate(spans, totals=None):
    """Fold spans into per-name totals: calls, inclusive and self seconds,
    errors by type, extra counts and, for CPU-timed spans, seconds spent
    waiting (wall time minus the thread's CPU time)."""
    totals = {} if totals is None else totals
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.t1 - s.t0)
    for s in spans:
        agg = totals.get(s.name)
        if agg is None:
            agg = totals[s.name] = {
                "calls": 0, "incl_s": 0.0, "self_s": 0.0, "wait_s": 0.0,
                "extra": 0, "errors": {},
            }
        wall = s.t1 - s.t0
        agg["calls"] += 1
        agg["incl_s"] += wall
        agg["self_s"] += wall - child_time.get(s.sid, 0.0)
        if s.cpu is not None:
            agg["wait_s"] += wall - s.cpu
        agg["extra"] += s.extra
        if s.error is not None:
            agg["errors"][s.error] = agg["errors"].get(s.error, 0) + 1
    return totals


def covered_seconds(spans, exclude=()):
    """Length of the union of the spans' intervals, over all threads."""
    intervals = sorted((s.t0, s.t1) for s in spans if s.name not in exclude)
    total, end = 0.0, float("-inf")
    for t0, t1 in intervals:
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total
