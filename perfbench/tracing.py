"""Spans, failure attribution and numeric-warning counts for the benchmark.

Everything here lives on the benchmark's side of the API. The traced run
replaces module attributes of regime_extract with timing wrappers, and
also every other reference that a module holds to the same function (for
example control binds stopping.v as v_stop), then restores them. The
untraced run wraps nothing.

A layer is a module of regime_extract. _numerics is reached only through
stopping and control, so its time, failures and warnings count against
the caller.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import warnings
from collections import Counter

PACKAGE = "regime_extract"
LAYERS = ("model", "roots", "stopping", "control", "mcsim", "cli")
_NOT_LAYERS = ("_numerics", "errors")


def _work_path_steps(bound):
    a = bound.arguments
    return (2 if a["antithetic"] else 1)*a["n_pairs"]*a["K"]


def _work_grid_states(bound):
    return bound.arguments["nx"]*bound.arguments["ny"]


# (module, attribute, work counter). A work counter maps the bound call
# arguments to a count of work units, stored on the span. Targets missing
# from the program are skipped, so the benchmark still runs after the
# program renames or merges an internal function; its metrics then read 0.
TARGETS = (
    ("model", "check_assumptions", None),
    ("roots", "solve_characteristic", None),
    ("stopping", "solve_z", None),
    ("stopping", "verify_fbp", None),
    ("stopping", "x_star", None),
    ("stopping", "v", None),
    ("control", "from_stopping", None),
    ("control", "b_star", None),
    ("control", "U", None),
    ("control", "U_x", None),
    ("control", "U_xx", None),
    ("control", "U_report", None),
    ("control", "verify_hjb", _work_grid_states),
    ("mcsim", "estimate_value", None),
    ("mcsim", "_fast_reflect_batch", _work_path_steps),
    ("mcsim", "_generic_batch", _work_path_steps),
    ("mcsim", "simulate_traces", None),
    ("mcsim", "skorokhod_check", None),
    ("cli", "main", None),
)


def _layer(frame):
    name = frame.f_globals.get("__name__", "")
    if name.startswith(PACKAGE + "."):
        short = name.rsplit(".", 1)[1]
        if short not in _NOT_LAYERS:
            return short
    return None


def layer_of_frame(frame) -> str:
    """Innermost layer on a frame chain, or 'bench' outside the program."""
    while frame is not None:
        layer = _layer(frame)
        if layer:
            return layer
        frame = frame.f_back
    return "bench"


def layer_of_exception(exc: BaseException) -> str:
    """Layer of the innermost program frame the exception passed through."""
    layer = "bench"
    tb = exc.__traceback__
    while tb is not None:
        layer = _layer(tb.tb_frame) or layer
        tb = tb.tb_next
    return layer


class WarningCounter:
    """Counts RuntimeWarnings per layer instead of printing them.

    Every RuntimeWarning is shown (filter 'always'), so repeated warnings
    from one line all count; none is raised, so the program behaves as it
    would under the default filters.
    """

    def __init__(self):
        self.counts = Counter()

    @contextlib.contextmanager
    def active(self):
        with warnings.catch_warnings():
            warnings.simplefilter("always", RuntimeWarning)
            previous = warnings.showwarning

            def show(message, category, filename, lineno, file=None,
                     line=None):
                if issubclass(category, RuntimeWarning):
                    self.counts[layer_of_frame(sys._getframe(1))] += 1
                else:
                    previous(message, category, filename, lineno, file, line)

            warnings.showwarning = show
            yield self


class Tracer:
    """In-memory span recorder.

    A span is [name, start, end, parent index, job id, work]; name is
    '<layer>.<function>', parent is -1 for a job's root span.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.job_id = None

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if work else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job_id,
                   None]
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[5] = work(bound)
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target, and every alias of it, for the duration."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        try:
            for mod_name, attr, work in TARGETS:
                mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
                original = getattr(mod, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{mod_name}.{attr}", original, work)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is original:
                            self._patched.append((m, key, original))
                            setattr(m, key, wrapper)
            yield self
        finally:
            for m, key, original in reversed(self._patched):
                setattr(m, key, original)
            self._patched.clear()

    @contextlib.contextmanager
    def job(self, job_id):
        """Root span of one job; its self time is the benchmark's own code."""
        self.job_id = job_id
        rec = ["bench.job", 0.0, 0.0, -1, job_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self.job_id = None

    def summary(self):
        """Per span name: calls, total s, self s, work units, and the total
        of spans whose parent is estimate_value (for engine rates)."""
        child = [0.0]*len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for k, (name, t0, t1, parent, _, work) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                      "work": 0, "under_estimate": 0.0,
                                      "work_under_estimate": 0})
            s["calls"] += 1
            s["total"] += t1 - t0
            s["self"] += t1 - t0 - child[k]
            s["work"] += work or 0
            if parent >= 0 and self.spans[parent][0] == "mcsim.estimate_value":
                s["under_estimate"] += t1 - t0
                s["work_under_estimate"] += work or 0
        return out
