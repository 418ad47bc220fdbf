"""Spans recorded from outside the package, around the calls into each layer.

Each traced name is replaced, at the module whose code calls it, by a
wrapper that records a span (name, layer, start, end, parent).  Spans live
in memory; self time is a span's duration minus the part its children
cover.  Nothing inside ``src/`` is changed: the wrappers are removed when
the ``instrument`` context exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module, attribute, layer that owns the function).  A function imported by
# name into several modules is wrapped at each of them, so every call site
# goes through exactly one wrapper.  Names a later refactor removes are
# skipped and listed as unwrapped in the trace file.
TARGETS = (
    ("cli", "main", "cli"),
    ("cli", "outer_solve", "profiles"),
    ("cli", "residual_selfsimilar", "profiles"),
    ("cli", "weighted_residual_norm", "profiles"),
    ("cli", "tail_exponent_fit", "profiles"),
    ("cli", "moment", "grids"),
    ("cli", "write_profile", "profile_io"),
    ("cli", "write_json", "profile_io"),
    ("cli", "read_profile", "profile_io"),
    ("profiles", "recover_tau", "profiles"),
    ("profiles", "residual_selfsimilar", "profiles"),
    ("profiles", "weighted_residual_norm", "profiles"),
    ("profiles", "tail_exponent_fit", "profiles"),
    ("profiles", "certification_checks", "profiles"),
    ("profiles", "inner_solve", "tau_iteration"),
    ("profiles", "reconstruct_profile", "tau_iteration"),
    ("profiles", "build_grid", "grids"),
    ("profiles", "half_convolution_at_nodes", "grids"),
    ("profiles", "moment", "grids"),
    ("tau_iteration", "sample_on_plan", "grids"),
    ("tau_iteration", "cumulative_log_integral", "grids"),
    ("tau_iteration", "moment", "grids"),
    ("grids", "sample_on_plan", "grids"),
    ("grids.Grid", "half_range_plan", "grids"),
    ("evolution", "default_domain_cutoff", "evolution"),
    ("evolution", "init_from_profile", "evolution"),
    ("evolution", "simulate", "evolution"),
    ("evolution", "step", "evolution"),
    ("evolution", "self_similar_error", "evolution"),
    ("evolution", "moment", "grids"),
)

LAYERS = ("grids", "tau_iteration", "profiles", "profile_io", "evolution", "cli")


class Tracer:
    """In-memory span recorder for one single-threaded run.

    A span is a list ``[name, layer, start, end, parent_index]``; times are
    ``time.perf_counter`` seconds.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, layer, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, layer: str, on_result=None):
        """``fn`` recording a span per call; ``on_result(result, args)`` runs
        after a successful call, outside the timed interval."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced


def _resolve(path: str):
    """``"grids.Grid"`` -> the class ``coagdrift.grids.Grid``."""
    module, _, attr = path.partition(".")
    obj = importlib.import_module(f"coagdrift.{module}")
    return getattr(obj, attr) if attr else obj


@contextlib.contextmanager
def instrument(tracer: Tracer, hooks: dict | None = None):
    """Install the wrappers of TARGETS for the duration of the block.

    ``hooks`` maps an attribute name to an ``on_result`` callback.  Yields
    the list of targets that no longer exist.
    """
    hooks = hooks or {}
    missing = []
    with contextlib.ExitStack() as stack:
        for owner_path, attr, layer in TARGETS:
            owner = _resolve(owner_path)
            original = owner.__dict__.get(attr)
            if original is None:
                missing.append(f"{owner_path}.{attr}")
                continue
            wrapped = tracer.wrap(original, f"{owner_path}:{attr}", layer, hooks.get(attr))
            setattr(owner, attr, wrapped)
            stack.callback(setattr, owner, attr, original)
        yield missing


def function_name(span) -> str:
    """Attribute name of a span, without its call site."""
    return span[0].rpartition(":")[2]


def duration(span) -> float:
    return span[3] - span[2]


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of it.
    """
    own = [duration(s) for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= duration(s)
    return own
