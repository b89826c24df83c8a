"""Span tracer that wraps mapgroups' public calls from outside the package.

Each traced call is replaced, for the duration of ``Tracer.installed()``, by
a wrapper that records a span (name, start, end, parent span, op id) in
memory.  The wrapper is bound everywhere the original object is reachable:
in the defining module's globals, in every other ``mapgroups`` module that
imported it by name (``from .x import y``), and on the class for methods.
Nothing under ``src/`` is edited.

A span's self time is its duration minus the time its child spans cover;
calls are single-threaded and nested, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time

import numpy as np

# (span name, module, attribute path).  The span name is the metric prefix.
TRACED = (
    ("fields.sample", "mapgroups.fields", "sample"),
    ("fields.synthesize", "mapgroups.fields", "synthesize"),
    ("fields.BandlimitedField.evaluate", "mapgroups.fields", "BandlimitedField.evaluate"),
    ("fields.SampledField.interpolate", "mapgroups.fields", "SampledField.interpolate"),
    ("sobolev.hs_norm", "mapgroups.sobolev", "hs_norm"),
    ("sobolev.min_norm_extension", "mapgroups.sobolev", "min_norm_extension"),
    ("sobolev.restriction_kernel_basis", "mapgroups.sobolev", "restriction_kernel_basis"),
    ("cutoffs.cutoff_multiply", "mapgroups.cutoffs", "cutoff_multiply"),
    ("maps.pullback", "mapgroups.maps", "pullback"),
    ("maps.nemytskij", "mapgroups.maps", "nemytskij"),
    ("atlas.Atlas.overlap_samples", "mapgroups.atlas", "Atlas.overlap_samples"),
    ("atlas.Atlas.partition_weights", "mapgroups.atlas", "Atlas.partition_weights"),
    ("sections.Section", "mapgroups.sections", "Section.__init__"),
    ("sections.compatibility_defect", "mapgroups.sections", "compatibility_defect"),
    ("sections.glue", "mapgroups.sections", "glue"),
    ("sections.point_eval", "mapgroups.sections", "point_eval"),
    ("sections.hilbert_inner", "mapgroups.sections", "hilbert_inner"),
    ("groups.GroupSection", "mapgroups.groups", "GroupSection.__init__"),
    ("groups.exp_section", "mapgroups.groups", "exp_section"),
    ("groups.group_multiply", "mapgroups.groups", "group_multiply"),
    ("groups.group_invert", "mapgroups.groups", "group_invert"),
    ("groups.log_section", "mapgroups.groups", "log_section"),
    ("groups.MatrixGroup.project", "mapgroups.groups", "MatrixGroup.project"),
    ("limits.evolve", "mapgroups.limits", "evolve"),
    ("limits.critical_order_estimate", "mapgroups.limits", "critical_order_estimate"),
    ("domains.flow", "mapgroups.domains", "flow"),
    ("domains.boundary_samples", "mapgroups.domains", "boundary_samples"),
    ("axioms.run_axiom_suite", "mapgroups.axioms", "run_axiom_suite"),
    ("serialize.write_json", "mapgroups.serialize", "write_json"),
    ("serialize.read_json", "mapgroups.serialize", "read_json"),
    ("serialize.dump_group_section", "mapgroups.serialize", "dump_group_section"),
    ("serialize.load_curve", "mapgroups.serialize", "load_curve"),
)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _rows(points) -> int:
    return int(np.atleast_2d(np.asarray(points)).shape[0])


def _grid_key(grid) -> tuple:
    return (
        grid.m,
        tuple(grid.resolution),
        tuple(grid.window),
        tuple(a.tobytes() for a in grid.axis_indices),
    )


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Counters: span name -> (counter suffix, when, fn(args, kwargs) -> value).
# "before" counters read the arguments before the call; "after" counters
# run once the call returned (a written file has its final size then).
# A counter whose value is a tuple is a cache key: the layer reports the
# number of distinct keys divided by its call count.
COUNTERS = {
    "fields.SampledField.interpolate": (
        ("points", "before", lambda a, k: _rows(_arg(a, k, 1, "points"))),
    ),
    "sobolev.min_norm_extension": (
        ("distinct_ratio", "before", lambda a, k: (
            _grid_key(_arg(a, k, 0, "v").domain),
            float(_arg(a, k, 1, "s")),
            int(_arg(a, k, 2, "modes")),
            _arg(a, k, 3, "convention", "paper"),
        )),
    ),
    "atlas.Atlas.overlap_samples": (
        ("distinct_ratio", "before", lambda a, k: (
            a[0].name,
            a[0].lattice_resolution,
            int(_arg(a, k, 1, "i")),
            int(_arg(a, k, 2, "j")),
            int(_arg(a, k, 3, "per_axis", 33)),
            _arg(a, k, 4, "margin"),
        )),
    ),
    "limits.evolve": (
        ("node_steps", "before", lambda a, k: int(_arg(a, k, 1, "steps")) * sum(
            c.window.node_count for c in _arg(a, k, 0, "curve").atlas.charts
        )),
    ),
    "domains.flow": (
        ("point_steps", "before", lambda a, k: _rows(_arg(a, k, 1, "points"))
            * int(_arg(a, k, 3, "steps", 256))),
    ),
    "serialize.write_json": (
        ("bytes", "after", lambda a, k: _file_bytes(_arg(a, k, 0, "path"))),
    ),
    "serialize.read_json": (
        ("bytes", "before", lambda a, k: _file_bytes(_arg(a, k, 0, "path"))),
    ),
}


def counter_names() -> list[str]:
    return [f"{span}.{suffix}" for span, rows in COUNTERS.items() for suffix, _, _ in rows]


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        # (span index, counter name, value) for counters of traced calls.
        self.counts: list[tuple[int, str, object]] = []
        self._stack: list[int] = []
        self._op_id = -1

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, op_id: int, name: str):
        """Root span of one benchmark op; layer spans inside carry its id."""
        self._op_id = op_id
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)
            self._op_id = -1

    def _wrap(self, name: str, fn):
        counters = COUNTERS.get(name, ())
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                for suffix, when, count in counters:
                    if when == "before":
                        tracer.counts.append((idx, suffix, count(args, kwargs)))
                result = fn(*args, **kwargs)
                for suffix, when, count in counters:
                    if when == "after":
                        tracer.counts.append((idx, suffix, count(args, kwargs)))
                return result
            finally:
                tracer.finish(idx)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Bind the wrappers for the duration of the block, then restore."""
        undo = []
        try:
            for name, modname, path in TRACED:
                module = importlib.import_module(modname)
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(name, original))
                    undo.append((cls, attr, original))
                    continue
                original = getattr(module, path)
                wrapper = self._wrap(name, original)
                for loaded, mod in list(sys.modules.items()):
                    if loaded != "mapgroups" and not loaded.startswith("mapgroups."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def layer_totals(self, op_ids) -> dict[str, float]:
        """Per-layer calls, self time and counters over the spans of ``op_ids``."""
        ops = set(op_ids)
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for span, _, _ in TRACED:
            out[f"{span}.calls"] = 0
            out[f"{span}.self_s"] = 0.0
        for i in range(n):
            if self.op[i] not in ops or self.names[i].startswith("op."):
                continue
            name = self.names[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self.end[i] - self.start[i] - child[i]
        sums: dict[str, float] = {}
        keys: dict[str, set] = {}
        for idx, suffix, value in self.counts:
            if self.op[idx] not in ops:
                continue
            metric = f"{self.names[idx]}.{suffix}"
            if isinstance(value, tuple):
                keys.setdefault(metric, set()).add(value)
            else:
                sums[metric] = sums.get(metric, 0) + value
        for metric in counter_names():
            if metric in keys:
                span = metric.rsplit(".", 1)[0]
                out[metric] = len(keys[metric]) / out[f"{span}.calls"]
            else:
                out[metric] = sums.get(metric, 0)
        return out

    def dump(self) -> dict:
        """Spans as rows of ``fields``, times relative to the first span."""
        t0 = self.start[0] if self.start else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [self.names[i], round(self.start[i] - t0, 7),
                 round(self.end[i] - t0, 7), self.parent[i], self.op[i]]
                for i in range(len(self.names))
            ],
        }
