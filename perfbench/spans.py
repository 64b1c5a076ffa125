"""Outside-in spans around calls into relfan's layers.

Nothing under src/ is touched: while a traced op runs, the public
names of each layer module are rebound to wrappers that record a span
per call, and they are restored after it.  A function is rebound
wherever another relfan module imported it, so every call that
crosses a layer boundary is seen; the functions named in the
per-layer table are also rebound inside their own module, so calls
from within the layer are counted as well.  The named methods are
wrapped on their class.

A span is (name, start, end, parent span, op id, count), kept in
memory and written out at the end.  Only the outermost call of a name
is recorded, so recursion (``to_jsonable``) gives one span.  Input
generation and verdict checks run between ops, outside any span.
Dunder arithmetic (``Fraction``, ``Gi``) is not wrapped and counts
towards the layer that runs it.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
from array import array
from time import perf_counter

LAYERS = ("qlinalg", "hodge", "cones", "fans", "classifying", "gaussian", "cli")

# value constructors and zero tests: cheaper than a span, so they count
# towards the layer that calls them
UNTRACED = {"qlinalg.vec", "qlinalg.mat", "qlinalg.zero_vec", "qlinalg.zeros", "qlinalg.identity",
            "qlinalg.is_zero_vec", "qlinalg.is_zero_mat", "qlinalg.frac"}

# methods traced on their class, by layer
METHODS = {
    "qlinalg": {"Subspace": ("intersect", "contains")},
    "hodge": {"Frame": ("restriction_multiple",)},
    "cones": {"Cone": ("from_generators", "intersect", "is_face_of", "faces")},
    "fans": {"CellFan": ("cell", "window", "conjugate_cell")},
    "classifying": {"PeriodPoint": ("__init__",)},
    "gaussian": {"GSpace": ("intersect",)},
}

# metric suffixes per span name; "calls" and "s" come from the spans,
# "entries" and "pieces" from the span's count field
REPORTED = {
    "qlinalg.rref": ("calls", "s", "entries"),
    "qlinalg.Subspace.intersect": ("calls", "s"),
    "qlinalg.Subspace.contains": ("calls", "s"),
    "qlinalg.solve": ("calls", "s"),
    "qlinalg.matmul": ("calls", "s"),
    "qlinalg.det": ("calls", "s"),
    "qlinalg.snf": ("calls",),
    "qlinalg.hnf": ("calls",),
    "hodge.weight_filtration": ("calls", "s"),
    "hodge.relative_filtration": ("calls", "s"),
    "hodge.relative_filtration_exists": ("calls", "s"),
    "hodge.is_relative_weight_filtration": ("calls", "s"),
    "hodge.pq_spaces": ("calls", "s"),
    "hodge.check_in_g": ("calls", "s"),
    "hodge.Frame.restriction_multiple": ("calls", "s"),
    "cones.rays_from_ineqs": ("calls", "s"),
    "cones.Cone.from_generators": ("calls", "s"),
    "cones.Cone.intersect": ("calls", "s"),
    "cones.Cone.is_face_of": ("calls", "s"),
    "cones.Cone.faces": ("calls", "s"),
    "cones.check_fan": ("calls", "s"),
    "cones.fan_closure": ("s",),
    "fans.CellFan.cell": ("calls", "s"),
    "fans.CellFan.window": ("s",),
    "fans.CellFan.conjugate_cell": ("calls", "s"),
    "fans.subdivide_against": ("calls", "s", "pieces"),
    "fans.check_admissible": ("calls", "s"),
    "fans.minimal_integral_exponent": ("calls", "s"),
    "fans.strong_compatibility_report": ("s",),
    "classifying.in_D": ("calls", "s"),
    "classifying.nilpotent_orbit_test": ("calls", "s"),
    "classifying.PeriodPoint": ("calls", "s"),
    "gaussian.GSpace.intersect": ("calls", "s"),
    "gaussian.grref": ("calls", "s"),
    "gaussian.gdet": ("calls", "s"),
    "cli.main": ("calls", "s"),
    "cli.load_spec": ("s",),
    "cli.to_jsonable": ("s",),
}

UNITS = {"calls": "count", "s": "s", "entries": "count", "pieces": "count"}


def _rref_entries(args, result):
    m = args[0]
    return len(m) * len(m[0]) if m else 0


def _piece_count(args, result):
    return len(result) if result else 0


COUNTERS = {"qlinalg.rref": _rref_entries, "fans.subdivide_against": _piece_count}


def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for name, suffixes in REPORTED.items():
        for suffix in suffixes:
            units[f"{name}.{suffix}"] = UNITS[suffix]
    units["fans.subdivide_against.pieces_per_intersect"] = "ratio"
    units["trace.overhead_pct"] = "%"
    return units


class Tracer:
    """Span recorder.  begin_op() rebinds the traced names for one op
    and end_op() restores them, so code between ops runs unwrapped.

    Spans are stored column-wise in arrays, not as one object each:
    hundreds of thousands of live container objects would make the
    cyclic garbage collector, and so the traced run, much slower."""

    def __init__(self):
        self.names = []  # span name by name id
        self.name_id = array("i")
        self.parent = array("q")  # span index, -1 at top level
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.ops = 0  # ops begun so far; the current op's id while one runs
        self._stack = [-1]
        self._open = []  # depth per name id, for outermost-only spans
        self._patches = self._plan()  # (owner, attribute, original, wrapper)

    def __len__(self):
        return len(self.name_id)

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        self._open.append(0)
        counter = COUNTERS.get(name)
        stack, depth = self._stack, self._open
        name_col, parent_col, op_col = self.name_id, self.parent, self.op
        start_col, end_col, count_col = self.start, self.end, self.count

        def traced(*args, **kwargs):
            if depth[nid]:
                return fn(*args, **kwargs)
            idx = len(name_col)
            name_col.append(nid)
            parent_col.append(stack[-1])
            op_col.append(self.ops - 1)
            end_col.append(0.0)
            count_col.append(0)
            stack.append(idx)
            depth[nid] = 1
            result = None
            start_col.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end_col[idx] = perf_counter()
                depth[nid] = 0
                stack.pop()
                if counter is not None:
                    count_col[idx] = counter(args, result)

        return traced

    def _plan(self):
        modules = {layer: importlib.import_module(f"relfan.{layer}") for layer in LAYERS}
        patches = []
        wrapped = {}  # id(original) -> (original, wrapper, span name)
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name not in UNTRACED:
                    wrapped[id(obj)] = (obj, self._wrap(obj, name), name)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}" + ("" if meth == "__init__" else f".{meth}")
                    if isinstance(raw, classmethod):
                        patches.append((cls, meth, raw, classmethod(self._wrap(raw.__func__, name))))
                    else:
                        patches.append((cls, meth, raw, self._wrap(raw, name)))
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                original, wrapper, name = wrapped.get(id(obj), (None, None, None))
                if original is obj and (obj.__module__ != mod.__name__ or name in REPORTED):
                    patches.append((mod, attr, obj, wrapper))
        return patches

    def begin_op(self):
        """Rebind the traced names; spans recorded now belong to a new op."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.ops += 1

    def end_op(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # --- analysis -------------------------------------------------------

    def _self_times(self):
        """Per span: duration minus the time of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for parent, dur in zip(self.parent, list(own)):
            if parent >= 0:
                own[parent] -= dur
        return own

    def _layer_of(self):
        return [name.split(".", 1)[0] for name in self.names]

    def layer_self_by_op(self) -> dict:
        """{op id: {layer: self seconds}}, for the wall-time check."""
        layer_of = self._layer_of()
        out = {}
        for nid, op, own in zip(self.name_id, self.op, self._self_times()):
            per_op = out.setdefault(op, {})
            per_op[layer_of[nid]] = per_op.get(layer_of[nid], 0.0) + own
        return out

    def layer_metrics(self) -> dict:
        """Every per-layer metric, summed over all traced ops."""
        values = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name, suffixes in REPORTED.items():
            for suffix in suffixes:
                values[f"{name}.{suffix}"] = 0.0 if suffix == "s" else 0
        layer_of = self._layer_of()
        for nid, start, end, n, own in zip(self.name_id, self.start, self.end, self.count, self._self_times()):
            name = self.names[nid]
            values[layer_of[nid] + ".self_s"] += own
            suffixes = REPORTED.get(name, ())
            if "calls" in suffixes:
                values[name + ".calls"] += 1
            if "s" in suffixes:
                values[name + ".s"] += end - start
            for suffix in ("entries", "pieces"):
                if suffix in suffixes:
                    values[f"{name}.{suffix}"] += n
        intersect = self.names.index("cones.Cone.intersect")
        subdivide = self.names.index("fans.subdivide_against")
        under = sum(
            1 for idx, nid in enumerate(self.name_id)
            if nid == intersect and self._has_ancestor(idx, subdivide)
        )
        pieces = values["fans.subdivide_against.pieces"]
        values["fans.subdivide_against.pieces_per_intersect"] = pieces / under if under else 0.0
        return values

    def _has_ancestor(self, idx, nid):
        parent = self.parent[idx]
        while parent >= 0:
            if self.name_id[parent] == nid:
                return True
            parent = self.parent[parent]
        return False

    def write(self, path):
        """All spans as JSON lines, gzipped; times relative to the first."""
        origin = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for nid, parent, op, start, end, n in zip(
                self.name_id, self.parent, self.op, self.start, self.end, self.count
            ):
                # names are dotted identifiers, so no JSON escaping is needed
                fh.write(f'{{"name": "{self.names[nid]}", "start": {start - origin:.9f}, '
                         f'"end": {end - origin:.9f}, "parent": {parent}, "op": {op}, "count": {n}}}\n')
