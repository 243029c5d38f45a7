"""Outside-in tracing of aqcc's layer functions.

The tracer wraps public functions and methods of the installed ``aqcc``
package from here, without touching its source.  A wrapped function is
replaced under every name that any ``aqcc`` module binds it to (``trellis``
imports ``smith_form``, ``css`` imports ``contains`` and ``reduce``, and so
on), so calls made inside the package are seen as well as calls made by the
benchmark.  Each wrapped call records one span: name, start, end, the span
that was open when it started, and the benchmark item it belongs to.
``FiniteField`` arithmetic is only counted, because it runs millions of
times per workload and a span per call would dominate the run.

Spans stay in memory until ``write_spans``; ``layer_metrics`` derives the
per-layer numbers from them.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from contextlib import contextmanager

import aqcc


def _free_distance_note(args, kwargs, result):
    g = args[0]
    return {
        "method": result.method,
        "states": int(result.states),
        "branches": g.field.q ** g.rows,
        "exact": bool(result.exact),
    }


def _min_distance_note(args, kwargs, result):
    code = args[0]
    q = code.field.q
    codewords = {
        "enumeration": q ** code.k,
        "macwilliams": q ** (code.n - code.k),
    }.get(result.method, 0)
    return {"method": result.method, "codewords": codewords, "exact": bool(result.exact)}


# span name -> (module, attribute path, annotation of the result)
SPAN_TARGETS = {
    "convo.smith_form": ("aqcc.convo", "smith_form", None),
    "convo.is_basic": ("aqcc.convo", "is_basic", None),
    "convo.contains": ("aqcc.convo", "contains", None),
    "convo.dual_generator": ("aqcc.convo", "dual_generator", None),
    "convo.reduce": ("aqcc.convo", "reduce", None),
    "convo.split_to_generator": ("aqcc.convo", "split_to_generator", None),
    "convo.rank_poly": ("aqcc.convo", "rank_poly", None),
    "trellis.free_distance": ("aqcc.trellis", "free_distance", _free_distance_note),
    "block.min_distance": ("aqcc.block", "BlockCode.min_distance", _min_distance_note),
    "matrix.rank": ("aqcc.matrix", "MatrixGF.rank", None),
    "matrix.rref": ("aqcc.matrix", "MatrixGF.rref", None),
    "matrix.kernel": ("aqcc.matrix", "MatrixGF.kernel", None),
    "matrix.solve_left": ("aqcc.matrix", "solve_left", None),
    "css.build_nested_pair": ("aqcc.css", "build_nested_pair", None),
    "css.derive_aqcc": ("aqcc.css", "derive_aqcc", None),
    "css.assemble_stabilizer": ("aqcc.css", "assemble_stabilizer", None),
    "css.semi_infinite_expand": ("aqcc.css", "semi_infinite_expand", None),
    "families.layout": ("aqcc.families", "layout", None),
    "certify.certify_plan": ("aqcc.certify", "certify_plan", None),
    "certify.to_json": ("aqcc.certify", "AqccCertificate.to_json", None),
}

# FiniteField methods counted as scalar field operations
SCALAR_METHODS = ("add", "sub", "neg", "mul", "inv", "div", "pow")

ITEM_SPAN = "item"
CALIBRATION_CALLS = 200_000

_ALGEBRA = "wall_ref_s on structure-25 and small-many"
_TRELLIS = "wall_ref_s, decided_frac (and the printed item_max_ref_s) on desk-mix; nothing on structure-25"
_BLOCK = "wall_ref_s on small-many; hardly anything on structure-25"
_CSS = "wall_ref_s on structure-25; these include the convo calls they make"
_MINOR = "below 2 % of wall_ref_s everywhere; listed so that a regression shows"

# per-layer metric -> the end-to-end metrics it should move, and where
LAYER_TARGETS = {
    **{m: _ALGEBRA for m in (
        "convo.smith_form.calls", "convo.smith_form.s", "convo.is_basic.s", "convo.contains.s",
        "convo.dual_generator.s", "convo.reduce.s", "convo.split_to_generator.s",
        "convo.dual_generator.calls", "convo.rank_poly.calls", "gf.scalar_ops")},
    **{m: _TRELLIS for m in (
        "trellis.free_distance.calls", "trellis.free_distance.s", "trellis.dijkstra_s",
        "trellis.bounded_s", "trellis.block_s", "trellis.states", "trellis.edges",
        "trellis.exact_frac")},
    **{m: _BLOCK for m in (
        "block.min_distance.calls", "block.min_distance.s", "block.route.enumeration",
        "block.route.macwilliams", "block.route.bounded", "block.codewords", "block.exact_frac")},
    **{m: _CSS for m in (
        "css.build_nested_pair.s", "css.derive_aqcc.s", "css.assemble_stabilizer.s",
        "css.semi_infinite_expand.s")},
    **{m: _MINOR for m in (
        "matrix.calls", "matrix.self_s", "families.layout.s", "certify.certify_plan.self_s",
        "certify.to_json.s")},
    "trace.overhead_s": "none: traced minus plain wall_s, the cost of tracing itself",
}


def aqcc_modules():
    """Every module of the aqcc package, imported."""
    mods = [aqcc]
    for info in pkgutil.iter_modules(aqcc.__path__):
        mods.append(importlib.import_module(f"aqcc.{info.name}"))
    return mods


class Tracer:
    """Records spans and scalar-op counts while installed.

    Use as a context manager: entering installs the wrappers, leaving puts
    every original object back, also when the traced code raised.
    """

    def __init__(self):
        # (name, start, end, parent index or -1, item, note or None)
        self.spans: list = []
        self.item: str | None = None
        self._ops = [0]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @property
    def scalar_ops(self) -> int:
        return self._ops[0]

    # --- installation ---------------------------------------------------------

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = aqcc_modules()
        for name, (modname, path, note) in SPAN_TARGETS.items():
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._span_wrapper(name, original, note)
            if cls_path:
                self._patch(owner, attr, wrapper)
                continue
            # a function: rebind it wherever a module imported it
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, bound, wrapper)
        field_cls = aqcc.gf.FiniteField
        for attr in SCALAR_METHODS:
            self._patch(field_cls, attr, self._count_wrapper(field_cls.__dict__[attr]))

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn, note):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.item, None)
            if note is not None:
                spans[idx] = (name, start, end, parent, self.item, note(args, kwargs, result))
            return result

        return wrapper

    def _count_wrapper(self, fn):
        ops = self._ops

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ops[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def item_span(self, item: str):
        """Attribute every span opened inside the block to one benchmark item."""
        self.item = item
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (ITEM_SPAN, start, end, -1, item, None)
            self.item = None

    # --- output ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON line per span, start and end relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, item, note in self.spans:
                rec = {"name": name, "start": start - t0, "end": end - t0,
                       "parent": parent, "item": item}
                if note is not None:
                    rec["note"] = note
                fh.write(json.dumps(rec) + "\n")


def wrapper_costs() -> tuple[float, float]:
    """Added seconds per traced span and per counted scalar op.

    Timed on a no-op function, best of three, so that a traced run can
    state its own overhead without a second, untraced pass.
    """

    def noop(*args):
        return None

    def per_call(fn) -> float:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                fn(1, 2)
            best = min(best, time.perf_counter() - start)
        return best / CALIBRATION_CALLS

    tracer = Tracer()
    plain = per_call(noop)
    span = per_call(tracer._span_wrapper("calibration", noop, None)) - plain
    op = per_call(tracer._count_wrapper(noop)) - plain
    return max(span, 0.0), max(op, 0.0)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _outermost(spans) -> list[bool]:
    """True for spans with no ancestor of the same name (no double counting
    when a layer function calls itself through another one)."""
    out = []
    for name, _, _, parent, _, _ in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        out.append(parent < 0)
    return out


def _frac(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one traced pass."""
    spans = tracer.spans
    own = self_times(spans)
    outer = _outermost(spans)
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for (name, start, end, *_), o, top in zip(spans, own, outer):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + o
        if top:
            incl[name] = incl.get(name, 0.0) + (end - start)

    out: dict[str, tuple[float, str]] = {}

    def count(metric, value):
        out[metric] = (int(value), "count")

    def seconds(metric, value):
        out[metric] = (float(value), "s")

    def ratio(metric, value):
        out[metric] = (float(value), "ratio")

    count("convo.smith_form.calls", calls.get("convo.smith_form", 0))
    seconds("convo.smith_form.s", incl.get("convo.smith_form", 0.0))
    for fn in ("is_basic", "contains", "dual_generator", "reduce", "split_to_generator"):
        seconds(f"convo.{fn}.s", incl.get(f"convo.{fn}", 0.0))
    count("convo.dual_generator.calls", calls.get("convo.dual_generator", 0))
    count("convo.rank_poly.calls", calls.get("convo.rank_poly", 0))
    count("gf.scalar_ops", tracer.scalar_ops)

    fd = [(s, top) for s, top in zip(spans, outer) if s[0] == "trellis.free_distance"]
    notes = [s[5] for s, _ in fd if s[5] is not None]
    count("trellis.free_distance.calls", len(fd))
    seconds("trellis.free_distance.s", incl.get("trellis.free_distance", 0.0))
    for method in ("dijkstra", "bounded", "block"):
        seconds(f"trellis.{method}_s", sum(
            s[2] - s[1] for s, top in fd if top and s[5] is not None and s[5]["method"] == method
        ))
    count("trellis.states", sum(n["states"] for n in notes))
    count("trellis.edges", sum(n["states"] * n["branches"] for n in notes))
    ratio("trellis.exact_frac", _frac(sum(n["exact"] for n in notes), len(fd)))

    md = [s[5] for s in spans if s[0] == "block.min_distance"]
    md_notes = [n for n in md if n is not None]
    count("block.min_distance.calls", len(md))
    seconds("block.min_distance.s", incl.get("block.min_distance", 0.0))
    for route in ("enumeration", "macwilliams", "bounded"):
        count(f"block.route.{route}", sum(n["method"] == route for n in md_notes))
    count("block.codewords", sum(n["codewords"] for n in md_notes))
    ratio("block.exact_frac", _frac(sum(n["exact"] for n in md_notes), len(md)))

    matrix = [n for n in calls if n.startswith("matrix.")]
    count("matrix.calls", sum(calls[n] for n in matrix))
    seconds("matrix.self_s", sum(self_s[n] for n in matrix))
    for fn in ("build_nested_pair", "derive_aqcc", "assemble_stabilizer", "semi_infinite_expand"):
        seconds(f"css.{fn}.s", incl.get(f"css.{fn}", 0.0))
    seconds("families.layout.s", incl.get("families.layout", 0.0))
    seconds("certify.certify_plan.self_s", self_s.get("certify.certify_plan", 0.0))
    seconds("certify.to_json.s", incl.get("certify.to_json", 0.0))
    return out
