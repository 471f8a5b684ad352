"""Span tracing of hopftrees from outside the program.

`Tracer.install()` wraps every public function of every ``hopftrees.*``
module, the arithmetic methods of ``LinComb`` and (as counters only) those of
``fractions.Fraction``, and rebinds every alias of a wrapped function: module
attributes (the ``from .x import y`` names) and functions held in module-level
dict registries such as ``cli.ALGEBRAS`` and ``checks.SUITES``.
`Tracer.uninstall()` puts every binding back.

Spans live in memory as four parallel arrays (parent id, name id, start,
end), in start order, and are written out by `write_spans` after the pass.
A span's self time is its duration minus the durations of its child spans.
Fraction arithmetic records no spans, so its time is part of the self time
of the span that called it.
"""

from __future__ import annotations

import fractions
import gc
import gzip
import itertools
import json
import sys
import time
import types
from array import array

FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
                "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__",
                "__rpow__", "__neg__", "__pos__", "__abs__")

LINCOMB_METHODS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                   "scale", "combine", "map_basis", "bilinear", "functional",
                   "graded_part", "format")

LAYERS = ("cli", "checks", "singular_frame", "morphisms", "lyndon_hall", "tree_hopf",
          "words", "trees", "algebra", "linsolve")

ENUMERATORS = ("trees.enumerate_trees", "trees.enumerate_forests",
               "trees.enumerate_planar_trees", "trees.enumerate_planar_forests",
               "trees.labeled_trees_of_weight", "trees.labeled_forests_of_weight",
               "trees.labeled_forests_up_to_weight", "trees.enumerate_trees_spec")

# metric -> (span names it covers, span names whose subtrees it skips).
# Time covered by a group counts each instant once: a span inside another
# span of the group, or inside a skipped name, adds nothing.
COVERED = {
    "trees.enum_s": (ENUMERATORS, ()),
    "trees.parse_s": (("trees.parse_forest", "trees.parse_tree"), ()),
    "words.parse_s": (("words.parse_word",), ()),
    "morphisms.pi_s": (("morphisms.pi",), ()),
    "words.shuffle_s": (("words.shuffle",), ()),
    "words.quasi_shuffle_s": (("words.quasi_shuffle",), ("words.shuffle",)),
    "words.concat_s": (("words.concat",), ()),
    "algebra.format_s": (("algebra.LinComb.format",), ()),
}

ROOT_SPAN = "bench.job"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Spans:
    """Spans in start order: parent[i] < i, or -1 for a root."""

    def __init__(self, names: list[str] | None = None):
        self.names: list[str] = list(names or [])
        self.parent = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")

    def __len__(self) -> int:
        return len(self.parent)

    def add(self, parent: int, name: str, start: float, end: float) -> int:
        """Append one finished span (for tests and offline use)."""
        if name not in self.names:
            self.names.append(name)
        self.parent.append(parent)
        self.name.append(self.names.index(name))
        self.start.append(start)
        self.end.append(end)
        return len(self.parent) - 1


def self_times(spans: Spans) -> array:
    """Each span's duration minus the summed durations of its children."""
    n = len(spans)
    parent, start, end = spans.parent, spans.start, spans.end
    out = array("d", (end[i] - start[i] for i in range(n)))
    for i in range(n):
        p = parent[i]
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def analyse(spans: Spans) -> dict[str, float]:
    """Self time per layer (``<layer>.self_s``), span counts per name
    (``calls:<name>``) and the covered-time groups of `COVERED`."""
    names = spans.names
    bit = {}
    for group, (members, skipped) in COVERED.items():
        for name in members + skipped:
            bit.setdefault(name, 1 << len(bit))
    name_bit = [bit.get(name, 0) for name in names]
    group_bits = {g: (sum(bit[n] for n in members), sum(bit[n] for n in members + skipped))
                  for g, (members, skipped) in COVERED.items()}

    selfs = self_times(spans)
    parent, name, start, end = spans.parent, spans.name, spans.start, spans.end
    n = len(spans)
    above = array("Q", bytes(8 * n))  # bits of the named spans enclosing span i
    layer_self: dict[str, float] = {}
    calls = [0] * len(names)
    covered = dict.fromkeys(COVERED, 0.0)
    layer_names = [layer_of(nm) for nm in names]
    for i in range(n):
        p = parent[i]
        k = name[i]
        if p >= 0:
            above[i] = above[p] | name_bit[name[p]]
        calls[k] += 1
        layer = layer_names[k]
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[i]
        b = name_bit[k]
        if b:
            for g, (members, blocking) in group_bits.items():
                if b & members and not above[i] & blocking:
                    covered[g] += end[i] - start[i]
    out = {f"{layer}.self_s": t for layer, t in layer_self.items()}
    out.update({f"calls:{names[k]}": c for k, c in enumerate(calls) if c})
    out.update(covered)
    return out


def write_spans(spans: Spans, path: str) -> None:
    """A JSON header line, then the raw arrays, gzip-compressed."""
    header = {"names": spans.names, "count": len(spans),
              "arrays": ["parent:q", "name:H", "start:d", "end:d"],
              "byteorder": sys.byteorder}
    with gzip.open(path, "wb", compresslevel=1) as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for arr in (spans.parent, spans.name, spans.start, spans.end):
            fh.write(arr.tobytes())


def read_spans(path: str) -> Spans:
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        spans = Spans(header["names"])
        for arr in (spans.parent, spans.name, spans.start, spans.end):
            arr.frombytes(fh.read(arr.itemsize * header["count"]))
    return spans


def _counting(iterable, tick):
    for item in iterable:
        tick()
        yield item


class Tracer:
    def __init__(self):
        self.spans = Spans()
        self.stack = [-1]
        self.counts: dict[str, int] = dict.fromkeys(
            ("algebra.add_calls", "algebra.add_terms_copied", "algebra.graded_part_seen",
             "algebra.graded_part_kept", "tree_hopf.out_terms", "words.out_terms",
             "trees.linear_extensions_words", "morphisms.pi_words_enumerated",
             "morphisms.pi_out_terms", "linsolve.vectors", "gc.collections"), 0)
        self.gc_pause_s = 0.0
        self._gc_start = 0.0
        self._fraction_ops = itertools.count()
        self.fraction_op_count = 0
        self.bindings: list[tuple[object, object, object, object]] = []  # (kind, holder, key, original)
        self.wrapped: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        self._lincomb = None

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        names = self.spans.names
        if name not in names:
            names.append(name)
        return names.index(name)

    def wrap(self, fn, name: str, on_enter=None, on_exit=None):
        """A function recording one span per call of fn."""
        nid = self._name_id(name)
        stack = self.stack
        parent, names, start, end = (self.spans.parent, self.spans.name,
                                     self.spans.start, self.spans.end)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(names)
            parent.append(stack[-1])
            names.append(nid)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            if on_enter is not None:
                args = on_enter(args)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if on_exit is not None:
                on_exit(args, result, sid)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def root(self, fn, *args):
        """Call fn(*args) under a benchmark-side root span."""
        return self.wrap(fn, ROOT_SPAN)(*args)

    # -- per-function counters -----------------------------------------------

    def _parent_name(self, sid: int) -> str:
        p = self.spans.parent[sid]
        return self.spans.names[self.spans.name[p]] if p >= 0 else ROOT_SPAN

    def _hooks(self, name: str):
        """(on_enter, on_exit) for the spans that feed counters."""
        counts = self.counts
        lincomb = self._lincomb
        layer = layer_of(name)

        if name == "algebra.LinComb.__add__":
            def enter(args):
                counts["algebra.add_calls"] += 1
                if len(args) > 1 and args[1]:
                    counts["algebra.add_terms_copied"] += len(args[0])
                return args
            return enter, None
        if name == "algebra.LinComb.graded_part":
            def exit_(args, result, sid):
                counts["algebra.graded_part_seen"] += len(args[0])
                counts["algebra.graded_part_kept"] += len(result)
            return None, exit_
        if name == "trees.linear_extensions":
            pi_id = self._name_id("morphisms.pi")

            def exit_(args, result, sid):
                counts["trees.linear_extensions_words"] += len(result)
                if any(self.spans.name[s] == pi_id for s in self.stack[1:]):
                    counts["morphisms.pi_words_enumerated"] += len(result)
            return None, exit_
        if name == "morphisms.pi":
            def exit_(args, result, sid):
                if self._parent_name(sid) != name:
                    counts["morphisms.pi_out_terms"] += len(result)
            return None, exit_
        if name == "linsolve.exact_rank":
            def enter(args):
                return (_counting(args[0], self._tick_vectors),) + tuple(args[1:])
            return enter, None
        if name == "linsolve.solve_in_span":
            def enter(args):
                counts["linsolve.vectors"] += len(args[0]) + 1
                return args
            return enter, None
        if layer in ("tree_hopf", "words"):
            key = f"{layer}.out_terms"

            def exit_(args, result, sid):
                if isinstance(result, lincomb) and layer_of(self._parent_name(sid)) != layer:
                    counts[key] += len(result)
            return None, exit_
        return None, None

    def _tick_vectors(self) -> None:
        self.counts["linsolve.vectors"] += 1

    # -- install / uninstall ---------------------------------------------------

    @staticmethod
    def modules() -> dict[str, types.ModuleType]:
        return {name: mod for name, mod in sorted(sys.modules.items())
                if (name == "hopftrees" or name.startswith("hopftrees.")) and mod is not None}

    def _bind(self, kind: str, holder, key, value) -> None:
        if kind == "item":
            original = holder[key]
            holder[key] = value
        elif kind == "slot":
            original = getattr(holder, key)
            object.__setattr__(holder, key, value)
        else:
            original = getattr(holder, key)
            setattr(holder, key, value)
        self.bindings.append((kind, holder, key, original))

    def _rebind_aliases(self, mods) -> None:
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                hit = self.wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bind("attr", mod, attr, hit[1])
                elif isinstance(obj, dict):
                    self._rebind_registry(obj)

    def _rebind_registry(self, registry: dict) -> None:
        for key, value in list(registry.items()):
            hit = self.wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                self._bind("item", registry, key, hit[1])
                continue
            if isinstance(value, (type, types.ModuleType, types.FunctionType)):
                continue
            try:
                fields = vars(value)
            except TypeError:
                continue
            for attr, obj in list(fields.items()):
                hit = self.wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bind("slot", value, attr, hit[1])

    def install(self) -> None:
        mods = self.modules()
        algebra = mods["hopftrees.algebra"]
        self._lincomb = algebra.LinComb
        for modname, mod in mods.items():
            layer = modname.split(".")[-1]
            if layer not in LAYERS:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                    name = f"{layer}.{attr}"
                    self.wrapped[id(obj)] = (obj, self.wrap(obj, name, *self._hooks(name)))
        self._rebind_aliases(mods)

        for meth in LINCOMB_METHODS:
            name = f"algebra.LinComb.{meth}"
            self._bind("attr", self._lincomb, meth,
                       self.wrap(self._lincomb.__dict__[meth], name, *self._hooks(name)))
        tick = self._fraction_ops.__next__
        for op in FRACTION_OPS:
            if op in vars(fractions.Fraction):
                self._bind("attr", fractions.Fraction, op, _counted(vars(fractions.Fraction)[op], tick))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self.fraction_op_count = next(self._fraction_ops)
        while self.bindings:
            kind, holder, key, original = self.bindings.pop()
            if kind == "item":
                holder[key] = original
            elif kind == "slot":
                object.__setattr__(holder, key, original)
            else:
                setattr(holder, key, original)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.counts["gc.collections"] += 1

    # -- results ---------------------------------------------------------------

    def cache_stats(self) -> tuple[float, int]:
        """(hit ratio over every lru_cache, entries in them and in dict caches)."""
        hits = misses = entries = 0
        seen = set()
        for mod in self.modules().values():
            for attr, obj in vars(mod).items():
                if id(obj) in seen:
                    continue
                seen.add(id(obj))
                if hasattr(obj, "cache_info") and callable(obj.cache_info):
                    info = obj.cache_info()
                    hits += info.hits
                    misses += info.misses
                    entries += info.currsize
                elif attr.endswith("_CACHE") and isinstance(obj, dict):
                    entries += len(obj)
        return (hits / (hits + misses) if hits + misses else 0.0), entries

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced pass (all but the overhead ratio)."""
        a = analyse(self.spans)
        c = self.counts

        def calls(prefixes) -> int:
            return sum(v for k, v in a.items() if k.startswith("calls:")
                       and k[6:].startswith(prefixes))

        hit_ratio, entries = self.cache_stats()
        out = {
            "algebra.add_calls": c["algebra.add_calls"],
            "algebra.add_terms_copied": c["algebra.add_terms_copied"],
            "algebra.self_s": a.get("algebra.self_s", 0.0),
            "algebra.format_s": a["algebra.format_s"],
            "algebra.graded_part_kept_ratio": _ratio(c["algebra.graded_part_kept"],
                                                     c["algebra.graded_part_seen"]),
            "scalar.fraction_ops": self.fraction_op_count,
            "tree_hopf.self_s": a.get("tree_hopf.self_s", 0.0),
            "tree_hopf.calls": calls("tree_hopf."),
            "tree_hopf.out_terms": c["tree_hopf.out_terms"],
            "trees.enum_s": a["trees.enum_s"],
            "trees.enum_calls": sum(a.get(f"calls:{n}", 0) for n in ENUMERATORS),
            "trees.parse_s": a["trees.parse_s"],
            "words.parse_s": a["words.parse_s"],
            "trees.linear_extensions_words": c["trees.linear_extensions_words"],
            "morphisms.pi_s": a["morphisms.pi_s"],
            "morphisms.pi_useful_ratio": _ratio(c["morphisms.pi_out_terms"],
                                                c["morphisms.pi_words_enumerated"]),
            "words.shuffle_s": a["words.shuffle_s"],
            "words.quasi_shuffle_s": a["words.quasi_shuffle_s"],
            "words.concat_s": a["words.concat_s"],
            "words.out_terms": c["words.out_terms"],
            "cache.hit_ratio": hit_ratio,
            "cache.entries": entries,
            "gc.collections": c["gc.collections"],
            "gc.pause_s": self.gc_pause_s,
        }
        for layer in ("lyndon_hall", "singular_frame", "linsolve", "checks", "cli"):
            out[f"{layer}.self_s"] = a.get(f"{layer}.self_s", 0.0)
        out["linsolve.vectors"] = c["linsolve.vectors"]
        out["trace.spans"] = len(self.spans)
        return out


def _counted(fn, tick):
    def counted(*args):
        tick()
        return fn(*args)
    counted.__wrapped__ = fn
    return counted


def _ratio(part: int, whole: int) -> float:
    """part / whole, or 0.0 when nothing was attempted."""
    return part / whole if whole else 0.0
