"""Per-layer tracing by wrapping freeop's public functions from outside.

A wrapped function is patched on its module and wherever another module
bound the same object by name (``dims`` imports ``partitions`` and
``orbit_count``; ``shuffle.monomial_key`` is rebuilt around the wrapped
``compare``).  Modes:

- span: a span (name, start, end, parent span, request) kept in memory;
- gen: one span per generator, timed only while it runs, counting yields;
- leaf: recursive calls counted, the outermost call timed, no span;
- count: a counter only, for hot leaf calls.

A layer's self time is its spans' time minus their child spans and timed
calls.  Time in ``count`` functions stays in the caller's self time.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

SPAN, GEN, LEAF, COUNT = "span", "gen", "leaf", "count"

TABLE = {
    "cli": {
        **dict.fromkeys(("main", "build_parser", "resolve_operad", "load_rules", "emit"), SPAN),
        **dict.fromkeys(("cmd_dims", "cmd_confluence", "cmd_count_normal", "cmd_basis",
                         "cmd_sp", "cmd_quotient"), SPAN),
    },
    "dims": dict.fromkeys(("free_product_dims", "symbolic_dims", "builtin_operad",
                           "explicit_operad", "parse_operad_config"), SPAN),
    "partitions": {"partitions": SPAN, "orbit_count": COUNT, "stabilizer_order": COUNT},
    "polynomials": dict.fromkeys(
        ("MultiPoly." + m for m in ("__add__", "__radd__", "__sub__", "__neg__", "__mul__",
                                    "__rmul__", "substitute", "__str__")), SPAN),
    "trees": {
        "enumerate_basis": GEN, "enumerate_unlabeled": GEN, "count_avoiding": SPAN,
        "count_avoiding_recursive": SPAN, "graft": SPAN, "parse_tree": SPAN,
        "format_tree": LEAF, "tree_matches": COUNT, "validate_tree": COUNT,
        "structural_key": COUNT,
    },
    "shuffle": {
        "enumerate_shuffle_trees": GEN, "normal_form": SPAN, "count_normal_monomials": SPAN,
        "overlaps": SPAN, "check_confluence": SPAN, "parse_rules": SPAN,
        "parse_element": SPAN, "parse_monomial": SPAN, "orient": SPAN,
        "rules_alphabet": SPAN, "ShuffleElement.__str__": SPAN, "print_monomial": LEAF,
        "compare": COUNT, "find_divisor": COUNT, "all_embeddings": COUNT,
        "rewrite_at": COUNT, "is_normal": COUNT,
    },
    "spnet": {
        "enumerate_networks": GEN, "macmahon": SPAN, "parse_network": SPAN,
        "format_network": LEAF, "tree_to_network": COUNT, "network_to_tree": COUNT,
        "make_node": COUNT,
    },
}
LAYERS = tuple(TABLE)


def _yielded_partitions(t, frame, result):
    t.counts["partitions.partitions.yielded"] += len(result)


def _poly_mul(t, frame, result):
    t.counts["polynomials.mul.calls"] += 1
    t.counts["polynomials.terms_out"] += len(result.terms)


def _count_avoiding(t, frame, result):
    t.counts["trees.count_avoiding.useful"] += result
    t.counts["trees.count_avoiding.examined"] += frame.yields["trees.enumerate_basis"]


def _find_divisor(t, frame, result):
    t.counts["shuffle.find_divisor.probes"] += 1
    t.counts["shuffle.find_divisor.hits"] += result is not None


def _overlaps(t, frame, result):
    t.counts["shuffle.overlaps.examined"] += frame.yields["shuffle.enumerate_shuffle_trees"]
    t.counts["shuffle.overlaps.found"] += len(result)


POST = {
    "partitions.partitions": _yielded_partitions,
    "polynomials.MultiPoly.__mul__": _poly_mul,
    "polynomials.MultiPoly.__rmul__": _poly_mul,
    "trees.count_avoiding": _count_avoiding,
    "shuffle.find_divisor": _find_divisor,
    "shuffle.overlaps": _overlaps,
}


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "span_id", "yields")

    def __init__(self, name, layer, span_id):
        self.name = name
        self.layer = layer
        self.start = time.perf_counter()
        self.child = 0.0
        self.span_id = span_id
        self.yields = Counter()


class Tracer:
    def __init__(self):
        self.active = False
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []
        self.counts = Counter()
        self.self_s = Counter()
        self.calls: dict[str, list[int]] = {}
        self.request = -1
        self._ids = 0
        self._undo: list[tuple] = []

    # --- request boundaries --------------------------------------------

    def begin(self, request: int) -> None:
        self.request = request
        self.active = True
        self.stack.append(self._new_frame("request", "harness"))

    def end(self) -> None:
        self._close(self.stack.pop(), record=True)
        self.active = False

    # --- frames ----------------------------------------------------------

    def _new_frame(self, name, layer) -> _Frame:
        self._ids += 1
        return _Frame(name, layer, self._ids)

    def _close(self, frame: _Frame, record: bool) -> None:
        end = time.perf_counter()
        dur = end - frame.start
        own = dur - frame.child
        self.self_s[frame.name] += own
        self.self_s[frame.layer] += own
        if self.stack:
            self.stack[-1].child += dur
        if record:
            parent = self.stack[-1].span_id if self.stack else None
            self.spans.append((frame.span_id, parent, self.request, frame.name,
                               frame.start, end))

    def _error(self, layer: str, caller: _Frame | None) -> None:
        if caller is None or caller.layer != layer:
            self.counts[layer + ".errors"] += 1

    # --- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, layer: str, mode: str, fn):
        t = self
        post = POST.get(name)
        # [calls, recursion depth]; a list cell keeps the hot path cheap.
        state = self.calls[name] = [0, 0]

        if mode == SPAN:
            def wrapper(*args, **kwargs):
                if not t.active:
                    return fn(*args, **kwargs)
                state[0] += 1
                caller = t.stack[-1]
                frame = t._new_frame(name, layer)
                t.stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    t._error(layer, caller)
                    raise
                finally:
                    t.stack.pop()
                    t._close(frame, record=True)
                if post:
                    post(t, frame, result)
                return result

        elif mode == GEN:
            def wrapper(*args, **kwargs):
                if not t.active:
                    return fn(*args, **kwargs)
                state[0] += 1
                return run(fn(*args, **kwargs), t.stack[-1])

            def run(it, owner):
                frame = t._new_frame(name, layer)
                first = None
                try:
                    while True:
                        frame.start = time.perf_counter()
                        frame.child = 0.0
                        first = first or frame.start
                        t.stack.append(frame)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        except BaseException:
                            t._error(layer, owner)
                            raise
                        finally:
                            t.stack.pop()
                            t._close(frame, record=False)
                        t.counts[name + ".yielded"] += 1
                        owner.yields[name] += 1
                        yield item
                finally:
                    it.close()
                    if first is not None:
                        t.spans.append((frame.span_id, owner.span_id, t.request, name,
                                        first, time.perf_counter()))

        elif mode == LEAF:
            def wrapper(*args, **kwargs):
                if not t.active:
                    return fn(*args, **kwargs)
                state[0] += 1
                if state[1]:
                    return fn(*args, **kwargs)
                caller = t.stack[-1]
                state[1] = 1
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    t._error(layer, caller)
                    raise
                finally:
                    state[1] = 0
                    dur = time.perf_counter() - start
                    t.self_s[name] += dur
                    t.self_s[layer] += dur
                    caller.child += dur

        else:
            def wrapper(*args, **kwargs):
                if not t.active:
                    return fn(*args, **kwargs)
                state[0] += 1
                outer = not state[1]
                state[1] += 1
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    if outer:
                        t._error(layer, t.stack[-1])
                    raise
                finally:
                    state[1] -= 1
                if post and outer:
                    post(t, None, result)
                return result

        return functools.wraps(fn)(wrapper)

    def install(self, package) -> None:
        """Patch every function in TABLE on freeop's modules."""
        # freeop's __init__ rebinds the name "partitions" to the function,
        # so modules come from the import system, not package attributes.
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        replaced = {}
        for layer, entries in TABLE.items():
            for attr, mode in entries.items():
                owner = modules[layer]
                *cls, fname = attr.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                original = owner.__dict__[fname]
                wrapped = self._wrap(f"{layer}.{attr}", layer, mode, original)
                self._patch(owner, fname, wrapped)
                replaced[id(original)] = wrapped
        # Rebind names other modules imported by value.
        for module in (package, *modules.values()):
            for key, value in list(vars(module).items()):
                if id(value) in replaced and value is not replaced[id(value)]:
                    self._patch(module, key, replaced[id(value)])
        shuffle = modules["shuffle"]
        self._patch(shuffle, "monomial_key", functools.cmp_to_key(shuffle.compare))

    def _patch(self, owner, key, value) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # --- results -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        c, s = self.counts, self.self_s
        for name, (calls, _) in self.calls.items():
            c[name + ".calls"] = calls

        def ratio(a, b):
            return c[a] / c[b] if c[b] else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (s[layer], "s")
            out[f"{layer}.errors"] = (c[f"{layer}.errors"], "count")
        out["cli.out_bytes"] = (c["cli.out_bytes"], "bytes")
        for name in ("dims.free_product_dims", "dims.symbolic_dims",
                     "trees.enumerate_basis", "trees.format_tree", "trees.count_avoiding",
                     "shuffle.count_normal_monomials", "shuffle.normal_form",
                     "shuffle.check_confluence", "spnet.macmahon", "spnet.format_network"):
            out[name + ".self_s"] = (s[name], "s")
        for name in ("partitions.partitions.calls", "partitions.orbit_count.calls",
                     "partitions.partitions.yielded", "polynomials.mul.calls",
                     "polynomials.terms_out", "trees.enumerate_basis.yielded",
                     "shuffle.enumerate_shuffle_trees.yielded", "shuffle.find_divisor.calls",
                     "shuffle.compare.calls", "shuffle.rewrite_at.calls",
                     "shuffle.overlaps.examined", "spnet.enumerate_networks.yielded"):
            out[name] = (c[name], "count")
        out["trees.count_avoiding.useful_ratio"] = (
            ratio("trees.count_avoiding.useful", "trees.count_avoiding.examined"), "ratio")
        out["shuffle.find_divisor.hit_ratio"] = (
            ratio("shuffle.find_divisor.hits", "shuffle.find_divisor.probes"), "ratio")
        out["shuffle.overlaps.found_ratio"] = (
            ratio("shuffle.overlaps.found", "shuffle.overlaps.examined"), "ratio")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
