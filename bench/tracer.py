"""Per-layer spans and counts, installed around the package from outside it.

`Tracer.install` wraps every public function of every `arcmaps` module and
every public method of its classes, and rebinds each wrapped name in every
module that imported it (`from .x import f` makes a second binding), and
in the `verify` claim registry.  `Permutation` is the exception: only
`__mul__` is wrapped, because its other methods are too small and too
frequent to time one by one; their cost lands in the caller's self time.

Each call becomes a span: name, start, end and parent, kept in memory.  The
hot leaves in `HOT` are not kept one by one but aggregated as a count and
total time.  A span's self time is its duration minus the time its child
spans cover.  Bookkeeping done for the counts (such as sizing the largest
group) is charged to no span's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

HOT = frozenset({"perms.mul", "groups.PermGroup", "triples.generates"})
KINDS = ("regular", "reversing", "rotary")
COMMANDS = ("family", "map", "analyze", "verify")
COUNTS = (
    "groups.PermGroup.elements",
    "groups.PermGroup.max_order",
    "groups.PermGroup.max_degree",
    "triples.generates.hits",
    "triples.exhaustive_search_count.candidates",
    "products.compress_model.degree_in",
    "products.compress_model.degree_out",
    *(f"triples.find_any.{k}.found" for k in KINDS),
)


def deep_size(root) -> int:
    """Bytes held by an object graph, each object counted once (sys.getsizeof)."""
    seen = set()
    todo = [root]
    size = 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, type(sys), type(deep_size))):
            continue
        seen.add(id(obj))
        size += sys.getsizeof(obj)
        if isinstance(obj, dict):
            todo.extend(obj.keys())
            todo.extend(obj.values())
        elif isinstance(obj, (tuple, list, set, frozenset)):
            todo.extend(obj)
        elif not isinstance(obj, (str, bytes, int, float, bool)):
            for cls in type(obj).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    if hasattr(obj, slot):
                        todo.append(getattr(obj, slot))
            if hasattr(obj, "__dict__"):
                todo.append(obj.__dict__)
    return size


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [start, covered, span id, nearest kept id]
        self.spans: list = []  # (name, start, end, parent id) of every kept span
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.bytes_per_element = 0.0

    # -- spans ---------------------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        """Wrap fn in a span; name is a string or a function of (args, kwargs)."""
        stack, spans = self.stack, self.spans
        calls, total, self_time = self.calls, self.total, self.self_time
        clock = time.perf_counter
        if isinstance(name, str):
            self.calls[name] += 0  # registered, so it reports 0 when never called

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            parent = stack[-1][3] if stack else None
            if span in HOT:
                frame = [0.0, 0.0, None, parent]
            else:
                frame = [0.0, 0.0, len(spans), len(spans)]
                spans.append(None)
            stack.append(frame)
            frame[0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                calls[span] += 1
                total[span] += dur
                self_time[span] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if frame[2] is not None:
                    spans[frame[2]] = (span, frame[0], end, parent)
            if observe is not None:
                t0 = clock()
                observe(span, result, args)
                if stack:
                    stack[-1][1] += clock() - t0
            return result

        return wrapper

    def wrap_command(self, cli_main):
        """Root span per command, named cli.<subcommand>."""
        for cmd in COMMANDS:
            self.calls[f"cli.{cmd}"] += 0
        return self._wrap(lambda args, kwargs: f"cli.{args[0][0]}", cli_main)

    # -- counts --------------------------------------------------------------------

    def _on_group(self, span, result, args):
        G = args[0]
        c = self.counts
        c["groups.PermGroup.elements"] += G.order
        c["groups.PermGroup.max_degree"] = max(c["groups.PermGroup.max_degree"], G.degree)
        if G.order > c["groups.PermGroup.max_order"]:
            c["groups.PermGroup.max_order"] = G.order
            self.bytes_per_element = deep_size(G) / G.order

    def _on_generates(self, span, result, args):
        self.counts["triples.generates.hits"] += result is True

    def _on_find_any(self, span, result, args):
        self.counts[f"{span}.found"] += result is not None

    def _on_exhaustive(self, span, result, args):
        self.counts["triples.exhaustive_search_count.candidates"] += result[1]

    def _on_compress(self, span, result, args):
        self.counts["products.compress_model.degree_in"] += args[0].group.degree
        self.counts["products.compress_model.degree_out"] += result.group.degree

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        observers = {
            "triples.generates": self._on_generates,
            "triples.exhaustive_search_count": self._on_exhaustive,
            "products.compress_model": self._on_compress,
        }
        modules = {
            name: mod for name, mod in list(sys.modules.items()) if name.startswith("arcmaps.")
        }
        wrapped = {}  # id(original) -> (original, wrapper)
        for modname, mod in modules.items():
            short = modname.split(".", 1)[1]
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or getattr(val, "__module__", None) != modname:
                    continue
                if inspect.isfunction(val) and not inspect.isgeneratorfunction(val):
                    name = f"{short}.{attr}"
                    if name == "triples.find_any":
                        for kind in KINDS:
                            self.calls[f"{name}.{kind}"] += 0
                        name = lambda args, kwargs: "triples.find_any." + (
                            args[1] if len(args) > 1 else kwargs["kind"]
                        )
                        wrapper = self._wrap(name, val, self._on_find_any)
                    else:
                        wrapper = self._wrap(name, val, observers.get(name))
                    wrapped[id(val)] = (val, wrapper)
                elif inspect.isclass(val) and not issubclass(val, BaseException):
                    self._wrap_class(short, val)
        for mod in [sys.modules["arcmaps"], *modules.values()]:
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
        claims = sys.modules["arcmaps.verify"].CLAIMS
        for cid, (desc, fn) in list(claims.items()):
            claims[cid] = (desc, self._wrap(f"verify.{cid}", fn))

    def _wrap_class(self, short: str, cls) -> None:
        if cls.__name__ == "Permutation":
            cls.__mul__ = self._wrap("perms.mul", cls.__mul__)
            return
        prefix = "groups" if cls.__name__ == "PermGroup" else f"{short}.{cls.__name__}"
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(val):
                continue
            setattr(cls, attr, self._wrap(f"{prefix}.{attr}", val))
        if cls.__name__ == "PermGroup":
            cls.__init__ = self._wrap("groups.PermGroup", cls.__init__, self._on_group)

    # -- report --------------------------------------------------------------------

    def layer_values(self) -> dict:
        """Every per-layer value by metric name: counts exact, times in seconds."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
        out.update(self.counts)
        out["groups.PermGroup.elements_per_s"] = _ratio(
            out["groups.PermGroup.elements"], out["groups.PermGroup.self_s"]
        )
        out["groups.PermGroup.bytes_per_element"] = self.bytes_per_element
        out["triples.generates.hit_ratio"] = _ratio(
            out["triples.generates.hits"], out["triples.generates.calls"]
        )
        out["triples.generates.self_share"] = _ratio(
            out["triples.generates.self_s"], sum(self.self_time.values())
        )
        out["trace.spans"] = len(self.spans)
        return out


def work_counts(values: dict) -> dict:
    """The values that do not depend on timing, which must repeat exactly."""
    return {k: v for k, v in values.items() if not k.endswith(("_s", ".s", "_share"))}


def _ratio(num, den) -> float:
    return num / den if den else 0.0
