"""In-memory span tracing of the library's public functions, from outside.

:class:`Tracer` replaces every public function and public method of the
``vsreconf`` modules with a wrapper that records one span per call:
name, start, end, parent span and whether the call raised.  A function is
replaced in every module namespace that bound it (``oracle.is_separator``
and ``instance.is_separator`` alike), so calls are seen whichever name
they go through.  :meth:`Tracer.restore` puts every original back.

A layer's self time is the duration of its spans minus the part their
child spans cover; since the solve path is single-threaded, child spans
nest inside their parent and that part is the sum of their durations.

O(1) accessors are left unwrapped (:data:`UNTRACED`): a wrapper costs
more than the call, and their time lands in the caller's self time.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

UNTRACED = frozenset({
    "graph.Graph.check_vertex",
    "graph.Graph.neighbors",
    "graph.Graph.degree",
    "graph.Graph.has_edge",
    "graph.Graph.vertices",
    "separators.canon",
    "separators.state",
    "separators.format_state",
    "separators.check_state",
})


def _observe_solve_bfs(counts, args, result):
    counts["oracle.states_explored"] += getattr(result, "states_explored", 0)


def _observe_rule_neighbors(counts, args, result):
    counts["oracle.neighbour_states"] += len(result)


def _observe_verify_sequence(counts, args, result):
    counts["oracle.cert_states"] += len(args[1])


def _observe_enumerate(counts, args, result):
    counts["minsep.family_size"] += len(getattr(result, "members", ()))


def _observe_overlap(counts, args, result):
    nodes = len(getattr(result, "nodes", ()))
    counts["minsep.overlap_edges"] += len(getattr(result, "edges", ()))
    counts["minsep.overlap_pairs"] += nodes * (nodes - 1) // 2


# counts read off a call's arguments or result, keyed by span name
OBSERVERS = {
    "oracle.solve_bfs": _observe_solve_bfs,
    "oracle.rule_neighbors": _observe_rule_neighbors,
    "oracle.verify_sequence": _observe_verify_sequence,
    "minsep.enumerate_minimal_separators": _observe_enumerate,
    "minsep.build_overlap_graph": _observe_overlap,
}


class Tracer:
    """Span recorder.  Spans live in flat arrays, indexed by call order."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _wrapper(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        stack, counts = self._stack, self.counts
        name_of, parent, start, end, raised = (
            self.name_of, self.parent, self.start, self.end, self.raised
        )

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            raised.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[i] = perf_counter()
                raised[i] = 1
                stack.pop()
                raise
            end[i] = perf_counter()
            stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every public function of the loaded ``vsreconf`` modules."""
        prefix = "vsreconf."
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "vsreconf" or n.startswith(prefix))]
        wrapped: dict[int, object] = {}  # id(original) -> wrapper

        def short(modname: str) -> str:
            return modname[len(prefix):] if modname.startswith(prefix) else modname

        for mod in modules:
            for attr, obj in vars(mod).items():
                if inspect.isclass(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    for meth, raw in list(vars(obj).items()):
                        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                        if not inspect.isfunction(fn):
                            continue
                        if meth.startswith("_") and meth != "__post_init__":
                            continue
                        name = f"{short(mod.__name__)}.{attr}.{meth}"
                        if name in UNTRACED:
                            continue
                        new = self._wrapper(name, fn)
                        if isinstance(raw, (classmethod, staticmethod)):
                            new = type(raw)(new)
                        self._patch(obj, meth, new)
                elif (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                      and not attr.startswith("_")):
                    name = f"{short(mod.__name__)}.{attr}"
                    if name not in UNTRACED:
                        wrapped[id(obj)] = self._wrapper(name, obj)
        # rebind each wrapped function in every namespace that imported it
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patch(mod, attr, wrapped[id(obj)])

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> tuple[list[int], list[float], list[float]]:
        """Per-name call counts, self seconds and total seconds."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        total = [0.0] * len(self.names)
        for i in range(n):
            dur = self.end[i] - self.start[i]
            nid = self.name_of[i]
            calls[nid] += 1
            own[nid] += dur - covered[i]
            total[nid] += dur
        return calls, own, total

    def write(self, path) -> None:
        """Write the spans as tab-separated ``name start end parent raised``."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\traised\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_of[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\t{self.raised[i]}\n")
