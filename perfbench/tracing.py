"""In-memory span tracing of procex, installed from outside the package.

``Tracer.install()`` replaces every public function of the procex
modules by a wrapper, by module attribute. A function that another
module imported by name (``procex.pipeline.assemble`` is
``procex.prompt.assemble``) is wrapped under each name it is reachable
by, with one span name taken from where it is defined. Calls made
inside procex find the wrappers too, because module globals are looked
up at call time.

Each call records a span: id, name, layer, start, end, parent, thread
id and thread CPU seconds. The parent is the innermost open span of the
same thread; a span opened on a worker thread with nothing open there
gets the innermost open span of the thread that installed the tracer,
which in this benchmark is the one caller that submitted the work.
A few tiny functions called tens of thousands of times per pass are
counted, not spanned (``COUNT_ONLY``).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
import types
from collections import Counter

MODULES = ("corpus", "prompt", "llm", "parser", "eval", "pipeline", "bpmn", "cli")

COUNT_ONLY = frozenset({
    "corpus.normalize_type_name",
    "corpus.normalize_phrase",
    "eval.normalize_action",
    "prompt.first_sentence",
})

# methods are not module attributes; these are the ones the metrics need
METHODS = (("llm", "CachingClient", "complete"),)

SPAN_FIELDS = ("id", "name", "layer", "start", "end", "parent", "thread", "cpu_s")
SID, NAME, LAYER, START, END, PARENT, THREAD, CPU = range(len(SPAN_FIELDS))


def _observe_complete(counts, args, kwargs, result):
    counts["llm.cache_hits" if result.retrieved_from_cache else "llm.cache_misses"] += 1


def _observe_parse(counts, args, kwargs, result):
    counts["parser.error_lines"] += result.error_count
    counts["parser.ignored_lines"] += result.ignored_line_count


def _observe_ground_report(counts, args, kwargs, result):
    grounded, ungrounded = result
    counts["parser.grounded"] += len(grounded)
    counts["parser.ungrounded"] += len(ungrounded)


def _observe_ground_clusters(counts, args, kwargs, result):
    clusters, ungrounded = result
    counts["parser.grounded"] += sum(len(c) for c in clusters)
    counts["parser.ungrounded"] += len(ungrounded)


def _observe_ground_relations(counts, args, kwargs, result):
    for rel in result:
        for end in (rel.source_indices, rel.target_indices):
            counts["parser.ungrounded" if end is None else "parser.grounded"] += 1


def _observe_max_matching(counts, args, kwargs, result):
    pairs = args[0] if args else kwargs["pairs"]
    counts["eval.max_matching.pairs"] += len(pairs)


OBSERVERS = {
    "llm.complete": _observe_complete,
    "parser.parse": _observe_parse,
    "parser.ground_report": _observe_ground_report,
    "parser.ground_clusters": _observe_ground_clusters,
    "parser.ground_relations": _observe_ground_relations,
    "eval.max_matching": _observe_max_matching,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list = []
        self._patched: list = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def span(self, name: str, layer: str):
        """Context manager recording one span from benchmark code."""
        return _Span(self, name, layer)

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        if name in COUNT_ONLY:
            calls = name + ".calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                with tracer._lock:
                    tracer.counts[calls] += 1
                return fn(*args, **kwargs)

            return counted
        observer = OBSERVERS.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with _Span(tracer, name, layer):
                result = fn(*args, **kwargs)
            if observer is not None:
                with tracer._lock:
                    observer(tracer.counts, args, kwargs, result)
            return result

        return spanned

    # -- installing ------------------------------------------------------

    def install(self) -> "Tracer":
        self._local.stack = self._main_stack
        wrappers: dict = {}
        for short in MODULES:
            module = importlib.import_module(f"procex.{short}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith("procex."):
                    continue
                layer = value.__module__.rsplit(".", 1)[1]
                key = id(value)
                if key not in wrappers:
                    wrappers[key] = self._wrap(value, f"{layer}.{value.__name__}", layer)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[key])
        for short, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"procex.{short}"), cls_name)
            original = vars(cls)[method]
            self._patched.append((cls, method, original))
            setattr(cls, method, self._wrap(original, f"{short}.{method}", short))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def drain(self):
        """Hand over and forget what was recorded since the last drain."""
        with self._lock:
            spans, self.spans = self.spans, []
            counts, self.counts = self.counts, Counter()
        return spans, counts


class _Span:
    def __init__(self, tracer: Tracer, name: str, layer: str):
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = self.tracer._parent(stack)
        self.sid = next(self.tracer._ids)
        stack.append(self.sid)
        self.c0 = time.thread_time()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        c1 = time.thread_time()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.sid, self.name, self.layer, self.t0, t1,
                                  self.parent, threading.get_ident(), c1 - self.c0))
        return False


# ---------------------------------------------------------------------------
# derived numbers
#
# Layer times are thread CPU time: the pipeline's pool threads share the
# interpreter lock, so a span's wall duration also counts the time its
# thread waited for the lock while other threads ran.

def self_cpu(spans, names) -> dict:
    """Summed layer self time, in CPU seconds, of the spans with these names.

    A span's self time is its CPU time minus that of its nearest
    descendants from another layer on the same thread; descendants
    from its own layer count as its own time.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append(s)
    out = {name: 0.0 for name in names}
    for s in spans:
        if s[NAME] not in out:
            continue
        foreign = 0.0
        todo = list(children.get(s[SID], ()))
        while todo:
            child = todo.pop()
            if child[THREAD] != s[THREAD]:
                continue
            if child[LAYER] == s[LAYER]:
                todo.extend(children.get(child[SID], ()))
            else:
                foreign += child[CPU]
        out[s[NAME]] += s[CPU] - foreign
    return out


def summarize(spans):
    """Calls and inclusive CPU seconds per span name."""
    calls: Counter = Counter()
    cpu: Counter = Counter()
    for s in spans:
        calls[s[NAME]] += 1
        cpu[s[NAME]] += s[CPU]
    return calls, cpu
