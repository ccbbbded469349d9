"""Span recording around the program's public functions.

The traced run installs these wrappers inside the server process before
the program builds anything; ``src/`` itself is never modified.  Each
wrapped call becomes one in-memory span ``(id, name, start, end,
parent, trace_id, label)``; spans nest through a per-thread stack, and
a request's spans share the ``trace_id`` the client put on the wire.
The spans are written out once, when the run asks for them, and
:func:`self_times` / :func:`by_trace` turn them into per-layer self times.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

# (module, attribute path, span name).  Where a function is imported by
# name into a caller's module, the caller's binding is the one wrapped.
SPAN_TARGETS = [
    ("repro.service.api", "SearchRequest.from_dict", "api.decode"),
    ("repro.service.api", "SearchResponse.to_dict", "api.encode"),
    ("repro.service.service", "SearchService.search", "service.search"),
    ("repro.service.service", "SearchService.reindex", "service.write"),
    ("repro.service.service", "SearchService.remove", "service.write"),
    ("repro.service.rwlock", "RwLock.acquire_read", "rwlock.read_wait"),
    ("repro.core.engine", "SearchEngine.execute", "engine.execute"),
    ("repro.ir.engine", "IrEngine.execute", "engine.execute"),
    ("repro.ir.engine", "ClusterIrEngine.execute", "engine.execute"),
    ("repro.webspace.language", "parse_query", "conceptual.parse"),
    ("repro.core.engine", "execute_query", "conceptual.execute"),
    ("repro.query", "parse_rich_query", "query.parse"),
    ("repro.query", "compile_query", "query.compile"),
    ("repro.ir.engine", "rank_tfidf", "topn.rank"),
    ("repro.ir.engine", "topn_fragmented", "topn.fragmented"),
    ("repro.ir.topn", "topn_structured", "topn.structured"),
    ("repro.ir.relations", "IrRelations.add_document", "relations.add"),
    ("repro.ir.relations", "IrRelations.remove_document",
     "relations.remove"),
    ("repro.ir.engine", "fragment_by_idf", "fragmentation.build"),
    ("repro.ir.distributed", "fragment_by_idf", "fragmentation.build"),
    ("repro.ir.distributed", "DistributedIndex.query", "distributed.query"),
    ("repro.remote.client", "WorkerClient.call", "remote.rpc"),
    ("repro.wal.log", "WriteAheadLog.append", "wal.append"),
    ("repro.core.engine", "SearchEngine.populate", "engine.populate"),
    ("repro.cli", "save_engine", "persistence.save"),
    ("repro.cli", "load_engine", "persistence.load"),
]
# analyze is imported by name into each caller
ANALYZE_MODULES = ["repro.ir.text", "repro.ir.relations", "repro.ir.ranking",
                   "repro.query.parser", "repro.ir.thesaurus",
                   "repro.media.grammar"]


def _trace_of(name, args, result):
    """The wire trace id a top-level span can read off its call."""
    if name == "api.decode":
        return getattr(result, "trace_id", None)
    if name == "api.encode":
        return args[0].request.trace_id
    if name == "service.search":
        return args[1].trace_id
    return None


def _label_of(name, args, kwargs):
    if name == "distributed.query":
        policy = kwargs.get("policy", args[2] if len(args) > 2 else None)
        return getattr(policy, "backend", None) or "thread"
    return None


class Recorder:
    """In-memory spans and counts; off until :meth:`set_enabled`."""

    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []
        self.normalize_calls = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def set_enabled(self, flag: bool) -> None:
        self.enabled = flag

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, fn, name):
        """Wrap ``fn`` so each enabled call records one span.

        The stack holds (span id, trace id): children inherit the trace
        id; a top-level span that learns its id only from its return
        value (``api.decode``) records it at the end.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else (None, None)
            sid = next(self._ids)
            trace = None if name == "api.decode" \
                else _trace_of(name, args, None)
            stack.append((sid, trace or parent[1]))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                entry = stack.pop()
            self.spans.append((sid, name, start, end, parent[0],
                               _trace_of(name, args, result) or entry[1],
                               _label_of(name, args, kwargs)))
            return result
        return wrapper

    def rebuild_span(self, fn, name, state):
        """A span recorded only when the call changed ``state(obj)``: a
        memoized method that rebuilt, not one that returned its memo."""
        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            if not self.enabled:
                return fn(obj, *args, **kwargs)
            before = state(obj)
            start = time.perf_counter()
            result = fn(obj, *args, **kwargs)
            end = time.perf_counter()
            if state(obj) is not before:
                stack = self._stack()
                parent = stack[-1] if stack else (None, None)
                self.spans.append((next(self._ids), name, start, end,
                                   parent[0], parent[1], None))
            return result
        return wrapper

    def counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.normalize_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path, extra: dict | None = None) -> None:
        payload = {"spans": self.spans,
                   "normalize_calls": self.normalize_calls}
        payload.update(extra or {})
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _patch(owner, attribute: str, make) -> None:
    raw = owner.__dict__[attribute] if isinstance(owner, type) \
        else getattr(owner, attribute)
    if isinstance(raw, classmethod):
        setattr(owner, attribute, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attribute, make(raw))


def install(recorder: Recorder) -> None:
    """Wrap every target; must run before the program builds anything."""
    for module_name, path, name in SPAN_TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attribute = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        _patch(owner, attribute,
               lambda fn, name=name: recorder.span(fn, name))
    for module_name in ANALYZE_MODULES:
        module = importlib.import_module(module_name)
        _patch(module, "analyze",
               lambda fn: recorder.span(fn, "text.analyze"))
    text = importlib.import_module("repro.ir.text")
    text.normalize = recorder.counted(text.normalize)
    relations = importlib.import_module("repro.ir.relations").IrRelations
    # the memo object itself: a rebuild replaces it
    relations.postings_index = recorder.rebuild_span(
        relations.postings_index, "relations.postings_rebuild",
        lambda rel: rel._postings_index)
    relations.refresh_idf = recorder.rebuild_span(
        relations.refresh_idf, "relations.idf_refresh",
        lambda rel: rel.idf_fresh())


def enable_metrics() -> None:
    """The program's own counters on, its own tracer off."""
    from repro.telemetry import NullTracer, Telemetry, enable
    enable(Telemetry(tracer=NullTracer()))


def counters() -> dict:
    from repro.telemetry.runtime import get_telemetry
    return dict(get_telemetry().metrics.snapshot()["counters"])


def control_loop(recorder: Recorder, spans_path: str,
                 handlers: dict | None = None) -> None:
    """Serve line commands from stdin: ``on``, ``off``, ``dump`` and any
    extra ``handlers``; each reply is one ``ok <word> <json>`` line."""
    for line in sys.stdin:
        command, _, argument = line.strip().partition(" ")
        if command == "on":
            recorder.set_enabled(True)
            reply = {}
        elif command == "off":
            recorder.set_enabled(False)
            reply = {}
        elif command == "dump":
            recorder.set_enabled(False)
            recorder.dump(spans_path, {"counters": counters()})
            reply = {}
        elif handlers and command in handlers:
            reply = handlers[command](argument)
        else:
            continue
        print(f"ok {command} {json.dumps(reply)}", flush=True)


# -- analysis ------------------------------------------------------------------

def load_spans(path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def self_times(spans: list) -> dict:
    """span id -> duration minus the time its direct children cover."""
    child_time: dict = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - child_time.get(sid, 0.0)
            for sid, _, start, end, _, _, _ in spans}


def by_trace(spans: list) -> dict:
    """trace id -> {span name: summed self time (s)} for request spans."""
    own = self_times(spans)
    table: dict = {}
    for sid, name, _, _, _, trace, _ in spans:
        if trace is None:
            continue
        row = table.setdefault(trace, {})
        row[name] = row.get(name, 0.0) + own[sid]
    return table


def durations(spans: list, name: str, *, label: str | None = None,
              after: float | None = None) -> list[float]:
    """Wall durations (ms) of every span called ``name``."""
    return [(end - start) * 1000.0
            for _, span_name, start, end, _, _, span_label in spans
            if span_name == name
            and (label is None or span_label == label)
            and (after is None or start >= after)]


def trace_durations(spans: list, name: str) -> dict:
    """trace id -> summed wall duration (ms) of ``name`` spans."""
    table: dict = {}
    for _, span_name, start, end, _, trace, _ in spans:
        if span_name == name and trace is not None:
            table[trace] = table.get(trace, 0.0) + (end - start) * 1000.0
    return table
