"""Spans around calls into qproj modules, kept in memory and written at the end.

The tracer lives in the benchmark, not in qproj: it wraps public functions
of the modules from outside and restores them afterwards.  A span is
(id, name, start, end, parent, rows, status); its name is
``<module>.<function>`` (or a name the wrapper derives from the arguments),
and the module part is the layer.  A call counts as an *entry* into its
layer when its parent span belongs to another layer, so internal calls
inside a module (normalize folding with boxplus, say) do not dilute the
per-call figures.

Hot functions are called hundreds of thousands of times in one sweep, so
every call updates its name's totals, but only the first ``KEEP`` spans of
each name are kept whole.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from common import self_rss_mb

KEEP = 2000


@dataclass(slots=True)
class Totals:
    calls: int = 0
    entry_calls: int = 0
    entry_seconds: float = 0.0
    rows: int = 0
    failed: int = 0
    raised: int = 0
    rss_mb: float = 0.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.totals = {}
        self._stack = [(0, "")]
        self._ids = itertools.count(1)
        self._patches = []

    def totals_for(self, name):
        return self.totals.get(name) or Totals()

    def _record(self, sid, name, start, end, parent, entry, rows, status, rss):
        t = self.totals.get(name)
        if t is None:
            t = self.totals[name] = Totals()
        t.calls += 1
        if entry:
            t.entry_calls += 1
            t.entry_seconds += end - start
        t.rows += rows
        if status == "failed":
            t.failed += 1
        elif status == "raised":
            t.raised += 1
        if rss:
            t.rss_mb = max(t.rss_mb, self_rss_mb())
        if t.calls <= KEEP:
            self.spans.append((sid, name, start, end, parent, rows, status))

    @contextmanager
    def span(self, name):
        """A span around a block of benchmark code."""
        sid = next(self._ids)
        parent, parent_layer = self._stack[-1]
        layer = name.partition(".")[0]
        self._stack.append((sid, layer))
        status = "ok"
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            status = "raised"
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record(sid, name, start, end, parent, layer != parent_layer,
                         0, status, False)

    def wrap(self, module, attr, name, outcome=None, rss=False):
        """Trace every call of ``module.attr``, wherever qproj refers to it.

        ``name`` is the span name or a function of the call's arguments
        giving it; ``outcome(result)`` gives (rows, passed) for reports;
        ``rss`` samples the process's peak RSS as each call ends.
        """
        fn = getattr(module, attr)
        stack = self._stack
        ids = self._ids
        record = self._record
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            layer = span_name.partition(".")[0]
            sid = next(ids)
            parent, parent_layer = stack[-1]
            stack.append((sid, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                record(sid, span_name, start, end, parent, layer != parent_layer,
                       0, "raised", rss)
                raise
            end = clock()
            stack.pop()
            rows, passed = outcome(result) if outcome else (0, True)
            record(sid, span_name, start, end, parent, layer != parent_layer,
                   rows, "ok" if passed else "failed", rss)
            return result

        # ``from .x import f`` copies the reference: patch every copy in qproj
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").split(".")[0] == "qproj"
                    and getattr(mod, attr, None) is fn):
                setattr(mod, attr, traced)
                self._patches.append((mod, attr, fn))

    def restore(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def write(self, path, **meta):
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "name", "start", "end", "parent", "rows", "status")
        doc = dict(meta, keep_per_name=KEEP,
                   totals={k: asdict(v) for k, v in sorted(self.totals.items())},
                   spans=[dict(zip(fields, s)) for s in self.spans])
        path.write_text(json.dumps(doc) + "\n")
