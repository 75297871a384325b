"""Spans and counters around polypack's public functions, from outside.

``Tracer.install`` rebinds module attributes in the current process only:
the defining module and every polypack module that imported the name with
``from .x import y``, so calls between layers are seen too.  Spans stay in
memory until ``write``.  Nothing here changes what the wrapped functions do.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []      # (id, parent id or -1, name, tag, start_ns, end_ns)
        self.counters = defaultdict(int)
        self.tag = ""        # set by the caller, e.g. "TTM_UT.input+output.w1"
        self._stack = []
        self._next_id = 0

    # -- installation ---------------------------------------------------

    def install(self, module, name, span, on_result=None):
        """Wrap ``module.name`` in a span; ``on_result(tracer, args, result)``
        may bump counters after each call."""
        orig = getattr(module, name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            sid, parent = self._next_id, (self._stack[-1][0] if self._stack else -1)
            self._next_id += 1
            self._stack.append((sid, span))
            start = time.perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, parent, span, self.tag, start, end))
            if on_result is not None:
                on_result(self, args, result)
            return result

        self._rebind(orig, wrapper, name)

    def install_generator(self, module, name, on_item):
        """Count what a generator yields; a generator has no single span."""
        orig = getattr(module, name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            for item in orig(*args, **kwargs):
                on_item(self, item)
                yield item

        self._rebind(orig, wrapper, name)

    @staticmethod
    def _rebind(orig, wrapper, name):
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "") or ""
            if mod_name.split(".")[0] == "polypack" and \
                    getattr(mod, name, None) is orig:
                setattr(mod, name, wrapper)

    def current(self):
        """Name of the innermost open span, or None."""
        return self._stack[-1][1] if self._stack else None

    # -- reading --------------------------------------------------------

    def durations(self, span, tag=None):
        """Wall seconds of every span with this name (and tag, if given)."""
        return [(e - s) / 1e9 for _, _, n, t, s, e in self.spans
                if n == span and (tag is None or t == tag)]

    def total(self, span):
        return sum(self.durations(span))

    def self_total(self, span):
        """Summed self time: each span minus the time its children cover.

        Children of one span run one after another, so the part they cover
        is the sum of their durations.
        """
        child = defaultdict(int)
        for _, parent, _, _, s, e in self.spans:
            if parent >= 0:
                child[parent] += e - s
        return sum(e - s - child[sid] for sid, _, n, _, s, e in self.spans
                   if n == span) / 1e9

    def write(self, path):
        """Spans as JSON lines, one [id, parent, name, tag, start_ns, end_ns]
        per line, then the counters."""
        with open(path, "w") as f:
            for rec in sorted(self.spans):
                f.write(json.dumps(rec) + "\n")
            f.write(json.dumps({"counters": dict(self.counters)}) + "\n")
