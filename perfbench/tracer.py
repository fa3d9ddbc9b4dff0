"""In-memory span recorder that wraps chainrisk's public functions from outside.

A span is (name, start, end, parent, attrs). Wrapping rebinds a name in the
module that *calls* it: `from .graph import spmm` binds `spmm` inside
`chainrisk.model` at import time, so patching `chainrisk.graph.spmm` alone
would miss every call. `Tracer.patch` records the original binding and
`Tracer.restore` puts every one back.
"""

import json
from time import perf_counter


class Tracer:
    """Spans of one process, kept in memory until the benchmark ends."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, attrs dict]
        self._stack = []
        self._patches = []

    def open(self, name, attrs=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, attrs or {}])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def parent_name(self, idx):
        parent = self.spans[idx][3]
        return self.spans[parent][0] if parent >= 0 else None

    def patch(self, owner, attr, name, on_call=None, on_return=None):
        """Rebind owner.attr to a wrapper that records a span per call.

        `on_call(args, kwargs)` returns attributes stored on the span;
        `on_return(tracer, idx, args, kwargs, result)` may add more.
        """
        raw = vars(owner)[attr]
        func = getattr(owner, attr)

        def traced(*args, **kwargs):
            idx = self.open(name, on_call(args, kwargs) if on_call else None)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(idx)
            if on_return:
                on_return(self, idx, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, raw))

    def restore(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def self_times(self, first, last):
        """Self time of spans[first:last]: duration minus what the children cover."""
        own = {}
        for i in range(first, last):
            name, start, end, parent, _ = self.spans[i]
            own[i] = own.get(i, 0.0) + (end - start)
            if parent >= first:
                own[parent] = own.get(parent, 0.0) - (end - start)
        return own

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, attrs."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "attrs": attrs}) + "\n")
