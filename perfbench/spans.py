"""Span recorder for the traced benchmark run.

The program's layers are traced from outside: :meth:`Tracer.install`
rebinds the names that callers look up (a module attribute such as
``bench.predict``, or a class attribute such as ``Track.__post_init__``) to
wrappers that record a span around each call. :meth:`Tracer.uninstall`
puts the originals back, so untraced rounds run the program untouched.

A span is ``(name, start, end, parent, root, group, self_s)``. ``root`` is
the outermost span open at the time (an episode, a set-up, a training run)
and ``group`` the innermost span opened with ``group=True`` (one associate
call). Self time is a span's duration minus the durations of its direct
children. Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.records = []
        self.absent = []
        self.observed = defaultdict(list)  # span name -> [(group, value)]
        self._stack = []  # [id, name, parent, root, group, start, child_s]
        self._targets = []  # (owner, attr, span name, observe)
        self._originals = []

    # -- spans -------------------------------------------------------------

    def begin(self, name, group=False):
        sid = len(self.records)
        self.records.append(None)
        if self._stack:
            top = self._stack[-1]
            parent, root, grp = top[0], top[3], top[4]
        else:
            parent, root, grp = -1, sid, -1
        self._stack.append([sid, name, parent, root, sid if group else grp, time.perf_counter(), 0.0])
        return sid

    def end(self):
        end = time.perf_counter()
        sid, name, parent, root, grp, start, child_s = self._stack.pop()
        dur = end - start
        self.records[sid] = (name, start, end, parent, root, grp, dur - child_s)
        if self._stack:
            self._stack[-1][6] += dur

    @contextmanager
    def span(self, name, group=False):
        self.begin(name, group)
        try:
            yield
        finally:
            self.end()

    def current_group(self):
        return self._stack[-1][4] if self._stack else -1

    # -- rebinding -----------------------------------------------------------

    def target(self, owner, attr, name, observe=None):
        """Register ``owner.attr`` to be wrapped as span ``name``.

        ``observe(args, kwargs, result)`` returns a value to keep, keyed by
        the group span the call happened in. A name the program no longer has is recorded as
        absent and skipped.
        """
        if getattr(owner, attr, None) is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._targets.append((owner, attr, name, observe))

    def install(self):
        for owner, attr, name, observe in self._targets:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrapper(original, name, observe))
            self._originals.append((owner, attr, original))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrapper(self, original, name, observe):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end()
            if observe is not None:
                tracer.observed[name].append((tracer.current_group(), observe(args, kwargs, result)))
            return result

        return wrapper

    # -- aggregation ---------------------------------------------------------

    def roots(self, name):
        return [sid for sid, r in enumerate(self.records) if r[3] == -1 and r[0] == name]

    def self_by(self, key_index):
        """{key span id: {span name: [total self seconds, count]}} over all spans."""
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        for r in self.records:
            key = r[key_index]
            if key >= 0:
                cell = out[key][r[0]]
                cell[0] += r[6]
                cell[1] += 1
        return out

    def dump(self, path, meta):
        doc = {
            "meta": meta,
            "absent": self.absent,
            "fields": ["name", "start", "end", "parent", "root", "group", "self_s"],
            "spans": self.records,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
