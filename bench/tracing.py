"""Span recording around calls into qimet's layers, for the traced run.

Spans are recorded by replacing a function at every name a qimet module
binds it to (for example ``qimet.cli.diamond_norm``, ``qimet.verify.
diamond_norm`` and ``qimet.oracle.diamond_norm``), because callers look those
names up at call time.  Nothing under ``src/`` changes; ``uninstall`` puts the
original functions back.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

#: (defining module, function, span name).  A callable span name receives the
#: call's positional arguments.
TARGETS = (
    ("qimet.cli", "main", "cli.main"),
    ("qimet.oracle", "diamond_norm", "oracle.diamond_norm"),
    ("qimet.linalg", "partial_trace", "linalg.partial_trace"),
    ("qimet.linalg", "psd_sqrt", "linalg.psd_sqrt"),
    ("qimet.linalg", "trace_norm", "linalg.trace_norm"),
    ("qimet.channels", "choi_from_kraus", "channels.choi_from_kraus"),
    ("qimet.instruments", "expand_uniform", "instruments.expand"),
    ("qimet.instruments", "expand_nonuniform", "instruments.expand"),
    ("qimet.instruments", "full_channel", "instruments.full_channel"),
    ("qimet.instruments", "model_from_json", "instruments.model_from_json"),
    ("qimet.metrics", "build_report", "metrics.build_report"),
    ("qimet.metrics", "instrument_diamond_lower_max", "metrics.lower_max"),
    ("qimet.metrics", "instrument_diamond_upper", "metrics.upper"),
    ("qimet.verify", "run_trial", lambda args: f"verify.run_trial.{args[0]}"),
)


class Tracer:
    """In-memory span store.

    A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
    the enclosing span (-1 at top level) and ``op`` the benchmark op it ran
    under.  ``iterations`` sums ``diamond_norm`` iterations, including those
    riding on an ``Unconverged``; ``failed`` counts raised calls and verify
    records with ``passed == False``, by span name.
    """

    def __init__(self):
        self.spans = []
        self.op = -1
        self.iterations = 0
        self.failed = defaultdict(int)
        self._stack = []
        self._restore = []

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.failed[label] += 1
                partial = getattr(exc, "result", None)
                if partial is not None:
                    self.iterations += partial.iterations
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (label, start, end, parent, self.op)
            if label == "oracle.diamond_norm":
                self.iterations += result.iterations
            elif label.startswith("verify.run_trial.") and not result.passed:
                self.failed[label] += 1
            return result
        return traced

    def install(self):
        """Replace every qimet-module binding of each target function."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "qimet" or n.startswith("qimet.")) and m is not None]
        for module_name, attr, name in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def totals(self):
        """Per span name: ``(calls, busy_s, self_s)``.

        ``busy_s`` sums the spans not nested inside a span of the same name;
        self time is a span's duration minus its direct children's.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        busy = defaultdict(float)
        own = defaultdict(float)
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            own[name] += end - start - child_time[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                busy[name] += end - start
        return calls, busy, own

    def dump(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
