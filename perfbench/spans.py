"""Outside-in span recorder: times calls into the package without editing it.

A `Recorder` replaces chosen functions and methods by timing wrappers while it
is active and puts the originals back when it closes, so untraced runs execute
the unwrapped code.  A module-level function is rebound in every module of the
package that imported it by name; otherwise calls made through that import
would escape the trace.  A method is wrapped on its class, which covers every
instance and every caller.

Spans stay in memory.  Each one records its name, its parent span, start and
end in `perf_counter_ns` units, whether the call raised, and optional size
attributes computed after the call returned.  The time spent computing those
attributes is recorded separately (`instr_ns`), so that it is charged neither
to the span nor to its parent's self time.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

_now = time.perf_counter_ns


class Span:
    __slots__ = ("name", "parent", "start", "end", "instr_ns", "failed", "attrs")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.instr_ns = 0
        self.failed = False
        self.attrs = None

    def as_dict(self):
        return {
            "name": self.name,
            "parent": self.parent,
            "start_ns": self.start,
            "end_ns": self.end,
            "instr_ns": self.instr_ns,
            "failed": self.failed,
            "attrs": self.attrs,
        }


class Recorder:
    """Collects spans for the calls it wraps; a context manager that restores.

    `package` names the package whose modules are searched for imported
    bindings of a wrapped function.
    """

    def __init__(self, package="superalg"):
        self.package = package
        self.spans = []
        self._stack = []
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        span = Span(name, self._stack[-1] if self._stack else -1, 0)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = _now()
        return span

    def _close(self, span):
        span.end = _now()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the caller, e.g. around one benchmark operation."""
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _timed(self, fn, name, attrs):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = rec._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                s.failed = True
                raise
            finally:
                rec._close(s)
            if attrs is not None:
                t = _now()
                s.attrs = attrs(args, result)
                s.instr_ns = _now() - t
            return result

        return wrapper

    # -- installing and restoring wrappers --------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(prefix))
        ]

    def wrap_function(self, module, name, span_name, attrs=None):
        """Wrap module.name and every by-name import of it inside the package.

        Raises AttributeError if the function no longer exists, so a rename
        fails loudly instead of silently emptying a layer.
        """
        original = getattr(module, name)
        wrapper = self._timed(original, span_name, attrs)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def wrap_method(self, cls, name, span_name, attrs=None):
        """Wrap a method defined on cls itself (not inherited)."""
        if name not in cls.__dict__:
            raise AttributeError(f"{cls.__qualname__} defines no method {name!r}")
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, self._timed(original, span_name, attrs))

    def restore(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class NullRecorder:
    """Stands in for a Recorder in untraced runs; its spans cost one call."""

    def span(self, name):
        return contextlib.nullcontext()


# -- reading spans -----------------------------------------------------------------


def self_times_ns(spans):
    """Duration of each span minus the time its direct children cover."""
    covered = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start + s.instr_ns
    return [s.end - s.start - covered[k] for k, s in enumerate(spans)]


def under(spans, ancestor_name):
    """Indices of spans that have an ancestor called ancestor_name."""
    inside = [False] * len(spans)
    for k, s in enumerate(spans):
        p = s.parent
        if p >= 0:
            inside[k] = inside[p] or spans[p].name == ancestor_name
    return [k for k, flag in enumerate(inside) if flag]


def aggregate(spans):
    """Per span name: calls, inclusive and self seconds, failures, attributes.

    Attributes named max_* are combined by max, all others by sum.
    """
    selfs = self_times_ns(spans)
    out = {}
    for s, self_ns in zip(spans, selfs):
        a = out.get(s.name)
        if a is None:
            a = out[s.name] = {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0}
        a["calls"] += 1
        a["s"] += (s.end - s.start) / 1e9
        a["self_s"] += self_ns / 1e9
        a["failed"] += s.failed
        if s.attrs:
            for key, v in s.attrs.items():
                if key.startswith("max_"):
                    a[key] = max(a.get(key, 0), v)
                else:
                    a[key] = a.get(key, 0) + v
    return out
