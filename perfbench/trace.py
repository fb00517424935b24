"""In-memory span tracer that wraps the program's public functions.

The benchmark traces the program from the outside: :class:`Tracer`
replaces functions and methods with wrappers that record one span per
call (name, start, end, parent span, op id, thread).  Because ``from
module import name`` binds a function into every importing module,
:meth:`Tracer.patch_function` rebinds *every* module attribute that
refers to the original, so a call through ``repro.analysis.engine``'s
``robust_solve`` is traced just like one through
``repro.analysis.newton``'s.

Parent links and op ids travel in :mod:`contextvars`, so they follow
asyncio tasks.  Work handed to a thread pool keeps them only when the
pool's ``submit`` runs the callable in a copy of the caller's context;
:func:`propagate_context` arranges that for the serving layer's solver
thread, so solver spans link to the request that opened their batch.

A span's *self time* is its duration minus the part of its interval
covered by its children, on any thread (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable

_SPAN: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None)
_OP: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_op", default=None)

#: Module-name prefixes whose bindings :meth:`Tracer.patch_function`
#: rewrites.
PATCHED_PREFIXES = ("repro", "perfbench")

# Span record layout (lists keep the per-call cost low).
SID, NAME, START, END, PARENT, OP, THREAD = range(7)


def bind_op(op_id: int | None) -> None:
    """Attach the calling context to *op_id* (e.g. on the server side)."""
    _OP.set(op_id)


def propagate_context(executor) -> None:
    """Make *executor* run submitted callables in the submitter's context."""
    submit = executor.submit

    def submit_in_context(fn, /, *args, **kwargs):
        return submit(contextvars.copy_context().run, fn, *args, **kwargs)

    executor.submit = submit_in_context


class Tracer:
    """Records spans and call counts while its patches are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.kept: defaultdict[str, list] = defaultdict(list)
        self.captured: defaultdict[str, list] = defaultdict(list)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _open(self, name: str) -> tuple[list, contextvars.Token]:
        record = [next(self._ids), name, time.perf_counter(), 0.0,
                  _SPAN.get(), _OP.get(), threading.get_ident()]
        self.spans.append(record)
        return record, _SPAN.set(record[SID])

    @staticmethod
    def _close(record: list, token: contextvars.Token) -> None:
        record[END] = time.perf_counter()
        _SPAN.reset(token)

    @contextlib.contextmanager
    def span(self, name: str, op_id: int | None = None):
        """Span opened by the benchmark itself (a context manager).

        With *op_id* the span (and everything called inside it) belongs
        to that op.
        """
        op_token = _OP.set(op_id) if op_id is not None else None
        record, token = self._open(name)
        try:
            yield record
        finally:
            self._close(record, token)
            if op_token is not None:
                _OP.reset(op_token)

    def wrap(self, fn: Callable, name: str, *, keep: bool = False,
             after: Callable | None = None) -> Callable:
        """Span-recording wrapper of *fn*.

        *keep* stores every return value under ``kept[name]``; *after*
        is called with the call's first argument once it returns (used
        to capture stats objects from constructors).
        """
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                record, token = self._open(name)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    self._close(record, token)
                if keep:
                    self.kept[name].append(result)
                return result
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record, token = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record, token)
            if keep:
                self.kept[name].append(result)
            if after is not None:
                after(args[0])
            return result
        return wrapper

    def counter(self, fn: Callable, name: str) -> Callable:
        """Call-counting wrapper of *fn* (no span: for very hot calls)."""
        counts, lock = self.counts, self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:  # the serving loop and solver threads both count
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _rebind_everywhere(self, original: Callable,
                           replacement: Callable) -> int:
        bound = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name == __name__:
                continue
            if not module_name.startswith(PATCHED_PREFIXES):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append(
                        functools.partial(setattr, module, attr, original))
                    bound += 1
        if not bound:
            raise RuntimeError(
                f"{original.__module__}.{original.__qualname__} is bound "
                f"in no loaded module")
        return bound

    def patch_function(self, fn: Callable, name: str, *,
                       keep: bool = False) -> None:
        """Trace every module-level binding of function *fn*."""
        self._rebind_everywhere(fn, self.wrap(fn, name, keep=keep))

    def count_function(self, fn: Callable, name: str) -> None:
        """Count calls through every module-level binding of *fn*."""
        self._rebind_everywhere(fn, self.counter(fn, name))

    def patch_method(self, cls: type, attr: str, name: str, *,
                     capture: Callable | None = None,
                     count_only: bool = False) -> None:
        """Trace (or count) calls of ``cls.attr``.

        *capture* maps the instance to an object appended to
        ``captured[name]`` after each call (constructors use it to
        collect the program's stats objects).
        """
        original = cls.__dict__[attr]
        after = None
        if capture is not None:
            def after(instance):
                self.captured[name].append(capture(instance))
        if count_only:
            replacement = self.counter(original, name)
        else:
            replacement = self.wrap(original, name, after=after)
        setattr(cls, attr, replacement)
        self._undo.append(functools.partial(setattr, cls, attr, original))

    def replace_method(self, cls: type, attr: str,
                       replacement: Callable) -> None:
        """Install a hand-written wrapper as ``cls.attr`` (undoable)."""
        original = cls.__dict__[attr]
        setattr(cls, attr, replacement)
        self._undo.append(functools.partial(setattr, cls, attr, original))

    def restore(self) -> None:
        """Undo every patch (last first)."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def op_spans(self) -> list[list]:
        """Spans that belong to an op (set-up work has none)."""
        return [s for s in self.spans if s[OP] is not None]

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("sid\tname\tstart\tend\tparent\top\tthread\n")
            for s in self.spans:
                handle.write(
                    f"{s[SID]}\t{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t"
                    f"{'' if s[PARENT] is None else s[PARENT]}\t"
                    f"{'' if s[OP] is None else s[OP]}\t{s[THREAD]}\n")


def covered(intervals: Iterable[tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of *intervals*."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if b > lo and a < hi)
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Self time of every span: duration minus child coverage.

    Children are matched by parent id on any thread, so a solver-thread
    span counts against the request span that opened its batch.
    """
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {s[SID]: (s[END] - s[START])
            - covered(children.get(s[SID], ()), s[START], s[END])
            for s in spans}


def ancestors(spans: list[list]) -> Callable[[list], Iterable[str]]:
    """Function yielding the names of a span's ancestors."""
    by_id = {s[SID]: s for s in spans}

    def walk(span: list) -> Iterable[str]:
        parent = span[PARENT]
        while parent is not None and parent in by_id:
            span = by_id[parent]
            yield span[NAME]
            parent = span[PARENT]
    return walk
