"""Outside-in span tracer: wraps the package's callables from the outside.

`Tracer.patch` replaces a module attribute, a class attribute or an
instance attribute with a wrapper that records a span (name, start, end,
parent) in memory. Patching the module or class attribute catches the
package's own internal calls, because the package always looks callables up
through their module or class at call time. A callable that does not exist
is recorded as absent instead of failing, so the trace survives code
motion in the package. `uninstall` restores every patched attribute.

Self time is a span's duration minus the durations of its direct children;
spans come from one thread, so children never overlap.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

_MISSING = object()


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    nested: bool = False  # an enclosing span has the same name

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class LayerStats:
    calls: int = 0
    inclusive_s: float = 0.0  # outermost spans only, so recursion is not double counted
    self_s: float = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.absent: set[str] = set()
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, on_return=None):
        """`fn` wrapped to record a span; `on_return(tracer, args, result)` adds counters."""
        spans, stack, depth, clock = self.spans, self._stack, self._depth, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested = depth[name] > 0
            stack.append(idx)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[name] -= 1
                stack.pop()
                spans[idx] = Span(name, t0, t1, parent, nested)
            if on_return is not None:
                on_return(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, on_return=None) -> bool:
        """Wrap `owner.attr`; record `name` as absent when it does not exist."""
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            self.absent.add(name)
            return False
        own = vars(owner).get(attr, _MISSING)
        if isinstance(own, (staticmethod, classmethod)):  # keep how the class binds it
            setattr(owner, attr, type(own)(self.wrap(name, own.__func__, on_return)))
        else:
            setattr(owner, attr, self.wrap(name, fn, on_return))
        self._patches.append((owner, attr, own))
        return True

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # --- analysis ------------------------------------------------------------

    def stats(self) -> dict[str, LayerStats]:
        if self._stack:
            raise RuntimeError("stats requested while spans are open")
        return layer_stats(self.spans)

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` with a span called `ancestor` above them."""
        spans = self.spans
        under = [False] * len(spans)
        n = 0
        for i, s in enumerate(spans):
            if s is None:
                continue
            p = s.parent
            under[i] = p >= 0 and (under[p] or spans[p].name == ancestor)
            if under[i] and s.name == name:
                n += 1
        return n

    def count_child_of(self, name: str, parents: set[str]) -> int:
        """Spans called `name` whose direct parent is one of `parents`."""
        spans = self.spans
        return sum(1 for s in spans if s is not None and s.name == name
                   and s.parent >= 0 and spans[s.parent].name in parents)


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    """Calls, inclusive and self seconds per span name.

    `spans[i].parent` indexes into `spans`; a parent always precedes its
    children, which holds for spans recorded by `Tracer.wrap`.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.duration
    out: dict[str, LayerStats] = defaultdict(LayerStats)
    for s, covered in zip(spans, child_s):
        st = out[s.name]
        st.calls += 1
        st.self_s += s.duration - covered
        if not s.nested:
            st.inclusive_s += s.duration
    return dict(out)
