"""In-memory span recorder for the traced run.

The benchmark wraps public functions of the polytri modules from outside
(the package itself is not modified): each call becomes a span (id,
parent, layer, start, end, thread).  Spans are kept in a list and written
out when the run ends.  From them the tracer derives per layer:

* busy_s -- time inside the layer, counting only its outermost spans, so a
  layer calling itself (ears() -> triangles()) is not counted twice; spans
  on different threads add up;
* self_s -- busy time minus the part covered by spans of other layers that
  the layer caused;
* calls and work counters (items, cells, bytes) attached by the wrapper.

Threads: each thread keeps its own span stack.  A span opened on a thread
whose stack is empty (a verify pool worker) takes as parent the innermost
open span marked `adopt`, which is the cli.run call that submitted it.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float, int]] = []
        self.busy: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._adopt: list[int] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.open_layers = defaultdict(int)
        return local

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def open(self, layer: str, adopt: bool = False):
        state = self._state()
        sid = next(self._ids)
        parent = state.stack[-1][0] if state.stack else (
            self._adopt[-1] if self._adopt else None)
        state.stack.append((sid, parent, layer))
        state.open_layers[layer] += 1
        if adopt:
            self._adopt.append(sid)
        return (sid, parent, layer, adopt, perf_counter())

    def close(self, token) -> None:
        end = perf_counter()
        sid, parent, layer, adopt, start = token
        state = self._state()
        state.stack.pop()
        state.open_layers[layer] -= 1
        if adopt:
            self._adopt.remove(sid)
        self.spans.append((sid, parent, layer, start, end, threading.get_ident()))
        with self._lock:
            self.counters[layer + ".calls"] += 1
            if not state.open_layers[layer]:
                self.busy[layer] += end - start

    def wrap(self, fn, layer: str, work=None, adopt: bool = False):
        """Span every call of fn; work(args, kwargs, result) -> {counter: n}."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.open(layer, adopt)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(token)
            if work is not None:
                for key, amount in work(args, kwargs, result).items():
                    self.count(f"{layer}.{key}", amount)
            return result

        return traced

    def wrap_generator(self, fn, layer: str):
        """Span every next() of the generator fn returns; count the items."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                token = self.open(layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(token)
                self.count(layer + ".items")
                yield item

        return traced

    def self_times(self) -> dict[str, float]:
        """Per layer: span time not covered by the union of its children."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, float] = defaultdict(float)
        for sid, _, layer, start, end, _ in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[layer] += end - start - covered
        return out

    def metrics(self) -> dict[str, float]:
        out = dict(self.counters)
        out.update({f"{layer}.busy_s": v for layer, v in self.busy.items()})
        out.update({f"{layer}.self_s": v for layer, v in self.self_times().items()})
        return out

    def dump(self, path: str) -> None:
        """Write the spans, gzipped: a JSON header naming the layers and
        threads, then one line per span 'id parent layer start_ns end_ns
        thread' with layer and thread as indexes into the header lists and
        times in ns from the first span's start (parent 0 = none)."""
        layers = sorted({span[2] for span in self.spans})
        threads = sorted({span[5] for span in self.spans})
        t0 = min((span[3] for span in self.spans), default=0.0)
        index = {name: i for i, name in enumerate(layers)}
        tindex = {tid: i for i, tid in enumerate(threads)}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"layers": layers, "threads": len(threads)}) + "\n")
            for sid, parent, layer, start, end, tid in self.spans:
                fh.write(f"{sid} {parent or 0} {index[layer]} {round((start - t0) * 1e9)} "
                         f"{round((end - t0) * 1e9)} {tindex[tid]}\n")
