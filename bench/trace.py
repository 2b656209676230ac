"""Layer-boundary tracing from outside ``src/``: a ``sys.setprofile`` hook.

A span opens whenever a Python call crosses from one ``repro.<layer>``
package into another and closes when that call returns.  Time spent in the
stdlib, in builtins or in this package's own helpers stays with the layer
that called them; time outside every layer belongs to the root span,
layer ``bench``.  A span is ``(span_id, parent_id, op_id, layer, qualname,
start, end)``; spans of one operation share ``op_id`` (an operation starts
where its ``SessionBuilder`` is constructed).  A layer's self time is its
spans' duration minus the part their child spans cover, so the layers'
self times sum to the traced duration exactly.

Aggregates cover everything traced.  Raw spans are kept in memory for the
first operation only (a steady-state round opens ~300k spans) and written
out by :func:`write_spans` when the benchmark ends.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional

import repro

_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
#: The call that begins an operation.
_OPERATION_START = "SessionBuilder.__init__"
ROOT_LAYER = "bench"


def layer_of(filename: str) -> Optional[str]:
    """The ``repro`` layer a source file belongs to, or ``None`` outside it."""
    if not filename.startswith(_PACKAGE_DIR):
        return None
    head = filename[len(_PACKAGE_DIR):].split(os.sep, 1)[0]
    return head[:-3] if head.endswith(".py") else head


class Tracer:
    """Collects layer-boundary spans between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.edges: Dict[str, int] = defaultdict(int)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.py_calls = 0
        self.c_calls = 0
        self.total_s = 0.0
        #: Raw spans of the first operation (and the preamble before it).
        self.spans: List[tuple] = []

    def start(self) -> None:
        if sys.getprofile() is not None:
            raise RuntimeError("a profile hook is already installed")
        clock = time.perf_counter
        layers: Dict[Any, Optional[str]] = {}
        self_s, calls, edges = self.self_s, self.calls, self.edges
        inclusive_s, spans = self.inclusive_s, self.spans
        # Open spans, innermost last:
        # [span_id, parent_id, op_id, layer, qualname, start, child_s, depth]
        root = [0, -1, -1, ROOT_LAYER, "<round>", clock(), 0.0, 0]
        stack = [root]
        depth = 0  # Python frames entered since the hook was installed
        next_id = 1
        op_id = -1
        py_calls = c_calls = 0

        def close(span, now) -> None:
            duration = now - span[5]
            self_s[span[3]] += duration - span[6]
            inclusive_s[span[4]] += duration
            if span[2] <= 0:
                spans.append((span[0], span[1], span[2], span[3], span[4], span[5], now))

        def hook(frame, event, _arg) -> None:
            nonlocal depth, next_id, op_id, py_calls, c_calls
            if event == "call":
                py_calls += 1
                depth += 1
                code = frame.f_code
                try:
                    layer = layers[code]
                except KeyError:
                    layer = layers[code] = layer_of(code.co_filename)
                top = stack[-1]
                if layer is None or layer == top[3]:
                    return
                qualname = code.co_qualname
                if qualname == _OPERATION_START:
                    op_id += 1
                calls[layer] += 1
                edges[f"{top[3]}>{layer}"] += 1
                stack.append([next_id, top[0], op_id, layer, qualname, clock(), 0.0, depth])
                next_id += 1
            elif event == "return":
                if depth == 0:
                    return  # a frame entered before the hook was installed
                top = stack[-1]
                if top[7] == depth:
                    now = clock()
                    close(top, now)
                    stack.pop()
                    stack[-1][6] += now - top[5]
                depth -= 1
            elif event == "c_call":
                c_calls += 1

        def finish() -> None:
            sys.setprofile(None)
            now = clock()
            # stop() is itself a traced frame; nothing else can still be open.
            close(root, now)
            self.total_s = now - root[5]
            self.py_calls, self.c_calls = py_calls, c_calls

        self._finish = finish
        sys.setprofile(hook)

    def stop(self) -> None:
        self._finish()

    def summary(self) -> Dict[str, Any]:
        return {
            "total_s": self.total_s,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "edges": dict(self.edges),
            "inclusive_s": dict(self.inclusive_s),
            "py_calls": self.py_calls,
            "c_calls": self.c_calls,
        }


def write_spans(tracer: Tracer, path: Path) -> None:
    """Dump the first operation's raw spans, one JSON object per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = ("span_id", "parent_id", "op_id", "layer", "qualname", "start", "end")
    with open(path, "w", encoding="utf-8") as out:
        for span in tracer.spans:
            out.write(json.dumps(dict(zip(keys, span))) + "\n")
