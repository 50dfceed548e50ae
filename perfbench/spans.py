"""In-memory span recorder that wraps m2dan's public functions from outside.

`SpanRecorder.patched()` replaces each wrapped function in every m2dan module
namespace that refers to it (plus `Tensor.backward` on the class), so code
such as `training.train` and `cli.run_training` runs unmodified while each
call is timed. Spans stay in memory; `summary()` and `to_json()` turn them
into per-name statistics when the run ends.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from contextlib import contextmanager

MODULES = ("data", "tensor", "layers", "model", "losses", "training", "metrics", "cli")

# (module that defines the function, attribute, span name)
WRAPPED = (
    ("data", "make_benchmark", "data.make_benchmark"),
    ("data", "epoch_batches", "data.batch"),
    ("model", "forward", "model.forward"),
    ("losses", "total_objective", "losses.objective"),
    ("training", "sgd_step", "training.sgd"),
    ("training", "load_checkpoint", "training.checkpoint_load"),
    ("metrics", "evaluate", "metrics.evaluate"),
    ("metrics", "auc", "metrics.auc"),
    ("cli", "run_training", "cli.run_training"),
)


def percentile(sorted_vals: list[float], q: float) -> float:
    """Linear-interpolated q-th percentile (0..100) of an ascending list."""
    if not sorted_vals:
        raise ValueError("percentile of no samples")
    pos = (len(sorted_vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """(q, value) for the highest of p99.9/p99/p95/p90/p75 that still has at
    least ten samples above it, or (None, None) when there are too few."""
    s = sorted(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(s) * (1.0 - q / 100.0) >= 10.0:
            return q, percentile(s, q)
    return None, None


class SpanRecorder:
    """Spans are (name, thread id, start, end, parent index, attrs)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.enabled = True
        self._stack = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------ recording

    def _open(self) -> list[tuple[int, str]]:
        """The current thread's open spans, outermost first, as (index, name)."""
        stack = getattr(self._stack, "open", None)
        if stack is None:
            stack = self._stack.open = []
        return stack

    def inside(self, name: str) -> bool:
        """True when the current thread has an open span with this name."""
        return any(n == name for _, n in self._open())

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        stack = self._open()
        parent = stack[-1][0] if stack else -1
        with self._lock:  # reserve the slot so children can point at it
            idx = len(self.spans)
            self.spans.append(None)
        stack.append((idx, name))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[idx] = (name, threading.get_ident(), start, end, parent, attrs)

    @contextmanager
    def paused(self):
        """Run checks that call wrapped functions without recording them."""
        prev, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = prev

    # ------------------------------------------------------------ patching

    def _wrap(self, name, fn):
        rec = self
        if name == "data.batch":
            def epoch_batches(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    with rec.span("data.batch") as attrs:
                        batch = next(it, None)
                        attrs["rows"] = 0 if batch is None else batch.images.shape[0]
                    if batch is None:
                        return
                    yield batch
            return epoch_batches
        if name == "model.forward":
            def forward(model, images, *args, **kwargs):
                label = "model.eval_forward" if rec.inside("metrics.evaluate") else name
                with rec.span(label, rows=images.shape[0]):
                    return fn(model, images, *args, **kwargs)
            return forward
        if name == "training.sgd":
            def sgd_step(params, lr):
                items = list(params.items() if hasattr(params, "items") else params)
                with rec.span(name, params=sum(p.size for _, p in items)):
                    return fn(items, lr)
            return sgd_step
        if name == "data.make_benchmark":
            def make_benchmark(*args, **kwargs):
                with rec.span(name) as attrs:
                    bench = fn(*args, **kwargs)
                    attrs["images"] = sum(len(d.train) + len(d.test) for d in bench.domains)
                return bench
            return make_benchmark

        def wrapper(*args, **kwargs):
            with rec.span(name):
                return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def patched(self):
        """Install the wrappers in every m2dan module; restore on exit."""
        mods = {m: importlib.import_module(f"m2dan.{m}") for m in MODULES}
        tensor_mod = mods["tensor"]
        undo = []
        try:
            for home, attr, name in WRAPPED:
                orig = getattr(mods[home], attr)
                wrapped = self._wrap(name, orig)
                for mod in mods.values():
                    if getattr(mod, attr, None) is orig:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, orig))
            orig_backward = tensor_mod.Tensor.backward
            rec = self

            def backward(t):
                with rec.span("tensor.backward", tape_ops=len(tensor_mod.active_tape())):
                    return orig_backward(t)

            tensor_mod.Tensor.backward = backward
            undo.append((tensor_mod.Tensor, "backward", orig_backward))
            yield self
        finally:
            for obj, attr, orig in reversed(undo):
                setattr(obj, attr, orig)

    # ------------------------------------------------------------ analysis

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        return own

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, p50 and tail in ms."""
        own = self.self_times()
        by_name: dict[str, dict] = {}
        for s, self_s in zip(self.spans, own):
            entry = by_name.setdefault(s[0], {"durations": [], "self_s": 0.0, "attrs": []})
            entry["durations"].append(s[3] - s[2])
            entry["self_s"] += self_s
            entry["attrs"].append(s[5])
        out = {}
        for name, e in sorted(by_name.items()):
            d = sorted(e["durations"])
            q, tail_v = tail(d)
            out[name] = {
                "n": len(d),
                "total_s": sum(d),
                "self_s": e["self_s"],
                "p50_ms": 1e3 * percentile(d, 50.0),
                "tail_q": q,
                "tail_ms": None if tail_v is None else 1e3 * tail_v,
                "durations": e["durations"],
                "attrs": e["attrs"],
            }
        return out

    def to_json(self) -> str:
        rows = [
            {"name": n, "thread": t, "start": a, "end": b, "parent": p, **attrs}
            for n, t, a, b, p, attrs in self.spans
        ]
        return json.dumps(rows)
