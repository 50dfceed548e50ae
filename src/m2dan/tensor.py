"""Reverse-mode automatic differentiation over dense float64 tensors.

Define-by-run: every operation whose output requires gradients is recorded on
a thread-local tape (a Wengert list). ``backward`` seeds the loss with
gradient 1 and replays the tape in reverse recording order exactly once,
accumulating gradients additively over fan-out. The tape is rebuilt per
forward pass; call :func:`reset_tape` at the start of each pass.

numpy arrays are the storage and arithmetic substrate; all differentiation
logic lives here.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DomainError,
    InvalidAxis,
    InvalidShape,
    NonFiniteInput,
    NotScalar,
    ShapeMismatch,
)

# Probabilities entering log() are clamped to this interval by default. The
# lower bound realizes the 0*log(0) := 0 convention for entropy terms; the
# clamp is flat outside the interval, so clamped entries get zero gradient
# through the log itself.
LOG_CLAMP_MIN = 1e-12
LOG_CLAMP_MAX = 1.0

_tls = threading.local()


class _TapeOp:
    """One recorded operation: inputs, output, and a backward rule.

    ``backward_fn`` maps the output gradient to one gradient array (or None)
    per input.
    """

    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered list of recorded operations; recording order is topological."""

    __slots__ = ("ops",)

    def __init__(self):
        self.ops: list[_TapeOp] = []

    def __len__(self):
        return len(self.ops)


def active_tape() -> Tape:
    """The tape ops are currently recorded on (per thread, auto-created)."""
    tape = getattr(_tls, "tape", None)
    if tape is None:
        tape = Tape()
        _tls.tape = tape
    return tape


def reset_tape() -> Tape:
    """Discard the current thread's tape and start a fresh recording."""
    _tls.tape = Tape()
    return _tls.tape


@contextmanager
def no_grad():
    """Disable recording inside the block; outputs do not require gradients."""
    prev = getattr(_tls, "grad_enabled", True)
    _tls.grad_enabled = False
    try:
        yield
    finally:
        _tls.grad_enabled = prev


def _grad_enabled() -> bool:
    return getattr(_tls, "grad_enabled", True)


class Tensor:
    """Dense float64 tensor: row-major buffer + shape, optional gradient."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.size == 0:
            raise InvalidShape(f"tensor may not be empty, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise NotScalar(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def backward(self) -> None:
        backward(self)

    # -- operator sugar (b may be a python scalar; it is lifted to shape [1]) --

    def __add__(self, other):
        return add(self, _lift(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __mul__(self, other):
        return mul(self, _lift(other))

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)

    def sum(self, axes=None):
        return tensor_sum(self, axes)

    def mean(self, axes=None):
        return tensor_mean(self, axes)

    def exp(self):
        return exp(self)

    def log(self, clamp: bool = True):
        return log(self, clamp=clamp)

    def relu(self):
        return relu(self)

    def square(self):
        return square(self)

    def __repr__(self):
        return f"Tensor(shape={list(self.shape)}, requires_grad={self.requires_grad})"


def build_tensor(shape: Sequence[int], values: Sequence[float], requires_grad: bool = False) -> Tensor:
    """Build a tensor from an explicit shape and flat row-major values."""
    dims = list(shape)
    if len(dims) == 0 or any((not isinstance(d, (int, np.integer))) or d < 1 for d in dims):
        raise InvalidShape(f"dimensions must be positive integers, got {dims}")
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    n = int(np.prod(dims))
    if flat.size != n:
        raise ShapeMismatch(f"shape {dims} needs {n} values, got {flat.size}")
    return Tensor(flat.reshape(dims), requires_grad=requires_grad)


def constant(values) -> Tensor:
    """Non-differentiable tensor from any array-like (labels, masks, scalars)."""
    return Tensor(np.asarray(values, dtype=np.float64))


def _lift(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, (int, float, np.floating, np.integer)):
        return Tensor(np.array([x], dtype=np.float64))
    raise TypeError(f"cannot use {type(x).__name__} as a tensor operand")


def record(data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn: Callable) -> Tensor:
    """Create an op output and register it on the active tape if needed."""
    requires = _grad_enabled() and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=requires)
    if requires:
        active_tape().ops.append(_TapeOp(inputs, out, backward_fn))
    return out


# ---------------------------------------------------------------------------
# elementwise binary ops (same shape, or b of shape [1] broadcast against a)


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> bool:
    """Return True when b is a broadcast scalar, raise on anything illegal."""
    if a.shape == b.shape:
        return False
    if b.shape == (1,):
        return True
    raise ShapeMismatch(f"{op}: shapes {a.shape} and {b.shape} are not compatible")


def add(a: Tensor, b) -> Tensor:
    b = _lift(b)
    scalar_b = _binary_shapes(a, b, "add")
    out = a.data + b.data
    if scalar_b:
        back = lambda g: (g, np.array([g.sum()]))
    else:
        back = lambda g: (g, g)
    return record(out, (a, b), back)


def sub(a: Tensor, b) -> Tensor:
    b = _lift(b)
    scalar_b = _binary_shapes(a, b, "sub")
    out = a.data - b.data
    if scalar_b:
        back = lambda g: (g, np.array([-g.sum()]))
    else:
        back = lambda g: (g, -g)
    return record(out, (a, b), back)


def mul(a: Tensor, b) -> Tensor:
    b = _lift(b)
    scalar_b = _binary_shapes(a, b, "mul")
    out = a.data * b.data
    ad, bd = a.data, b.data
    if scalar_b:
        back = lambda g: (g * bd, np.array([(g * ad).sum()]))
    else:
        back = lambda g: (g * bd, g * ad)
    return record(out, (a, b), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeMismatch(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd
    back = lambda g: (g @ bd.T, ad.T @ g)
    return record(out, (a, b), back)


# ---------------------------------------------------------------------------
# unary maps


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    back = lambda g: (g * out,)
    return record(out, (a,), back)


def log(a: Tensor, clamp: bool = True) -> Tensor:
    """Natural log. With clamp=True inputs are clipped to [1e-12, 1] first;
    clipped entries get zero gradient. With clamp=False any input <= 0 raises."""
    x = a.data
    if clamp:
        c = np.clip(x, LOG_CLAMP_MIN, LOG_CLAMP_MAX)
        mask = (x >= LOG_CLAMP_MIN) & (x <= LOG_CLAMP_MAX)
        out = np.log(c)
        back = lambda g: (np.where(mask, g / c, 0.0),)
    else:
        if np.any(x <= 0.0):
            raise DomainError("log of non-positive value with clamping disabled")
        out = np.log(x)
        back = lambda g: (g / x,)
    return record(out, (a,), back)


def relu(a: Tensor) -> Tensor:
    x = a.data
    out = np.maximum(x, 0.0)
    back = lambda g: (g * (x > 0.0),)  # subgradient 0 at the kink
    return record(out, (a,), back)


def neg(a: Tensor) -> Tensor:
    return record(-a.data, (a,), lambda g: (-g,))


def square(a: Tensor) -> Tensor:
    x = a.data
    return record(x * x, (a,), lambda g: (2.0 * x * g,))


def pow_scalar(a: Tensor, p: float) -> Tensor:
    """a ** p for a fixed float exponent. p == 0 yields ones with zero grad."""
    x = a.data
    out = x ** p
    if p == 0.0:
        back = lambda g: (np.zeros_like(x),)
    else:
        back = lambda g: (g * p * x ** (p - 1.0),)
    return record(out, (a,), back)


# ---------------------------------------------------------------------------
# reductions


def _normalize_axes(shape: tuple[int, ...], axes) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(len(shape)))
    if isinstance(axes, (int, np.integer)):
        axes = (int(axes),)
    axes = tuple(int(a) for a in axes)
    seen = set()
    for a in axes:
        if a < 0 or a >= len(shape):
            raise InvalidAxis(f"axis {a} out of range for shape {shape}")
        if a in seen:
            raise InvalidAxis(f"axis {a} repeated")
        seen.add(a)
    return axes


def _reduce(a: Tensor, axes, take_mean: bool) -> Tensor:
    axes = _normalize_axes(a.shape, axes)
    in_shape = a.shape
    kept = tuple(d for i, d in enumerate(in_shape) if i not in axes)
    count = 1
    for ax in axes:
        count *= in_shape[ax]
    out = np.sum(a.data, axis=axes)
    if take_mean:
        out = out / count
    if out.ndim == 0:
        out = out.reshape(1)

    def back(g):
        gx = g.reshape(kept) if kept else g.reshape(())
        for ax in sorted(axes):
            gx = np.expand_dims(gx, ax)
        gx = np.broadcast_to(gx, in_shape)
        return ((gx / count) if take_mean else (gx + 0.0),)

    return record(out, (a,), back)


def tensor_sum(a: Tensor, axes=None) -> Tensor:
    return _reduce(a, axes, take_mean=False)


def tensor_mean(a: Tensor, axes=None) -> Tensor:
    return _reduce(a, axes, take_mean=True)


# ---------------------------------------------------------------------------
# structural ops


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if len(tensors) == 0:
        raise ShapeMismatch("concat needs at least one tensor")
    rank = tensors[0].data.ndim
    if axis < 0 or axis >= rank:
        raise InvalidAxis(f"concat axis {axis} out of range for rank {rank}")
    for t in tensors[1:]:
        if t.data.ndim != rank:
            raise ShapeMismatch("concat: ranks differ")
        for i in range(rank):
            if i != axis and t.shape[i] != tensors[0].shape[i]:
                raise ShapeMismatch(
                    f"concat: shapes {tensors[0].shape} and {t.shape} differ off axis {axis}"
                )
    out = np.concatenate([t.data for t in tensors], axis=axis)
    extents = [t.shape[axis] for t in tensors]
    splits = np.cumsum(extents)[:-1]
    back = lambda g: tuple(np.split(g, splits, axis=axis))
    return record(out, tuple(tensors), back)


def take_rows(a: Tensor, rows) -> Tensor:
    """Select rows of a rank-2 tensor; backward scatter-adds into place."""
    idx = np.asarray(rows, dtype=np.int64)
    if a.data.ndim != 2:
        raise ShapeMismatch(f"take_rows needs a rank-2 tensor, got {a.shape}")
    out = a.data[idx]
    in_shape = a.shape

    def back(g):
        gx = np.zeros(in_shape)
        np.add.at(gx, idx, g)
        return (gx,)

    return record(out, (a,), back)


# ---------------------------------------------------------------------------
# softmax family


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("softmax input contains NaN or infinity")
    ax = axis if axis >= 0 else x.ndim + axis
    if ax < 0 or ax >= x.ndim:
        raise InvalidAxis(f"softmax axis {axis} out of range for shape {a.shape}")
    z = x - np.max(x, axis=ax, keepdims=True)
    e = np.exp(z)
    out = e / np.sum(e, axis=ax, keepdims=True)

    def back(g):
        dot = np.sum(g * out, axis=ax, keepdims=True)
        return (out * (g - dot),)

    return record(out, (a,), back)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("log_softmax input contains NaN or infinity")
    ax = axis if axis >= 0 else x.ndim + axis
    if ax < 0 or ax >= x.ndim:
        raise InvalidAxis(f"log_softmax axis {axis} out of range for shape {a.shape}")
    z = x - np.max(x, axis=ax, keepdims=True)
    lse = np.log(np.sum(np.exp(z), axis=ax, keepdims=True))
    out = z - lse
    sm = np.exp(out)

    def back(g):
        return (g - sm * np.sum(g, axis=ax, keepdims=True),)

    return record(out, (a,), back)


# ---------------------------------------------------------------------------
# backward pass and finite-difference checking


def backward(loss: Tensor) -> None:
    """Populate .grad for every requires_grad tensor reachable from loss.

    Visits recorded ops in strict reverse recording order exactly once;
    gradient contributions accumulate additively.
    """
    if loss.shape != (1,):
        raise NotScalar(f"backward needs a shape-[1] loss, got {loss.shape}")
    if loss.grad is None:
        loss.grad = np.zeros_like(loss.data)
    loss.grad += 1.0
    for op in reversed(active_tape().ops):
        g = op.output.grad
        if g is None:
            continue
        grads = op.backward_fn(g)
        for t, gi in zip(op.inputs, grads):
            if gi is None or not t.requires_grad:
                continue
            if t.grad is None:
                t.grad = np.zeros(t.shape)
            t.grad += gi


@dataclass
class GradCheckReport:
    max_rel_error: float
    passed: bool


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-4, tol: float = 1e-4) -> GradCheckReport:
    """Compare autodiff gradients of scalar-valued f against central differences.

    Relative error per coordinate uses denominator max(|analytic|, |fd|, 1e-8).
    f must be deterministic; x must require gradients.
    """
    x.grad = None
    reset_tape()
    y = f(x)
    backward(y)
    analytic = (x.grad if x.grad is not None else np.zeros(x.shape)).reshape(-1).copy()
    flat = x.data.reshape(-1)
    max_rel = 0.0
    for i in range(flat.size):
        v = flat[i]
        flat[i] = v + h
        reset_tape()
        with no_grad():
            fp = f(x).item()
        flat[i] = v - h
        reset_tape()
        with no_grad():
            fm = f(x).item()
        flat[i] = v
        fd = (fp - fm) / (2.0 * h)
        rel = abs(analytic[i] - fd) / max(abs(analytic[i]), abs(fd), 1e-8)
        max_rel = max(max_rel, rel)
    reset_tape()
    return GradCheckReport(max_rel_error=max_rel, passed=max_rel <= tol)
