"""Neural network layers as recorded tensor ops, plus parameter handling.

Convolution is cross-correlation (no kernel flip) with zero padding that
preserves spatial size, restricted to odd square kernels, and stays NCHW
throughout. It unrolls only one kernel dimension (MEC, Cho & Brand 2017,
arXiv 1706.06873): `_row_taps` copies the k horizontal taps of the
zero-padded image into a [C*k, (H+2p)*W] matrix per image, where column
r*W + c is padded row r at output column c. Vertical tap i is then the
column slice [i*W, i*W + H*W) of that matrix, a strided view that BLAS reads
in place, so the forward is one GEMM per vertical tap, summed. The weight
gradient of tap i is that slice's GEMM against the output gradient. The
input gradient is a convolution too: a same-padded stride-1 convolution's
input gradient is the output gradient convolved with the flipped kernel, in
and out channels swapped, so it runs through the same tap GEMMs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidShape, InvalidSpec, ShapeMismatch, UnsupportedKernel
from .tensor import Tensor, record

PARAM_GROUPS = ("gf", "gm", "gy", "gd")


# the tap GEMMs accumulate this many output values at a time (128 KB of
# float64), so each tap's product is added while it is still in cache
_BLOCK_VALUES = 16384


def _row_taps(x: np.ndarray, k: int) -> np.ndarray:
    """The k horizontal taps of [N, C, H, W], zero-padded by p = (k-1)//2, as
    [N, C*k, (H+2p)*W]: rows in (C, j) order, column r*W + c is padded row r
    at output column c, i.e. x[r - p, c + j - p] or 0 outside the image."""
    n, c, h, w = x.shape
    if k == 1:  # the only tap is the pixel itself: no padding, no copy
        return x.reshape(n, c, h * w)
    p = (k - 1) // 2
    taps = np.zeros((n, c, k, h + 2 * p, w))
    for j in range(k):
        # output columns whose tap j lands inside the image; the rest stay 0
        lo, hi = max(0, p - j), min(w, w + p - j)
        if lo < hi:
            taps[:, :, j, p : p + h, lo:hi] = x[:, :, :, lo + j - p : hi + j - p]
    return taps.reshape(n, c * k, (h + 2 * p) * w)


def _tap_gemms(kernel: np.ndarray, taps: np.ndarray, h: int, w: int) -> np.ndarray:
    """Same-padded cross-correlation of the images behind `taps` (from
    `_row_taps`) with kernel [Cout, Cin, k, k], as [N, Cout, H*W]: the sum over
    vertical taps i of kernel[:, :, i, :] @ taps[:, :, i*W : i*W + H*W]."""
    cout, cin, k, _ = kernel.shape
    n, hw = taps.shape[0], h * w
    rows = [kernel[:, :, i, :].reshape(cout, cin * k) for i in range(k)]
    if k == 1:  # one tap, nothing to accumulate: one GEMM per image
        return rows[0] @ taps
    out = np.empty((n, cout, hw))
    block = max(1, _BLOCK_VALUES // (cout * hw))  # images per accumulation
    tmp = np.empty((min(block, n), cout, hw))
    for a in range(0, n, block):
        acc, t = out[a : a + block], taps[a : a + block]
        np.matmul(rows[0], t[:, :, :hw], out=acc)
        for i in range(1, k):
            prod = tmp[: len(acc)]
            np.matmul(rows[i], t[:, :, i * w : i * w + hw], out=prod)
            acc += prod
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """2-D cross-correlation with same-size zero padding.

    x: [N, Cin, H, W], weight: [Cout, Cin, k, k] with k odd, bias: [Cout].
    """
    if x.data.ndim != 4 or weight.data.ndim != 4 or bias.data.ndim != 1:
        raise ShapeMismatch(
            f"conv2d ranks: input {x.shape}, weight {weight.shape}, bias {bias.shape}"
        )
    n, cin, h, w = x.shape
    cout, wcin, k, k2 = weight.shape
    if k != k2 or k % 2 == 0:
        raise UnsupportedKernel(f"kernel must be odd and square, got {k}x{k2}")
    if wcin != cin:
        raise ShapeMismatch(f"input has {cin} channels, weight expects {wcin}")
    if bias.shape != (cout,):
        raise ShapeMismatch(f"bias shape {bias.shape} does not match {cout} filters")
    taps = _row_taps(x.data, k)
    out = _tap_gemms(weight.data, taps, h, w)  # [N, Cout, H*W]
    out += bias.data[:, None]
    need_x, need_w, need_b = x.requires_grad, weight.requires_grad, bias.requires_grad

    def back(g):
        gm = g.reshape(n, cout, h * w)
        g_bias = gm.sum(axis=(0, 2)) if need_b else None
        g_weight = None
        if need_w:
            g_weight = np.empty((cout, cin, k, k))
            for i in range(k):
                tap = taps[:, :, i * w : i * w + h * w].transpose(0, 2, 1)
                g_weight[:, :, i, :] = (gm @ tap).sum(axis=0).reshape(cout, cin, k)
        if not need_x:
            return None, g_weight, g_bias
        # weight.data is read here, after the forward: sgd_step only updates
        # it in place once backward has finished
        flipped = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)  # [Cin, Cout, k, k]
        g_x = _tap_gemms(flipped, _row_taps(g.reshape(n, cout, h, w), k), h, w)
        return g_x.reshape(n, cin, h, w), g_weight, g_bias

    return record(out.reshape(n, cout, h, w), (x, weight, bias), back)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map: [N, Din] @ [Din, Dout] + [Dout]."""
    if x.data.ndim != 2 or weight.data.ndim != 2 or bias.data.ndim != 1:
        raise ShapeMismatch(
            f"linear ranks: input {x.shape}, weight {weight.shape}, bias {bias.shape}"
        )
    if x.shape[1] != weight.shape[0] or bias.shape != (weight.shape[1],):
        raise ShapeMismatch(
            f"linear shapes: {x.shape} @ {weight.shape} + {bias.shape}"
        )
    xd, wd = x.data, weight.data
    out = xd @ wd + bias.data
    back = lambda g: (g @ wd.T, xd.T @ g, g.sum(axis=0))
    return record(out, (x, weight, bias), back)


def global_avg_pool(x: Tensor) -> Tensor:
    """[N, C, H, W] -> [N, C], mean over the spatial dims."""
    if x.data.ndim != 4:
        raise ShapeMismatch(f"global_avg_pool needs rank 4, got {x.shape}")
    n, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3))
    back = lambda g: (np.broadcast_to(g[:, :, None, None], (n, c, h, w)) / (h * w),)
    return record(out, (x,), back)


def avg_pool2(x: Tensor) -> Tensor:
    """2x2 average downsampling with stride 2; spatial dims must be even."""
    if x.data.ndim != 4:
        raise ShapeMismatch(f"avg_pool2 needs rank 4, got {x.shape}")
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise InvalidShape(f"avg_pool2 needs even spatial dims, got {h}x{w}")
    xd = x.data
    out = 0.25 * (xd[:, :, ::2, ::2] + xd[:, :, ::2, 1::2]
                  + xd[:, :, 1::2, ::2] + xd[:, :, 1::2, 1::2])
    # columns first: the row repeat then copies whole rows
    back = lambda g: ((g * 0.25).repeat(2, axis=3).repeat(2, axis=2),)
    return record(out, (x,), back)


@dataclass(frozen=True)
class GrlCoeff:
    """Gradient-reversal coefficient schedule.

    constant: always alpha. ramp: alpha * min(1, step / ramp_length).
    """

    mode: str = "constant"
    alpha: float = 0.0
    ramp_length: int | None = None

    def __post_init__(self):
        if self.mode not in ("constant", "ramp"):
            raise InvalidSpec(f"unknown GRL mode {self.mode!r}")
        if self.alpha < 0:
            raise InvalidSpec(f"GRL alpha must be >= 0, got {self.alpha}")
        if self.mode == "ramp" and (self.ramp_length is None or self.ramp_length < 1):
            raise InvalidSpec("ramp mode needs a positive ramp_length")

    def value_at(self, step: int) -> float:
        if self.mode == "constant":
            return self.alpha
        return self.alpha * min(1.0, step / self.ramp_length)


def grl(x: Tensor, coeff: GrlCoeff, step: int = 0) -> Tensor:
    """Gradient reversal: identity forward, -c * upstream gradient backward."""
    c = coeff.value_at(step)
    return record(x.data, (x,), lambda g: (-c * g,))


class ParamSet:
    """Named parameter map. Paths are unique, iterate lexicographically, and
    each belongs to exactly one of the groups gf / gm / gy / gd."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, path: str, param: Tensor) -> None:
        group = path.split(".", 1)[0]
        if group not in PARAM_GROUPS:
            raise InvalidSpec(f"parameter path {path!r} is not under {PARAM_GROUPS}")
        if path in self._params:
            raise InvalidSpec(f"duplicate parameter path {path!r}")
        if not param.requires_grad:
            raise InvalidSpec(f"parameter {path!r} must require gradients")
        self._params[path] = param

    def __getitem__(self, path: str) -> Tensor:
        return self._params[path]

    def __len__(self) -> int:
        return len(self._params)

    def paths(self) -> list[str]:
        return sorted(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        for path in sorted(self._params):
            yield path, self._params[path]

    def group(self, name: str) -> list[tuple[str, Tensor]]:
        if name not in PARAM_GROUPS:
            raise InvalidSpec(f"unknown parameter group {name!r}")
        prefix = name + "."
        return [(p, t) for p, t in self.items() if p.startswith(prefix)]

    def total_size(self) -> int:
        return sum(t.size for _, t in self.items())


@dataclass(frozen=True)
class LayerDef:
    """One parameterized layer: a conv (in/out channels + odd kernel) or a
    linear (in/out width). ``path`` prefixes the .weight / .bias entries."""

    path: str
    kind: str
    in_dim: int
    out_dim: int
    kernel: int = 0

    def __post_init__(self):
        if self.kind not in ("conv", "linear"):
            raise InvalidSpec(f"unknown layer kind {self.kind!r}")
        if self.in_dim < 1 or self.out_dim < 1:
            raise InvalidSpec(f"layer {self.path!r} has non-positive dims")
        if self.kind == "conv" and (self.kernel < 1 or self.kernel % 2 == 0):
            raise InvalidSpec(f"layer {self.path!r} needs an odd kernel, got {self.kernel}")


def init_params(layer_defs: Sequence[LayerDef], seed: int) -> ParamSet:
    """He-normal weights (std = sqrt(2 / fan_in)), zero biases.

    A pure function of (layer_defs, seed): draws happen in lexicographic path
    order from one seeded generator.
    """
    paths = [d.path for d in layer_defs]
    if len(set(paths)) != len(paths):
        raise InvalidSpec("duplicate layer paths")
    rng = np.random.default_rng(seed)
    params = ParamSet()
    for d in sorted(layer_defs, key=lambda d: d.path):
        if d.kind == "conv":
            fan_in = d.in_dim * d.kernel * d.kernel
            w_shape = (d.out_dim, d.in_dim, d.kernel, d.kernel)
        else:
            fan_in = d.in_dim
            w_shape = (d.in_dim, d.out_dim)
        std = np.sqrt(2.0 / fan_in)
        params.add(d.path + ".weight", Tensor(rng.normal(0.0, std, w_shape), requires_grad=True))
        params.add(d.path + ".bias", Tensor(np.zeros(d.out_dim), requires_grad=True))
    return params
