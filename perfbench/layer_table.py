"""Isolated per-layer timings at the default model's real shapes.

Each conv layer of the default `mixed` model is called through
`layers.conv2d` on random inputs of the shape it sees in training (batch 12,
64 px images). Backward time is the recorded op's own backward rule, called
on a random output gradient, so no other op's backward is included. Eval
forward runs at batch 128 without recording, as `metrics.predict_probs` does.
FLOP and im2col sizes are computed from the shapes, not measured.
"""

from __future__ import annotations

import time

import numpy as np

from m2dan import layers, model as model_mod, tensor
from spans import percentile

TRAIN_BATCH = 12
EVAL_BATCH = 128
IMAGE_SIZE = 64


def _p50_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * percentile(sorted(times), 50.0)


def _recorded_backward(make_output):
    """Record one op on a fresh tape and return (its backward rule, output)."""
    tensor.reset_tape()
    out = make_output()
    op = tensor.active_tape().ops[-1]
    if op.output is not out:
        raise RuntimeError("expected the layer's op to be the last one recorded")
    return op.backward_fn, out


def conv_shapes(m) -> list[tuple[str, int, int, int, int]]:
    """(name, cin, cout, kernel, spatial size) for every conv in the model."""
    shapes, size, cin = [], IMAGE_SIZE, m.arch.in_channels
    for i, cout in enumerate(m.arch.channels):
        shapes.append((f"gf.block{i + 1}", cin, cout, m.arch.kernel, size))
        cin, size = cout, size // 2
    for bi, k in enumerate(m.scale.kernel_sizes):
        shapes.append((f"gm.branch{bi}", cin, m.scale.branch_channels, k, size))
    return shapes


def measure(seed: int, reps: int, eval_reps: int) -> dict[str, tuple[float, str]]:
    """Return {metric name: (value, unit)} for the isolated layer table."""
    rng = np.random.default_rng([seed, 5])
    m = model_mod.build_model(model_mod.SCALE_VARIANTS["mixed"], model_mod.ExtractorArch(),
                              3, seed=seed)
    p = m.params
    out: dict[str, tuple[float, str]] = {}
    relu_ms = pool_ms = 0.0
    for name, cin, cout, k, size in conv_shapes(m):
        w, b = p[f"{name}.weight"], p[f"{name}.bias"]
        first = name == "gf.block1"  # images do not require gradients
        x = tensor.Tensor(rng.normal(size=(TRAIN_BATCH, cin, size, size)),
                          requires_grad=not first)
        key = f"layers.conv2d.{name}"

        def fwd():
            tensor.reset_tape()
            layers.conv2d(x, w, b)

        out[f"{key}.fwd_ms"] = (_p50_ms(fwd, reps), "ms")
        back, y = _recorded_backward(lambda: layers.conv2d(x, w, b))
        g = rng.normal(size=y.shape)
        out[f"{key}.bwd_ms"] = (_p50_ms(lambda: back(g), reps), "ms")

        xe = tensor.Tensor(rng.normal(size=(EVAL_BATCH, cin, size, size)))

        def eval_fwd():
            with tensor.no_grad():
                layers.conv2d(xe, w, b)

        out[f"{key}.eval_fwd_ms"] = (_p50_ms(eval_fwd, eval_reps), "ms")
        rows = TRAIN_BATCH * size * size
        out[f"{key}.mflop"] = (2.0 * rows * cout * cin * k * k / 1e6, "mflop_computed")
        out[f"{key}.im2col_mb"] = (8.0 * rows * cin * k * k / 1e6, "MB_computed")

        # every conv output goes through relu; the extractor's then through avg_pool2
        pre = tensor.Tensor(rng.normal(size=y.shape), requires_grad=True)
        back, r = _recorded_backward(lambda: tensor.relu(pre))
        gr = rng.normal(size=r.shape)
        relu_ms += _p50_ms(lambda: back(gr), reps)
        if name.startswith("gf."):
            back, pooled = _recorded_backward(lambda: layers.avg_pool2(pre))
            gp = rng.normal(size=pooled.shape)
            pool_ms += _p50_ms(lambda: back(gp), reps)
    out["layers.avg_pool2.bwd_ms"] = (pool_ms, "ms")
    out["tensor.relu.bwd_ms"] = (relu_ms, "ms")

    branches = len(m.scale.kernel_sizes)
    feat = m.scale.branch_channels
    # gy reads the concatenated branch features once; gd reads each branch's
    for head, din, applications in (("gy", feat * branches, 1), ("gd", feat, branches)):
        total = 0.0
        h = tensor.Tensor(rng.normal(size=(TRAIN_BATCH, din)), requires_grad=True)
        for fc in ("fc1", "fc2", "fc3"):
            w, b = p[f"{head}.{fc}.weight"], p[f"{head}.{fc}.bias"]
            back, y = _recorded_backward(lambda: layers.linear(h, w, b))
            g = rng.normal(size=y.shape)
            total += _p50_ms(lambda: back(g), reps)
            h = tensor.Tensor(y.data, requires_grad=True)
        out[f"layers.linear.{head}.bwd_ms"] = (applications * total, "ms")
    tensor.reset_tape()
    return out
