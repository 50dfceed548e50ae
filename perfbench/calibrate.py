"""A fixed numpy kernel that measures how fast this machine is right now.

The benchmark's host shares cores and caches with other tenants, so the same
work can take 20% longer from one minute to the next. Timing this kernel
next to each measured operation and dividing gives a cost that cancels most
of that drift. The kernel uses none of m2dan's code, so a change to the
program cannot move it, and it mixes what the program spends its time on:
an im2col gather with a GEMM (convolution) and many small-array
elementwise ops on 64 x 64 images (rendering, Python-level dispatch).
"""

from __future__ import annotations

import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class Calibrator:
    """`sample()` times one kernel run in seconds (about 5 ms)."""

    def __init__(self):
        rng = np.random.default_rng(20220826)
        self.x = rng.normal(size=(12, 6, 34, 34))
        self.w = rng.normal(size=(54, 12))
        ys, xs = np.mgrid[0:64, 0:64].astype(np.float64)
        self.px, self.py = xs - 18.0, ys - 32.0

    def _conv(self) -> None:
        patches = sliding_window_view(self.x, (3, 3), axis=(2, 3))
        cols = np.ascontiguousarray(patches.transpose(0, 2, 3, 4, 5, 1)).reshape(-1, 54)
        y = np.maximum(cols @ self.w, 0.0)
        cols.T @ y

    def _render(self) -> None:
        for i in range(4):
            ang = 0.1 * i
            diff = np.mod(np.arctan2(self.py, self.px) - ang + np.pi, 2.0 * np.pi) - np.pi
            img = np.where(np.abs(diff) <= 0.3, 0.2, 0.05)
            t = np.clip(self.px * np.cos(ang) + self.py * np.sin(ang), 0.0, 96.0)
            dist = np.hypot(self.px - t * np.cos(ang), self.py - t * np.sin(ang))
            np.maximum(img, 0.05 + 0.9 * np.clip(1.5 - dist, 0.0, 1.0))

    def sample(self) -> float:
        t0 = time.perf_counter()
        self._conv()
        self._render()
        return time.perf_counter() - t0
