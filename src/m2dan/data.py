"""Synthetic multi-domain benchmark, batching, and PGM dataset IO.

Each image shows a wedge: two anti-aliased rays (about 2 px thick) leaving an
apex near the image's center-left. The class is the opening angle between the
rays: "narrow" draws from [5, 15] degrees, "open" from [25, 55]. Domains
differ only in their corruption pipeline, applied in a fixed order: contrast
scaling, box blur passes, resolution degradation (average downsample +
nearest upsample), additive Gaussian noise, salt-and-pepper. Final images are
quantized to the 1/255 grid so the 8-bit PGM export round-trips bit-exactly.

Every sample's randomness derives from (seed, sample index), so generation is
order-independent and bit-reproducible.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    EmptyClassDir,
    IndivisibleBatch,
    InvalidSpec,
    MalformedPgm,
    MissingSource,
)
from .tensor import Tensor

NARROW, OPEN = 0, 1  # class indices; "narrow" is the positive class
CLASS_NAMES = ("narrow", "open")

NARROW_ANGLE_DEG = (5.0, 15.0)
OPEN_ANGLE_DEG = (25.0, 55.0)
FILL_RANGE = (0.12, 0.22)  # per-image wedge interior intensity (uniform)


@dataclass(frozen=True)
class DomainSpec:
    """One domain: sample counts, class imbalance, and corruption strengths."""

    name: str
    n_train: int
    n_test: int
    narrow_frac: float
    contrast: float = 1.0  # multiplicative intensity gain (< 1 darkens)
    blur_radius: int = 0  # number of 3x3 box blur passes
    resolution_scale: float = 1.0
    noise_std: float = 0.0
    salt_pepper_frac: float = 0.0

    def __post_init__(self):
        if self.n_train < 0 or self.n_test < 0:
            raise InvalidSpec(f"{self.name}: negative sample count")
        if not 0.0 < self.narrow_frac < 1.0:
            raise InvalidSpec(f"{self.name}: narrow_frac must be in (0, 1)")
        if self.contrast <= 0.0:
            raise InvalidSpec(f"{self.name}: contrast must be > 0")
        if self.blur_radius < 0:
            raise InvalidSpec(f"{self.name}: blur_radius must be >= 0")
        if not 0.0 < self.resolution_scale <= 1.0:
            raise InvalidSpec(f"{self.name}: resolution_scale must be in (0, 1]")
        if self.noise_std < 0.0 or not 0.0 <= self.salt_pepper_frac < 1.0:
            raise InvalidSpec(f"{self.name}: bad noise settings")


@dataclass
class DomainSample:
    """One image with its labels. class_label is None exactly when the sample
    belongs to a target domain's train split (unlabeled for training)."""

    image: np.ndarray  # [1, H, W] float64 in [0, 1], on the 1/255 grid
    domain_index: int
    domain_label: np.ndarray  # one-hot over all domains
    class_label: np.ndarray | None  # one-hot over {narrow, open} or None


@dataclass
class DomainDataset:
    name: str
    train: list[DomainSample]
    test: list[DomainSample]


@dataclass
class Benchmark:
    """All domains; index 0 is always the labeled source."""

    domains: list[DomainDataset]

    @property
    def num_domains(self) -> int:
        return len(self.domains)

    @property
    def names(self) -> list[str]:
        return [d.name for d in self.domains]


# ---------------------------------------------------------------- rendering


def _render_wedge(rng: np.random.Generator, size: int, narrow: bool) -> np.ndarray:
    lo, hi = NARROW_ANGLE_DEG if narrow else OPEN_ANGLE_DEG
    opening = math.radians(rng.uniform(lo, hi))
    bisector = math.radians(rng.uniform(-12.0, 12.0))
    apex_x = 0.28 * size + rng.uniform(-2.0, 2.0)
    apex_y = 0.50 * size + rng.uniform(-3.0, 3.0)
    fg = rng.uniform(0.85, 1.0)
    bg = 0.05
    # wedge interior: a solid region whose area grows with the opening angle;
    # its intensity varies per image so absolute brightness carries no class
    # information and the silhouette is what identifies the class
    fill = rng.uniform(*FILL_RANGE)
    length = 1.5 * size  # rays always reach the border

    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    px, py = xs - apex_x, ys - apex_y
    # interior of the wedge: points whose direction from the apex lies
    # between the two rays
    diff = np.arctan2(py, px) - bisector
    diff = np.mod(diff + math.pi, 2.0 * math.pi) - math.pi
    img = np.where(np.abs(diff) <= opening / 2.0, fill, bg)
    for sign in (-1.0, 1.0):
        ang = bisector + sign * opening / 2.0
        dx, dy = math.cos(ang), math.sin(ang)
        t = np.clip(px * dx + py * dy, 0.0, length)
        dist = np.hypot(px - t * dx, py - t * dy)
        cover = np.clip(1.5 - dist, 0.0, 1.0)  # ~2 px thick, 1 px soft edge
        img = np.maximum(img, bg + (fg - bg) * cover)
    return img


def _box_blur3(img: np.ndarray) -> np.ndarray:
    padded = np.pad(img, 1, mode="edge")
    out = np.zeros_like(img)
    for di in range(3):
        for dj in range(3):
            out += padded[di : di + img.shape[0], dj : dj + img.shape[1]]
    return out / 9.0


def _area_downsample_axis(img: np.ndarray, new_len: int, axis: int) -> np.ndarray:
    old_len = img.shape[axis]
    bounds = (np.arange(new_len + 1) * old_len) // new_len
    moved = np.moveaxis(img, axis, 0)
    out = np.add.reduceat(moved, bounds[:-1], axis=0)
    out /= (bounds[1:] - bounds[:-1]).reshape([-1] + [1] * (moved.ndim - 1))
    return np.moveaxis(out, 0, axis)


def _nearest_upsample_axis(img: np.ndarray, new_len: int, axis: int) -> np.ndarray:
    old_len = img.shape[axis]
    idx = (np.arange(new_len) * old_len) // new_len
    return np.take(img, idx, axis=axis)


def resize_image(img: np.ndarray, height: int, width: int) -> np.ndarray:
    """Deterministic resize: area averaging when shrinking an axis, nearest
    neighbour when enlarging. Identity when sizes already match."""
    out = img
    for axis, target in ((0, height), (1, width)):
        if out.shape[axis] > target:
            out = _area_downsample_axis(out, target, axis)
        elif out.shape[axis] < target:
            out = _nearest_upsample_axis(out, target, axis)
    return out


def _degrade_resolution(img: np.ndarray, scale: float) -> np.ndarray:
    size_h = max(1, round(img.shape[0] * scale))
    size_w = max(1, round(img.shape[1] * scale))
    small = _area_downsample_axis(_area_downsample_axis(img, size_h, 0), size_w, 1)
    return _nearest_upsample_axis(_nearest_upsample_axis(small, img.shape[0], 0), img.shape[1], 1)


def _apply_domain_shift(img: np.ndarray, spec: DomainSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.contrast != 1.0:
        img = np.clip(spec.contrast * img, 0.0, 1.0)
    for _ in range(spec.blur_radius):
        img = _box_blur3(img)
    if spec.resolution_scale < 1.0:
        img = _degrade_resolution(img, spec.resolution_scale)
    if spec.noise_std > 0.0:
        img = np.clip(img + rng.normal(0.0, spec.noise_std, img.shape), 0.0, 1.0)
    if spec.salt_pepper_frac > 0.0:
        hit = rng.random(img.shape) < spec.salt_pepper_frac
        salt = rng.random(img.shape) < 0.5
        img = np.where(hit, np.where(salt, 1.0, 0.0), img)
    return np.round(img * 255.0) / 255.0


def narrow_count(narrow_frac: float, n: int) -> int:
    """Exact class split: round, then keep both classes non-empty."""
    return min(max(int(round(narrow_frac * n)), 1), n - 1) if n >= 2 else n


def _render_split(spec: DomainSpec, image_size: int, seed: int, first: int, n: int,
                  narrow_frac: float, domain_index: int, num_domains: int,
                  labeled: bool) -> list[DomainSample]:
    """Render samples first .. first + n - 1 of one domain; sample i draws all
    of its randomness from default_rng([seed, i]) and the first
    narrow_count(narrow_frac, n) of them are narrow."""
    domain_label = np.zeros(num_domains)
    domain_label[domain_index] = 1.0
    n_narrow = narrow_count(narrow_frac, n)
    out = []
    for i in range(n):
        rng = np.random.default_rng([seed, first + i])
        is_narrow = i < n_narrow
        img = _render_wedge(rng, image_size, is_narrow)
        img = _apply_domain_shift(img, spec, rng)
        label = None
        if labeled:
            label = np.zeros(2)
            label[NARROW if is_narrow else OPEN] = 1.0
        out.append(
            DomainSample(
                image=img[None, :, :],
                domain_index=domain_index,
                domain_label=domain_label.copy(),
                class_label=label,
            )
        )
    return out


def gen_synthetic_domain(spec: DomainSpec, image_size: int, seed: int, *,
                         domain_index: int = 0, num_domains: int = 1,
                         labeled_train: bool = True) -> DomainDataset:
    """Generate one domain's train and test splits.

    Sample i (train indices first, then test) draws all of its randomness
    from default_rng([seed, i]); class counts follow narrow_frac exactly.
    """
    train = _render_split(spec, image_size, seed, 0, spec.n_train, spec.narrow_frac,
                          domain_index, num_domains, labeled_train)
    test = _render_split(spec, image_size, seed, spec.n_train, spec.n_test,
                         spec.narrow_frac, domain_index, num_domains, True)
    return DomainDataset(name=spec.name, train=train, test=test)


# ---------------------------------------------------------------- benchmark

# (narrow, total) per split, at full scale; the default benchmark uses 1/6
_FULL_COUNTS = {
    "source": ((3006, 9030), (790, 2202)),
    "target1": ((62, 526), (64, 526)),
    "target2": ((416, 1822), (418, 1824)),
}

_SHIFTS = {
    # source: clean rendering
    "source": dict(),
    # target1: heavy salt-and-pepper plus low resolution
    "target1": dict(salt_pepper_frac=0.35, resolution_scale=0.4),
    # target2: blur plus contrast shift
    "target2": dict(blur_radius=2, contrast=0.75),
}

DEFAULT_FRACTION = 1.0 / 6.0


def benchmark_domain_specs(scale_fraction: float = DEFAULT_FRACTION) -> list[DomainSpec]:
    if not 0.0 < scale_fraction <= 1.0:
        raise InvalidSpec(f"scale_fraction must be in (0, 1], got {scale_fraction}")
    specs = []
    for name in ("source", "target1", "target2"):
        (tr_narrow, tr_total), (te_narrow, te_total) = _FULL_COUNTS[name]
        n_train = max(2, round(tr_total * scale_fraction))
        n_test = max(2, round(te_total * scale_fraction))
        specs.append(
            DomainSpec(
                name=name,
                n_train=n_train,
                n_test=n_test,
                narrow_frac=tr_narrow / tr_total,
                **_SHIFTS[name],
            )
        )
    return specs


def make_benchmark(seed: int, scale_fraction: float = DEFAULT_FRACTION,
                   image_size: int = 64) -> Benchmark:
    """Three-domain synthetic benchmark; the default fraction reproduces the
    fixed counts 1505/88/304 train and 367/88/304 test."""
    specs = benchmark_domain_specs(scale_fraction)
    domains = []
    for idx, spec in enumerate(specs):
        (_, _), (te_narrow, te_total) = _FULL_COUNTS[spec.name]
        domain_seed = seed + idx * 1_000_003
        train = _render_split(spec, image_size, domain_seed, 0, spec.n_train,
                              spec.narrow_frac, idx, len(specs), idx == 0)
        # the test split's class ratio comes from the test-side counts, which
        # differ slightly from the train ratio in every domain
        test = _render_split(spec, image_size, domain_seed, spec.n_train, spec.n_test,
                             te_narrow / te_total, idx, len(specs), True)
        domains.append(DomainDataset(name=spec.name, train=train, test=test))
    return Benchmark(domains=domains)


# ---------------------------------------------------------------- batching


@dataclass
class DomainBatch:
    """Equal per-domain slice of samples, stacked for the forward pass."""

    images: Tensor  # [N, 1, H, W]
    domain_labels: np.ndarray  # [N, num_domains] one-hot
    source_rows: np.ndarray  # row indices of source samples
    class_labels: np.ndarray  # [n_source, 2] one-hot for the source rows


class _DomainStream:
    """Endless per-domain index stream; reshuffles whenever exhausted."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self.order = rng.permutation(n)
        self.pos = 0

    def take(self, k: int) -> np.ndarray:
        out = []
        while k > 0:
            if self.pos == self.n:
                self.order = self.rng.permutation(self.n)
                self.pos = 0
            grab = min(k, self.n - self.pos)
            out.append(self.order[self.pos : self.pos + grab])
            self.pos += grab
            k -= grab
        return np.concatenate(out)


def epoch_batches(benchmark: Benchmark, batch_size: int, seed: int,
                  epoch: int, domains: Sequence[int] | None = None) -> Iterator[DomainBatch]:
    """One epoch of equally mixed batches, deterministic in (seed, epoch).

    Each batch holds batch_size / len(domains) samples per domain; the epoch
    ends when the largest participating domain is exhausted.
    """
    idxs = list(domains) if domains is not None else list(range(benchmark.num_domains))
    if batch_size % len(idxs) != 0:
        raise IndivisibleBatch(
            f"batch_size {batch_size} is not divisible by {len(idxs)} domains"
        )
    per = batch_size // len(idxs)
    rng = np.random.default_rng([seed, epoch])
    streams = {d: _DomainStream(len(benchmark.domains[d].train), rng) for d in idxs}
    largest = max(len(benchmark.domains[d].train) for d in idxs)
    for _ in range(largest // per):
        images, dom_rows, cls_rows, src_rows = [], [], [], []
        row = 0
        for d in idxs:
            train = benchmark.domains[d].train
            for i in streams[d].take(per):
                s = train[i]
                images.append(s.image)
                dom_rows.append(s.domain_label)
                if s.class_label is not None and s.domain_index == 0:
                    src_rows.append(row)
                    cls_rows.append(s.class_label)
                row += 1
        yield DomainBatch(
            images=Tensor(np.stack(images)),
            domain_labels=np.stack(dom_rows),
            source_rows=np.asarray(src_rows, dtype=np.int64),
            class_labels=np.stack(cls_rows) if cls_rows else np.zeros((0, 2)),
        )


# ---------------------------------------------------------------- PGM IO

HALF_MODES = ("none", "left", "right", "both")  # crop applied to loaded PGMs


def write_pgm(path: Path, image: np.ndarray) -> None:
    """8-bit binary PGM from a [H, W] float image in [0, 1]."""
    h, w = image.shape
    data = np.round(image * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def read_pgm(path: Path) -> np.ndarray:
    """Read an 8-bit binary PGM into [H, W] float64 in [0, 1]."""
    raw = Path(path).read_bytes()
    if raw[:2] == b"P2":
        raise MalformedPgm(f"{path}: ASCII PGM (P2) is not supported, need binary P5")
    if raw[:2] != b"P5":
        raise MalformedPgm(f"{path}: not a PGM file")
    # header: magic, width, height, maxval; '#' comments allowed between tokens
    pos, fields = 2, []
    while len(fields) < 3:
        m = re.match(rb"(?:\s+(?:#[^\n]*\n)?)*(\d+)", raw[pos:])
        if not m:
            raise MalformedPgm(f"{path}: truncated header")
        fields.append(int(m.group(1)))
        pos += m.end()
    w, h, maxval = fields
    if not 0 < maxval < 256:
        raise MalformedPgm(f"{path}: maxval {maxval} is not 8-bit")
    pos += 1  # single whitespace byte after maxval
    pixels = np.frombuffer(raw[pos : pos + w * h], dtype=np.uint8)
    if pixels.size != w * h:
        raise MalformedPgm(f"{path}: expected {w * h} pixels, got {pixels.size}")
    return pixels.reshape(h, w).astype(np.float64) / float(maxval)


def export_dataset(benchmark: Benchmark, root: Path) -> None:
    """Write root/<domain>/{train,test}/{narrow,open,unlabeled}/*.pgm."""
    root = Path(root)
    for dataset in benchmark.domains:
        for split_name, samples in (("train", dataset.train), ("test", dataset.test)):
            counters = {}
            for s in samples:
                if s.class_label is None:
                    sub = "unlabeled"
                else:
                    sub = CLASS_NAMES[int(np.argmax(s.class_label))]
                d = root / dataset.name / split_name / sub
                d.mkdir(parents=True, exist_ok=True)
                n = counters.get(sub, 0)
                counters[sub] = n + 1
                write_pgm(d / f"img_{n:05d}.pgm", s.image[0])


def load_dataset_dir(root: Path, half: str = "none", image_size: int = 64) -> Benchmark:
    """Load a PGM tree written by export_dataset (or hand-assembled).

    Domains are ordered 'source' first, the rest lexicographically. half
    crops each image to its left / right half (or both halves as separate
    samples) before resizing to image_size x image_size.
    """
    if half not in HALF_MODES:
        raise InvalidSpec(f"half must be none/left/right/both, got {half!r}")
    root = Path(root)
    names = sorted(p.name for p in root.iterdir() if p.is_dir())
    if "source" not in names:
        raise MissingSource(f"{root}: no 'source' domain directory")
    names.remove("source")
    names.insert(0, "source")
    num_domains = len(names)

    def crops(img: np.ndarray) -> list[np.ndarray]:
        w = img.shape[1]
        if half == "none":
            parts = [img]
        elif half == "left":
            parts = [img[:, : w // 2]]
        elif half == "right":
            parts = [img[:, w // 2 :]]
        else:
            parts = [img[:, : w // 2], img[:, w // 2 :]]
        return [resize_image(p, image_size, image_size) for p in parts]

    def load_split(domain_idx: int, split_dir: Path, labeled_required: bool) -> list[DomainSample]:
        domain_label = np.zeros(num_domains)
        domain_label[domain_idx] = 1.0
        samples: list[DomainSample] = []
        class_dirs = [split_dir / c for c in CLASS_NAMES]
        has_labels = any(d.is_dir() for d in class_dirs)
        if has_labels or labeled_required:
            for ci, cdir in enumerate(class_dirs):
                files = sorted(cdir.glob("*.pgm")) if cdir.is_dir() else []
                if not files:
                    raise EmptyClassDir(f"{cdir}: labeled split has no '{CLASS_NAMES[ci]}' samples")
                label = np.zeros(2)
                label[ci] = 1.0
                for f in files:
                    for img in crops(read_pgm(f)):
                        samples.append(
                            DomainSample(img[None], domain_idx, domain_label.copy(), label.copy())
                        )
        else:
            udir = split_dir / "unlabeled"
            files = sorted(udir.glob("*.pgm")) if udir.is_dir() else []
            if not files:
                raise EmptyClassDir(f"{split_dir}: no class dirs and no unlabeled samples")
            for f in files:
                for img in crops(read_pgm(f)):
                    samples.append(DomainSample(img[None], domain_idx, domain_label.copy(), None))
        return samples

    domains = []
    for idx, name in enumerate(names):
        base = root / name
        train = load_split(idx, base / "train", labeled_required=(idx == 0))
        test = load_split(idx, base / "test", labeled_required=True)
        domains.append(DomainDataset(name=name, train=train, test=test))
    return Benchmark(domains=domains)
