"""Synthetic multi-domain benchmark, batching, and PGM dataset IO.

Each image shows a wedge: two anti-aliased rays (about 2 px thick) leaving an
apex near the image's center-left. The class is the opening angle between the
rays: "narrow" draws from [5, 15] degrees, "open" from [25, 55]. Domains
differ only in their corruption pipeline, applied in a fixed order: contrast
scaling, box blur passes, resolution degradation (average downsample +
nearest upsample), additive Gaussian noise, salt-and-pepper. Final images are
quantized to the 1/255 grid so the 8-bit PGM export round-trips bit-exactly.

Every sample's randomness derives from (seed, sample index), so generation is
order-independent and bit-reproducible. Sample i of a domain draws from its own
default_rng([seed, i]), in this order: the opening angle, the bisector, the
apex x and y, the ray intensity and the interior fill, then its noise array,
then its salt-and-pepper hit and salt arrays.

Images are rendered in blocks of B = max(1, _RENDER_BLOCK_VALUES // (H * W))
over [B, H, W] arrays (3 images at 64 px), with each image's scalars as a
[B, 1, 1] column and scratch arrays made once per generation call. A block
gives the same bytes as rendering its images one at a time (the tests pin
them by sha256 and compare them with a one-image reference renderer):
elementwise ufuncs round each element alone, arctan2 and hypot run on
contiguous arrays as before, and each ray's cos and sin come from `math` per
image. Three shortcuts are exact as well:
- the pixel grid is built once per image size;
- the direction from the apex is not wrapped into [-pi, pi): with
  |bisector| <= 12 degrees the wrap moves only values whose magnitude stays
  above pi - 0.21, far outside any half opening (<= 27.5 degrees), and the
  others go through the same +pi, -pi round trip;
- a ray's distance (np.hypot) is computed only where the pixel's distance to
  the ray's line, |py dx - px dy|, is below 2: elsewhere the distance is at
  least 1.5, so the ray covers nothing and the pixel, never below the
  background, keeps its value.

Each domain split is a `Split`: an image array [N, 1, H, W] plus one-hot class
labels [N, 2], or None when the split is unlabeled (a target domain's train
split). A row's domain is the position of its split's domain in
`Benchmark.domains`; batching and evaluation index straight into the arrays.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    EmptyClassDir,
    EmptyInput,
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


class Sample(NamedTuple):
    """One row of a Split, as views into its arrays."""

    image: np.ndarray  # [1, H, W]
    class_label: np.ndarray | None  # one-hot over {narrow, open}, or None


@dataclass
class Split:
    """One domain's train or test split. class_labels is None exactly when
    the split is unlabeled: a target domain's train split."""

    images: np.ndarray  # [N, 1, H, W] float64 in [0, 1], on the 1/255 grid
    class_labels: np.ndarray | None  # [N, 2] one-hot over {narrow, open}

    def __len__(self) -> int:
        return self.images.shape[0]

    def __getitem__(self, i: int) -> Sample:
        labels = self.class_labels
        return Sample(self.images[i], None if labels is None else labels[i])


@dataclass
class DomainDataset:
    name: str
    train: Split
    test: Split


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


# values in one [B, H, W] scratch array: 96 KiB of float64, under glibc's
# 128 KiB mmap threshold, so the scratch lives on the heap and rendering
# neither faults in fresh pages nor moves the threshold (3 images at 64 px)
_RENDER_BLOCK_VALUES = 12288


class _Canvas:
    """The pixel grid and the scratch arrays for rendering blocks of
    image_size x image_size images, made once per generation call."""

    def __init__(self, image_size: int):
        self.size = image_size
        self.block = max(1, _RENDER_BLOCK_VALUES // image_size**2)
        self.ys, self.xs = np.mgrid[0:image_size, 0:image_size].astype(np.float64)
        shape = (self.block, image_size, image_size)
        self.px, self.py, self.img, self.t, self.tmp = (np.empty(shape) for _ in range(5))
        self.padded = np.empty((self.block, image_size + 2, image_size + 2))


def _render_block(canvas: _Canvas, spec: DomainSpec, seed: int, first: int,
                  narrow: Sequence[bool], out: np.ndarray) -> None:
    """Render samples first .. first + b - 1 of one domain into out [b, H, W];
    sample first + i draws from default_rng([seed, first + i]) and is narrow
    when narrow[i] is true."""
    b, size = len(narrow), canvas.size
    bg = 0.05
    length = 1.5 * size  # rays always reach the border
    rngs, params = [], []
    for i in range(b):
        rng = np.random.default_rng([seed, first + i])
        lo, hi = NARROW_ANGLE_DEG if narrow[i] else OPEN_ANGLE_DEG
        opening = math.radians(rng.uniform(lo, hi))
        bisector = math.radians(rng.uniform(-12.0, 12.0))
        apex_x = 0.28 * size + rng.uniform(-2.0, 2.0)
        apex_y = 0.50 * size + rng.uniform(-3.0, 3.0)
        fg = rng.uniform(0.85, 1.0)
        # wedge interior: a solid region whose area grows with the opening
        # angle; its intensity varies per image so absolute brightness
        # carries no class information and the silhouette is what
        # identifies the class
        fill = rng.uniform(*FILL_RANGE)
        rays = []
        for sign in (-1.0, 1.0):
            ang = bisector + sign * opening / 2.0
            rays += [math.cos(ang), math.sin(ang)]
        rngs.append(rng)
        params.append([opening / 2.0, bisector, apex_x, apex_y, fill, fg - bg, *rays])
    values = np.array(params).T  # one row of b values per parameter
    half, bisector, apex_x, apex_y, fill = values[:5, :, None, None]  # [b, 1, 1] columns
    gain, rays = values[5], values[6:].reshape(2, 2, b)
    px, py, img, t, tmp = canvas.px[:b], canvas.py[:b], canvas.img[:b], canvas.t[:b], canvas.tmp[:b]
    np.subtract(canvas.xs, apex_x, out=px)
    np.subtract(canvas.ys, apex_y, out=py)
    # interior of the wedge: points whose direction from the apex lies within
    # half the opening of the bisector. The angle is not wrapped into
    # [-pi, pi): with |bisector| <= 12 degrees a wrap changes only values
    # whose magnitude stays above pi - 0.21, far outside any half opening
    # (<= 27.5 degrees); the +pi, -pi round trip rounds the others as the
    # wrapped form does
    np.arctan2(py, px, out=tmp)
    tmp -= bisector
    tmp += math.pi
    tmp -= math.pi
    np.abs(tmp, out=tmp)
    img.fill(bg)
    np.copyto(img, fill, where=tmp <= half)
    # each ray's distance to a pixel is at least its distance to the ray's
    # line, |py dx - px dy|; where that is >= 2 the ray's cover is 0 and img
    # (always >= bg) keeps its value, so only the pixels nearer the line go
    # through the exact distance below
    flat, flat_px, flat_py = img.reshape(-1), px.reshape(-1), py.reshape(-1)
    for dx, dy in rays:
        np.multiply(py, dx[:, None, None], out=t)
        np.multiply(px, dy[:, None, None], out=tmp)
        t -= tmp
        np.abs(t, out=t)
        near = np.flatnonzero(t < 2.0)
        x, y, which = flat_px[near], flat_py[near], near // size**2
        ux, uy = dx[which], dy[which]
        along = np.clip(x * ux + y * uy, 0.0, length)
        dist = np.hypot(x - along * ux, y - along * uy)
        cover = np.clip(1.5 - dist, 0.0, 1.0)  # ~2 px thick, 1 px soft edge
        flat[near] = np.maximum(flat[near], bg + gain[which] * cover)

    # domain shift, in a fixed order
    if spec.contrast != 1.0:
        np.multiply(img, spec.contrast, out=img)
        np.clip(img, 0.0, 1.0, out=img)
    for _ in range(spec.blur_radius):  # 3x3 box blur, edge padded, taps summed in row order
        pad = canvas.padded[:b]
        pad[:, 1:-1, 1:-1] = img
        pad[:, 0, 1:-1], pad[:, -1, 1:-1] = img[:, 0], img[:, -1]
        pad[:, :, 0], pad[:, :, -1] = pad[:, :, 1], pad[:, :, -2]
        img[...] = pad[:, :size, :size]
        for di in range(3):
            for dj in range(3):
                if di or dj:
                    img += pad[:, di : di + size, dj : dj + size]
        img /= 9.0
    if spec.resolution_scale < 1.0:  # average downsample, nearest upsample
        small_len = max(1, round(size * spec.resolution_scale))
        small = _area_downsample_axis(_area_downsample_axis(img, small_len, 1), small_len, 2)
        img[...] = _nearest_upsample_axis(_nearest_upsample_axis(small, size, 1), size, 2)
    # per-image draws follow each sample's wedge parameters: the noise
    # array, then the salt-and-pepper hit and salt arrays
    if spec.noise_std > 0.0:
        for i, rng in enumerate(rngs):
            tmp[i] = rng.normal(0.0, spec.noise_std, (size, size))
        img += tmp
        np.clip(img, 0.0, 1.0, out=img)
    if spec.salt_pepper_frac > 0.0:
        for i, rng in enumerate(rngs):
            rng.random(out=tmp[i])
            rng.random(out=t[i])
        # a hit pixel turns white (salt) or black (pepper)
        np.copyto(img, t < 0.5, where=tmp < spec.salt_pepper_frac)
    img *= 255.0
    np.round(img, out=img)
    np.divide(img, 255.0, out=out)


def narrow_count(narrow_frac: float, n: int) -> int:
    """Exact class split: round, then keep both classes non-empty."""
    return min(max(int(round(narrow_frac * n)), 1), n - 1) if n >= 2 else n


def _render_split(spec: DomainSpec, seed: int, first: int, narrow_frac: float,
                  labeled: bool, images: np.ndarray, canvas: _Canvas) -> Split:
    """Render samples first .. first + n - 1 of one domain into images
    ([n, 1, H, W]), canvas.block at a time; sample i draws all of its
    randomness from default_rng([seed, i]) and the first
    narrow_count(narrow_frac, n) of them are narrow."""
    n = images.shape[0]
    n_narrow = narrow_count(narrow_frac, n)
    for start in range(0, n, canvas.block):
        stop = min(n, start + canvas.block)
        _render_block(canvas, spec, seed, first + start,
                      [i < n_narrow for i in range(start, stop)], images[start:stop, 0])
    labels = None
    if labeled:
        labels = np.zeros((n, 2))
        labels[:n_narrow, NARROW] = 1.0
        labels[n_narrow:, OPEN] = 1.0
    return Split(images, labels)


def gen_synthetic_domain(spec: DomainSpec, image_size: int, seed: int, *,
                         labeled_train: bool = True) -> DomainDataset:
    """Generate one domain's train and test splits.

    Sample i (train indices first, then test) draws all of its randomness
    from default_rng([seed, i]); class counts follow narrow_frac exactly.
    """
    canvas = _Canvas(image_size)
    images = np.empty((spec.n_train + spec.n_test, 1, image_size, image_size))
    train = _render_split(spec, seed, 0, spec.narrow_frac, labeled_train,
                          images[: spec.n_train], canvas)
    test = _render_split(spec, seed, spec.n_train, spec.narrow_frac, True,
                         images[spec.n_train :], canvas)
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
    # every split is a view into one array: freeing separate split-sized
    # arrays raises glibc's dynamic mmap threshold, which then keeps later
    # evaluation buffers on the heap and raises the peak RSS
    images = np.empty((sum(s.n_train + s.n_test for s in specs), 1, image_size, image_size))
    canvas = _Canvas(image_size)
    domains, end = [], 0
    for idx, spec in enumerate(specs):
        (_, _), (te_narrow, te_total) = _FULL_COUNTS[spec.name]
        domain_seed = seed + idx * 1_000_003
        start, mid, end = end, end + spec.n_train, end + spec.n_train + spec.n_test
        train = _render_split(spec, domain_seed, 0, spec.narrow_frac, idx == 0,
                              images[start:mid], canvas)
        # the test split's class ratio comes from the test-side counts, which
        # differ slightly from the train ratio in every domain
        test = _render_split(spec, domain_seed, spec.n_train, te_narrow / te_total, True,
                             images[mid:end], canvas)
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
    splits = [benchmark.domains[d].train for d in idxs]
    for d, split in zip(idxs, splits):
        if len(split) == 0:
            raise EmptyInput(f"domain {benchmark.domains[d].name} has an empty train split")
    streams = [_DomainStream(len(split), rng) for split in splits]
    # every batch has the same layout: per rows of each domain, in idxs order;
    # the class loss sees the rows of domain 0 when its train split is labeled
    domain_labels = np.repeat(np.eye(benchmark.num_domains)[idxs], per, axis=0)
    labeled = 0 in idxs and benchmark.domains[0].train.class_labels is not None
    src = idxs.index(0) if labeled else None
    source_rows = np.arange(src * per, (src + 1) * per) if labeled else np.zeros(0, np.int64)
    for _ in range(max(len(split) for split in splits) // per):
        picks = [stream.take(per) for stream in streams]
        yield DomainBatch(
            images=Tensor(np.concatenate([s.images[p] for s, p in zip(splits, picks)])),
            domain_labels=domain_labels,
            source_rows=source_rows,
            class_labels=splits[src].class_labels[picks[src]] if labeled else np.zeros((0, 2)),
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
        for split_name, split in (("train", dataset.train), ("test", dataset.test)):
            counters = {}
            for image, label in split:
                sub = "unlabeled" if label is None else CLASS_NAMES[int(np.argmax(label))]
                d = root / dataset.name / split_name / sub
                d.mkdir(parents=True, exist_ok=True)
                n = counters.get(sub, 0)
                counters[sub] = n + 1
                write_pgm(d / f"img_{n:05d}.pgm", image[0])


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

    def load_split(split_dir: Path, labeled_required: bool) -> Split:
        class_dirs = [split_dir / c for c in CLASS_NAMES]
        labeled = labeled_required or any(d.is_dir() for d in class_dirs)
        files: list[tuple[Path, int | None]] = []
        if labeled:
            for ci, cdir in enumerate(class_dirs):
                found = sorted(cdir.glob("*.pgm")) if cdir.is_dir() else []
                if not found:
                    raise EmptyClassDir(f"{cdir}: labeled split has no '{CLASS_NAMES[ci]}' samples")
                files += [(f, ci) for f in found]
        else:
            udir = split_dir / "unlabeled"
            files = [(f, None) for f in sorted(udir.glob("*.pgm"))] if udir.is_dir() else []
            if not files:
                raise EmptyClassDir(f"{split_dir}: no class dirs and no unlabeled samples")
        images, classes = [], []
        for f, ci in files:
            for img in crops(read_pgm(f)):
                images.append(img[None])
                classes.append(ci)
        return Split(np.stack(images), np.eye(2)[classes] if labeled else None)

    domains = []
    for idx, name in enumerate(names):
        base = root / name
        train = load_split(base / "train", labeled_required=(idx == 0))
        test = load_split(base / "test", labeled_required=True)
        domains.append(DomainDataset(name=name, train=train, test=test))
    return Benchmark(domains=domains)
