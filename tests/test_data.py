"""Synthetic data generation, batching, and PGM round-trips."""

import hashlib
import math

import numpy as np
import pytest

from m2dan import data as data_mod
from m2dan.data import (
    CLASS_NAMES,
    Benchmark,
    DomainSpec,
    epoch_batches,
    export_dataset,
    gen_synthetic_domain,
    load_dataset_dir,
    make_benchmark,
    narrow_count,
    read_pgm,
    resize_image,
    write_pgm,
)
from m2dan.errors import (
    EmptyClassDir,
    EmptyInput,
    IndivisibleBatch,
    InvalidSpec,
    MalformedPgm,
    MissingSource,
)


def clean_spec(n_train=8, n_test=4, narrow_frac=0.5, **kw):
    return DomainSpec("source", n_train, n_test, narrow_frac, **kw)


# ---------------------------------------------------------------- rendering


def test_clean_wedge_has_foreground_apex_and_background():
    ds = gen_synthetic_domain(clean_spec(), 64, seed=0)
    img = ds.train[0].image[0]
    assert img.shape == (64, 64)
    assert img.max() > 0.5  # rays are bright
    assert np.mean(img < 0.2) > 0.5  # mostly background
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_generation_deterministic():
    a = gen_synthetic_domain(clean_spec(), 32, seed=9)
    b = gen_synthetic_domain(clean_spec(), 32, seed=9)
    assert np.array_equal(a.train.images, b.train.images)
    assert np.array_equal(a.test.images, b.test.images)
    c = gen_synthetic_domain(clean_spec(), 32, seed=10)
    assert not np.array_equal(a.train[0].image, c.train[0].image)


def test_images_are_quantized_to_255_grid():
    spec = clean_spec(noise_std=0.08, salt_pepper_frac=0.05, blur_radius=1)
    ds = gen_synthetic_domain(spec, 32, seed=3)
    for s in ds.train:
        scaled = s.image * 255.0
        assert np.allclose(scaled, np.round(scaled), atol=1e-9)


def test_class_counts_follow_narrow_frac_exactly():
    assert narrow_count(0.118, 526) == 62
    spec = DomainSpec("source", 526, 2, 0.118)
    ds = gen_synthetic_domain(spec, 16, seed=0)
    n_narrow = sum(1 for s in ds.train if s.class_label is not None and s.class_label[0] == 1)
    assert n_narrow == 62
    assert len(ds.train) - n_narrow == 464


def test_unlabeled_target_train_hides_class_labels():
    ds = gen_synthetic_domain(clean_spec(), 16, seed=1, labeled_train=False)
    assert all(s.class_label is None for s in ds.train)
    assert all(s.class_label is not None for s in ds.test)  # test always labeled


def test_domain_spec_validation():
    with pytest.raises(InvalidSpec):
        DomainSpec("x", 4, 4, 0.0)
    with pytest.raises(InvalidSpec):
        DomainSpec("x", 4, 4, 0.5, contrast=0.0)
    with pytest.raises(InvalidSpec):
        DomainSpec("x", 4, 4, 0.5, resolution_scale=1.5)
    with pytest.raises(InvalidSpec):
        DomainSpec("x", 4, 4, 0.5, salt_pepper_frac=1.0)


def test_shift_pipeline_changes_images():
    base = gen_synthetic_domain(clean_spec(), 32, seed=5).train[0].image
    for kw in (dict(contrast=0.5), dict(blur_radius=2), dict(resolution_scale=0.5),
               dict(noise_std=0.1), dict(salt_pepper_frac=0.2)):
        shifted = gen_synthetic_domain(clean_spec(**kw), 32, seed=5).train[0].image
        assert not np.array_equal(base, shifted), kw
        assert shifted.min() >= 0.0 and shifted.max() <= 1.0


def _reference_image(spec, size, seed, index, narrow):
    """Sample `index` rendered alone, one image at a time, as the renderer did
    before it rendered blocks: the reference the block renderer must match
    byte for byte."""
    rng = np.random.default_rng([seed, index])
    lo, hi = data_mod.NARROW_ANGLE_DEG if narrow else data_mod.OPEN_ANGLE_DEG
    opening = math.radians(rng.uniform(lo, hi))
    bisector = math.radians(rng.uniform(-12.0, 12.0))
    apex_x = 0.28 * size + rng.uniform(-2.0, 2.0)
    apex_y = 0.50 * size + rng.uniform(-3.0, 3.0)
    fg, bg = rng.uniform(0.85, 1.0), 0.05
    fill = rng.uniform(*data_mod.FILL_RANGE)
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    px, py = xs - apex_x, ys - apex_y
    diff = np.arctan2(py, px) - bisector
    diff = np.mod(diff + math.pi, 2.0 * math.pi) - math.pi
    img = np.where(np.abs(diff) <= opening / 2.0, fill, bg)
    for sign in (-1.0, 1.0):
        ang = bisector + sign * opening / 2.0
        dx, dy = math.cos(ang), math.sin(ang)
        t = np.clip(px * dx + py * dy, 0.0, 1.5 * size)
        dist = np.hypot(px - t * dx, py - t * dy)
        img = np.maximum(img, bg + (fg - bg) * np.clip(1.5 - dist, 0.0, 1.0))
    if spec.contrast != 1.0:
        img = np.clip(spec.contrast * img, 0.0, 1.0)
    for _ in range(spec.blur_radius):
        padded = np.pad(img, 1, mode="edge")
        out = np.zeros_like(img)
        for di in range(3):
            for dj in range(3):
                out += padded[di : di + size, dj : dj + size]
        img = out / 9.0
    if spec.resolution_scale < 1.0:
        small = max(1, round(size * spec.resolution_scale))
        img = resize_image(resize_image(img, small, small), size, size)
    if spec.noise_std > 0.0:
        img = np.clip(img + rng.normal(0.0, spec.noise_std, img.shape), 0.0, 1.0)
    if spec.salt_pepper_frac > 0.0:
        hit = rng.random(img.shape) < spec.salt_pepper_frac
        salt = rng.random(img.shape) < 0.5
        img = np.where(hit, np.where(salt, 1.0, 0.0), img)
    return np.round(img * 255.0) / 255.0


@pytest.mark.parametrize("size", [5, 40, 64, 120])
def test_block_rendering_matches_one_image_reference(size):
    # at 5 px each split is one block, at 120 px each image is its own block
    specs = [clean_spec(7, 4, 0.4),
             clean_spec(7, 4, 0.4, contrast=1.6, blur_radius=2),
             clean_spec(7, 4, 0.4, contrast=0.8, blur_radius=1, resolution_scale=0.11,
                        noise_std=0.05, salt_pepper_frac=0.2)]
    for spec in specs:
        ds = gen_synthetic_domain(spec, size, seed=size)
        for split, first in ((ds.train, 0), (ds.test, spec.n_train)):
            narrow = narrow_count(spec.narrow_frac, len(split))
            for i, image in enumerate(split.images):
                ref = _reference_image(spec, size, size, first + i, i < narrow)
                assert np.array_equal(image[0], ref), (spec, first + i)


# ---------------------------------------------------------------- benchmark


def test_default_benchmark_counts():
    bench = make_benchmark(0)
    assert bench.names == ["source", "target1", "target2"]
    assert bench.num_domains == 3
    sizes = [(len(d.train), len(d.test)) for d in bench.domains]
    assert sizes == [(1505, 367), (88, 88), (304, 304)]

    def narrow_of(samples):
        return sum(1 for s in samples if s.class_label is not None and s.class_label[0] == 1)

    assert narrow_of(bench.domains[0].train) == 501
    assert narrow_of(bench.domains[0].test) == 132
    assert narrow_of(bench.domains[1].test) == 11
    assert narrow_of(bench.domains[2].test) == 70
    # target train splits are unlabeled
    assert all(s.class_label is None for s in bench.domains[1].train)
    assert all(s.class_label is None for s in bench.domains[2].train)


def test_benchmark_scales_with_fraction():
    bench = make_benchmark(seed=0, scale_fraction=1.0 / 60.0, image_size=16)
    sizes = [(len(d.train), len(d.test)) for d in bench.domains]
    assert sizes == [(150, 37), (9, 9), (30, 30)]  # round() halves to even: 150.5 -> 150
    assert bench.domains[0].train[0].image.shape == (1, 16, 16)


def test_benchmark_deterministic_in_seed():
    a = make_benchmark(seed=4, scale_fraction=0.01, image_size=16)
    b = make_benchmark(seed=4, scale_fraction=0.01, image_size=16)
    for da, db in zip(a.domains, b.domains):
        assert np.array_equal(da.train.images, db.train.images)
        assert np.array_equal(da.test.images, db.test.images)


def test_benchmark_renders_each_sample_once(monkeypatch):
    rendered = []
    real = data_mod._render_block

    def counting(canvas, spec, seed, first, narrow, out):
        assert len(narrow) == len(out) <= canvas.block
        rendered.extend((seed, first + i) for i in range(len(out)))
        return real(canvas, spec, seed, first, narrow, out)

    monkeypatch.setattr(data_mod, "_render_block", counting)
    bench = make_benchmark(seed=1, scale_fraction=0.01, image_size=16)
    assert len(rendered) == len(set(rendered))
    assert len(rendered) == sum(len(d.train) + len(d.test) for d in bench.domains)


def _benchmark_sha256(bench):
    h = hashlib.sha256()
    for index, d in enumerate(bench.domains):
        domain_label = np.eye(bench.num_domains)[index]
        for split in (d.train, d.test):
            for s in split:
                h.update(s.image.tobytes())
                h.update(b"none" if s.class_label is None else s.class_label.tobytes())
                h.update(domain_label.tobytes())
    return h.hexdigest()


def test_benchmark_bytes_are_pinned():
    # sha256 of make_benchmark(7, 0.01, 32) (images, class labels, domain
    # labels), recorded when each domain was still rendered twice: rendering
    # each sample once must not change a byte
    assert (_benchmark_sha256(make_benchmark(7, 0.01, 32))
            == "2cae99749ade5b0a04b52f6463845c96f9dacf0c2ba186522a85b9cb8a95991f")


def test_benchmark_bytes_are_pinned_at_default_size():
    # recorded with the one-image-at-a-time renderer; at 64 px a render block
    # is 3 images, so the 22-image source test split (8 narrow) ends on a
    # partial block and switches class inside one
    assert (_benchmark_sha256(make_benchmark(7, 0.01, 64))
            == "34059b7e1637a980bfc18acdd36019ff687ed64825c7f18c57e4c5ce0d41ad75")


def test_corrupted_domain_bytes_are_pinned():
    # every corruption on, noise included (no benchmark domain uses it), so
    # the pin also fixes where the noise draws sit in each sample's stream;
    # recorded with the one-image-at-a-time renderer. At 40 px a render block
    # is 7 images: both splits end on a partial block and switch class inside
    # one, and the downsample to 18 px has uneven bins
    spec = DomainSpec("noisy", 17, 10, 0.3, contrast=0.8, blur_radius=2,
                      resolution_scale=0.45, noise_std=0.05, salt_pepper_frac=0.1)
    pins = {True: "3578853dcd5f1276c2ce77dcd8e5102d94566d08e18d547c4f512f4b6bc11fa8",
            False: "93cc8e654d0bad5eb62dfcfe88992c5c754d01a51a2f3314903a7f87738f148c"}
    for labeled_train, pin in pins.items():
        ds = gen_synthetic_domain(spec, 40, seed=3, labeled_train=labeled_train)
        h = hashlib.sha256()
        for split in (ds.train, ds.test):
            h.update(split.images.tobytes())
            h.update(b"none" if split.class_labels is None else split.class_labels.tobytes())
        assert h.hexdigest() == pin, labeled_train


# ---------------------------------------------------------------- batching


def test_epoch_batches_equal_domain_mix():
    bench = make_benchmark(seed=1, scale_fraction=0.02, image_size=16)
    batches = list(epoch_batches(bench, batch_size=12, seed=7, epoch=0))
    largest = max(len(d.train) for d in bench.domains)
    assert len(batches) == largest // 4
    for b in batches:
        assert b.images.shape == (12, 1, 16, 16)
        assert b.domain_labels.sum(axis=0).tolist() == [4.0, 4.0, 4.0]
        assert b.source_rows.tolist() == [0, 1, 2, 3]
        assert b.class_labels.shape == (4, 2)
        assert np.all(b.class_labels.sum(axis=1) == 1.0)


def test_epoch_batches_deterministic_and_reshuffled():
    bench = make_benchmark(seed=1, scale_fraction=0.02, image_size=16)
    a = [b.images.data for b in epoch_batches(bench, 12, seed=7, epoch=0)]
    b = [b.images.data for b in epoch_batches(bench, 12, seed=7, epoch=0)]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    c = [b.images.data for b in epoch_batches(bench, 12, seed=7, epoch=1)]
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_epoch_batches_source_only_subset():
    bench = make_benchmark(seed=1, scale_fraction=0.02, image_size=16)
    batches = list(epoch_batches(bench, 12, seed=7, epoch=0, domains=(0,)))
    assert len(batches) == len(bench.domains[0].train) // 12
    for b in batches:
        assert len(b.source_rows) == 12
        assert np.all(b.domain_labels[:, 0] == 1.0)


def test_indivisible_batch_rejected():
    bench = make_benchmark(seed=1, scale_fraction=0.02, image_size=16)
    with pytest.raises(IndivisibleBatch):
        list(epoch_batches(bench, batch_size=10, seed=0, epoch=0))


def test_epoch_batches_rejects_empty_train_split():
    source = gen_synthetic_domain(clean_spec(), 16, seed=0)
    empty = gen_synthetic_domain(DomainSpec("target1", 0, 4, 0.5), 16, seed=0,
                                 labeled_train=False)
    bench = Benchmark(domains=[source, empty])
    assert len(empty.train) == 0
    with pytest.raises(EmptyInput, match="target1"):
        next(epoch_batches(bench, 2, 0, 0))
    # a source-only stream does not draw from the empty domain
    assert len(next(epoch_batches(bench, 2, 0, 0, domains=(0,))).source_rows) == 2


# ---------------------------------------------------------------- PGM


def test_pgm_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    img = np.round(rng.uniform(size=(24, 16)) * 255.0) / 255.0
    p = tmp_path / "x.pgm"
    write_pgm(p, img)
    back = read_pgm(p)
    assert np.array_equal(back, img)


def test_pgm_rejects_ascii_and_garbage(tmp_path):
    p2 = tmp_path / "a.pgm"
    p2.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(MalformedPgm):
        read_pgm(p2)
    bad = tmp_path / "b.pgm"
    bad.write_bytes(b"hello")
    with pytest.raises(MalformedPgm):
        read_pgm(bad)
    short = tmp_path / "c.pgm"
    short.write_bytes(b"P5\n4 4\n255\nxy")
    with pytest.raises(MalformedPgm):
        read_pgm(short)
    deep = tmp_path / "d.pgm"
    deep.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(MalformedPgm):
        read_pgm(deep)


def test_export_then_load_round_trip(tmp_path):
    bench = make_benchmark(seed=2, scale_fraction=0.01, image_size=64)
    export_dataset(bench, tmp_path)
    loaded = load_dataset_dir(tmp_path, half="none", image_size=64)
    assert loaded.names == bench.names
    for da, db in zip(bench.domains, loaded.domains):
        assert len(da.train) == len(db.train) and len(da.test) == len(db.test)
        for sa, sb in zip(da.train, db.train):
            assert np.array_equal(sa.image, sb.image)
            if sa.class_label is None:
                assert sb.class_label is None
            else:
                assert np.array_equal(sa.class_label, sb.class_label)
        for sa, sb in zip(da.test, db.test):
            assert np.array_equal(sa.image, sb.image)


def test_load_requires_source(tmp_path):
    bench = make_benchmark(seed=2, scale_fraction=0.01, image_size=16)
    export_dataset(bench, tmp_path)
    (tmp_path / "source").rename(tmp_path / "zdomain")
    with pytest.raises(MissingSource):
        load_dataset_dir(tmp_path, image_size=16)


def test_load_rejects_empty_class_dir(tmp_path):
    bench = make_benchmark(seed=2, scale_fraction=0.01, image_size=16)
    export_dataset(bench, tmp_path)
    for f in (tmp_path / "source" / "test" / "narrow").glob("*.pgm"):
        f.unlink()
    with pytest.raises(EmptyClassDir):
        load_dataset_dir(tmp_path, image_size=16)


def test_half_crops(tmp_path):
    img = np.zeros((64, 128))
    img[:, :64] = 1.0  # left half bright
    img = np.round(img * 255.0) / 255.0
    for domain in ("source",):
        for split in ("train", "test"):
            for cls in CLASS_NAMES:
                d = tmp_path / domain / split / cls
                d.mkdir(parents=True)
                write_pgm(d / "img_00000.pgm", img)
    whole = load_dataset_dir(tmp_path, half="none", image_size=64)
    assert whole.domains[0].train[0].image.shape == (1, 64, 64)
    left = load_dataset_dir(tmp_path, half="left", image_size=64)
    assert np.all(left.domains[0].train[0].image == 1.0)
    right = load_dataset_dir(tmp_path, half="right", image_size=64)
    assert np.all(right.domains[0].train[0].image == 0.0)
    both = load_dataset_dir(tmp_path, half="both", image_size=64)
    assert len(both.domains[0].train) == 2 * len(whole.domains[0].train)
    with pytest.raises(InvalidSpec):
        load_dataset_dir(tmp_path, half="top")


def test_resize_identity_and_halving():
    rng = np.random.default_rng(1)
    img = rng.uniform(size=(64, 64))
    assert resize_image(img, 64, 64) is img or np.array_equal(resize_image(img, 64, 64), img)
    down = resize_image(img, 32, 32)
    assert down.shape == (32, 32)
    assert np.isclose(down[0, 0], img[:2, :2].mean())
    up = resize_image(np.array([[0.0, 1.0]]), 1, 4)
    assert up.tolist() == [[0.0, 0.0, 1.0, 1.0]]
