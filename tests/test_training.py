import json
import os
import struct

import numpy as np
import pytest

from m2dan.data import Benchmark, DomainSpec, gen_synthetic_domain
from m2dan.errors import (
    CorruptFile,
    M2danError,
    MalformedCsv,
    MissingGradient,
    NumericError,
    SpecMismatch,
    VersionMismatch,
)
from m2dan.losses import HyperParams
from m2dan.model import ExtractorArch, ScaleSpec, build_model
from m2dan.tensor import Tensor
from m2dan.training import (
    TrainState,
    history_columns,
    load_checkpoint,
    read_history_csv,
    save_checkpoint,
    sgd_step,
    train,
    write_atomic,
    write_history_csv,
)

TINY_SCALE = ScaleSpec(kernel_sizes=(1, 3), branch_channels=8)
TINY_ARCH = ExtractorArch(channels=(4, 8), head_widths=(16, 8))


def tiny_benchmark(seed=7, n_train=10, n_test=8, image_size=16):
    specs = [
        DomainSpec(name="source", n_train=n_train, n_test=n_test, narrow_frac=0.4),
        DomainSpec(name="t1", n_train=n_train, n_test=n_test, narrow_frac=0.4,
                   noise_std=0.08),
    ]
    domains = [
        gen_synthetic_domain(spec, image_size, seed=seed + idx, labeled_train=(idx == 0))
        for idx, spec in enumerate(specs)
    ]
    return Benchmark(domains=domains)


def tiny_model(seed=3):
    return build_model(TINY_SCALE, TINY_ARCH, num_domains=2, seed=seed)


def tiny_hp(**overrides):
    base = dict(epochs=2, batch_size=4, lr=0.02)
    base.update(overrides)
    return HyperParams(**base)


def param_snapshot(model, groups=("gf", "gm", "gy", "gd")):
    return {
        path: t.data.copy()
        for path, t in model.params.items()
        if path.split(".")[0] in groups
    }


# ---------------------------------------------------------------- sgd_step


def test_sgd_step_applies_learning_rate():
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.array([2.0])
    sgd_step([("gy.w", p)], 0.001)
    assert p.data[0] == pytest.approx(0.998, abs=1e-15)
    # the gradient buffer is zeroed, not dropped, so the next backward
    # accumulates from a clean slate
    assert isinstance(p.grad, np.ndarray)
    assert np.all(p.grad == 0.0)


def test_sgd_step_zero_lr_is_identity():
    p = Tensor([[1.0, -2.0]], requires_grad=True)
    p.grad = np.array([[5.0, 5.0]])
    sgd_step([("gy.w", p)], 0.0)
    assert np.array_equal(p.data, [[1.0, -2.0]])


def test_sgd_step_without_gradient_is_an_error():
    p = Tensor([1.0], requires_grad=True)
    with pytest.raises(MissingGradient):
        sgd_step([("gf.w", p)], 0.1)


# ---------------------------------------------------------------- train loop


def test_train_records_history_and_steps():
    bench = tiny_benchmark()
    state = train(tiny_model(), bench, tiny_hp())
    # 10 train samples in the largest domain, 2 per domain per batch
    assert state.step == 2 * (10 // 2)
    assert len(state.history) == 2
    expected_keys = set(history_columns(bench.names))
    for row in state.history:
        assert set(row) == expected_keys
        assert all(np.isfinite(v) for v in row.values())
    assert [row["epoch"] for row in state.history] == [0, 1]


def test_train_is_deterministic():
    bench = tiny_benchmark()
    runs = []
    for _ in range(2):
        state = train(tiny_model(seed=3), bench, tiny_hp())
        runs.append((state.history, param_snapshot(state.model)))
    assert runs[0][0] == runs[1][0]
    for path in runs[0][1]:
        assert np.array_equal(runs[0][1][path], runs[1][1][path])


def test_disabled_losses_leave_class_path_trajectory_unchanged():
    # with the reversal coefficient and entropy weight at zero, training must
    # move gf/gm/gy exactly as the run without those terms does: the extra
    # loss terms exist but contribute zero gradient
    bench = tiny_benchmark()
    hp_zero = tiny_hp(alpha=0.0, eta=0.0)
    state_a = train(tiny_model(seed=5), bench, hp_zero)
    state_b = train(tiny_model(seed=5), bench,
                    tiny_hp(domain_loss=False, entropy_loss=False))
    snap_a = param_snapshot(state_a.model, groups=("gf", "gm", "gy"))
    snap_b = param_snapshot(state_b.model, groups=("gf", "gm", "gy"))
    for path in snap_a:
        assert np.array_equal(snap_a[path], snap_b[path]), path
    # the discriminator still learned in run A (its own loss is unscaled)
    init = param_snapshot(tiny_model(seed=5), groups=("gd",))
    moved = param_snapshot(state_a.model, groups=("gd",))
    assert any(not np.array_equal(init[p], moved[p]) for p in init)


def test_domain_head_is_frozen_without_domain_loss():
    bench = tiny_benchmark()
    model = tiny_model(seed=9)
    init_gd = param_snapshot(model, groups=("gd",))
    state = train(model, bench, tiny_hp(epochs=1, source_only=True))
    after_gd = param_snapshot(state.model, groups=("gd",))
    for path in init_gd:
        assert np.array_equal(init_gd[path], after_gd[path])
    # while the class path did move
    fresh = param_snapshot(tiny_model(seed=9), groups=("gy",))
    assert not np.array_equal(
        state.model.params["gy.fc3.weight"].data, fresh["gy.fc3.weight"]
    )


def test_non_finite_loss_raises_numeric_error():
    bench = tiny_benchmark()
    model = tiny_model()
    model.params["gy.fc3.bias"].data[0] = np.nan
    with pytest.raises(NumericError):
        train(model, bench, tiny_hp(epochs=1))


# ---------------------------------------------------------------- history CSV


def test_history_csv_round_trip(tmp_path):
    bench = tiny_benchmark()
    state = train(tiny_model(), bench, tiny_hp())
    path = tmp_path / "history.csv"
    write_history_csv(state.history, bench.names, path)
    header, rows = read_history_csv(path)
    assert header == history_columns(bench.names)
    assert len(rows) == len(state.history)
    for got, want in zip(rows, state.history):
        assert got["epoch"] == want["epoch"]
        for key in header[1:]:
            assert got[key] == want[key]  # repr round-trips floats exactly


def test_history_csv_rejects_malformed(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(MalformedCsv):
        read_history_csv(empty)
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("time,loss\n0,1.0\n")
    with pytest.raises(MalformedCsv):
        read_history_csv(bad_header)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("epoch,l_fo,l_en,l_d,acc_source,auc_source\n0,0.1,0.2\n")
    with pytest.raises(MalformedCsv):
        read_history_csv(ragged)


# ---------------------------------------------------------------- checkpoints


def trained_state():
    bench = tiny_benchmark()
    return train(tiny_model(), bench, tiny_hp(epochs=1))


def test_write_atomic_replaces_the_whole_file(tmp_path):
    path = tmp_path / "artifact.bin"
    write_atomic(path, b"old contents")
    write_atomic(path, b"new")
    assert path.read_bytes() == b"new"
    assert os.listdir(tmp_path) == ["artifact.bin"]


@pytest.mark.parametrize("failing", ["fsync", "replace"])
def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch, failing):
    state = trained_state()
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    before = path.read_bytes()
    state.step += 1  # the new checkpoint would differ

    def disk_full(*args):
        raise OSError("No space left on device")

    monkeypatch.setattr(os, failing, disk_full)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(state, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]  # no partial temp file left


def test_checkpoint_round_trip(tmp_path):
    state = trained_state()
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    assert loaded.hp == state.hp
    assert loaded.step == state.step
    assert loaded.history == state.history
    for p, t in state.model.params.items():
        assert np.array_equal(loaded.model.params[p].data, t.data), p
    # writing the loaded state again reproduces the file byte for byte
    again = tmp_path / "again.ckpt"
    save_checkpoint(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_keeps_source_only_provenance(tmp_path):
    hp = tiny_hp(epochs=1, source_only=True, class_loss="ce", scale="s3", data_seed=11)
    state = train(tiny_model(), tiny_benchmark(), hp)
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path).hp
    assert (loaded.source_only, loaded.class_loss, loaded.scale, loaded.data_seed) == \
        (True, "ce", "s3", 11)
    assert loaded == hp


def test_checkpoint_with_ten_key_hp_block_loads_with_defaults(tmp_path):
    # checkpoints written before the run config was embedded in full carry
    # only the ten training hyperparameters
    state = trained_state()
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    raw = path.read_bytes()
    cut = raw.index(b'{"history"')  # the JSON tail, keys sorted
    tail = json.loads(raw[cut:])
    old_keys = ("alpha", "lam", "eta", "gamma", "lr", "epochs", "batch_size", "seed",
                "grl_mode", "grl_ramp_length")
    tail["hp"] = {k: v for k, v in tail["hp"].items() if k in old_keys}
    tail["hp"]["seed"] = 5
    path.write_bytes(raw[:cut] + json.dumps(tail, sort_keys=True).encode("utf-8"))
    loaded = load_checkpoint(path)
    assert loaded.hp == HyperParams(epochs=1, batch_size=4, lr=0.02, seed=5)
    for p, t in state.model.params.items():
        assert np.array_equal(loaded.model.params[p].data, t.data), p


@pytest.mark.parametrize("edit", [
    lambda tail: tail["hp"].update(bogus=1),  # a key this version does not know
    lambda tail: tail.pop("hp"),
    lambda tail: tail.pop("step"),
    lambda tail: tail.pop("history"),
    lambda tail: tail["hp"].update(lr=-1.0),  # out of range
    lambda tail: tail["hp"].update(class_loss="bogus"),
    lambda tail: tail["hp"].update(epochs="two"),  # wrong type
], ids=["unknown_hp_key", "no_hp", "no_step", "no_history", "bad_lr", "bad_choice",
        "bad_type"])
def test_checkpoint_with_bad_training_state_is_corrupt(tmp_path, edit):
    from m2dan.cli import main

    path = tmp_path / "model.ckpt"
    save_checkpoint(trained_state(), path)
    raw = path.read_bytes()
    cut = raw.index(b'{"history"')  # the JSON tail, keys sorted
    tail = json.loads(raw[cut:])
    edit(tail)
    path.write_bytes(raw[:cut] + json.dumps(tail, sort_keys=True).encode("utf-8"))
    with pytest.raises(CorruptFile):
        load_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path), "--synthetic-seed", "1"]) == 2


def test_checkpoint_with_corrupt_model_spec_is_corrupt(tmp_path):
    from m2dan.cli import main

    path = tmp_path / "model.ckpt"
    save_checkpoint(trained_state(), path)
    raw = bytearray(path.read_bytes())
    raw[raw.index(b'"arch"') + 1] ^= 0x01  # "arch" -> "`rch": the spec lacks its key
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptFile):
        load_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path), "--synthetic-seed", "1"]) == 2


def test_checkpoint_truncations_and_byte_flips_raise_only_package_errors(tmp_path):
    # v1 has no checksum, so a flip inside a float payload may still load;
    # anything that does not load must fail with the package's own errors
    model = build_model(ScaleSpec(kernel_sizes=(1,), branch_channels=1),
                        ExtractorArch(channels=(1,), head_widths=(1, 1)), num_domains=2, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(TrainState(model=model, hp=HyperParams(), step=0, history=[]), path)
    raw = path.read_bytes()
    variants = [raw[:cut] for cut in range(len(raw))]
    for pos in range(len(raw)):
        for mask in (0x01, 0x80, 0xFF):
            flipped = bytearray(raw)
            flipped[pos] ^= mask
            variants.append(bytes(flipped))
    for blob in variants:
        path.write_bytes(blob)
        try:
            load_checkpoint(path)
        except M2danError:
            pass


def test_checkpoint_starts_with_magic_and_version(tmp_path):
    state = trained_state()
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    raw = path.read_bytes()
    assert raw[:4] == b"M2DN"
    assert struct.unpack("<I", raw[4:8])[0] == 1


def test_checkpoint_rejects_bad_magic(tmp_path):
    state = trained_state()
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptFile):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_version(tmp_path):
    state = trained_state()
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 2)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatch):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    state = trained_state()
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    raw = path.read_bytes()
    for cut in (len(raw) // 2, len(raw) - 3):
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(raw[:cut])
        with pytest.raises(CorruptFile):
            load_checkpoint(clipped)


def test_checkpoint_rejects_wrong_model_spec(tmp_path):
    from m2dan.model import model_spec_dict

    state = trained_state()
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    other = build_model(TINY_SCALE, ExtractorArch(channels=(4, 8), head_widths=(8, 4)),
                        num_domains=2, seed=0)
    with pytest.raises(SpecMismatch):
        load_checkpoint(path, model_spec=model_spec_dict(other))
    # the matching spec is accepted
    load_checkpoint(path, model_spec=model_spec_dict(state.model))
