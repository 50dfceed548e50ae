"""Acceptance gate: one test per numbered criterion, runnable end to end.

Each test prints a single PASS line on success (pytest -v adds its own
verdict); tolerances are stated inline next to every assertion.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from m2dan import cli
from m2dan.data import (
    DomainBatch,
    benchmark_domain_specs,
    export_dataset,
    load_dataset_dir,
    make_benchmark,
    narrow_count,
    read_pgm,
    write_pgm,
)
from m2dan.errors import MalformedPgm
from m2dan.layers import GrlCoeff, avg_pool2, conv2d, global_avg_pool, grl, linear
from m2dan.losses import HyperParams, domain_loss, entropy_loss, focal_loss
from m2dan.metrics import auc, evaluate
from m2dan.model import ExtractorArch, ScaleSpec, build_model, count_params, forward
from m2dan.tensor import (
    Tensor,
    add,
    backward,
    concat,
    exp,
    grad_check,
    log,
    log_softmax,
    matmul,
    mul,
    neg,
    no_grad,
    pow_scalar,
    relu,
    reset_tape,
    softmax,
    square,
    sub,
    take_rows,
    tensor_mean,
    tensor_sum,
)
from m2dan.training import train


def _t(rng, shape, lo=-1.0, hi=1.0, grad=True):
    return Tensor(rng.uniform(lo, hi, shape), requires_grad=grad)


def _weighted_sum(rng):
    """Project an op output to a scalar with fixed random weights so the
    finite-difference check exercises non-uniform upstream gradients."""

    cache = {}

    def reduce_op(y):
        if y.shape not in cache:
            cache[y.shape] = Tensor(rng.uniform(-1.0, 1.0, y.shape))
        return tensor_sum(mul(y, cache[y.shape]))

    return reduce_op


# -------------------------------------------------- criterion 1: gradients


def _tiny_adversarial_setup():
    """A full three-branch model small enough for coordinate-wise FD."""
    scale = ScaleSpec((1, 3, 5), branch_channels=4)
    arch = ExtractorArch(channels=(2, 3), head_widths=(8, 6))
    model = build_model(scale, arch, 3, seed=14)
    rng = np.random.default_rng(2)
    batch = DomainBatch(
        images=Tensor(rng.uniform(0.05, 0.95, (4, 1, 16, 16))),
        domain_labels=np.array(
            [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=np.float64
        ),
        source_rows=np.array([0, 1], dtype=np.int64),
        class_labels=np.array([[1, 0], [0, 1]], dtype=np.float64),
    )
    return model, batch


def _loss_parts(model, batch, hp):
    """(l_fo, l_en, l_d) as plain floats for one forward pass."""
    fwd = forward(model, batch.images, hp.grl, 0, with_domain=True)
    src = take_rows(fwd.class_probs, batch.source_rows)
    l_fo = focal_loss(src, batch.class_labels, hp.gamma).item()
    l_en = entropy_loss(fwd.class_probs).item()
    per = [domain_loss(dp, batch.domain_labels).item() for dp in fwd.domain_probs]
    return l_fo, l_en, sum(per) / len(per)


def _fd_group(model, batch, hp, paths, scalar_of_parts, h=1e-4):
    """Max relative error between recorded grads and central differences of
    scalar_of_parts(l_fo, l_en, l_d) over every coordinate in paths."""
    max_rel = 0.0
    for path in paths:
        p = model.params[path]
        analytic = p.grad.reshape(-1)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            v = flat[i]
            flat[i] = v + h
            reset_tape()
            with no_grad():
                up = scalar_of_parts(*_loss_parts(model, batch, hp))
            flat[i] = v - h
            reset_tape()
            with no_grad():
                dn = scalar_of_parts(*_loss_parts(model, batch, hp))
            flat[i] = v
            fd = (up - dn) / (2.0 * h)
            rel = abs(analytic[i] - fd) / max(abs(analytic[i]), abs(fd), 1e-8)
            max_rel = max(max_rel, rel)
    return max_rel


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    ws = _weighted_sum(rng)
    checks = []

    a = _t(rng, (3, 4))
    b = _t(rng, (3, 4))
    checks += [
        ("add.a", lambda t: ws(add(t, Tensor(b.data))), _t(rng, (3, 4))),
        ("sub.a", lambda t: ws(sub(t, Tensor(b.data))), _t(rng, (3, 4))),
        ("mul.a", lambda t: ws(mul(t, Tensor(b.data))), _t(rng, (3, 4))),
        ("mul.scalar", lambda t: ws(mul(t, 2.5)), _t(rng, (3, 4))),
        ("neg", lambda t: ws(neg(t)), _t(rng, (3, 4))),
        ("square", lambda t: ws(square(t)), _t(rng, (3, 4))),
        ("exp", lambda t: ws(exp(t)), _t(rng, (3, 4))),
        ("log", lambda t: ws(log(t)), _t(rng, (3, 4), 0.1, 0.9)),
        ("pow_scalar", lambda t: ws(pow_scalar(t, 2.7)), _t(rng, (3, 4), 0.3, 1.5)),
        ("sum.all", lambda t: tensor_sum(t), _t(rng, (3, 4))),
        ("sum.axis", lambda t: ws(tensor_sum(t, axes=1)), _t(rng, (3, 4))),
        ("mean.all", lambda t: tensor_mean(t), _t(rng, (3, 4))),
        ("mean.axis", lambda t: ws(tensor_mean(t, axes=0)), _t(rng, (3, 4))),
        ("softmax", lambda t: ws(softmax(t, axis=1)), _t(rng, (3, 4))),
        ("log_softmax", lambda t: ws(log_softmax(t, axis=1)), _t(rng, (3, 4))),
        ("take_rows", lambda t: ws(take_rows(t, [0, 2, 2])), _t(rng, (5, 3))),
    ]
    # relu: sample away from the kink so central differences are valid
    relu_in = rng.uniform(0.1, 1.0, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))
    checks.append(("relu", lambda t: ws(relu(t)), Tensor(relu_in, requires_grad=True)))

    m1 = _t(rng, (3, 4))
    m2 = _t(rng, (4, 5))
    checks += [
        ("matmul.a", lambda t: ws(matmul(t, Tensor(m2.data))), m1),
        ("matmul.b", lambda t: ws(matmul(Tensor(m1.data), t)), m2),
    ]
    c1 = _t(rng, (3, 2))
    c2 = _t(rng, (3, 4))
    checks += [
        ("concat.a", lambda t: ws(concat([t, Tensor(c2.data)], axis=1)), c1),
        ("concat.b", lambda t: ws(concat([Tensor(c1.data), t], axis=1)), c2),
    ]

    cx = _t(rng, (2, 2, 6, 6), 0.0, 1.0)
    cw = _t(rng, (3, 2, 3, 3))
    cb = _t(rng, (3,))
    checks += [
        ("conv2d.x", lambda t: ws(conv2d(t, Tensor(cw.data), Tensor(cb.data))), cx),
        ("conv2d.w", lambda t: ws(conv2d(Tensor(cx.data), t, Tensor(cb.data))), cw),
        ("conv2d.b", lambda t: ws(conv2d(Tensor(cx.data), Tensor(cw.data), t)), cb),
    ]
    lx = _t(rng, (3, 4))
    lw = _t(rng, (4, 5))
    lb = _t(rng, (5,))
    checks += [
        ("linear.x", lambda t: ws(linear(t, Tensor(lw.data), Tensor(lb.data))), lx),
        ("linear.w", lambda t: ws(linear(Tensor(lx.data), t, Tensor(lb.data))), lw),
        ("linear.b", lambda t: ws(linear(Tensor(lx.data), Tensor(lw.data), t)), lb),
        ("gap", lambda t: ws(global_avg_pool(t)), _t(rng, (2, 3, 4, 4))),
        ("avg_pool2", lambda t: ws(avg_pool2(t)), _t(rng, (2, 3, 4, 4))),
    ]
    # grl is omitted here on purpose: its backward rule is -c times the
    # identity, never the forward derivative; criterion 2 checks it.

    for name, f, x in checks:
        report = grad_check(f, x, h=1e-4, tol=1e-4)
        assert report.passed, f"{name}: max rel error {report.max_rel_error:.2e}"

    # full objective on a 4-sample, 3-domain batch, reduced model
    model, batch = _tiny_adversarial_setup()
    assert count_params(model) <= 2000
    hp = HyperParams()  # alpha=0.03, lam=1.0, eta=0.1, gamma=2.0
    from m2dan.losses import total_objective

    reset_tape()
    fwd = forward(model, batch.images, hp.grl, 0, with_domain=True)
    total, _ = total_objective(fwd, batch, hp)
    backward(total)

    groups = {
        "gf": [p for p in model.params.paths() if p.startswith("gf.")],
        "gm": [p for p in model.params.paths() if p.startswith("gm.")],
        "gy": [p for p in model.params.paths() if p.startswith("gy.")],
        "gd": [p for p in model.params.paths() if p.startswith("gd.")],
    }
    hp_ = hp
    cls = lambda fo, en, d: hp_.lam * (fo + hp_.eta * en)  # noqa: E731
    adv = lambda fo, en, d: hp_.lam * (fo + hp_.eta * en) - hp_.alpha * d  # noqa: E731
    dom = lambda fo, en, d: d  # noqa: E731
    for name, target in (("gf", adv), ("gm", adv), ("gy", cls), ("gd", dom)):
        rel = _fd_group(model, batch, hp, groups[name], target)
        assert rel <= 1e-4, f"{name}: objective FD max rel error {rel:.2e}"
    reset_tape()

    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"gradient checks took {elapsed:.1f}s"
    print(f"criterion 1 PASS: all op and objective gradients within 1e-4 ({elapsed:.1f}s)")


# -------------------------------------------------- criterion 2: reversal


def test_criterion_02_gradient_reversal_contract():
    rng = np.random.default_rng(5)
    x_data = rng.uniform(-1.0, 1.0, (5, 7))
    w = rng.uniform(-1.0, 1.0, (5, 7))
    for alpha in (0.0, 0.03, 0.3):
        reset_tape()
        x = Tensor(x_data, requires_grad=True)
        y = grl(x, GrlCoeff("constant", alpha))
        assert np.array_equal(y.data, x_data)  # forward identity, bit-exact
        backward(tensor_sum(mul(y, Tensor(w))))
        reversed_grad = x.grad.copy()

        reset_tape()
        x2 = Tensor(x_data, requires_grad=True)
        backward(tensor_sum(mul(x2, Tensor(w))))
        identity_grad = x2.grad.copy()

        assert np.max(np.abs(reversed_grad + alpha * identity_grad)) <= 1e-12
    reset_tape()
    print("criterion 2 PASS: identity forward, -alpha backward at {0, 0.03, 0.3}")


# -------------------------------------------------- criterion 3: losses


def test_criterion_03_loss_identities():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n, c = rng.integers(2, 9), 2
        logits = rng.normal(0.0, 2.0, (n, c))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        labels = np.zeros((n, c))
        labels[np.arange(n), rng.integers(0, c, n)] = 1.0
        got = focal_loss(Tensor(probs), labels, gamma=0.0).item()
        ce = -(labels * np.log(probs)).sum() / n
        assert abs(got - ce) <= 1e-12

    for _ in range(100):
        n, c = rng.integers(1, 7), rng.integers(2, 6)
        p = rng.dirichlet(np.ones(c), n)
        h = entropy_loss(Tensor(p)).item()
        assert -1e-12 <= h <= math.log(c) + 1e-12

    one_hot = np.eye(3)[[0, 2, 1, 0]]
    assert entropy_loss(Tensor(one_hot)).item() == 0.0
    uniform = np.full((4, 3), 1.0 / 3.0)
    assert abs(entropy_loss(Tensor(uniform)).item() - math.log(3)) <= 1e-12

    d = np.eye(3)[[0, 1, 2, 0, 1]]
    assert domain_loss(Tensor(d.copy()), d).item() < 1e-9  # clamped-perfect
    flat = np.full((6, 3), 1.0 / 3.0)
    assert abs(domain_loss(Tensor(flat), np.eye(3)[[0, 1, 2, 0, 1, 2]]).item()
               - math.log(3)) <= 1e-9
    print("criterion 3 PASS: focal(0)=CE, entropy bounds, domain-loss anchors")


# -------------------------------------------------- criterion 4: AUC


def _auc_bruteforce(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_criterion_04_auc_oracle_equivalence():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(4, 40))
        # coarse grid forces plenty of exact ties
        scores = rng.integers(0, 6, n) / 5.0
        labels = np.zeros(n, dtype=np.int64)
        labels[rng.permutation(n)[: rng.integers(1, n)]] = 1
        if labels.all() or not labels.any():
            labels[0] ^= 1
        fast = auc(scores, labels)
        slow = _auc_bruteforce(scores, labels)
        assert abs(fast - slow) <= 1e-12

    assert auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0
    assert auc([0.5, 0.5], [1, 0]) == 0.5
    assert auc([0.8, 0.3, 0.5, 0.2], [1, 1, 0, 0]) == 0.75
    print("criterion 4 PASS: midrank AUC equals pairwise oracle on 200 instances")


# -------------------------------------------------- criterion 5: model shape


def test_criterion_05_architecture_invariants():
    model = build_model(ScaleSpec((1, 3, 5)), ExtractorArch(), 3, seed=2)
    p = model.params

    for size in (16, 32, 64):
        h = Tensor(np.random.default_rng(size).uniform(0, 1, (2, 1, size, size)))
        with no_grad():
            for i in range(3):
                h_ = conv2d(h, p[f"gf.block{i + 1}.weight"], p[f"gf.block{i + 1}.bias"])
                h = avg_pool2(relu(h_))
            shapes = []
            for bi in range(3):
                f = conv2d(h, p[f"gm.branch{bi}.weight"], p[f"gm.branch{bi}.bias"])
                shapes.append(f.shape[2:])
        reset_tape()
        assert shapes[0] == shapes[1] == shapes[2], f"size {size}: {shapes}"

    images = Tensor(np.random.default_rng(0).uniform(0, 1, (3, 1, 16, 16)))
    with no_grad():
        fwd = forward(model, images, GrlCoeff("constant", 0.03), 0)
    concat_width = sum(f.shape[1] for f in fwd.branch_feats)
    assert concat_width == 3 * model.scale.branch_channels
    assert p["gy.fc1.weight"].shape[0] == concat_width

    # one shared discriminator: a single parameter update moves every branch
    before = [dp.data.copy() for dp in fwd.domain_probs]
    p["gd.fc1.bias"].data += 0.25
    with no_grad():
        fwd2 = forward(model, images, GrlCoeff("constant", 0.03), 0)
    reset_tape()
    for b, dp in zip(before, fwd2.domain_probs):
        assert not np.array_equal(b, dp.data)

    fcs = lambda prefix: sorted(  # noqa: E731
        path for path in model.params.paths() if path.startswith(prefix)
    )
    assert fcs("gy.") == [f"gy.fc{i}.{kind}" for i in (1, 2, 3) for kind in ("bias", "weight")]
    assert fcs("gd.") == [f"gd.fc{i}.{kind}" for i in (1, 2, 3) for kind in ("bias", "weight")]
    print("criterion 5 PASS: branch dims, concat width, shared head, 3 FC layers")


# -------------------------------------------------- criterion 6: adaptation


def _directional_run(use_domain):
    bench = make_benchmark(42)  # default scale and image size
    model = build_model(ScaleSpec((1, 3, 5)), ExtractorArch(), bench.num_domains, seed=42)
    train(model, bench, HyperParams(source_only=not use_domain))
    return evaluate(model, bench)


@pytest.mark.slow
def test_criterion_06_end_to_end_adaptation():
    t0 = time.perf_counter()
    baseline = _directional_run(use_domain=False)
    adapted = _directional_run(use_domain=True)
    elapsed = time.perf_counter() - t0
    acc_gap = adapted.mean_acc - baseline.mean_acc
    auc_gap = adapted.mean_auc - baseline.mean_auc
    assert acc_gap >= 0.05, f"mean target accuracy gap {acc_gap:+.3f} < 0.05"
    assert auc_gap >= 0.03, f"mean target AUC gap {auc_gap:+.3f} < 0.03"
    assert elapsed <= 600.0, f"paired runs took {elapsed:.0f}s"
    print(
        f"criterion 6 PASS: acc gap {acc_gap:+.3f} (>=0.05), "
        f"auc gap {auc_gap:+.3f} (>=0.03), {elapsed:.0f}s"
    )


# -------------------------------------------------- criterion 7: ablations


ABLATION_CONFIG = [
    "seed = 42",
    "epochs = 30",
    "scale_fraction = 0.041666666666666664",  # 1/24: directional at probe cost
]


def _read_csv(path):
    rows = [line.split(",") for line in Path(path).read_text().strip().split("\n")]
    return rows[0], rows[1:]


@pytest.mark.slow
def test_criterion_07_ablation_structure_and_ordering(tmp_path, monkeypatch):
    monkeypatch.setenv("M2DAN_THREADS", "1")
    cfg = tmp_path / "ablate.txt"
    cfg.write_text("\n".join(ABLATION_CONFIG) + "\n")

    small = tmp_path / "small.txt"
    small.write_text("seed = 42\nepochs = 2\nscale_fraction = 0.003\nimage_size = 32\n")
    out_scales = tmp_path / "scales"
    assert cli.main(["ablate", "--config", str(small), "--which", "scales",
                     "--out", str(out_scales)]) == 0
    header, rows = _read_csv(out_scales / "ablation_scales.csv")
    assert header == ["variant", "acc_target1", "auc_target1",
                      "acc_target2", "auc_target2", "mean_acc", "mean_auc"]
    assert [r[0] for r in rows] == ["s1", "s3", "s5", "mixed"]

    out_losses = tmp_path / "losses"
    assert cli.main(["ablate", "--config", str(cfg), "--which", "losses",
                     "--out", str(out_losses)]) == 0
    header, rows = _read_csv(out_losses / "ablation_losses.csv")
    assert header == ["l_ce", "l_fo", "l_d", "l_en", "acc_target1", "auc_target1",
                      "acc_target2", "auc_target2", "mean_acc", "mean_auc"]
    flags = [tuple(r[:4]) for r in rows]
    assert flags == [("1", "0", "0", "0"), ("0", "1", "0", "0"),
                     ("0", "1", "1", "0"), ("0", "1", "1", "1")]
    mean_aucs = [float(r[-1]) for r in rows]
    assert all(mean_aucs[-1] >= v for v in mean_aucs[:-1]), mean_aucs
    print(f"criterion 7 PASS: table structure exact; full combo mean AUC "
          f"{mean_aucs[-1]:.3f} >= ablations {mean_aucs[:-1]}")


# -------------------------------------------------- criterion 8: sweeps


def test_criterion_08_sweep_grids():
    assert cli.ALPHA_GRID == (0.0003, 0.003, 0.03, 0.3)
    assert cli.ETA_GRID == (0.001, 0.01, 0.1, 1.0)
    assert cli.LAMBDA_GRID == (0.001, 0.01, 0.1, 1.0)
    assert cli.SWEEP_GRIDS == {
        "alpha": cli.ALPHA_GRID, "eta": cli.ETA_GRID, "lambda": cli.LAMBDA_GRID,
    }
    print("criterion 8 PASS: sweep grids match the published protocol exactly")


# -------------------------------------------------- criterion 9: determinism


def test_criterion_09_training_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("M2DAN_THREADS", "1")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "epochs = 2\nbatch_size = 6\nscale_fraction = 0.003\nimage_size = 32\n"
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["train", "--config", str(cfg),
                         "--override", f"out_dir={out}"]) == 0
        outs.append(out)
    for artifact in ("model.ckpt", "history.csv", "metrics.json"):
        a = (outs[0] / artifact).read_bytes()
        b = (outs[1] / artifact).read_bytes()
        assert a == b, f"{artifact} differs between identical runs"
    print("criterion 9 PASS: checkpoint, history, metrics byte-identical")


# -------------------------------------------------- criterion 10: data


def test_criterion_10_data_contracts(tmp_path):
    specs = {s.name: s for s in benchmark_domain_specs(1.0 / 6.0)}
    assert (specs["source"].n_train, narrow_count(specs["source"].narrow_frac, 1505)) == (1505, 501)
    assert (specs["target1"].n_train, narrow_count(specs["target1"].narrow_frac, 88)) == (88, 10)
    assert (specs["target2"].n_train, narrow_count(specs["target2"].narrow_frac, 304)) == (304, 69)
    # imbalance scales exactly with the configured fraction
    for frac, expect in ((1.0 / 3.0, 1002), (1.0, 3006)):
        src = {s.name: s for s in benchmark_domain_specs(frac)}["source"]
        assert narrow_count(src.narrow_frac, src.n_train) == expect

    bench = make_benchmark(3, 0.004, 32)
    root = tmp_path / "ds"
    export_dataset(bench, root)
    loaded = load_dataset_dir(root, image_size=32)
    for dom_a, dom_b in zip(bench.domains, loaded.domains):
        # bit-exact round trip
        assert np.array_equal(dom_a.train.images, dom_b.train.images)
        assert np.array_equal(dom_a.test.images, dom_b.test.images)

    img = np.random.default_rng(0).uniform(0, 1, (8, 8))
    p = tmp_path / "x.pgm"
    write_pgm(p, img)
    assert np.array_equal(read_pgm(p), np.round(img * 255.0) / 255.0)

    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P2\n8 8\n255\n" + b"0 " * 64)
    with pytest.raises(MalformedPgm):
        read_pgm(bad)
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n8 8\n255\n" + b"\x00" * 10)
    with pytest.raises(MalformedPgm):
        read_pgm(short)
    print("criterion 10 PASS: imbalance exact, PGM round trip, malformed rejected")
