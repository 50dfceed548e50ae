"""Metrics: accuracy tie-breaking, AUC vs brute force, report layout."""

import numpy as np
import pytest

from m2dan.data import make_benchmark
from m2dan.errors import DegenerateLabels, EmptyInput, ShapeMismatch
from m2dan.metrics import MetricsReport, accuracy, auc, evaluate, predict_probs
from m2dan.model import ExtractorArch, ScaleSpec, build_model, source_only_forward
from m2dan.tensor import Tensor, reset_tape, tensor_sum


def brute_force_auc(scores, labels):
    # oracle: all positive/negative pairs, ties worth 1/2
    s = np.asarray(scores, dtype=float)
    pos = s[np.asarray(labels) == 1]
    neg = s[np.asarray(labels) == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


# ---------------------------------------------------------------- accuracy


def test_accuracy_basic_and_ties():
    probs = [[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]]
    labels = [[1, 0], [0, 1], [1, 0]]  # tie row counts as class 0
    assert accuracy(probs, labels) == 1.0
    labels2 = [[1, 0], [1, 0], [0, 1]]
    assert accuracy(probs, labels2) == pytest.approx(1.0 / 3.0)


def test_accuracy_errors():
    with pytest.raises(EmptyInput):
        accuracy(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ShapeMismatch):
        accuracy([[0.5, 0.5]], [[1, 0], [0, 1]])


# ---------------------------------------------------------------- auc


def test_auc_fixed_examples():
    assert auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0
    assert auc([0.5, 0.5], [1, 0]) == 0.5
    assert auc([0.8, 0.3, 0.5, 0.2], [1, 1, 0, 0]) == 0.75


def test_auc_degenerate_and_empty():
    with pytest.raises(DegenerateLabels):
        auc([0.5, 0.6], [1, 1])
    with pytest.raises(DegenerateLabels):
        auc([0.5, 0.6], [0, 0])
    with pytest.raises(EmptyInput):
        auc([], [])


def test_auc_matches_brute_force_with_ties():
    rng = np.random.default_rng(77)
    for trial in range(200):
        n = int(rng.integers(2, 40))
        labels = np.zeros(n, dtype=int)
        labels[: int(rng.integers(1, n))] = 1
        rng.shuffle(labels)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        # quantized scores force plenty of exact ties
        scores = rng.integers(0, 5, size=n) / 4.0
        got = auc(scores, labels)
        want = brute_force_auc(scores, labels)
        assert abs(got - want) < 1e-12, trial


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    scores = rng.integers(0, 9, size=30) / 8.0
    labels = (rng.random(30) < 0.4).astype(int)
    labels[0], labels[1] = 1, 0
    a = auc(scores, labels)
    b = auc(np.exp(3.0 * scores + 1.0), labels)  # strictly monotone
    assert a == b


def test_auc_label_flip_complements():
    rng = np.random.default_rng(4)
    scores = rng.integers(0, 7, size=25) / 6.0
    labels = (rng.random(25) < 0.5).astype(int)
    labels[0], labels[1] = 1, 0
    assert abs(auc(scores, labels) + auc(scores, 1 - labels) - 1.0) < 1e-12


# ---------------------------------------------------------------- evaluate


def tiny_setup():
    bench = make_benchmark(seed=5, scale_fraction=0.01, image_size=16)
    model = build_model(
        ScaleSpec(), ExtractorArch(channels=(2, 4), head_widths=(8, 4)),
        num_domains=3, seed=0,
    )
    return model, bench


def test_evaluate_report_structure():
    model, bench = tiny_setup()
    report = evaluate(model, bench)
    assert [d.name for d in report.domains] == ["source", "target1", "target2"]
    assert [d.n for d in report.domains] == [len(d.test) for d in bench.domains]
    for d in report.domains:
        assert 0.0 <= d.accuracy <= 1.0
        assert 0.0 <= d.auc <= 1.0
    # means cover the targets only
    assert report.mean_acc == pytest.approx(
        (report.domains[1].accuracy + report.domains[2].accuracy) / 2
    )
    assert report.mean_auc == pytest.approx(
        (report.domains[1].auc + report.domains[2].auc) / 2
    )


def test_evaluate_deterministic():
    model, bench = tiny_setup()
    a = evaluate(model, bench)
    b = evaluate(model, bench)
    assert a.to_json() == b.to_json()


def test_metrics_json_field_order():
    report = MetricsReport(
        domains=[], mean_acc=0.5, mean_auc=0.6
    )
    js = report.to_json()
    assert js.index('"domains"') < js.index('"mean_acc"') < js.index('"mean_auc"')
    model, bench = tiny_setup()
    full = evaluate(model, bench).to_json()
    row = full[full.index('"name"') :]
    assert row.index('"name"') < row.index('"n"') < row.index('"accuracy"') < row.index('"auc"')


def test_evaluate_keeps_the_callers_tape():
    # evaluation records nothing, so a forward recorded before it must still
    # backpropagate into the parameters afterwards
    model, bench = tiny_setup()
    reset_tape()
    loss = tensor_sum(source_only_forward(model, Tensor(bench.domains[0].train.images[:4])))
    evaluate(model, bench)
    loss.backward()
    grad = model.params["gf.block1.weight"].grad
    assert grad is not None and np.any(grad != 0.0)


def test_split_rows_serve_the_benchmark_access_pattern():
    # the per-row protocol perfbench's AUC oracle uses on every split
    model, bench = tiny_setup()
    for index, dataset in enumerate(bench.domains):
        for split, labeled in ((dataset.train, index == 0), (dataset.test, True)):
            assert len(split) == split.images.shape[0] > 0
            for i in range(len(split)):
                row = split[i]
                assert row.image.shape == split.images.shape[1:]
                if labeled:
                    assert sorted(row.class_label.tolist()) == [0.0, 1.0]
                else:
                    assert row.class_label is None
        classes = [np.argmax(s.class_label) for s in dataset.test]
        assert classes == dataset.test.class_labels.argmax(axis=1).tolist()
        probs = predict_probs(model, dataset.test)
        assert probs.shape == (len(dataset.test), 2)


def test_predict_probs_does_not_depend_on_chunk_size():
    # 90 rows: not a multiple of any chunk, and more than one chunk of 32
    model, bench = tiny_setup()
    split = bench.domains[0].train
    assert len(split) == 90
    want = predict_probs(model, split, chunk=128)
    for chunk in (1, 32):
        got = predict_probs(model, split, chunk=chunk)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0.0, atol=1e-12), chunk
