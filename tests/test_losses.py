"""Loss definitions against frozen oracle values and an independent CE.

Oracle constants computed with mpmath at 50 decimal digits.
"""

import numpy as np
import pytest

from m2dan import tensor as T
from m2dan.errors import InvalidSpec, NotOneHot, ShapeMismatch
from m2dan.losses import (
    HyperParams,
    classification_loss,
    domain_loss,
    entropy_loss,
    focal_loss,
    total_objective,
)
from m2dan.tensor import Tensor, constant

NEG_LN_07 = 0.35667494393873237891
NEG_LN_06 = 0.51082562376599068321
FOCAL_G2 = 0.081732099802558509313  # -(0.4)^2 * ln(0.6)
LN2 = 0.69314718055994530942
LN3 = 1.0986122886681096914
ENTROPY_MIXED = 0.50911507697569677446  # rows (0.9,0.1) and (0.5,0.5)


def probs(rows):
    return constant(np.asarray(rows, dtype=np.float64))


def setup_function(_):
    T.reset_tape()


# ---------------------------------------------------------------- domain


def test_domain_loss_single_row_oracle():
    loss = domain_loss(probs([[0.2, 0.7, 0.1]]), [[0.0, 1.0, 0.0]])
    assert abs(loss.item() - NEG_LN_07) < 1e-12


def test_domain_loss_perfect_prediction_is_zero():
    eye = np.eye(3)
    loss = domain_loss(probs(eye), eye)
    assert loss.item() < 1e-9


def test_domain_loss_uniform_is_log_num_domains():
    uniform = np.full((6, 3), 1.0 / 3.0)
    labels = np.eye(3)[[0, 1, 2, 0, 1, 2]]
    assert abs(domain_loss(probs(uniform), labels).item() - LN3) < 1e-9


def test_domain_loss_rejects_bad_labels():
    with pytest.raises(NotOneHot):
        domain_loss(probs([[0.5, 0.5]]), [[0.5, 0.5]])
    with pytest.raises(NotOneHot):
        domain_loss(probs([[0.5, 0.5]]), [[1.0, 1.0]])
    with pytest.raises(ShapeMismatch):
        domain_loss(probs([[0.5, 0.5]]), [[1.0, 0.0, 0.0]])


# ---------------------------------------------------------------- focal


def test_focal_gamma0_is_cross_entropy_value():
    loss = focal_loss(probs([[0.6, 0.4]]), [[1.0, 0.0]], gamma=0.0)
    assert abs(loss.item() - NEG_LN_06) < 1e-12


def test_focal_gamma2_oracle():
    loss = focal_loss(probs([[0.6, 0.4]]), [[1.0, 0.0]], gamma=2.0)
    assert abs(loss.item() - FOCAL_G2) < 1e-12


def test_focal_perfect_prediction_is_zero():
    loss = focal_loss(probs([[1.0, 0.0], [0.0, 1.0]]), np.eye(2), gamma=2.0)
    assert abs(loss.item()) < 1e-9


def test_focal_gamma0_matches_independent_ce_on_random_batches():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(1, 16))
        logits = rng.normal(size=(n, 2)) * 2
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        labels = np.eye(2)[rng.integers(0, 2, size=n)]
        ce = -np.mean(np.log(p[np.arange(n), labels.argmax(axis=1)]))  # oracle
        got = focal_loss(probs(p), labels, gamma=0.0).item()
        assert abs(got - ce) < 1e-12


def test_focal_non_increasing_in_gamma():
    rng = np.random.default_rng(5)
    p = rng.dirichlet([2.0, 2.0], size=8)
    labels = np.eye(2)[rng.integers(0, 2, size=8)]
    values = [focal_loss(probs(p), labels, g).item() for g in (0.0, 0.5, 1.0, 2.0, 5.0)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_focal_rejects_negative_gamma_and_bad_labels():
    with pytest.raises(InvalidSpec):
        focal_loss(probs([[0.5, 0.5]]), [[1.0, 0.0]], gamma=-1.0)
    with pytest.raises(NotOneHot):
        focal_loss(probs([[0.5, 0.5]]), [[0.3, 0.7]], gamma=2.0)


# ---------------------------------------------------------------- entropy


def test_entropy_one_hot_rows_is_zero():
    assert entropy_loss(probs(np.eye(2)[[0, 1, 0]])).item() < 1e-9


def test_entropy_uniform_row_is_ln2():
    assert abs(entropy_loss(probs([[0.5, 0.5]])).item() - LN2) < 1e-12


def test_entropy_mixed_rows_oracle():
    got = entropy_loss(probs([[0.9, 0.1], [0.5, 0.5]])).item()
    assert abs(got - ENTROPY_MIXED) < 1e-12


def test_entropy_bounds():
    rng = np.random.default_rng(9)
    for c in (2, 3, 5):
        p = rng.dirichlet(np.ones(c), size=32)
        h = entropy_loss(probs(p)).item()
        assert -1e-12 <= h <= np.log(c) + 1e-12


# ---------------------------------------------------------------- combined


def test_classification_loss_example():
    f = constant([0.5])
    e = constant([0.7])
    assert abs(classification_loss(f, e, eta=0.1).item() - 0.57) < 1e-12


def test_classification_loss_eta_zero_ignores_entropy():
    f = constant([0.5])
    e = constant([123.0])
    assert classification_loss(f, e, eta=0.0).item() == 0.5


class _Fwd:
    def __init__(self, class_probs, domain_probs):
        self.class_probs = class_probs
        self.domain_probs = domain_probs


class _Batch:
    def __init__(self, source_rows, class_labels, domain_labels):
        self.source_rows = np.asarray(source_rows)
        self.class_labels = class_labels
        self.domain_labels = domain_labels


def _toy_setup(rng):
    cp = probs(rng.dirichlet([2.0, 2.0], size=6))
    dps = [probs(rng.dirichlet([1.0, 1.0, 1.0], size=6)) for _ in range(3)]
    batch = _Batch([0, 1], np.eye(2)[[0, 1]], np.eye(3)[[0, 0, 1, 1, 2, 2]])
    return _Fwd(cp, dps), batch


def test_total_objective_composition():
    rng = np.random.default_rng(21)
    fwd, batch = _toy_setup(rng)
    hp = HyperParams(lam=0.7, eta=0.3, gamma=2.0)
    total, parts = total_objective(fwd, batch, hp)
    by_hand = (
        0.7 * (parts["l_fo"] + 0.3 * parts["l_en"]) + parts["l_d"]
    )
    assert abs(total.item() - by_hand) < 1e-12
    l_fo = focal_loss(T.take_rows(fwd.class_probs, batch.source_rows), batch.class_labels, 2.0)
    assert abs(parts["l_fo"] - l_fo.item()) < 1e-15
    branch = [domain_loss(dp, batch.domain_labels).item() for dp in fwd.domain_probs]
    assert abs(parts["l_d"] - sum(branch) / 3.0) < 1e-12


def test_total_objective_toggles():
    rng = np.random.default_rng(22)
    fwd, batch = _toy_setup(rng)
    hp = HyperParams()
    total, parts = total_objective(fwd, batch, hp, use_domain=False, use_entropy=False)
    assert parts["l_d"] == 0.0 and parts["l_en"] == 0.0
    assert abs(total.item() - hp.lam * parts["l_fo"]) < 1e-12
    # use_focal=False means gamma is treated as 0 (plain cross-entropy)
    _, parts_ce = total_objective(fwd, batch, hp, use_focal=False, use_domain=False, use_entropy=False)
    ce = focal_loss(T.take_rows(fwd.class_probs, batch.source_rows), batch.class_labels, 0.0)
    assert abs(parts_ce["l_fo"] - ce.item()) < 1e-15


# ---------------------------------------------------------------- gradients


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(31)
    p = rng.uniform(0.1, 0.9, size=(4, 3))
    labels = np.eye(3)[[0, 1, 2, 1]]
    x = Tensor(p, requires_grad=True)
    assert T.grad_check(lambda v: domain_loss(v, labels), x).passed
    assert T.grad_check(lambda v: entropy_loss(v), x).passed
    y2 = Tensor(rng.uniform(0.1, 0.9, size=(4, 2)), requires_grad=True)
    lab2 = np.eye(2)[[0, 1, 0, 1]]
    assert T.grad_check(lambda v: focal_loss(v, lab2, 2.0), y2).passed
    assert T.grad_check(lambda v: focal_loss(v, lab2, 0.0), y2).passed


# ---------------------------------------------------------------- hyperparams


def test_hyperparams_defaults():
    hp = HyperParams()
    assert (hp.alpha, hp.lam, hp.eta, hp.gamma) == (0.03, 1.0, 0.1, 2.0)
    assert hp.lr == 0.001
    assert hp.epochs == 30 and hp.batch_size == 12 and hp.seed == 42
    assert hp.grl.mode == "constant" and hp.grl.alpha == 0.03


def test_hyperparams_validation():
    with pytest.raises(InvalidSpec):
        HyperParams(lr=0.0)
    with pytest.raises(InvalidSpec):
        HyperParams(eta=-0.1)
    with pytest.raises(InvalidSpec):
        HyperParams(alpha=-0.01)
    with pytest.raises(InvalidSpec):
        HyperParams(grl_mode="ramp")  # needs ramp_length
    for choice in ({"grl_mode": "step"}, {"scale": "s7"}, {"class_loss": "hinge"},
                   {"half": "top"}):
        with pytest.raises(InvalidSpec):
            HyperParams(**choice)
    assert HyperParams(grl_mode="ramp", grl_ramp_length=100).grl.value_at(50) == pytest.approx(0.015)
